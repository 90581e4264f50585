"""Golden-figure smoke tests.

Fig 6 and Fig 10 are rendered at a deliberately tiny scale and their
stable lines — series points and summary statistics, everything except
wall-clock accounting — are compared against checked-in goldens.  A
runner refactor (parallel backend, job restructuring, RNG plumbing) that
silently shifts any experimental result fails here first.

Regenerate after an *intentional* change of results::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/experiments/test_goldens.py
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

from repro.diagnosers import make_diagnosers
from repro.experiments.figures import fig6_tomo, fig10_bgpigp
from repro.experiments.figures.base import FigureConfig, FigureResult
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.report import render_runner_stats
from repro.experiments.runner import RunnerStats, run_kind_batch
from repro.faults import FaultConfig

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Tiny but non-degenerate: one placement over the full 165-AS topology.
SMOKE_CONFIG = FigureConfig(
    seed=0, topo_seed=100, placements=1, failures_per_placement=3, n_sensors=8
)


def stable_lines(result: FigureResult) -> str:
    """The deterministic content of a figure result, one line per datum.

    Timings (``runner_stats``) and rendering cosmetics are excluded:
    this is the data a refactor must not move.
    """
    lines = [f"{result.figure_id}: {result.title}"]
    for series in result.series:
        for x, y in series.points:
            lines.append(f"series {series.name} {x:.9f} {y:.9f}")
    for name in sorted(result.summaries):
        summary = result.summaries[name]
        parts = " ".join(
            f"{key}={summary[key]:.9f}" for key in sorted(summary)
        )
        lines.append(f"summary {name} {parts}")
    return "\n".join(lines) + "\n"


def check_golden(result: FigureResult) -> None:
    check_golden_text(result.figure_id, stable_lines(result))


def check_golden_text(name: str, text: str) -> None:
    golden_path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        pytest.skip(f"golden regenerated at {golden_path}")
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    assert text == golden_path.read_text(), (
        f"{name} drifted from its golden — if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


#: Both hitting-set paths: the vectorized default and the set-based
#: reference behind the ``REPRO_NO_VECTORIZE`` escape hatch.  One golden
#: file serves both — the contract is bit-for-bit identity.
SOLVER_PATHS = pytest.mark.parametrize(
    "no_vectorize", ["0", "1"], ids=["vectorized", "set-based"]
)


class TestGoldenFigures:
    @SOLVER_PATHS
    def test_fig6_matches_golden(self, monkeypatch, no_vectorize):
        monkeypatch.setenv("REPRO_NO_VECTORIZE", no_vectorize)
        check_golden(fig6_tomo.run(SMOKE_CONFIG))

    @SOLVER_PATHS
    def test_fig10_matches_golden(self, monkeypatch, no_vectorize):
        monkeypatch.setenv("REPRO_NO_VECTORIZE", no_vectorize)
        check_golden(fig10_bgpigp.run(SMOKE_CONFIG))


# -- runner-stats block -------------------------------------------------

#: Every omission *and* corruption mode at once: one batch lights the
#: faults, looking-glass, control-feed, corruption, validation,
#: consistency and ensemble lines of the ``-- runner stats`` block.
FAULTS_AND_CORRUPTION = dataclasses.replace(
    FaultConfig.uniform(0.3),
    **{name: 0.3 for name in FaultConfig._CORRUPTION_FIELDS},
)

STATS_BATCH = dict(
    topo_factory=ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16),
    placement_fn=StubPlacement(6),
    kinds=("link-1",),
    placements=1,
    failures_per_placement=4,
    seed=0,
    asx_selector=CoreAsx(),
    blocked_fraction=0.3,
    lg_fraction=1.0,
)


def stable_stats_lines(stats: RunnerStats) -> str:
    """The ``-- runner stats`` block without its wall-clock lines."""
    lines = [
        line
        for line in render_runner_stats(stats).splitlines()
        if not line.lstrip().startswith(("time:", "wall="))
    ]
    return "\n".join(lines) + "\n"


class TestGoldenRunnerStats:
    def test_faults_corruption_quarantine_block(self):
        stats = RunnerStats()
        run_kind_batch(
            **STATS_BATCH,
            diagnosers=make_diagnosers(
                ["tomo", "nd-edge", "nd-bgpigp", "nd-lg", "ensemble"]
            ),
            fault_config=FAULTS_AND_CORRUPTION,
            validation="quarantine",
            stats=stats,
        )
        check_golden_text("runner_stats_quarantine", stable_stats_lines(stats))

    def test_journalled_resume_block(self, tmp_path):
        batch = dict(
            STATS_BATCH,
            diagnosers=make_diagnosers(["tomo", "nd-edge"]),
            fault_config=FaultConfig.uniform(0.3),
            journal=tmp_path / "batch.journal",
        )
        run_kind_batch(**batch)
        stats = RunnerStats()
        run_kind_batch(**batch, resume=True, stats=stats)
        check_golden_text("runner_stats_resume", stable_stats_lines(stats))
