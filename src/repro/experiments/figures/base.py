"""Shared types for the per-figure harnesses.

Every module in :mod:`repro.experiments.figures` exposes
``run(config) -> FigureResult``.  A :class:`FigureResult` carries named
series of (x, y) points — CDFs, sweeps or scatters — plus the summary
lines the paper's prose states about the figure, so a bench run prints
both the data and the claims it should be checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import render_figure
from repro.experiments.runner import RunnerStats

__all__ = ["FigureConfig", "Series", "FigureResult"]


@dataclass
class FigureConfig:
    """Knobs common to all figure harnesses.

    The paper uses 10 placements × 100 failures; the defaults here are
    deliberately small so benches finish in seconds.  Paper scale:
    ``FigureConfig(placements=10, failures_per_placement=100)`` (also
    reachable via ``python -m repro figures --paper-scale``).

    ``workers`` fans each batch's placements out over that many processes
    (``0`` = every core); results are bit-identical to ``workers=1``.
    """

    seed: int = 0
    topo_seed: int = 100
    placements: int = 3
    failures_per_placement: int = 10
    n_sensors: int = 10
    workers: int = 1


@dataclass
class Series:
    """One named line/scatter of a figure."""

    name: str
    points: List[Tuple[float, float]]
    x_label: str = "x"
    y_label: str = "y"


@dataclass
class FigureResult:
    """Everything a figure harness produced."""

    figure_id: str
    title: str
    series: List[Series] = field(default_factory=list)
    summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: batch accounting (appended to the rendering when present).
    runner_stats: Optional[RunnerStats] = None

    def series_by_name(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"figure {self.figure_id} has no series {name!r}")

    def render(self) -> str:
        """Human-readable text rendering (what the bench prints)."""
        return render_figure(self)
