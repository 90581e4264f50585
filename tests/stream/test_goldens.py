"""Absolute goldens for the stream engine and the monitor runner.

The bit-identity tests elsewhere compare one engine layout against
another (sharded == serial, supervised == serial), so a change that moves
both sides at once still passes them.  These tests pin canonical digests
of every seeded product instead: the episode reports, the
``engine``/``ingest``/``detector`` counters and the supervision block.
Window counters are left out on purpose; they are checked against the
serial run in ``test_sharding.py``.

Hypotheses are canonicalised as ``sorted(map(str, ...))``: the ``repr``
order of a frozenset depends on ``PYTHONHASHSEED``.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.journal import RunJournal
from repro.monitor import make_monitor_setup, run_monitor, scenario
from repro.stream import make_replay_setup, run_stream_replay

from .test_sharding import CONFIG, SETUP_ARGS

CHAOS_CONFIG = replace(CONFIG, chaos_rate=0.15, seed=7)


def _canonical_reports(reports):
    return [
        (
            report.report_index,
            report.episode_id,
            report.trigger,
            report.tick,
            report.diagnosed_at,
            [list(pair) for pair in report.pairs],
            [
                (
                    diagnosis.algorithm,
                    sorted(map(str, diagnosis.hypothesis)),
                    diagnosis.hypothesis_size,
                    diagnosis.fully_explained,
                    diagnosis.error,
                    diagnosis.verdict,
                )
                for diagnosis in report.diagnoses
            ],
        )
        for report in reports
    ]


def digest(result) -> str:
    """sha256 over the reports, counters and supervision block."""
    payload = {
        "reports": _canonical_reports(result.reports),
        "engine": result.engine_counters,
        "ingest": result.ingest_counters,
        "detector": result.detector_counters,
        "supervision": result.supervision,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _replay(config=CONFIG, **kwargs):
    return run_stream_replay(make_replay_setup(**SETUP_ARGS), config, **kwargs)


def _resumed_from_serial_journal(tmp_path):
    fingerprint = {"format": "repro-stream-journal", "config": CONFIG}
    journal = RunJournal(tmp_path / "stream.journal", fingerprint)
    _replay(journal=journal)
    return _replay(shards=4, workers=2, cached_reports=journal.load_completed())


STREAM_GOLDENS = {
    "serial": (
        lambda tmp_path: _replay(),
        "83983babf461b10842cbdc760a3185dd99fe96643e5fb2cad069f5d1eafd085a",
    ),
    "shards4": (
        lambda tmp_path: _replay(shards=4),
        "8c20436261b5e628bced35461419ec2930ace0496a4c70fbed9e10ddfc574567",
    ),
    "shards4-workers2": (
        lambda tmp_path: _replay(shards=4, workers=2),
        "8c20436261b5e628bced35461419ec2930ace0496a4c70fbed9e10ddfc574567",
    ),
    "chaos0.15-seed7": (
        lambda tmp_path: _replay(CHAOS_CONFIG),
        "11e13b5b20258cef8ab44ff16c1c1dbad37b6adf0aceb0708776cbf865ec0cdc",
    ),
    "serial-journal-sharded-resume": (
        _resumed_from_serial_journal,
        "fa6d8298aa3702ef9f9a98b4f114ee622ab9620afecbc9e07a2fdeaf7b7e4ab0",
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_GOLDENS))
def test_stream_replay_matches_pinned_digest(name, tmp_path):
    run, expected = STREAM_GOLDENS[name]
    assert digest(run(tmp_path)) == expected


MONITOR_GOLDENS = {
    "serial": (
        {},
        "13fcf48a9a2efb8c1f3a7d190ab6e7ebc0d34a34c2bf4765dc0cfce8d1a71617",
    ),
    "shards4-workers2": (
        dict(shards=4, workers=2),
        "f9c03bb8474178b5d00984a8dad34c80e7dc25b1f927eba1e5385751f4f5ca7c",
    ),
    "chaos0.05": (
        dict(chaos_rate=0.05),
        "52d4412cbfa7c5a6f097c4f9dd66a121d1eb1206706ccde58b1cadb0ec99b197",
    ),
}


@pytest.fixture(scope="module")
def monitor_setup():
    return make_monitor_setup(seed=7)


@pytest.mark.parametrize("name", sorted(MONITOR_GOLDENS))
def test_monitor_mixed_ops_matches_pinned_digest(name, monitor_setup):
    kwargs, expected = MONITOR_GOLDENS[name]
    result = run_monitor(
        monitor_setup, scenario("mixed-ops", 600), seed=3, **kwargs
    )
    assert digest(result) == expected
