"""Scope of the stream engine's token view: one per engine, cold at
construction, bounded, and never part of a checkpoint or a report."""

import pickle
from dataclasses import replace

import pytest

import repro.stream.engine as engine_module
from repro.core.logical import TokenView
from repro.stream import (
    StreamEngine,
    build_event_log,
    make_replay_setup,
    run_replay,
)
from repro.stream.checkpoint import CheckpointStore

from .test_goldens import _canonical_reports
from .test_sharding import CONFIG, SETUP_ARGS

ALGORITHMS = ("nd-edge", "nd-bgpigp", "ensemble")


@pytest.fixture(scope="module")
def setup():
    return make_replay_setup(**SETUP_ARGS, algorithms=ALGORITHMS)


@pytest.fixture(scope="module")
def log(setup):
    return build_event_log(setup, replace(CONFIG, episodes=4))


def _engine(setup, **kwargs):
    return StreamEngine(
        asn_of=setup.session.sim.mapper.asn_of,
        diagnosers=setup.diagnosers,
        asx=setup.asx,
        **kwargs,
    )


def _replay(setup, log, **kwargs):
    engine = _engine(setup, **kwargs)
    reports = run_replay(log, engine)
    return engine, _canonical_reports(reports)


def test_fresh_engines_start_cold_and_agree(setup, log):
    first, first_reports = _replay(setup, log)
    second, second_reports = _replay(setup, log)
    assert first.token_view is not second.token_view
    assert first_reports == second_reports
    assert any(report[-1] for report in first_reports)  # something diagnosed
    view_a, view_b = first.token_view, second.token_view
    assert view_a.misses > 0 and view_a.hits > view_a.misses
    assert (view_a.hits, view_a.misses) == (view_b.hits, view_b.misses)


def test_view_counters_stay_off_the_engine_counters(setup, log):
    engine, _reports = _replay(setup, log)
    for counters in (
        engine.counters(),
        engine.ingest_counters(),
        engine.window_counters(),
        engine.detector_counters(),
    ):
        assert not any("token" in key or "view" in key for key in counters)


def test_checkpoints_and_reports_carry_no_view(setup, log):
    checkpoints = CheckpointStore()
    engine, _reports = _replay(setup, log, shards=2, checkpoints=checkpoints)
    assert len(engine.token_view) > 0
    assert checkpoints.checkpoints_saved > 0
    payloads = [pickle.dumps(shard.state()) for shard in engine.shards]
    payloads.append(pickle.dumps(checkpoints.latest()))
    payloads.append(pickle.dumps(engine.reports))
    for payload in payloads:
        assert TokenView.__name__.encode() not in payload


def test_view_stays_within_capacity(setup, log, monkeypatch):
    _engine_unbounded, unbounded = _replay(setup, log)
    monkeypatch.setattr(engine_module, "TOKEN_VIEW_CAPACITY", 8)
    engine = _engine(setup)
    view = engine.token_view
    sizes = []
    drain = engine.drain

    def drain_and_measure(now):
        reports = drain(now)
        sizes.append(len(view))
        return reports

    engine.drain = drain_and_measure
    bounded = _canonical_reports(run_replay(log, engine))
    assert bounded == unbounded
    assert view.capacity == 8
    assert max(sizes) <= 8
    assert view.misses > _engine_unbounded.token_view.misses  # it evicted
