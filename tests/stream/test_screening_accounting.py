"""Screening is counted once: each stream ingestor owns its report, a
shard's report travels in its checkpoints, and the engine folds every
report into the run's exactly once, when it closes at end of stream — so a chaos replay
whose crashed shards re-screen their tails still accounts each screened
event once, and checkpoints stay the same size however long the stream.
"""

import pickle
from dataclasses import replace

import pytest

from repro.errors import CheckpointError
from repro.experiments.journal import append_pickle_record
from repro.faults import DegradationReport
from repro.stream import (
    ReplayConfig,
    build_event_log,
    make_replay_setup,
    run_replay,
)
from repro.stream.checkpoint import CheckpointStore
from repro.stream.replay import build_engine


def _corrupt_chaos_replay(episodes, degradation=None):
    setup = make_replay_setup(seed=0, n_sensors=6)
    config = ReplayConfig(
        kind="link-1",
        episodes=episodes,
        seed=0,
        fault_rate=0.2,
        corrupt=True,
        chaos_rate=0.15,
    )
    engine = build_engine(
        dict(
            asn_of=setup.session.sim.mapper.asn_of,
            diagnosers=setup.diagnosers,
            asx=setup.asx,
            policy="quarantine",
            degradation=degradation,
        ),
        seed=config.seed,
        chaos_rate=config.chaos_rate,
    )
    run_replay(build_event_log(setup, config), engine)
    return engine


@pytest.fixture(scope="module")
def chaos_run():
    report = DegradationReport()
    return report, _corrupt_chaos_replay(4, degradation=report)


class TestChaosAccounting:
    def test_quarantines_are_counted_once(self, chaos_run):
        report, engine = chaos_run
        counters = engine.supervision_stats()["counters"]
        assert counters["shard_crashes"] > 0  # tails were re-screened
        ingest = engine.ingest_counters()
        assert ingest["events_quarantined"] > 0
        assert (
            report.traces_quarantined
            + report.stale_rounds_dropped
            + report.feed_messages_quarantined
        ) == ingest["events_quarantined"]
        assert report.traces_repaired == ingest["events_repaired"]

    def test_fold_happens_once(self, chaos_run):
        report, engine = chaos_run
        before = report.as_dict()
        engine.close()
        assert report.as_dict() == before


def _checkpointed_sizes(engine):
    """Pickled size of each shard's checkpointed ingest accounting.

    Counter values are zeroed first: pickle spends more bytes on an int
    past 255, and a wider number is not a growing checkpoint.
    """
    latest = engine.supervisor.checkpoints.latest()
    assert latest, "the chaos replay must checkpoint its shards"
    sizes = {}
    for shard, checkpoint in latest.items():
        report = checkpoint.state["ingest"]["degradation"]
        assert report.any_validation_seen()
        zeroed = replace(report, **dict.fromkeys(report._COUNTER_FIELDS, 0))
        sizes[shard] = len(pickle.dumps(zeroed))
    return sizes


def test_checkpointed_ingest_accounting_does_not_grow():
    short = _checkpointed_sizes(_corrupt_chaos_replay(4))
    long = _checkpointed_sizes(_corrupt_chaos_replay(16))
    assert short == long


def test_checkpoint_in_the_old_shape_is_refused(tmp_path):
    path = tmp_path / "shards.ckpt"
    append_pickle_record(
        path,
        {"shard": 0},
        {"format": "repro-shard-checkpoint-v1", "fingerprint": "run"},
    )
    with pytest.raises(CheckpointError):
        CheckpointStore(path, fingerprint="run")
