"""Engine-level unit tests: the bounded work queue's coalescing,
deferral and overflow behaviour, plus end-to-end report emission over a
hand-built event sequence (no topology required)."""

import pytest

from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.errors import EpisodeOverflowError, StreamError
from repro.stream import (
    CLOSE,
    OPEN,
    UPDATE,
    EpisodeTransition,
    ProbeEvent,
    SensorHeartbeatEvent,
    StreamEngine,
)

A, B = "10.0.0.1", "10.0.0.2"
MID = "10.0.1.1"
AB = (A, B)


def asn_of(address):
    return 64500 if address.startswith("10.") else None


def engine(**kwargs):
    kwargs.setdefault("open_after", 1)
    kwargs.setdefault("close_after", 1)
    return StreamEngine(asn_of=asn_of, diagnosers={}, **kwargs)


def probe(epoch, reached, tick, seq):
    hops = (A, MID, B) if reached else (A, MID)
    return ProbeEvent(
        tick=tick,
        seq=seq,
        path=ProbePath(src=A, dst=B, hops=hops, reached=reached, epoch=epoch),
    )


def transition(kind, episode_id, tick=0, pairs=(AB,)):
    return EpisodeTransition(
        kind=kind, episode_id=episode_id, tick=tick, pairs=pairs
    )


class TestConfiguration:
    def test_max_pending_must_be_positive(self):
        with pytest.raises(StreamError):
            engine(max_pending=0)

    def test_overflow_limit_must_be_nonnegative(self):
        with pytest.raises(StreamError):
            engine(overflow_limit=-1)

    def test_unknown_policy_propagates(self):
        with pytest.raises(StreamError):
            engine(policy="lenient")


class TestBackpressure:
    def test_update_coalesces_into_queued_open(self):
        eng = engine(max_pending=1)
        eng._schedule(transition(OPEN, 0, tick=1))
        eng._schedule(transition(UPDATE, 0, tick=2, pairs=(AB, (A, MID))))
        assert eng.episodes_coalesced == 1
        assert eng.transitions_deferred == 0
        # The queued entry keeps the open kind but diagnoses newest state.
        queued = eng._pending[0]
        assert queued.kind == OPEN
        assert queued.tick == 1
        assert queued.pairs == (AB, (A, MID))

    def test_update_never_coalesces_into_a_close(self):
        eng = engine(max_pending=4)
        eng._schedule(transition(CLOSE, 0, tick=1, pairs=()))
        eng._schedule(transition(UPDATE, 0, tick=2))
        assert eng.episodes_coalesced == 0
        assert len(eng._pending) == 2

    def test_full_queue_defers(self):
        eng = engine(max_pending=1, overflow_limit=4)
        eng._schedule(transition(OPEN, 0))
        eng._schedule(transition(OPEN, 1))
        assert eng.transitions_deferred == 1
        assert len(eng._deferred) == 1

    def test_overflow_raises_a_typed_error(self):
        eng = engine(max_pending=1, overflow_limit=0)
        eng._schedule(transition(OPEN, 0))
        with pytest.raises(EpisodeOverflowError):
            eng._schedule(transition(OPEN, 1))

    def test_drain_promotes_deferred_work(self):
        eng = engine(max_pending=1, overflow_limit=4)
        eng._schedule(transition(CLOSE, 0, tick=1, pairs=()))
        eng._schedule(transition(CLOSE, 1, tick=1, pairs=()))
        reports = eng.drain(now=2)
        assert [r.episode_id for r in reports] == [0]
        assert not eng.idle  # the deferred close now occupies the queue
        reports = eng.drain(now=3)
        assert [r.episode_id for r in reports] == [1]
        assert eng.idle
        # Deferred work waited one extra drain: higher latency, recorded.
        assert [r.latency_ticks for r in eng.reports] == [1, 2]


class TestReportEmission:
    def run_failure(self, eng):
        eng.offer(SensorHeartbeatEvent(tick=0, seq=0, address=A))
        eng.offer(SensorHeartbeatEvent(tick=0, seq=1, address=B))
        eng.offer(probe(EPOCH_PRE, reached=True, tick=1, seq=2))
        eng.advance(1)
        eng.drain(1)
        eng.offer(probe(EPOCH_POST, reached=False, tick=2, seq=3))
        eng.advance(2)
        eng.drain(2)

    def test_open_report_is_emitted_same_tick(self):
        eng = engine(window_width=8)
        self.run_failure(eng)
        (report,) = eng.reports
        assert report.trigger == OPEN
        assert report.pairs == (AB,)
        assert report.tick == 2 and report.diagnosed_at == 2
        assert report.latency_ticks == 0

    def test_close_report_carries_no_diagnoses(self):
        eng = engine(window_width=8)
        self.run_failure(eng)
        eng.offer(probe(EPOCH_POST, reached=True, tick=3, seq=4))
        eng.advance(3)
        eng.drain(3)
        close = eng.reports[-1]
        assert close.trigger == CLOSE
        assert close.diagnoses == ()

    def test_quarantined_event_is_rejected(self):
        eng = engine()
        forged = ProbeEvent(
            tick=1,
            seq=0,
            path=ProbePath(
                src=A,
                dst=B,
                hops=(A, "203.0.113.7", B),
                reached=True,
                epoch=EPOCH_POST,
            ),
        )
        assert eng.offer(forged) is False
        assert eng.offer(probe(EPOCH_PRE, reached=True, tick=1, seq=1)) is True
        counters = eng.counters()
        assert counters["events_offered"] == 2
        assert counters["events_admitted"] == 1

    def test_on_report_hook_sees_every_fresh_report(self):
        seen = []
        eng = engine(window_width=8, on_report=seen.append)
        self.run_failure(eng)
        assert [r.report_index for r in seen] == [0]
