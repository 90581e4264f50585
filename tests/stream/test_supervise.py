"""Supervision-layer guarantees: the breaker state machine on logical
ticks, dead-letter provenance round trips, darkness buffering with
bounded memory, stale-alarm holds, and the headline recovery contract —
a scripted shard crash or stall heals to final verdicts byte-identical
to the undisturbed run."""

import json

import pytest

from repro.errors import StreamError, SupervisionError
from repro.faults import FaultConfig
from repro.stream import (
    CircuitBreaker,
    DeadLetterQueue,
    ReachabilityEvent,
    ReplayConfig,
    ShardSupervisor,
    StreamEngine,
    StreamShard,
    SupervisionConfig,
    UPDATE,
    CLOSE,
    EpisodeTransition,
    load_dead_letters,
    make_replay_setup,
    run_replay,
)
from repro.stream.replay import build_event_log

from .test_window import A, B, C, asn_of

SETUP_ARGS = dict(seed=11, n_sensors=6)
CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    seed=11,
)


def reach(src, dst, reached=True, tick=0, seq=0):
    return ReachabilityEvent(tick=tick, seq=seq, src=src, dst=dst, reached=reached)


class ScriptedPlan:
    """Duck-typed stand-in for FaultPlan's chaos surface: failures fire
    exactly where the test scripts them, nowhere else."""

    def __init__(self, crashes=(), stalls=None, slow=(), poison=False):
        self.crashes = set(crashes)  # {(shard, tick)}
        self.stalls = dict(stalls or {})  # {(shard, tick): dark_ticks}
        self.slow = set(slow)  # {(shard, tick)}
        self.poison = poison
        self.config = FaultConfig(worker_poison_rate=1.0 if poison else 0.0)

    def shard_crashes(self, shard, tick):
        return (shard, tick) in self.crashes

    def shard_stall_ticks(self, shard, tick):
        return self.stalls.get((shard, tick), 0)

    def shard_slow(self, shard, tick):
        return (shard, tick) in self.slow

    def worker_poisoned(self, _variant, _episode_id):
        return self.poison


class TestSupervisionConfig:
    def test_rejects_non_positive_tunables(self):
        with pytest.raises(StreamError):
            SupervisionConfig(checkpoint_every=0)
        with pytest.raises(StreamError):
            SupervisionConfig(breaker_threshold=0)
        with pytest.raises(StreamError):
            SupervisionConfig(buffer_limit=-1)

    def test_zero_buffer_limit_is_legal(self):
        assert SupervisionConfig(buffer_limit=0).buffer_limit == 0


class TestCircuitBreaker:
    def test_closed_until_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown=4)
        for tick in range(2):
            assert breaker.allow(tick)
            breaker.record_failure(tick)
        assert breaker.state == "closed"
        breaker.record_failure(2)
        assert breaker.state == "open"
        assert breaker.times_opened == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=4)
        breaker.record_failure(0)
        breaker.record_success()
        breaker.record_failure(1)
        assert breaker.state == "closed"

    def test_open_short_circuits_until_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=3)
        breaker.record_failure(5)
        assert not breaker.allow(6)
        assert not breaker.allow(7)
        assert breaker.short_circuits == 2
        # Cooldown elapsed: one half-open probe is admitted...
        assert breaker.allow(8)
        assert breaker.state == "half-open"
        assert breaker.probes == 1
        # ...and only one, while it is in flight.
        assert not breaker.allow(8)

    def test_probe_success_recloses(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure(0)
        assert breaker.allow(2)
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.times_reclosed == 1
        assert breaker.allow(3)

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker = CircuitBreaker(threshold=1, cooldown=2)
        breaker.record_failure(0)
        assert breaker.allow(2)  # probe
        breaker.record_failure(2)
        assert breaker.state == "open"
        assert breaker.times_opened == 2
        assert not breaker.allow(3)
        assert breaker.allow(4)  # new cooldown from tick 2

    def test_rejects_bad_tunables(self):
        with pytest.raises(StreamError):
            CircuitBreaker(threshold=0)
        with pytest.raises(StreamError):
            CircuitBreaker(cooldown=0)


class TestDeadLetterQueue:
    def test_in_memory_entries_carry_provenance(self):
        dlq = DeadLetterQueue()
        dlq.put_event(reach(A, B, tick=3, seq=9), reason="overflow", shard=1)
        transition = EpisodeTransition(
            kind=UPDATE, episode_id=4, tick=5, pairs=((A, B),)
        )
        dlq.put_episode(transition, reason="episode-strikes", shard=0)
        assert len(dlq) == 2
        event_entry, episode_entry = dlq.entries
        assert event_entry["kind"] == "event"
        assert event_entry["shard"] == 1
        assert event_entry["tick"] == 3
        assert event_entry["event"]["src"] == A
        assert episode_entry["kind"] == "episode"
        assert episode_entry["episode_id"] == 4
        assert episode_entry["pairs"] == [[A, B]]

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.put_event(reach(A, B, tick=1), reason="overflow", shard=0)
        dlq.put_episode(
            EpisodeTransition(kind=UPDATE, episode_id=2, tick=4, pairs=()),
            reason="episode-strikes",
        )
        dlq.close()
        assert load_dead_letters(path) == dlq.entries

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.put_event(reach(A, B), reason="overflow", shard=0)
        dlq.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "ev')  # crash mid-write
        assert load_dead_letters(path) == dlq.entries

    def test_foreign_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "not-dlq"
        path.write_text("not json at all\n")
        with pytest.raises(SupervisionError):
            load_dead_letters(path)
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(SupervisionError):
            load_dead_letters(path)


class TestShardSupervisorUnits:
    def _supervisor(self, plan=None, **config):
        shards = [
            StreamShard(i, asn_of, open_after=2, close_after=2)
            for i in range(2)
        ]
        dlq = DeadLetterQueue()
        supervisor = ShardSupervisor(
            shards,
            config=SupervisionConfig(**config),
            plan=plan,
            dead_letters=dlq,
        )
        return supervisor, shards, dlq

    def test_buffer_overflow_dead_letters_with_provenance(self):
        supervisor, _shards, dlq = self._supervisor(buffer_limit=1)
        supervisor._status[0] = "crashed"
        supervisor._darkened_at[0] = 0
        supervisor.buffer_event(0, "pair", reach(A, B, tick=1, seq=0))
        supervisor.buffer_event(0, "pair", reach(A, C, tick=1, seq=1))
        assert supervisor.events_buffered == 1
        assert supervisor.events_dead_lettered == 1
        assert len(dlq) == 1
        assert dlq.entries[0]["reason"] == "dark-shard-buffer-overflow"
        assert dlq.entries[0]["shard"] == 0

    def test_dark_shard_serves_the_stale_alarm_hold(self):
        """An open episode must not flap closed just because its shard
        went dark — the merger keeps seeing the last-known alarms."""
        supervisor, shards, _dlq = self._supervisor()
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=1, seq=0))
        shard.offer(reach(A, B, reached=False, tick=2, seq=1))
        assert supervisor.alarm_view(0, 2) == ((A, B),)
        supervisor._status[0] = "crashed"
        supervisor._darkened_at[0] = 2
        assert supervisor.alarm_view(0, 3) == ((A, B),)
        assert supervisor.ticks_dark == 1

    def test_slow_shard_serves_last_ticks_view(self):
        supervisor, shards, _dlq = self._supervisor(
            plan=ScriptedPlan(slow={(0, 5)})
        )
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=3, seq=0))
        shard.offer(reach(A, B, reached=False, tick=4, seq=1))
        assert supervisor.alarm_view(0, 4) == ((A, B),)
        # The pair recovers, but the slow shard's tick-5 output is late:
        # the merger still sees the held tick-4 view.
        shard.offer(reach(A, B, reached=True, tick=5, seq=2))
        shard.offer(reach(A, B, reached=True, tick=5, seq=3))
        assert supervisor.alarm_view(0, 5) == ((A, B),)
        assert supervisor.slow_ticks == 1
        assert supervisor.alarm_view(0, 6) == ()

    def test_stall_recovery_replays_the_darkness_buffer(self):
        supervisor, shards, _dlq = self._supervisor(
            plan=ScriptedPlan(stalls={(0, 3): 2})
        )
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=2, seq=0))
        supervisor.end_tick(3)  # stall fires: dark for 2 ticks
        assert supervisor.status(0) == "stalled"
        supervisor.buffer_event(0, "pair", reach(A, B, reached=False, tick=4, seq=1))
        assert supervisor.begin_tick(4) == 0  # still dark
        admitted = supervisor.begin_tick(5)
        assert admitted == 1
        assert supervisor.status(0) == "running"
        # The buffered second failure opened the pair's alarm on replay.
        assert shard.alarms.alarmed_pairs() == ((A, B),)
        assert supervisor.recoveries == 1
        assert supervisor.ticks_to_recover == [2]
        assert supervisor.episodes_delayed == 1


class TestEpisodeStrikes:
    def test_struck_episodes_divert_to_the_dead_letter_queue(self):
        engine = StreamEngine(
            asn_of=asn_of, diagnosers={}, shards=2,
            dead_letters=DeadLetterQueue(),
        )
        engine._dead_episodes.add(7)
        engine._schedule(
            EpisodeTransition(kind=UPDATE, episode_id=7, tick=3, pairs=((A, B),))
        )
        assert engine.transitions_dead_lettered == 1
        entry = engine.dead_letters.entries[0]
        assert entry["reason"] == "episode-strikes"
        assert entry["episode_id"] == 7
        # The close still goes through: the episode must end cleanly.
        engine._schedule(
            EpisodeTransition(kind=CLOSE, episode_id=7, tick=4, pairs=())
        )
        assert engine.transitions_dead_lettered == 1
        engine.close()


@pytest.fixture(scope="module")
def golden_log():
    setup = make_replay_setup(**SETUP_ARGS)
    return setup, build_event_log(setup, CONFIG)


def _engine_kwargs(setup):
    return dict(
        asn_of=setup.session.sim.mapper.asn_of,
        diagnosers=setup.diagnosers,
        asx=setup.asx,
    )


class TestScriptedRecovery:
    """The headline contract, on one golden log shared by every run."""

    def _undisturbed(self, golden_log):
        setup, log = golden_log
        return run_replay(
            log, StreamEngine(shards=2, **_engine_kwargs(setup))
        )

    def _supervised(self, golden_log, plan, **config):
        setup, log = golden_log
        engine = StreamEngine(
            shards=2,
            plan=plan,
            supervision=SupervisionConfig(**config),
            **_engine_kwargs(setup),
        )
        return run_replay(log, engine), engine

    def test_crash_recovery_is_byte_identical(self, golden_log):
        baseline = self._undisturbed(golden_log)
        assert baseline  # the golden scenario diagnosed something
        reports, engine = self._supervised(
            golden_log,
            ScriptedPlan(crashes={(0, 2)}),
            checkpoint_every=1,
            restart_after=1,
        )
        stats = engine.supervision_stats()
        assert stats["counters"]["shard_crashes"] == 1
        assert stats["counters"]["recoveries"] == 1
        assert stats["ticks_to_recover"] == [1]
        assert stats["incidents"] == [
            {"kind": "shard-crash", "shard": 0, "tick": 2}
        ]
        assert reports == baseline

    def test_crash_without_any_checkpoint_recovers_from_the_tail(
        self, golden_log
    ):
        """A crash before the first checkpoint replays the full tail."""
        baseline = self._undisturbed(golden_log)
        reports, engine = self._supervised(
            golden_log,
            ScriptedPlan(crashes={(1, 1)}),
            checkpoint_every=1000,  # never checkpoints
            restart_after=1,
        )
        assert engine.supervision_stats()["counters"]["checkpoints_saved"] == 0
        assert reports == baseline

    def test_stall_recovery_is_byte_identical(self, golden_log):
        """A one-tick stall refolds its darkness buffer before the next
        merge, so no verdict may shift by even a tick."""
        baseline = self._undisturbed(golden_log)
        reports, engine = self._supervised(
            golden_log, ScriptedPlan(stalls={(1, 2): 1})
        )
        stats = engine.supervision_stats()
        assert stats["counters"]["shard_stalls"] == 1
        assert stats["counters"]["recoveries"] == 1
        assert reports == baseline

    def test_long_darkness_degrades_accountedly(self, golden_log):
        """Darkness past the refold window may move verdicts — but only
        with the loss showing up in the degradation counters."""
        baseline = self._undisturbed(golden_log)
        reports, engine = self._supervised(
            golden_log, ScriptedPlan(stalls={(1, 2): 2})
        )
        stats = engine.supervision_stats()
        assert stats["counters"]["recoveries"] == 1
        if reports != baseline:
            counters = stats["counters"]
            assert (
                counters["ticks_dark"] > 0
                or counters["episodes_delayed"] > 0
                or counters["pairs_uncovered"] > 0
            )

    def test_poison_opens_the_breaker_and_accounts_every_verdict(
        self, golden_log
    ):
        reports, engine = self._supervised(
            golden_log,
            ScriptedPlan(poison=True),
            breaker_threshold=2,
            breaker_cooldown=2,
            episode_strikes=2,
        )
        stats = engine.supervision_stats()
        assert stats["diagnoses_poisoned"] > 0
        opened = sum(
            b["times_opened"] for b in stats["breakers"].values()
        )
        assert opened > 0
        # Every diagnosis still produced a verdict: poisoned ones carry
        # the timeout error, short-circuited ones the breaker marker.
        for report in reports:
            for diagnosis in report.diagnoses:
                assert diagnosis.error in (
                    None, "JobTimeoutError", "CircuitOpen"
                )

    def test_supervision_without_chaos_is_transparent(self, golden_log):
        """No plan, no incidents: the supervised engine is report- and
        counter-identical to the unsupervised one."""
        setup, log = golden_log
        baseline = self._undisturbed(golden_log)
        plain = StreamEngine(shards=2, **_engine_kwargs(setup))
        run_replay(log, plain)
        reports, engine = self._supervised(golden_log, None)
        assert reports == baseline
        stats = engine.supervision_stats()
        assert stats["incidents"] == []
        assert stats["counters"]["recoveries"] == 0
        assert engine.counters()["events_admitted"] == (
            plain.counters()["events_admitted"]
        )
