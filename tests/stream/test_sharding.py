"""Sharding guarantees: stable routing, deterministic admission,
lossless cross-shard merging, and the headline contract — ``shards=K,
workers=W`` (and supervised) replay bit-identical to single-shard replay
on the golden scenarios, including under journalled resume."""

import pytest

from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import StreamError
from repro.experiments.journal import RunJournal
from repro.stream import (
    AdmissionController,
    CrossShardMerger,
    EpisodeLifecycle,
    ReachabilityEvent,
    ReplayConfig,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    ShardRouter,
    SlidingWindow,
    StreamEngine,
    TenantConfig,
    assemble_snapshot,
    build_event_log,
    make_replay_setup,
    run_replay,
    run_stream_replay,
    source_tenant_of,
    stable_hash,
)

from .test_window import A, B, C, asn_of, probe

SETUP_ARGS = dict(seed=3, n_sensors=6)
CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    fault_rate=0.1,
    seed=3,
)


def reach(src, dst, reached=True, tick=0, seq=0):
    return ReachabilityEvent(tick=tick, seq=seq, src=src, dst=dst, reached=reached)


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("as64500") == stable_hash("as64500")

    def test_64_bit_range(self):
        for key in ("", "a", "pfx10.0.0", "as1"):
            assert 0 <= stable_hash(key) < 2**64

    def test_distinct_keys_differ(self):
        keys = [f"pfx10.0.{i}" for i in range(100)]
        assert len({stable_hash(key) for key in keys}) == len(keys)


class TestShardRouter:
    def test_rejects_bad_shard_counts(self):
        with pytest.raises(StreamError):
            ShardRouter(0)
        with pytest.raises(StreamError):
            ShardRouter(4, replicas=0)

    def test_same_destination_same_shard(self):
        """Probe and reachability events for one destination co-locate:
        the pair's window slots and alarm state live on one shard."""
        router = ShardRouter(4, asn_of=asn_of)
        shard = router.route(probe(A, B, EPOCH_POST))
        assert router.route(probe(C, B, EPOCH_PRE)) == shard
        assert router.route(reach(A, B)) == shard

    def test_prefix_fallback_when_asn_unknown(self):
        router = ShardRouter(4, asn_of=lambda _address: None)
        assert router.key_of(probe(A, B, EPOCH_POST)) == "pfx10.0.0"
        router_asn = ShardRouter(4, asn_of=asn_of)
        assert router_asn.key_of(probe(A, B, EPOCH_POST)) == "as64500"

    def test_control_and_liveness_events_broadcast(self):
        router = ShardRouter(4, asn_of=asn_of)
        assert router.route(SensorHeartbeatEvent(tick=0, seq=0, address=A)) is None
        assert router.route(SensorDropoutEvent(tick=0, seq=1, address=A)) is None

    def test_single_shard_owns_everything(self):
        router = ShardRouter(1, asn_of=asn_of)
        for i in range(50):
            assert router.shard_for_key(f"pfx198.51.{i}") == 0

    def test_all_shards_reachable(self):
        router = ShardRouter(4, asn_of=None)
        owners = {router.shard_for_key(f"pfx198.51.{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_resharding_moves_a_minority_of_keys(self):
        """The consistent-hash property: growing 8 -> 9 shards remaps
        roughly 1/9 of the key space, never a wholesale reshuffle."""
        keys = [f"as{64000 + i}" for i in range(500)]
        before = ShardRouter(8)
        after = ShardRouter(9)
        moved = sum(
            1
            for key in keys
            if before.shard_for_key(key) != after.shard_for_key(key)
        )
        assert 0 < moved < len(keys) // 2


class TestTenantConfig:
    def test_rejects_non_positive_rate_and_burst(self):
        with pytest.raises(StreamError):
            TenantConfig("t", rate=0)
        with pytest.raises(StreamError):
            TenantConfig("t", rate=1, burst=0)

    def test_bucket_size_defaults_to_rate(self):
        assert TenantConfig("t", rate=5).bucket_size == 5
        assert TenantConfig("t", rate=5, burst=9).bucket_size == 9
        assert TenantConfig("t").bucket_size is None


class TestAdmissionController:
    def test_disabled_controller_admits_everything(self):
        control = AdmissionController()
        assert not control.enabled
        assert all(control.admit(None) for _ in range(10))
        assert control.counters()["admission_admitted"] == 10

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(StreamError):
            AdmissionController((TenantConfig("t"), TenantConfig("t")))

    def test_unknown_tenant_is_rejected_and_counted(self):
        control = AdmissionController((TenantConfig("alice", rate=2),))
        assert not control.admit("mallory")
        assert not control.admit(None)
        assert control.counters()["admission_rejected_unknown"] == 2
        assert control.counters()["admission_shed"] == 0

    def test_unlimited_tenant_never_sheds(self):
        control = AdmissionController((TenantConfig("alice"),))
        assert all(control.admit("alice") for _ in range(100))
        assert control.shed == 0

    def test_bucket_sheds_deterministically_and_refills_on_tick(self):
        control = AdmissionController((TenantConfig("alice", rate=2),))
        control.on_tick(1)
        outcomes = [control.admit("alice") for _ in range(4)]
        assert outcomes == [True, True, False, False]
        assert control.shed_by_tenant["alice"] == 2
        control.on_tick(2)  # refill by rate
        assert control.admit("alice")
        assert control.admit("alice")
        assert not control.admit("alice")

    def test_refill_caps_at_burst_and_ignores_repeated_ticks(self):
        control = AdmissionController((TenantConfig("alice", rate=1, burst=2),))
        control.on_tick(1)
        control.on_tick(1)  # idempotent: no double refill
        control.on_tick(10)  # long gap still caps at burst
        assert [control.admit("alice") for _ in range(3)] == [True, True, False]


class TestSourceTenantOf:
    def test_requires_at_least_one_tenant(self):
        with pytest.raises(StreamError):
            source_tenant_of(())

    def test_stable_assignment_and_broadcast_exemption(self):
        tenants = (TenantConfig("t0"), TenantConfig("t1"), TenantConfig("t2"))
        tenant_of = tenant_of_again = source_tenant_of(tenants)
        assigned = tenant_of(reach(A, B))
        assert assigned in {"t0", "t1", "t2"}
        assert tenant_of_again(probe(A, C, EPOCH_POST)) == assigned
        assert tenant_of(SensorHeartbeatEvent(tick=0, seq=0, address=A)) is None


def _fill(window, pairs, post_reached=True):
    seq = 0
    for src, dst in pairs:
        window.observe(probe(src, dst, EPOCH_PRE, tick=0, seq=seq))
        window.observe(
            probe(src, dst, EPOCH_POST, reached=post_reached, tick=0, seq=seq + 1)
        )
        seq += 2


class TestMergedViews:
    PAIRS = [(A, B), (A, C), (B, C), (C, A)]

    def test_merged_snapshot_equals_single_window(self):
        single = SlidingWindow(width=4)
        _fill(single, self.PAIRS)
        shard0, shard1 = SlidingWindow(width=4), SlidingWindow(width=4)
        _fill(shard0, self.PAIRS[:2])
        _fill(shard1, self.PAIRS[2:])

        expected = assemble_snapshot([single], asn_of)
        merged = assemble_snapshot([shard0, shard1], asn_of)
        assert merged is not None
        assert merged.before.pairs() == expected.before.pairs()
        assert merged.after.pairs() == expected.after.pairs()
        for pair in expected.after.pairs():
            assert merged.after.get(pair) == expected.after.get(pair)
            assert merged.before.get(pair) == expected.before.get(pair)

    def test_merged_snapshot_of_empty_windows_is_none(self):
        assert assemble_snapshot([SlidingWindow(width=4)], asn_of) is None

    def test_merged_control_view_dedups_broadcast_copies(self):
        """A broadcast feed entry is held once however many shards there
        are: the view equals a single shard's, not N concatenated copies."""
        from repro.core.control_plane import WithdrawalObservation
        from repro.stream import WithdrawalEvent

        event = WithdrawalEvent(
            tick=1,
            seq=7,
            observation=WithdrawalObservation(
                prefix="10.9.0.0/16",
                at_address=A,
                from_address=B,
                from_asn=64501,
                seq=0,
            ),
        )
        single = StreamEngine(asn_of=asn_of, diagnosers={})
        sharded = StreamEngine(asn_of=asn_of, diagnosers={}, shards=3)
        for engine in (single, sharded):
            assert engine.offer(event)

        expected = single.feed.view(64500)
        merged = sharded.feed.view(64500)
        assert len(merged.withdrawals) == 1
        assert merged.withdrawals == expected.withdrawals
        assert merged.igp_link_down == expected.igp_link_down


class TestCrossShardMerger:
    def test_union_matches_single_lifecycle(self):
        """Alarms split across shards drive the lifecycle exactly as the
        single-tracker union would."""
        merger = CrossShardMerger()
        single = EpisodeLifecycle()
        rounds = [
            [((A, B),), ((B, C),)],  # two shards alarm -> open
            [((A, B),), ()],  # one clears -> update
            [(), ()],  # all clear -> close
        ]
        for tick, shard_alarms in enumerate(rounds, start=1):
            merged = [pair for alarms in shard_alarms for pair in alarms]
            expected = single.advance(tick, merged)
            assert merger.advance(tick, shard_alarms) == expected
        assert merger.episodes == single.episodes
        assert merger.open_episode is None

    def test_cross_shard_episode_counted_once(self):
        merger = CrossShardMerger()
        merger.advance(1, [((A, B),), ((B, C),)])
        merger.advance(2, [((A, B),), ((B, C),)])
        merger.advance(3, [(), ()])
        assert merger.cross_shard_episodes == 1
        assert merger.counters()["episodes_total"] == 1
        assert merger.counters()["episodes_open"] == 0

    def test_single_shard_episode_not_counted_as_cross(self):
        merger = CrossShardMerger()
        merger.advance(1, [((A, B),), ()])
        merger.advance(2, [(), ()])
        assert merger.cross_shard_episodes == 0


class TestShardedEngineUnits:
    def _engine(self, **kwargs):
        kwargs.setdefault("asn_of", asn_of)
        kwargs.setdefault("diagnosers", {})
        kwargs.setdefault("shards", 2)
        return StreamEngine(**kwargs)

    def test_broadcast_screened_once_and_fanned_out(self):
        engine = self._engine()
        assert engine.offer(SensorHeartbeatEvent(tick=0, seq=0, address=A))
        counters = engine.counters()
        assert counters["events_broadcast"] == 1
        assert counters["events_admitted"] == 1
        # Screened once (control ingestor), folded into every shard.
        assert engine.ingest_counters()["events_screened"] == 1
        assert all(shard.events_offered == 1 for shard in engine.shards)

    def test_admission_sheds_before_the_shard_sees_the_event(self):
        tenants = (TenantConfig("only", rate=1),)
        engine = self._engine(
            tenants=tenants, tenant_of=lambda _event: "only"
        )
        engine.advance(1)
        assert engine.offer(reach(A, B, reached=False, tick=1, seq=0))
        assert not engine.offer(reach(A, C, reached=False, tick=1, seq=1))
        counters = engine.counters()
        assert counters["admission_shed"] == 1
        assert sum(shard.events_offered for shard in engine.shards) == 1

    def test_shard_stats_account_for_every_pair_event(self):
        engine = self._engine(shards=3)
        for seq, (src, dst) in enumerate([(A, B), (A, C), (B, C), (C, B)]):
            engine.offer(reach(src, dst, reached=False, seq=seq))
        stats = engine.shard_stats()
        assert len(stats) == 3
        assert sum(s["events_offered"] for s in stats) == 4
        assert engine.detector_counters()["pairs_tracked"] == 4


def _replay(**kwargs):
    return run_stream_replay(make_replay_setup(**SETUP_ARGS), CONFIG, **kwargs)


@pytest.fixture(scope="module")
def serial_result():
    return _replay()


def _resumed(first_layout, resumed_layout):
    """Run one layout with a journal, resume the run in another.

    The journal fingerprint deliberately excludes the shard count: an
    interrupted serial run resumes sharded (and vice versa) with every
    completed report reused bit-identically.
    """

    def run(tmp_path):
        fingerprint = {"format": "repro-stream-journal", "config": CONFIG}
        journal = RunJournal(tmp_path / "stream.journal", fingerprint)
        first = _replay(journal=journal, **first_layout)
        resumed = _replay(
            cached_reports=journal.load_completed(), **resumed_layout
        )
        assert resumed.engine_counters["reports_reused"] == len(first.reports)
        assert resumed.reports == first.reports
        return resumed

    return run


#: Every process layout the golden replay must not be able to tell apart.
LAYOUTS = {
    "shards4": lambda tmp_path: _replay(shards=4),
    "shards4-workers2": lambda tmp_path: _replay(shards=4, workers=2),
    "supervised-without-chaos": lambda tmp_path: _replay(
        dlq_path=str(tmp_path / "dead.jsonl")
    ),
    "serial-journal-resumes-sharded": _resumed({}, dict(shards=4, workers=2)),
    "sharded-journal-resumes-serial": _resumed(dict(shards=4), {}),
}


class TestShardedDeterminism:
    """The tentpole contract on the golden replay scenario."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_replay_is_bit_identical_to_serial(
        self, layout, serial_result, tmp_path
    ):
        result = LAYOUTS[layout](tmp_path)
        assert serial_result.reports  # the scenario diagnosed something
        assert result.reports == serial_result.reports
        assert result.episodes == serial_result.episodes

    def test_sharded_counters_reconcile_with_serial(self, serial_result):
        sharded = _replay(shards=4)
        serial = serial_result.engine_counters
        counters = sharded.engine_counters
        assert counters["events_offered"] == serial["events_offered"]
        assert counters["events_admitted"] == serial["events_admitted"]
        assert counters["shards"] == 4
        assert sharded.shard_stats is not None
        assert len(sharded.shard_stats) == 4
        assert serial_result.shard_stats is None
        # Same screening verdicts overall, just distributed.
        assert sharded.ingest_counters == serial_result.ingest_counters
        # Broadcast state is counted once, not once per shard.
        assert sharded.window_counters == serial_result.window_counters
        assert (
            sharded.detector_counters["episodes_total"]
            == serial_result.detector_counters["episodes_total"]
        )

    @pytest.mark.parametrize("shards", [2, 3])
    def test_feed_evictions_are_counted_once(self, shards):
        """Every shard sees each broadcast control-plane message, but its
        eviction is one stale eviction, as in the one-shard run."""
        setup = make_replay_setup(seed=0, n_sensors=6)
        log = build_event_log(
            setup, ReplayConfig(kind="link-1", episodes=3, seed=0)
        )
        engines = [
            StreamEngine(
                asn_of=setup.session.sim.mapper.asn_of,
                diagnosers={},
                asx=setup.asx,
                shards=count,
            )
            for count in (1, shards)
        ]
        for engine in engines:
            run_replay(log, engine)
        serial, sharded = engines
        assert serial.feed.stale_evictions > 0  # the log has feed traffic
        assert sharded.window_counters() == serial.window_counters()
