"""Resilience benchmark: what chaos costs, and what recovery buys back.

The tentpole question of the supervision work: when the diagnosis
service itself crashes, stalls and chokes on poison inputs, how fast
does it heal and how much coverage does the healing cost?  Two
measurements land in ``BENCH_resilience.json`` (repo root +
``results/``):

* **fabric**: the seeded synthetic mesh of ``test_perf_shards.py``
  streamed through a supervised :class:`~repro.stream.StreamEngine`
  twice — undisturbed, then under a seeded chaos plan — recording the
  throughput dip, ticks-to-recover, episodes delayed vs the undisturbed
  run, and the exact-accounting identity
  ``offered == admitted + shed + rejected + dead-lettered`` (asserted,
  not just recorded);
* **recovery**: the golden replay scenario under full chaos (crashes,
  stalls, slow shards, worker poison), recording breaker trips,
  poisoned/short-circuited diagnoses and dead letters.

Scale knobs: ``REPRO_BENCH_RESILIENCE_EVENTS`` (default 200_000) and
``REPRO_BENCH_SHARDS`` (default 4).

Run directly (the chaos-smoke CI lane does)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_resilience.py -q \
        --benchmark-disable
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.stats import ratio
from repro.faults import FaultConfig, FaultPlan
from repro.perf import peak_rss_mb, write_bench_artifact
from repro.stream import (
    ReachabilityEvent,
    ReplayConfig,
    StreamEngine,
    SupervisionConfig,
    TenantConfig,
    make_replay_setup,
    run_stream_replay,
    source_tenant_of,
)

from conftest import REPO_ROOT

SCHEMA = "bench-resilience-v1"

N_EVENTS = int(os.environ.get("REPRO_BENCH_RESILIENCE_EVENTS", "200000"))
N_SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "4"))

#: Synthetic mesh shape (matches test_perf_shards.py).
N_SOURCES = 40
N_DESTS = 50
WAVE_PERIOD = 12
WAVE_TICKS = 5
WAVE_WIDTH = 6

#: Per-(shard, tick) chaos rate for the fabric run, and the supervision
#: tuning under test: tight checkpoints, one-tick restarts, a buffer
#: deliberately smaller than a dark shard's per-tick load so overflow
#: dead-lettering is exercised (and accounted) too.
CHAOS_RATE = 0.02
SUPERVISION = SupervisionConfig(
    checkpoint_every=2,
    restart_after=1,
    buffer_limit=256,
)


def _no_asn(_address: str):
    return None


def _pairs():
    sources = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(N_SOURCES)]
    dests = [f"198.51.{i}.1" for i in range(N_DESTS)]
    return [(src, dst) for src in sources for dst in dests]


def _dst_failing(dst: str, tick: int) -> bool:
    phase = tick % WAVE_PERIOD
    if phase >= WAVE_TICKS:
        return False
    wave = tick // WAVE_PERIOD
    prefix_index = int(dst.split(".")[2])
    return (prefix_index + wave) % (N_DESTS // WAVE_WIDTH) == 0


def _make_engine(plan) -> StreamEngine:
    tenants = tuple(
        TenantConfig(f"tenant-{i}", rate=max(1, (N_SOURCES * N_DESTS) // 8))
        for i in range(4)
    )
    return StreamEngine(
        asn_of=_no_asn,
        diagnosers={},
        shards=N_SHARDS,
        window_width=4,
        open_after=2,
        close_after=2,
        max_pending=16,
        overflow_limit=1024,
        tenants=tenants,
        tenant_of=source_tenant_of(tenants),
        plan=plan,
        supervision=SUPERVISION,
    )


def _drive(engine: StreamEngine, n_events: int):
    pairs = _pairs()
    ticks = max(1, n_events // len(pairs))
    seq = 0
    started = time.perf_counter()
    for tick in range(1, ticks + 1):
        for src, dst in pairs:
            engine.offer(
                ReachabilityEvent(
                    tick=tick,
                    seq=seq,
                    src=src,
                    dst=dst,
                    reached=not _dst_failing(dst, tick),
                )
            )
            seq += 1
        engine.advance(tick)
        engine.drain(tick)
    engine.advance(ticks + 1)
    engine.flush(ticks + 1)
    engine.close()
    wall = time.perf_counter() - started
    return seq, ticks, wall


def _assert_exact_accounting(engine: StreamEngine) -> dict:
    """The acceptance identity: every offered event lands in exactly one
    bucket.  Chaos may delay or park events — never lose one silently."""
    counters = engine.counters()
    quarantined = engine.ingest_counters()["events_quarantined"]
    accounted = (
        counters["events_admitted"]
        + counters["admission_shed"]
        + counters["admission_rejected_unknown"]
        + quarantined
        + counters["events_dead_lettered"]
    )
    assert counters["events_offered"] == accounted, (
        f"unaccounted events: {counters['events_offered']} offered != "
        f"{accounted} accounted"
    )
    return {
        "offered": counters["events_offered"],
        "admitted": counters["events_admitted"],
        "shed": counters["admission_shed"],
        "rejected_unknown": counters["admission_rejected_unknown"],
        "quarantined": quarantined,
        "dead_lettered": counters["events_dead_lettered"],
    }


def _measure_fabric():
    baseline_engine = _make_engine(plan=None)
    events, ticks, base_wall = _drive(baseline_engine, N_EVENTS)
    baseline_eps = ratio(events, base_wall)
    baseline_episodes = baseline_engine.detector_counters()["episodes_total"]

    plan = FaultPlan("bench/resilience", FaultConfig.chaos(CHAOS_RATE))
    chaos_engine = _make_engine(plan=plan)
    events, ticks, chaos_wall = _drive(chaos_engine, N_EVENTS)
    chaos_eps = ratio(events, chaos_wall)
    stats = chaos_engine.supervision_stats()
    counters = stats["counters"]
    recoveries = stats["ticks_to_recover"]
    accounting = _assert_exact_accounting(chaos_engine)

    return {
        "events": events,
        "ticks": ticks,
        "shards": N_SHARDS,
        "chaos_rate": CHAOS_RATE,
        "baseline_events_per_second": round(baseline_eps, 1),
        "chaos_events_per_second": round(chaos_eps, 1),
        "throughput_dip": round(1.0 - ratio(chaos_eps, baseline_eps), 4),
        "shard_crashes": counters["shard_crashes"],
        "shard_stalls": counters["shard_stalls"],
        "recoveries": counters["recoveries"],
        "ticks_to_recover_mean": round(
            ratio(sum(recoveries), len(recoveries)), 2
        ),
        "ticks_to_recover_max": max(recoveries) if recoveries else 0,
        "ticks_dark": counters["ticks_dark"],
        "checkpoints_saved": counters["checkpoints_saved"],
        "events_buffered": counters["events_buffered"],
        "episodes_baseline": baseline_episodes,
        "episodes_chaos": chaos_engine.detector_counters()["episodes_total"],
        "episodes_delayed": counters["episodes_delayed"],
        "pairs_uncovered": counters["pairs_uncovered"],
        "accounting": accounting,
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def _measure_recovery():
    """The golden replay scenario under full chaos, diagnosers included."""
    config = ReplayConfig(
        kind="link-1",
        episodes=2,
        incident_rounds=2,
        recovery_rounds=2,
        seed=7,
        chaos_rate=0.15,
    )
    started = time.perf_counter()
    result = run_stream_replay(make_replay_setup(seed=7, n_sensors=6), config)
    wall = time.perf_counter() - started
    stats = result.supervision
    counters = stats["counters"]
    breakers = stats["breakers"]
    return {
        "chaos_rate": config.chaos_rate,
        "wall_seconds": round(wall, 3),
        "reports": len(result.reports),
        "shard_crashes": counters["shard_crashes"],
        "shard_stalls": counters["shard_stalls"],
        "recoveries": counters["recoveries"],
        "ticks_to_recover": stats["ticks_to_recover"],
        "episodes_delayed": counters["episodes_delayed"],
        "diagnoses_poisoned": stats["diagnoses_poisoned"],
        "diagnoses_short_circuited": stats["diagnoses_short_circuited"],
        "breaker_opened": sum(b["times_opened"] for b in breakers.values()),
        "breaker_reclosed": sum(
            b["times_reclosed"] for b in breakers.values()
        ),
        "transitions_dead_lettered": stats["transitions_dead_lettered"],
        "dead_letters": stats["dead_letters"],
    }


def test_perf_resilience():
    fabric = _measure_fabric()

    # A resilience bench where nothing failed measured nothing.
    assert fabric["shard_crashes"] + fabric["shard_stalls"] > 0
    assert fabric["recoveries"] == (
        fabric["shard_crashes"] + fabric["shard_stalls"]
    )
    # The undersized darkness buffer must have overflowed into the DLQ:
    # bounded memory under chaos is part of what is being measured.
    assert fabric["accounting"]["dead_lettered"] > 0
    assert fabric["accounting"]["shed"] > 0

    recovery = _measure_recovery()
    assert recovery["reports"] > 0
    assert recovery["recoveries"] > 0

    def merge(data):
        data["fabric"] = fabric
        data["recovery"] = recovery

    data = write_bench_artifact("resilience", SCHEMA, merge, REPO_ROOT)
    print()
    print(json.dumps(data, indent=2, sort_keys=True))

    assert (REPO_ROOT / "BENCH_resilience.json").exists()
    assert (REPO_ROOT / "results" / "BENCH_resilience.json").exists()
