"""The benchmark's three workloads and the layer instrumentation of each.

Every workload is one serial, closed-loop client: the next round, tick
or run goes out only after the previous verdicts came back.  A workload
is built in ``setup`` from the benchmark seed alone and then driven by
``run`` for a time budget (an untraced pass) or for a fixed number of
operations (the traced pass, which replays exactly the operations of an
untraced pass so their verdict digests can be compared).  Untraced
passes time their operations with a :class:`speed.SpeedProbe` and
report reference-speed seconds; traced passes use the null probe.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.graph import InferredGraph
from repro.core.hitting_set import greedy_hitting_set
from repro.core.nd_edge import build_edge_inputs
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult
from repro.diagnosers import make_diagnosers
from repro.experiments import runner as runner_module
from repro.experiments.runner import Session, make_session, run_scenario
from repro.experiments.scenarios import Scenario
from repro.faults import DegradationReport
from repro.measurement import collector
from repro.measurement.collector import take_snapshot
from repro.measurement.sensors import random_stub_placement
from repro.monitor import make_monitor_setup, run_monitor, scenario
from repro.monitor import runner as monitor_runner
from repro.monitor import schedule as monitor_schedule
from repro.netsim.gen.internet import research_internet
from repro.netsim.lookingglass import LookingGlassService
from repro.netsim.simulator import Simulator
from repro.stream import window as stream_window
from repro.stream.engine import StreamEngine
from repro.stream.replay import (
    ReplayConfig,
    ReplaySetup,
    build_event_log,
    run_replay,
)
from repro.validate import Validator

from ledger import Ledger
from speed import NullProbe, interpreter_kernel, monitor_kernel

#: Every layer the traced run can charge time to, in report order.  Each
#: workload reports all of them; a layer the workload never calls reads 0.
LAYERS = (
    "netsim.bgp.converge",
    "measurement.probe_mesh",
    "validate.screen",
    "core.snapshot",
    "measurement.control_plane",
    "measurement.lg_lookup",
    "core.edge_inputs",
    "core.hitting_set",
    "core.graph",
    "core.result",
    "core.diagnosability",
    "core.diagnose.nd-edge",
    "core.diagnose.nd-bgpigp",
    "core.diagnose.nd-lg",
    "core.diagnose.ensemble",
    "core.diagnose.empathy",
    "core.consistency",
    "stream.offer",
    "stream.ingest",
    "stream.advance",
    "stream.drain",
    "monitor.schedule",
    "monitor.baseline",
    "monitor.build",
    "monitor.recorder",
    "monitor.replay",
    "monitor.classify",
    "faults.plan",
)

#: The work counters of the per-layer result, each reported per
#: operation (0 where the layer is idle).  The report prints every
#: counter a pass collected.
COUNTS = (
    "netsim.bgp.prefixes_converged",
    "netsim.bgp.prefixes_reused",
    "netsim.routing_cache.hits",
    "netsim.routing_cache.misses",
    "netsim.trace_cache.hits",
    "netsim.traces_computed",
    "validate.violations",
    "measurement.lg_queries",
    "core.failure_sets",
    "core.reroute_sets",
    "core.greedy_iterations",
    "stream.events_quarantined",
    "stream.coalesced",
    "stream.deferred",
    "faults.decisions",
)

_CACHE_COUNTS = {
    "prefixes_converged": "netsim.bgp.prefixes_converged",
    "prefixes_reused": "netsim.bgp.prefixes_reused",
    "routing_cache_hits": "netsim.routing_cache.hits",
    "routing_cache_misses": "netsim.routing_cache.misses",
    "trace_cache_hits": "netsim.trace_cache.hits",
    "trace_cache_misses": "netsim.traces_computed",
}

#: Every workload watches one fixed sensor deployment; the benchmark
#: seed orders the round pool, draws the stream's failures and the
#: monitor's schedules, so runs with different seeds measure the same
#: input size.
DEPLOYMENT_SEED = "perfbench/deployment"

VALIDATION = "quarantine"


@dataclass
class Pass:
    """What one pass over a workload's operations produced."""

    ops: int = 0
    latencies: List[float] = field(default_factory=list)
    work: int = 0
    busy: float = 0.0
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    snapshots: List[tuple] = field(default_factory=list)


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _budget(
    seconds: Optional[float], ops: Optional[int]
) -> Callable[[int], bool]:
    """``more(done)``: run until ``ops`` operations or ``seconds`` elapse."""
    if ops is not None:
        return lambda done: done < ops
    deadline = time.perf_counter() + seconds
    return lambda done: time.perf_counter() < deadline


def _count_cache(counts: Counter, before: dict, after: dict) -> None:
    for key, name in _CACHE_COUNTS.items():
        counts[name] += after[key] - before[key]


def _count_engine(result: Pass, engine: dict, ingest: dict) -> None:
    """Fold one engine's counters in; failed diagnoses count as failures
    against the events offered.  Quarantined events are the screening
    layer's answer, not failed operations: they are counted (and
    reported as ``quarantined_share``) but do not fail the run."""
    counts = result.counts
    counts["stream.events_offered"] += engine["events_offered"]
    counts["stream.events_admitted"] += engine["events_admitted"]
    counts["stream.events_quarantined"] += ingest["events_quarantined"]
    counts["stream.transitions"] += engine["transitions_scheduled"]
    counts["stream.coalesced"] += engine["episodes_coalesced"]
    counts["stream.deferred"] += engine["transitions_deferred"]
    result.attempted += engine["events_offered"]
    result.failed += engine["diagnoses_failed"]


def _instrument_core(ledger: Ledger, counts: Counter) -> None:
    """Time input building, the solver, graphs and result projections."""
    timed_inputs = ledger.wrap("core.edge_inputs", build_edge_inputs)
    timed_greedy = ledger.wrap("core.hitting_set", greedy_hitting_set)

    def inputs(*args, **kwargs):
        built = timed_inputs(*args, **kwargs)
        counts["core.failure_sets"] += len(built.failure_sets)
        counts["core.reroute_sets"] += len(built.reroute_map)
        return built

    def greedy(*args, **kwargs):
        outcome = timed_greedy(*args, **kwargs)
        counts["core.greedy_iterations"] += outcome.iterations
        return outcome

    # Both functions are imported by name into every diagnoser module.
    replacements = (
        ("build_edge_inputs", build_edge_inputs, inputs),
        ("greedy_hitting_set", greedy_hitting_set, greedy),
    )
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro."):
            continue
        for attr, original, replacement in replacements:
            if vars(module).get(attr) is original:
                ledger.replace(module, attr, replacement)
    ledger.patch(InferredGraph, "from_paths", "core.graph")
    ledger.patch(InferredGraph, "tokens", "core.graph")
    ledger.patch(DiagnosisResult, "physical_universe", "core.result")
    ledger.patch(DiagnosisResult, "physical_hypothesis", "core.result")


def _instrument_diagnosers(ledger: Ledger, diagnosers: Dict[str, Any]) -> None:
    """Time every engine's ``diagnose``, ensemble members included."""
    for label, diagnoser in diagnosers.items():
        ledger.patch(diagnoser, "diagnose", f"core.diagnose.{label}")
        for member_label, member in getattr(diagnoser, "members", {}).items():
            ledger.patch(member, "diagnose", f"core.diagnose.{member_label}")


def _instrument_engine(ledger: Ledger, engine: StreamEngine) -> None:
    ledger.patch(engine, "offer", "stream.offer")
    ledger.patch(engine.ingestor, "ingest", "stream.ingest")
    ledger.patch(engine, "advance", "stream.advance")
    ledger.patch(engine, "drain", "stream.drain")


class Workload:
    """One named workload: ``setup(seed)`` then ``run(state, ...)``.

    ``run`` returns a :class:`Pass`; given a :class:`Ledger` it first
    instruments the layers the workload calls.  Its timings come from
    ``probe``: each operation is timed on ``probe.clock`` and scaled by
    ``probe.scale`` over that operation.
    """

    name: str
    op_unit: str
    work_unit: str
    latency_name: str
    throughput_name: str
    failure_unit: str
    #: The :mod:`speed` kernel that mirrors the workload's hot path.
    speed_kernel: Callable[[], object] = staticmethod(interpreter_kernel)

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run(
        self,
        state: Any,
        seconds: Optional[float] = None,
        ops: Optional[int] = None,
        ledger: Optional[Ledger] = None,
        probe: NullProbe = NullProbe(),
    ) -> Pass:
        raise NotImplementedError

    def floors(self, result: Pass) -> List[Tuple[str, float, bool]]:
        """Quality scores of a pass as ``(label, value, meets floor)``."""
        return []

    def check_traced(self, traced: Pass) -> List[str]:
        """Problems only a traced pass can show."""
        return []


# ------------------------------------------------------------- rounds

ROUND_ENGINES = ("nd-edge", "nd-bgpigp", "nd-lg")
ROUND_KINDS = ("link-1", "link-2", "router", "misconfig")
ROUND_POOL = 24


@dataclass
class RoundState:
    topo: Any
    deployment: Session
    pool: List[Scenario]
    asx: int
    lg_service: LookingGlassService
    diagnosers: Dict[str, Any]
    ready: Optional[Session] = None


def _admitted_pool(deployment: Session, count: int) -> List[Scenario]:
    """The paper's admission loop: each scenario breaks some sensor pair.

    Scenarios with an after-state already in the pool are drawn again,
    so no timed round finds its converge in the routing cache.
    """
    pool: List[Scenario] = []
    states = set()
    for _attempt in range(count * 10):
        if len(pool) == count:
            break
        kind = ROUND_KINDS[len(pool) % len(ROUND_KINDS)]
        drawn = deployment.sampler.sample(kind)
        if drawn.after_state not in states:
            states.add(drawn.after_state)
            pool.append(drawn)
    return pool


class RoundWorkload(Workload):
    """Batch rounds of the research topology through ``run_scenario``.

    The sampler admits one fixed pool of scenarios, the same for every
    benchmark seed, so set-up and each pass over the pool do the same
    work whatever the seed; the seed orders the pool.  Scenarios are
    admitted on the deployment's own simulator, whose caches then hold
    every after-state; timed rounds therefore run on a second, fresh
    :class:`Simulator` of the same deployment (warmed on the nominal
    state only).  Once a pass has used every scenario of the pool it
    starts over on another fresh simulator, so no timed round converges
    from a warm cache.
    """

    name = "round-research"
    op_unit = "round"
    work_unit = "rounds"
    latency_name = "round_s"
    throughput_name = "rounds_per_s"
    failure_unit = "diagnoses (empty or errored hypotheses)"

    def setup(self, seed: int) -> RoundState:
        topo = research_internet(n_tier2=22, n_stub=140, seed=100)
        placement = random_stub_placement(
            topo, 10, random.Random(DEPLOYMENT_SEED)
        )
        deployment = make_session(
            topo, placement, random.Random(f"{DEPLOYMENT_SEED}/scenarios")
        )
        pool = _admitted_pool(deployment, ROUND_POOL)
        random.Random(f"{seed}/{self.name}").shuffle(pool)
        state = RoundState(
            topo=topo,
            deployment=deployment,
            pool=pool,
            asx=topo.core_asns[0],
            lg_service=LookingGlassService.everywhere(topo.net),
            diagnosers=make_diagnosers(ROUND_ENGINES),
        )
        state.ready = self._fresh_session(state)
        return state

    @staticmethod
    def _fresh_session(state: RoundState) -> Session:
        deployment = state.deployment
        sim = Simulator(deployment.net, deployment.sim.destination_asns)
        base = deployment.base_state
        for src in deployment.sensors:
            for dst in deployment.sensors:
                if src.sensor_id != dst.sensor_id:
                    sim.trace(base, src.router_id, dst.router_id)
        return Session(
            topo=state.topo,
            sim=sim,
            sensors=deployment.sensors,
            base_state=base,
            sampler=deployment.sampler,
        )

    def run(
        self, state, seconds=None, ops=None, ledger=None, probe=NullProbe()
    ) -> Pass:
        result = Pass()
        more = _budget(seconds, ops)
        session, state.ready = state.ready, None
        if ledger is not None:
            self._instrument(ledger, state, result)
        while more(result.ops):
            index = result.ops
            if session is None or (index and index % len(state.pool) == 0):
                session = None  # release the spent simulator first
                session = self._fresh_session(state)
            if ledger is not None and "routing" not in vars(session.sim):
                ledger.patch(session.sim, "routing", "netsim.bgp.converge")
            scenario = state.pool[index % len(state.pool)]
            caches = session.sim.cache_stats()
            mark = probe.mark()
            started = probe.clock()
            if ledger is None:
                record = self._round(session, scenario, state)
            else:
                record = ledger.op(self._round, session, scenario, state)
            elapsed = (probe.clock() - started) * probe.scale(mark)
            _count_cache(result.counts, caches, session.sim.cache_stats())
            result.ops += 1
            result.work += 1
            result.busy += elapsed
            result.latencies.append(elapsed)
            self._score(record, result)
        return result

    @staticmethod
    def _round(session: Session, scenario: Scenario, state: RoundState):
        return run_scenario(
            session,
            scenario,
            state.diagnosers,
            asx=state.asx,
            lg_service=state.lg_service,
            validation=VALIDATION,
        )

    @staticmethod
    def _score(record, result: Pass) -> None:
        degradation = record.degradation
        result.counts["validate.violations"] += degradation.invariant_violations
        verdicts = []
        for label, score in record.scores.items():
            result.attempted += 1
            if score.hypothesis_size == 0 or degradation.diagnoser_errors.get(
                label
            ):
                result.failed += 1
                result.problems.append(
                    f"{label} returned an empty hypothesis on "
                    f"'{record.description}'"
                )
            verdicts.append(
                (
                    label,
                    score.hypothesis_size,
                    score.physical_hypothesis_size,
                    score.fully_explained,
                    score.link,
                    score.as_level,
                )
            )
        result.digests.append(
            _digest(
                (
                    record.description,
                    record.n_failed_pairs,
                    record.n_rerouted_pairs,
                    record.diagnosability,
                    degradation.invariant_violations,
                    degradation.sensors_excluded,
                    verdicts,
                )
            )
        )

    @staticmethod
    def _instrument(ledger: Ledger, state: RoundState, result: Pass):
        # take_snapshot calls both by module-level name.
        ledger.patch(collector, "probe_mesh", "measurement.probe_mesh")
        ledger.patch(collector, "MeasurementSnapshot", "core.snapshot")
        take = runner_module.take_snapshot

        def recorded_snapshot(*args, **kwargs):
            snapshot = take(*args, **kwargs)
            result.snapshots.append((args, kwargs, snapshot))
            return snapshot

        ledger.replace(runner_module, "take_snapshot", recorded_snapshot)
        ledger.patch(Validator, "screen_store", "validate.screen")
        ledger.patch(Validator, "screen_rounds", "validate.screen")
        ledger.patch(
            runner_module, "collect_control_plane", "measurement.control_plane"
        )
        ledger.patch(runner_module, "suspect_working_pairs", "core.consistency")
        ledger.patch(runner_module, "implicated_sensors", "core.consistency")
        ledger.patch(runner_module, "diagnosability", "core.diagnosability")
        make_lookup = runner_module.make_lg_lookup
        counts = result.counts

        def traced_lookup(*args, **kwargs):
            lookup = ledger.wrap(
                "measurement.lg_lookup", make_lookup(*args, **kwargs)
            )

            def counted(*query):
                counts["measurement.lg_queries"] += 1
                return lookup(*query)

            return counted

        ledger.replace(runner_module, "make_lg_lookup", traced_lookup)
        _instrument_core(ledger, counts)
        _instrument_diagnosers(ledger, state.diagnosers)

    def check_traced(self, traced: Pass) -> List[str]:
        """Each traced snapshot must equal an untraced ``take_snapshot``."""
        problems = []
        for args, kwargs, traced_snapshot in traced.snapshots:
            validator = Validator(VALIDATION, degradation=DegradationReport())
            reference = take_snapshot(
                *args, **{**kwargs, "report": None, "validator": validator}
            )
            if _snapshot_key(reference) != _snapshot_key(traced_snapshot):
                problems.append("traced snapshot differs from take_snapshot")
        traced.snapshots.clear()
        return problems


def _snapshot_key(snapshot: MeasurementSnapshot) -> tuple:
    return tuple(
        tuple((pair, store.get(pair)) for pair in store.pairs())
        for store in (snapshot.before, snapshot.after)
    )


# ------------------------------------------------------------- stream

STREAM_ENGINES = ("nd-bgpigp", "ensemble")
STREAM_EPISODES = 60


@dataclass
class StreamState:
    setup: ReplaySetup
    log: Any


class StreamWorkload(Workload):
    """Replays of one seeded link-1 event log through the serial engine.

    The log is built once in set-up; each replay starts a fresh
    :class:`StreamEngine`, so every replay does the same work.  A
    verdict's latency is the wall time of the ``drain()`` call that
    retired its transition; close reports carry no diagnosis and are
    not verdicts.
    """

    name = "stream-replay"
    op_unit = "verdict"
    work_unit = "events"
    latency_name = "verdict_s"
    throughput_name = "events_per_s"
    failure_unit = "events offered (failed diagnoses)"

    def setup(self, seed: int) -> StreamState:
        topo = research_internet(n_tier2=22, n_stub=140, seed=100)
        placement = random_stub_placement(
            topo, 10, random.Random(DEPLOYMENT_SEED)
        )
        setup = ReplaySetup(
            session=make_session(
                topo, placement, random.Random(f"{seed}/{self.name}")
            ),
            asx=topo.core_asns[0],
            blocked_ases=frozenset(),
            lg_service=None,
            diagnosers=make_diagnosers(STREAM_ENGINES),
        )
        config = ReplayConfig(kind="link-1", episodes=STREAM_EPISODES, seed=seed)
        return StreamState(setup=setup, log=build_event_log(setup, config))

    def run(
        self, state, seconds=None, ops=None, ledger=None, probe=NullProbe()
    ) -> Pass:
        result = Pass()
        more = _budget(seconds, ops)
        setup = state.setup
        if ledger is not None:
            ledger.patch(stream_window, "MeasurementSnapshot", "core.snapshot")
            _instrument_core(ledger, result.counts)
            _instrument_diagnosers(ledger, setup.diagnosers)
        while more(result.ops):
            engine = StreamEngine(
                asn_of=setup.session.sim.mapper.asn_of,
                diagnosers=setup.diagnosers,
                asx=setup.asx,
                policy=VALIDATION,
                degradation=DegradationReport(),
            )
            drains = self._time_drains(engine, probe.clock)
            if ledger is not None:
                _instrument_engine(ledger, engine)
            mark = probe.mark()
            started = probe.clock()
            if ledger is None:
                reports = run_replay(state.log, engine)
            else:
                reports = ledger.op(run_replay, state.log, engine)
            scale = probe.scale(mark)
            result.ops += 1
            result.busy += (probe.clock() - started) * scale
            result.work += len(state.log.events)
            for drain_seconds, retired in drains:
                result.latencies.extend(
                    drain_seconds * scale
                    for report in retired
                    if report.diagnoses
                )
            _count_engine(result, engine.counters(), engine.ingest_counters())
            result.digests.append(self._digest(reports))
            self._check(reports, len(state.log.episodes), result)
        return result

    @staticmethod
    def _time_drains(engine: StreamEngine, clock) -> List[tuple]:
        """Record ``(seconds on clock, reports)`` for every ``drain()``."""
        drains: List[tuple] = []
        drain = engine.drain

        def timed_drain(now):
            started = clock()
            reports = drain(now)
            drains.append((clock() - started, reports))
            return reports

        engine.drain = timed_drain
        return drains

    @staticmethod
    def _digest(reports) -> str:
        return _digest(
            [
                (
                    report.report_index,
                    report.episode_id,
                    report.trigger,
                    report.tick,
                    report.diagnosed_at,
                    report.pairs,
                    [
                        (
                            diagnosis.algorithm,
                            sorted(map(str, diagnosis.hypothesis)),
                            diagnosis.fully_explained,
                            diagnosis.error,
                            diagnosis.verdict,
                        )
                        for diagnosis in report.diagnoses
                    ],
                )
                for report in reports
            ]
        )

    @staticmethod
    def _check(reports, episodes: int, result: Pass) -> None:
        for trigger in ("open", "close"):
            seen = sum(1 for report in reports if report.trigger == trigger)
            if seen != episodes:
                result.problems.append(
                    f"{seen} {trigger} reports for {episodes} episodes"
                )
        if len(set(result.digests)) > 1:
            result.problems.append("replays of one log gave different reports")


# ------------------------------------------------------------ monitor

MONITOR_TICKS = 2000
#: The monitor's own deployment (a smaller hub-and-spoke internet with
#: six sensors), the one the ``BENCH_monitor`` lane watches.
MONITOR_DEPLOYMENT_SEED = 0


@dataclass
class MonitorState:
    seed: int
    setup: Optional[ReplaySetup]


class MonitorWorkload(Workload):
    """Back-to-back ``run_monitor`` calls on the ``mixed-ops`` scenario.

    Call ``i`` replays a fresh schedule (seed ``seed * 1000 + i``) on a
    fresh deployment of the same sensors, so every call does comparable
    work from cold caches.  The quality floors are checked on the counts
    pooled over all calls of a pass.
    """

    name = "monitor-mixed"
    op_unit = "monitor run"
    work_unit = "ticks"
    latency_name = "monitor_s"
    throughput_name = "ticks_per_s"
    failure_unit = "events offered (failed diagnoses)"
    speed_kernel = staticmethod(monitor_kernel)

    def setup(self, seed: int) -> MonitorState:
        return MonitorState(seed=seed, setup=self._deployment())

    @staticmethod
    def _deployment() -> ReplaySetup:
        return make_monitor_setup(seed=MONITOR_DEPLOYMENT_SEED, topo_seed=100)

    def run(
        self, state, seconds=None, ops=None, ledger=None, probe=NullProbe()
    ) -> Pass:
        result = Pass()
        more = _budget(seconds, ops)
        setup, state.setup = state.setup, None
        if ledger is not None:
            self._instrument(ledger, result.counts)
        config = scenario("mixed-ops", MONITOR_TICKS)
        while more(result.ops):
            if setup is None:
                setup = self._deployment()
            sim = setup.session.sim
            if ledger is not None:
                ledger.patch(sim, "routing", "netsim.bgp.converge")
            caches = sim.cache_stats()
            run_seed = state.seed * 1000 + result.ops
            mark = probe.mark()
            started = probe.clock()
            if ledger is None:
                outcome = run_monitor(setup, config, run_seed, policy=VALIDATION)
            else:
                outcome = ledger.op(
                    run_monitor, setup, config, run_seed, policy=VALIDATION
                )
            elapsed = (probe.clock() - started) * probe.scale(mark)
            _count_cache(result.counts, caches, sim.cache_stats())
            setup = None
            result.ops += 1
            result.busy += elapsed
            result.work += config.ticks
            result.latencies.append(elapsed)
            self._score(outcome, result)
        return result

    @staticmethod
    def _score(outcome, result: Pass) -> None:
        _count_engine(result, outcome.engine_counters, outcome.ingest_counters)
        detection, classifier = outcome.detection, outcome.classifier
        counts = result.counts
        counts["quality.outages_detected"] += detection.outages_detected
        counts["quality.outages"] += detection.outages_total
        counts["quality.false_alarms"] += detection.false_alarms
        counts["quality.intervals_scored"] += detection.intervals_scored
        for key in ("tp", "fp", "fn", "tn"):
            counts[f"quality.{key}"] += getattr(classifier, key)
        intervals = [
            (
                interval.pair,
                interval.opened_at,
                interval.closed_at,
                interval.censored,
                interval.truth_label,
                interval.verdict,
            )
            for interval in outcome.recorder.intervals
        ]
        result.digests.append(
            _digest(
                (
                    outcome.events_total,
                    intervals,
                    detection,
                    classifier,
                    len(outcome.reports),
                )
            )
        )

    @staticmethod
    def _instrument(ledger: Ledger, counts: Counter) -> None:
        ledger.patch(monitor_runner, "build_schedule", "monitor.schedule")
        ledger.patch(monitor_runner, "baseline_paths", "monitor.baseline")
        ledger.patch(monitor_runner, "_build_monitor_log", "monitor.build")
        ledger.patch(monitor_runner, "run_replay", "monitor.replay")
        for attr in (
            "assign_truth",
            "classify_intervals",
            "score_detection",
            "score_classifier",
            "MonitorLookingGlass",
        ):
            ledger.patch(monitor_runner, attr, "monitor.classify")
        ledger.patch(stream_window, "MeasurementSnapshot", "core.snapshot")

        build_engine = monitor_runner.build_engine

        def traced_engine(*args, **kwargs):
            engine = build_engine(*args, **kwargs)
            _instrument_engine(ledger, engine)
            return engine

        ledger.replace(monitor_runner, "build_engine", traced_engine)
        recorder_class = monitor_runner.FlightRecorder

        def traced_recorder(*args, **kwargs):
            recorder = recorder_class(*args, **kwargs)
            for method in ("observe", "advance", "forget", "note_baseline"):
                ledger.patch(recorder, method, "monitor.recorder")
            return recorder

        ledger.replace(monitor_runner, "FlightRecorder", traced_recorder)

        def traced_plans(plan_for):
            def traced_plan(config, seed):
                plan = plan_for(config, seed)
                for method in ("fires", "dwell_ticks", "pick"):
                    timed = ledger.wrap("faults.plan", getattr(plan, method))

                    def counted(*args, timed=timed, **kwargs):
                        counts["faults.decisions"] += 1
                        return timed(*args, **kwargs)

                    ledger.replace(plan, method, counted)
                return plan

            return traced_plan

        # build_schedule and _build_monitor_log each derive their own plan.
        for module in (monitor_runner, monitor_schedule):
            ledger.replace(
                module, "monitor_plan", traced_plans(module.monitor_plan)
            )

    def floors(self, result: Pass) -> List[Tuple[str, float, bool]]:
        """The flight recorder's quality floors, on pooled counts."""
        counts = result.counts

        def share(num: str, *rest: str) -> float:
            total = counts[num] + sum(counts[key] for key in rest)
            return counts[num] / total if total else 1.0

        detected = (
            counts["quality.outages_detected"] / counts["quality.outages"]
            if counts["quality.outages"]
            else 1.0
        )
        false_alarms = (
            counts["quality.false_alarms"] / counts["quality.intervals_scored"]
            if counts["quality.intervals_scored"]
            else 0.0
        )
        return [
            ("detected >= 0.9", detected, detected >= 0.9),
            ("false-alarm rate <= 0.1", false_alarms, false_alarms <= 0.1),
        ] + [
            (f"{label} >= 0.9", value, value >= 0.9)
            for label, value in (
                ("blocked precision", share("quality.tp", "quality.fp")),
                ("blocked recall", share("quality.tp", "quality.fn")),
                ("failed precision", share("quality.tn", "quality.fn")),
                ("failed recall", share("quality.tn", "quality.fp")),
            )
        ]


WORKLOADS: Dict[str, Workload] = {
    "round-research": RoundWorkload(),
    "stream-replay": StreamWorkload(),
    "monitor-mixed": MonitorWorkload(),
}
