"""The streaming diagnosis engine: events in, episode reports out.

:class:`StreamEngine` is one pipeline — router → shards → merger →
diagnosis queue — that wires the stream pieces into the shape the batch
pipeline has always had (screen, assemble, diagnose), but continuously:

1. :meth:`offer` screens one event and folds it into the shard that owns
   its pair (:class:`~repro.stream.router.StreamShard`: window slots and
   pair-alarm debounce).  Control-plane and sensor-liveness events are
   screened once by :attr:`ingestor` and broadcast to every shard; the
   control-plane messages themselves live once, in the
   :class:`~repro.stream.window.ControlFeed`;
2. :meth:`advance` closes a logical tick: stale observations are
   evicted, the :class:`~repro.stream.merge.CrossShardMerger` turns the
   shards' alarms into episode transitions, which become **diagnosis
   work** on a bounded queue;
3. :meth:`drain` retires queued work: for each transition it assembles
   the snapshot over every shard window and runs every configured
   diagnoser, emitting one :class:`EpisodeReport` per transition in
   schedule order.

Shard count, tenancy and supervision are configuration.  ``shards=1``
(the default) routes without hashing, and its one shard shares the
front-door ingestor, so one screening pass sees every event.
``tenants`` put deterministic token-bucket admission in front of the
pair events.  Supervision (:mod:`repro.stream.supervise`: checkpointed
shard restart, circuit breakers, dead letters) is built only when one of
its collaborators — ``plan``, ``supervision``, ``checkpoints`` or
``dead_letters`` — is given.

Backpressure is explicit, never silent.  The work queue holds at most
``max_pending`` transitions; an ``update`` for an episode already queued
is **coalesced** into the queued entry (``episodes_coalesced``), a
transition arriving at a full queue is **deferred** to the next drain
(``transitions_deferred``), and a deferral buffer past ``overflow_limit``
raises :class:`~repro.errors.EpisodeOverflowError` — the engine refuses
to shed diagnosis work without telling anyone.

Determinism: reports depend only on the event stream and the
configuration.  With ``workers > 1`` the per-variant diagnoses of each
drained transition run in a process pool — payloads are made picklable
by snapshotting ``asn_of`` into a :class:`StaticAsnMap` — and results
are merged back in (transition, variant) order, so parallel output is
bit-identical to serial.  ``nd-lg`` closures are not picklable and
always run inline in the parent, in the same merge order.  With
admission disabled, any shard count replays bit-identically to one
shard.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.control_plane import ControlPlaneView
from repro.core.protocol import Diagnoser
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, MeasurementSnapshot
from repro.empathy.ensemble import EnsembleDisagreement
from repro.errors import EpisodeOverflowError, StreamError
from repro.faults import DegradationReport, FaultPlan
from repro.stream.checkpoint import CheckpointStore
from repro.stream.episodes import CLOSE, UPDATE, EpisodeTransition
from repro.stream.events import ProbeEvent, ReachabilityEvent, StreamEvent
from repro.stream.ingest import StreamIngestor
from repro.stream.merge import CrossShardMerger
from repro.stream.router import (
    AdmissionController,
    ShardRouter,
    StreamShard,
    TenantConfig,
)
from repro.stream.supervise import (
    BREAKER_CLOSED,
    HARD_FAILURES,
    CircuitBreaker,
    DeadLetterQueue,
    ShardSupervisor,
    SupervisionConfig,
)
from repro.stream.window import ControlFeed, assemble_snapshot

__all__ = [
    "StaticAsnMap",
    "EpisodeDiagnosis",
    "EpisodeReport",
    "StreamEngine",
]

logger = logging.getLogger(__name__)

Pair = Tuple[str, str]

#: Events keyed by a sensor pair; everything else is broadcast.
_PAIR_EVENTS = (ProbeEvent, ReachabilityEvent)


@dataclass
class StaticAsnMap:
    """A picklable snapshot of the IP-to-AS mapping.

    Worker processes cannot unpickle a simulator-bound ``asn_of``
    method, so diagnosis payloads carry the mapping for exactly the
    addresses the snapshot mentions.  Calling it is what the diagnosers
    expect: address in, ASN (or ``None``) out.
    """

    table: Dict[str, Optional[int]]

    def __call__(self, address: str) -> Optional[int]:
        return self.table.get(address)


@dataclass(frozen=True)
class EpisodeDiagnosis:
    """One diagnoser's verdict inside an episode report.

    ``error`` carries the exception type name when the diagnoser could
    not cope with the window's partial inputs (best-effort empty
    hypothesis, same as the batch runner's degraded path).  ``verdict``
    is the ensemble agreement grade (``agree``/``partial``/``conflict``)
    when the diagnoser was an :class:`~repro.empathy.EnsembleDiagnoser`,
    ``None`` otherwise.
    """

    algorithm: str
    hypothesis: frozenset
    hypothesis_size: int
    fully_explained: bool
    error: Optional[str] = None
    verdict: Optional[str] = None


@dataclass(frozen=True)
class EpisodeReport:
    """One emitted diagnosis of one episode transition.

    ``report_index`` is the global emission index; it doubles as the
    :class:`~repro.experiments.journal.RunJournal` key (exposed as
    ``placement_index``) so a stream run checkpoints and resumes with
    the same machinery as a batch sweep.  ``latency_ticks`` is how many
    logical ticks the transition waited in the queue before diagnosis —
    the bounded-latency number the benchmarks track.
    """

    report_index: int
    episode_id: int
    trigger: str
    tick: int
    diagnosed_at: int
    pairs: Tuple[Pair, ...]
    diagnoses: Tuple[EpisodeDiagnosis, ...]

    @property
    def latency_ticks(self) -> int:
        return self.diagnosed_at - self.tick

    @property
    def placement_index(self) -> int:
        """Journal key (RunJournal stores results by this attribute)."""
        return self.report_index


def _summarise(result) -> EpisodeDiagnosis:
    ensemble = result.details.get("ensemble") or {}
    return EpisodeDiagnosis(
        algorithm=result.algorithm,
        hypothesis=frozenset(result.hypothesis),
        hypothesis_size=result.hypothesis_size(),
        fully_explained=result.fully_explained,
        verdict=ensemble.get("verdict"),
    )


def _empty_diagnosis(label: str, error: Optional[str] = None) -> EpisodeDiagnosis:
    return EpisodeDiagnosis(
        algorithm=label,
        hypothesis=frozenset(),
        hypothesis_size=0,
        fully_explained=False,
        error=error,
    )


def _diagnose_payload(payload) -> EpisodeDiagnosis:
    """Worker-side diagnosis of one picklable (label, diagnoser,
    snapshot, control) payload; degrades to an empty verdict on any
    exception so a fragile diagnoser never kills the pool."""
    label, diagnoser, snapshot, control = payload
    try:
        return _summarise(
            diagnoser.diagnose(snapshot, control=control, lg_lookup=None)
        )
    except Exception as exc:
        return _empty_diagnosis(label, error=type(exc).__name__)


class StreamEngine:
    """Continuous diagnosis over an event stream.

    Parameters mirror the batch runner where a counterpart exists:
    ``diagnosers`` is the same label →
    :class:`~repro.core.protocol.Diagnoser` mapping, ``asx`` the
    cooperating ISP, ``lg_lookup`` the Looking Glass callback for
    ``nd-lg``, ``policy`` a :mod:`repro.validate` policy name.
    ``shards``, ``tenants``/``tenant_of`` and the supervision
    collaborators (``plan``, ``supervision``, ``checkpoints``,
    ``dead_letters``) shape the pipeline; see the module docstring.
    """

    def __init__(
        self,
        asn_of: Callable[[str], Optional[int]],
        diagnosers: Mapping[str, Diagnoser],
        asx: Optional[int] = None,
        lg_lookup: Optional[Callable] = None,
        window_width: int = 4,
        window_capacity: int = 0,
        open_after: int = 2,
        close_after: int = 2,
        policy: str = "quarantine",
        max_pending: int = 8,
        overflow_limit: int = 32,
        workers: int = 0,
        shards: int = 1,
        tenants: Sequence[TenantConfig] = (),
        tenant_of: Optional[Callable[[StreamEvent], Optional[str]]] = None,
        plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionConfig] = None,
        checkpoints: Optional[CheckpointStore] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        degradation: Optional[DegradationReport] = None,
        on_report: Optional[Callable[[EpisodeReport], None]] = None,
        cached_reports: Optional[Mapping[int, EpisodeReport]] = None,
    ) -> None:
        if max_pending < 1:
            raise StreamError(f"max_pending must be >= 1, got {max_pending}")
        if overflow_limit < 0:
            raise StreamError(
                f"overflow_limit must be >= 0, got {overflow_limit}"
            )
        if shards < 1:
            raise StreamError(f"need >= 1 shard, got {shards}")
        self.asn_of = asn_of
        self.diagnosers = dict(diagnosers)
        self.asx = asx
        self.lg_lookup = lg_lookup
        self.max_pending = max_pending
        self.overflow_limit = overflow_limit
        self.workers = workers
        self.on_report = on_report
        self.cached_reports = dict(cached_reports or {})

        # One shard routes without hashing: every pair event is its own.
        self.router = ShardRouter(shards, asn_of=asn_of) if shards > 1 else None
        self.shards = [
            StreamShard(
                index,
                asn_of,
                policy=policy,
                window_width=window_width,
                window_capacity=window_capacity,
                open_after=open_after,
                close_after=close_after,
                degradation=degradation,
            )
            for index in range(shards)
        ]
        supervised = any(
            part is not None
            for part in (plan, supervision, checkpoints, dead_letters)
        )
        # Broadcast events are screened once, here, before fan-out: the
        # global feed-dedup state must not be forked per shard.  A lone
        # unsupervised shard shares this ingestor, so one screening pass
        # sees every event.  (A supervised shard cannot: a restart
        # restores its ingestor from a checkpoint.)
        if shards == 1 and not supervised:
            self.ingestor = self.shards[0].ingestor
        else:
            self.ingestor = StreamIngestor(
                asn_of,
                policy,
                expected_epochs=(EPOCH_PRE, EPOCH_POST),
                degradation=degradation,
            )
        self.feed = ControlFeed(window_width)
        self.merger = CrossShardMerger()
        self.admission = AdmissionController(tenants)
        self.tenant_of = tenant_of

        self.plan = plan
        self.supervision: Optional[SupervisionConfig] = None
        self.supervisor: Optional[ShardSupervisor] = None
        self.dead_letters: Optional[DeadLetterQueue] = None
        self.breakers: Dict[str, CircuitBreaker] = {}
        if supervised:
            self.supervision = supervision or SupervisionConfig()
            self.dead_letters = dead_letters or DeadLetterQueue()
            self.supervisor = ShardSupervisor(
                self.shards,
                config=self.supervision,
                plan=plan,
                checkpoints=checkpoints or CheckpointStore(),
                dead_letters=self.dead_letters,
            )
            self.breakers = {
                label: CircuitBreaker(
                    threshold=self.supervision.breaker_threshold,
                    cooldown=self.supervision.breaker_cooldown,
                )
                for label in self.diagnosers
            }
        self._episode_failures: Dict[int, int] = {}
        self._dead_episodes: set = set()

        self._pending: List[EpisodeTransition] = []
        self._deferred: List[EpisodeTransition] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        self.reports: List[EpisodeReport] = []
        # accounting
        self.events_offered = 0
        self.events_admitted = 0
        self.events_broadcast = 0
        self.transitions_scheduled = 0
        self.episodes_coalesced = 0
        self.transitions_deferred = 0
        self.reports_reused = 0
        self.diagnoses_failed = 0
        self.diagnoses_short_circuited = 0
        self.diagnoses_poisoned = 0
        self.transitions_dead_lettered = 0
        self.ensemble_verdicts = EnsembleDisagreement()
        self.latencies: List[int] = []
        self.seconds = {
            "ingest": 0.0,
            "window": 0.0,
            "detect": 0.0,
            "diagnose": 0.0,
        }

    @property
    def partitioned(self) -> bool:
        """Whether the run reports shard and admission accounting: more
        than one shard, or tenant admission in front of the one."""
        return self.router is not None or self.admission.enabled

    # --------------------------------------------------------------- intake

    def offer(self, event: StreamEvent) -> bool:
        """Admit, route, screen and fold one event.

        Returns ``True`` when the event was admitted (or buffered for a
        dark shard), ``False`` when admission shed it or the screening
        quarantined it.  Pair-scoped events pass tenant admission, then
        go to their shard; control-plane and sensor-liveness events
        bypass admission (shedding the ISP's own feed or a dropout notice
        would corrupt every shard's view) and broadcast to all shards
        after a single screening pass.
        """
        self.events_offered += 1
        if self.router is not None:
            index = self.router.route(event)
        else:
            index = 0 if isinstance(event, _PAIR_EVENTS) else None
        supervisor = self.supervisor
        if index is None:
            self.events_broadcast += 1
            started = time.perf_counter()
            admitted = self.ingestor.ingest(event)
            self.seconds["ingest"] += time.perf_counter() - started
            if admitted is None:
                return False
            self.feed.observe(admitted)
            for shard in self.shards:
                if supervisor is None:
                    shard.observe_broadcast(admitted)
                elif supervisor.is_dark(shard.index):
                    supervisor.buffer_event(shard.index, "bcast", admitted)
                else:
                    shard.observe_broadcast(admitted)
                    supervisor.record_tail(shard.index, "bcast", admitted)
            self.events_admitted += 1
            return True
        if self.admission.enabled:
            tenant = self.tenant_of(event) if self.tenant_of else None
            if not self.admission.admit(tenant):
                return False
        if supervisor is not None and supervisor.is_dark(index):
            # Buffered raw: it is screened on replay, which keeps the
            # screening counters exact.
            supervisor.buffer_event(index, "pair", event)
            return True
        if not self.shards[index].offer(event):
            return False
        if supervisor is not None:
            supervisor.record_tail(index, "pair", event)
        self.events_admitted += 1
        return True

    # ---------------------------------------------------------------- ticks

    def advance(self, tick: int) -> List[EpisodeTransition]:
        """Close a logical tick: refill admission buckets, evict stale
        state, merge the shards' alarms into episode transitions and
        schedule the resulting diagnosis work.

        Under supervision, shards whose darkness ends now restart first,
        a dark or slow shard contributes its held alarm view, and the
        chaos dice roll for the next tick last.
        """
        started = time.perf_counter()
        self.admission.on_tick(tick)
        supervisor = self.supervisor
        if supervisor is not None:
            self.events_admitted += supervisor.begin_tick(tick)
        self.feed.evict(tick)
        for shard in self.shards:
            shard.window.evict(tick)
        if supervisor is None:
            alarms = [shard.alarms.alarmed_pairs() for shard in self.shards]
        else:
            alarms = [
                supervisor.alarm_view(shard.index, tick)
                for shard in self.shards
            ]
        transitions = self.merger.advance(tick, alarms)
        self.seconds["detect"] += time.perf_counter() - started
        for transition in transitions:
            self._schedule(transition)
        if supervisor is not None:
            supervisor.end_tick(tick)
        return transitions

    def _owning_shard(self, transition: EpisodeTransition) -> Optional[int]:
        if self.router is None or not transition.pairs:
            return None
        return self.router.shard_for_destination(transition.pairs[0][1])

    def _schedule(self, transition: EpisodeTransition) -> None:
        if (
            transition.episode_id in self._dead_episodes
            and transition.kind != CLOSE
        ):
            # Struck-out episode: parking further work beats wedging the
            # queue with diagnoses that will hard-fail again.
            self.transitions_dead_lettered += 1
            self.dead_letters.put_episode(
                transition,
                reason="episode-strikes",
                shard=self._owning_shard(transition),
            )
            return
        self.transitions_scheduled += 1
        if transition.kind == UPDATE:
            for queue in (self._pending, self._deferred):
                for slot, queued in enumerate(queue):
                    if (
                        queued.episode_id == transition.episode_id
                        and queued.kind != CLOSE
                    ):
                        # Absorb: keep the queued kind (an open must
                        # still be reported as an open), diagnose the
                        # newest state.
                        queue[slot] = replace(queued, pairs=transition.pairs)
                        self.episodes_coalesced += 1
                        return
        if len(self._pending) < self.max_pending:
            self._pending.append(transition)
            return
        self.transitions_deferred += 1
        if len(self._deferred) >= self.overflow_limit:
            # Name the owning shard before the overflow crosses any
            # worker/process boundary — a bare BrokenProcessPool tells
            # an operator nothing about *which* shard's episode wedged
            # the queue.
            raise EpisodeOverflowError(
                f"diagnosis queue full ({self.max_pending} pending, "
                f"{len(self._deferred)} deferred >= overflow_limit="
                f"{self.overflow_limit}); drain more often or widen the "
                "queue",
                shard=self._owning_shard(transition),
            )
        self._deferred.append(transition)

    # ---------------------------------------------------------------- drain

    @property
    def idle(self) -> bool:
        """True when no diagnosis work is queued or deferred."""
        return not (self._pending or self._deferred)

    def drain(self, now: int) -> List[EpisodeReport]:
        """Retire the queued transitions (at most ``max_pending``),
        then promote deferred work into the freed queue slots."""
        batch, self._pending = self._pending, []
        promoted = self._deferred[: self.max_pending]
        self._deferred = self._deferred[self.max_pending:]
        self._pending.extend(promoted)
        if not batch:
            return []
        started = time.perf_counter()
        reports = self._diagnose_batch(batch, now)
        self.seconds["diagnose"] += time.perf_counter() - started
        for report in reports:
            self.reports.append(report)
            self.latencies.append(report.latency_ticks)
            if (
                self.on_report is not None
                and report.report_index not in self.cached_reports
            ):
                # Reused reports are already durable wherever the hook
                # writes (the resume journal) — only fresh ones go out.
                self.on_report(report)
        return reports

    def flush(self, now: int) -> List[EpisodeReport]:
        """Drain until no work remains (end-of-stream)."""
        if self.supervisor is not None:
            # Nothing buffered may stay dark, or its events would
            # silently vanish from the final verdicts.
            self.events_admitted += self.supervisor.force_recover(now)
        reports: List[EpisodeReport] = []
        while not self.idle:
            reports.extend(self.drain(now))
        return reports

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self.dead_letters is not None:
            self.dead_letters.close()

    # ---------------------------------------------------------- diagnosis

    def _static_asn_map(
        self, snapshot: MeasurementSnapshot, control: Optional[ControlPlaneView]
    ) -> StaticAsnMap:
        addresses = set()
        for store in (snapshot.before, snapshot.after):
            for path in store.paths():
                for hop in path.hops:
                    if isinstance(hop, str):
                        addresses.add(hop)
        if control is not None:
            for obs in control.igp_link_down:
                addresses.update((obs.address_a, obs.address_b))
            for obs in control.withdrawals:
                addresses.update((obs.at_address, obs.from_address))
        return StaticAsnMap(
            {address: self.asn_of(address) for address in sorted(addresses)}
        )

    def _diagnose_batch(
        self, batch: List[EpisodeTransition], now: int
    ) -> List[EpisodeReport]:
        """Diagnose a drained batch, serial or via the worker pool.

        Every transition in the batch sees the same window state (the
        windows only change in :meth:`offer`/:meth:`advance`), so the
        snapshot is assembled once per drain.
        """
        next_index = len(self.reports)
        cached: Dict[int, EpisodeReport] = {}
        live: List[Tuple[int, EpisodeTransition]] = []
        for offset, transition in enumerate(batch):
            index = next_index + offset
            if index in self.cached_reports:
                cached[index] = self.cached_reports[index]
                self.reports_reused += 1
            else:
                live.append((index, transition))

        snapshot, control = (None, None)
        if any(t.kind != CLOSE for _i, t in live):
            snapshot = assemble_snapshot(
                [shard.window for shard in self.shards], self.asn_of
            )
            if self.asx is not None:
                control = self.feed.view(self.asx)
        diagnosable = (
            snapshot is not None and snapshot.any_failure()
        )

        labels = list(self.diagnosers)
        use_pool = self.workers > 1 and diagnosable and any(
            t.kind != CLOSE for _i, t in live
        )
        pooled: Dict[Tuple[int, str], EpisodeDiagnosis] = {}
        if use_pool:
            jobs = []
            for index, transition in live:
                if transition.kind == CLOSE:
                    continue
                for label in labels:
                    if not self._pool_allowed(label):
                        continue
                    jobs.append((index, label))
            if jobs:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                static_map = self._static_asn_map(snapshot, control)
                picklable_snapshot = MeasurementSnapshot(
                    before=snapshot.before,
                    after=snapshot.after,
                    asn_of=static_map,
                )
                futures = [
                    (
                        (index, label),
                        self._pool.submit(
                            _diagnose_payload,
                            (
                                label,
                                self.diagnosers[label],
                                picklable_snapshot,
                                control,
                            ),
                        ),
                    )
                    for index, label in jobs
                ]
                for key, future in futures:
                    pooled[key] = future.result()

        reports: Dict[int, EpisodeReport] = dict(cached)
        for index, transition in live:
            diagnoses: List[EpisodeDiagnosis] = []
            if transition.kind != CLOSE and diagnosable:
                for label in labels:
                    if (index, label) in pooled:
                        verdict = pooled[(index, label)]
                    else:
                        verdict = self._diagnose_inline(
                            label, snapshot, control, transition, now
                        )
                    if verdict.error is not None:
                        self.diagnoses_failed += 1
                    if verdict.verdict is not None:
                        self.ensemble_verdicts.record(verdict.verdict)
                    diagnoses.append(verdict)
            reports[index] = EpisodeReport(
                report_index=index,
                episode_id=transition.episode_id,
                trigger=transition.kind,
                tick=transition.tick,
                diagnosed_at=now,
                pairs=transition.pairs,
                diagnoses=tuple(diagnoses),
            )
        return [reports[next_index + offset] for offset in range(len(batch))]

    def _pool_allowed(self, label: str) -> bool:
        """May this diagnoser's work use the pool?

        ``nd-lg`` closures are never picklable (``poolable`` is False).
        Under supervision, a variant whose circuit breaker is not closed
        — and all work, when worker poison can fire — runs inline: pooled
        workers swallow exceptions, and the breaker must observe every
        outcome in deterministic (transition, variant) order.
        """
        if not getattr(self.diagnosers[label], "poolable", True):
            return False
        if not self.breakers:
            return True
        if self.breakers[label].state != BREAKER_CLOSED:
            return False
        return not (
            self.plan is not None and self.plan.config.worker_poison_rate > 0
        )

    def _diagnose_inline(
        self,
        label: str,
        snapshot: MeasurementSnapshot,
        control: Optional[ControlPlaneView],
        transition: EpisodeTransition,
        now: int,
    ) -> EpisodeDiagnosis:
        diagnoser = self.diagnosers[label]
        breaker = self.breakers.get(label)
        if breaker is not None and not breaker.allow(now):
            self.diagnoses_short_circuited += 1
            return _empty_diagnosis(label, error="CircuitOpen")
        if self.plan is not None and self.plan.worker_poisoned(
            diagnoser.variant, str(transition.episode_id)
        ):
            # The injected worker loss: the diagnoser "process" dies on
            # this input.  Modelled as the timeout the runner would see.
            self.diagnoses_poisoned += 1
            verdict = _empty_diagnosis(label, error="JobTimeoutError")
        else:
            try:
                verdict = _summarise(
                    diagnoser.diagnose(
                        snapshot, control=control, lg_lookup=self.lg_lookup
                    )
                )
            except Exception as exc:  # best-effort: degrade, never crash
                logger.debug(
                    "%s failed on window inputs (%s: %s); emitting an empty "
                    "verdict",
                    label, type(exc).__name__, exc,
                )
                verdict = _empty_diagnosis(label, error=type(exc).__name__)
        if breaker is None:
            return verdict
        if verdict.error in HARD_FAILURES:
            breaker.record_failure(now)
            failures = self._episode_failures.get(transition.episode_id, 0) + 1
            self._episode_failures[transition.episode_id] = failures
            if failures >= self.supervision.episode_strikes:
                self._dead_episodes.add(transition.episode_id)
        elif verdict.error is None:
            breaker.record_success()
        return verdict

    # ------------------------------------------------------------- counters

    def counters(self) -> Dict[str, int]:
        """The engine's own accounting (window/detector/ingest counters
        have their own accessors).  Shard and admission keys appear when
        the run is :attr:`partitioned`, supervision keys when it is
        supervised."""
        counts = {
            "events_offered": self.events_offered,
            "events_admitted": self.events_admitted,
            "transitions_scheduled": self.transitions_scheduled,
            "episodes_coalesced": self.episodes_coalesced,
            "transitions_deferred": self.transitions_deferred,
            "reports_emitted": len(self.reports),
            "reports_reused": self.reports_reused,
            "diagnoses_failed": self.diagnoses_failed,
            "ensemble_agree": self.ensemble_verdicts.agree,
            "ensemble_partial": self.ensemble_verdicts.partial,
            "ensemble_conflict": self.ensemble_verdicts.conflict,
        }
        if self.partitioned:
            counts["events_broadcast"] = self.events_broadcast
            counts["shards"] = len(self.shards)
            counts.update(self.admission.counters())
            counts["cross_shard_episodes"] = self.merger.cross_shard_episodes
        if self.supervisor is not None:
            breakers = self.breakers.values()
            counts["diagnoses_short_circuited"] = self.diagnoses_short_circuited
            counts["diagnoses_poisoned"] = self.diagnoses_poisoned
            counts["transitions_dead_lettered"] = self.transitions_dead_lettered
            counts["breaker_opened"] = sum(b.times_opened for b in breakers)
            counts["breaker_reclosed"] = sum(b.times_reclosed for b in breakers)
            counts["breaker_short_circuits"] = sum(
                b.short_circuits for b in breakers
            )
            counts["breaker_probes"] = sum(b.probes for b in breakers)
            counts.update(self.supervisor.counters())
            counts["dead_lettered"] = (
                self.supervisor.events_dead_lettered
                + self.transitions_dead_lettered
            )
        return counts

    def ingest_counters(self) -> Dict[str, int]:
        """Summed screening accounting over every ingestor (each event is
        screened exactly once somewhere)."""
        ingestors = [shard.ingestor for shard in self.shards]
        if self.ingestor not in ingestors:
            ingestors.append(self.ingestor)
        totals: Dict[str, int] = {}
        for ingestor in ingestors:
            for key, value in ingestor.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def window_counters(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.window.counters().items():
                if key == "dark_sensors":
                    # Dark sensors broadcast to every shard; summing the
                    # identical copies would over-count a single outage.
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        totals["stale_evictions"] += self.feed.stale_evictions
        return totals

    def detector_counters(self) -> Dict[str, int]:
        counts = {
            "pairs_tracked": sum(
                shard.alarms.pairs_tracked() for shard in self.shards
            ),
            "pairs_alarmed": sum(
                len(shard.alarms.alarmed_pairs()) for shard in self.shards
            ),
        }
        counts.update(self.merger.lifecycle.counters())
        if self.partitioned:
            counts["cross_shard_episodes"] = self.merger.cross_shard_episodes
        return counts

    def stage_seconds(self) -> Dict[str, float]:
        totals = dict(self.seconds)
        for shard in self.shards:
            for key, value in shard.seconds.items():
                totals[key] += value
        return totals

    def shard_stats(self) -> Optional[List[Dict[str, int]]]:
        """Per-shard balance view, ``None`` unless :attr:`partitioned`."""
        if not self.partitioned:
            return None
        return [shard.stats() for shard in self.shards]

    def supervision_stats(self) -> Optional[Dict[str, Any]]:
        """The supervision block for reports and benchmark artifacts,
        ``None`` for an unsupervised engine."""
        if self.supervisor is None:
            return None
        return {
            "counters": self.supervisor.counters(),
            "ticks_to_recover": list(self.supervisor.ticks_to_recover),
            "incidents": list(self.supervisor.incidents),
            "breakers": {
                label: dict(breaker.counters(), state=breaker.state)
                for label, breaker in self.breakers.items()
            },
            "diagnoses_short_circuited": self.diagnoses_short_circuited,
            "diagnoses_poisoned": self.diagnoses_poisoned,
            "transitions_dead_lettered": self.transitions_dead_lettered,
            "dead_letters": len(self.dead_letters),
        }
