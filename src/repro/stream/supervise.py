"""Self-healing supervision for the streaming engine.

A service meant to run for months will lose shards: processes crash,
GC pauses stall them, a hot shard falls behind.  This module is the
recovery layer that turns those failures from silent wrong answers into
*accounted degradation*:

* :class:`ShardSupervisor` tracks per-shard liveness on the logical
  clock.  Failures are injected deterministically by the chaos modes of
  :class:`~repro.faults.FaultPlan` (``shard-crash``, ``shard-stall``,
  ``slow-shard``) — each decision hashes ``(seed, mode, shard, tick)``,
  so a chaos run is bit-identical across replays and identical whether
  shards are drained serially or in parallel.
* While a shard is **dark**, its events are buffered (bounded; overflow
  goes to the dead-letter queue, never the floor), and the merger is fed
  the shard's last-known alarmed set — the *stale-alarm hold* that stops
  an episode flapping closed just because its shard stopped reporting.
  Coverage loss is counted (``pairs_uncovered``, ``episodes_delayed``),
  never hidden.
* On restart the shard is wiped (that is what a crash *is*), restored
  from its latest :class:`~repro.stream.checkpoint.CheckpointStore`
  snapshot, and replayed the tail of events folded since that snapshot
  plus the darkness buffer — re-screened through the same ingestor, so
  counters land on exactly the totals an undisturbed run reports.
* :class:`CircuitBreaker` guards each diagnosis variant: repeated hard
  failures (worker timeout/poison, queue overflow, pool loss) open the
  breaker, opened work is short-circuited to an accounted empty verdict,
  and after a cooldown a single half-open probe decides whether to
  re-close.  All timing is logical ticks — deterministic.
* :class:`DeadLetterQueue` journals poison episodes and overflowed
  events as replayable JSON lines (``repro-dlq-v1``) with provenance:
  what, why, which shard, which tick.  ``python -m repro stream --dlq``
  inspects it.

:class:`~repro.stream.engine.StreamEngine` turns this layer on when it
is given any of its collaborators (a chaos plan, a
:class:`SupervisionConfig`, a checkpoint store or a dead-letter queue);
without them it builds no supervisor and no breakers.

**Determinism contract.**  Supervised replay with a seeded chaos plan is
a pure function of (event log, config, seed): every crash/stall/poison
decision, every recovery, every dead-letter entry reproduces exactly.
When a crash's darkness fits inside the episode debounce window, the
recovered run's final verdicts are *byte-identical* to an undisturbed
run; otherwise the difference is exactly the accounted degraded items.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import StreamError, SupervisionError
from repro.faults import FaultPlan
from repro.stream.checkpoint import CheckpointStore
from repro.stream.episodes import EpisodeTransition
from repro.stream.events import StreamEvent, stream_event_to_dict
from repro.stream.router import StreamShard

__all__ = [
    "DLQ_FORMAT",
    "SupervisionConfig",
    "CircuitBreaker",
    "DeadLetterQueue",
    "load_dead_letters",
    "ShardSupervisor",
]

logger = logging.getLogger(__name__)

Pair = Tuple[str, str]

DLQ_FORMAT = "repro-dlq-v1"

# Shard liveness states.
RUNNING = "running"
CRASHED = "crashed"
STALLED = "stalled"

# Breaker states.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

# Diagnosis error names the breaker treats as hard infrastructure
# failures (as opposed to a diagnoser legitimately declining a window).
HARD_FAILURES = frozenset(
    {"JobTimeoutError", "EpisodeOverflowError", "BrokenProcessPool"}
)


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables of the supervision layer, all in logical ticks.

    ``checkpoint_every``: healthy shards snapshot every N ticks;
    ``restart_after``: ticks a crashed shard stays dark before restart;
    ``buffer_limit``: max events buffered per dark shard (beyond goes to
    the dead-letter queue); ``breaker_threshold``: consecutive hard
    failures that open a variant's breaker; ``breaker_cooldown``: ticks
    an open breaker waits before its half-open probe;
    ``episode_strikes``: hard-failed diagnoses after which an episode's
    further transitions are dead-lettered instead of re-queued.
    """

    checkpoint_every: int = 2
    restart_after: int = 1
    buffer_limit: int = 4096
    breaker_threshold: int = 3
    breaker_cooldown: int = 4
    episode_strikes: int = 2

    def __post_init__(self) -> None:
        for name in (
            "checkpoint_every",
            "restart_after",
            "breaker_threshold",
            "breaker_cooldown",
            "episode_strikes",
        ):
            if getattr(self, name) < 1:
                raise StreamError(
                    f"supervision {name} must be >= 1, got {getattr(self, name)}"
                )
        if self.buffer_limit < 0:
            raise StreamError(
                f"supervision buffer_limit must be >= 0, got {self.buffer_limit}"
            )


class CircuitBreaker:
    """A circuit breaker on the logical clock.

    CLOSED admits everything and counts consecutive hard failures;
    ``threshold`` of them in a row OPEN the breaker.  OPEN short-circuits
    every request until ``cooldown`` ticks have passed, then admits one
    HALF_OPEN probe: success re-closes, failure re-opens and restarts
    the cooldown.  No wall clock anywhere, so a replayed chaos schedule
    trips and recovers the breaker at exactly the same ticks every run.
    """

    def __init__(self, threshold: int = 3, cooldown: int = 4) -> None:
        if threshold < 1 or cooldown < 1:
            raise StreamError(
                "breaker threshold and cooldown must be >= 1 "
                f"(threshold={threshold}, cooldown={cooldown})"
            )
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[int] = None
        self._probe_pending = False
        self.times_opened = 0
        self.times_reclosed = 0
        self.short_circuits = 0
        self.probes = 0

    def allow(self, tick: int) -> bool:
        """May a request proceed at ``tick``?  False means short-circuit."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if (
                self._opened_at is not None
                and tick - self._opened_at >= self.cooldown
            ):
                self.state = BREAKER_HALF_OPEN
                self._probe_pending = True
                self.probes += 1
                return True
            self.short_circuits += 1
            return False
        # HALF_OPEN: one probe in flight at a time.
        if self._probe_pending:
            self.short_circuits += 1
            return False
        self._probe_pending = True
        self.probes += 1
        return True

    def record_success(self) -> None:
        """The admitted request succeeded."""
        self._consecutive_failures = 0
        self._probe_pending = False
        if self.state != BREAKER_CLOSED:
            self.times_reclosed += 1
        self.state = BREAKER_CLOSED

    def record_failure(self, tick: int) -> None:
        """The admitted request hard-failed at ``tick``."""
        self._consecutive_failures += 1
        self._probe_pending = False
        if self.state == BREAKER_HALF_OPEN or (
            self.state == BREAKER_CLOSED
            and self._consecutive_failures >= self.threshold
        ):
            self.state = BREAKER_OPEN
            self._opened_at = tick
            self._consecutive_failures = 0
            self.times_opened += 1

    def counters(self) -> Dict[str, int]:
        return {
            "times_opened": self.times_opened,
            "times_reclosed": self.times_reclosed,
            "short_circuits": self.short_circuits,
            "probes": self.probes,
        }


class DeadLetterQueue:
    """Journalled parking lot for work the service refuses to retry.

    Two kinds of entries: **events** a dark shard's buffer could not
    hold, and **episode transitions** whose diagnoses kept hard-failing
    past the strike limit.  Each entry carries replayable provenance —
    the serialised payload, the reason, the owning shard, the tick — as
    one JSON line in the :class:`~repro.stream.events.EventLogWriter`
    style (flushed per line, torn tail dropped on load).  ``path=None``
    keeps entries in memory only.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: List[Dict[str, Any]] = []
        self._handle = None
        if self.path is not None:
            self._handle = open(self.path, "w")
            self._handle.write(json.dumps({"format": DLQ_FORMAT}) + "\n")
            self._handle.flush()

    def _put(self, entry: Dict[str, Any]) -> None:
        self.entries.append(entry)
        if self._handle is not None:
            self._handle.write(json.dumps(entry) + "\n")
            self._handle.flush()

    def put_event(
        self,
        event: StreamEvent,
        reason: str,
        shard: Optional[int] = None,
    ) -> None:
        """Dead-letter one stream event (replayable via its dict form)."""
        self._put(
            {
                "kind": "event",
                "reason": reason,
                "shard": shard,
                "tick": event.tick,
                "event": stream_event_to_dict(event),
            }
        )

    def put_episode(
        self,
        transition: EpisodeTransition,
        reason: str,
        shard: Optional[int] = None,
    ) -> None:
        """Dead-letter one episode transition with its alarmed pairs."""
        self._put(
            {
                "kind": "episode",
                "reason": reason,
                "shard": shard,
                "tick": transition.tick,
                "episode_id": transition.episode_id,
                "transition": transition.kind,
                "pairs": [list(pair) for pair in transition.pairs],
            }
        )

    def __len__(self) -> int:
        return len(self.entries)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def load_dead_letters(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a dead-letter journal; torn trailing line dropped, like the
    event log."""
    path = Path(path)
    entries: List[Dict[str, Any]] = []
    with open(path, "r") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise SupervisionError(
                f"{path} is not a dead-letter journal (bad header)"
            )
        if not isinstance(header, dict) or header.get("format") != DLQ_FORMAT:
            raise SupervisionError(
                f"{path} is not a {DLQ_FORMAT} journal "
                f"(header {header_line.strip()!r})"
            )
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                logger.warning(
                    "dead-letter journal %s has a truncated trailing line "
                    "(%d); dropping it",
                    path, line_no,
                )
                break
    return entries


class ShardSupervisor:
    """Liveness tracking, darkness buffering and checkpointed restart.

    The supervisor is driven from the engine's tick loop: ``begin_tick``
    (before the merge) restarts shards whose darkness has run its
    course, ``end_tick`` (after the merge) rolls the chaos dice for the
    next tick and checkpoints healthy shards.  Both run on the logical
    clock, so every decision replays.

    Crash semantics: the failure is *detected* at the end of the tick it
    fires on; the shard then serves its last-known (stale) window and
    alarm view to the merger — accounted via ``pairs_uncovered`` — while
    new events for it are buffered.  At restart the shard state is wiped
    (``StreamShard.reset``), the latest checkpoint restored, and the
    post-checkpoint tail plus the darkness buffer replayed through the
    normal screening path, which provably reconstructs the undisturbed
    state (the chaos tests assert byte-identical final verdicts).
    """

    def __init__(
        self,
        shards: Sequence[StreamShard],
        config: Optional[SupervisionConfig] = None,
        plan: Optional[FaultPlan] = None,
        checkpoints: Optional[CheckpointStore] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        self.shards = list(shards)
        self.config = config or SupervisionConfig()
        self.plan = plan
        self.checkpoints = checkpoints or CheckpointStore()
        self.dead_letters = dead_letters
        n = len(self.shards)
        self._status = [RUNNING] * n
        self._darkened_at: List[Optional[int]] = [None] * n
        self._stall_ticks = [0] * n
        # Events folded into each shard since its last checkpoint, as
        # ("pair", raw_event) / ("bcast", screened_event) entries — the
        # replay tail a restart needs on top of the checkpoint.
        self._tails: List[List[Tuple[str, StreamEvent]]] = [[] for _ in range(n)]
        # Events offered to a shard while it was dark.
        self._buffers: List[List[Tuple[str, StreamEvent]]] = [[] for _ in range(n)]
        # Last-known alarmed set per shard: what the merger sees while
        # the shard is dark or late.
        self._hold: List[Tuple[Pair, ...]] = [() for _ in range(n)]
        # accounting
        self.shard_crashes = 0
        self.shard_stalls = 0
        self.slow_ticks = 0
        self.recoveries = 0
        self.ticks_dark = 0
        self.events_buffered = 0
        self.events_dead_lettered = 0
        self.pairs_uncovered = 0
        self.episodes_delayed = 0
        self.ticks_to_recover: List[int] = []
        self.incidents: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- liveness

    def is_dark(self, shard_index: int) -> bool:
        return self._status[shard_index] != RUNNING

    def status(self, shard_index: int) -> str:
        return self._status[shard_index]

    # --------------------------------------------------------------- intake

    def record_tail(
        self, shard_index: int, kind: str, event: StreamEvent
    ) -> None:
        """Note one event folded into a live shard (replay tail)."""
        self._tails[shard_index].append((kind, event))

    def buffer_event(
        self, shard_index: int, kind: str, event: StreamEvent
    ) -> None:
        """Hold one event for a dark shard, or dead-letter it when the
        buffer is full — bounded memory, accounted loss."""
        buffer = self._buffers[shard_index]
        if len(buffer) >= self.config.buffer_limit:
            self.events_dead_lettered += 1
            if self.dead_letters is not None:
                self.dead_letters.put_event(
                    event, reason="dark-shard-buffer-overflow", shard=shard_index
                )
            return
        buffer.append((kind, event))
        self.events_buffered += 1

    # ---------------------------------------------------------------- merge

    def alarm_view(self, shard_index: int, tick: int) -> Tuple[Pair, ...]:
        """The alarmed set the merger should use for this shard now.

        Dark shard: the stale hold (so an open episode does not flap
        closed during an outage).  Slow shard (chaos mode): last tick's
        view, one tick late.  Healthy shard: the live set, which also
        refreshes the hold.
        """
        if self.is_dark(shard_index):
            self.ticks_dark += 1
            return self._hold[shard_index]
        if (
            self.plan is not None
            and self.plan.shard_slow(shard_index, tick)
        ):
            self.slow_ticks += 1
            return self._hold[shard_index]
        live = self.shards[shard_index].alarms.alarmed_pairs()
        self._hold[shard_index] = live
        return live

    # ---------------------------------------------------------------- ticks

    def begin_tick(self, tick: int) -> int:
        """Restart every shard whose darkness is due to end at ``tick``.

        Returns the number of newly admitted pair events from darkness
        buffers — the engine adds them to its admission total (they were
        offered while dark and only now folded)."""
        admitted = 0
        for index, status in enumerate(self._status):
            if status == RUNNING:
                continue
            darkened_at = self._darkened_at[index]
            assert darkened_at is not None
            dark_for = tick - darkened_at
            if status == CRASHED and dark_for < self.config.restart_after:
                continue
            if status == STALLED and dark_for < self._stall_ticks[index]:
                continue
            admitted += self._recover(index, tick)
        return admitted

    def force_recover(self, tick: int) -> int:
        """Recover every dark shard now (end-of-stream flush)."""
        admitted = 0
        for index, status in enumerate(self._status):
            if status != RUNNING:
                admitted += self._recover(index, tick)
        return admitted

    def _recover(self, shard_index: int, tick: int) -> int:
        shard = self.shards[shard_index]
        status = self._status[shard_index]
        if status == CRASHED:
            # The restarted process has nothing: wipe, restore the last
            # checkpoint, replay the post-checkpoint tail through the
            # normal screening path.
            shard.reset()
            checkpoint = self.checkpoints.latest(shard_index)
            if checkpoint is not None:
                shard.restore_state(checkpoint.state)
            for kind, event in self._tails[shard_index]:
                self._refold(shard, kind, event)
        # Both crash and stall recovery then fold the darkness buffer.
        alarmed_before = set(shard.alarms.alarmed_pairs())
        admitted = 0
        for kind, event in self._buffers[shard_index]:
            if self._refold(shard, kind, event) and kind == "pair":
                admitted += 1
        alarmed_after = set(shard.alarms.alarmed_pairs())
        self.episodes_delayed += len(alarmed_after - alarmed_before)
        # Buffered events are now part of the shard's post-checkpoint
        # history: a second crash before the next checkpoint must replay
        # them again.
        self._tails[shard_index].extend(self._buffers[shard_index])
        self._buffers[shard_index] = []
        darkened_at = self._darkened_at[shard_index]
        if darkened_at is not None:
            self.ticks_to_recover.append(tick - darkened_at)
        self._status[shard_index] = RUNNING
        self._darkened_at[shard_index] = None
        self._stall_ticks[shard_index] = 0
        self._hold[shard_index] = shard.alarms.alarmed_pairs()
        self.recoveries += 1
        logger.info(
            "shard %d recovered at tick %d (%s, %d buffered events replayed)",
            shard_index, tick, status, admitted,
        )
        return admitted

    @staticmethod
    def _refold(shard: StreamShard, kind: str, event: StreamEvent) -> bool:
        if kind == "pair":
            return shard.offer(event)
        shard.observe_broadcast(event)
        return True

    def end_tick(self, tick: int) -> None:
        """Roll the chaos dice for running shards, then checkpoint the
        healthy ones.  Crash takes precedence over stall when both fire
        on the same tick (losing state dominates pausing)."""
        if self.plan is not None:
            for index, status in enumerate(self._status):
                if status != RUNNING:
                    continue
                shard = self.shards[index]
                if self.plan.shard_crashes(index, tick):
                    self._status[index] = CRASHED
                    self._darkened_at[index] = tick
                    self.shard_crashes += 1
                    self.pairs_uncovered += shard.alarms.pairs_tracked()
                    self.incidents.append(
                        {"kind": "shard-crash", "shard": index, "tick": tick}
                    )
                    logger.warning("shard %d crashed at tick %d", index, tick)
                    continue
                stall = self.plan.shard_stall_ticks(index, tick)
                if stall > 0:
                    self._status[index] = STALLED
                    self._darkened_at[index] = tick
                    self._stall_ticks[index] = stall
                    self.shard_stalls += 1
                    self.pairs_uncovered += shard.alarms.pairs_tracked()
                    self.incidents.append(
                        {
                            "kind": "shard-stall",
                            "shard": index,
                            "tick": tick,
                            "ticks": stall,
                        }
                    )
                    logger.warning(
                        "shard %d stalled for %d ticks at tick %d",
                        index, stall, tick,
                    )
        if tick > 0 and tick % self.config.checkpoint_every == 0:
            for index, status in enumerate(self._status):
                if status != RUNNING:
                    continue
                self.checkpoints.save(
                    index, tick, self.shards[index].state()
                )
                # Everything in the tail is inside the checkpoint now.
                self._tails[index] = []

    # ------------------------------------------------------------- counters

    def counters(self) -> Dict[str, int]:
        counts = {
            "shard_crashes": self.shard_crashes,
            "shard_stalls": self.shard_stalls,
            "slow_ticks": self.slow_ticks,
            "recoveries": self.recoveries,
            "ticks_dark": self.ticks_dark,
            "events_buffered": self.events_buffered,
            "events_dead_lettered": self.events_dead_lettered,
            "pairs_uncovered": self.pairs_uncovered,
            "episodes_delayed": self.episodes_delayed,
        }
        counts.update(self.checkpoints.counters())
        return counts
