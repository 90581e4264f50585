"""Sliding-window reconciliation of a stream into diagnosable snapshots.

The batch pipeline hands the diagnosers a complete
:class:`~repro.core.pathset.MeasurementSnapshot` — a ``T-`` round, a
``T+`` round, same pairs, every baseline reached.  A stream never has
that luxury: probes trickle in per-pair, control-plane messages arrive
between them, and sensors disappear mid-round.  :class:`SlidingWindow`
keeps exactly enough state to reconstruct the batch shape on demand:

* a **baseline slot** per pair — the most recent *reached* ``pre``-epoch
  probe (a working path the troubleshooter can compare against);
* a **current slot** per pair — the most recent ``post``-epoch probe
  (the live measurement being diagnosed);
* the set of dark sensors (dropout seen, no heartbeat since): their
  pairs are excluded from snapshots because neither slot can be trusted.

Both probe slots live in :class:`~repro.netsim.cache.LruCache` maps, so
window memory is bounded two ways: by recency (``evict`` drops
observations older than ``width`` ticks) and by capacity (the LRU cap
sheds the coldest pairs first when the mesh outgrows memory).

The in-window control-plane observations (BGP withdrawals, IGP
link-downs) are not per-pair: :class:`ControlFeed` holds them once per
engine, however many shard windows the pairs are spread over.

:func:`assemble_snapshot` is the one snapshot assembly: it takes the
union of the windows' usable pairs — exactly the pairs for which some
window holds a usable before/after story — in sorted pair order, which
satisfies :class:`~repro.core.pathset.MeasurementSnapshot`'s invariants
by construction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.control_plane import (
    ControlPlaneView,
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    PathStore,
    ProbePath,
)
from repro.errors import StreamError
from repro.netsim.cache import LruCache
from repro.stream.events import (
    IgpLinkDownEvent,
    ProbeEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEvent,
    WithdrawalEvent,
)

__all__ = ["SlidingWindow", "ControlFeed", "assemble_snapshot"]

Pair = Tuple[str, str]


class SlidingWindow:
    """Bounded per-pair observation state for the streaming engine.

    ``width`` is the window in logical ticks: an observation older than
    ``now - width`` is stale and evicted.  ``capacity`` bounds each probe
    slot map (0 = unbounded, like every :class:`LruCache`).
    """

    def __init__(self, width: int, capacity: int = 0) -> None:
        if width <= 0:
            raise StreamError(f"window width must be >= 1 tick, got {width}")
        self.width = width
        # pair -> (tick, ProbePath); baseline keeps reached pre-probes,
        # current keeps post-probes (reached or not).
        self._baseline: LruCache[Pair, Tuple[int, ProbePath]] = LruCache(capacity)
        self._current: LruCache[Pair, Tuple[int, ProbePath]] = LruCache(capacity)
        self._dark_sensors: Set[str] = set()
        self.stale_evictions = 0
        self.probes_ignored = 0

    # ------------------------------------------------------------- updates

    def observe(self, event: StreamEvent) -> None:
        """Fold one (already screened) event into the window."""
        if isinstance(event, ProbeEvent):
            self._observe_probe(event)
        elif isinstance(event, SensorDropoutEvent):
            self._dark_sensors.add(event.address)
        elif isinstance(event, SensorHeartbeatEvent):
            self._dark_sensors.discard(event.address)
        # ReachabilityEvents update episode detection, not the window:
        # they carry no hops to diagnose with.  Control-plane messages
        # belong to the engine's ControlFeed.

    def _observe_probe(self, event: ProbeEvent) -> None:
        path = event.path
        if path.epoch == EPOCH_PRE:
            if not path.reached:
                # A failed pre-probe is no baseline: the troubleshooter
                # is only invoked on previously-working pairs.
                self.probes_ignored += 1
                return
            self._baseline.put(path.pair, (event.tick, path))
        elif path.epoch == EPOCH_POST:
            self._current.put(path.pair, (event.tick, path))
        else:  # pragma: no cover - ingest screens unknown epochs out
            self.probes_ignored += 1

    # ------------------------------------------------------------ eviction

    def evict(self, now: int) -> int:
        """Drop every observation older than ``now - width``; returns count."""
        horizon = now - self.width
        dropped = 0
        for cache in (self._baseline, self._current):
            for pair, (tick, _path) in cache.items():
                if tick <= horizon:
                    cache.pop(pair)
                    dropped += 1
        self.stale_evictions += dropped
        return dropped

    # ------------------------------------------------------------ assembly

    def usable_pairs(self) -> Tuple[Pair, ...]:
        """Pairs with both slots live and no dark endpoint, sorted."""
        pairs = []
        for pair, _entry in self._current.items():
            if pair not in self._baseline:
                continue
            src, dst = pair
            if src in self._dark_sensors or dst in self._dark_sensors:
                continue
            pairs.append(pair)
        return tuple(sorted(pairs))

    def baseline_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live baseline slot for ``pair`` (counts as a lookup)."""
        return self._baseline.get(pair)

    def current_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live current slot for ``pair`` (counts as a lookup)."""
        return self._current.get(pair)

    # -------------------------------------------------------- checkpointing

    def state(self) -> Dict[str, object]:
        """A picklable snapshot of the window for shard checkpoints.

        Probe slots are captured in LRU order (``LruCache.items`` is
        LRU-first), so :meth:`restore_state`'s re-inserts rebuild the
        exact recency order — a restored window sheds the same cold
        pairs a never-crashed one would.
        """
        return {
            "baseline": self._baseline.items(),
            "current": self._current.items(),
            "dark_sensors": sorted(self._dark_sensors),
            "stale_evictions": self.stale_evictions,
            "probes_ignored": self.probes_ignored,
            "lru_counters": tuple(
                (cache.hits, cache.misses, cache.evictions)
                for cache in (self._baseline, self._current)
            ),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the window from a :meth:`state` snapshot."""
        for cache, key in (
            (self._baseline, "baseline"),
            (self._current, "current"),
        ):
            cache.clear()
            for pair, entry in state[key]:
                cache.put(pair, entry)
        self._dark_sensors = set(state["dark_sensors"])
        self.stale_evictions = state["stale_evictions"]
        self.probes_ignored = state["probes_ignored"]
        for cache, counters in zip(
            (self._baseline, self._current), state["lru_counters"]
        ):
            cache.hits, cache.misses, cache.evictions = counters

    # ---------------------------------------------------------- inspection

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Usable pairs whose current probe did not reach."""
        return tuple(
            pair
            for pair in self.usable_pairs()
            if not self._current.get(pair)[1].reached
        )

    def dark_sensors(self) -> Tuple[str, ...]:
        return tuple(sorted(self._dark_sensors))

    def counters(self) -> Dict[str, int]:
        """Window accounting for the stream report."""
        return {
            "baseline_pairs": len(self._baseline),
            "current_pairs": len(self._current),
            "stale_evictions": self.stale_evictions,
            "probes_ignored": self.probes_ignored,
            "lru_evictions": self._baseline.evictions + self._current.evictions,
            "dark_sensors": len(self._dark_sensors),
        }


class ControlFeed:
    """The in-window control-plane feed: BGP withdrawals and IGP link-downs.

    Control-plane messages are screened once, at the engine's front
    door, and are not per-pair, so one feed per engine holds them however
    many shards the pairs are spread over.  Entries age out on the same
    ``width`` as the shard windows; each eviction is counted once.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise StreamError(f"window width must be >= 1 tick, got {width}")
        self.width = width
        # (tick, arrival seq, observation), kept so the view can list
        # messages in arrival order exactly as the batch collector would.
        self._withdrawals: List[Tuple[int, int, WithdrawalObservation]] = []
        self._igp_downs: List[Tuple[int, int, IgpLinkDownObservation]] = []
        self.stale_evictions = 0

    def observe(self, event: StreamEvent) -> None:
        """Keep one (already screened) control-plane event; others pass."""
        if isinstance(event, WithdrawalEvent):
            self._withdrawals.append((event.tick, event.seq, event.observation))
        elif isinstance(event, IgpLinkDownEvent):
            self._igp_downs.append((event.tick, event.seq, event.observation))

    def evict(self, now: int) -> int:
        """Drop every message older than ``now - width``; returns count."""
        horizon = now - self.width
        dropped = 0
        for name in ("_withdrawals", "_igp_downs"):
            entries = getattr(self, name)
            kept = [entry for entry in entries if entry[0] > horizon]
            dropped += len(entries) - len(kept)
            setattr(self, name, kept)
        self.stale_evictions += dropped
        return dropped

    def view(self, asx_asn: int) -> ControlPlaneView:
        """The in-window control-plane knowledge, in arrival order."""
        return ControlPlaneView(
            asx_asn=asx_asn,
            igp_link_down=tuple(
                obs for _tick, _seq, obs in sorted(
                    self._igp_downs, key=lambda entry: entry[1]
                )
            ),
            withdrawals=tuple(
                obs for _tick, _seq, obs in sorted(
                    self._withdrawals, key=lambda entry: entry[1]
                )
            ),
        )


def assemble_snapshot(
    windows: Sequence[SlidingWindow],
    asn_of: Callable[[str], Optional[int]],
) -> Optional[MeasurementSnapshot]:
    """The batch-shaped snapshot of the windows' current knowledge.

    Covers every pair with both a live baseline and a live current probe
    and no dark endpoint; ``None`` when no pair qualifies.  The router
    sends each pair's probes to exactly one shard, so the windows'
    usable pairs are disjoint and their union, in sorted pair order, is
    what a single window over the whole stream would hold.  The
    invariants :class:`MeasurementSnapshot` enforces (same pairs both
    rounds, all baselines reached) hold by construction.
    """
    owned = sorted(
        ((pair, window) for window in windows for pair in window.usable_pairs()),
        key=lambda item: item[0],
    )
    if not owned:
        return None
    before, after = PathStore(), PathStore()
    for pair, window in owned:
        before.add(window.baseline_for(pair)[1])
        after.add(window.current_for(pair)[1])
    return MeasurementSnapshot(before=before, after=after, asn_of=asn_of)
