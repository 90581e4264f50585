"""Asyncio ingest front end: bounded per-tenant queues, fair pumping.

The engine itself is synchronous and deterministic; what a deployment
needs in front of it is an *ingress* that absorbs bursty concurrent
producers without letting one tenant starve the rest.
:class:`StreamServer` is that layer:

* :meth:`submit` enqueues one event onto its tenant's bounded queue —
  a full queue **sheds** the event (counted per tenant, never silent),
  which is the only place the serve layer drops anything;
* :meth:`advance` closes a logical tick: queued events are selected
  **round-robin across tenants** (one event per tenant per turn, tenant
  names in sorted order) up to ``max_events_per_tick``, so a flooding
  tenant can at most claim its fair share of the tick budget;
* the selected events are offered to the engine **sorted by ``seq``** —
  whatever interleaving the async producers arrived in, the engine sees
  the canonical log order, which keeps replay-grade determinism through
  the async boundary.

The fairness/shedding here is queue-level (who gets *scheduled*); the
engine's :class:`~repro.stream.router.AdmissionController` is
rate-level (who gets *admitted* over time).  A deployment typically
wants both.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional

from repro.errors import StreamError
from repro.stream.engine import EpisodeReport
from repro.stream.events import StreamEvent

__all__ = ["StreamServer"]

DEFAULT_TENANT = "default"


class StreamServer:
    """Bounded, tenant-fair asyncio ingress for a stream engine.

    ``engine`` is any engine-protocol object, normally a
    :class:`~repro.stream.engine.StreamEngine`; ``tenant_of``
    maps an event to its tenant name (``None`` → the shared
    ``"default"`` queue); ``queue_depth`` bounds each tenant queue;
    ``max_events_per_tick`` caps how many queued events one
    :meth:`advance` pumps (``None`` = all of them).
    """

    def __init__(
        self,
        engine,
        queue_depth: int = 1024,
        tenant_of: Optional[Callable[[StreamEvent], Optional[str]]] = None,
        max_events_per_tick: Optional[int] = None,
    ) -> None:
        if queue_depth < 1:
            raise StreamError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_events_per_tick is not None and max_events_per_tick < 1:
            raise StreamError(
                f"max_events_per_tick must be >= 1 or None, "
                f"got {max_events_per_tick}"
            )
        self.engine = engine
        self.queue_depth = queue_depth
        self.tenant_of = tenant_of
        self.max_events_per_tick = max_events_per_tick
        self._queues: Dict[str, Deque[StreamEvent]] = {}
        self._tick = 0
        self._closed = False
        self.events_submitted = 0
        self.events_pumped = 0
        self.events_shed = 0
        self.shed_by_tenant: Dict[str, int] = {}

    # ------------------------------------------------------------- intake

    def _tenant(self, event: StreamEvent) -> str:
        if self.tenant_of is None:
            return DEFAULT_TENANT
        return self.tenant_of(event) or DEFAULT_TENANT

    async def submit(self, event: StreamEvent) -> bool:
        """Enqueue one event; ``False`` means its queue was full (shed)."""
        if self._closed:
            raise StreamError("cannot submit to a closed StreamServer")
        self.events_submitted += 1
        tenant = self._tenant(event)
        queue = self._queues.setdefault(tenant, deque())
        if len(queue) >= self.queue_depth:
            self.events_shed += 1
            self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1
            return False
        queue.append(event)
        # Yield so concurrent producers interleave like real ingress.
        await asyncio.sleep(0)
        return True

    # -------------------------------------------------------------- pump

    def _select(self) -> List[StreamEvent]:
        """Round-robin one event per tenant per turn, sorted-name order,
        until the tick budget (or every queue) is exhausted."""
        budget = self.max_events_per_tick
        selected: List[StreamEvent] = []
        while budget is None or len(selected) < budget:
            progressed = False
            for tenant in sorted(self._queues):
                queue = self._queues[tenant]
                if not queue:
                    continue
                selected.append(queue.popleft())
                progressed = True
                if budget is not None and len(selected) >= budget:
                    break
            if not progressed:
                break
        return selected

    async def advance(self, tick: int) -> List[EpisodeReport]:
        """Pump this tick's fair share into the engine and close the tick.

        Selected events are offered in ``seq`` order — the async arrival
        interleaving never reaches the engine, so serve-driven runs stay
        bit-identical to direct replay.
        """
        for event in sorted(self._select(), key=lambda e: e.seq):
            self.engine.offer(event)
            self.events_pumped += 1
        self._tick = max(self._tick, tick)
        self.engine.advance(tick)
        reports = self.engine.drain(tick)
        await asyncio.sleep(0)
        return reports

    @property
    def backlog(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    # ---------------------------------------------------------- shutdown

    async def aclose(self) -> None:
        """Graceful shutdown: drain every tenant queue, retire every
        queued diagnosis, then release the engine's resources.

        Runs grace ticks past the last pumped tick until both the serve
        backlog and the engine's work queue are empty — nothing a
        producer successfully submitted is dropped by stopping — then
        closes the engine (worker pool, dead-letter journal).
        Idempotent: a second close is a no-op.
        """
        if self._closed:
            return
        self._closed = True
        tick = self._tick
        while self.backlog or not self.engine.idle:
            tick += 1
            await self.advance(tick)
            self.engine.flush(tick)
        self.engine.close()

    def close(self) -> None:
        """Synchronous :meth:`aclose` for non-async teardown paths."""
        asyncio.run(self.aclose())

    async def __aenter__(self) -> "StreamServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def run(
        self, events: Iterable[StreamEvent], last_tick: Optional[int] = None
    ) -> List[EpisodeReport]:
        """Convenience driver: submit and advance a whole event log.

        Groups events by tick, pumps each tick in order, then shuts down
        gracefully (grace ticks until the backlog and the engine's queue
        are empty — a tick-budget backlog drains a budget per tick).
        """
        by_tick: Dict[int, List[StreamEvent]] = {}
        for event in events:
            by_tick.setdefault(event.tick, []).append(event)
        final = max(by_tick) if by_tick else 0
        if last_tick is not None:
            final = max(final, last_tick)
        for tick in range(final + 1):
            for event in by_tick.get(tick, []):
                await self.submit(event)
            await self.advance(tick)
        await self.aclose()
        return self.engine.reports

    def counters(self) -> Dict[str, int]:
        return {
            "events_submitted": self.events_submitted,
            "events_pumped": self.events_pumped,
            "events_shed": self.events_shed,
            "tenant_queues": len(self._queues),
        }
