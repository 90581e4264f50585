"""Per-event screening at the stream's front door.

The batch pipeline screens whole rounds at snapshot-assembly time
(:meth:`repro.validate.Validator.screen_store`); a stream cannot wait
for a round to complete.  :class:`StreamIngestor` screens each event the
moment it arrives through the same :class:`~repro.validate.Validator`
steps — a probe path through :meth:`~repro.validate.Validator.screen_path`,
a control-plane message through
:meth:`~repro.validate.Validator.screen_message` against one running
:class:`~repro.validate.FeedScan` per feed kind — so ``strict`` raises
the same :class:`~repro.errors.ValidationError`, ``repair`` applies the
same canonical fixups and ``quarantine`` drops the record, and a
corrupted observation never reaches the window, the episode detector,
or a diagnoser.

A feed message that duplicates an already-screened one, or whose feed
sequence runs backwards per feed kind, is quarantined under ``repair``
too: a stream cannot re-sort history it has already passed on.
Heartbeats, dropouts and bare reachability bits have no invariants to
lie about and always pass.

Each ingestor counts on its own :class:`~repro.faults.DegradationReport`
(:attr:`StreamIngestor.degradation`), checkpointed with its shard; the
engine folds every ingestor's report into the run's once, at end of
stream.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Dict, Optional, Tuple

from repro.errors import StreamError
from repro.faults import DegradationReport
from repro.stream.events import (
    IgpLinkDownEvent,
    ProbeEvent,
    StreamEvent,
    WithdrawalEvent,
)
from repro.validate import POLICIES, FeedScan, Validator

__all__ = ["StreamIngestor"]


class StreamIngestor:
    """Screens stream events one at a time under a validation policy.

    ``asn_of`` is the address→ASN mapper the trace invariants need;
    ``expected_epochs`` the set of epoch tags the stream may carry
    (both ``pre`` and ``post`` are legitimate in a stream — only a tag
    outside the set is a stale replay).
    """

    def __init__(
        self,
        asn_of: Callable[[str], Optional[int]],
        policy: str,
        expected_epochs: Tuple[str, ...],
    ) -> None:
        if policy not in POLICIES:
            raise StreamError(
                f"unknown validation policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        self.asn_of = asn_of
        self.expected_epochs = tuple(expected_epochs)
        self.validator = Validator(policy=policy)
        self.events_screened = 0
        self._feeds = {"igp": FeedScan("igp"), "bgp": FeedScan("bgp")}

    @property
    def policy(self) -> str:
        return self.validator.policy

    @property
    def degradation(self) -> DegradationReport:
        """This ingestor's screening accounting."""
        return self.validator.degradation

    @property
    def events_quarantined(self) -> int:
        report = self.validator.degradation
        return (
            report.traces_quarantined
            + report.stale_rounds_dropped
            + report.feed_messages_quarantined
        )

    @property
    def events_repaired(self) -> int:
        return self.validator.degradation.traces_repaired

    def ingest(self, event: StreamEvent) -> Optional[StreamEvent]:
        """Screen one event.

        Returns the event (possibly with a repaired payload) when it may
        proceed, or ``None`` when it was quarantined.  Under ``strict`` a
        violation raises :class:`~repro.errors.ValidationError`.
        """
        self.events_screened += 1
        if isinstance(event, ProbeEvent):
            path = event.path
            epoch = (
                path.epoch
                if path.epoch in self.expected_epochs
                else self.expected_epochs[-1]
            )
            screened = self.validator.screen_path(path, self.asn_of, epoch)
            if screened is path:
                return event
            if screened is None:
                return None
            return ProbeEvent(tick=event.tick, seq=event.seq, path=screened)
        if isinstance(event, WithdrawalEvent):
            kind = "bgp"
        elif isinstance(event, IgpLinkDownEvent):
            kind = "igp"
        else:
            return event
        if self.validator.screen_message(self._feeds[kind], event.observation):
            return event
        return None

    def counters(self) -> Dict[str, int]:
        """Ingest accounting for the stream report."""
        return {
            "events_screened": self.events_screened,
            "events_quarantined": self.events_quarantined,
            "events_repaired": self.events_repaired,
        }

    # -------------------------------------------------------- checkpointing

    def state(self) -> Dict[str, object]:
        """A picklable snapshot of the screening state for checkpoints.

        Captures the screened count, the per-feed scans and a copy of
        this ingestor's degradation report — everything a recovered
        shard needs so re-screening its replayed tail lands on the same
        totals as an uninterrupted run.  The report holds counters only,
        so its copy does not grow with the stream.
        """
        return {
            "events_screened": self.events_screened,
            "feeds": _copy_feeds(self._feeds),
            "degradation": copy.deepcopy(self.validator.degradation),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the screening state from a :meth:`state` snapshot."""
        self.events_screened = state["events_screened"]
        self._feeds = _copy_feeds(state["feeds"])
        self.validator.degradation = copy.deepcopy(state["degradation"])


def _copy_feeds(feeds: Dict[str, FeedScan]) -> Dict[str, FeedScan]:
    return {
        kind: replace(scan, seen=set(scan.seen)) for kind, scan in feeds.items()
    }
