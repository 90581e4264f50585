"""The validation policy engine: strict, repair, or quarantine.

A :class:`Validator` is created per diagnosis run and threaded through
the collector seams (snapshot assembly, control-plane feed, LG lookups).
Every screened record either passes, is canonically repaired, or is
dropped — according to one policy for the whole run:

* ``strict`` — raise a typed :class:`~repro.errors.ValidationError`
  naming the record and the invariant.  For CI and for debugging a
  corrupted archive: no lying record gets past the front door.
* ``repair`` — apply the canonical fixups of
  :mod:`repro.validate.repair`; records whose violation has no sound
  repair (a stale epoch tag, an LG answer from the wrong table) are
  quarantined instead.
* ``quarantine`` — drop every offending record and diagnose
  best-effort on what remains, like PR 3's omission handling.

Every decision is counted once, on the validator's
:class:`~repro.faults.DegradationReport` — the run's own when one is
given, else a fresh one — and that report travels the batch path
(``RunnerStats.degradation``) and surfaces in ``-- runner stats``.
``traces_quarantined`` and ``stale_rounds_dropped`` are disjoint: a
stale-epoch record counts only in the latter, so summed counters account
for each dropped record exactly once.

Probe paths are screened one at a time by :meth:`Validator.screen_path`
and control-plane feeds through a :class:`~repro.validate.invariants.FeedScan`
— a whole feed at once by :meth:`Validator.screen_feed`, message by
message by :meth:`Validator.screen_message` — so the batch collector and
the stream ingestor share one screening path.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.pathset import PathStore, ProbePath
from repro.errors import MeasurementError, ValidationError
from repro.faults import DegradationReport
from repro.validate.invariants import (
    TRACE_EPOCH,
    FeedScan,
    Violation,
    check_lg_path,
    check_probe_path,
    check_rounds,
)
from repro.validate.repair import repair_feed, repair_probe_path

__all__ = ["STRICT", "REPAIR", "QUARANTINE", "POLICIES", "Validator"]

STRICT = "strict"
REPAIR = "repair"
QUARANTINE = "quarantine"
POLICIES = (STRICT, REPAIR, QUARANTINE)


class Validator:
    """Screens diagnosis inputs under one policy, with full accounting."""

    def __init__(
        self,
        policy: str = QUARANTINE,
        degradation: Optional[DegradationReport] = None,
    ) -> None:
        if policy not in POLICIES:
            raise MeasurementError(
                f"unknown validation policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        self.policy = policy
        self.degradation = (
            degradation if degradation is not None else DegradationReport()
        )

    # ---- shared bookkeeping

    def _found(self, violations: Sequence[Violation]) -> None:
        """Record detections (and raise, under strict)."""
        self.degradation.invariant_violations += len(violations)
        if self.policy == STRICT and violations:
            first = violations[0]
            raise ValidationError(first.invariant, first.record, first.detail)

    # ---- probe paths / measurement rounds

    def screen_path(
        self,
        path: ProbePath,
        asn_of: Callable[[str], Optional[int]],
        expected_epoch: str,
    ) -> Optional[ProbePath]:
        """Screen one probe path.

        Returns the path itself when it is clean, its canonical repair
        under ``repair``, or ``None`` when it is quarantined.
        """
        violations = check_probe_path(path, asn_of, expected_epoch)
        if not violations:
            return path
        self._found(violations)
        report = self.degradation
        if any(v.invariant == TRACE_EPOCH for v in violations):
            # No sound repair for a record from the wrong epoch:
            # quarantined under every non-strict policy.
            report.stale_rounds_dropped += 1
            report.note("stale measurement round detected")
            return None
        if self.policy == REPAIR:
            report.traces_repaired += 1
            return repair_probe_path(path, asn_of)[0]
        report.traces_quarantined += 1
        return None

    def screen_store(
        self,
        store: PathStore,
        asn_of: Callable[[str], Optional[int]],
        expected_epoch: str,
    ) -> PathStore:
        """Screen one measurement round path-by-path.

        Returns the store itself when every path is clean; otherwise a
        new store holding the surviving (possibly repaired) paths.
        """
        kept = []
        changed = False
        for path in store.paths():
            screened = self.screen_path(path, asn_of, expected_epoch)
            if screened is not path:
                changed = True
            if screened is not None:
                kept.append(screened)
        if not changed:
            return store
        rebuilt = PathStore()
        for path in kept:
            rebuilt.add(path)
        return rebuilt

    def screen_rounds(
        self, before: PathStore, after: PathStore
    ) -> Tuple[PathStore, PathStore]:
        """Enforce the cross-round invariants (pair sets, T- baseline).

        Under repair/quarantine the only sound fix is the one the
        collector already applies to omission faults: drop the pair
        from both rounds and count it.
        """
        violations = check_rounds(before, after)
        if not violations:
            return before, after
        self._found(violations)
        bad_pairs = {
            pair
            for pair in before.pairs()
            if not before.get(pair).reached
        }
        new_before, new_after = PathStore(), PathStore()
        for pair in before.pairs():
            if pair in bad_pairs or pair not in after:
                continue
            new_before.add(before.get(pair))
            new_after.add(after.get(pair))
        discarded = len(
            set(before.pairs()) | set(after.pairs())
        ) - len(new_before)
        self.degradation.pairs_discarded += discarded
        return new_before, new_after

    # ---- control-plane feed streams

    def screen_feed(self, messages: Sequence, kind: str) -> Tuple:
        """Screen one whole feed stream (IGP link-downs or BGP
        withdrawals): ``repair`` re-sorts and dedups it, ``quarantine``
        keeps the messages a fresh :class:`FeedScan` passes."""
        scan = FeedScan(kind)
        kept: List = []
        violations: List[Violation] = []
        for message in messages:
            violation = scan.check(message)
            if violation is None:
                kept.append(message)
            else:
                violations.append(violation)
        if not violations:
            return tuple(messages)
        self._found(violations)
        if self.policy == REPAIR:
            self.degradation.feed_messages_repaired += len(violations)
            return repair_feed(messages)[0]
        self.degradation.feed_messages_quarantined += len(violations)
        return tuple(kept)

    def screen_message(self, scan: FeedScan, message) -> bool:
        """Screen the next message of a live feed against its ``scan``.

        A live feed has no whole to re-sort — the messages before this
        one are already consumed — so ``repair`` degrades to
        ``quarantine`` here: dropping the offender *is* the canonical
        incremental fixup.  Returns whether the message passes.
        """
        violation = scan.check(message)
        if violation is None:
            return True
        self._found((violation,))
        self.degradation.feed_messages_quarantined += 1
        return False

    # ---- Looking Glass answers

    def screen_lg_path(
        self,
        asn: int,
        path: Optional[Tuple[int, ...]],
        dst_address: str,
        epoch: str,
    ) -> Optional[Tuple[int, ...]]:
        """Screen one LG answer; a bad path degrades to "no answer".

        There is no sound repair for a stale Looking Glass answer (the
        true current path is simply unknown), so both non-strict
        policies quarantine: to ND-LG the AS looks like one with no
        public Looking Glass — exactly how PR 3 degrades a flaky LG.
        """
        if path is None:
            return None
        violations = check_lg_path(asn, path, dst_address, epoch)
        if not violations:
            return path
        self._found(violations)
        self.degradation.lg_paths_quarantined += 1
        return None
