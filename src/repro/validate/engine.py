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

Every decision is counted on the validator's
:class:`~repro.validate.report.ValidationReport` and, when one is
attached, eagerly on the run's
:class:`~repro.faults.DegradationReport` — the totals travel the
batch path (``RunnerStats.degradation``) and surface in
``-- runner stats``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.core.pathset import PathStore, ProbePath
from repro.errors import MeasurementError, ValidationError
from repro.faults import DegradationReport
from repro.validate.invariants import (
    LG_PATH,
    TRACE_EPOCH,
    Violation,
    check_feed,
    check_lg_path,
    check_probe_path,
    check_rounds,
)
from repro.validate.repair import repair_feed, repair_probe_path
from repro.validate.report import ValidationReport

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
        self.degradation = degradation
        self.report = ValidationReport(policy)

    # ---- shared bookkeeping

    def _found(self, violations: Sequence[Violation]) -> None:
        """Record detections (and raise, under strict)."""
        self.report.record_violations(violations)
        if self.degradation is not None:
            self.degradation.invariant_violations += len(violations)
        if self.policy == STRICT and violations:
            first = violations[0]
            raise ValidationError(first.invariant, first.record, first.detail)

    # ---- probe paths / measurement rounds

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
            violations = check_probe_path(path, asn_of, expected_epoch)
            if not violations:
                kept.append(path)
                continue
            self._found(violations)
            changed = True
            stale = any(v.invariant == TRACE_EPOCH for v in violations)
            if stale:
                # No sound repair for a record from the wrong epoch:
                # quarantined under every non-strict policy.
                self.report.stale_rounds_dropped += 1
                self.report.record_quarantine(TRACE_EPOCH)
                if self.degradation is not None:
                    self.degradation.stale_rounds_dropped += 1
                    self.degradation.note("stale measurement round detected")
                continue
            if self.policy == REPAIR:
                repaired, fixups = repair_probe_path(path, asn_of)
                self.report.traces_repaired += 1
                for fixup in fixups:
                    self.report.record_repair(fixup)
                if self.degradation is not None:
                    self.degradation.traces_repaired += 1
                kept.append(repaired)
            else:
                self.report.traces_quarantined += 1
                self.report.record_quarantine(violations[0].invariant)
                if self.degradation is not None:
                    self.degradation.traces_quarantined += 1
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
        if self.degradation is not None:
            self.degradation.pairs_discarded += discarded
        return new_before, new_after

    # ---- control-plane feed streams

    def screen_feed(self, messages: Sequence, kind: str) -> Tuple:
        """Screen one feed stream (IGP link-downs or BGP withdrawals)."""
        violations = check_feed(messages, kind)
        if not violations:
            return tuple(messages)
        self._found(violations)
        if self.policy == REPAIR:
            repaired, fixups = repair_feed(messages)
            affected = len(violations)
            self.report.feed_messages_repaired += affected
            for fixup in fixups:
                self.report.record_repair(fixup)
            if self.degradation is not None:
                self.degradation.feed_messages_repaired += affected
            return repaired
        kept = []
        seen = set()
        highest = None
        dropped = 0
        for message in messages:
            seq = getattr(message, "seq", -1)
            sequenced = seq is not None and seq >= 0
            if message in seen or (
                sequenced and highest is not None and seq < highest
            ):
                dropped += 1
                continue
            seen.add(message)
            if sequenced:
                highest = seq
            kept.append(message)
        self.report.feed_messages_quarantined += dropped
        for violation in violations:
            self.report.record_quarantine(violation.invariant)
        if self.degradation is not None:
            self.degradation.feed_messages_quarantined += dropped
        return tuple(kept)

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
        self.report.lg_paths_quarantined += 1
        self.report.record_quarantine(LG_PATH)
        if self.degradation is not None:
            self.degradation.lg_paths_quarantined += 1
        return None
