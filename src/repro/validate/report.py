"""Per-run accounting of what validation detected and did about it.

Mirrors the design of :class:`~repro.faults.DegradationReport`: screening
is only trustworthy when it is legible.  The report keeps the full
violation list plus per-invariant fixup/quarantine counters for one
run; the :class:`~repro.validate.engine.Validator` additionally adds
the totals onto the run's degradation report as it screens, and that
report, not this one, is what batch accounting merges
(``PlacementStats.degradation`` → ``RunnerStats.degradation`` →
``-- runner stats``).  ``traces_quarantined`` and
``stale_rounds_dropped`` are disjoint: a stale-epoch record counts only
in the latter, so summed counters account for each dropped record
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.validate.invariants import Violation

__all__ = ["ValidationReport"]


@dataclass
class ValidationReport:
    """What one run's input screening found under one policy.

    ``violations`` is every invariant violation detected (under
    ``strict`` at most one — the raise stops the run); ``repairs`` and
    ``quarantines`` count *fixups applied* and *records dropped* keyed
    by invariant id.  A repaired record may contribute several fixups;
    a quarantined record counts once, under the first violated
    invariant.
    """

    policy: str
    violations: List[Violation] = field(default_factory=list)
    repairs: Dict[str, int] = field(default_factory=dict)
    quarantines: Dict[str, int] = field(default_factory=dict)
    traces_repaired: int = 0
    traces_quarantined: int = 0
    stale_rounds_dropped: int = 0
    feed_messages_repaired: int = 0
    feed_messages_quarantined: int = 0
    lg_paths_quarantined: int = 0

    def record_violations(self, violations) -> None:
        self.violations.extend(violations)

    def record_repair(self, invariant: str, count: int = 1) -> None:
        self.repairs[invariant] = self.repairs.get(invariant, 0) + count

    def record_quarantine(self, invariant: str, count: int = 1) -> None:
        self.quarantines[invariant] = (
            self.quarantines.get(invariant, 0) + count
        )

    def clean(self) -> bool:
        """True when screening found nothing wrong."""
        return not self.violations
