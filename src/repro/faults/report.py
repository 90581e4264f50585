"""Per-run accounting of what the fault plan took away.

Graceful degradation is only trustworthy when it is *legible*: a run
that silently lost half its probes reads like a bad algorithm instead of
a bad measurement plane.  Every faulted measurement step increments a
counter here; the report travels on the
:class:`~repro.experiments.runner.RunRecord` and is merged, unchanged in
shape, into ``PlacementStats.degradation`` and then into the batch-level
``RunnerStats.degradation``, whose rendering surfaces the totals next to
the accuracy numbers.  The ``int`` fields below are the only declaration
of these counters: ``merge``/``as_dict`` and the ``any_*_seen``
predicates all derive from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import ClassVar, Dict, List, Tuple

__all__ = ["DegradationReport"]


@dataclass
class DegradationReport:
    """What one diagnosis run had to live without.

    ``diagnoser_errors`` maps algorithm label to the number of times its
    diagnosis failed outright and an empty best-effort hypothesis was
    scored instead; ``notes`` carries free-form one-liners ("control
    feed outage") for humans reading a single run.
    """

    probes_dropped: int = 0
    probes_truncated: int = 0
    hops_anonymized: int = 0
    sensors_down: int = 0
    pairs_discarded: int = 0
    masked_failures: int = 0
    lg_failures: int = 0
    lg_retries: int = 0
    lg_exhausted: int = 0
    lg_rate_limited: int = 0
    withdrawals_lost: int = 0
    withdrawals_delayed: int = 0
    igp_lost: int = 0
    igp_delayed: int = 0
    feed_outages: int = 0
    degraded_diagnoses: int = 0
    # -- corruption injection (the measurement plane lied)
    hops_forged: int = 0
    hops_duplicated: int = 0
    loops_injected: int = 0
    reach_bits_flipped: int = 0
    stale_replays: int = 0
    feed_messages_duplicated: int = 0
    feed_messages_misordered: int = 0
    lg_stale_answers: int = 0
    # -- validation screening (what repro.validate detected/did about it)
    invariant_violations: int = 0
    traces_repaired: int = 0
    traces_quarantined: int = 0
    stale_rounds_dropped: int = 0
    feed_messages_repaired: int = 0
    feed_messages_quarantined: int = 0
    lg_paths_quarantined: int = 0
    sensors_excluded: int = 0
    rediagnoses: int = 0
    # -- ensemble verdicts (hitting-set vs empathy agreement, not faults)
    ensemble_agreements: int = 0
    ensemble_partials: int = 0
    ensemble_conflicts: int = 0
    diagnoser_errors: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    # Filled in below the class from the ``int`` fields, in declaration
    # order: the counters merge() sums and as_dict() snapshots.
    _COUNTER_FIELDS: ClassVar[Tuple[str, ...]] = ()

    # Ensemble verdict tallies ride the same merge/as_dict machinery but
    # are *observations*, not degradation: an agreeing ensemble must not
    # flip is_degraded().
    _ENSEMBLE_FIELDS = (
        "ensemble_agreements",
        "ensemble_partials",
        "ensemble_conflicts",
    )

    _CORRUPTION_FIELDS = (
        "hops_forged",
        "hops_duplicated",
        "loops_injected",
        "reach_bits_flipped",
        "stale_replays",
        "feed_messages_duplicated",
        "feed_messages_misordered",
        "lg_stale_answers",
    )

    _VALIDATION_FIELDS = (
        "invariant_violations",
        "traces_repaired",
        "traces_quarantined",
        "stale_rounds_dropped",
        "feed_messages_repaired",
        "feed_messages_quarantined",
        "lg_paths_quarantined",
        "sensors_excluded",
        "rediagnoses",
    )

    def is_degraded(self) -> bool:
        """True when any fault actually fired on this run."""
        return self.any_faults_seen() or bool(self.diagnoser_errors)

    def any_faults_seen(self) -> bool:
        """True when any counter other than an ensemble tally is non-zero."""
        return any(
            getattr(self, name)
            for name in self._COUNTER_FIELDS
            if name not in self._ENSEMBLE_FIELDS
        )

    def any_ensemble_seen(self) -> bool:
        """True when any ensemble diagnosis graded its members."""
        return any(getattr(self, name) for name in self._ENSEMBLE_FIELDS)

    def any_corruption_seen(self) -> bool:
        """True when any corruption-injection counter is non-zero."""
        return any(getattr(self, name) for name in self._CORRUPTION_FIELDS)

    def any_validation_seen(self) -> bool:
        """True when input screening detected or acted on anything."""
        return any(getattr(self, name) for name in self._VALIDATION_FIELDS)

    def ensemble_disagreement(self):
        """The typed agree/partial/conflict tally of these verdicts."""
        from repro.empathy.ensemble import EnsembleDisagreement

        return EnsembleDisagreement(
            agree=self.ensemble_agreements,
            partial=self.ensemble_partials,
            conflict=self.ensemble_conflicts,
        )

    def record_ensemble_verdict(self, verdict: str) -> None:
        """One ensemble diagnosis graded its members' agreement."""
        field_name = {
            "agree": "ensemble_agreements",
            "partial": "ensemble_partials",
            "conflict": "ensemble_conflicts",
        }.get(verdict)
        if field_name is None:
            from repro.errors import EmpathyError

            raise EmpathyError(f"unknown ensemble verdict {verdict!r}")
        setattr(self, field_name, getattr(self, field_name) + 1)

    def note(self, message: str) -> None:
        """Record a human-readable degradation event (deduplicated)."""
        if message not in self.notes:
            self.notes.append(message)

    def record_diagnoser_error(self, label: str) -> None:
        """One diagnoser failed on this run's partial inputs."""
        self.degraded_diagnoses += 1
        self.diagnoser_errors[label] = self.diagnoser_errors.get(label, 0) + 1

    def merge(self, other: "DegradationReport") -> None:
        """Fold another report's counters into this one."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for label, count in other.diagnoser_errors.items():
            self.diagnoser_errors[label] = (
                self.diagnoser_errors.get(label, 0) + count
            )
        for message in other.notes:
            self.note(message)

    def as_dict(self) -> Dict[str, int]:
        """Flat counter snapshot, in declaration order."""
        return {name: getattr(self, name) for name in self._COUNTER_FIELDS}


DegradationReport._COUNTER_FIELDS = tuple(
    f.name for f in fields(DegradationReport) if f.type in (int, "int")
)
