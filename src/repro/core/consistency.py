"""Post-diagnosis consistency checking (operational cross-validation).

A diagnosis is only as good as its measurements.  Two operational hazards
corrupt snapshots in practice: stale sensors (§6 clock skew — a sensor
reports a pre-event round as current) and lying/broken vantage points.
Both leave a fingerprint the diagnosis itself exposes: a pair *reported
working* whose reported current path crosses a link other evidence elected
into the hypothesis.

Not every overlap is a contradiction, because hypothesis tokens make two
different kinds of claim:

* a blamed **physical token** (`IpLink`) claims the link is broken — a
  truthful working report crossing that link (either direction: our
  failures kill both) is impossible, so one of the two reports is wrong;
* a blamed **logical token** (`LogicalLink`) claims a *partial*,
  per-neighbour-group failure (§3.1) — working traffic over the same link
  under a different tag, or in the reverse direction, is exactly what a
  misconfiguration looks like and contradicts nothing.

:func:`suspect_working_pairs` therefore separates hard
``physical_contradictions`` (re-probe these pairs; somebody is stale)
from soft ``directional_overlaps`` (expected around misconfigurations).
The skew tests show the hard class pinpoints the stale sensor's reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.linkspace import (
    IpLink,
    LogicalLink,
    undirected_projection,
)
from repro.core.pathset import MeasurementSnapshot, Pair, PathStore
from repro.core.result import DiagnosisResult

__all__ = [
    "SuspectReport",
    "suspect_working_pairs",
    "implicated_sensors",
    "exclude_sensor_reports",
]


@dataclass(frozen=True)
class SuspectReport:
    """One working-pair report that overlaps the hypothesis."""

    pair: Pair
    physical_contradictions: Tuple
    directional_overlaps: Tuple

    @property
    def severity(self) -> int:
        """Hard contradictions only — the re-probe priority."""
        return len(self.physical_contradictions)


def suspect_working_pairs(
    snapshot: MeasurementSnapshot, result: DiagnosisResult
) -> List[SuspectReport]:
    """Working-pair reports overlapping the blamed links.

    Sorted by hard-contradiction count (descending).  On a clean snapshot
    the hard class is empty by construction for same-direction tokens
    (working paths are excluded from the candidate set), so entries there
    always indicate *cross-report* tension — stale or corrupt measurements.
    """
    blamed_physical = undirected_projection(
        t for t in result.hypothesis if isinstance(t, IpLink)
    )
    blamed_logical = undirected_projection(
        t for t in result.hypothesis if isinstance(t, LogicalLink)
    )
    suspects: List[SuspectReport] = []
    for pair in snapshot.working_pairs():
        path = snapshot.after.get(pair)
        crossed = undirected_projection(snapshot.view.logical(path))
        hard = crossed & blamed_physical
        soft = (crossed & blamed_logical) - hard
        if hard or soft:
            suspects.append(
                SuspectReport(
                    pair=pair,
                    physical_contradictions=tuple(sorted(hard, key=str)),
                    directional_overlaps=tuple(sorted(soft, key=str)),
                )
            )
    suspects.sort(key=lambda s: (-s.severity, s.pair))
    return suspects


def implicated_sensors(suspects: List[SuspectReport]) -> Tuple[str, ...]:
    """Sensor source addresses ranked by hard-contradiction involvement.

    A suspect working-pair report is *authored* by its source sensor —
    that is who measured, and claims, the contradictory path.  Summing
    hard contradictions per source ranks the sensors most likely to be
    stale or lying; ties break lexicographically so the ranking is
    deterministic.  Soft directional overlaps never implicate anyone.
    """
    counts = {}
    for suspect in suspects:
        if not suspect.physical_contradictions:
            continue
        source = suspect.pair[0]
        counts[source] = counts.get(source, 0) + suspect.severity
    return tuple(sorted(counts, key=lambda address: (-counts[address], address)))


def exclude_sensor_reports(
    snapshot: MeasurementSnapshot, sensor_address: str
) -> MeasurementSnapshot:
    """The snapshot with every report *authored* by one sensor removed.

    Drops all pairs sourced at ``sensor_address`` from both rounds
    (reports *toward* the sensor were measured by others and stay).
    The result satisfies the snapshot invariants by construction — it
    is a pair-subset of a valid snapshot — and feeds the bounded
    re-diagnosis pass: diagnose once more without the implicated
    sensor's claims and see whether the contradiction dissolves.  The
    child shares the parent's token view (same paths, same ``asn_of``).
    """
    before, after = PathStore(), PathStore()
    for pair in snapshot.before.pairs():
        if pair[0] == sensor_address:
            continue
        before.add(snapshot.before.get(pair))
        after.add(snapshot.after.get(pair))
    return MeasurementSnapshot(
        before=before, after=after, asn_of=snapshot.asn_of, view=snapshot.view
    )
