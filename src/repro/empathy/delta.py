"""Per-pair trace deltas: what each probe pair lost and gained at T+.

A :class:`TraceDelta` is the empathy engine's unit of evidence — one probe
pair's path change across the event, reduced to the directed links it
*lost* (present at T-, gone at T+) and *gained*.  Two deltas are empathic
when their lost sets share an identified link: they changed in the same
round for a common reason (arXiv:1412.4074's empathy relation, restated
over link sets because our rounds are already aligned).

For a failed pair the T+ trace stops at the blackhole, so set difference
would understate the loss: the suffix of the T- path from the divergence
point onward is what the pair can no longer traverse, and it provably
contains the failed link (the T+ trace follows the old path until it is
cut or rerouted away).  Hence ``lost`` for failed pairs is the *suffix*
from the last common hop, not a bare set difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.core.linkspace import IpLink
from repro.core.pathset import MeasurementSnapshot, Pair, ProbePath, _normalised_hops

__all__ = ["KIND_FAILED", "KIND_REROUTED", "TraceDelta", "compute_deltas"]

KIND_FAILED = "failed"
KIND_REROUTED = "rerouted"


@dataclass(frozen=True)
class TraceDelta:
    """One probe pair's path change across the event window.

    ``divergence_index`` is the length of the common (UH-normalised) hop
    prefix of the T- and T+ traces — the hop index where the pair's
    forwarding first changed.
    """

    pair: Pair
    kind: str
    lost: FrozenSet[IpLink]
    gained: FrozenSet[IpLink]
    divergence_index: int

    @property
    def changed(self) -> bool:
        return bool(self.lost or self.gained)


def _common_prefix(before: ProbePath, after: ProbePath) -> int:
    old = _normalised_hops(before)
    new = _normalised_hops(after)
    shared = 0
    for a, b in zip(old, new):
        if a != b:
            break
        shared += 1
    return shared


def compute_deltas(snapshot: MeasurementSnapshot) -> Tuple[TraceDelta, ...]:
    """Per-pair deltas for every failed or rerouted pair, in pair order."""
    deltas = []
    failed = set(snapshot.failed_pairs())
    rerouted = set(snapshot.rerouted_pairs())
    for pair in snapshot.before.pairs():
        if pair not in failed and pair not in rerouted:
            continue
        before = snapshot.before.get(pair)
        after = snapshot.after.get(pair)
        shared = _common_prefix(before, after)
        before_links = snapshot.view.physical(before)
        after_links = snapshot.view.physical(after)
        if pair in failed:
            # Lost suffix: every T- link from the divergence point on.
            # shared >= 1 always (both traces start at the source sensor).
            lost = frozenset(before_links[max(shared - 1, 0):])
            if not lost:
                lost = frozenset(before_links)
            gained = frozenset(after_links) - set(before_links)
            kind = KIND_FAILED
        else:
            lost = frozenset(before_links) - set(after_links)
            gained = frozenset(after_links) - set(before_links)
            kind = KIND_REROUTED
        deltas.append(
            TraceDelta(
                pair=pair,
                kind=kind,
                lost=lost,
                gained=gained,
                divergence_index=shared,
            )
        )
    return tuple(deltas)
