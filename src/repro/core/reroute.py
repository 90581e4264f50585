"""Reroute sets (§3.2).

A pair that still works after the event but follows a different path was
*rerouted*: some link of its old path must have failed (or been withdrawn
from under it).  The reroute set R_ij is the old path's links minus the new
path's links — the candidates that can explain the reroute.  ND-edge folds
these sets into the greedy score with weight ``b`` (a = b = 1 in the
paper).
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.core.linkspace import LinkToken, is_unidentified, physical_projection
from repro.core.pathset import MeasurementSnapshot, Pair

__all__ = ["reroute_sets"]


def reroute_sets(
    snapshot: MeasurementSnapshot,
    logical: bool = True,
    drop_unidentified: bool = True,
) -> Dict[Pair, FrozenSet[LinkToken]]:
    """R_ij for every rerouted pair.

    ``logical`` selects the token granularity (ND-edge reasons over logical
    links).  With ``drop_unidentified``, tokens touching UH hops are
    removed from the sets: a pre-epoch UH token can never match a
    post-epoch one, so keeping them would make every blocked-AS path look
    like evidence (see ``DESIGN.md`` §5); ND-LG instead handles UHs through
    failure-set clustering.

    Comparison between the old and the new path is done at *physical*
    granularity: a logical tag legitimately changes when routing shifts
    beyond the far AS even though the link itself kept carrying the path,
    and treating a mere tag change as "this link was abandoned" would
    plant false evidence against a healthy link.  Candidate tokens whose
    physical link survives in the new path are therefore not included.
    """
    sets: Dict[Pair, FrozenSet[LinkToken]] = {}
    view = snapshot.view
    tokens_of = view.logical if logical else view.physical
    for pair in snapshot.rerouted_pairs():
        old_tokens = tokens_of(snapshot.before.get(pair))
        new_physical = physical_projection(tokens_of(snapshot.after.get(pair)))
        candidates = frozenset(
            token
            for token in old_tokens
            if not (physical_projection([token]) & new_physical)
            and not (drop_unidentified and is_unidentified(token))
        )
        if candidates:
            sets[pair] = candidates
    return sets
