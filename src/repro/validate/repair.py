"""Canonical, deterministic fixups for repairable invariant violations.

Repairs are pure functions of the record and the IP-to-AS mapping — no
randomness, no ambient state — so a repaired sweep is reproducible and
``repair`` is idempotent (``repair(repair(x)) == repair(x)``, property-
tested in ``tests/validate/``).  Each repair returns the fixed record
plus the tuple of invariant ids it actually applied (empty once the
record is canonical, which is how idempotence is tested).

The probe-path pipeline runs in a fixed order chosen so later stages
cannot re-introduce earlier violations:

1. drop unresolvable identified hops (never position 0 — the source
   sensor vouches for its own address);
2. collapse consecutive duplicate hops (dropping a forged hop between
   two copies of a router exposes the pair as adjacent);
3. truncate at the first loop revisit (keep the prefix before the hop
   that re-enters a visited router);
4. re-derive the reachability bit from the hops (`reached` iff the
   trace ends at the destination sensor).

Invariants with no sound repair (a stale epoch tag, an LG answer from
the wrong table) are *not* handled here; the engine quarantines those
records even under the ``repair`` policy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.linkspace import Endpoint
from repro.core.pathset import ProbePath
from repro.validate.invariants import (
    FEED_DUP,
    FEED_ORDER,
    TRACE_DUP,
    TRACE_LOOP,
    TRACE_REACH_BIT,
    TRACE_UNRESOLVED,
)

__all__ = ["repair_probe_path", "repair_feed"]


def repair_probe_path(
    path: ProbePath, asn_of: Callable[[str], Optional[int]]
) -> Tuple[ProbePath, Tuple[str, ...]]:
    """Repair one probe path; returns (fixed path, fixups applied).

    The returned path satisfies every repairable per-record invariant;
    if nothing needed fixing the input object is returned unchanged.
    Repair can lose information — a loop truncation may cut the tail
    that confirmed reachability — but it never invents any: every
    surviving hop was reported, in its reported order.
    """
    fixups: List[str] = []
    hops: List[Endpoint] = []
    for index, hop in enumerate(path.hops):
        if (
            index > 0
            and isinstance(hop, str)
            and asn_of(hop) is None
        ):
            if TRACE_UNRESOLVED not in fixups:
                fixups.append(TRACE_UNRESOLVED)
            continue
        hops.append(hop)
    collapsed: List[Endpoint] = []
    for hop in hops:
        if collapsed and isinstance(hop, str) and hop == collapsed[-1]:
            if TRACE_DUP not in fixups:
                fixups.append(TRACE_DUP)
            continue
        collapsed.append(hop)
    seen = set()
    truncated: List[Endpoint] = []
    for hop in collapsed:
        if isinstance(hop, str):
            if hop in seen:
                fixups.append(TRACE_LOOP)
                break
            seen.add(hop)
        truncated.append(hop)
    if (path.hops[-1] == path.dst) != path.reached:
        # The bit lied about the trace as reported — distinct from a
        # reachability change that is merely a consequence of truncation.
        fixups.append(TRACE_REACH_BIT)
    reached = truncated[-1] == path.dst
    if not fixups:
        return path, ()
    return (
        ProbePath(
            src=path.src,
            dst=path.dst,
            hops=tuple(truncated),
            reached=reached,
            epoch=path.epoch,
        ),
        tuple(fixups),
    )


def repair_feed(messages: Sequence) -> Tuple[Tuple, Tuple[str, ...]]:
    """Repair one feed stream; returns (fixed messages, fixups applied).

    Deduplicates on full-record identity (first occurrence wins) and
    restores monotonic order with a stable sort of the *sequenced*
    messages among themselves — unsequenced messages (``seq < 0``) have
    nothing sound to sort by and keep their arrival positions, exactly
    the subset the ``feed-order`` invariant skips.
    """
    fixups: List[str] = []
    seen = set()
    deduped = []
    for message in messages:
        if message in seen:
            if FEED_DUP not in fixups:
                fixups.append(FEED_DUP)
            continue
        seen.add(message)
        deduped.append(message)

    def sequenced(message) -> bool:
        seq = getattr(message, "seq", -1)
        return seq is not None and seq >= 0

    slots = [i for i, m in enumerate(deduped) if sequenced(m)]
    ordered = sorted((deduped[i] for i in slots), key=lambda m: m.seq)
    if any(deduped[i] != m for i, m in zip(slots, ordered)):
        fixups.append(FEED_ORDER)
        for i, m in zip(slots, ordered):
            deduped[i] = m
    return tuple(deduped), tuple(fixups)
