"""Logical-link expansion (§3.1).

BGP export policies are configured per neighbour, so a misconfiguration
breaks an interdomain link only for the routes learned from one particular
out-neighbour.  To make such partial failures expressible in Boolean
tomography, each interdomain hop pair (u, v) of a path is replaced by a
*logical link* tagged with the AS the path continues to after v's AS.

Tag determination for the consecutive hop pair (u, v) on a path:

* u and v in the same AS (or either unmappable) → plain physical token;
* otherwise scan the hops after v for the first identified hop mapped to
  an AS different from v's AS — that AS is the tag;
* the path ends inside v's AS → ``ORIGIN_TAG`` (the routes are originated
  there, there is no out-neighbour);
* an unidentified hop interrupts the scan → ``UNKNOWN_TAG`` (the region
  beyond is dark; ND-LG handles those paths at AS granularity instead).

:class:`TokenView` memoizes a path's logical tokens (and its physical
:meth:`~repro.core.pathset.ProbePath.links`) by hop content, so the many
consumers of one snapshot — and a stream engine's consecutive snapshots,
whose traces barely change — expand each distinct trace once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    IpLink,
    LinkToken,
    LogicalLink,
    ip_link,
)
from repro.netsim.cache import LruCache

if TYPE_CHECKING:  # pathset imports this module for TokenView
    from repro.core.pathset import ProbePath

__all__ = ["logicalize", "TokenView"]


def logicalize(
    path: ProbePath,
    asn_of: Callable[[str], Optional[int]],
    terminal_tag: Optional[int] = None,
) -> Tuple[LinkToken, ...]:
    """Token sequence of ``path`` with interdomain links expanded (§3.1).

    Intradomain hop pairs and pairs touching an unidentified hop stay
    physical (undirected); identified interdomain pairs become directed
    :class:`~repro.core.linkspace.LogicalLink` tokens.

    ``terminal_tag`` is the tag assigned when the out-neighbour scan runs
    off the end of the path.  For a complete path that genuinely means the
    routes terminate in the far AS (default ``ORIGIN_TAG``); for a
    *truncated* trace (a failed probe) the continuation is simply unknown,
    so callers pass ``UNKNOWN_TAG`` to keep untrustworthy tags out of
    exoneration sets.
    """
    if terminal_tag is None:
        terminal_tag = ORIGIN_TAG if path.reached else UNKNOWN_TAG
    hops = path.hops
    hop_asns: List[Optional[int]] = [
        asn_of(hop) if isinstance(hop, str) else None for hop in hops
    ]
    tokens: List[LinkToken] = []
    for index, (u, v) in enumerate(zip(hops, hops[1:])):
        if not (isinstance(u, str) and isinstance(v, str)):
            tokens.append(ip_link(u, v))
            continue
        asn_u, asn_v = hop_asns[index], hop_asns[index + 1]
        if asn_u is None or asn_v is None or asn_u == asn_v:
            tokens.append(ip_link(u, v))
            continue
        tag = _tag_after(hop_asns, index + 1, terminal_tag)
        tokens.append(LogicalLink(src=u, dst=v, tag=tag))
    return tuple(tokens)


def _tag_after(
    hop_asns: List[Optional[int]], v_index: int, terminal_tag: int
) -> int:
    """Out-neighbour tag: first AS after position ``v_index`` differing from
    the AS at ``v_index`` (see module docstring for the edge cases)."""
    asn_v = hop_asns[v_index]
    for asn in hop_asns[v_index + 1 :]:
        if asn is None:
            return UNKNOWN_TAG
        if asn != asn_v:
            return asn
    return terminal_tag


class TokenView:
    """Link tokens of probe paths, memoized by hop content.

    :meth:`logical` returns ``logicalize(path, asn_of)`` keyed by
    ``(path.hops, path.reached)`` and :meth:`physical` returns
    ``path.links()`` keyed by ``path.hops``.  (The two key shapes never
    collide: a hop is a string or a star, never a tuple.)  The keys are
    exact: ``logicalize`` reads nothing of a path but its hops, its
    ``reached`` flag (the default terminal tag) and ``asn_of`` of its
    identified hops, and every :class:`~repro.core.linkspace.UhNode` hop
    carries its own ``(src, dst, epoch, index)``, so two paths share an
    entry only when their expansions are equal.  ``asn_of`` must
    therefore be one fixed mapping for the view's lifetime.

    ``capacity`` bounds the entries (least recently used evicted first;
    0 = unbounded).  ``hits``/``misses`` count token lookups.
    """

    def __init__(
        self, asn_of: Callable[[str], Optional[int]], capacity: int = 0
    ) -> None:
        self.asn_of = asn_of
        self.capacity = capacity
        self._cache: LruCache[tuple, tuple] = LruCache(capacity)
        # Bound once: lookups are the hot path of every diagnosis.
        self._get = self._cache.get
        self._put = self._cache.put

    def logical(self, path: ProbePath) -> Tuple[LinkToken, ...]:
        """``logicalize(path, asn_of)`` with the default terminal tag."""
        key = (path.hops, path.reached)
        tokens = self._get(key)
        if tokens is None:
            tokens = logicalize(path, self.asn_of)
            self._put(key, tokens)
        return tokens

    def physical(self, path: ProbePath) -> Tuple[IpLink, ...]:
        """``path.links()``: the directed physical tokens."""
        hops = path.hops
        tokens = self._get(hops)
        if tokens is None:
            tokens = path.links()
            self._put(hops, tokens)
        return tokens

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def __len__(self) -> int:
        return len(self._cache)
