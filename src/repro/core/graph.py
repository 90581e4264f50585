"""The inferred graph G: union of traceroute paths, with traversal info.

§2.2: "the topology graph G is inferred from the union of these traceroute
paths".  For diagnosability (§4) we additionally need, per link, the set of
probe pairs traversing it — the link's *hitting set* h(l).  The graph can
be built at physical granularity (:meth:`InferredGraph.from_paths`) or at
logical granularity: :func:`repro.core.nd_edge.build_edge_inputs` adds
each path's §3.1 logical tokens (from the snapshot's token view) with
:meth:`InferredGraph.add_path`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.core.linkspace import LinkToken, sort_key
from repro.core.pathset import Pair, ProbePath

__all__ = ["InferredGraph"]


class InferredGraph:
    """Union of probe paths with per-link traversal sets."""

    def __init__(self) -> None:
        self._traversals: Dict[LinkToken, Set[Pair]] = {}

    # -------------------------------------------------------------- builders

    @classmethod
    def from_paths(
        cls,
        paths: Iterable[ProbePath],
        links_of: Optional[Callable[[ProbePath], Iterable[LinkToken]]] = None,
    ) -> "InferredGraph":
        """Physical-granularity graph: tokens are directed IpLinks.

        ``links_of`` supplies each path's tokens (a snapshot's
        ``view.physical``); by default :meth:`ProbePath.links`.
        """
        links_of = links_of or ProbePath.links
        graph = cls()
        for path in paths:
            graph.add_path(path.pair, links_of(path))
        return graph

    def add_path(self, pair: Pair, tokens: Iterable[LinkToken]) -> None:
        """Record that ``pair``'s path traverses ``tokens``."""
        for token in tokens:
            self._traversals.setdefault(token, set()).add(pair)

    def merge(self, other: "InferredGraph") -> "InferredGraph":
        """Union of two graphs (used to combine T- and T+ coverage)."""
        merged = InferredGraph()
        for graph in (self, other):
            for token, pairs in graph._traversals.items():
                merged._traversals.setdefault(token, set()).update(pairs)
        return merged

    # --------------------------------------------------------------- queries

    def tokens(self) -> Tuple[LinkToken, ...]:
        """All links, deterministically ordered."""
        return tuple(sorted(self._traversals, key=sort_key))

    def __contains__(self, token: LinkToken) -> bool:
        return token in self._traversals

    def __len__(self) -> int:
        return len(self._traversals)

    def traversed_by(self, token: LinkToken) -> FrozenSet[Pair]:
        """The hitting set h(l): probe pairs whose path crosses ``token``."""
        return frozenset(self._traversals.get(token, frozenset()))

    def hitting_sets(self) -> Tuple[FrozenSet[Pair], ...]:
        """h(l) for every link, in token order (repeats included)."""
        return tuple(
            frozenset(self._traversals[token]) for token in self.tokens()
        )
