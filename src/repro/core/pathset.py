"""Probe paths and the stores the troubleshooter receives them in.

A :class:`ProbePath` is one traceroute as the troubleshooter sees it:
endpoint sensor addresses, the hop sequence (identified addresses and
:class:`~repro.core.linkspace.UhNode` stars) and whether the destination
answered.  A :class:`PathStore` holds one full-mesh measurement round; a
:class:`MeasurementSnapshot` pairs the round taken before a failure event
(``T-``) with the one taken after (``T+``) plus the IP-to-AS mapping
callable — the complete edge-data input of every NetDiagnoser variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.linkspace import Endpoint, IpLink, ip_link
from repro.core.logical import TokenView
from repro.errors import DiagnosisError

__all__ = [
    "EPOCH_PRE",
    "EPOCH_POST",
    "ProbePath",
    "PathStore",
    "MeasurementSnapshot",
]

EPOCH_PRE = "pre"
EPOCH_POST = "post"

#: A probe pair: (source sensor address, destination sensor address).
Pair = Tuple[str, str]


@dataclass(frozen=True)
class ProbePath:
    """One traceroute between two sensors.

    ``hops`` starts at the source sensor's own address and, when the probe
    reached, ends at the destination sensor's address.  A failed probe's
    hops stop at the last responding position before the blackhole.
    """

    src: str
    dst: str
    hops: Tuple[Endpoint, ...]
    reached: bool
    epoch: str = EPOCH_PRE

    def __post_init__(self) -> None:
        if not self.hops:
            raise DiagnosisError(f"probe {self.src}->{self.dst} has no hops")
        if self.hops[0] != self.src:
            raise DiagnosisError(
                f"probe {self.src}->{self.dst}: first hop must be the source sensor"
            )
        if self.reached and self.hops[-1] != self.dst:
            raise DiagnosisError(
                f"probe {self.src}->{self.dst} reached but does not end at "
                "the destination sensor"
            )

    @property
    def pair(self) -> Pair:
        return (self.src, self.dst)

    def links(self) -> Tuple[IpLink, ...]:
        """The directed physical-level link tokens along this path.

        Computed on every call; diagnosers read them through their
        snapshot's :class:`~repro.core.logical.TokenView`, which shares
        one tuple among all paths with the same hops.
        """
        return tuple(ip_link(a, b) for a, b in zip(self.hops, self.hops[1:]))

    def has_unidentified_hops(self) -> bool:
        """True when at least one hop is a star."""
        return any(not isinstance(hop, str) for hop in self.hops)


class PathStore:
    """One full-mesh measurement round, indexed by probe pair.

    A store is frozen once a :class:`MeasurementSnapshot` wraps it: the
    snapshot memoizes what it derives from its paths, so :meth:`add`
    then raises :class:`~repro.errors.DiagnosisError`.
    """

    def __init__(self, paths: Optional[Dict[Pair, ProbePath]] = None) -> None:
        self._paths: Dict[Pair, ProbePath] = {}
        self._pairs_memo: Optional[Tuple[Pair, ...]] = None
        self.frozen = False
        for path in (paths or {}).values():
            self.add(path)

    def add(self, path: ProbePath) -> None:
        """Insert one probe path (pairs must be unique)."""
        if self.frozen:
            raise DiagnosisError(
                f"cannot add {path.pair}: the store belongs to a snapshot"
            )
        if path.pair in self._paths:
            raise DiagnosisError(f"duplicate probe for pair {path.pair}")
        self._paths[path.pair] = path
        self._pairs_memo = None

    def get(self, pair: Pair) -> ProbePath:
        try:
            return self._paths[pair]
        except KeyError:
            raise DiagnosisError(f"no probe recorded for pair {pair}") from None

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def pairs(self) -> Tuple[Pair, ...]:
        """All probe pairs, sorted for determinism.

        The sorted tuple is memoised (invalidated by :meth:`add`): at
        internet scale a full mesh holds thousands of pairs and every
        diagnosis variant iterates them several times.
        """
        if self._pairs_memo is None:
            self._pairs_memo = tuple(sorted(self._paths))
        return self._pairs_memo

    def paths(self) -> Iterator[ProbePath]:
        """All paths in pair order."""
        for pair in self.pairs():
            yield self._paths[pair]

    def working_pairs(self) -> Tuple[Pair, ...]:
        """Pairs whose probe reached the destination."""
        return tuple(p for p in self.pairs() if self._paths[p].reached)

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs whose probe did not reach the destination."""
        return tuple(p for p in self.pairs() if not self._paths[p].reached)


@dataclass
class MeasurementSnapshot:
    """Everything the edge gives the troubleshooter about one event.

    ``asn_of`` maps an identified hop address to its AS number (or ``None``)
    — the IP-to-AS technique of the paper.  The reachability matrix R of
    §2.3 is the ``reached`` flag of the *after* store
    (:meth:`failed_pairs` / :meth:`working_pairs`).

    ``view`` is the :class:`~repro.core.logical.TokenView` every consumer
    reads path tokens through: a private one by default, or one shared
    with other snapshots over the same ``asn_of`` (a re-diagnosis child,
    a stream engine's consecutive snapshots).  It is a cache, not data:
    it takes no part in equality, repr or pickling.  Wrapping freezes
    both stores.
    """

    before: PathStore
    after: PathStore
    asn_of: Callable[[str], Optional[int]] = field(default=lambda _a: None)
    view: Optional[TokenView] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.before.pairs()) != set(self.after.pairs()):
            raise DiagnosisError(
                "before/after measurement rounds cover different probe pairs"
            )
        for pair in self.before.pairs():
            if not self.before.get(pair).reached:
                raise DiagnosisError(
                    f"pre-failure probe for pair {pair} did not reach; the "
                    "troubleshooter is only invoked on previously-working pairs"
                )
        if self.view is None:
            self.view = TokenView(self.asn_of)
        elif self.view.asn_of != self.asn_of:
            raise DiagnosisError(
                "a shared token view must map addresses with the snapshot's "
                "asn_of"
            )
        self.before.frozen = self.after.frozen = True
        self._rerouted_memo: Optional[Tuple[Pair, ...]] = None
        #: build_edge_inputs results by (use_partial_traces,
        #: drop_unidentified_from_failures); see repro.core.nd_edge.
        self.edge_inputs_memo: Dict[Tuple[bool, bool], object] = {}

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the measurements only: the view and the memos are
        rebuilt (empty) on the other side."""
        return {"before": self.before, "after": self.after, "asn_of": self.asn_of}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.view = None
        self.__post_init__()

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs that became unreachable (R_ij = 0)."""
        return self.after.failed_pairs()

    def working_pairs(self) -> Tuple[Pair, ...]:
        """Pairs still reachable after the event (R_ij = 1)."""
        return self.after.working_pairs()

    def rerouted_pairs(self) -> Tuple[Pair, ...]:
        """Working pairs whose T+ path differs from their T- path (§3.2).

        UH hops are compared by position only (a star at hop 4 before and
        after is assumed to be the same hidden router — the troubleshooter
        cannot tell otherwise, and the paper’s blocked-traceroute scenarios
        only use single link failures where this is exact).

        Memoised: the snapshot's stores are frozen by the time a diagnosis
        starts, and every variant that weighs reroute evidence asks for
        this tuple.
        """
        if self._rerouted_memo is None:
            rerouted = []
            for pair in self.working_pairs():
                old = _normalised_hops(self.before.get(pair))
                new = _normalised_hops(self.after.get(pair))
                if old != new:
                    rerouted.append(pair)
            self._rerouted_memo = tuple(rerouted)
        return self._rerouted_memo

    def any_failure(self) -> bool:
        """True when the troubleshooter has something to diagnose."""
        return bool(self.failed_pairs())


def _normalised_hops(path: ProbePath) -> Tuple:
    """Hop sequence with UH identity reduced to position (see
    :meth:`MeasurementSnapshot.rerouted_pairs`)."""
    return tuple(
        hop if isinstance(hop, str) else ("*", index)
        for index, hop in enumerate(path.hops)
    )
