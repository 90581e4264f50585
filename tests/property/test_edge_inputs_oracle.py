"""Differential test: cached edge-input building against a reference.

``reference_build_edge_inputs`` is the edge-input construction as it
stood before token views existed: every path logicalized afresh, the
inferred graph built as two per-round graphs and merged.  The production
``build_edge_inputs`` reads tokens through the snapshot's
:class:`~repro.core.logical.TokenView` and memoizes its result on the
snapshot; here Hypothesis generates snapshots with UH stars,
interdomain hops whose tags change, truncated traces and reroutes, and
every ``EdgeInputs`` field must match the reference under all four flag
combinations — including when one view is shared (and, with a small
capacity, evicting) across many snapshots.
"""

from typing import Dict, FrozenSet, Set

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import InferredGraph
from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    LinkToken,
    LogicalLink,
    UhNode,
    is_unidentified,
    physical_projection,
)
from repro.core.logical import TokenView, logicalize
from repro.core.nd_edge import EdgeInputs, build_edge_inputs, physical_clusters
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    Pair,
    PathStore,
    ProbePath,
)

TokenSet = FrozenSet[LinkToken]

FLAGS = [(partial, drop) for partial in (False, True) for drop in (False, True)]


# ------------------------------------------------------------ reference


def _reference_graph(paths, asn_of) -> InferredGraph:
    graph = InferredGraph()
    for path in paths:
        graph.add_path(path.pair, logicalize(path, asn_of))
    return graph


def reference_reroute_sets(
    snapshot: MeasurementSnapshot,
    logical: bool = True,
    drop_unidentified: bool = True,
) -> Dict[Pair, FrozenSet[LinkToken]]:
    sets: Dict[Pair, FrozenSet[LinkToken]] = {}
    asn_of = snapshot.asn_of
    for pair in snapshot.rerouted_pairs():
        old_path = snapshot.before.get(pair)
        new_path = snapshot.after.get(pair)
        old_tokens = logicalize(old_path, asn_of) if logical else old_path.links()
        new_physical = physical_projection(
            logicalize(new_path, asn_of) if logical else new_path.links()
        )
        candidates = frozenset(
            token
            for token in old_tokens
            if not (physical_projection([token]) & new_physical)
            and not (drop_unidentified and is_unidentified(token))
        )
        if candidates:
            sets[pair] = candidates
    return sets


def reference_build_edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool = False,
    drop_unidentified_from_failures: bool = False,
) -> EdgeInputs:
    asn_of = snapshot.asn_of

    failure_sets: Dict[Pair, TokenSet] = {}
    for pair in snapshot.failed_pairs():
        tokens = logicalize(snapshot.before.get(pair), asn_of)
        if drop_unidentified_from_failures:
            tokens = tuple(t for t in tokens if t.identified)
        if tokens:
            failure_sets[pair] = frozenset(tokens)

    working: Set[LinkToken] = set()
    for pair in snapshot.working_pairs():
        working.update(logicalize(snapshot.after.get(pair), asn_of))

    partial: Set[LinkToken] = set()
    if use_partial_traces:
        for pair in snapshot.failed_pairs():
            truncated = snapshot.after.get(pair)
            # Terminal-tag rule for truncated traces: normally the
            # continuation beyond the last hop is unknown, but when the
            # trace already died *inside the destination sensor's AS* the
            # route group is certain — it terminates there (ORIGIN).
            last = truncated.hops[-1]
            dst_asn = asn_of(truncated.dst)
            last_asn = asn_of(last) if isinstance(last, str) else None
            terminal = (
                ORIGIN_TAG
                if last_asn is not None and last_asn == dst_asn
                else UNKNOWN_TAG
            )
            for token in logicalize(truncated, asn_of, terminal_tag=terminal):
                if isinstance(token, LogicalLink) and token.tag == UNKNOWN_TAG:
                    continue  # tag not observable from a truncated trace
                if not token.identified:
                    continue
                partial.add(token)

    graph = _reference_graph(snapshot.before.paths(), asn_of).merge(
        _reference_graph(snapshot.after.paths(), asn_of)
    )

    reroute_map = reference_reroute_sets(snapshot, logical=True)
    clusters = physical_clusters(
        list(failure_sets.values()) + list(reroute_map.values())
    )
    return EdgeInputs(
        failure_sets=failure_sets,
        working_excluded=frozenset(working),
        reroute_map=reroute_map,
        graph=graph,
        partial_exonerated=frozenset(partial),
        logical_clusters=clusters,
    )


def assert_same_inputs(got: EdgeInputs, want: EdgeInputs) -> None:
    assert list(got.failure_sets.items()) == list(want.failure_sets.items())
    assert got.working_excluded == want.working_excluded
    assert list(got.reroute_map.items()) == list(want.reroute_map.items())
    assert got.partial_exonerated == want.partial_exonerated
    assert got.logical_clusters == want.logical_clusters
    assert got.excluded() == want.excluded()
    assert got.graph.tokens() == want.graph.tokens()
    for token in want.graph.tokens():
        assert got.graph.traversed_by(token) == want.graph.traversed_by(token)
    assert got.graph.hitting_sets() == want.graph.hitting_sets()


# ------------------------------------------------------------ generator

N_AS = 5
#: Routers per AS; AS 0 holds no mapping (its hops are unmappable).
ROUTERS = {asn: [f"10.{asn}.0.{i}" for i in range(1, 3)] for asn in range(N_AS)}
SENSORS = [f"10.{asn}.9.9" for asn in range(1, 5)]
MAPPING = {
    address: asn
    for asn, addresses in ROUTERS.items()
    if asn != 0
    for address in addresses
}
MAPPING.update({address: int(address.split(".")[1]) for address in SENSORS})
ASN_OF = MAPPING.get


@st.composite
def routes(draw, src, dst):
    """A src..dst hop list: AS segments of 1-2 routers each."""
    segments = draw(st.lists(st.integers(0, N_AS - 1), min_size=0, max_size=4))
    hops = [src]
    for asn in segments:
        hops.extend(
            draw(
                st.lists(
                    st.sampled_from(ROUTERS[asn]), min_size=1, max_size=2, unique=True
                )
            )
        )
    hops.append(dst)
    return hops


@st.composite
def starred(draw, hops, src, dst, epoch):
    """``hops`` with some interior positions replaced by UH stars."""
    out = list(hops)
    for index in range(1, len(out) - 1):
        if draw(st.integers(0, 4)) == 0:
            out[index] = UhNode(src, dst, epoch, index)
    return tuple(out)


def restar(hops, epoch):
    """The same trace re-observed in another epoch (stars re-keyed)."""
    return tuple(
        UhNode(hop.src, hop.dst, epoch, hop.index) if isinstance(hop, UhNode) else hop
        for hop in hops
    )


@st.composite
def snapshots(draw):
    sensors = draw(
        st.lists(st.sampled_from(SENSORS), min_size=2, max_size=4, unique=True)
    )
    before, after = PathStore(), PathStore()
    for src in sensors:
        for dst in sensors:
            if src == dst:
                continue
            pre_hops = draw(starred(draw(routes(src, dst)), src, dst, EPOCH_PRE))
            before.add(ProbePath(src, dst, pre_hops, True, EPOCH_PRE))
            kind = draw(
                st.sampled_from(["same", "reroute", "failed", "tail", "failed-new"])
            )
            if kind == "same":
                hops = restar(pre_hops, EPOCH_POST)
                post = ProbePath(src, dst, hops, True, EPOCH_POST)
            elif kind == "tail":
                # Keep a prefix, change what follows: the interdomain tags
                # on the kept prefix change with the new continuation.
                cut = draw(st.integers(1, len(pre_hops) - 1))
                tail = draw(routes(src, dst))[1:]
                hops = restar(pre_hops[:cut], EPOCH_POST) + tuple(tail)
                post = ProbePath(src, dst, hops, True, EPOCH_POST)
            elif kind == "reroute":
                hops = draw(starred(draw(routes(src, dst)), src, dst, EPOCH_POST))
                post = ProbePath(src, dst, hops, True, EPOCH_POST)
            else:
                full = (
                    restar(pre_hops, EPOCH_POST)
                    if kind == "failed"
                    else draw(starred(draw(routes(src, dst)), src, dst, EPOCH_POST))
                )
                # A full-length cut is a trace that reached the
                # destination's address while the probe still failed:
                # same hops as a reached path, different ``reached``.
                cut = draw(st.integers(1, len(full)))
                post = ProbePath(src, dst, full[:cut], False, EPOCH_POST)
            after.add(post)
    return before, after


# ---------------------------------------------------------------- tests


@given(stores=snapshots())
@settings(max_examples=120, deadline=None)
def test_private_view_matches_reference(stores):
    before, after = stores
    snapshot = MeasurementSnapshot(before=before, after=after, asn_of=ASN_OF)
    for partial, drop in FLAGS:
        got = build_edge_inputs(snapshot, partial, drop)
        want = reference_build_edge_inputs(snapshot, partial, drop)
        assert_same_inputs(got, want)
        assert build_edge_inputs(snapshot, partial, drop) is got


@given(
    rounds=st.lists(snapshots(), min_size=2, max_size=4),
    capacity=st.sampled_from([0, 3, 17]),
)
@settings(max_examples=60, deadline=None)
def test_shared_view_across_snapshots_matches_reference(rounds, capacity):
    """One view over many snapshots (the stream engine's shape): equal hop
    content in other pairs, epochs or snapshots never leaks a wrong
    expansion, with or without eviction."""
    view = TokenView(ASN_OF, capacity=capacity)
    for before, after in rounds:
        snapshot = MeasurementSnapshot(
            before=before, after=after, asn_of=ASN_OF, view=view
        )
        for partial, drop in FLAGS:
            assert_same_inputs(
                build_edge_inputs(snapshot, partial, drop),
                reference_build_edge_inputs(snapshot, partial, drop),
            )
        for store in (before, after):
            for path in store.paths():
                assert view.logical(path) == logicalize(path, ASN_OF)
                assert view.physical(path) == path.links()
        if capacity:
            assert len(view) <= capacity
