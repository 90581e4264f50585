"""ND-edge: NetDiagnoser from end-to-end probes only (§3.1-3.2).

ND-edge extends Tomo with the two edge-data features:

* the graph and all constraint sets use **logical links**, so router
  misconfigurations are expressible (§3.1);
* **post-failure traceroutes** feed the working-path constraints (current
  paths, not stale ones) and produce **reroute sets** that enter the
  greedy score with weight ``b`` (§3.2, a = b = 1 by default).

The optional ``use_partial_traces`` extension (not in the paper; see
``DESIGN.md`` §6) additionally exonerates the links a *failed* probe's
truncated T+ trace demonstrably crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.core.graph import InferredGraph
from repro.core.hitting_set import greedy_hitting_set
from repro.core.linkspace import ORIGIN_TAG, UNKNOWN_TAG, LinkToken, LogicalLink
from repro.core.logical import logicalize
from repro.core.pathset import MeasurementSnapshot, Pair
from repro.core.reroute import reroute_sets
from repro.core.result import DiagnosisResult

__all__ = ["EdgeInputs", "build_edge_inputs", "nd_edge"]

TokenSet = FrozenSet[LinkToken]


@dataclass(frozen=True)
class EdgeInputs:
    """Everything the edge data contributes to a greedy run.

    Shared by ND-edge, ND-bgpigp and ND-LG, which differ only in the extra
    constraints (control plane, UH clusters) they layer on top.  One
    snapshot builds it once per flag combination (see
    :func:`build_edge_inputs`) and every diagnoser of that snapshot reads
    the same object, so it is read-only: never mutate its sets, maps or
    graph.
    """

    failure_sets: Dict[Pair, TokenSet]
    working_excluded: TokenSet
    reroute_map: Dict[Pair, TokenSet]
    graph: InferredGraph
    partial_exonerated: TokenSet = frozenset()
    logical_clusters: Dict[LinkToken, TokenSet] = None  # type: ignore[assignment]

    def excluded(self) -> TokenSet:
        """Combined exoneration set from edge data."""
        return self.working_excluded | self.partial_exonerated

    def cluster_of(self, token: LinkToken) -> TokenSet:
        """Same-physical-link logical siblings of ``token`` (see
        :func:`physical_clusters`)."""
        if not self.logical_clusters:
            return frozenset()
        return self.logical_clusters.get(token, frozenset())


def physical_clusters(
    token_sets: Iterable[Iterable[LinkToken]],
) -> Dict[LinkToken, TokenSet]:
    """Cluster logical tokens that annotate the same directed physical link.

    A physical failure of an interdomain link breaks *every* logical link
    over it, but each failed/rerouted path contributes evidence under its
    own destination-dependent tag.  Without aggregation the link's greedy
    score fragments across tags while intradomain links (untagged)
    accumulate theirs — and the true link loses ties it must win (the
    paper's near-one ND-edge sensitivity is unreachable otherwise; see
    ``DESIGN.md`` §5).  Scoring therefore groups logical tokens by
    (src, dst); *exclusion stays tag-exact*, which is what preserves the
    misconfiguration feature of §3.1.
    """
    groups: Dict[tuple, Set[LinkToken]] = {}
    for tokens in token_sets:
        for token in tokens:
            if isinstance(token, LogicalLink):
                groups.setdefault((token.src, token.dst), set()).add(token)
    clusters: Dict[LinkToken, TokenSet] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        for token in members:
            clusters[token] = frozenset(members - {token})
    return clusters


def build_edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool = False,
    drop_unidentified_from_failures: bool = False,
) -> EdgeInputs:
    """Derive the logical-granularity greedy inputs from a snapshot.

    ``drop_unidentified_from_failures`` implements the "ND-bgpigp simply
    ignores any unidentified link" behaviour of §5.4's comparison: failure
    sets keep identified tokens only (ND-LG keeps them and clusters them
    instead).

    Memoized on the snapshot per flag combination: every diagnoser of one
    snapshot shares the returned (read-only) :class:`EdgeInputs`.
    """
    key = (use_partial_traces, drop_unidentified_from_failures)
    memo = snapshot.edge_inputs_memo
    if key not in memo:
        memo[key] = _edge_inputs(snapshot, *key)
    return memo[key]


def _edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool,
    drop_unidentified_from_failures: bool,
) -> EdgeInputs:
    asn_of = snapshot.asn_of
    tokens_of = snapshot.view.logical

    # One pass over both rounds: the graph G (T- and T+ coverage) and the
    # failure/working sets from the same token tuples.
    graph = InferredGraph()
    pre: Dict[Pair, Tuple[LinkToken, ...]] = {}
    for path in snapshot.before.paths():
        pre[path.pair] = tokens = tokens_of(path)
        graph.add_path(path.pair, tokens)
    working: Set[LinkToken] = set()
    for path in snapshot.after.paths():
        tokens = tokens_of(path)
        graph.add_path(path.pair, tokens)
        if path.reached:
            working.update(tokens)

    failure_sets: Dict[Pair, TokenSet] = {}
    for pair in snapshot.failed_pairs():
        tokens = pre[pair]
        if drop_unidentified_from_failures:
            tokens = tuple(t for t in tokens if t.identified)
        if tokens:
            failure_sets[pair] = frozenset(tokens)

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

    reroute_map = reroute_sets(snapshot, logical=True)
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


def nd_edge(
    snapshot: MeasurementSnapshot,
    failure_weight: int = 1,
    reroute_weight: int = 1,
    use_partial_traces: bool = False,
) -> DiagnosisResult:
    """Run ND-edge on a measurement snapshot."""
    inputs = build_edge_inputs(snapshot, use_partial_traces=use_partial_traces)
    outcome = greedy_hitting_set(
        list(inputs.failure_sets.values()),
        reroute_sets=list(inputs.reroute_map.values()),
        excluded=inputs.excluded(),
        failure_weight=failure_weight,
        reroute_weight=reroute_weight,
        cluster_of=inputs.cluster_of,
    )
    return DiagnosisResult(
        algorithm="nd-edge",
        hypothesis=outcome.hypothesis,
        graph=inputs.graph,
        excluded=inputs.excluded(),
        unexplained_failures=outcome.unexplained_failures,
        unexplained_reroutes=outcome.unexplained_reroutes,
        details={
            "failure_sets": len(inputs.failure_sets),
            "reroute_sets": len(inputs.reroute_map),
            "partial_exonerated": len(inputs.partial_exonerated),
            "iterations": outcome.iterations,
        },
    )
