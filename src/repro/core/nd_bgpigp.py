"""ND-bgpigp: NetDiagnoser with AS-X's routing data (§3.3).

Two control-plane signals refine the edge-only diagnosis:

* **IGP link-down messages** directly identify dead intradomain links of
  AS-X — they are *preseeded* into the hypothesis set before the greedy
  loop runs;
* **BGP withdrawals**: a withdrawal for prefix P received over the eBGP
  session (x, n) proves the announcement was lost *beyond* n, so on every
  failed path towards a destination in P that crosses x→n, the links from
  the source up to the session are exonerated (the paper's example removes
  y4-y1, y1-x2, x2-x1 and x1-a2 from H).

Two refinements over the paper's one-sentence rule, both needed to keep
its "same sensitivity, better specificity" result:

* exoneration prunes the *failure set of that path*, not the global
  candidate pool — under multiple simultaneous failures a second failed
  link may sit upstream on the withdrawn path, and other paths' evidence
  against it must survive;
* the session link itself is *not* pruned (the paper's example removes
  x1-a2 too): an export-filter misconfiguration at the neighbour router is
  observationally identical to a forwarded withdrawal, so pruning the
  session's logical token would reintroduce false negatives for exactly
  the §3.1 failures NetDiagnoser exists to catch.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set

from repro.core.control_plane import ControlPlaneView
from repro.core.hitting_set import greedy_hitting_set
from repro.core.linkspace import LinkToken, ip_link
from repro.core.nd_edge import EdgeInputs, build_edge_inputs
from repro.core.pathset import MeasurementSnapshot, Pair, ProbePath
from repro.core.result import DiagnosisResult

__all__ = ["nd_bgpigp", "withdrawal_exonerations", "igp_preseed"]

TokenSet = FrozenSet[LinkToken]


def igp_preseed(
    control: ControlPlaneView, inputs: EdgeInputs
) -> TokenSet:
    """Hypothesis preseed from IGP link-down messages.

    Only links that actually appear in the probed graph enter H: a dead
    link no probe ever crossed explains nothing and would only depress
    specificity.
    """
    preseed: Set[LinkToken] = set()
    for event in control.igp_link_down:
        # The IGP message names a link, not a direction: seed whichever
        # directed tokens the probes actually crossed.
        for token in (
            ip_link(event.address_a, event.address_b),
            ip_link(event.address_b, event.address_a),
        ):
            if token in inputs.graph:
                preseed.add(token)
    return frozenset(preseed)


def withdrawal_exonerations(
    control: ControlPlaneView,
    snapshot: MeasurementSnapshot,
    failure_sets: Dict[Pair, TokenSet],
) -> Dict[Pair, TokenSet]:
    """Per-pair token removals implied by the §3.3 withdrawal rule.

    For each withdrawal (prefix P on session x→n) and each failed pair
    whose destination lies in P and whose T- path crosses the hop pair
    (x, n) in the forward direction, the tokens of that path strictly
    before the crossing are removed from *that pair's* failure set (see
    the module docstring for why the pruning is per-path and excludes the
    session token).
    """
    removals: Dict[Pair, Set[LinkToken]] = {}
    for withdrawal in control.withdrawals:
        for pair in failure_sets:
            _src, dst = pair
            if not withdrawal.covers(dst):
                continue
            path = snapshot.before.get(pair)
            crossing = _crossing_index(
                path, withdrawal.at_address, withdrawal.from_address
            )
            if crossing is None:
                continue
            tokens = snapshot.view.logical(path)
            removals.setdefault(pair, set()).update(tokens[:crossing])
    return {pair: frozenset(tokens) for pair, tokens in removals.items()}


def _crossing_index(
    path: ProbePath, at_address: str, from_address: str
) -> Optional[int]:
    """Index k such that hops[k] == at_address and hops[k+1] == from_address
    (the data-plane direction matching an announcement n -> x)."""
    for index, (u, v) in enumerate(zip(path.hops, path.hops[1:])):
        if u == at_address and v == from_address:
            return index
    return None


def nd_bgpigp(
    snapshot: MeasurementSnapshot,
    control: ControlPlaneView,
    failure_weight: int = 1,
    reroute_weight: int = 1,
    use_partial_traces: bool = False,
    ignore_unidentified: bool = False,
) -> DiagnosisResult:
    """Run ND-bgpigp: ND-edge plus AS-X's IGP and BGP observations.

    ``ignore_unidentified`` reproduces the §5.4 comparison baseline that
    "simply ignores any unidentified link in traceroute paths".
    """
    inputs = build_edge_inputs(
        snapshot,
        use_partial_traces=use_partial_traces,
        drop_unidentified_from_failures=ignore_unidentified,
    )
    preseed = igp_preseed(control, inputs)
    removals = withdrawal_exonerations(control, snapshot, inputs.failure_sets)
    excluded = inputs.excluded() - preseed

    pruned_sets = []
    pruned_tokens = 0
    for pair, failure_set in inputs.failure_sets.items():
        removed = removals.get(pair, frozenset()) - preseed
        pruned = failure_set - removed
        pruned_tokens += len(failure_set) - len(pruned)
        pruned_sets.append(pruned if pruned else failure_set)

    outcome = greedy_hitting_set(
        pruned_sets,
        reroute_sets=list(inputs.reroute_map.values()),
        excluded=excluded,
        preseed=preseed,
        failure_weight=failure_weight,
        reroute_weight=reroute_weight,
        cluster_of=inputs.cluster_of,
    )
    return DiagnosisResult(
        algorithm="nd-bgpigp",
        hypothesis=outcome.hypothesis,
        graph=inputs.graph,
        excluded=excluded,
        unexplained_failures=outcome.unexplained_failures,
        unexplained_reroutes=outcome.unexplained_reroutes,
        details={
            "failure_sets": len(inputs.failure_sets),
            "reroute_sets": len(inputs.reroute_map),
            "igp_preseeded": len(preseed),
            "withdrawal_exonerated": pruned_tokens,
            "iterations": outcome.iterations,
        },
    )
