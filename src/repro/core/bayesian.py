"""Bayesian fault localisation baseline (Shrink/Steinder lineage).

The paper's related work (§7) singles out a family of Bayesian approaches
— Shrink [Kandula et al. 2005], belief networks [Steinder & Sethi 2004],
and "the state of the art in this area" [Nguyen & Thiran 2007] — that
assume *known link failure probabilities*, in contrast to NetDiagnoser's
probability-free minimum-hypothesis principle.  This module implements
that comparator so the trade-off can be measured instead of cited:

* each link token fails independently with a prior probability given by a
  caller-supplied ``prior_fn`` (uniform by default; a deployment would
  learn per-link rates from history, which is exactly the [23] idea);
* a failed path is observed iff at least one of its links failed
  (noisy-OR with a small leak ε for measurement noise);
* working paths assert all their links are up;
* inference is Shrink's greedy MAP search: repeatedly add the link with
  the largest positive log-posterior gain

      gain(l) = Σ_{unexplained failed paths ∋ l} log(1/ε) + log(p_l / (1 - p_l))

  and stop when no candidate improves the posterior.

With uniform priors and tiny ε this degenerates towards the greedy
Minimum Hitting Set (every unexplained path dominates the prior penalty),
which is precisely the paper's observation that its approach "only
assume[s] that the smallest set of potentially failed links is most likely
to explain the observations".  Non-uniform priors let operators encode
knowledge NetDiagnoser cannot express — the ablation bench quantifies
both directions.
"""

from __future__ import annotations

import math
from typing import Callable, FrozenSet, List, Optional, Set

from repro.core.graph import InferredGraph
from repro.core.linkspace import LinkToken
from repro.core.linkspace import sort_key
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult
from repro.errors import DiagnosisError

__all__ = ["uniform_prior", "bayesian_diagnosis"]

#: Leak probability: a path may be observed down with no failed link
#: (measurement noise).  Small enough that explaining paths dominates.
DEFAULT_LEAK = 1e-3


def uniform_prior(probability: float = 0.01) -> Callable[[LinkToken], float]:
    """A prior assigning the same failure probability to every link."""
    if not 0.0 < probability < 0.5:
        raise DiagnosisError(
            "a link failure prior must be in (0, 0.5): failures are rare"
        )

    def prior(_token: LinkToken) -> float:
        return probability

    return prior


def bayesian_diagnosis(
    snapshot: MeasurementSnapshot,
    prior_fn: Optional[Callable[[LinkToken], float]] = None,
    leak: float = DEFAULT_LEAK,
    use_post_failure_paths: bool = True,
    max_hypothesis: int = 32,
) -> DiagnosisResult:
    """Shrink-style greedy MAP fault localisation.

    Operates at physical (directed) granularity on the same snapshot the
    other algorithms consume.  ``use_post_failure_paths`` selects whether
    working constraints come from the current (T+) paths, matching
    ND-edge's information, or the stale T- paths, matching Tomo's.
    """
    prior = prior_fn or uniform_prior()
    if not 0.0 < leak < 1.0:
        raise DiagnosisError("leak probability must be in (0, 1)")

    links_of = snapshot.view.physical
    failure_sets: List[FrozenSet[LinkToken]] = [
        frozenset(links_of(snapshot.before.get(pair)))
        for pair in snapshot.failed_pairs()
    ]
    working: Set[LinkToken] = set()
    working_store = snapshot.after if use_post_failure_paths else snapshot.before
    for pair in snapshot.working_pairs():
        working.update(links_of(working_store.get(pair)))

    candidates: Set[LinkToken] = set()
    for failure_set in failure_sets:
        candidates |= failure_set
    candidates -= working

    def log_odds(token: LinkToken) -> float:
        p = prior(token)
        if not 0.0 < p < 1.0:
            raise DiagnosisError(f"prior for {token} must be in (0, 1), got {p}")
        return math.log(p / (1.0 - p))

    explain_reward = math.log(1.0 / leak)
    hypothesis: Set[LinkToken] = set()
    unexplained = list(failure_sets)
    while unexplained and candidates and len(hypothesis) < max_hypothesis:
        best_token, best_gain = None, 0.0
        for token in sorted(candidates, key=sort_key):
            hits = sum(1 for s in unexplained if token in s)
            if not hits:
                continue
            gain = hits * explain_reward + log_odds(token)
            if gain > best_gain:
                best_token, best_gain = token, gain
        if best_token is None:
            break  # no candidate improves the posterior
        hypothesis.add(best_token)
        candidates.discard(best_token)
        unexplained = [s for s in unexplained if best_token not in s]

    graph = InferredGraph.from_paths(snapshot.before.paths(), links_of)
    if use_post_failure_paths:
        graph = graph.merge(
            InferredGraph.from_paths(snapshot.after.paths(), links_of)
        )
    return DiagnosisResult(
        algorithm="bayesian",
        hypothesis=frozenset(hypothesis),
        graph=graph,
        excluded=frozenset(working),
        unexplained_failures=tuple(unexplained),
        details={
            "failure_sets": len(failure_sets),
            "leak": leak,
            "max_hypothesis": max_hypothesis,
        },
    )
