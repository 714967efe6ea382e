"""Greedy longest-prefix-match heuristic (paper Section 3.2.6).

Choosing an optimal longest-prefix-match function is hard because every
bucket decision interacts with every other (Figure 7).  The greedy
heuristic sidesteps this with the independence observation behind
overlapping functions: adding a hole to an overlapping partition does
not change the error of groups outside the hole.  Good overlapping
bucket nodes therefore tend to be good longest-prefix-match bucket
nodes.

The heuristic:

1. run the optimal overlapping DP (Section 3.2.3), optionally with an
   over-provisioned budget (``overprovision`` times the target) so
   there is a pool to select from;
2. score every bucket by its *bucket approximation error* — the error
   of the groups that map to it, estimated at its overlapping density;
3. keep the ``b`` best-scoring buckets (the root is always kept, since
   every identifier needs an enclosing bucket) and reinterpret them as
   a longest-prefix-match function.

``rank="error"`` reproduces the paper's wording (keep the buckets that
approximate their own groups best); ``rank="benefit"`` keeps the
buckets whose presence improves most over their enclosing bucket's
density — a natural alternative exposed for ablation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.compiled import closest_enclosing
from ..core.domain import UIDDomain
from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy
from ..core.partition import Bucket, LongestPrefixMatchPartitioning
from ..obs import span
from .base import ConstructionResult, curve_points, measured_curve
from .overlapping import OverlappingDP

__all__ = ["build_lpm_greedy", "bucket_approx_errors"]


def _bucket_assignment(
    hierarchy: PrunedHierarchy, buckets: List[Bucket]
) -> Tuple[Dict[int, float], Dict[int, np.ndarray]]:
    """Closest-selected-ancestor assignment of groups to bucket nodes.

    Returns per-node overlapping densities and, for every bucket node
    that owns at least one group, the (sorted) group indices assigned
    to it.  The assignment is the compiled
    :func:`~repro.core.compiled.closest_enclosing`; one stable argsort
    over it yields member indices in ascending group order, exactly the
    order a per-bucket mask gathers them in, so downstream penalty sums
    are bit-for-bit unchanged.
    """
    counts = hierarchy.counts
    nodes = [b.node for b in buckets]
    first, last, slot = closest_enclosing(hierarchy.table, nodes)
    density: Dict[int, float] = {}
    for node, lo, hi in zip(nodes, first.tolist(), last.tolist()):
        density[node] = (
            float(counts[lo:hi].sum()) / (hi - lo) if hi > lo else 0.0
        )
    order = np.argsort(slot, kind="stable")
    edges = np.searchsorted(slot[order], np.arange(len(nodes) + 1)).tolist()
    members: Dict[int, np.ndarray] = {
        nodes[k]: order[edges[k]:edges[k + 1]]
        for k in range(len(nodes))
        if edges[k + 1] > edges[k]
    }
    return density, members


def bucket_approx_errors(
    hierarchy: PrunedHierarchy,
    buckets: List[Bucket],
    metric: PenaltyMetric,
) -> Dict[int, float]:
    """Overlapping bucket approximation error per bucket node.

    For each bucket, the aggregate penalty of the groups whose closest
    selected ancestor it is, estimated at the bucket's (overlapping)
    density.  Sparse buckets score zero — they are exact.
    """
    counts = hierarchy.counts
    sparse_nodes = {b.node for b in buckets if b.is_sparse}
    density, members = _bucket_assignment(hierarchy, buckets)
    errors: Dict[int, float] = {}
    for b in buckets:
        node = b.node
        sel = members.get(node)
        if node in sparse_nodes or sel is None:
            errors[node] = 0.0
            continue
        pens = metric.penalty_array(counts[sel], density[node])
        errors[node] = (
            float(pens.sum()) if metric.combine == "sum" else float(pens.max())
        )
    return errors


def build_lpm_greedy(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    overprovision: float = 1.0,
    rank: str = "error",
    sparse: bool = True,
    dp: Optional[OverlappingDP] = None,
    curve_budgets: Optional[List[int]] = None,
) -> ConstructionResult:
    """Construct a longest-prefix-match function with the greedy
    heuristic.

    Parameters
    ----------
    overprovision:
        Budget multiplier for the underlying overlapping run.  At the
        default 1.0 the heuristic keeps the whole overlapping bucket
        set and only the interpretation changes (the reading that
        matches the paper's results: longest-prefix-match semantics net
        holes out of parent densities).  Larger values build a bigger
        pool and prune back to the target budget by rank — exposed for
        ablation; note that dropping high-error buckets re-routes their
        groups to coarser ancestors, which usually hurts.
    rank:
        ``"error"`` (paper: keep buckets with the lowest bucket
        approximation error) or ``"benefit"`` (keep buckets improving
        most over their enclosing bucket).
    dp:
        An already-solved :class:`OverlappingDP` to reuse (must have
        been run with a budget of at least ``overprovision * budget``).
    curve_budgets:
        Budgets at which to evaluate the error curve (default: every
        budget).  Sweeps over a few budget points pass their grid here
        to skip hundreds of intermediate evaluations.

    The returned curve is the *measured* longest-prefix-match error of
    the selected set at each budget (heuristics carry no optimality
    guarantee, so the honest number is the evaluated one).
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if rank not in ("error", "benefit"):
        raise ValueError(f"unknown ranking mode {rank!r}")
    pool_budget = max(budget, int(np.ceil(budget * overprovision)))
    if dp is None:
        with span("lpm_greedy.pool", budget=pool_budget):
            dp = OverlappingDP(hierarchy, metric, pool_budget, sparse=sparse)
    root_node = hierarchy.root_node
    cache: Dict[int, LongestPrefixMatchPartitioning] = {}
    pool_sizes: Dict[int, int] = {}

    def make_function(b: int) -> LongestPrefixMatchPartitioning:
        """The greedy function for budget ``b``: the overlapping
        optimum for (up to) ``overprovision * b`` buckets, pruned back
        to ``b`` by rank and reinterpreted under longest-prefix-match
        semantics."""
        b = max(1, b)
        if b in cache:
            return cache[b]
        pool_b = max(b, min(pool_budget, int(np.ceil(b * overprovision))))
        pool = dp.buckets_for_budget(pool_b)
        pool_sizes[b] = len(pool)
        chosen = pool
        if len(pool) > b:
            if rank == "error":
                scores = bucket_approx_errors(hierarchy, pool, metric)
                order = sorted(
                    (x for x in pool if x.node != root_node),
                    key=lambda x: (scores[x.node], UIDDomain.depth(x.node)),
                )
            else:
                scores = _benefit_scores(hierarchy, pool, metric)
                order = sorted(
                    (x for x in pool if x.node != root_node),
                    key=lambda x: (-scores[x.node], UIDDomain.depth(x.node)),
                )
            roots = [x for x in pool if x.node == root_node] or [
                Bucket(root_node)
            ]
            chosen = roots[:1] + order[: b - 1]
        cache[b] = LongestPrefixMatchPartitioning(hierarchy.domain, chosen)
        return cache[b]

    budgets = curve_points(budget, curve_budgets)
    with span(
        "lpm_greedy.curve", budget=budget, rank=rank,
        overprovision=overprovision,
    ) as sp:
        curve = measured_curve(
            hierarchy, metric, make_function, budget, budgets
        )
        sp.annotate(
            evaluations=len(budgets),
            pool=max(pool_sizes.values(), default=0),
        )

    return ConstructionResult(
        make_function=make_function,
        curve=curve,
        budget=budget,
        stats={"pool": float(max(pool_sizes.values(), default=0))},
    )


def _benefit_scores(
    hierarchy: PrunedHierarchy,
    buckets: List[Bucket],
    metric: PenaltyMetric,
) -> Dict[int, float]:
    """Improvement each bucket brings over its enclosing bucket's
    density, under the overlapping independence assumption."""
    counts = hierarchy.counts
    node_set = {b.node for b in buckets}
    density, members = _bucket_assignment(hierarchy, buckets)
    own = bucket_approx_errors(hierarchy, buckets, metric)
    benefits: Dict[int, float] = {}
    for b in buckets:
        node = b.node
        parent = next(
            (a for a in UIDDomain.ancestors(node) if a in node_set), None
        )
        sel = members.get(node)
        if parent is None or sel is None:
            benefits[node] = 0.0
            continue
        pens = metric.penalty_array(counts[sel], density[parent])
        at_parent = (
            float(pens.sum()) if metric.combine == "sum" else float(pens.max())
        )
        benefits[node] = at_parent - own[node]
    return benefits
