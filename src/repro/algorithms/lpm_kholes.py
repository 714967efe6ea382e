"""Exact k-holes longest-prefix-match construction (paper Section 3.2.5).

Optimal longest-prefix-match construction is hard because bucket
decisions interact globally (Figure 7).  The paper restricts the search
to functions in which every bucket has at most ``k`` direct nested
buckets ("holes") — any b-bucket solution can be converted into a
k-holes solution with at most ``b * (1 + floor(b / (k - 1)))`` buckets
without increasing error for super-additive metrics (Figure 8), so the
restricted optimum carries an approximation guarantee.

The restricted problem still takes at least cubic time; this module is
intended for small hierarchies (tests, the A6 ablation bench, and as an
*exact LPM oracle* when ``k`` is as large as the budget).  The search
enumerates, for every node that becomes a bucket, every antichain of at
most ``k`` pruned descendants as its direct holes, splitting the budget
among them with the usual ``(min, +)`` knapsack.

:func:`split_to_k_holes` implements the Figure 8 conversion, used to
validate the approximation argument.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.domain import UIDDomain
from ..core.errors import PenaltyMetric
from ..core.hierarchy import PrunedHierarchy
from ..core.partition import Bucket, LongestPrefixMatchPartitioning
from ..obs import span
from .base import INF, ConstructionResult, DPContext
from .kernels import knapsack_merge

__all__ = ["build_lpm_kholes", "split_to_k_holes"]

#: Refuse exact search beyond this many pruned nodes — the enumeration
#: is exponential in practice and the paper itself deems it prohibitive
#: at scale (use the greedy or quantized heuristics instead).
MAX_NODES = 80


def build_lpm_kholes(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    k: int = 2,
    sparse: bool = True,
) -> ConstructionResult:
    """Optimal longest-prefix-match function with at most ``k`` direct
    holes per bucket.

    With ``k >= budget - 1`` the hole restriction is vacuous and the
    result is the true optimal longest-prefix-match function (over
    functions whose top-level bucket encloses all groups).
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if len(hierarchy) > MAX_NODES:
        raise ValueError(
            f"k-holes exact search limited to {MAX_NODES} pruned nodes "
            f"(got {len(hierarchy)}); use the greedy or quantized "
            "heuristics at scale"
        )
    ctx = DPContext(hierarchy, metric)
    solver = _KHolesSolver(hierarchy, metric, ctx, budget, k, sparse)
    root = len(hierarchy) - 1
    with span(
        "lpm_kholes.search", budget=budget, k=k,
        nodes=len(hierarchy),
    ) as sp:
        table = solver.bucket_table(root)
        sp.annotate(antichains=solver.antichains_examined)
    curve = np.full(budget + 1, INF)
    upto = min(budget, len(table) - 1)
    curve[1 : upto + 1] = ctx.finalize_curve(table[1 : upto + 1])
    best = INF
    for b in range(1, budget + 1):
        best = min(best, curve[b])
        curve[b] = best

    def make_function(b: int) -> LongestPrefixMatchPartitioning:
        buckets: List[Bucket] = []
        solver.collect(root, min(b, upto), buckets)
        return LongestPrefixMatchPartitioning(hierarchy.domain, buckets)

    return ConstructionResult(
        make_function=make_function, curve=curve, budget=budget,
        stats={"k": float(k)},
    )


class _KHolesSolver:
    """Memoized search over bucket nodes and their hole antichains,
    nodes addressed by postorder index."""

    def __init__(self, hierarchy, metric, ctx, budget, k, sparse) -> None:
        self.hierarchy = hierarchy
        self.metric = metric
        self.ctx = ctx
        self.budget = budget
        self.k = k
        self.sparse = sparse
        self.antichains_examined = 0
        self._tables: Dict[int, np.ndarray] = {}
        self._choices: Dict[int, List[Optional[Tuple]]] = {}
        self._node = hierarchy.arrays.node.tolist()
        self._size = hierarchy.arrays.size.tolist()
        self._n_groups = hierarchy.arrays.n_groups.tolist()
        self._n_nonzero = hierarchy.arrays.n_nonzero.tolist()
        self._tuples = hierarchy.tuples.tolist()

    # -- structure helpers ---------------------------------------------
    def descendants(self, i: int) -> range:
        """The strict descendants of node ``i`` in right-first preorder:
        its postorder interval, reversed."""
        return range(i - 1, i - self._size[i], -1)

    def antichains(self, i: int) -> List[Tuple[int, ...]]:
        """All antichains of up to ``k`` strict pruned descendants."""
        desc = self.descendants(i)
        out: List[Tuple[int, ...]] = [()]
        for size in range(1, min(self.k, len(desc)) + 1):
            for combo in combinations(desc, size):
                if _is_antichain([self._node[j] for j in combo]):
                    out.append(combo)
        return out

    # -- penalty of a holey region ---------------------------------------
    def region_penalty(
        self, i: int, holes: Sequence[int], density: float
    ) -> float:
        """Penalty of estimating the groups below node ``i`` but outside
        the hole subtrees at the given density."""
        lo, hi = self.ctx.leaf_lo[i], self.ctx.leaf_hi[i]
        mask = np.ones(hi - lo, dtype=bool)
        for h in holes:
            mask[self.ctx.leaf_lo[h] - lo : self.ctx.leaf_hi[h] - lo] = False
        if not mask.any():
            return 0.0
        pens = self.metric.penalty_array(self.ctx.leaf_actual[lo:hi][mask], density)
        if self.metric.combine == "sum":
            return float(pens @ self.ctx.leaf_weight[lo:hi][mask])
        return float(pens.max())

    # -- the DP -----------------------------------------------------------
    def bucket_table(self, i: int) -> np.ndarray:
        """``table[B]`` = best penalty for node ``i``'s subtree with
        ``i`` a bucket and ``B`` buckets at or below it, each bucket
        ≤ k holes."""
        if i in self._tables:
            return self._tables[i]
        cap = min(self.budget, self._size[i])
        table = np.full(cap + 1, INF)
        choices: List[Optional[Tuple]] = [None] * (cap + 1)
        if self.sparse and self._n_nonzero[i] <= 1:
            table[1] = 0.0
            choices[1] = ("sparse",)
        n_groups, tuples = self._n_groups, self._tuples
        for holes in self.antichains(i):
            self.antichains_examined += 1
            if not holes:
                pen = self.region_penalty(
                    i, (), self.hierarchy.densities[i]
                )
                if pen < table[1]:
                    table[1] = pen
                    choices[1] = ("holes", ())
                continue
            g_net = n_groups[i] - sum(n_groups[h] for h in holes)
            t_net = tuples[i] - sum(tuples[h] for h in holes)
            density = (t_net / g_net) if g_net > 0 else 0.0
            pen_self = self.region_penalty(i, holes, density)
            # Combine hole budget tables with a knapsack.
            acc = np.asarray([0.0])
            allocs: List[np.ndarray] = []
            for h in holes:
                ht = self.bucket_table(h)
                acc, choice = knapsack_merge(
                    acc, ht, self.budget - 1, self.metric.combine
                )
                allocs.append(choice)
            for B_holes in range(len(holes), len(acc)):
                if acc[B_holes] == INF:
                    continue
                total = self.metric.combine_totals(pen_self, acc[B_holes])
                B = B_holes + 1
                if B <= cap and total < table[B]:
                    table[B] = total
                    table_alloc = _unwind_alloc(allocs, B_holes)
                    choices[B] = ("holes", tuple(zip(holes, table_alloc)))
        self._tables[i] = table
        self._choices[i] = choices
        return table

    def collect(self, i: int, b: int, out: List[Bucket]) -> None:
        table = self.bucket_table(i)
        node = self._node[i]
        b = min(b, len(table) - 1)
        # Use the best feasible entry at or below b.
        feasible = [B for B in range(1, b + 1) if table[B] < INF]
        if not feasible:
            out.append(Bucket(node))
            return
        B = min(feasible, key=lambda B: (table[B], B))
        choice = self._choices[i][B]
        if choice == ("sparse",):
            leaf = self.hierarchy.single_nonzero_leaf(i)
            if leaf is not None and leaf != node:
                out.append(Bucket(node, sparse_group_node=leaf))
            else:
                out.append(Bucket(node))
            return
        out.append(Bucket(node))
        _kind, holes = choice
        for h, bh in holes:
            self.collect(h, bh, out)


def _unwind_alloc(allocs: List[np.ndarray], total: int) -> List[int]:
    """Recover per-hole budgets from the chained knapsack choices."""
    out: List[int] = []
    for choice in reversed(allocs):
        idx = min(total, len(choice) - 1)
        c = int(choice[idx])
        out.append(total - c)
        total = c
    out.reverse()
    return out


def _is_antichain(nodes: Sequence[int]) -> bool:
    """Whether no virtual node id in ``nodes`` is an ancestor of
    another."""
    for a, b in combinations(nodes, 2):
        if UIDDomain.is_ancestor(a, b) or UIDDomain.is_ancestor(b, a):
            return False
    return True


def split_to_k_holes(
    function: LongestPrefixMatchPartitioning,
    k: int,
) -> LongestPrefixMatchPartitioning:
    """The Figure 8 conversion: split buckets until every bucket has at
    most ``k`` direct holes, adding intermediate bucket nodes.

    For super-additive error metrics the conversion does not increase
    the overall error; it adds at most ``floor(b / (k - 1))`` buckets.
    """
    if k < 2:
        raise ValueError(f"the splitting argument requires k >= 2, got {k}")
    domain = function.domain
    buckets = {b.node: b for b in function.buckets}

    def direct_holes(node: int) -> List[int]:
        out = []
        for other in buckets:
            if other == node or not UIDDomain.is_ancestor(node, other):
                continue
            # direct = no third bucket strictly between
            if not any(
                third != node and third != other
                and UIDDomain.is_ancestor(node, third)
                and UIDDomain.is_ancestor(third, other)
                for third in buckets
            ):
                out.append(other)
        return out

    changed = True
    while changed:
        changed = False
        for node in list(buckets):
            holes = direct_holes(node)
            if len(holes) <= k:
                continue
            new_node = _splitting_node(domain, node, holes, buckets)
            if new_node is None:
                break  # cannot split further (defensive)
            buckets[new_node] = Bucket(new_node)
            changed = True
            break
    return LongestPrefixMatchPartitioning(domain, list(buckets.values()))


def _splitting_node(
    domain: UIDDomain, node: int, holes: List[int], existing: Dict[int, Bucket]
) -> Optional[int]:
    """A proper descendant of ``node`` capturing at least two (but not
    all) of its holes, to serve as a new intermediate bucket."""
    current = node
    remaining = list(holes)
    while True:
        l, r = UIDDomain.children(current)
        left = [h for h in remaining if UIDDomain.is_ancestor(l, h)]
        right = [h for h in remaining if UIDDomain.is_ancestor(r, h)]
        side, nodes_side = max(
            ((l, left), (r, right)), key=lambda t: len(t[1])
        )
        other = left if nodes_side is right else right
        if other and len(nodes_side) >= 2:
            if side not in existing and side not in nodes_side:
                return side
            # The natural split point exists already; descend into it.
            current, remaining = side, nodes_side
            continue
        if len(nodes_side) == len(remaining):
            if side in nodes_side:
                return None
            current = side
            continue
        return None
