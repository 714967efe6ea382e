"""Shared dynamic-programming machinery (paper Section 3.1).

All of the paper's construction algorithms traverse the (pruned) UID
hierarchy bottom-up, maintaining per-node tables indexed by a bucket
budget, and combine child tables by splitting the budget — a
``(min, +)`` (or ``(min, max)`` for max-combine metrics) convolution.
This module provides:

* :func:`knapsack_merge` — the budget-splitting convolution with
  argmin tracking for solution reconstruction (re-exported from
  :mod:`repro.algorithms.kernels`, which holds the broadcast kernel
  and the naive reference it is tested against), bounded by per-subtree
  bucket capacities (the classic tree-knapsack bound that keeps total
  work near ``O(|G| b)``);
* :class:`DPContext` — postorder leaf arrays over a
  :class:`~repro.core.hierarchy.PrunedHierarchy` that evaluate
  ``grperr`` (the error of estimating every group in a subtree at a
  fixed density) in one vectorized pass, including the O(1)
  contribution of empty regions (Section 4.3).  Batched evaluation
  over many densities (:meth:`DPContext.grperr_many`,
  :meth:`DPContext.grperr_rows`) serves the overlapping DP's ancestor
  rows.  In the ``"fast"`` kernel mode every
  batched path is bit-for-bit identical to the ``"naive"`` per-slice
  reference;
* :class:`ConstructionResult` — a constructed partitioning function
  together with the full budget/error curve (one DP run yields the
  optimal error for *every* budget up to the requested one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.compiled import evaluate_closest
from ..core.errors import PenaltyMetric
from ..core.estimate import evaluate_function
from ..core.hierarchy import PNode, PrunedHierarchy
from ..core.partition import PartitioningFunction
from .kernels import INF, kernel_mode, knapsack_merge

__all__ = [
    "INF",
    "knapsack_merge",
    "DPContext",
    "ConstructionResult",
    "curve_points",
    "measured_curve",
]


@dataclass
class ConstructionResult:
    """Output of a construction algorithm.

    Attributes
    ----------
    make_function:
        Callable mapping a budget ``B`` (``1 <= B <= budget``) to the
        best partitioning function found for that budget.
    curve:
        ``curve[B]`` is the algorithm's error for budget ``B``
        (``inf`` where infeasible, e.g. budgets too small to cut the
        hierarchy); ``curve[0]`` is always ``inf``/unused.
    budget:
        The largest budget the curve covers.
    """

    make_function: Callable[[int], object]
    curve: np.ndarray
    budget: int
    stats: Dict[str, float] = field(default_factory=dict)

    def error_at(self, b: int) -> float:
        """Best error using at most ``b`` buckets."""
        b = min(b, self.budget)
        if b < 1:
            return INF
        return float(np.min(self.curve[1 : b + 1]))

    def best_budget(self, b: int) -> int:
        """The budget ``<= b`` achieving :meth:`error_at`."""
        b = min(b, self.budget)
        return int(np.argmin(self.curve[1 : b + 1])) + 1

    def function_at(self, b: int):
        """The best partitioning function using at most ``b`` buckets."""
        return self.make_function(self.best_budget(b))


def curve_points(
    budget: int, curve_budgets: Optional[Sequence[int]] = None
) -> List[int]:
    """The budgets a heuristic measures its curve at: every budget up
    to ``budget``, or the given grid clamped into ``[1, budget]``."""
    if curve_budgets is None:
        return list(range(1, budget + 1))
    return sorted({min(budget, max(1, b)) for b in curve_budgets})


def measured_curve(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    make_function: Callable[[int], PartitioningFunction],
    budget: int,
    budgets: Sequence[int],
) -> np.ndarray:
    """A heuristic's error curve: the *measured* error of
    ``make_function(b)`` at each of ``budgets``, as a running minimum
    over ``1..budget`` (``inf`` before the first measured budget).

    Under the ``"fast"`` kernel mode each measurement is the compiled
    :func:`~repro.core.compiled.evaluate_closest`; under ``"naive"`` it
    is the reference :func:`~repro.core.estimate.evaluate_function`.
    The two are bit-identical, so both modes install the same function.
    """
    table, counts = hierarchy.table, hierarchy.counts
    evaluate = (
        evaluate_function if kernel_mode() == "naive" else evaluate_closest
    )
    curve = np.full(budget + 1, INF)
    for b in budgets:
        curve[b] = evaluate(table, counts, make_function(b), metric)
    best = INF
    for b in range(1, budget + 1):
        best = min(best, curve[b])
        curve[b] = best
    return curve


def _length_groups(lengths: np.ndarray):
    """Yield ``(rows, length)`` for each distinct value of ``lengths``
    (ascending), ``rows`` the positions holding it."""
    order = np.argsort(lengths, kind="stable")
    cuts = np.flatnonzero(np.diff(lengths[order])) + 1
    for rows in np.split(order, cuts):
        if rows.size:
            yield rows, int(lengths[rows[0]])


class DPContext:
    """Vectorized ``grperr`` evaluation over a pruned hierarchy.

    The pruned hierarchy's postorder places the leaves of every subtree
    in a contiguous slice, so the error of estimating all groups below
    a node at one density is a single vectorized penalty computation:
    group leaves contribute ``penalty(count, density)`` each, and a
    zero node summarizing ``z`` empty groups contributes
    ``penalty(0, density)`` with weight ``z``.

    Parameters
    ----------
    hierarchy, metric:
        The pruned hierarchy and the penalty metric to evaluate.
    """

    def __init__(
        self, hierarchy: PrunedHierarchy, metric: PenaltyMetric
    ) -> None:
        if not isinstance(metric, PenaltyMetric):
            raise TypeError(
                "the dynamic programs run on PenaltyMetric instances; "
                "wrap exotic metrics or use the exhaustive oracle"
            )
        self.hierarchy = hierarchy
        self.metric = metric
        #: Whether batched/vectorized evaluation is active (everything
        #: but the ``"naive"`` reference mode).
        self.batched = kernel_mode() != "naive"
        # Leaf slots in postorder; every node's leaves are a contiguous
        # slice of them.
        arrays = hierarchy.arrays
        self.leaf_lo, self.leaf_hi = arrays.leaf_lo, arrays.leaf_hi
        self.leaf_actual = hierarchy.leaf_actual
        self.leaf_weight = arrays.leaf_weight
        # Per-node own-density errors, filled lazily on the first
        # grperr_own call in a batched mode (the nonoverlapping sweep
        # asks for every node's value; low-memory reconstruction asks
        # again per re-sweep, so the precompute amortizes further).
        self._own_err: Optional[np.ndarray] = None

    def grperr(self, pnode: PNode, density: float) -> float:
        """Aggregate penalty of estimating every group below ``pnode``
        (zeros included) at the given density."""
        lo, hi = self.leaf_lo[pnode.index], self.leaf_hi[pnode.index]
        if lo == hi:
            return 0.0
        pens = self.metric.penalty_array(self.leaf_actual[lo:hi], density)
        if self.metric.combine == "sum":
            return float(pens @ self.leaf_weight[lo:hi])
        return float(pens.max())

    def grperr_many(
        self, pnode: PNode, densities: Sequence[float]
    ) -> np.ndarray:
        """Batched :meth:`grperr` of one node at many densities.

        The overlapping DP evaluates every leaf against each of its
        O(log|U|) ancestor densities and the quantized heuristic
        against every density cell; batching turns those per-density
        calls into one vectorized evaluation.  Results are bit-for-bit
        identical to repeated :meth:`grperr` calls: single-leaf slices
        (the common case — group leaves and zero summaries are both one
        entry) broadcast the same elementwise operations, and longer
        slices fall back to one exact slice evaluation per density.
        """
        d = np.asarray(densities, dtype=np.float64)
        lo, hi = self.leaf_lo[pnode.index], self.leaf_hi[pnode.index]
        if lo == hi:
            return np.zeros(d.shape)
        is_sum = self.metric.combine == "sum"
        if self.batched and hi - lo == 1:
            pens = self.metric.penalty_array(self.leaf_actual[lo:hi], d)
            if is_sum:
                return pens * self.leaf_weight[lo]
            return np.asarray(pens, dtype=np.float64)
        actual = self.leaf_actual[lo:hi]
        weight = self.leaf_weight[lo:hi]
        out = np.empty(d.shape)
        for i, di in enumerate(d):
            pens = self.metric.penalty_array(actual, float(di))
            out[i] = pens @ weight if is_sum else pens.max()
        return out

    def grperr_rows(
        self, idx: np.ndarray, densities: np.ndarray
    ) -> np.ndarray:
        """Stacked :meth:`grperr_many` over many nodes.

        ``densities`` is either one shared density vector ``(D,)`` or a
        per-node matrix ``(K, D)`` aligned with ``idx``.  Row ``k``
        equals ``grperr_many(nodes[idx[k]], densities[k])`` bit for
        bit, with no per-node or per-density Python loop.  Single-leaf
        rows broadcast the same elementwise penalty expressions over a
        ``(K, D)`` grid (IEEE elementwise operations are
        shape-independent).  Rows whose leaf slices share a length
        ``L`` evaluate as one gather, one ``(K, D, L)`` penalty and one
        ``matmul(pens[:, :, None, :], w[:, None, :, None])``: every
        product has a 1x1 output, and numpy sends a matmul with a 1x1
        output to the same dot kernel as the 1-D ``pens @ weight`` of
        :meth:`grperr_many`, over the same contiguous operands.  ``max``
        is exact under any reduction order.  The overlapping sweep uses
        this to condition every base node's dirty-ancestor rows in one
        call.  Batched modes only.
        """
        d = np.asarray(densities, dtype=np.float64)
        idx = np.asarray(idx)
        if d.ndim == 1:
            d = np.broadcast_to(d[None, :], (idx.shape[0], d.shape[0]))
        out = np.zeros((idx.shape[0], d.shape[1]))
        lo, hi = self.leaf_lo[idx], self.leaf_hi[idx]
        is_sum = self.metric.combine == "sum"
        pa = self.metric.penalty_array
        lengths = hi - lo
        single = np.nonzero(lengths == 1)[0]
        if single.size:
            pens = pa(self.leaf_actual[lo[single]][:, None], d[single])
            out[single] = (
                pens * self.leaf_weight[lo[single]][:, None]
                if is_sum
                else pens
            )
        multi = np.nonzero(lengths > 1)[0]
        for rows, span in _length_groups(lengths[multi]):
            k = multi[rows]
            gather = lo[k][:, None] + np.arange(span)
            pens = pa(self.leaf_actual[gather][:, None, :], d[k][:, :, None])
            if is_sum:
                w = self.leaf_weight[gather]
                out[k] = np.matmul(
                    pens[:, :, None, :], w[:, None, :, None]
                ).reshape(k.size, -1)
            else:
                out[k] = pens.max(axis=2)
        return out

    def grperr_own(self, pnode: PNode) -> float:
        """``grperr`` at the node's own density — the error of making
        ``pnode`` a bucket in a nonoverlapping cut.

        Batched modes answer from a precomputed per-node array; the
        single-leaf entries (group leaves and zero summaries) are
        evaluated in one vectorized pass whose per-element operations
        match the seed's one-element slice evaluation bit for bit, and
        longer slices run the seed expression verbatim per node.
        """
        if self.batched:
            return float(self.own_errors()[pnode.index])
        return self.grperr(pnode, pnode.density)

    def own_errors(self) -> np.ndarray:
        """The per-node own-density error array (computed on first use).

        Entry ``i`` equals ``grperr(nodes[i], nodes[i].density)``
        bit for bit; the nonoverlapping fast sweep indexes this array
        instead of calling :meth:`grperr_own` per node.
        """
        if self._own_err is None:
            self._own_err = self._compute_own_errors()
        return self._own_err

    def node_densities(self) -> np.ndarray:
        """Per-node densities in postorder (they depend only on the
        window's counts, not the metric)."""
        return self.hierarchy.densities

    def splice_own_errors(
        self, prev: np.ndarray, dirty_idx: np.ndarray
    ) -> None:
        """Seed the own-error cache from a previous build over the same
        pruned structure, recomputing only the ``dirty_idx`` rows.

        A clean row's own error is a function of its subtree's counts
        alone — the same invariant that lets incremental rebuilds splice
        whole DP tables — and the subset pass runs the identical
        row-independent kernels as the full pass, so the seeded array
        matches a fresh :meth:`own_errors` bit for bit.
        """
        out = prev.copy()
        dirty_idx = np.asarray(dirty_idx)
        if dirty_idx.size:
            vals = self._compute_own_errors(only=dirty_idx)
            out[dirty_idx] = vals[dirty_idx]
        self._own_err = out

    def _compute_own_errors(
        self, only: Optional[np.ndarray] = None
    ) -> np.ndarray:
        n = len(self.hierarchy)
        dens = self.node_densities()
        out = np.zeros(n)
        lo, hi = self.leaf_lo, self.leaf_hi
        is_sum = self.metric.combine == "sum"
        lengths = hi - lo
        if only is not None:
            only = np.asarray(only)
            ls_only = lengths[only]
            single = only[ls_only == 1]
        else:
            single = np.nonzero(lengths == 1)[0]
        if single.size:
            pens = self.metric.penalty_array(
                self.leaf_actual[lo[single]], dens[single]
            )
            out[single] = (
                pens * self.leaf_weight[lo[single]] if is_sum else pens
            )
        pa = self.metric.penalty_array
        actual, weight = self.leaf_actual, self.leaf_weight
        if only is not None:
            multi = only[ls_only > 1]
        else:
            multi = np.nonzero(lengths > 1)[0]
        if multi.size:
            # Nodes whose leaf slices share a length evaluate as one
            # stacked gather + penalty + reduction.  penalty_array is
            # elementwise (it broadcasts a density column across the
            # row-per-node matrix), stacked ``matmul`` performs one dot
            # per row through the same kernel as the seed's 1-D ``@``,
            # and ``max`` is exact under any reduction order — so every
            # entry matches the per-node seed expression bit for bit.
            vals = np.empty(multi.size)
            for rows, span in _length_groups(lengths[multi]):
                idx = multi[rows]
                gather = lo[idx][:, None] + np.arange(span)
                pens = pa(actual[gather], dens[idx][:, None])
                if is_sum:
                    vals[rows] = np.matmul(
                        pens[:, None, :], weight[gather][:, :, None]
                    ).reshape(-1)
                else:
                    vals[rows] = pens.max(axis=1)
            out[multi] = vals
        return out

    def _groups(self) -> float:
        """Groups below the root: every group of the table."""
        return float(self.hierarchy.arrays.n_groups[-1])

    def finalize(self, total_penalty: float) -> float:
        """Convert an aggregate penalty at the root into the metric's
        final error value over the full group universe."""
        if total_penalty == INF:
            return INF
        return self.metric.finalize_total(total_penalty, self._groups())

    def finalize_curve(self, penalties: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`finalize` over a whole budget curve."""
        penalties = np.asarray(penalties, dtype=np.float64)
        if not self.batched:
            out = np.empty_like(penalties)
            for i, p in enumerate(penalties):
                out[i] = self.finalize(float(p))
            return out
        count = self._groups()
        out = np.full(penalties.shape, INF)
        finite = penalties != INF
        if finite.any():
            out[finite] = self.metric.finalize_total_array(
                penalties[finite], count
            )
        return out
