"""Quantized longest-prefix-match heuristic (paper Section 3.2.7).

The paper's pseudopolynomial program tabulates, for every hierarchy
node ``i``, bucket budget ``B``, *uncaptured* group count ``g`` and
tuple count ``t`` (the mass below ``i`` not swallowed by holes — it
flows up to the enclosing bucket), and enclosing-bucket density ``d``::

    E[i, B, g, t, d]

with the bucket case requiring ``d = t / g`` for the children of the
new bucket.  Exact tabulation is exponential in the input, so the
heuristic quantizes ``g``, ``t`` and ``d`` onto an exponential grid
``(1 + theta)^i`` and keeps, per ``(i, B, d)``, only the best few
``(g, t)`` states (a beam, configurable; the paper's analysis keeps all
``O(k^2)`` grid cells, which the default beam width covers at coarse
``theta``).

Because quantization makes the DP's internal error accounting
approximate, the returned curve reports the *measured* error of the
materialized functions, like the greedy heuristic does.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.errors import PenaltyMetric
from ..core.hierarchy import PNode, PrunedHierarchy
from ..core.partition import Bucket, LongestPrefixMatchPartitioning
from ..obs import span
from .base import ConstructionResult, DPContext, curve_points, measured_curve

__all__ = ["build_lpm_quantized", "Quantizer"]


class Quantizer:
    """Exponential quantization grid ``(1 + theta)^i`` with a zero cell.

    Values are snapped to the nearest grid representative in log space
    (exponents may be negative for sub-unit values); 0 maps to a
    dedicated sentinel cell.
    """

    #: Sentinel cell index for the value 0.
    ZERO_CELL = -(1 << 60)

    def __init__(self, theta: float) -> None:
        if theta <= 0:
            raise ValueError(f"theta must be positive, got {theta}")
        self.theta = theta
        self._log_base = math.log1p(theta)

    def cell(self, value: float) -> int:
        """Grid index of ``value`` (``ZERO_CELL`` for zero)."""
        if value <= 0:
            return self.ZERO_CELL
        return int(round(math.log(value) / self._log_base))

    def rep(self, cell: int) -> float:
        """Representative value of a grid cell."""
        if cell == self.ZERO_CELL:
            return 0.0
        return (1.0 + self.theta) ** cell

    def quantize(self, value: float) -> float:
        return self.rep(self.cell(value))

    def density_cells(self, lo: float, hi: float) -> List[int]:
        """All grid cells covering densities in ``[lo, hi]`` plus zero."""
        if hi <= 0:
            return [self.ZERO_CELL]
        lo = max(min(lo, hi), 1e-9)
        return [self.ZERO_CELL] + list(range(self.cell(lo), self.cell(hi) + 1))


#: One beam state: ``(g_cell, t_cell, penalty, choice)`` — the
#: quantized uncaptured group/tuple mass below a node, its penalty, and
#: the reconstruction trace.  Plain tuples keep the DP's hot loop fast.
_Entry = Tuple[int, int, float, Tuple]


def build_lpm_quantized(
    hierarchy: PrunedHierarchy,
    metric: PenaltyMetric,
    budget: int,
    theta: float = 1.0,
    beam: int = 6,
    sparse: bool = True,
    curve_budgets: Optional[List[int]] = None,
) -> ConstructionResult:
    """Construct a longest-prefix-match function with the quantized
    heuristic.

    Parameters
    ----------
    theta:
        Quantization granularity; smaller is finer (and slower).  The
        paper's counters are ``(1 + theta)^i``-distributed.
    beam:
        Maximum number of distinct quantized ``(g, t)`` states kept per
        ``(node, budget, density)`` cell.
    curve_budgets:
        Budgets at which to evaluate the error curve (default: every
        budget); sweeps pass their grid to skip intermediate points.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    solver = _QuantizedSolver(hierarchy, metric, budget, theta, beam, sparse)
    with span(
        "lpm_quantized.solve", budget=budget, theta=theta, beam=beam,
        nodes=len(hierarchy),
    ) as sp:
        table = solver.solve_root()
        sp.annotate(density_cells=len(solver.d_cells))
    cache: Dict[int, LongestPrefixMatchPartitioning] = {}

    def make_function(b: int) -> LongestPrefixMatchPartitioning:
        b = max(1, min(b, budget))
        if b not in cache:
            feasible = [B for B in range(1, b + 1) if table[B] is not None]
            if not feasible:
                cache[b] = LongestPrefixMatchPartitioning(
                    hierarchy.domain, [Bucket(hierarchy.root.node)]
                )
            else:
                B = min(feasible, key=lambda B: table[B][2])
                buckets: List[Bucket] = []
                solver.collect(table[B][3], buckets)
                cache[b] = LongestPrefixMatchPartitioning(
                    hierarchy.domain, buckets
                )
        return cache[b]

    budgets = curve_points(budget, curve_budgets)
    with span("lpm_quantized.curve", evaluations=len(budgets)):
        curve = measured_curve(
            hierarchy, metric, make_function, budget, budgets
        )
    return ConstructionResult(
        make_function=make_function, curve=curve, budget=budget,
        stats={"theta": theta, "beam": float(beam)},
    )


class _QuantizedSolver:
    def __init__(self, hierarchy, metric, budget, theta, beam, sparse):
        self.h = hierarchy
        self.metric = metric
        self.budget = budget
        self.q = Quantizer(theta)
        self.beam = beam
        self.sparse = sparse
        self.ctx = DPContext(hierarchy, metric)
        total_g = max(1, hierarchy.root.n_groups)
        max_d = max(hierarchy.root.tuples, 1.0)
        self.d_cells = self.q.density_cells(1.0 / total_g, max_d)
        self._caps = self._compute_caps()
        # Inner-loop caches: cell-of-sum and cell-of-ratio on cell pairs
        # (exact, since cells determine their representatives).
        self._sum_cache: Dict[Tuple[int, int], int] = {}
        self._ratio_cache: Dict[Tuple[int, int], int] = {}

    def _sum_cell(self, a: int, b: int) -> int:
        key = (a, b) if a <= b else (b, a)
        out = self._sum_cache.get(key)
        if out is None:
            out = self.q.cell(self.q.rep(a) + self.q.rep(b))
            self._sum_cache[key] = out
        return out

    def _ratio_cell(self, t_cell: int, g_cell: int) -> int:
        key = (t_cell, g_cell)
        out = self._ratio_cache.get(key)
        if out is None:
            g = self.q.rep(g_cell)
            out = self.q.cell(self.q.rep(t_cell) / g if g > 0 else 0.0)
            self._ratio_cache[key] = out
        return out

    def _compute_caps(self) -> np.ndarray:
        caps = np.zeros(len(self.h.nodes), dtype=np.int64)
        for p in self.h.nodes:
            if p.is_leaf or (self.sparse and p.n_nonzero <= 1):
                caps[p.index] = 1
            else:
                caps[p.index] = min(
                    self.budget, caps[p.left.index] + caps[p.right.index] + 1
                )
        return caps

    # ------------------------------------------------------------------
    def solve_root(self) -> List[Optional[_Entry]]:
        """``table[B]`` = best root-bucket state with ``B`` buckets."""
        self._bucket_entries: Dict[int, Dict[int, _Entry]] = {}
        self._solve(self.h.root)
        self._free(self.h.root)
        recorded = self._bucket_entries.get(self.h.root.index, {})
        out: List[Optional[_Entry]] = [None] * (self.budget + 1)
        best: Optional[_Entry] = None
        for B in range(1, self.budget + 1):
            e = recorded.get(B)
            if e is not None and (best is None or e[2] < best[2]):
                best = e
            out[B] = best
        return out

    # ------------------------------------------------------------------
    def _solve(self, p: PNode) -> Dict[int, List[List[_Entry]]]:
        """Tables for node ``p``: density cell -> per-budget beam lists."""
        cap = int(self._caps[p.index])
        collapse = (not p.is_leaf) and self.sparse and p.n_nonzero <= 1
        tables: Dict[int, List[List[_Entry]]] = {}
        if p.is_leaf or collapse:
            kind = "sparse" if collapse else "leaf_bucket"
            bucket_entry = (
                Quantizer.ZERO_CELL, Quantizer.ZERO_CELL, 0.0, (kind, p)
            )
            g_cell = self.q.cell(float(p.n_groups))
            t_cell = self.q.cell(p.tuples)
            # One batched grperr across every density cell instead of a
            # slice evaluation per cell.
            pens = self.ctx.grperr_many(
                p, [self.q.rep(dc) for dc in self.d_cells]
            )
            for d_cell, pen in zip(self.d_cells, pens):
                per_b: List[List[_Entry]] = [[] for _ in range(cap + 1)]
                per_b[0].append((g_cell, t_cell, float(pen), ("pass", p)))
                per_b[1].append(bucket_entry)
                tables[d_cell] = per_b
            self._bucket_entries.setdefault(p.index, {})[1] = bucket_entry
            self._store(p, tables)
            return tables

        lt = self._solve(p.left)
        rt = self._solve(p.right)
        # One fused sweep per density cell handles both DP cases:
        # the non-bucket merge (children under the same enclosing
        # density) and — when the merged state's own quantized density
        # equals this cell, the paper's ``d = t / g`` side condition —
        # making ``p`` a bucket over that state for one extra budget
        # unit.  Entries are plain tuples (g_cell, t_cell, penalty,
        # choice) and dominated states are dropped as they are
        # generated: this loop is the heuristic's hot path.
        sum_cell = self._sum_cell
        ratio_cell = self._ratio_cell
        is_sum = self.metric.combine == "sum"
        combine = self.metric.combine_totals
        bucket_best: Dict[int, Tuple] = {}
        zc = Quantizer.ZERO_CELL
        for d_cell in self.d_cells:
            lpb, rpb = lt[d_cell], rt[d_cell]
            merged: List[Dict[Tuple[int, int], Tuple]] = [
                {} for _ in range(cap + 1)
            ]
            for bl, left_entries in enumerate(lpb):
                if not left_entries:
                    continue
                br_max = min(len(rpb) - 1, cap - bl)
                for br in range(br_max + 1):
                    right_entries = rpb[br]
                    if not right_entries:
                        continue
                    target = merged[bl + br]
                    bucket_B = bl + br + 1
                    for el in left_entries:
                        el_g, el_t, el_p, el_c = el
                        for er in right_entries:
                            pen = (
                                el_p + er[2] if is_sum
                                else (el_p if el_p > er[2] else er[2])
                            )
                            g = sum_cell(el_g, er[0])
                            t = sum_cell(el_t, er[1])
                            key = (g, t)
                            cur = target.get(key)
                            if cur is None or pen < cur[2]:
                                target[key] = (
                                    g, t, pen, ("split", p, el_c, er[3]),
                                )
                            if bucket_B <= cap and ratio_cell(t, g) == d_cell:
                                bb = bucket_best.get(bucket_B)
                                if bb is None or pen < bb[2]:
                                    bucket_best[bucket_B] = (
                                        zc, zc, pen,
                                        ("bucket_split", p, el_c, er[3]),
                                    )
            tables[d_cell] = [
                sorted(d.values(), key=lambda e: e[2])[: self.beam]
                for d in merged
            ]
        # Offer the bucket case to every density cell and record it for
        # the root answer.
        for B, e in bucket_best.items():
            self._bucket_entries.setdefault(p.index, {})[B] = e
            for d_cell in self.d_cells:
                tables[d_cell][B].append(e)
        self._free(p.left)
        self._free(p.right)
        self._store(p, tables)
        return tables

    # -- table lifecycle -------------------------------------------------
    def _store(self, p: PNode, tables) -> None:
        if not hasattr(self, "_tabs"):
            self._tabs: Dict[int, object] = {}
        self._tabs[p.index] = tables

    def _free(self, p: PNode) -> None:
        if hasattr(self, "_tabs"):
            self._tabs.pop(p.index, None)

    # -- reconstruction ---------------------------------------------------
    def collect(self, choice: Tuple, out: List[Bucket]) -> None:
        kind = choice[0]
        if kind == "pass":
            return
        if kind == "leaf_bucket":
            out.append(Bucket(choice[1].node))
            return
        if kind == "sparse":
            p = choice[1]
            leaf = _single_nonzero_leaf(p)
            if leaf is not None and leaf.node != p.node:
                out.append(Bucket(p.node, sparse_group_node=leaf.node))
            else:
                out.append(Bucket(p.node))
            return
        if kind == "split":
            self.collect(choice[2], out)
            self.collect(choice[3], out)
            return
        if kind == "bucket_split":
            out.append(Bucket(choice[1].node))
            self.collect(choice[2], out)
            self.collect(choice[3], out)
            return
        if kind == "bucket":
            out.append(Bucket(choice[1].node))
            self.collect(choice[2], out)
            return
        raise AssertionError(f"unknown choice {kind!r}")


def _single_nonzero_leaf(p: PNode) -> Optional[PNode]:
    while not p.is_leaf:
        p = p.left if p.left.n_nonzero >= 1 else p.right
    return p if p.kind == "group" else None
