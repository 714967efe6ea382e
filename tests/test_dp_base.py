"""Tests for the shared DP machinery (knapsack merge, grperr)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PrunedHierarchy, get_metric
from repro.algorithms.base import INF, ConstructionResult, DPContext, knapsack_merge

from helpers import random_instance

arrays = st.lists(
    st.one_of(st.floats(min_value=0, max_value=100), st.just(INF)),
    min_size=1, max_size=8,
)


def brute_merge(a, b, cap, combine):
    size = min(cap, len(a) + len(b) - 2) + 1
    out = np.full(size, INF)
    for c, av in enumerate(a):
        for d, bv in enumerate(b):
            if c + d >= size or av == INF or bv == INF:
                continue
            v = max(av, bv) if combine == "max" else av + bv
            out[c + d] = min(out[c + d], v)
    return out


@settings(max_examples=120, deadline=None)
@given(arrays, arrays, st.integers(min_value=0, max_value=12),
       st.sampled_from(["sum", "max"]))
def test_knapsack_matches_brute_force(a, b, cap, combine):
    a, b = np.asarray(a), np.asarray(b)
    got, choice = knapsack_merge(a, b, cap, combine)
    want = brute_merge(a, b, cap, combine)
    assert np.allclose(got, want, equal_nan=True)
    # choices reproduce the values
    for B, c in enumerate(choice):
        if got[B] == INF:
            continue
        c = int(c)
        v = max(a[c], b[B - c]) if combine == "max" else a[c] + b[B - c]
        assert v == pytest.approx(got[B])


def test_knapsack_all_infeasible():
    out, choice = knapsack_merge(np.array([INF]), np.array([INF, 1.0]), 5, "sum")
    assert out[0] == INF
    assert np.all(choice[out == INF] == -1)


class TestDPContext:
    def test_rejects_generic_metric(self, small_hierarchy):
        class NotPenalty:
            pass

        with pytest.raises(TypeError):
            DPContext(small_hierarchy, NotPenalty())

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mname", ["rms", "average", "max_relative"])
    def test_grperr_matches_direct_computation(self, seed, mname):
        """grperr over leaf arrays must equal a direct penalty over the
        raw group counts (zeros included)."""
        _dom, table, counts = random_instance(seed)
        metric = get_metric(mname)
        h = PrunedHierarchy(table, counts)
        ctx = DPContext(h, metric)
        for i in range(len(h)):
            d = h.densities[i]
            idx = table.group_indices_below(int(h.arrays.node[i]))
            pens = metric.penalty_array(counts[idx], d)
            want = float(pens.sum()) if metric.combine == "sum" else (
                float(pens.max()) if pens.size else 0.0
            )
            assert ctx.grperr(i, d) == pytest.approx(want)

    def test_finalize_full_universe(self, small_hierarchy):
        metric = get_metric("rms")
        ctx = DPContext(small_hierarchy, metric)
        total = 160.0
        want = metric.finalize_total(
            total, small_hierarchy.arrays.n_groups[-1]
        )
        assert ctx.finalize(total) == pytest.approx(want)
        assert ctx.finalize(INF) == INF


class TestConstructionResult:
    def test_error_at_and_best_budget(self):
        curve = np.array([INF, 10.0, 4.0, 4.0, 2.0])
        res = ConstructionResult(
            make_function=lambda b: f"fn@{b}", curve=curve, budget=4
        )
        assert res.error_at(1) == 10.0
        assert res.error_at(3) == 4.0
        assert res.best_budget(3) == 2  # earliest budget hitting the min
        assert res.function_at(3) == "fn@2"
        assert res.error_at(0) == INF
        assert res.error_at(99) == 2.0
