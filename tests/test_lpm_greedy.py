"""Tests for the greedy longest-prefix-match heuristic (Section 3.2.6)."""

from itertools import accumulate

import numpy as np
import pytest

from repro import (
    LongestPrefixMatchPartitioning,
    PrunedHierarchy,
    build_lpm_greedy,
    evaluate_function,
    get_metric,
)
from repro.algorithms import (
    KERNEL_MODES,
    OverlappingDP,
    bucket_approx_errors,
    exhaustive_lpm,
    use_kernel_mode,
)

from helpers import ALL_METRICS, random_instance


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_produces_valid_lpm_function(seed, mname):
    _dom, table, counts = random_instance(seed)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    res = build_lpm_greedy(h, metric, 4)
    fn = res.function_at(4)
    assert isinstance(fn, LongestPrefixMatchPartitioning)
    assert fn.num_buckets <= 4
    assert h.root_node in [b.node for b in fn.buckets]


@pytest.mark.parametrize("seed", range(8))
def test_curve_is_measured_error(seed):
    """Heuristic curves must be honest: under either kernel mode the
    reported value is exactly the running minimum of the evaluated
    error of the materialized functions."""
    _dom, table, counts = random_instance(seed + 30)
    metric = get_metric("rms")
    h = PrunedHierarchy(table, counts)
    for mode in KERNEL_MODES:
        with use_kernel_mode(mode):
            res = build_lpm_greedy(h, metric, 5)
        measured = [
            evaluate_function(table, counts, res.make_function(b), metric)
            for b in range(1, 6)
        ]
        assert list(res.curve[1:]) == list(accumulate(measured, min)), mode


@pytest.mark.parametrize("seed", range(8))
def test_never_beats_optimum(seed):
    _dom, table, counts = random_instance(seed + 60)
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    budget = 3
    res = build_lpm_greedy(h, metric, budget)
    optimum, _ = exhaustive_lpm(table, counts, metric, budget, sparse=True)
    assert res.error_at(budget) >= optimum - 1e-9


@pytest.mark.parametrize("rank", ["error", "benefit"])
def test_ranking_modes(rank, small_hierarchy):
    metric = get_metric("rms")
    res = build_lpm_greedy(small_hierarchy, metric, 4, rank=rank)
    assert np.isfinite(res.error_at(4))


def test_unknown_rank_rejected(small_hierarchy):
    with pytest.raises(ValueError, match="ranking"):
        build_lpm_greedy(small_hierarchy, get_metric("rms"), 3, rank="x")


def test_reuses_supplied_dp(small_hierarchy):
    metric = get_metric("rms")
    dp = OverlappingDP(small_hierarchy, metric, 8)
    res = build_lpm_greedy(small_hierarchy, metric, 4, dp=dp)
    assert np.isfinite(res.error_at(4))


def test_bucket_approx_errors_zero_for_exact(small_hierarchy):
    """Sparse buckets and exact singleton buckets score zero."""
    metric = get_metric("rms")
    dp = OverlappingDP(small_hierarchy, metric, 8)
    buckets = dp.buckets_for_budget(8)
    scores = bucket_approx_errors(small_hierarchy, buckets, metric)
    assert all(v >= 0 for v in scores.values())
    for b in buckets:
        if b.is_sparse:
            assert scores[b.node] == 0.0


def test_overprovision_expands_pool(small_hierarchy):
    metric = get_metric("rms")
    r1 = build_lpm_greedy(small_hierarchy, metric, 3, overprovision=1.0)
    r2 = build_lpm_greedy(small_hierarchy, metric, 3, overprovision=3.0)
    assert r2.stats["pool"] >= r1.stats["pool"]


def test_greedy_uses_budget_monotonically(small_hierarchy):
    metric = get_metric("average")
    res = build_lpm_greedy(small_hierarchy, metric, 6)
    finite = res.curve[np.isfinite(res.curve)]
    assert np.all(np.diff(finite) <= 1e-12)  # curve is monotonized
