"""Optimality and consistency tests for the overlapping DP
(paper Section 3.2.3) and sparse buckets (Section 4.3)."""

import numpy as np
import pytest

from repro import (
    Bucket,
    PrunedHierarchy,
    build_nonoverlapping,
    build_overlapping,
    evaluate_function,
    get_metric,
)
from repro.algorithms import exhaustive_overlapping

from helpers import ALL_METRICS, random_instance


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mname", ALL_METRICS)
@pytest.mark.parametrize("sparse", [False, True])
def test_matches_exhaustive_oracle(seed, mname, sparse):
    _dom, table, counts = random_instance(seed)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 4
    res = build_overlapping(h, metric, budget, sparse=sparse)
    oracle, _ = exhaustive_overlapping(
        table, counts, metric, budget, sparse=sparse
    )
    assert res.error_at(budget) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_predicted_error_is_delivered(seed, mname):
    _dom, table, counts = random_instance(seed + 50)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 5
    res = build_overlapping(h, metric, budget)
    predicted = res.error_at(budget)
    if not np.isfinite(predicted):
        return
    fn = res.function_at(budget)
    measured = evaluate_function(table, counts, fn, metric)
    assert measured == pytest.approx(predicted, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_never_worse_than_nonoverlapping_plus_root(seed):
    """A nonoverlapping cut plus the root is a valid overlapping
    function, so the overlapping optimum with budget b+1 is at most the
    nonoverlapping optimum with budget b."""
    _dom, table, counts = random_instance(seed, height_range=(3, 5))
    metric = get_metric("rms")
    h = PrunedHierarchy(table, counts)
    b = 4
    non = build_nonoverlapping(h, metric, b)
    over = build_overlapping(h, metric, b + 1)
    assert over.error_at(b + 1) <= non.error_at(b) + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_sparse_never_hurts(seed):
    _dom, table, counts = random_instance(seed, zero_fraction=0.6)
    metric = get_metric("avg_relative")
    h = PrunedHierarchy(table, counts)
    plain = build_overlapping(h, metric, 4, sparse=False)
    sparse = build_overlapping(h, metric, 4, sparse=True)
    assert sparse.error_at(4) <= plain.error_at(4) + 1e-9


def test_sparse_bucket_used_for_isolated_group():
    """A lone heavy group in an empty region should be captured by a
    single sparse bucket at minimal budget."""
    from repro import GroupTable, UIDDomain

    dom = UIDDomain(5)
    table = GroupTable(dom, [dom.node(5, p) for p in range(32)])
    counts = np.zeros(32)
    counts[7] = 100.0
    counts[25] = 3.0
    h = PrunedHierarchy(table, counts)
    metric = get_metric("average")
    res = build_overlapping(h, metric, 3, sparse=True)
    assert res.error_at(3) == pytest.approx(0.0, abs=1e-12)
    fn = res.function_at(3)
    assert any(b.is_sparse for b in fn.buckets)


def test_root_always_selected(small_hierarchy):
    metric = get_metric("rms")
    res = build_overlapping(small_hierarchy, metric, 5)
    fn = res.function_at(5)
    assert small_hierarchy.root_node in [b.node for b in fn.buckets]


@pytest.mark.parametrize("seed", range(6))
def test_curve_monotone(seed):
    _dom, table, counts = random_instance(seed, height_range=(3, 6))
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    res = build_overlapping(h, metric, 10)
    finite = res.curve[np.isfinite(res.curve)]
    assert np.all(np.diff(finite) <= 1e-12)


def test_bad_budget_rejected(small_hierarchy):
    with pytest.raises(ValueError):
        build_overlapping(small_hierarchy, get_metric("rms"), 0)


def test_budget_one_root_only(small_hierarchy):
    res = build_overlapping(small_hierarchy, get_metric("rms"), 1)
    fn = res.function_at(1)
    assert fn.num_buckets == 1
