"""Property-based invariants for the longest-prefix-match heuristics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    GroupTable,
    LongestPrefixMatchPartitioning,
    PrunedHierarchy,
    UIDDomain,
    evaluate_function,
    get_metric,
)
from repro.algorithms import (
    build_lpm_greedy,
    build_lpm_quantized,
    build_overlapping,
)

from helpers import random_cut


@st.composite
def instances(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    height = int(rng.integers(3, 6))
    dom = UIDDomain(height)
    table = GroupTable(dom, random_cut(rng, height))
    counts = rng.integers(0, 50, len(table)).astype(float)
    counts[rng.random(len(table)) < 0.4] = 0.0
    if counts.sum() == 0:
        counts[0] = 10.0
    budget = int(rng.integers(2, 7))
    metric = get_metric(
        ["rms", "average", "avg_relative"][seed % 3]
    )
    return table, counts, PrunedHierarchy(table, counts), budget, metric


@settings(max_examples=25, deadline=None)
@given(instances())
def test_greedy_invariants(data):
    table, counts, hierarchy, budget, metric = data
    res = build_lpm_greedy(hierarchy, metric, budget)
    fn = res.function_at(budget)
    # structural validity
    assert isinstance(fn, LongestPrefixMatchPartitioning)
    assert fn.num_buckets <= budget
    assert hierarchy.root_node in [b.node for b in fn.buckets]
    # honesty: reported error is the measured error of the function
    assert evaluate_function(table, counts, fn, metric) == pytest.approx(
        res.error_at(budget), abs=1e-9
    )
    # monotone curve after monotonization
    finite = res.curve[np.isfinite(res.curve)]
    assert np.all(np.diff(finite) <= 1e-9)


@settings(max_examples=15, deadline=None)
@given(instances())
def test_quantized_invariants(data):
    table, counts, hierarchy, budget, metric = data
    res = build_lpm_quantized(hierarchy, metric, budget, theta=1.0, beam=4)
    fn = res.function_at(budget)
    assert isinstance(fn, LongestPrefixMatchPartitioning)
    assert fn.num_buckets <= budget
    assert evaluate_function(table, counts, fn, metric) == pytest.approx(
        res.error_at(budget), abs=1e-9
    )


@settings(max_examples=15, deadline=None)
@given(instances())
def test_lpm_reinterpretation_never_catastrophic_for_sum_metrics(data):
    """For additive metrics, reinterpreting the overlapping set under
    LPM semantics keeps the same coverage structure — its error stays
    within a constant factor of the overlapping optimum on these small
    instances.  (Max-relative is excluded: Figure 20 shows the greedy
    reinterpretation legitimately explodes there.)"""
    table, counts, hierarchy, budget, metric = data
    if metric.combine == "max":
        return
    over = build_overlapping(hierarchy, metric, budget)
    greedy = build_lpm_greedy(hierarchy, metric, budget)
    oe = over.error_at(budget)
    ge = greedy.error_at(budget)
    if oe == 0:
        assert ge <= max(1e-9, float(counts.max()) * 0.5)
    else:
        assert ge <= oe * 25 + 1e-9
