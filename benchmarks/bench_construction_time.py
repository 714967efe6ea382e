"""Ablation A1: construction-time scaling.

The paper claims O(|G| b^2)-ish construction for nonoverlapping
histograms, an extra log|U| factor for overlapping, and sub-quadratic
heuristics for longest-prefix-match (Section 1.1).  This bench measures
wall-clock construction time across workload sizes and budgets and
checks the growth is far from quadratic in |G|.
"""

import time

import numpy as np
import pytest

from repro import PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms import (
    OverlappingDP,
    build_lpm_greedy,
    build_nonoverlapping,
    build_overlapping,
)
from repro.data import TrafficModel, generate_subnet_table, generate_trace

from workloads import format_table, save_series


def _workload(height: int, packets: int):
    dom = UIDDomain(height)
    table = generate_subnet_table(dom, seed=21)
    uids = generate_trace(table, packets, seed=22, model=TrafficModel())
    counts = table.counts_from_uids(uids)
    return table, counts, PrunedHierarchy(table, counts)


SIZES = [(12, 100_000), (14, 300_000), (16, 1_000_000), (18, 2_000_000)]
BUDGET = 100


@pytest.mark.parametrize("algorithm", ["nonoverlapping", "overlapping",
                                       "lpm_greedy"])
def test_scaling_in_groups(benchmark, algorithm):
    metric = get_metric("rms")
    rows = []
    times = {}
    for height, packets in SIZES:
        _table, _counts, hierarchy = _workload(height, packets)
        t0 = time.perf_counter()
        if algorithm == "nonoverlapping":
            build_nonoverlapping(hierarchy, metric, BUDGET)
        elif algorithm == "overlapping":
            build_overlapping(hierarchy, metric, BUDGET)
        else:
            build_lpm_greedy(hierarchy, metric, BUDGET,
                             curve_budgets=[BUDGET])
        dt = time.perf_counter() - t0
        times[height] = (len(hierarchy), dt)
        rows.append([algorithm, height, len(hierarchy),
                     hierarchy.num_nonzero_groups, round(dt, 3)])
    save_series(f"a1_scaling_{algorithm}.csv",
                ["algorithm", "height", "pruned_nodes", "nonzero", "seconds"],
                rows)
    print("\nA1 construction-time scaling")
    print(format_table(
        ["algorithm", "height", "pruned_nodes", "nonzero", "seconds"], rows
    ))
    # growth check: time grows sub-quadratically in pruned-node count
    (n_small, t_small) = times[SIZES[0][0]]
    (n_big, t_big) = times[SIZES[-1][0]]
    if t_small > 0.01:  # avoid noise on trivially fast runs
        assert t_big / t_small < 3 * (n_big / n_small) ** 2

    # benchmark the largest size for the timing table
    _t, _c, hierarchy = _workload(*SIZES[-1])

    def construct():
        if algorithm == "nonoverlapping":
            return build_nonoverlapping(hierarchy, metric, BUDGET)
        if algorithm == "overlapping":
            return build_overlapping(hierarchy, metric, BUDGET)
        return build_lpm_greedy(hierarchy, metric, BUDGET,
                                curve_budgets=[BUDGET])

    benchmark.pedantic(construct, rounds=1, iterations=1)


def test_scaling_in_budget(benchmark):
    """One DP run yields the whole budget curve, so cost should grow
    mildly with b."""
    metric = get_metric("rms")
    _t, _c, hierarchy = _workload(16, 1_000_000)
    rows = []
    times = []
    for b in (25, 50, 100, 200, 400):
        t0 = time.perf_counter()
        build_overlapping(hierarchy, metric, b)
        dt = time.perf_counter() - t0
        rows.append(["overlapping", b, round(dt, 3)])
        times.append(dt)
    save_series("a1_budget_scaling.csv", ["algorithm", "budget", "seconds"],
                rows)
    print("\nA1 budget scaling")
    print(format_table(["algorithm", "budget", "seconds"], rows))
    if times[0] > 0.02:
        assert times[-1] / times[0] < 3 * (400 / 25)  # sub-quadratic in b

    benchmark.pedantic(
        lambda: build_overlapping(hierarchy, metric, 100),
        rounds=1, iterations=1,
    )
