"""Tests for the quantized LPM heuristic (Section 3.2.7)."""

from itertools import accumulate

import numpy as np
import pytest

from repro import (
    LongestPrefixMatchPartitioning,
    PrunedHierarchy,
    evaluate_function,
    get_metric,
)
from repro.algorithms import (
    KERNEL_MODES,
    build_lpm_quantized,
    exhaustive_lpm,
    use_kernel_mode,
)
from repro.algorithms.lpm_quantized import Quantizer

from helpers import random_instance


class TestQuantizer:
    def test_zero_cell(self):
        q = Quantizer(0.5)
        assert q.cell(0.0) == Quantizer.ZERO_CELL
        assert q.rep(Quantizer.ZERO_CELL) == 0.0
        assert q.quantize(0.0) == 0.0
        # sub-unit values get their own (negative-exponent) cells
        assert q.cell(0.3) != Quantizer.ZERO_CELL

    def test_representative_within_factor(self):
        q = Quantizer(0.5)
        for x in [0.3, 1.0, 7.0, 123.4, 9999.0]:
            assert q.quantize(x) == pytest.approx(x, rel=0.3)

    def test_finer_theta_is_closer(self):
        coarse, fine = Quantizer(1.0), Quantizer(0.01)
        x = 37.5
        assert abs(fine.quantize(x) - x) <= abs(coarse.quantize(x) - x)

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            Quantizer(0.0)

    def test_density_cells_cover_range(self):
        q = Quantizer(0.5)
        cells = q.density_cells(0.1, 100.0)
        assert cells[0] == Quantizer.ZERO_CELL
        reps = [q.rep(c) for c in cells[1:]]
        assert min(reps) <= 0.11 and max(reps) >= 99.0 / 1.5


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mname", ["rms", "average", "avg_relative"])
def test_produces_valid_lpm_function(seed, mname):
    _dom, table, counts = random_instance(seed)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    res = build_lpm_quantized(h, metric, 4, theta=0.5, beam=8)
    fn = res.function_at(4)
    assert isinstance(fn, LongestPrefixMatchPartitioning)
    assert fn.num_buckets <= 4


@pytest.mark.parametrize("seed", range(6))
def test_curve_is_measured_error(seed):
    """Under either kernel mode the curve is exactly the running minimum
    of the evaluated error of the materialized functions."""
    _dom, table, counts = random_instance(seed + 20)
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    for mode in KERNEL_MODES:
        with use_kernel_mode(mode):
            res = build_lpm_quantized(h, metric, 4, theta=0.5, beam=8)
        measured = [
            evaluate_function(table, counts, res.make_function(b), metric)
            for b in range(1, 5)
        ]
        assert list(res.curve[1:]) == list(accumulate(measured, min)), mode


@pytest.mark.parametrize("seed", range(6))
def test_never_beats_optimum(seed):
    _dom, table, counts = random_instance(seed + 80)
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    budget = 3
    res = build_lpm_quantized(h, metric, budget, theta=0.3, beam=12)
    optimum, _ = exhaustive_lpm(table, counts, metric, budget, sparse=True)
    assert res.error_at(budget) >= optimum - 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_fine_grid_near_optimal(seed):
    """With a fine grid and wide beam on tiny instances, quantization
    loss should (almost always) vanish."""
    _dom, table, counts = random_instance(
        seed, height_range=(3, 4), max_count=16
    )
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    budget = 3
    res = build_lpm_quantized(h, metric, budget, theta=0.05, beam=24)
    optimum, _ = exhaustive_lpm(table, counts, metric, budget, sparse=True)
    if optimum == 0:
        assert res.error_at(budget) <= 1e-9
    else:
        assert res.error_at(budget) <= optimum * 1.5 + 1e-9


def test_coarser_theta_trades_accuracy(small_hierarchy):
    """Both granularities must be valid; the finer one can't be worse
    on this deterministic instance (both evaluated honestly)."""
    metric = get_metric("average")
    fine = build_lpm_quantized(small_hierarchy, metric, 4, theta=0.1, beam=16)
    coarse = build_lpm_quantized(small_hierarchy, metric, 4, theta=2.0, beam=4)
    assert np.isfinite(fine.error_at(4))
    assert np.isfinite(coarse.error_at(4))


def test_bad_budget_rejected(small_hierarchy):
    with pytest.raises(ValueError):
        build_lpm_quantized(small_hierarchy, get_metric("rms"), 0)


def test_all_zero_window(small_instance):
    _dom, table, _counts = small_instance
    h = PrunedHierarchy(table, np.zeros(len(table)))
    res = build_lpm_quantized(h, get_metric("rms"), 2)
    assert res.error_at(2) == pytest.approx(0.0)
