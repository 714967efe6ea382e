"""Bit-exactness of the vectorized DP kernels against the seed
reference, across metrics, kernel modes, and randomized hierarchies.

The fast kernels' contract is not "close" — it is *identical*: the
same candidate cells combine with the same single floating-point
operation and ties break the same way, so builders must produce
bit-for-bit equal curves and the very same bucket sets in every mode.
These tests pin that contract down at each layer: the raw merge
kernels, the batched grperr paths, and whole constructions.
"""

import numpy as np
import pytest

from repro import PrunedHierarchy, get_metric
from repro.algorithms import (
    build_lpm_greedy,
    build_nonoverlapping,
    build_overlapping,
    knapsack_merge_reference,
    knapsack_merge_vectorized,
    use_kernel_mode,
)
from repro.algorithms.base import DPContext
from repro.algorithms.kernels import (
    INF,
    _positive_merge_batch,
    knapsack_merge,
    knapsack_merge_batch,
)

from helpers import ALL_METRICS, random_instance

COMBINES = ["sum", "max"]


def _random_table(rng, n, inf_frac=0.3, entry0_inf=True):
    """A DP error table: nonnegative entries, some infeasible."""
    t = rng.random(n) * 10.0
    t[rng.random(n) < inf_frac] = INF
    if entry0_inf and n > 0:
        t[0] = INF
    return t


def _assert_same_merge(got, want):
    out_g, ch_g = got
    out_w, ch_w = want
    assert np.array_equal(out_g, out_w)
    assert np.array_equal(ch_g, ch_w)


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("seed", range(20))
def test_vectorized_merge_matches_reference(seed, combine):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    n = int(rng.integers(1, 30))
    cap = int(rng.integers(1, m + n + 3))
    left = _random_table(rng, m, entry0_inf=bool(rng.integers(2)))
    right = _random_table(rng, n, entry0_inf=bool(rng.integers(2)))
    _assert_same_merge(
        knapsack_merge_vectorized(left, right, cap, combine),
        knapsack_merge_reference(left, right, cap, combine),
    )


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("m,n", [(150, 120), (256, 40), (101, 101)])
def test_vectorized_merge_transposed_layout(m, n, combine):
    """Problems past the transpose threshold switch candidate layout;
    results must stay identical, including choice tie-breaking."""
    rng = np.random.default_rng(m * 1000 + n)
    left = _random_table(rng, m)
    right = _random_table(rng, n)
    cap = m + n  # wide output => single transposed shot
    _assert_same_merge(
        knapsack_merge_vectorized(left, right, cap, combine),
        knapsack_merge_reference(left, right, cap, combine),
    )


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("m,n", [(1, 7), (7, 1), (2, 9), (9, 2), (2, 2)])
def test_dispatcher_shortcut_tables(m, n, combine):
    """One- and two-entry child tables take closed-form shortcuts."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        left = _random_table(rng, m, entry0_inf=bool(rng.integers(2)))
        right = _random_table(rng, n, entry0_inf=bool(rng.integers(2)))
        cap = int(rng.integers(1, m + n + 2))
        with use_kernel_mode("fast"):
            got = knapsack_merge(left, right, cap, combine)
        _assert_same_merge(
            got, knapsack_merge_reference(left, right, cap, combine)
        )


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("seed", range(10))
def test_batch_merge_matches_reference_rows(seed, combine):
    rng = np.random.default_rng(100 + seed)
    J = int(rng.integers(1, 8))
    m = int(rng.integers(2, 25))
    n = int(rng.integers(2, 25))
    cap = int(rng.integers(1, m + n + 2))
    lefts = np.stack([_random_table(rng, m) for _ in range(J)])
    rights = np.stack([_random_table(rng, n) for _ in range(J)])
    out, choice = knapsack_merge_batch(lefts, rights, cap, combine)
    for j in range(J):
        ref_out, ref_ch = knapsack_merge_reference(
            lefts[j], rights[j], cap, combine
        )
        assert np.array_equal(out[j], ref_out)
        assert np.array_equal(choice[j], ref_ch)


@pytest.mark.parametrize("combine", COMBINES)
def test_batch_merge_tall_transposed(combine):
    rng = np.random.default_rng(7)
    J, m, n = 3, 130, 110
    lefts = np.stack([_random_table(rng, m) for _ in range(J)])
    rights = np.stack([_random_table(rng, n) for _ in range(J)])
    out, choice = knapsack_merge_batch(lefts, rights, m + n, combine)
    for j in range(J):
        ref_out, ref_ch = knapsack_merge_reference(
            lefts[j], rights[j], m + n, combine
        )
        assert np.array_equal(out[j], ref_out)
        assert np.array_equal(choice[j], ref_ch)


@pytest.mark.parametrize("maximum", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_positive_merge_matches_reference(seed, maximum):
    """Each row of the stacked all-finite-tail convolution equals the
    reference merge of the corresponding inf-at-0 tables (choices are
    the 1-based left bucket counts the reference records); skipping
    the argmin leaves the values unchanged."""
    rng = np.random.default_rng(200 + seed)
    K = int(rng.integers(1, 9))
    m = int(rng.integers(1, 140))
    n = int(rng.integers(1, 140))
    l, r = rng.random((K, m)) * 5, rng.random((K, n)) * 5
    combine = "max" if maximum else "sum"
    cap = int(rng.integers(2, m + n + 1))
    size = min(cap, m + n) + 1
    out, choice = _positive_merge_batch(l, r, size - 2, maximum)
    for k in range(K):
        left = np.concatenate(([INF], l[k]))
        right = np.concatenate(([INF], r[k]))
        ref_out, ref_ch = knapsack_merge_reference(left, right, cap, combine)
        assert np.array_equal(out[k], ref_out[2:])
        assert np.array_equal(choice[k], ref_ch[2:])
    out_nc, choice_nc = _positive_merge_batch(
        l, r, size - 2, maximum, want_choice=False
    )
    assert np.array_equal(out_nc, out)
    assert choice_nc is None


@pytest.mark.parametrize("maximum", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_positive_merge_batch_matches_single(seed, maximum):
    """Stacking rows does not mix them: each row of a K-row batch equals
    the same row convolved on its own."""
    rng = np.random.default_rng(300 + seed)
    K = int(rng.integers(1, 9))
    m = int(rng.integers(1, 120))
    n = int(rng.integers(1, 120))
    width = int(rng.integers(1, m + n))
    l = rng.random((K, m)) * 5
    r = rng.random((K, n)) * 5
    out, choice = _positive_merge_batch(l, r, width, maximum)
    for k in range(K):
        o1, c1 = _positive_merge_batch(l[k : k + 1], r[k : k + 1], width, maximum)
        assert np.array_equal(out[k], o1[0])
        assert np.array_equal(choice[k], c1[0])
    out_nc, choice_nc = _positive_merge_batch(
        l, r, width, maximum, want_choice=False
    )
    assert np.array_equal(out_nc, out)
    assert choice_nc is None


@pytest.mark.parametrize("mname", ALL_METRICS)
@pytest.mark.parametrize("seed", range(6))
def test_grperr_many_matches_grperr(seed, mname):
    _dom, table, counts = random_instance(seed, height_range=(3, 6))
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    with use_kernel_mode("fast"):
        ctx = DPContext(h, metric)
    rng = np.random.default_rng(seed)
    densities = rng.random(5) * counts.max()
    for node in h.nodes:
        many = ctx.grperr_many(node, densities)
        each = np.array([ctx.grperr(node, float(d)) for d in densities])
        assert np.array_equal(many, each), (mname, node.index)


@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_grperr_rows_match_per_density_loop(mname, integer):
    """The stacked multi-leaf rows of ``grperr_rows`` equal the
    per-density ``grperr_many`` loop bit for bit (int64 views), for
    every leaf-slice length from 2 to 8, mixed in one call with
    single-leaf rows."""
    metric = get_metric(mname)
    rng = np.random.default_rng(17)
    seen = set()
    for seed in range(40):
        _dom, table, counts = random_instance(
            seed, height_range=(4, 8), max_count=400
        )
        if not integer:
            counts = counts * rng.random(counts.size) * 3.7
        h = PrunedHierarchy(table, counts)
        with use_kernel_mode("fast"):
            ctx = DPContext(h, metric)
        lengths = ctx.leaf_hi - ctx.leaf_lo
        idx = np.flatnonzero(lengths <= 8)
        seen.update(lengths[idx].tolist())
        dens = rng.random((idx.size, 6)) * counts.max() * 1.3
        dens[:, 0] = 0.0
        got = ctx.grperr_rows(idx, dens)
        want = np.array([
            ctx.grperr_many(h.nodes[i], dens[k])
            for k, i in enumerate(idx.tolist())
        ])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert set(range(1, 9)) <= seen


@pytest.mark.parametrize("mname", ALL_METRICS)
@pytest.mark.parametrize("seed", range(6))
def test_own_errors_match_naive_grperr(seed, mname):
    """The precomputed per-node array equals the naive mode's per-node
    slice evaluation bit for bit."""
    _dom, table, counts = random_instance(seed + 50, height_range=(3, 6))
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    with use_kernel_mode("naive"):
        naive_ctx = DPContext(h, metric)
        expected = np.array(
            [naive_ctx.grperr_own(p) for p in h.nodes]
        )
    with use_kernel_mode("fast"):
        fast_ctx = DPContext(h, metric)
        got = fast_ctx.own_errors()
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("mname", ALL_METRICS)
def test_finalize_curve_matches_scalar_loop(mname):
    _dom, table, counts = random_instance(9, height_range=(3, 5))
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    rng = np.random.default_rng(9)
    penalties = rng.random(12) * 100
    penalties[rng.random(12) < 0.25] = INF
    with use_kernel_mode("fast"):
        fast_ctx = DPContext(h, metric)
    with use_kernel_mode("naive"):
        naive_ctx = DPContext(h, metric)
    assert np.array_equal(
        fast_ctx.finalize_curve(penalties),
        naive_ctx.finalize_curve(penalties),
    )


def _bucket_list(function):
    return [
        (bk.node, getattr(bk, "sparse_group_node", None))
        for bk in function.buckets
    ]


@pytest.mark.parametrize(
    "builder", [build_nonoverlapping, build_overlapping, build_lpm_greedy]
)
@pytest.mark.parametrize("mname", ALL_METRICS)
@pytest.mark.parametrize("seed", range(8))
def test_builders_identical_across_modes(seed, mname, builder):
    """Whole constructions: fast curves and bucket lists (node, sparse
    group node and order) equal the naive reference exactly, for every
    metric, on integer and fractional counts, and for the overlapping
    builders with sparse buckets on and off."""
    _dom, table, counts = random_instance(seed, height_range=(4, 7))
    rng = np.random.default_rng(seed)
    fractional = counts * rng.uniform(0.1, 3.0, counts.shape)
    metric = get_metric(mname)
    budget = 2 + seed % 6
    variants = (
        [{}] if builder is build_nonoverlapping
        else [{}, {"sparse": False}]
    )
    for cts in (counts, fractional):
        for options in variants:
            results = {}
            for mode in ("naive", "fast"):
                h = PrunedHierarchy(table, cts)
                with use_kernel_mode(mode):
                    results[mode] = builder(h, metric, budget, **options)
            naive, fast = results["naive"], results["fast"]
            assert naive.curve.tobytes() == fast.curve.tobytes(), options
            for b in range(1, budget + 1):
                assert _bucket_list(naive.function_at(b)) == _bucket_list(
                    fast.function_at(b)
                ), (options, b)


@pytest.mark.parametrize("seed", range(6))
def test_low_memory_reconstruction_matches_fast(seed):
    """The low-memory multipass reconstruction (which re-runs subtree
    sweeps through the fast kernels) picks the same buckets."""
    _dom, table, counts = random_instance(seed + 30, height_range=(4, 7))
    metric = get_metric("rms")
    budget = 3 + seed % 4
    h = PrunedHierarchy(table, counts)
    with use_kernel_mode("fast"):
        full = build_nonoverlapping(h, metric, budget)
        low = build_nonoverlapping(h, metric, budget, low_memory=True)
    assert np.array_equal(
        np.nan_to_num(full.curve, posinf=-1.0),
        np.nan_to_num(low.curve, posinf=-1.0),
    )
    assert {b.node for b in full.function_at(budget).buckets} == {
        b.node for b in low.function_at(budget).buckets
    }


def _mode_from_env(value):
    """Import the kernels module in a fresh interpreter with
    ``REPRO_KERNELS`` set to ``value``."""
    import os
    import subprocess
    import sys

    return subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.algorithms import kernel_mode; print(kernel_mode())",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "REPRO_KERNELS": value},
    )


def test_env_rejects_unknown_kernel_mode():
    """An unknown mode (a typo, or a mode that no longer exists) fails
    at import instead of silently running the fast kernels; empty
    means fast."""
    out = _mode_from_env("fastest")
    assert out.returncode != 0
    assert "ValueError" in out.stderr
    assert "known modes: naive, fast" in out.stderr
    out = _mode_from_env("")
    assert out.returncode == 0
    assert out.stdout.strip() == "fast"
