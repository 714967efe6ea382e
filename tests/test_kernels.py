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

from repro import PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms import (
    GridGroups,
    build_lpm_greedy,
    build_lpm_greedy_nd,
    build_lpm_kholes,
    build_nonoverlapping,
    build_nonoverlapping_nd,
    build_overlapping,
    build_overlapping_nd,
    knapsack_merge_reference,
    use_kernel_mode,
)
from repro.algorithms import kernels
from repro.algorithms.base import DPContext
from repro.algorithms.kernels import (
    INF,
    _stacked_merge,
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


def _assert_core_matches_reference(lefts, rights, cap, combine):
    """Every row of the stacked core (through ``knapsack_merge_batch``)
    equals the reference merge of that row alone: values and the
    first-minimum choices, ``-1`` where nothing is feasible."""
    out, choice = knapsack_merge_batch(lefts, rights, cap, combine)
    assert choice.dtype == np.int32
    for k in range(lefts.shape[0]):
        _assert_same_merge(
            (out[k], choice[k]),
            knapsack_merge_reference(lefts[k], rights[k], cap, combine),
        )


#: Table lengths the property test draws from: the one- and two-entry
#: tables of leaf children, short tables, and tables around the
#: transposed layout's ``_TRANSPOSE_ROWS`` threshold.
_LENGTHS = list(range(1, 41)) + list(range(90, 141))
_SHAPES = ["left_shorter", "right_shorter", "equal"]
_LAYOUTS = ["blocked", "transposed"]
_BLOCKS = ["one", "many"]


@pytest.mark.parametrize("blocks", _BLOCKS)
@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("combine", COMBINES)
def test_stacked_merge_matches_reference(
    combine, shape, layout, blocks, monkeypatch
):
    """The one fast merge against the reference, row by row, on
    integer-valued tables (so ties are frequent and the first-minimum
    tie-break is exercised), with ``inf`` cells, entry 0 both ``inf``
    and finite, and caps below, at and above ``m + n - 2``.  Both
    candidate layouts run, in one block and in many (a small
    ``_MAX_BLOCK_ELEMENTS``), with either table the shorter."""
    rng = np.random.default_rng([
        COMBINES.index(combine), _SHAPES.index(shape),
        _LAYOUTS.index(layout), _BLOCKS.index(blocks),
    ])
    monkeypatch.setattr(
        kernels, "_TRANSPOSE_ROWS", 1 if layout == "transposed" else 10**9
    )
    many_rows = (blocks, layout) == ("many", "transposed")
    for _ in range(12):
        K = int(rng.integers(2 if many_rows else 1, 5))
        m, n = sorted(int(x) for x in rng.choice(_LENGTHS, 2))
        if shape == "equal":
            n = m
        else:
            n += m == n  # the left table strictly shorter
            if shape == "right_shorter":
                m, n = n, m
        edge = m + n - 2
        cap = int(rng.choice([rng.integers(0, edge + 1), edge, edge + 3]))
        lefts = rng.integers(0, 4, (K, m)).astype(float)
        rights = rng.integers(0, 4, (K, n)).astype(float)
        lefts[rng.random((K, m)) < 0.2] = INF
        rights[rng.random((K, n)) < 0.2] = INF
        if rng.integers(2):
            lefts[:, 0] = INF
        if rng.integers(2):
            rights[:, 0] = INF
        limit = 1 << 20
        if blocks == "many":
            width = min(cap, edge) + 1
            cells = min(m, n, width) * width
            if many_rows:  # blocks of whole batch rows
                limit = cells * int(rng.integers(1, K))
            else:  # blocks of allocation rows
                limit = int(rng.integers(1, max(2, K * cells // 2)))
        monkeypatch.setattr(kernels, "_MAX_BLOCK_ELEMENTS", limit)
        _assert_core_matches_reference(lefts, rights, cap, combine)


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("seed", range(20))
def test_vectorized_merge_matches_reference(seed, combine):
    """Single-pair problems through the stacked core (a batch of one)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 30))
    n = int(rng.integers(1, 30))
    cap = int(rng.integers(1, m + n + 3))
    left = _random_table(rng, m, entry0_inf=bool(rng.integers(2)))
    right = _random_table(rng, n, entry0_inf=bool(rng.integers(2)))
    _assert_core_matches_reference(left[None], right[None], cap, combine)


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("m,n", [(150, 120), (256, 40), (101, 101)])
def test_vectorized_merge_transposed_layout(m, n, combine):
    """Problems past the transpose threshold switch candidate layout;
    results must stay identical, including choice tie-breaking."""
    rng = np.random.default_rng(m * 1000 + n)
    left = _random_table(rng, m)
    right = _random_table(rng, n)
    cap = m + n  # wide output => single transposed shot
    _assert_core_matches_reference(left[None], right[None], cap, combine)
    with use_kernel_mode("fast"):
        got = knapsack_merge(left, right, cap, combine)
    _assert_same_merge(got, knapsack_merge_reference(left, right, cap, combine))


@pytest.mark.parametrize("combine", COMBINES)
@pytest.mark.parametrize("m,n", [(1, 7), (7, 1), (2, 9), (9, 2), (2, 2)])
def test_dispatcher_shortcut_tables(m, n, combine):
    """One- and two-entry child tables (leaf children): a one- or
    two-row candidate matrix in the core, and the small-problem route
    to the reference through the fast dispatcher."""
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
        _assert_core_matches_reference(left[None], right[None], cap, combine)


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
    _assert_core_matches_reference(lefts, rights, cap, combine)


@pytest.mark.parametrize("combine", COMBINES)
def test_batch_merge_tall_transposed(combine):
    rng = np.random.default_rng(7)
    J, m, n = 3, 130, 110
    lefts = np.stack([_random_table(rng, m) for _ in range(J)])
    rights = np.stack([_random_table(rng, n) for _ in range(J)])
    _assert_core_matches_reference(lefts, rights, m + n, combine)


def _tail_reference(l, r, width, combine):
    """The reference merge of the ``inf``-at-0 tables whose finite tails
    are ``l`` / ``r``, cut to the tails' convolution (entries ``2:``)."""
    left = np.concatenate(([INF], l))
    right = np.concatenate(([INF], r))
    out, choice = knapsack_merge_reference(left, right, width + 1, combine)
    return out[2:], choice[2:]


@pytest.mark.parametrize("maximum", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_positive_merge_matches_reference(seed, maximum):
    """The core on stacked all-finite tails, as the nonoverlapping sweep
    calls it: row ``k`` equals the reference merge of the corresponding
    inf-at-0 tables, its choices shifted by the tails' one-based
    offset; skipping the choice pass leaves the values unchanged."""
    rng = np.random.default_rng(200 + seed)
    K = int(rng.integers(1, 9))
    m = int(rng.integers(1, 140))
    n = int(rng.integers(1, 140))
    l, r = rng.random((K, m)) * 5, rng.random((K, n)) * 5
    combine = "max" if maximum else "sum"
    width = min(int(rng.integers(2, m + n + 1)), m + n) - 1
    out, choice = _stacked_merge(l, r, width, maximum)
    for k in range(K):
        ref_out, ref_ch = _tail_reference(l[k], r[k], width, combine)
        assert np.array_equal(out[k], ref_out)
        assert np.array_equal(choice[k] + 1, ref_ch)
    out_nc, choice_nc = _stacked_merge(l, r, width, maximum, want_choice=False)
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
    out, choice = _stacked_merge(l, r, width, maximum)
    for k in range(K):
        o1, c1 = _stacked_merge(l[k : k + 1], r[k : k + 1], width, maximum)
        assert np.array_equal(out[k], o1[0])
        assert np.array_equal(choice[k], c1[0])
    out_nc, choice_nc = _stacked_merge(l, r, width, maximum, want_choice=False)
    assert np.array_equal(out_nc, out)
    assert choice_nc is None


@pytest.mark.parametrize("maximum", [False, True])
def test_positive_merge_tall_batch_in_blocks(maximum):
    """A tall batch past one candidate block (the transposed layout,
    cut into blocks of whole rows) with ``inf``-padded tails, as the
    nonoverlapping sweep stacks them: every row's real columns equal
    the reference merge of that row alone."""
    rng = np.random.default_rng(11)
    K, m, n, width = 40, 300, 260, 350  # 5 blocks of up to 9 rows
    lm = rng.integers(100, m + 1, K)
    rm = rng.integers(1, n + 1, K)
    l = np.where(np.arange(m) < lm[:, None], rng.random((K, m)) * 5, INF)
    r = np.where(np.arange(n) < rm[:, None], rng.random((K, n)) * 5, INF)
    out, choice = _stacked_merge(l, r, width, maximum)
    combine = "max" if maximum else "sum"
    for k in range(K):
        ref_out, ref_ch = _tail_reference(
            l[k, : lm[k]], r[k, : rm[k]], width, combine
        )
        w = ref_out.size
        assert np.array_equal(out[k, :w], ref_out)
        assert np.array_equal(choice[k, :w] + 1, ref_ch)


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
    for i in range(len(h)):
        many = ctx.grperr_many(i, densities)
        each = np.array([ctx.grperr(i, float(d)) for d in densities])
        assert np.array_equal(many, each), (mname, i)


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
            ctx.grperr_many(i, dens[k])
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
            [naive_ctx.grperr_own(i) for i in range(len(h))]
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
    metric, on integer and fractional counts, for the overlapping
    builders with sparse buckets on and off, and for the nonoverlapping
    builder's low-memory reconstruction (single-pair merges)."""
    _dom, table, counts = random_instance(seed, height_range=(4, 7))
    rng = np.random.default_rng(seed)
    fractional = counts * rng.uniform(0.1, 3.0, counts.shape)
    metric = get_metric(mname)
    budget = 2 + seed % 6
    variants = (
        [{}, {"low_memory": True}] if builder is build_nonoverlapping
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


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("mname", ALL_METRICS)
@pytest.mark.parametrize("seed", range(6))
def test_kholes_identical_across_modes(seed, mname, sparse):
    """The k-holes DP, whose hole tables merge one pair at a time:
    fast curves and ordered bucket lists equal the naive reference.
    Budget 12 makes tables long enough for the stacked core; smaller
    merges take the small-problem route to the reference."""
    _dom, table, counts = random_instance(seed + 60, height_range=(3, 6))
    metric = get_metric(mname)
    budget = 12 if seed % 2 else 3
    results = {}
    for mode in ("naive", "fast"):
        h = PrunedHierarchy(table, counts)
        with use_kernel_mode(mode):
            results[mode] = build_lpm_kholes(
                h, metric, budget, k=1 + seed % 3, sparse=sparse
            )
    naive, fast = results["naive"], results["fast"]
    assert naive.curve.tobytes() == fast.curve.tobytes()
    for b in range(1, budget + 1):
        assert _bucket_list(naive.function_at(b)) == _bucket_list(
            fast.function_at(b)
        ), b


def _grid(seed, ndim):
    """A random grid of leaf tiles: 8 x 8 in two dimensions, 4 x 4 x 4
    in three, about half of them zero."""
    rng = np.random.default_rng(seed)
    height = 3 if ndim == 2 else 2
    doms = [UIDDomain(height)] * ndim
    cuts = [[d.node(height, p) for p in range(2 ** height)] for d in doms]
    counts = rng.integers(0, 30, (2 ** height,) * ndim).astype(float)
    counts[rng.random(counts.shape) < 0.5] = 0.0
    return GridGroups(doms, cuts, counts)


@pytest.mark.parametrize(
    "builder",
    [build_nonoverlapping_nd, build_overlapping_nd, build_lpm_greedy_nd],
)
@pytest.mark.parametrize("mname", ["rms", "max_relative"])
@pytest.mark.parametrize("ndim", [2, 3])
def test_multidim_builders_identical_across_modes(ndim, mname, builder):
    """The Section 4.2 DPs, one merge per region split: fast curves and
    ordered bucket regions equal the naive reference exactly (budget 12
    runs the larger merges through the stacked core)."""
    metric = get_metric(mname)
    budget = 12
    grid = _grid(ndim, ndim)
    results = {}
    for mode in ("naive", "fast"):
        with use_kernel_mode(mode):
            results[mode] = builder(grid, metric, budget)
    naive, fast = results["naive"], results["fast"]
    assert naive.curve.tobytes() == fast.curve.tobytes()
    for b in range(1, budget + 1):
        assert naive.buckets_at(b) == fast.buckets_at(b), b


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
