"""Optimality and consistency tests for the nonoverlapping DP
(paper Section 3.2.2)."""

import numpy as np
import pytest

from repro import (
    GroupTable,
    PrunedHierarchy,
    UIDDomain,
    build_nonoverlapping,
    evaluate_function,
    get_metric,
)
from repro.algorithms import exhaustive_nonoverlapping, use_kernel_mode
from repro.data import generate_subnet_table

from helpers import ALL_METRICS, random_instance


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_matches_exhaustive_oracle(seed, mname):
    """The DP must equal brute-force search over every covering cut of
    the full virtual hierarchy, for every metric."""
    _dom, table, counts = random_instance(seed)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 4
    res = build_nonoverlapping(h, metric, budget)
    oracle, _ = exhaustive_nonoverlapping(table, counts, metric, budget)
    assert res.error_at(budget) == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("mname", ALL_METRICS)
def test_predicted_error_is_delivered(seed, mname):
    """The DP's claimed error must equal the error measured through the
    full histogram/reconstruction pipeline."""
    _dom, table, counts = random_instance(seed + 100)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 1 + seed % 5
    res = build_nonoverlapping(h, metric, budget)
    predicted = res.error_at(budget)
    if not np.isfinite(predicted):
        return
    fn = res.function_at(budget)
    measured = evaluate_function(table, counts, fn, metric)
    assert measured == pytest.approx(predicted, abs=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_curve_monotone_nonincreasing(seed):
    _dom, table, counts = random_instance(seed, height_range=(3, 6))
    metric = get_metric("rms")
    h = PrunedHierarchy(table, counts)
    res = build_nonoverlapping(h, metric, 12)
    finite = res.curve[np.isfinite(res.curve)]
    assert np.all(np.diff(finite) <= 1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_full_budget_reaches_zero_error(seed):
    """With one bucket per pruned leaf the cut resolves every nonzero
    group exactly and every empty region to zero."""
    _dom, table, counts = random_instance(seed, height_range=(2, 5))
    metric = get_metric("average")
    h = PrunedHierarchy(table, counts)
    budget = h.max_useful_buckets()
    res = build_nonoverlapping(h, metric, budget)
    assert res.error_at(budget) == pytest.approx(0.0, abs=1e-12)


def test_budget_one_is_single_root_bucket(small_hierarchy):
    metric = get_metric("rms")
    res = build_nonoverlapping(small_hierarchy, metric, 1)
    fn = res.function_at(1)
    assert fn.num_buckets == 1
    assert fn.buckets[0].node == small_hierarchy.root_node


def test_function_is_valid_cut(small_hierarchy):
    metric = get_metric("rms")
    res = build_nonoverlapping(small_hierarchy, metric, 6)
    fn = res.function_at(6)  # construction validates disjointness
    # all groups covered
    table = small_hierarchy.table
    covered = np.zeros(len(table), dtype=bool)
    for b in fn.buckets:
        covered[table.group_indices_below(b.node)] = True
    assert covered.all()


def test_bad_budget_rejected(small_hierarchy):
    with pytest.raises(ValueError):
        build_nonoverlapping(small_hierarchy, get_metric("rms"), 0)


def test_all_zero_window(small_instance):
    _dom, table, _counts = small_instance
    h = PrunedHierarchy(table, np.zeros(len(table)))
    res = build_nonoverlapping(h, get_metric("rms"), 3)
    assert res.error_at(3) == 0.0
    fn = res.function_at(3)
    assert fn.num_buckets == 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mname", ["rms", "max_relative"])
def test_low_memory_mode_equivalent(seed, mname):
    """The Section 4.4 multi-pass mode must produce the same curve and
    an equally-good bucket set as the split-retaining mode."""
    _dom, table, counts = random_instance(seed + 300)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 2 + seed % 4
    fast = build_nonoverlapping(h, metric, budget)
    lean = build_nonoverlapping(h, metric, budget, low_memory=True)
    assert np.allclose(fast.curve[1:], lean.curve[1:], equal_nan=True)
    err_fast = evaluate_function(
        table, counts, fast.function_at(budget), metric
    )
    err_lean = evaluate_function(
        table, counts, lean.function_at(budget), metric
    )
    assert err_lean == pytest.approx(err_fast, abs=1e-9)
    assert err_lean == pytest.approx(lean.error_at(budget), abs=1e-9)


# ---------------------------------------------------------------------------
# The arena sweep against the naive oracle, one merge case at a time
# ---------------------------------------------------------------------------
def _chain_groups(height, lean):
    """A one-leaf chain: at every level one child is a group and the
    other continues (``lean="left"`` keeps the right child as the leaf,
    so every parent's right child is a leaf; ``"right"`` the mirror)."""
    groups, node = [], 1
    for _ in range(height - 1):
        left, right = UIDDomain.children(node)
        leaf, node = (right, left) if lean == "left" else (left, right)
        groups.append(leaf)
    groups.extend(UIDDomain.children(node))
    return groups


def _complete_groups(height):
    """Every node at depth ``height``: the bottom parents are all
    leaf-leaf, every other parent internal-internal."""
    return list(range(1 << height, 2 << height))


#: Shape -> (height, groups, parents per case: leaf-leaf, only the left
#: child a leaf, only the right child a leaf, internal-internal).
SHAPES = {
    "leaf_pairs": (4, _complete_groups(4), (8, 0, 0, 7)),
    "left_chain": (7, _chain_groups(7, "left"), (1, 0, 6, 0)),
    "right_chain": (7, _chain_groups(7, "right"), (1, 6, 0, 0)),
    "pair": (1, _complete_groups(1), (1, 0, 0, 0)),
}


def _merge_cases(arrays):
    """Internal nodes per merge case, in ``SHAPES``' order."""
    inner = arrays.left >= 0
    lleaf = arrays.left[arrays.left[inner]] < 0
    rleaf = arrays.left[arrays.right[inner]] < 0
    return tuple(
        int(np.count_nonzero(m))
        for m in (lleaf & rleaf, lleaf & ~rleaf, ~lleaf & rleaf,
                  ~(lleaf | rleaf))
    )


def _shape_instance(shape, fractional):
    height, groups, _cases = SHAPES[shape]
    table = GroupTable(UIDDomain(height), groups)
    rng = np.random.default_rng(len(groups))
    if fractional:
        counts = rng.random(len(table)) * 40.0 + 0.25
    else:
        counts = rng.integers(1, 40, len(table)).astype(float)
    return table, counts


def _nodes(result, b):
    return [x.node for x in result.function_at(b).buckets]


def _bucket_lists(result, budget):
    return [_nodes(result, b) for b in range(1, budget + 1)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("mname", ["rms", "max_relative"])
@pytest.mark.parametrize("fractional", [False, True])
@pytest.mark.parametrize("low_memory", [False, True])
def test_fast_sweep_matches_naive_per_case(
    shape, mname, fractional, low_memory
):
    """Leaf-leaf parents, left- and right-leaning one-leaf chains: the
    fast arena sweep equals the naive DFS on curve bytes and on the
    exact bucket list at every budget, for a sum and a ``max``
    metric."""
    table, counts = _shape_instance(shape, fractional)
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    assert _merge_cases(h.arrays) == SHAPES[shape][2]
    large = h.max_useful_buckets() + 2
    for budget in (1, 2, 3, large):
        with use_kernel_mode("naive"):
            ref = build_nonoverlapping(
                PrunedHierarchy(table, counts), metric, budget,
                low_memory=low_memory,
            )
        with use_kernel_mode("fast"):
            got = build_nonoverlapping(
                h, metric, budget, low_memory=low_memory
            )
        assert got.curve.tobytes() == ref.curve.tobytes()
        assert _bucket_lists(got, budget) == _bucket_lists(ref, budget)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mname", ["rms", "max_relative"])
def test_fast_sweep_matches_naive_on_mixed_trees(seed, mname):
    """Random hierarchies mix all three cases (and zero summaries) in
    one phase; integer and fractional counts."""
    _dom, table, counts = random_instance(seed + 500, height_range=(4, 8))
    if seed % 2:
        counts = counts * 0.37
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    for budget in (1, 2, 3, h.max_useful_buckets() + 2):
        with use_kernel_mode("naive"):
            ref = build_nonoverlapping(h, metric, budget)
        with use_kernel_mode("fast"):
            got = build_nonoverlapping(h, metric, budget)
            lean = build_nonoverlapping(h, metric, budget, low_memory=True)
        assert got.curve.tobytes() == ref.curve.tobytes()
        assert lean.curve.tobytes() == ref.curve.tobytes()
        assert _bucket_lists(got, budget) == _bucket_lists(ref, budget)
        assert _bucket_lists(lean, budget) == _bucket_lists(ref, budget)


@pytest.mark.parametrize("mname", ["rms", "max_relative"])
def test_fast_sweep_matches_naive_on_wide_tables(mname):
    """Past 128 output entries the internal-internal merges are also
    grouped by their row count; they must still match the naive DFS
    exactly."""
    table = generate_subnet_table(UIDDomain(12), seed=3)
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 500, len(table)) * 1.5
    counts[rng.random(len(table)) < 0.3] = 0.0
    metric = get_metric(mname)
    h = PrunedHierarchy(table, counts)
    budget = 400
    arrays = h.arrays
    inner = arrays.left >= 0
    wide = inner & (np.minimum(budget, arrays.leaf_hi - arrays.leaf_lo) > 128)
    assert _merge_cases(arrays)[3] > 0 and wide.sum() >= 4
    with use_kernel_mode("naive"):
        ref = build_nonoverlapping(h, metric, budget)
    with use_kernel_mode("fast"):
        got = build_nonoverlapping(h, metric, budget)
    assert got.curve.tobytes() == ref.curve.tobytes()
    for b in (1, 2, 127, 128, 129, 200, budget):
        assert _nodes(got, b) == _nodes(ref, b)
