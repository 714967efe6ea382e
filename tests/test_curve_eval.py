"""Bit-exactness of the compiled heuristic error curve.

The greedy and quantized LPM heuristics report the *measured* error of
the function they pick at every budget, and the running minimum over
that curve decides which function gets installed — so a one-ulp drift
between the compiled evaluator and the reference can install a
different function.  Covered here:

* :func:`~repro.core.compiled.closest_estimates` against the
  reference histogram + reconstruction, and
  :func:`~repro.core.compiled.evaluate_closest` against
  :func:`~repro.core.estimate.evaluate_function`, bit for bit, over
  random tables, all four metrics, both ranking modes, pooled and
  unpooled greedy runs, sparse buckets on and off, and integer and
  non-integer counts (non-integer sums expose any change in summation
  order);
* whole curves under the ``fast`` kernel mode against the ``naive``
  one;
* the iterative :meth:`~repro.algorithms.OverlappingDP.buckets_for_budget`
  against a recursive reference walk, order included;
* the greedy's compiled bucket assignment against a per-node loop;
* the below-group :class:`ValueError`.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Bucket,
    GroupTable,
    LongestPrefixMatchPartitioning,
    OverlappingPartitioning,
    PrunedHierarchy,
    UIDDomain,
    evaluate_function,
    get_metric,
    histogram_from_group_counts,
    reconstruct_estimates,
)
from repro.algorithms import (
    OverlappingDP,
    build_lpm_greedy,
    build_lpm_quantized,
    build_nonoverlapping,
    use_kernel_mode,
)
from repro.algorithms.lpm_greedy import _bucket_assignment
from repro.algorithms.overlapping import _NOT_BUCKET, _SPARSE
from repro.core.compiled import (
    closest_enclosing,
    closest_estimates,
    evaluate_closest,
)

from helpers import ALL_METRICS, random_instance


@st.composite
def instances(draw):
    """A random (table, counts, hierarchy); counts are integers or
    arbitrary nonnegative floats."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    _dom, table, counts = random_instance(
        seed, height_range=(2, draw(st.sampled_from([5, 9])))
    )
    if draw(st.booleans()):
        rng = np.random.default_rng(seed)
        counts = counts * rng.random(len(counts)) * 3.7
        counts[rng.random(len(counts)) < 0.3] += rng.random() / 7
    return table, counts, PrunedHierarchy(table, counts)


@st.composite
def lpm_functions(draw):
    """A random instance plus a random LPM function over nodes at or
    above its group nodes (few buckets, so runs of many groups)."""
    table, counts, h = draw(instances())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    candidates = sorted(
        {a for g in table.nodes.tolist() for a in (g, *UIDDomain.ancestors(g))}
    )
    extra = rng.choice(
        candidates, size=min(len(candidates), int(rng.integers(0, 5))),
        replace=False,
    )
    nodes = sorted({1, *extra.tolist()})
    fn = LongestPrefixMatchPartitioning(
        table.domain, [Bucket(n) for n in nodes]
    )
    return table, counts, fn


@settings(max_examples=100, deadline=None)
@given(lpm_functions(), st.sampled_from(ALL_METRICS))
def test_estimates_bit_identical(data, mname):
    """Every estimate, not just the error, equals the reference's."""
    table, counts, fn = data
    expected = reconstruct_estimates(
        table, fn, histogram_from_group_counts(table, counts, fn)
    )
    got = closest_estimates(table, counts, fn)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    metric = get_metric(mname)
    assert evaluate_closest(table, counts, fn, metric) == (
        evaluate_function(table, counts, fn, metric)
    )


@settings(max_examples=60, deadline=None)
@given(
    instances(),
    st.sampled_from(ALL_METRICS),
    st.sampled_from(["error", "benefit"]),
    st.sampled_from([1.0, 1.7, 3.0]),
    st.booleans(),
)
def test_greedy_curve_bit_identical(data, mname, rank, overprovision, sparse):
    table, counts, h = data
    metric = get_metric(mname)
    budget = 8
    curves = {}
    for mode in ("naive", "fast"):
        with use_kernel_mode(mode):
            res = build_lpm_greedy(
                h, metric, budget, overprovision=overprovision, rank=rank,
                sparse=sparse,
            )
        curves[mode] = res.curve
    assert np.array_equal(curves["naive"], curves["fast"])
    for b in range(1, budget + 1):
        fn = res.make_function(b)
        assert evaluate_closest(table, counts, fn, metric) == (
            evaluate_function(table, counts, fn, metric)
        )


@settings(max_examples=25, deadline=None)
@given(instances(), st.sampled_from(ALL_METRICS), st.booleans())
def test_quantized_curve_bit_identical(data, mname, sparse):
    _table, _counts, h = data
    metric = get_metric(mname)
    curves = {}
    for mode in ("naive", "fast"):
        with use_kernel_mode(mode):
            curves[mode] = build_lpm_quantized(
                h, metric, 5, theta=1.0, beam=4, sparse=sparse
            ).curve
    assert np.array_equal(curves["naive"], curves["fast"])


@settings(max_examples=25, deadline=None)
@given(instances(), st.sampled_from(ALL_METRICS))
def test_nonoverlapping_functions_bit_identical(data, mname):
    """Nonoverlapping cuts share the closest-ancestor rule."""
    table, counts, h = data
    metric = get_metric(mname)
    res = build_nonoverlapping(h, metric, 6)
    for b in range(1, 7):
        if not np.isfinite(res.curve[b]):
            continue
        fn = res.make_function(b)
        assert evaluate_closest(table, counts, fn, metric) == (
            evaluate_function(table, counts, fn, metric)
        )


def test_overlapping_semantics_rejected(small_instance):
    dom, table, counts = small_instance
    fn = OverlappingPartitioning(dom, [Bucket(1), Bucket(2)])
    with pytest.raises(TypeError):
        evaluate_closest(table, counts, fn, get_metric("rms"))


def test_bucket_below_group_rejected():
    dom = UIDDomain(3)
    table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
    counts = np.array([4.0, 2.0])
    # A bucket at depth 2 splits the first (depth-1) group.
    fn = LongestPrefixMatchPartitioning(
        dom, [Bucket(1), Bucket(dom.node(2, 1))]
    )
    metric = get_metric("average")
    with pytest.raises(ValueError, match="strictly below group node"):
        evaluate_function(table, counts, fn, metric)
    with pytest.raises(ValueError, match="strictly below group node"):
        evaluate_closest(table, counts, fn, metric)


def test_counts_shape_checked(small_instance):
    dom, table, counts = small_instance
    fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
    with pytest.raises(ValueError, match="group counts"):
        evaluate_closest(table, counts[:-1], fn, get_metric("rms"))


# -- bucket-set reconstruction ------------------------------------------


def _recursive_buckets(dp: OverlappingDP, b: int) -> List[Bucket]:
    """Reference: the reconstruction walk in its recursive form."""
    out: List[Bucket] = []

    a = dp.hierarchy.arrays
    node, left, right = a.node.tolist(), a.left.tolist(), a.right.tolist()

    def bucket_case(i, b):
        rec = dp.records[i]
        b = min(b, len(rec.bucket_flag) - 1)
        if rec.bucket_flag[b] == _SPARSE or (
            b == 1 and rec.sparse_at is not None
        ):
            out.append(Bucket(node[i], sparse_group_node=rec.sparse_at))
            return
        out.append(Bucket(node[i]))
        if left[i] < 0 or rec.split_b is None or b <= 1:
            return
        c = int(rec.split_b[b - 1])
        entry(left[i], c, i)
        entry(right[i], b - 1 - c, i)

    def entry(i, b, j_idx):
        if b <= 0:
            return
        rec = dp.records[i]
        row = int(a.depth[j_idx])
        flags = rec.flags_block[row]
        b = min(b, len(flags) - 1)
        if flags[b] != _NOT_BUCKET:
            bucket_case(i, b)
            return
        c = int(rec.splits_block[row][b])
        entry(left[i], c, j_idx)
        entry(right[i], b - c, j_idx)

    bucket_case(len(node) - 1, max(1, min(b, len(dp.root_table) - 1)))
    return out


@settings(max_examples=30, deadline=None)
@given(
    instances(),
    st.sampled_from(ALL_METRICS),
    st.booleans(),
    st.sampled_from(["naive", "fast"]),
    st.randoms(use_true_random=False),
)
def test_iterative_reconstruction_matches_recursive(
    data, mname, sparse, mode, rnd
):
    """Same buckets in the same preorder, for every budget, in any
    budget order (the expansion cache is shared across budgets)."""
    _table, _counts, h = data
    budget = 12
    with use_kernel_mode(mode):
        dp = OverlappingDP(h, get_metric(mname), budget, sparse=sparse)
    budgets = list(range(0, budget + 3))
    rnd.shuffle(budgets)
    for b in budgets:
        assert dp.buckets_for_budget(b) == _recursive_buckets(dp, b)


# -- the greedy's bucket assignment -------------------------------------


@settings(max_examples=30, deadline=None)
@given(instances(), st.booleans())
def test_bucket_assignment_matches_per_node_loop(data, sparse):
    table, counts, h = data
    dp = OverlappingDP(h, get_metric("rms"), 10, sparse=sparse)
    pool = dp.buckets_for_budget(10)
    density, members = _bucket_assignment(h, pool)
    assigned = np.full(len(table), -1, dtype=np.int64)
    for node in sorted((x.node for x in pool), key=UIDDomain.depth):
        idx = table.group_indices_below(node)
        assigned[idx] = node
        expected = float(counts[idx].sum()) / idx.size if idx.size else 0.0
        assert density[node] == expected
    assert sorted(members) == sorted(set(assigned[assigned >= 0].tolist()))
    for node, sel in members.items():
        assert np.array_equal(sel, np.flatnonzero(assigned == node))


def test_closest_enclosing_ranges(small_instance):
    dom, table, _counts = small_instance
    nodes = [1, dom.node(2, 1), dom.node(4, 5), dom.node(3, 7)]
    first, last, slot = closest_enclosing(table, nodes)
    for k, node in enumerate(nodes):
        assert np.array_equal(
            np.arange(first[k], last[k]), table.group_indices_below(node)
        )
    # Groups 4..7 sit under node(2, 1); group 5 is its own bucket;
    # groups 14, 15 fall under node(3, 7).
    expected = [0] * 16
    expected[4:8] = [1] * 4
    expected[5] = 2
    expected[14:16] = [3, 3]
    assert slot.tolist() == expected
