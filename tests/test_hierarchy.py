"""Tests for the pruned hierarchy (Steiner tree + zero summaries)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GroupTable, PrunedHierarchy, UIDDomain
from repro.core.hierarchy import BRANCH, GROUP, ZERO, _bit_length

from helpers import random_cut, random_instance, recursive_hierarchy


class TestStructure:
    def test_single_nonzero_group(self):
        dom = UIDDomain(4)
        table = GroupTable(dom, [dom.node(4, p) for p in range(16)])
        counts = np.zeros(16)
        counts[5] = 10.0
        h = PrunedHierarchy(table, counts)
        assert h.num_nonzero_groups == 1
        assert h.arrays.n_groups[-1] == 16
        assert h.total_tuples == 10.0
        # the single group leaf is present
        leaves = np.flatnonzero(h.arrays.kind == GROUP)
        assert leaves.size == 1
        assert h.arrays.group[leaves[0]] == 5

    def test_all_zero_window(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        h = PrunedHierarchy(table, np.zeros(2))
        assert h.arrays.kind[-1] == ZERO
        assert h.arrays.n_groups[-1] == 2
        assert h.num_nonzero_groups == 0

    def test_count_shape_rejected(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        with pytest.raises(ValueError):
            PrunedHierarchy(table, np.zeros(3))

    def test_negative_counts_rejected(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [dom.node(1, 0), dom.node(1, 1)])
        with pytest.raises(ValueError):
            PrunedHierarchy(table, np.array([1.0, -2.0]))

    def test_postorder_children_before_parents(self, small_hierarchy):
        a = small_hierarchy.arrays
        for i in np.flatnonzero(a.left >= 0):
            assert a.left[i] < a.right[i] < i

    def test_leaf_kinds(self, small_hierarchy):
        a = small_hierarchy.arrays
        for i in range(len(small_hierarchy)):
            if a.left[i] < 0:
                assert a.kind[i] in (GROUP, ZERO)
                assert a.right[i] < 0
            else:
                assert a.kind[i] == BRANCH
                assert a.right[i] >= 0

    def test_group_leaves_are_nonzero(self, small_hierarchy):
        a = small_hierarchy.arrays
        for i in np.flatnonzero(a.kind == GROUP):
            assert small_hierarchy.tuples[i] > 0
            assert a.n_groups[i] == 1
            assert a.n_nonzero[i] == 1


class TestAggregates:
    @pytest.mark.parametrize("seed", range(25))
    def test_aggregates_match_table(self, seed):
        """Every pruned node's aggregates must equal direct queries of
        the group table over its subtree."""
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        a = h.arrays
        for i in range(len(h)):
            idx = table.group_indices_below(int(a.node[i]))
            assert a.n_groups[i] == idx.size
            assert a.n_nonzero[i] == int((counts[idx] > 0).sum())
            assert h.tuples[i] == pytest.approx(float(counts[idx].sum()))

    @pytest.mark.parametrize("seed", range(25))
    def test_zero_nodes_partition_zero_groups(self, seed):
        """Zero summaries and group leaves together account for every
        group exactly once."""
        _dom, table, counts = random_instance(seed)
        a = PrunedHierarchy(table, counts).arrays
        zero_total = int(a.n_groups[a.kind == ZERO].sum())
        group_total = int(np.count_nonzero(a.kind == GROUP))
        assert zero_total + group_total == len(table)
        assert group_total == int((counts > 0).sum())

    @pytest.mark.parametrize("seed", range(10))
    def test_children_disjoint(self, seed):
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        node, left, right, _depth = h.links()
        for i in range(len(h)):
            if left[i] >= 0:
                lr = table.domain.uid_range(node[left[i]])
                rr = table.domain.uid_range(node[right[i]])
                assert lr[1] <= rr[0]  # ordered, disjoint
                assert UIDDomain.is_ancestor(node[i], node[left[i]])
                assert UIDDomain.is_ancestor(node[i], node[right[i]])

    def test_density(self, small_hierarchy):
        h = small_hierarchy
        assert h.densities[-1] == pytest.approx(
            h.total_tuples / h.arrays.n_groups[-1]
        )

    def test_group_counts_below(self, small_hierarchy):
        h = small_hierarchy
        got = h.counts[h.table.group_indices_below(h.root_node)]
        assert got.sum() == pytest.approx(h.total_tuples)

    @pytest.mark.parametrize("seed", range(25))
    def test_single_nonzero_leaf(self, seed):
        """The descent ends at the subtree's only group leaf, and at a
        zero summary (``None``) when the subtree has no nonzero group."""
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        a = h.arrays
        for i in np.flatnonzero(a.n_nonzero <= 1).tolist():
            below = np.arange(i - a.size[i] + 1, i + 1)
            groups = below[a.kind[below] == GROUP]
            want = int(a.node[groups[0]]) if groups.size else None
            assert h.single_nonzero_leaf(i) == want, i


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hierarchy_size_linear_in_nonzero(seed):
    """|pruned nodes| is O(nonzero groups x height) and every node is
    either a leaf or has two children (no unary chains survive unless
    they carry zero attachments)."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(2, 8))
    dom = UIDDomain(height)
    table = GroupTable(dom, random_cut(rng, height))
    counts = rng.integers(0, 5, len(table)).astype(float)
    h = PrunedHierarchy(table, counts)
    nonzero = int((counts > 0).sum())
    if nonzero:
        assert len(h) <= 2 * nonzero * (height + 1)
    assert np.array_equal(h.arrays.left < 0, h.arrays.right < 0)


# -- the array build against the recursive oracle ------------------------


def _random_groups(rng, height, max_groups=48):
    """Random nonoverlapping group nodes: a random descent that stops,
    splits, or follows one child (so height 62 stays small), leaving
    some subtrees without any group."""
    out = []
    stack = [1]
    while stack:
        node = stack.pop()
        r = rng.random()
        at_bottom = node.bit_length() - 1 == height
        if at_bottom or r < 0.25 or len(out) + len(stack) >= max_groups:
            if rng.random() < 0.85:
                out.append(node)
            continue
        kids = [2 * node, 2 * node + 1]
        if r < 0.6:
            keep, other = kids if rng.random() < 0.5 else kids[::-1]
            stack.append(keep)
            if rng.random() < 0.5:
                out.append(other)
        else:
            stack.extend(kids)
    return out or [1]


def _oracle_arrays(nodes):
    """Every TreeArrays column, derived from the oracle's nodes."""
    n = len(nodes)
    col = {k: [0] * n for k in ("size", "phase", "leaf_lo", "leaf_hi")}
    depth = [0] * n
    slot = 0
    for p in nodes:  # postorder: children first
        i = p.index
        if p.is_leaf:
            col["size"][i] = 1
            col["leaf_lo"][i] = slot
            slot += 1
            col["leaf_hi"][i] = slot
        else:
            li, ri = p.left.index, p.right.index
            col["size"][i] = col["size"][li] + col["size"][ri] + 1
            col["phase"][i] = max(col["phase"][li], col["phase"][ri]) + 1
            col["leaf_lo"][i] = col["leaf_lo"][li]
            col["leaf_hi"][i] = col["leaf_hi"][ri]
    for p in reversed(nodes):
        if p.parent is not None:
            depth[p.index] = depth[p.parent.index] + 1

    def ref(p):
        return -1 if p is None else p.index

    leaves = [p for p in nodes if p.is_leaf]
    phase = np.array(col["phase"])
    internal = np.array([p.index for p in nodes if not p.is_leaf], dtype=int)
    order = internal[np.argsort(phase[internal], kind="stable")]
    out = {k: np.array(v) for k, v in col.items()}
    out.update(
        node=np.array([p.node for p in nodes]),
        kind=np.array([
            ("group", "zero", "branch").index(p.kind) for p in nodes
        ]),
        left=np.array([ref(p.left) for p in nodes]),
        right=np.array([ref(p.right) for p in nodes]),
        parent=np.array([ref(p.parent) for p in nodes]),
        depth=np.array(depth),
        group=np.array([
            -1 if p.group_index is None else p.group_index for p in nodes
        ]),
        n_groups=np.array([p.n_groups for p in nodes]),
        n_nonzero=np.array([p.n_nonzero for p in nodes]),
        order=order,
        order_phase=phase[order],
        leaf_weight=np.array([float(p.n_groups) for p in leaves]),
    )
    return out


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_matches_oracle(table, counts):
    want = recursive_hierarchy(table, counts)
    h = PrunedHierarchy(table, counts)
    assert len(h) == len(want)
    for name, expected in _oracle_arrays(want).items():
        got = getattr(h.arrays, name)
        assert np.array_equal(got, expected), name
    assert np.array_equal(_bits(h.tuples), _bits([p.tuples for p in want]))
    assert np.array_equal(
        _bits(h.densities), _bits([p.density for p in want])
    )
    assert np.array_equal(
        _bits(h.leaf_actual),
        _bits([p.tuples for p in want if p.is_leaf]),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 3, 5, 8, 16, 62]),
    st.sampled_from(["sparse", "dense", "zero", "single", "fractional"]),
)
def test_arrays_match_recursive_oracle(seed, height, mode):
    rng = np.random.default_rng(seed)
    table = GroupTable(UIDDomain(height), _random_groups(rng, height))
    g = len(table)
    if mode == "zero":
        counts = np.zeros(g)
    elif mode == "single":
        counts = np.zeros(g)
        counts[rng.integers(g)] = float(rng.integers(1, 50))
    else:
        counts = rng.integers(0, 40, g).astype(float)
        counts[rng.random(g) < (0.8 if mode == "sparse" else 0.1)] = 0.0
        if mode == "fractional":
            counts *= rng.random(g) * 1.7
    _assert_matches_oracle(table, counts)


def test_bit_length_is_exact():
    """Around every power of two up to 2**62, where a float log2 of a
    value just below one rounds up."""
    values = [0, 1] + [
        (1 << k) + d for k in range(1, 63) for d in (-1, 0, 1)
    ]
    got = _bit_length(np.array(values, dtype=np.int64))
    assert got.tolist() == [v.bit_length() for v in values]


class TestOracleCases:
    @pytest.mark.parametrize("height", [0, 1, 62])
    @pytest.mark.parametrize("count", [0.0, 7.5])
    def test_one_group_at_the_root(self, height, count):
        _assert_matches_oracle(GroupTable(UIDDomain(height), [1]), [count])

    @pytest.mark.parametrize("height", [1, 62])
    def test_all_zero(self, height):
        dom = UIDDomain(height)
        table = GroupTable(dom, [2, 3] if height == 1 else [2, 6, 7])
        _assert_matches_oracle(table, np.zeros(len(table)))

    @pytest.mark.parametrize("height", [1, 62])
    def test_single_nonzero_group(self, height):
        dom = UIDDomain(height)
        table = GroupTable(dom, [2, 3]) if height == 1 else GroupTable(
            dom, [dom.leaf(5), dom.node(3, 6), dom.leaf(dom.num_uids - 1)]
        )
        counts = np.zeros(len(table))
        counts[-1] = 4.0
        _assert_matches_oracle(table, counts)

    def test_uncovered_domain(self):
        """Groups in one corner of a height-62 domain: the pruned root
        is their common ancestor, not the virtual root."""
        dom = UIDDomain(62)
        base = dom.node(40, 12345)
        table = GroupTable(dom, [4 * base, 4 * base + 1, 4 * base + 3])
        _assert_matches_oracle(table, [0.0, 2.0, 3.0])
        assert PrunedHierarchy(table, [0.0, 2.0, 3.0]).root_node == base

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        _dom, table, counts = random_instance(seed, height_range=(1, 9))
        _assert_matches_oracle(table, counts)
