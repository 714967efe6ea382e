"""Bit-exactness property tests for the compiled serving fast path.

The contract (the same one ``algorithms.kernels`` established for
construction): under ``REPRO_STREAM_KERNELS=fast`` every histogram and
every decoded estimate is **bit-for-bit identical** to the naive
reference path — the compiled kernels perform the same floating-point
accumulations in the same order, so not even the last ulp may move.

Covered here, over randomized functions and windows:

* :class:`~repro.core.compiled.CompiledPartitioner` vs
  ``PartitioningFunction.build_histogram`` for all three semantics
  classes, weighted and unweighted, sparse buckets included, and on
  identifiers outside the domain (dense and binary-search lookups);
* batched :meth:`~repro.core.compiled.CompiledPartitioner.build_histograms`
  vs one call per window;
* the overlapping count(*) range-count kernel, single and batched, vs
  the naive path: dense and binary-search domains, out-of-domain ids,
  empty windows inside a batch, one and many nesting levels, and the
  per-level ``sum(value)`` path beside it;
* :class:`~repro.core.compiled.CompiledEstimator` vs
  :func:`~repro.core.estimate.reconstruct_estimates`;
* the install-time tables against independent references, on
  non-covering mixed-depth tables, all three semantics and sparse
  buckets: the estimator's group->slot map and populations against
  the reference spread metadata, its below-a-group ``ValueError``, the
  partitioner's nesting forest, and the uid -> owner lookup of all
  three semantics (one-uid segments and out-of-domain ids, at the
  2**20 dense cap and past it);
* vectorized :meth:`~repro.core.partition.Histogram.merge` vs bucketwise
  dict accumulation;
* the Monitor / Control Center / MonitoringSystem integration;
* the mode machinery itself.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import (
    Bucket,
    CompiledEstimator,
    CompiledPartitioner,
    GroupTable,
    Histogram,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    UIDDomain,
    assign_groups_to_buckets,
    get_metric,
    histogram_from_group_counts,
    reconstruct_estimates,
)
from repro.core.compiled import _DENSE_SEGMENT_CAP
from repro.core.estimate import _spread_data
from repro.core.wire import decode_histogram_v2
from repro.streams import (
    STREAM_KERNEL_MODES,
    ControlCenter,
    Monitor,
    MonitoringSystem,
    Trace,
    set_stream_kernel_mode,
    stream_kernel_mode,
    use_stream_kernel_mode,
)

from helpers import random_partial_table

DOM = UIDDomain(7)


def _random_function(rng, max_depth=None):
    """A random valid function of a random semantics class; cap bucket
    depth with ``max_depth`` to keep buckets at-or-above group nodes
    for estimator tests."""
    max_depth = DOM.height if max_depth is None else max_depth
    kind = rng.integers(0, 3)
    if kind == 0:
        depth = int(rng.integers(1, max_depth))
        width = 1 << depth
        prefixes = rng.choice(
            width, size=int(rng.integers(1, min(6, width) + 1)), replace=False
        )
        buckets = [Bucket(DOM.node(depth, int(p))) for p in sorted(prefixes)]
        return NonoverlappingPartitioning(DOM, buckets)
    cls = (
        OverlappingPartitioning
        if kind == 1
        else LongestPrefixMatchPartitioning
    )
    for _ in range(50):
        nodes = set()
        while len(nodes) < int(rng.integers(1, 8)):
            d = int(rng.integers(0, max_depth + 1))
            nodes.add(int(DOM.node(d, int(rng.integers(0, 1 << d)))))
        try:
            return cls(DOM, [Bucket(n) for n in nodes])
        except ValueError:
            continue
    return cls(DOM, [Bucket(1)])


def _random_window(rng, max_len=300):
    n = int(rng.integers(0, max_len))
    uids = rng.integers(0, DOM.num_uids, size=n)
    values = rng.normal(size=n) * 10.0
    return uids, values


def _assert_histograms_identical(a, b):
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.values, b.values)  # bitwise: no tolerance
    assert a.unmatched == b.unmatched
    assert a.total == b.total


class TestCompiledPartitioner:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_identical_to_naive(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        uids, values = _random_window(rng)
        compiled = CompiledPartitioner.for_function(fn)
        for vals in (None, values):
            _assert_histograms_identical(
                fn.build_histogram(uids, values=vals),
                compiled.build_histogram(uids, values=vals),
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_batch_equals_single(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        compiled = CompiledPartitioner.for_function(fn)
        windows = [_random_window(rng, 120) for _ in range(4)]
        uid_windows = [w[0] for w in windows]
        value_windows = [w[1] for w in windows]
        for vals in (None, value_windows):
            batched = compiled.build_histograms(uid_windows, vals)
            for i, got in enumerate(batched):
                want = compiled.build_histogram(
                    uid_windows[i], None if vals is None else vals[i]
                )
                _assert_histograms_identical(want, got)

    def test_sparse_buckets(self):
        rng = np.random.default_rng(5)
        uids = rng.integers(0, DOM.num_uids, size=600)
        values = rng.random(600)
        for cls in (OverlappingPartitioning, LongestPrefixMatchPartitioning):
            fn = cls(
                DOM,
                [
                    Bucket(1),
                    Bucket(DOM.node(2, 1), sparse_group_node=DOM.node(4, 5)),
                ],
            )
            compiled = CompiledPartitioner.for_function(fn)
            for vals in (None, values):
                _assert_histograms_identical(
                    fn.build_histogram(uids, values=vals),
                    compiled.build_histogram(uids, values=vals),
                )

    def test_compile_cached_on_function(self):
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        assert CompiledPartitioner.for_function(
            fn
        ) is CompiledPartitioner.for_function(fn)


def _out_of_domain_uids(domain):
    """In-domain identifiers at both ends of the axis, plus negative,
    ``== 2**h`` and large out-of-domain identifiers."""
    n = domain.num_uids
    return np.asarray(
        [0, -1, n - 1, n, -2, n + 1, 3, -(2**40), 2**40, n // 2,
         -(2**62), 2**62, -1, n],
        dtype=np.int64,
    )


class TestOutOfDomainIdentifiers:
    """Identifiers outside ``[0, 2**h)`` match no bucket on the compiled
    path, exactly as on the naive one (they count as ``unmatched``)."""

    @staticmethod
    def _functions(domain):
        d = domain
        yield NonoverlappingPartitioning(
            d, [Bucket(d.node(1, 0)), Bucket(d.node(1, 1))]
        )
        nested = [Bucket(1), Bucket(d.node(1, 1)), Bucket(d.node(3, 7)),
                  Bucket(d.node(2, 0))]
        yield OverlappingPartitioning(d, nested)
        yield LongestPrefixMatchPartitioning(d, nested)

    # h=8 takes the dense uid -> owner table; h=21 is above the dense
    # cap and takes the binary search.
    @pytest.mark.parametrize("height", [8, 21])
    def test_histograms_equal_naive(self, height):
        domain = UIDDomain(height)
        uids = _out_of_domain_uids(domain)
        values = np.arange(1.0, uids.size + 1.0) * 1.5
        for fn in self._functions(domain):
            compiled = CompiledPartitioner.for_function(fn)
            for vals in (None, values):
                naive = fn.build_histogram(uids, values=vals)
                _assert_histograms_identical(
                    naive, compiled.build_histogram(uids, values=vals)
                )
                # Every out-of-domain id lands in ``unmatched``.
                outside = (uids < 0) | (uids >= domain.num_uids)
                weights = np.ones(uids.size) if vals is None else vals
                assert naive.unmatched >= weights[outside].sum()
                batched = compiled.build_histograms(
                    [uids, uids[::-1]],
                    None if vals is None else [vals, vals[::-1]],
                )
                _assert_histograms_identical(naive, batched[0])
                _assert_histograms_identical(
                    fn.build_histogram(
                        uids[::-1],
                        values=None if vals is None else vals[::-1],
                    ),
                    batched[1],
                )

    @pytest.mark.parametrize("height", [8, 21])
    @pytest.mark.parametrize("uid_kind", ["negative", "domain_size", "large"])
    def test_single_out_of_domain_id(self, height, uid_kind):
        domain = UIDDomain(height)
        uid = {"negative": -1, "domain_size": domain.num_uids,
               "large": 2**61}[uid_kind]
        uids = np.asarray([uid], dtype=np.int64)
        for fn in self._functions(domain):
            got = CompiledPartitioner.for_function(fn).build_histogram(uids)
            _assert_histograms_identical(fn.build_histogram(uids), got)
            assert got.unmatched == 1.0 and got.total == 1.0
            assert not np.any(got.values)


def _bits(h):
    """A histogram's outputs as exact bit patterns: nodes, the values
    viewed as int64, and ``unmatched``/``total`` as float64 bits."""
    scalars = np.asarray([h.unmatched, h.total], dtype=np.float64)
    return (
        h.nodes.tolist(),
        h.values.view(np.int64).tolist(),
        scalars.view(np.int64).tolist(),
    )


class TestOverlappingRangeCounts:
    """Overlapping count(*) windows are range counts over the elementary
    segments (one segment bincount plus prefix sums); ``sum(value)``
    windows keep the per-level bincounts.  Both must stay bit-identical
    to the naive ``OverlappingPartitioning.build_histogram``."""

    @staticmethod
    def _function(rng, domain, deep):
        h = domain.height
        if deep:
            # A chain of nested ancestors of one identifier, plus a few
            # random nodes: several nesting levels.
            uid = int(rng.integers(0, domain.num_uids))
            depths = rng.choice(h + 1, size=min(h + 1, 6), replace=False)
            nodes = {int(domain.node(int(d), uid >> (h - int(d))))
                     for d in depths}
            for _ in range(int(rng.integers(0, 6))):
                d = int(rng.integers(0, h + 1))
                nodes.add(int(domain.node(d, int(rng.integers(0, 1 << d)))))
        else:
            # Disjoint buckets at one depth: a single nesting level.
            d = int(rng.integers(1, min(h, 6) + 1))
            prefixes = rng.choice(
                1 << d, size=int(rng.integers(1, min(8, 1 << d) + 1)),
                replace=False,
            )
            nodes = {int(domain.node(d, int(p))) for p in prefixes}
        return OverlappingPartitioning(domain, [Bucket(n) for n in nodes])

    @staticmethod
    def _window(rng, domain, n):
        """``n`` identifiers: mostly in the domain, some negative and
        some at or above ``2**h``."""
        n_uids = domain.num_uids
        uids = rng.integers(0, n_uids, size=n)
        kind = rng.integers(0, 8, size=n)
        neg, high = kind == 0, kind == 1
        uids[neg] = -rng.integers(1, 1 << 40, size=int(neg.sum()))
        uids[high] = n_uids + rng.integers(0, 1 << 20, size=int(high.sum()))
        return uids

    # Heights up to 20 take the dense uid -> owner table (2**20 is the
    # dense cap); 21 and 40 take the binary search.
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        height=st.sampled_from([3, 9, 20, 21, 40]),
        deep=st.booleans(),
        weighted=st.booleans(),
    )
    def test_single_and_batched_equal_naive(
        self, seed, height, deep, weighted
    ):
        rng = np.random.default_rng(seed)
        domain = UIDDomain(height)
        fn = self._function(rng, domain, deep)
        compiled = CompiledPartitioner.for_function(fn)
        sizes = [int(rng.integers(0, 60))
                 for _ in range(int(rng.integers(1, 5)))]
        sizes.insert(int(rng.integers(0, len(sizes) + 1)), 0)
        windows = [self._window(rng, domain, n) for n in sizes]
        values = (
            [rng.normal(size=w.size) * 10.0 for w in windows]
            if weighted else None
        )
        batched = compiled.build_histograms(windows, values)
        for k, uids in enumerate(windows):
            vals = None if values is None else values[k]
            want = _bits(fn.build_histogram(uids, values=vals))
            assert _bits(compiled.build_histogram(uids, values=vals)) == want
            assert _bits(batched[k]) == want

    def test_only_out_of_domain_and_empty(self):
        domain = UIDDomain(21)
        fn = OverlappingPartitioning(
            domain, [Bucket(1), Bucket(domain.node(4, 3))]
        )
        compiled = CompiledPartitioner.for_function(fn)
        outside = np.asarray([-1, -(2**50), domain.num_uids, 2**61])
        empty = np.zeros(0, dtype=np.int64)
        batched = compiled.build_histograms([empty, outside, empty])
        for uids, got in zip([empty, outside, empty], batched):
            assert _bits(got) == _bits(fn.build_histogram(uids))
        assert batched[1].unmatched == 4.0 and not batched[1].values.size


class TestCompiledEstimator:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        table = GroupTable(DOM, [DOM.node(6, p) for p in range(64)])
        fn = _random_function(rng, max_depth=6)
        counts = rng.integers(0, 60, size=len(table)).astype(np.float64)
        hist = histogram_from_group_counts(table, counts, fn)
        naive = reconstruct_estimates(table, fn, hist)
        fast = CompiledEstimator.for_pair(table, fn).estimate(hist)
        assert np.array_equal(naive, fast)  # bitwise: no tolerance

    def test_sparse_outer_residual(self):
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        fn = OverlappingPartitioning(
            DOM,
            [
                Bucket(1),
                Bucket(DOM.node(2, 1), sparse_group_node=DOM.node(4, 5)),
            ],
        )
        counts = np.linspace(0, 31, 32)
        hist = histogram_from_group_counts(table, counts, fn)
        naive = reconstruct_estimates(table, fn, hist)
        fast = CompiledEstimator.for_pair(table, fn).estimate(hist)
        assert np.array_equal(naive, fast)

    def test_estimator_cached_per_pair(self):
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        assert CompiledEstimator.for_pair(
            table, fn
        ) is CompiledEstimator.for_pair(table, fn)

    def test_estimator_cache_does_not_pin_its_function(self):
        """A retired function is freed with its cached estimator, so an
        adaptive run does not keep every function it ever installed."""
        table = GroupTable(DOM, [DOM.node(5, p) for p in range(32)])
        fn = NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        CompiledEstimator.for_pair(table, fn)
        gone = weakref.ref(fn)
        del fn
        gc.collect()
        assert gone() is None


def _below_a_group(node, groups):
    """Whether ``node`` lies strictly below one of the ``groups`` nodes
    (a proper ancestor of ``node`` is a group node)."""
    return any(node >> k in groups for k in range(1, node.bit_length()))


def _install_function(rng, table, below=0):
    """A random function of a random semantics class over ``table``:
    ancestors of its groups and nodes over uncovered identifiers, with
    sparse buckets (a group as inner node) for the nested classes, plus
    ``below`` extra nodes strictly below group nodes."""
    domain = table.domain
    groups = {int(g) for g in table.nodes}
    group_list = sorted(groups)
    kind = int(rng.integers(0, 3))
    nodes = set()
    for _ in range(int(rng.integers(1, 12))):
        if rng.random() < 0.7:
            g = group_list[int(rng.integers(0, len(group_list)))]
            node = g >> int(rng.integers(0, g.bit_length()))
        else:
            d = int(rng.integers(0, domain.height + 1))
            node = int(domain.node(d, int(rng.integers(0, 1 << d))))
        if not _below_a_group(node, groups):
            nodes.add(node)
    if not nodes:
        nodes.add(group_list[0])
    deep = [g for g in group_list if g < (1 << domain.height)]
    under = []
    for _ in range(below if deep else 0):
        g = deep[int(rng.integers(0, len(deep)))]
        k = int(rng.integers(1, domain.height - UIDDomain.depth(g) + 1))
        under.append((g << k) + int(rng.integers(0, 1 << k)))
    nodes.update(under)
    if kind == 0:
        # A cut: keep the nodes that overlap no kept node, the ones
        # below a group first.
        kept = []
        for node in under + sorted(nodes, key=UIDDomain.depth):
            overlaps = (
                UIDDomain.is_ancestor(a, node)
                or UIDDomain.is_ancestor(node, a)
                for a in kept
            )
            if not any(overlaps):
                kept.append(node)
        return NonoverlappingPartitioning(domain, [Bucket(n) for n in kept])
    buckets = []
    used = set(nodes)
    for node in sorted(nodes):
        inner = [
            g for g in group_list
            if g != node and UIDDomain.is_ancestor(node, g) and g not in used
        ]
        if inner and rng.random() < 0.4:
            g = inner[int(rng.integers(0, len(inner)))]
            used.add(g)
            buckets.append(Bucket(node, sparse_group_node=g))
        else:
            buckets.append(Bucket(node))
    cls = (
        OverlappingPartitioning if kind == 1
        else LongestPrefixMatchPartitioning
    )
    return cls(domain, buckets)


class TestCompiledInstallTables:
    """The install-time tables against independent references: the
    estimator's group->slot map and populations against the per-node
    spread metadata (``_spread_data``), the partitioner's nesting forest
    against an ancestor walk, the uid -> owner lookup against its
    binary-search definition, and the below-a-group ``ValueError``."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        height=st.sampled_from([3, 7, 10]),
    )
    def test_estimator_tables_equal_spread_data(self, seed, height):
        rng = np.random.default_rng(seed)
        table = random_partial_table(rng, height, stop=rng.uniform(0.1, 0.4))
        fn = _install_function(rng, table)
        est = CompiledEstimator(table, fn)
        spread = _spread_data(table, fn)
        slot_nodes = np.asarray(fn.match_nodes, dtype=np.int64)
        assert np.array_equal(est.slot_nodes, slot_nodes)
        assigned = spread.assigned
        want_slot = np.where(
            assigned >= 0,
            np.searchsorted(slot_nodes, np.maximum(assigned, 0)),
            -1,
        ).astype(np.int64)
        pops = spread.gross if est.overlapping else spread.net
        want_pops = np.maximum(
            1.0, np.asarray([pops[n] for n in fn.match_nodes], np.float64)
        )
        for want, got in ((want_slot, est.group_slot),
                          (want_pops, est.populations)):
            assert want.dtype == got.dtype and want.shape == got.shape
            assert want.tobytes() == got.tobytes()
        counts = rng.integers(0, 40, size=len(table)).astype(np.float64)
        hist = histogram_from_group_counts(table, counts, fn)
        assert np.array_equal(
            reconstruct_estimates(table, fn, hist), est.estimate(hist)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        below=st.integers(min_value=1, max_value=3),
    )
    def test_below_a_group_raises_the_reference_error(self, seed, below):
        rng = np.random.default_rng(seed)
        table = random_partial_table(rng, 8, stop=rng.uniform(0.1, 0.4))
        # Only a group above the leaves has nodes strictly below it.
        assume(int(table.nodes.min()) < 1 << 8)
        fn = _install_function(rng, table, below=below)
        with pytest.raises(ValueError) as want:
            assign_groups_to_buckets(table, fn)
        with pytest.raises(ValueError) as got:
            CompiledEstimator(table, fn)
        assert str(got.value) == str(want.value)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_nesting_forest_equals_ancestor_walk(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        compiled = CompiledPartitioner(fn)
        slot = {n: i for i, n in enumerate(fn.match_nodes)}
        want = [
            next((slot[a] for a in UIDDomain.ancestors(n) if a in slot), -1)
            for n in fn.match_nodes
        ]
        assert compiled.nesting_parent_slot.tolist() == want

    @pytest.mark.parametrize("height", [4, 20, 21])
    def test_segment_table_equals_binary_search(self, height):
        """The uid lookup of every semantics class equals its definition
        ``owner[searchsorted(bounds, uid, "right") - 1]`` on every
        in-domain uid and on out-of-domain ids, which get the ``-1``
        sentinel.  The owner is the deepest covering bucket's slot under
        closest-ancestor semantics (checked against the reference
        matching of each segment's first uid) and the segment index
        under overlapping semantics.  Heights up to 20 build the dense
        table (2**20 is the cap); 21 takes the binary search.  Leaf
        buckets make one-uid segments, at both ends of the axis too."""
        domain = UIDDomain(height)
        n = domain.num_uids
        rng = np.random.default_rng(height)
        leaves = {0, 1, n - 2, n - 1} | set(
            rng.integers(0, n, size=6).tolist()
        )
        nodes = [domain.leaf(u) for u in sorted(leaves)]
        for _ in range(8):
            d = int(rng.integers(0, height + 1))
            nodes.append(int(domain.node(d, int(rng.integers(0, 1 << d)))))
        # A cut: every leaf, then each node whose range misses all the
        # ranges kept before it.
        cut, taken = [], []
        for x in nodes:
            lo, hi = domain.uid_range(x)
            if all(hi <= a or b <= lo for a, b in taken):
                cut.append(x)
                taken.append((lo, hi))
        nested = [Bucket(x) for x in set(nodes)]
        uids = np.concatenate(
            [np.arange(n, dtype=np.int64), _out_of_domain_uids(domain)]
        )
        outside = (uids < 0) | (uids >= n)
        for fn in (
            OverlappingPartitioning(domain, nested),
            LongestPrefixMatchPartitioning(domain, nested),
            NonoverlappingPartitioning(domain, [Bucket(x) for x in cut]),
        ):
            lookup = CompiledPartitioner(fn)._lookup
            bounds, owner = lookup.bounds, lookup.owner
            assert leaves <= set(bounds.tolist())
            assert (lookup.dense is None) == (n > _DENSE_SEGMENT_CAP)
            assert owner.size == bounds.size and owner[-1] == -1
            if isinstance(fn, OverlappingPartitioning):
                want_owner = list(range(bounds.size - 1))
            else:
                slot = {x: i for i, x in enumerate(fn.match_nodes)}
                want_owner = [
                    slot[match[0]] if match else -1
                    for match in map(fn.buckets_for_uid, bounds[:-1].tolist())
                ]
            assert owner[:-1].tolist() == want_owner
            want = owner[np.searchsorted(bounds, uids, side="right") - 1]
            got = lookup(uids)
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes()
            assert (got[outside] == -1).all()
            if lookup.dense is not None:
                assert lookup.dense.tobytes() == want[:n].tobytes()


class TestVectorizedMerge:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_merge_matches_dict_accumulation(self, seed):
        rng = np.random.default_rng(seed)
        fn = _random_function(rng)
        hists = [
            fn.build_histogram(*_random_window(rng, 150)[:1])
            for _ in range(int(rng.integers(0, 5)))
        ]
        merged = Histogram.merge(hists)
        expected = {}
        for h in hists:
            for node, value in h.counts.items():
                expected[node] = expected.get(node, 0.0) + value
        expected = {n: v for n, v in expected.items() if v != 0}
        assert merged.counts == expected
        assert merged.unmatched == sum(h.unmatched for h in hists)
        assert merged.total == sum(h.total for h in hists)


class TestStreamPipeline:
    def _workload(self, seed=0):
        rng = np.random.default_rng(seed)
        table = GroupTable(DOM, [DOM.node(6, p) for p in range(64)])
        n = 3000
        uids = rng.integers(0, DOM.num_uids, size=n)
        values = rng.random(n) * 4.0
        trace = Trace(np.sort(rng.random(n) * 100.0), uids, values)
        return table, trace.slice_time(0, 50), trace.slice_time(50, 100)

    def test_monitor_fast_equals_naive(self):
        table, history, live = self._workload()
        fn = LongestPrefixMatchPartitioning(
            DOM, [Bucket(1), Bucket(DOM.node(3, 2)), Bucket(DOM.node(2, 3))]
        )
        monitor = Monitor("m0")
        monitor.install_function(fn, 0)
        for vals in (None, live.values):
            with use_stream_kernel_mode("fast"):
                fast = monitor.process_window(0, live.uids, values=vals)
            with use_stream_kernel_mode("naive"):
                naive = monitor.process_window(0, live.uids, values=vals)
            _assert_histograms_identical(
                decode_histogram_v2(fast.payload),
                decode_histogram_v2(naive.payload),
            )

    def test_monitor_batch_api(self):
        fn = NonoverlappingPartitioning(
            DOM, [Bucket(DOM.node(2, p)) for p in range(4)]
        )
        rng = np.random.default_rng(1)
        windows = [
            rng.integers(0, DOM.num_uids, size=int(rng.integers(1, 80)))
            for _ in range(5)
        ]
        for mode in STREAM_KERNEL_MODES:
            monitor = Monitor("m0")
            monitor.install_function(fn, 3)
            with use_stream_kernel_mode(mode):
                messages = monitor.process_windows(range(5), windows)
            assert [m.window_index for m in messages] == list(range(5))
            assert monitor.windows_processed == 5
            assert monitor.tuples_processed == sum(len(w) for w in windows)
            for msg, uids in zip(messages, windows):
                _assert_histograms_identical(
                    decode_histogram_v2(msg.payload), fn.build_histogram(uids)
                )

    def test_monitor_batch_rejects_mismatched_lengths(self):
        monitor = Monitor("m0")
        monitor.install_function(
            NonoverlappingPartitioning(DOM, [Bucket(DOM.node(1, 0))]), 0
        )
        with pytest.raises(ValueError, match="window indices"):
            monitor.process_windows([0, 1], [np.array([1])])

    def test_decode_fast_equals_naive(self):
        table, history, live = self._workload(3)
        cc = ControlCenter(table, get_metric("rms"), budget=30)
        counts = np.asarray(
            [float(i % 7) for i in range(len(table))], dtype=np.float64
        )
        fn = cc.rebuild_function(counts)
        monitor = Monitor("m0")
        monitor.install_function(fn, cc.function_version)
        msg = monitor.process_window(0, live.uids, values=live.values)
        with use_stream_kernel_mode("fast"):
            fast = cc.decode_window([msg])
        with use_stream_kernel_mode("naive"):
            naive = cc.decode_window([msg])
        assert np.array_equal(fast.estimates, naive.estimates)


class TestModeMachinery:
    def test_default_mode_is_fast(self):
        assert stream_kernel_mode() in STREAM_KERNEL_MODES

    def test_set_and_restore(self):
        previous = set_stream_kernel_mode("naive")
        try:
            assert stream_kernel_mode() == "naive"
        finally:
            set_stream_kernel_mode(previous)

    def test_use_scopes_mode(self):
        before = stream_kernel_mode()
        with use_stream_kernel_mode("naive"):
            assert stream_kernel_mode() == "naive"
        assert stream_kernel_mode() == before

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown stream kernel mode"):
            set_stream_kernel_mode("turbo")

    def test_env_initialisation(self):
        import os
        import subprocess
        import sys

        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.streams import stream_kernel_mode;"
                "print(stream_kernel_mode())",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "REPRO_STREAM_KERNELS": "naive"},
        )
        assert out.stdout.strip() == "naive"

    def test_env_rejects_unknown_mode(self):
        import os
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c", "import repro.streams"],
            capture_output=True,
            text=True,
            env={**os.environ, "REPRO_STREAM_KERNELS": "naiv"},
        )
        assert out.returncode != 0
        assert "ValueError" in out.stderr
        assert "known modes: naive, fast" in out.stderr
