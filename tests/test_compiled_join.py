"""Bit-exactness property tests for the compiled ground-truth join.

Under the ``fast`` stream kernel mode the exact grouped aggregation
(paper Section 2.2.2) runs through
:class:`~repro.core.compiled.CompiledGroupJoin`.  Its output must be
**bytes-equal** to :meth:`~repro.core.groups.GroupTable.counts_from_uids`,
the reference the ``naive`` mode keeps, on tables that leave identifiers
uncovered and on windows holding identifiers outside the domain, for
counts and weighted sums, on the dense lookup and on the binary search
above the dense cap.  Also covered: the batched join against per-window
calls in both modes, and :meth:`~repro.streams.Trace.split` against the
boolean-mask split it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import GroupTable, UIDDomain
from repro.core.compiled import _DENSE_SEGMENT_CAP, CompiledGroupJoin
from repro.streams import (
    STREAM_KERNEL_MODES,
    Trace,
    use_stream_kernel_mode,
)
from repro.streams.query import (
    exact_group_counts,
    exact_group_counts_batched,
)

from helpers import random_partial_table

#: Heights on the dense-table path and the one above the dense cap.
DENSE_HEIGHTS = (3, 6, 10)
SEARCH_HEIGHT = 21
assert (1 << SEARCH_HEIGHT) > _DENSE_SEGMENT_CAP >= (1 << max(DENSE_HEIGHTS))


def _random_uids(rng, domain, max_len=400):
    """In-domain identifiers mixed with negative, ``== 2**h`` and large
    out-of-domain ones."""
    n = int(rng.integers(0, max_len))
    uids = rng.integers(0, domain.num_uids, size=n)
    if n:
        outside = np.asarray(
            [-1, -2, domain.num_uids, domain.num_uids + 1,
             -(2**62), 2**62, 2**40],
            dtype=np.int64,
        )
        hit = rng.random(n) < 0.1
        uids[hit] = rng.choice(outside, size=int(hit.sum()))
    return uids


def _assert_bytes_equal(want, got):
    assert want.dtype == got.dtype and want.shape == got.shape
    assert want.tobytes() == got.tobytes()  # bitwise: no tolerance


def _check_join(table, uids, values):
    join = CompiledGroupJoin.for_table(table)
    assert np.array_equal(
        table.lookup_many(uids), join.group_indices(uids)
    )
    for vals in (None, values):
        _assert_bytes_equal(
            table.counts_from_uids(uids, values=vals),
            join.counts(uids, values=vals),
        )


class TestCompiledGroupJoin:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        height=st.sampled_from(DENSE_HEIGHTS),
    )
    def test_dense_path_bytes_equal(self, seed, height):
        rng = np.random.default_rng(seed)
        table = random_partial_table(rng, height)
        assert CompiledGroupJoin.for_table(table)._lookup.dense is not None
        uids = _random_uids(rng, table.domain)
        # Nonzero weights everywhere, uncovered tuples included.
        values = rng.normal(size=uids.size) * 10.0 + 0.5
        _check_join(table, uids, values)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_binary_search_path_bytes_equal(self, seed):
        rng = np.random.default_rng(seed)
        table = random_partial_table(rng, SEARCH_HEIGHT)
        assert CompiledGroupJoin.for_table(table)._lookup.dense is None
        uids = _random_uids(rng, table.domain)
        values = rng.normal(size=uids.size) * 10.0 + 0.5
        _check_join(table, uids, values)

    @pytest.mark.parametrize("height", [8, SEARCH_HEIGHT])
    def test_out_of_domain_ids_are_dropped(self, height):
        domain = UIDDomain(height)
        n = domain.num_uids
        # One group on each end of the axis, a hole in the middle.
        table = GroupTable(domain, [domain.node(2, 0), domain.node(2, 3)])
        uids = np.asarray(
            [-1, 0, n - 1, n, -(2**62), 2**62, n // 2], dtype=np.int64
        )
        join = CompiledGroupJoin.for_table(table)
        assert join.group_indices(uids).tolist() == [
            -1, 0, 1, -1, -1, -1, -1
        ]
        values = np.asarray([1e9, 1.0, 2.0, 1e9, 1e9, 1e9, 1e9])
        assert join.counts(uids).tolist() == [1.0, 1.0]
        assert join.counts(uids, values).tolist() == [1.0, 2.0]
        _check_join(table, uids, values)

    def test_rejects_mismatched_values(self):
        table = GroupTable(UIDDomain(4), [UIDDomain(4).node(1, 0)])
        with pytest.raises(ValueError, match="2 values for 3 identifiers"):
            CompiledGroupJoin.for_table(table).counts([1, 2, 3], [1.0, 2.0])

    def test_compiled_once_per_table(self):
        domain = UIDDomain(5)
        table = GroupTable(domain, [domain.node(1, 0)])
        assert CompiledGroupJoin.for_table(
            table
        ) is CompiledGroupJoin.for_table(table)
        other = GroupTable(domain, [domain.node(1, 0)])
        assert CompiledGroupJoin.for_table(
            other
        ) is not CompiledGroupJoin.for_table(table)

    def test_modes_agree_through_query(self):
        rng = np.random.default_rng(4)
        table = random_partial_table(rng, 9)
        uids = _random_uids(rng, table.domain, 2000)
        values = rng.random(uids.size)
        for vals in (None, values):
            with use_stream_kernel_mode("naive"):
                want = exact_group_counts(table, uids, values=vals)
            with use_stream_kernel_mode("fast"):
                got = exact_group_counts(table, uids, values=vals)
            _assert_bytes_equal(want, got)


class TestBatchedJoin:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        height=st.sampled_from(DENSE_HEIGHTS + (SEARCH_HEIGHT,)),
    )
    def test_rows_equal_per_window_calls(self, seed, height):
        rng = np.random.default_rng(seed)
        table = random_partial_table(rng, height)
        n_windows = int(rng.integers(1, 6))
        uid_windows = [
            _random_uids(rng, table.domain, 150) for _ in range(n_windows)
        ]
        value_windows = [
            rng.normal(size=u.size) * 3.0 + 0.25 for u in uid_windows
        ]

        def per_window():
            return (
                [exact_group_counts(table, u) for u in uid_windows],
                [
                    exact_group_counts(table, u, values=v)
                    for u, v in zip(uid_windows, value_windows)
                ],
            )

        with use_stream_kernel_mode("naive"):
            reference = per_window()
        for mode in STREAM_KERNEL_MODES:
            with use_stream_kernel_mode(mode):
                plain = exact_group_counts_batched(table, uid_windows)
                weighted = exact_group_counts_batched(
                    table, uid_windows, value_windows
                )
                singles = per_window()
            assert plain.shape == weighted.shape == (n_windows, len(table))
            for rows, ones, refs in zip(
                (plain, weighted), singles, reference
            ):
                for row, single, ref in zip(rows, ones, refs):
                    _assert_bytes_equal(single, row)
                    _assert_bytes_equal(ref, row)

    @pytest.mark.parametrize("mode", STREAM_KERNEL_MODES)
    def test_no_windows(self, mode):
        table = GroupTable(UIDDomain(4), [UIDDomain(4).node(1, 1)])
        with use_stream_kernel_mode(mode):
            out = exact_group_counts_batched(table, [])
        assert out.shape == (0, 1) and out.dtype == np.float64


def _mask_split(trace, shares, seed):
    """The boolean-mask split :meth:`Trace.split` used to run."""
    owner = np.random.default_rng(seed).integers(0, shares, size=len(trace))
    return tuple(
        Trace(
            trace.timestamps[mask],
            trace.uids[mask],
            None if trace.values is None else trace.values[mask],
        )
        for mask in (owner == s for s in range(shares))
    )


class TestTraceSplit:
    @staticmethod
    def _assert_traces_equal(want, got):
        _assert_bytes_equal(want.timestamps, got.timestamps)
        _assert_bytes_equal(want.uids, got.uids)
        if want.values is None:
            assert got.values is None
        else:
            _assert_bytes_equal(want.values, got.values)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        size=st.integers(min_value=0, max_value=500),
        shares=st.integers(min_value=1, max_value=6),
        with_values=st.booleans(),
    )
    def test_equals_mask_split(self, seed, size, shares, with_values):
        rng = np.random.default_rng(seed)
        trace = Trace(
            np.sort(rng.random(size) * 10.0),
            rng.integers(0, 1 << 12, size=size),
            rng.normal(size=size) if with_values else None,
        )
        split_seed = int(rng.integers(0, 2**31))
        got = trace.split(shares, seed=split_seed)
        want = _mask_split(trace, shares, split_seed)
        assert len(got) == shares
        for w, g in zip(want, got):
            self._assert_traces_equal(w, g)

    @pytest.mark.parametrize("with_values", [False, True])
    def test_empty_trace_and_single_share(self, with_values):
        empty = Trace([], [], [] if with_values else None)
        for shares in (1, 3):
            got = empty.split(shares, seed=2)
            assert len(got) == shares
            for w, g in zip(_mask_split(empty, shares, 2), got):
                assert len(g) == 0
                self._assert_traces_equal(w, g)
        trace = Trace.untimed(
            np.arange(20) * 7, values=np.arange(20.0) if with_values else None
        )
        (only,) = trace.split(1, seed=9)
        self._assert_traces_equal(trace, only)
