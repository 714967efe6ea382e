"""Tests for the sum(value) aggregate extension (the paper notes other
SQL aggregates are a straightforward extension of count(*))."""

import numpy as np
import pytest

from repro import (
    Bucket,
    GroupTable,
    LongestPrefixMatchPartitioning,
    OverlappingPartitioning,
    UIDDomain,
)
from repro.core.wire import decode_histogram_v2
from repro.streams import Monitor

DOM = UIDDomain(4)


@pytest.fixture
def table():
    return GroupTable(DOM, [DOM.node(2, p) for p in range(4)])


class TestWeightedCounts:
    def test_counts_from_uids_weighted(self, table):
        uids = [0, 1, 4, 15]
        values = [10.0, 5.0, 2.0, 1.0]
        agg = table.counts_from_uids(uids, values=values)
        assert list(agg) == [15.0, 2.0, 0.0, 1.0]

    def test_uncovered_values_dropped(self):
        t = GroupTable(DOM, [DOM.node(2, 0)])  # covers [0, 4)
        agg = t.counts_from_uids([0, 8], values=[3.0, 99.0])
        assert list(agg) == [3.0]

    def test_shape_mismatch_rejected(self, table):
        with pytest.raises(ValueError):
            table.counts_from_uids([0, 1], values=[1.0])

    def test_unweighted_equals_unit_weights(self, table):
        rng = np.random.default_rng(0)
        uids = rng.integers(0, 16, 200)
        a = table.counts_from_uids(uids)
        b = table.counts_from_uids(uids, values=np.ones(200))
        assert np.array_equal(a, b)


class TestWeightedHistograms:
    def test_lpm_weighted(self):
        fn = LongestPrefixMatchPartitioning(
            DOM, [Bucket(1), Bucket(DOM.node(1, 1))]
        )
        hist = fn.build_histogram([0, 8, 12], values=[5.0, 7.0, 1.0])
        assert hist.get(1) == 5.0
        assert hist.get(DOM.node(1, 1)) == 8.0
        assert hist.total == 13.0

    def test_overlapping_weighted(self):
        fn = OverlappingPartitioning(
            DOM, [Bucket(1), Bucket(DOM.node(1, 1))]
        )
        hist = fn.build_histogram([0, 8], values=[5.0, 7.0])
        assert hist.get(1) == 12.0  # root sees all mass
        assert hist.get(DOM.node(1, 1)) == 7.0

    def test_unmatched_mass(self):
        fn = LongestPrefixMatchPartitioning(DOM, [Bucket(DOM.node(1, 0))])
        hist = fn.build_histogram([0, 8], values=[5.0, 7.0])
        assert hist.unmatched == 7.0

    def test_weight_shape_rejected(self):
        fn = LongestPrefixMatchPartitioning(DOM, [Bucket(1)])
        with pytest.raises(ValueError):
            fn.build_histogram([0, 1], values=[1.0, 2.0, 3.0])

    def test_monitor_weighted_window(self):
        fn = LongestPrefixMatchPartitioning(DOM, [Bucket(1)])
        m = Monitor("m0")
        m.install_function(fn, 0)
        msg = m.process_window(0, [0, 1], values=[100.0, 50.0])
        assert decode_histogram_v2(msg.payload).get(1) == 150.0

    def test_weighted_matches_expansion(self, table):
        """sum(value) over a stream equals count(*) over a stream with
        each tuple repeated value times (integer values)."""
        fn = OverlappingPartitioning(DOM, [Bucket(1), Bucket(DOM.node(1, 0))])
        uids = np.array([0, 5, 9])
        values = np.array([3.0, 2.0, 4.0])
        weighted = fn.build_histogram(uids, values=values)
        expanded = fn.build_histogram(
            np.repeat(uids, values.astype(int))
        )
        assert weighted.counts == pytest.approx(expanded.counts)
