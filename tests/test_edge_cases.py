"""Edge cases and failure injection across the stack."""

import numpy as np
import pytest

from repro import (
    Bucket,
    GroupTable,
    Histogram,
    LongestPrefixMatchPartitioning,
    OverlappingPartitioning,
    PrunedHierarchy,
    UIDDomain,
    build_nonoverlapping,
    build_overlapping,
    evaluate_function,
    get_metric,
    reconstruct_estimates,
)
from repro.algorithms import build_lpm_greedy
from repro.core.wire import decode_histogram_v2
from repro.streams import ControlCenter, Monitor


class TestDegenerateDomains:
    def test_height_zero_single_identifier(self):
        dom = UIDDomain(0)
        table = GroupTable(dom, [1])
        counts = np.array([5.0])
        h = PrunedHierarchy(table, counts)
        res = build_nonoverlapping(h, get_metric("rms"), 2)
        assert res.error_at(2) == pytest.approx(0.0)
        fn = res.function_at(2)
        assert fn.buckets_for_uid(0) == [1]

    def test_single_group_is_whole_domain(self):
        dom = UIDDomain(3)
        table = GroupTable(dom, [1], ["everything"])
        counts = np.array([42.0])
        h = PrunedHierarchy(table, counts)
        for builder in (build_nonoverlapping, build_overlapping):
            res = builder(h, get_metric("average"), 3)
            assert res.error_at(3) == pytest.approx(0.0)

    def test_wide_domain_within_int64(self):
        dom = UIDDomain(40)
        table = GroupTable(dom, [dom.node(8, p) for p in range(256)])
        uid = (1 << 40) - 1
        assert table.lookup(uid) == 255
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        hist = fn.build_histogram(np.array([uid, 0]))
        assert hist.get(1) == 2

    def test_oversized_domain_rejected(self):
        dom = UIDDomain(80)
        with pytest.raises(ValueError, match="62-bit"):
            GroupTable(dom, [1])


class TestBadCounts:
    def test_nan_counts_rejected(self, small_instance):
        _dom, table, counts = small_instance
        bad = counts.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            PrunedHierarchy(table, bad)

    def test_inf_counts_rejected(self, small_instance):
        _dom, table, counts = small_instance
        bad = counts.copy()
        bad[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            PrunedHierarchy(table, bad)

    def test_fractional_counts_supported(self, small_instance):
        """Sum aggregates produce non-integer 'counts'; everything
        downstream must handle them."""
        _dom, table, counts = small_instance
        frac = counts * 0.37
        h = PrunedHierarchy(table, frac)
        res = build_overlapping(h, get_metric("rms"), 5)
        fn = res.function_at(5)
        assert evaluate_function(table, frac, fn, get_metric("rms")) == \
            pytest.approx(res.error_at(5), abs=1e-9)


class TestDecodeRobustness:
    def test_empty_message_list_decodes_to_zero(self, small_instance):
        _dom, table, counts = small_instance
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="overlapping", budget=4)
        cc.rebuild_function(counts)
        est = cc.decode([])
        assert np.all(est == 0)

    def test_histogram_missing_buckets_is_zero(self, small_instance):
        """A histogram that omits buckets (all zero-count) reconstructs
        zeros, not garbage."""
        dom, table, _counts = small_instance
        fn = OverlappingPartitioning(dom, [Bucket(1)])
        est = reconstruct_estimates(table, fn, Histogram({}))
        assert np.all(est == 0)

    def test_monitor_empty_window(self, small_instance):
        dom, table, counts = small_instance
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        m = Monitor("m")
        m.install_function(fn, 0)
        msg = m.process_window(0, np.array([], dtype=np.int64))
        histogram = decode_histogram_v2(msg.payload)
        assert len(histogram) == 0
        assert histogram.total == 0

    def test_live_traffic_outside_history(self, small_instance):
        """A function trained on one window must still decode a window
        whose traffic appears in regions that were empty in history."""
        dom, table, counts = small_instance
        h = PrunedHierarchy(table, counts)
        fn = build_lpm_greedy(h, get_metric("rms"), 5).function_at(5)
        live = np.zeros(len(table))
        live[0] = 50.0  # group that was silent in history
        err = evaluate_function(table, live, fn, get_metric("rms"))
        assert np.isfinite(err)


class TestBudgetExtremes:
    def test_budget_larger_than_capacity(self, small_instance):
        _dom, table, counts = small_instance
        h = PrunedHierarchy(table, counts)
        cap = h.max_useful_buckets()
        res = build_overlapping(h, get_metric("average"), cap * 3)
        # more budget than useful buckets: curve flat at zero error
        assert res.error_at(cap * 3) == pytest.approx(0.0, abs=1e-12)

    def test_function_at_clamps(self, small_instance):
        _dom, table, counts = small_instance
        h = PrunedHierarchy(table, counts)
        res = build_nonoverlapping(h, get_metric("rms"), 4)
        fn = res.function_at(10_000)
        assert fn.num_buckets <= 4
