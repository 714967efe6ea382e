"""Tests for the stream substrate: traces, windows, queries, monitors,
channel, control center."""

import numpy as np
import pytest

from repro import (
    Bucket,
    GroupTable,
    LongestPrefixMatchPartitioning,
    UIDDomain,
    get_metric,
)
from repro.core.wire import (
    WireHistogram,
    decode_histogram_v2,
    encode_histogram_v2,
    merge_wire,
)
from repro.streams import (
    Channel,
    ControlCenter,
    FaultModel,
    GroupedAggregationQuery,
    HistogramMessage,
    InstallScheduler,
    Monitor,
    SlidingWindows,
    Trace,
    TumblingWindows,
    exact_group_counts,
    use_stream_kernel_mode,
)


class TestTrace:
    def test_sorts_unordered_input(self):
        t = Trace([3.0, 1.0, 2.0], [30, 10, 20])
        assert list(t.timestamps) == [1.0, 2.0, 3.0]
        assert list(t.uids) == [10, 20, 30]

    def test_untimed(self):
        t = Trace.untimed([5, 6, 7], rate=2.0)
        assert list(t.timestamps) == [0.0, 0.5, 1.0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace([1.0], [1, 2])

    def test_slice_time(self):
        t = Trace.untimed(list(range(10)))
        piece = t.slice_time(2.0, 5.0)
        assert list(piece.uids) == [2, 3, 4]

    def test_split_partitions(self):
        t = Trace.untimed(list(range(100)))
        parts = t.split(3, seed=1)
        assert sum(len(p) for p in parts) == 100
        seen = sorted(u for p in parts for u in p.uids.tolist())
        assert seen == list(range(100))

    def test_split_deterministic(self):
        t = Trace.untimed(list(range(50)))
        a = t.split(2, seed=5)
        b = t.split(2, seed=5)
        assert np.array_equal(a[0].uids, b[0].uids)

    def test_duration_and_iter(self):
        t = Trace([0.0, 4.0], [1, 2])
        assert t.duration == 4.0
        assert list(t) == [(0.0, 1), (4.0, 2)]


class TestWindows:
    def test_tumbling_partitions_stream(self):
        t = Trace.untimed(list(range(10)))  # timestamps 0..9
        wins = list(TumblingWindows(4.0).segment(t))
        assert [len(w) for w in wins] == [4, 4, 2]
        assert wins[0].start == 0.0 and wins[1].start == 4.0

    def test_tumbling_empty_trace(self):
        assert list(TumblingWindows(1.0).segment(Trace([], []))) == []

    def test_sliding_overlap(self):
        t = Trace.untimed(list(range(8)))
        wins = list(SlidingWindows(4.0, 2.0).segment(t))
        assert [len(w) for w in wins[:3]] == [4, 4, 4]
        assert wins[1].start == 2.0

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            TumblingWindows(0.0)
        with pytest.raises(ValueError):
            SlidingWindows(2.0, 3.0)
        with pytest.raises(ValueError):
            SlidingWindows(2.0, 0.0)


def _slice_time_tumbling(trace, width):
    """The window-by-window ``slice_time`` loop one-pass segmentation
    must reproduce exactly."""
    if not len(trace):
        return []
    t_end = float(trace.timestamps[-1])
    out = []
    start = float(trace.timestamps[0])
    while start <= t_end:
        end = start + width
        piece = trace.slice_time(start, end)
        out.append((len(out), start, end, piece.uids, piece.values))
        start = end
    return out


def _slice_time_sliding(trace, width, slide):
    if not len(trace):
        return []
    t0 = float(trace.timestamps[0])
    t_end = float(trace.timestamps[-1])
    out = []
    start = t0
    while start <= t_end:
        piece = trace.slice_time(start, start + width)
        out.append(
            (len(out), start, start + width, piece.uids, piece.values)
        )
        start = t0 + len(out) * slide
    return out


def _assert_same_windows(windows, reference):
    assert len(windows) == len(reference)
    for w, (index, start, end, uids, values) in zip(windows, reference):
        assert w.index == index
        # Edges are compared exactly: the one-pass cut must find the
        # same float edges, not merely close ones.
        assert w.start == start and w.end == end
        assert w.uids.dtype == uids.dtype
        assert np.array_equal(w.uids, uids)
        if values is None:
            assert w.values is None
        else:
            assert w.values.dtype == values.dtype
            assert np.array_equal(w.values, values)


def _segmentation_traces():
    rng = np.random.default_rng(11)
    # Gaps leave interior empty windows; a lone late tuple leaves
    # empty windows right before the last one.
    gappy_ts = np.concatenate(
        [rng.uniform(0.0, 3.0, 50), rng.uniform(9.0, 10.0, 30), [17.5]]
    )
    unsorted_ts = rng.uniform(0.0, 20.0, 300)
    return {
        "empty": Trace([], []),
        "single": Trace([4.25], [7]),
        "gappy": Trace(gappy_ts, rng.integers(0, 16, gappy_ts.size)),
        "weighted": Trace(
            gappy_ts, rng.integers(0, 16, gappy_ts.size),
            values=rng.uniform(0.0, 5.0, gappy_ts.size),
        ),
        "unsorted": Trace(
            unsorted_ts, rng.integers(0, 16, unsorted_ts.size),
            values=rng.uniform(0.0, 5.0, unsorted_ts.size),
        ),
        "tuple_on_edge": Trace([0.0, 1.0, 2.0, 2.0, 3.0], [1, 2, 3, 4, 5]),
    }


class TestOnePassSegmentation:
    """Tumbling and sliding windows cut the trace in one pass; every
    window must equal the ``slice_time`` loop's window."""

    @pytest.mark.parametrize("name", sorted(_segmentation_traces()))
    @pytest.mark.parametrize("width", [0.7, 1.0, 2.5])
    def test_tumbling_matches_slice_time(self, name, width):
        trace = _segmentation_traces()[name]
        _assert_same_windows(
            list(TumblingWindows(width).segment(trace)),
            _slice_time_tumbling(trace, width),
        )

    @pytest.mark.parametrize("name", sorted(_segmentation_traces()))
    @pytest.mark.parametrize("width,slide", [(2.0, 0.5), (1.0, 0.3), (2.5, 2.5)])
    def test_sliding_matches_slice_time(self, name, width, slide):
        trace = _segmentation_traces()[name]
        _assert_same_windows(
            list(SlidingWindows(width, slide).segment(trace)),
            _slice_time_sliding(trace, width, slide),
        )

    def test_interior_and_trailing_windows_can_be_empty(self):
        windows = list(
            TumblingWindows(1.0).segment(_segmentation_traces()["gappy"])
        )
        sizes = [len(w) for w in windows]
        assert 0 in sizes[3:9] and sizes[-2] == 0 and sizes[-1] == 1

    def test_many_windows_with_accumulated_edges(self):
        """>=10k windows of width 0.1: accumulated edges drift away from
        ``t0 + k * width``, and the cuts must follow the accumulated
        ones."""
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0.0, 1200.0, 30_000))
        trace = Trace(ts, rng.integers(0, 1 << 10, ts.size))
        windows = list(TumblingWindows(0.1).segment(trace))
        assert len(windows) >= 10_000
        t0 = float(ts[0])
        assert any(w.start != t0 + w.index * 0.1 for w in windows)
        _assert_same_windows(windows, _slice_time_tumbling(trace, 0.1))
        assert sum(len(w) for w in windows) == len(trace)

    def test_sliding_many_windows(self):
        rng = np.random.default_rng(4)
        ts = rng.uniform(0.0, 1000.0, 20_000)
        trace = Trace(ts, rng.integers(0, 1 << 10, ts.size),
                      values=rng.uniform(0.0, 1.0, ts.size))
        windows = list(SlidingWindows(0.3, 0.1).segment(trace))
        assert len(windows) >= 10_000
        _assert_same_windows(
            windows, _slice_time_sliding(trace, 0.3, 0.1)
        )

    def test_split_matches_per_share_masks(self):
        rng = np.random.default_rng(5)
        trace = Trace(rng.uniform(0.0, 10.0, 500),
                      rng.integers(0, 64, 500),
                      values=rng.uniform(0.0, 1.0, 500))
        parts = trace.split(3, seed=9)
        owner = np.random.default_rng(9).integers(0, 3, size=len(trace))
        for s, part in enumerate(parts):
            assert np.array_equal(part.timestamps, trace.timestamps[owner == s])
            assert np.array_equal(part.uids, trace.uids[owner == s])
            assert np.array_equal(part.values, trace.values[owner == s])


@pytest.fixture
def table():
    dom = UIDDomain(4)
    return GroupTable(dom, [dom.node(2, p) for p in range(4)],
                      ["g0", "g1", "g2", "g3"])


class TestQuery:
    def test_exact_counts(self, table):
        counts = exact_group_counts(table, [0, 1, 4, 8, 8, 15])
        assert list(counts) == [2, 1, 2, 1]

    def test_windowed_run(self, table):
        t = Trace.untimed([0, 4, 8, 12, 0, 4])
        q = GroupedAggregationQuery(table, TumblingWindows(4.0))
        results = list(q.run(t))
        assert len(results) == 2
        _w0, counts0 = results[0]
        assert counts0.sum() == 4

    def test_answer_dict_nonzero_only(self, table):
        q = GroupedAggregationQuery(table)
        ans = q.answer_dict([0, 0, 15])
        assert ans == {"g0": 2.0, "g3": 1.0}


class TestMonitorAndChannel:
    def test_monitor_requires_function(self):
        m = Monitor("m0")
        with pytest.raises(RuntimeError):
            m.process_window(0, [1, 2])

    def test_monitor_histograms(self, table):
        dom = table.domain
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        m = Monitor("m0")
        m.install_function(fn, version=0)
        msg = m.process_window(3, [0, 1, 2])
        assert msg.window_index == 3
        assert decode_histogram_v2(msg.payload).get(1) == 3
        assert m.tuples_processed == 3

    def test_channel_accounting(self, table):
        dom = table.domain
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        ch = Channel(dom)
        ch.send_function(fn)
        assert ch.downstream_bytes == (fn.size_bits() + 7) // 8
        m = Monitor("m0")
        m.install_function(fn, 0)
        msg = m.process_window(0, [0, 1])
        ch.send_histogram(msg)
        assert ch.upstream_bytes == msg.size_bytes()
        assert ch.total_bytes == ch.upstream_bytes + ch.downstream_bytes
        assert ch.raw_stream_bytes(100) == 100 * ((dom.height + 7) // 8)


class TestControlCenter:
    def test_rebuild_and_decode(self, table):
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="overlapping", budget=4)
        history = np.array([10.0, 0.0, 5.0, 5.0])
        fn = cc.rebuild_function(history)
        m = Monitor("m0")
        m.install_function(fn, cc.function_version)
        msg = m.process_window(0, [0, 1, 8, 12])
        est = cc.decode([msg])
        assert est.shape == (4,)
        assert est.sum() == pytest.approx(4.0)

    def test_merge_histograms(self, table):
        cc = ControlCenter(table, get_metric("rms"), budget=2)
        fn = cc.rebuild_function(np.array([1.0, 1, 1, 1]))
        monitors = [Monitor(f"m{i}") for i in range(2)]
        msgs = []
        for i, m in enumerate(monitors):
            m.install_function(fn, cc.function_version)
            msgs.append(m.process_window(0, [i * 4, i * 4 + 1]))
        merged = cc.decode_window(msgs).merged
        assert merged.total == 4

    def test_stale_function_rejected(self, table):
        cc = ControlCenter(table, get_metric("rms"), budget=2)
        fn = cc.rebuild_function(np.ones(4))
        m = Monitor("m0")
        m.install_function(fn, cc.function_version)
        msg = m.process_window(0, [0])
        cc.rebuild_function(np.ones(4))  # version bump
        with pytest.raises(ValueError, match="stale"):
            cc.decode([msg])

    def test_decode_without_function_rejected(self, table):
        cc = ControlCenter(table, get_metric("rms"))
        with pytest.raises(RuntimeError):
            cc.decode([])

    def test_approximate_answer_keys(self, table):
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="nonoverlapping", budget=4)
        fn = cc.rebuild_function(np.array([5.0, 0, 0, 5.0]))
        m = Monitor("m0")
        m.install_function(fn, cc.function_version)
        msg = m.process_window(0, [0, 15])
        ans = cc.approximate_answer([msg])
        assert set(ans) <= {"g0", "g1", "g2", "g3"}
        assert sum(ans.values()) == pytest.approx(2.0)

    def test_approximate_answer_keeps_negative_estimates(self, table):
        """A weighted window can sum to a negative estimate; the answer
        keeps every nonzero group, not only the positive ones."""
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="nonoverlapping", budget=4)
        fn = cc.rebuild_function(np.ones(4))
        m = Monitor("m0")
        m.install_function(fn, cc.function_version)
        msg = m.process_window(0, [0, 15], values=[-3.0, 2.0])
        assert list(cc.decode([msg])) == [-0.25] * 4
        assert cc.approximate_answer([msg]) == {
            g: -0.25 for g in ("g0", "g1", "g2", "g3")
        }


class TestChannelFaultAccounting:
    """Bytes are charged once per *wire transmission*: duplicates twice,
    dropped messages once (the bytes were spent even though nothing
    arrived), and every install retry again — so compression_ratio
    reflects real link cost."""

    def _message(self, table):
        dom = table.domain
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        m = Monitor("m0")
        m.install_function(fn, 0)
        return fn, m.process_window(0, [0, 1, 2])

    def test_duplicate_charged_per_copy(self, table):
        fn, msg = self._message(table)
        ch = Channel(table.domain, faults=FaultModel(duplicate=1.0))
        deliveries = ch.send_histogram(msg)
        size = msg.size_bytes()
        assert len(deliveries) == 2
        assert len(ch.messages) == 2
        assert ch.upstream_bytes == 2 * size

    def test_drop_still_charged_once(self, table):
        fn, msg = self._message(table)
        ch = Channel(table.domain, faults=FaultModel(drop=1.0))
        deliveries = ch.send_histogram(msg)
        assert deliveries == []
        assert len(ch.messages) == 1
        assert ch.upstream_bytes == msg.size_bytes()
        assert ch.delivered == []

    def test_duplicate_of_dropped_copy_still_possible(self, table):
        """drop=1 with duplicate=1: two transmissions, both lost, both
        charged."""
        fn, msg = self._message(table)
        ch = Channel(table.domain,
                     faults=FaultModel(drop=1.0, duplicate=1.0))
        assert ch.send_histogram(msg) == []
        assert ch.upstream_bytes == 2 * msg.size_bytes()

    def test_install_retries_charged_per_attempt(self, table):
        fn, _msg = self._message(table)
        ch = Channel(table.domain, faults=FaultModel(install_drop=1.0))
        size = (fn.size_bits() + 7) // 8
        for _ in range(3):
            assert ch.send_function(fn, version=0) is False
        assert ch.downstream_bytes == 3 * size

    def test_clean_channel_single_delivery(self, table):
        fn, msg = self._message(table)
        ch = Channel(table.domain)
        deliveries = ch.send_histogram(msg)
        assert len(deliveries) == 1
        assert deliveries[0].delay == 0
        assert ch.upstream_bytes == msg.size_bytes()
        assert ch.send_function(fn) is True


class TestInstallScheduler:
    def _fleet(self, table):
        dom = table.domain
        fn = LongestPrefixMatchPartitioning(dom, [Bucket(1)])
        cc = type("CC", (), {"function": fn, "function_version": 3})()
        monitor = Monitor("m0")
        return fn, cc, monitor

    def test_backoff_schedule_caps(self, table):
        """With every install lost, retries follow 1, 2, 4, 8, 8, ...
        windows between attempts (capped exponential backoff), each
        attempt charged downstream."""
        fn, cc, monitor = self._fleet(table)
        ch = Channel(table.domain, faults=FaultModel(install_drop=1.0))
        sched = InstallScheduler(backoff_base=1, backoff_cap=8)
        attempt_windows = []
        before = 0
        for w in range(23):
            sched.tick(w, cc, [monitor], ch)
            if ch.downstream_bytes > before:
                attempt_windows.append(w)
                before = ch.downstream_bytes
        assert attempt_windows == [0, 2, 6, 14, 22]
        size = (fn.size_bits() + 7) // 8
        assert ch.downstream_bytes == len(attempt_windows) * size
        assert sched.attempts == 5
        assert sched.retries == 4
        assert monitor.function is None

    def test_delivered_install_clears_state(self, table):
        fn, cc, monitor = self._fleet(table)
        ch = Channel(table.domain)
        sched = InstallScheduler()
        assert sched.tick(0, cc, [monitor], ch) == 1
        assert monitor.function is fn
        assert monitor.function_version == 3
        assert sched.pending == 0
        # Up to date: further ticks send nothing.
        bytes_after = ch.downstream_bytes
        sched.tick(1, cc, [monitor], ch)
        assert ch.downstream_bytes == bytes_after

    def test_crashed_monitor_reinstalled_next_tick(self, table):
        fn, cc, monitor = self._fleet(table)
        ch = Channel(table.domain)
        sched = InstallScheduler()
        sched.tick(0, cc, [monitor], ch)
        monitor.crash()
        assert monitor.crashes == 1
        assert sched.tick(1, cc, [monitor], ch) == 1
        assert monitor.function_version == 3

    def test_bad_backoff_rejected(self, table):
        with pytest.raises(ValueError):
            InstallScheduler(backoff_base=0)
        with pytest.raises(ValueError):
            InstallScheduler(backoff_base=4, backoff_cap=2)


class TestDecodeWindow:
    def _setup(self, table):
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="nonoverlapping", budget=4)
        fn = cc.rebuild_function(np.array([10.0, 6.0, 4.0, 2.0]))
        monitors = [Monitor(f"m{i}") for i in range(2)]
        for m in monitors:
            m.install_function(fn, cc.function_version)
        return cc, fn, monitors

    def test_duplicates_deduped_by_key(self, table):
        cc, _fn, monitors = self._setup(table)
        msg0 = monitors[0].process_window(0, [0, 1, 4])
        msg1 = monitors[1].process_window(0, [8, 12])
        clean = cc.decode_window([msg0, msg1])
        doubled = cc.decode_window([msg0, msg0, msg1, msg1, msg0])
        assert doubled.duplicates_dropped == 3
        assert doubled.monitors_reporting == 2
        assert np.array_equal(doubled.estimates, clean.estimates)

    def test_stale_policy_quarantine_counts(self, table):
        cc, _fn, monitors = self._setup(table)
        old = monitors[0].process_window(0, [0, 1])
        new_fn = cc.rebuild_function(np.array([10.0, 6.0, 4.0, 2.0]))
        monitors[1].install_function(new_fn, cc.function_version)
        fresh = monitors[1].process_window(0, [8])
        decoded = cc.decode_window(
            [old, fresh], expected_monitors=2, policy="quarantine"
        )
        assert decoded.stale_messages == 1
        assert decoded.monitors_reporting == 1
        assert decoded.estimates.sum() == pytest.approx(1.0)

    def test_stale_policy_rescale_scales_by_coverage(self, table):
        cc, _fn, monitors = self._setup(table)
        old = monitors[0].process_window(0, [0, 1])
        new_fn = cc.rebuild_function(np.array([10.0, 6.0, 4.0, 2.0]))
        monitors[1].install_function(new_fn, cc.function_version)
        fresh = monitors[1].process_window(0, [8])
        quarantined = cc.decode_window(
            [old, fresh], expected_monitors=2, policy="quarantine"
        )
        rescaled = cc.decode_window(
            [old, fresh], expected_monitors=2, policy="rescale"
        )
        assert rescaled.coverage == pytest.approx(0.5)
        assert np.array_equal(
            rescaled.estimates, quarantined.estimates * 2.0
        )

    def test_fast_decode_matches_reference(self, table):
        """One merge_views over the parsed payloads must equal the naive
        reference and the wire-level merge the Control Center used to
        round-trip through."""
        cc = ControlCenter(table, get_metric("rms"),
                           algorithm="nonoverlapping", budget=4)
        fn = cc.rebuild_function(np.array([10.0, 6.0, 4.0, 2.0]))
        rng = np.random.default_rng(0)
        msgs = []
        for i in range(3):
            monitor = Monitor(f"m{i}")
            monitor.install_function(fn, cc.function_version)
            msgs.append(monitor.process_window(0, rng.integers(0, 16, 40)))
        with use_stream_kernel_mode("fast"):
            fast = cc.decode_window(msgs)
        with use_stream_kernel_mode("naive"):
            naive = cc.decode_window(msgs)
        wire = WireHistogram(merge_wire([m.payload for m in msgs]))
        for other in (naive.merged, wire.to_histogram()):
            assert np.array_equal(fast.merged.nodes, other.nodes)
            assert np.array_equal(fast.merged.values, other.values)
            assert fast.merged.unmatched == other.unmatched
            assert fast.merged.total == other.total
        assert np.array_equal(fast.estimates, naive.estimates)

    @pytest.mark.parametrize("mode", ["fast", "naive"])
    @pytest.mark.parametrize("mismatch", ["height", "semantics"])
    def test_payload_for_another_function_rejected(self, table, mode, mismatch):
        cc, fn, monitors = self._setup(table)
        msg = monitors[0].process_window(0, [0, 1, 4])
        if mismatch == "height":
            domain, semantics = UIDDomain(5), fn.semantics
        else:
            domain = table.domain
            semantics = next(
                s for s in ("overlapping", "nonoverlapping")
                if s != fn.semantics
            )
        foreign = HistogramMessage(
            monitor="m9", window_index=0,
            function_version=cc.function_version,
            payload=encode_histogram_v2(decode_histogram_v2(msg.payload),
                                        domain, semantics=semantics),
        )
        with use_stream_kernel_mode(mode):
            with pytest.raises(ValueError, match="current function"):
                cc.decode_window([msg, foreign])

    def test_bad_policy_rejected(self, table):
        cc, _fn, monitors = self._setup(table)
        msg = monitors[0].process_window(0, [0])
        with pytest.raises(ValueError, match="stale_policy"):
            cc.decode_window([msg], policy="ignore")
        with pytest.raises(ValueError, match="stale_policy"):
            ControlCenter(table, get_metric("rms"), stale_policy="nope")
