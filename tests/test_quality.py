"""One quality tracker, on every window.

The ``WindowReport`` quality fields and the drift detector's input come
from :class:`~repro.obs.QualityTracker`, fed each decoded window's slot
sums.  These tests pin what that promises:

* reports are identical with telemetry off and with a registry, a
  journal and an SLO engine live (serial, adaptive faulty and sharded
  systems);
* the fast and naive stream kernels give bit-identical quality fields,
  including empty windows, ``rescale`` decodes and the ``merge_views``
  fallback for a node outside the function;
* the drift reference anchors on the first window *with traffic* in
  each run under each function version: an empty window never becomes
  the reference, and a run never measures drift against an earlier
  run's anchor.
"""

import io
import math
import struct

import numpy as np
import pytest

from repro import CompiledEstimator, Histogram, UIDDomain, get_metric
from repro.core.wire import WireHistogram, encode_histogram_v2
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import (
    EventJournal,
    MetricsRegistry,
    QualityTracker,
    SLOEngine,
    WindowQuality,
    parse_slo_spec,
    use_journal,
    use_registry,
    use_slo_engine,
)
from repro.serving import ShardedMonitoringSystem
from repro.streams import (
    AdaptiveMonitoringSystem,
    BucketDriftDetector,
    ControlCenter,
    FaultModel,
    HistogramMessage,
    MonitoringSystem,
    Trace,
)
from repro.streams.kernels import use_stream_kernel_mode
from repro.streams.query import exact_group_counts

QUALITY_FIELDS = (
    "coverage", "spill_fraction", "occupancy_entropy", "occupancy_skew",
    "drift_score",
)
FAULTS = "drop=0.15,dup=0.1,delay=0.1,crash=0.05,seed=7"
SLO = "coverage>=0.9,drift_score<=0.5,occupancy_entropy>=0.2"


@pytest.fixture(scope="module")
def workload():
    table = generate_subnet_table(UIDDomain(10), seed=2)
    ts, uids = generate_timestamped_trace(
        table, 8000, duration=40.0, seed=4,
        model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
    )
    trace = Trace(ts, uids)
    return table, trace.slice_time(0, 20), trace.slice_time(20, 40)


def _serial(table):
    return MonitoringSystem(
        table, get_metric("rms"), num_monitors=3, algorithm="lpm_greedy",
        budget=40,
    )


def _adaptive(table, faults=FAULTS, threshold=0.05):
    return AdaptiveMonitoringSystem(
        table, get_metric("rms"), num_monitors=3, algorithm="lpm_greedy",
        budget=40, stale_policy="quarantine",
        faults=FaultModel.parse(faults),
        detector=BucketDriftDetector(threshold=threshold, patience=1),
    )


def _bits(report):
    """Each window's quality fields as float64 bytes."""
    return [
        struct.pack("<5d", *(getattr(w, f) for f in QUALITY_FIELDS))
        for w in report.windows
    ]


def _run(system, history, live, telemetry):
    if not telemetry:
        system.train(history)
        return system.run(live, window_width=2.0)
    with use_registry(MetricsRegistry()), \
            use_journal(EventJournal(io.StringIO())), \
            use_slo_engine(SLOEngine(parse_slo_spec(SLO))):
        system.train(history)
        return system.run(live, window_width=2.0)


class TestTelemetryNeverChangesAReport:
    def test_serial(self, workload):
        table, history, live = workload
        off = _run(_serial(table), history, live, telemetry=False)
        on = _run(_serial(table), history, live, telemetry=True)
        assert off.windows == on.windows
        assert any(w.occupancy_entropy > 0 for w in off.windows)

    def test_adaptive_faulty_quarantine(self, workload):
        table, history, live = workload
        off = _run(_adaptive(table), history, live, telemetry=False)
        on = _run(_adaptive(table), history, live, telemetry=True)
        assert off.rebuilds
        assert off.windows == on.windows
        assert (off.rebuilds, off.drift_scores) == (
            on.rebuilds, on.drift_scores
        )

    def test_sharded(self, workload):
        table, history, live = workload
        reports = []
        for telemetry in (False, True):
            with ShardedMonitoringSystem(
                table, get_metric("rms"), num_monitors=3, shards=2,
                algorithm="lpm_greedy", budget=40,
                stale_policy="rescale", faults=FaultModel.parse(FAULTS),
            ) as system:
                reports.append(_run(system, history, live, telemetry))
        off, on = reports
        assert off.windows == on.windows
        serial = _run(
            MonitoringSystem(
                table, get_metric("rms"), num_monitors=3,
                algorithm="lpm_greedy", budget=40, stale_policy="rescale",
                faults=FaultModel.parse(FAULTS),
            ),
            history, live, telemetry=False,
        )
        assert _bits(off) == _bits(serial)


class TestKernelModesAgree:
    """Quality bits do not depend on the stream kernel mode."""

    def _both(self, make, history, live):
        out = []
        for mode in ("fast", "naive"):
            with use_stream_kernel_mode(mode):
                out.append(_run(make(), history, live, telemetry=False))
        return out

    def test_adaptive_runs_with_empty_windows(self, workload):
        table, history, live = workload
        fast, naive = self._both(
            lambda: _adaptive(table, faults="install_drop=0.9,seed=3"),
            history, live,
        )
        assert any(w.monitors_reporting == 0 for w in fast.windows)
        assert _bits(fast) == _bits(naive)
        assert fast.drift_scores == naive.drift_scores

    def test_rescale_runs(self, workload):
        table, history, live = workload

        def make():
            return MonitoringSystem(
                table, get_metric("rms"), num_monitors=3,
                algorithm="overlapping", budget=40, stale_policy="rescale",
                faults=FaultModel.parse(FAULTS),
            )

        fast, naive = self._both(make, history, live)
        assert any(0 < w.coverage < 1 for w in fast.windows)
        assert _bits(fast) == _bits(naive)

    def test_decode_window_paths(self, workload):
        """A foreign node (the ``merge_views`` fallback), a ``rescale``
        decode with a missing monitor, and an empty window."""
        table, history, _ = workload
        cc = ControlCenter(
            table, get_metric("rms"), algorithm="lpm_greedy", budget=40,
            stale_policy="rescale",
        )
        cc.rebuild_function(exact_group_counts(table, history.uids))
        slots = np.asarray(cc.function.match_nodes, dtype=np.int64)
        foreign = int(
            np.setdiff1d(np.arange(1, 1 << (table.domain.height + 1)),
                         slots)[0]
        )
        rng = np.random.default_rng(9)

        def payload(nodes):
            nodes = np.sort(np.asarray(nodes, dtype=np.int64))
            h = Histogram.__new__(Histogram)
            h.nodes = nodes
            h.values = rng.integers(1, 50, size=nodes.size).astype(float)
            h.unmatched = 3.0
            h.total = float(h.values.sum()) + 3.0
            h._dict = None
            return encode_histogram_v2(
                h, table.domain, semantics=cc.function.semantics
            )

        windows = [
            [payload(slots[:5]), payload(np.append(slots[3:9], foreign))],
            [payload(slots[2:7])],
            [],
        ]
        estimator = CompiledEstimator.for_pair(table, cc.function)
        assert estimator.slot_sums(
            [WireHistogram(p) for p in windows[0]]
        ) is None  # the first window takes the merge_views fallback
        for k, payloads in enumerate(windows):
            messages = [
                HistogramMessage(f"m{i}", k, cc.function_version, p)
                for i, p in enumerate(payloads)
            ]
            got = []
            for mode in ("fast", "naive"):
                cc.quality.reset()
                with use_stream_kernel_mode(mode):
                    cc.decode_window(messages, expected_monitors=3)
                    # scored against the first window as reference
                    got.append(cc.decode_window(
                        messages[:1], expected_monitors=3
                    ).quality)
            fast, naive = got
            assert struct.pack("<7d", *fast.as_dict().values()) == (
                struct.pack("<7d", *naive.as_dict().values())
            )
            assert 0 <= fast.coverage < 1


def _loop_reference(windows, num_buckets):
    """The quality signals by plain Python loops over nonzero buckets
    (the dict arithmetic the slot tracker replaced), anchored on the
    first window with traffic per version."""
    out, reference, anchor_version = [], None, None
    for slots, unmatched, version in windows:
        if version != anchor_version:
            reference, anchor_version = None, version
        counts = {i: v for i, v in enumerate(slots) if v}
        matched = sum(counts.values())
        total = matched + unmatched
        shares = {i: v / total for i, v in counts.items()} if total else {}
        drift = 0.0
        if reference is None:
            if total > 0:
                reference = shares
        else:
            nodes = set(reference) | set(shares)
            drift = 0.5 * sum(
                abs(reference.get(n, 0.0) - shares.get(n, 0.0)) for n in nodes
            ) + (unmatched / total if total else 0.0)
        positive = [v for v in counts.values() if v > 0]
        entropy = skew = 0.0
        if positive:
            m = sum(positive)
            skew = max(positive) / m * num_buckets
            for v in positive:
                entropy -= v / m * math.log2(v / m)
            entropy /= math.log2(num_buckets)
        out.append((unmatched / total if total else 0.0, entropy, skew, drift))
    return out


def test_matches_the_loop_reference():
    """Float order differs from the loops (numpy reductions), so the
    signals agree to a relative 1e-12, not bit for bit."""
    rng = np.random.default_rng(11)
    windows = []
    for k in range(300):
        slots = rng.integers(0, 40, size=24).astype(float)
        slots[rng.random(24) < rng.random()] = 0.0
        if k % 37 == 0:
            slots[:] = 0.0
        unmatched = float(rng.integers(0, 30)) if k % 3 == 0 else 0.0
        windows.append((slots, unmatched, k // 50))
    tracker = QualityTracker()
    got = [
        tracker.observe(
            slots, unmatched, num_buckets=20, version=version,
            coverage=1.0, messages=1, duplicates=0, stale=0,
        )
        for slots, unmatched, version in windows
    ]
    want = _loop_reference(windows, 20)
    for q, (spill, entropy, skew, drift) in zip(got, want):
        assert q.spill_fraction == spill
        assert q.occupancy_entropy == pytest.approx(entropy, rel=1e-12)
        assert q.occupancy_skew == skew  # max and one division: exact
        assert q.drift_score == pytest.approx(drift, rel=1e-12, abs=1e-15)


def _observe(tracker, slots, version=0):
    return tracker.observe(
        np.asarray(slots, dtype=np.float64), 0.0, num_buckets=2,
        version=version, coverage=1.0, messages=1, duplicates=0, stale=0,
    )


class TestAnchor:
    def test_empty_window_does_not_anchor(self):
        tracker = QualityTracker()
        detector = BucketDriftDetector(threshold=0.25, patience=2)
        scores = [
            _observe(tracker, s).drift_score
            for s in ([], [60.0, 40.0], [60.0, 40.0])
        ]
        assert scores == [0.0, 0.0, 0.0]
        assert [detector.observe(s) for s in scores] == [False] * 3

    def test_empty_window_after_the_anchor_is_all_drift(self):
        tracker = QualityTracker()
        _observe(tracker, [60.0, 40.0])
        assert _observe(tracker, [0.0, 0.0]).drift_score == 0.5
        assert _observe(tracker, []).drift_score == 0.5

    def test_post_rebuild_empty_window_does_not_anchor(self, workload):
        """With most installs lost, windows right after a rebuild carry
        only stale histograms and decode empty under ``quarantine``;
        the first window with traffic under the new version is the
        reference and scores 0."""
        table, history, live = workload
        system = _adaptive(
            table, faults="install_drop=0.9,seed=4", threshold=0.12
        )
        report = _run(system, history, live, telemetry=False)
        windows = report.windows
        gaps = 0
        for w in report.rebuilds:
            k = w + 1
            while k < len(windows) and not windows[k].monitors_reporting:
                assert report.drift_scores[k] == windows[k].drift_score == 0
                k += 1
            if k < len(windows):
                assert report.drift_scores[k] == windows[k].drift_score == 0
                gaps += k > w + 1
        assert gaps  # some rebuild was followed by empty windows

    def test_run_reanchors(self, workload):
        """Run B after run A on one system reports what B does on a
        fresh system: drift is not measured against A's anchor."""
        table, history, live = workload
        run_a, run_b = live.slice_time(20, 30), live.slice_time(30, 40)
        with use_registry(MetricsRegistry()):
            reused = _serial(table)
            reused.train(history)
            reused.run(run_a, window_width=2.0)
            after = reused.run(run_b, window_width=2.0)
            fresh = _serial(table)
            fresh.train(history)
            alone = fresh.run(run_b, window_width=2.0)
        assert after.windows == alone.windows
        assert after.windows[0].drift_score == 0.0


def test_decoded_window_always_carries_quality(workload):
    table, history, _ = workload
    system = _serial(table)
    system.train(history)
    cc = system.control_center
    decoded = cc.decode_window([], expected_monitors=3)
    assert isinstance(decoded.quality, WindowQuality)
    assert decoded.quality.coverage == 0.0
