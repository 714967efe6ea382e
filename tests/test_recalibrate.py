"""Tests for drift detection and adaptive recalibration (the paper's
Section 6 future-work item)."""

import numpy as np
import pytest

from repro import UIDDomain, get_metric
from repro.data import TrafficModel, generate_subnet_table
from repro.data.traffic import generate_timestamped_trace
from repro.obs import QualityTracker
from repro.streams import FaultModel, MonitoringSystem, Trace
from repro.streams.recalibrate import (
    AdaptiveMonitoringSystem,
    BucketDriftDetector,
)


def _score(tracker, slots, unmatched=0.0, version=0):
    """The drift score ``tracker`` gives one window whose per-slot
    bucket counts are ``slots``."""
    return tracker.observe(
        np.asarray(slots, dtype=np.float64), unmatched,
        num_buckets=len(slots), version=version, coverage=1.0,
        messages=1, duplicates=0, stale=0,
    ).drift_score


class TestDriftDetector:
    """The detector reads the quality tracker's drift score; these
    drive the pair the way ``AdaptiveMonitoringSystem`` does."""

    def test_identical_distribution_no_drift(self):
        d = BucketDriftDetector(threshold=0.1, patience=1)
        t = QualityTracker()
        h = [50.0, 50.0]
        assert not d.observe(_score(t, h))  # first window anchors
        score = _score(t, h)
        assert not d.observe(score)
        assert score == 0.0

    def test_shifted_distribution_detected(self):
        d = BucketDriftDetector(threshold=0.3, patience=1)
        t = QualityTracker()
        d.observe(_score(t, [100.0, 0.0]))
        score = _score(t, [0.0, 100.0])
        assert d.observe(score)  # total shift -> TV = 1
        assert score == pytest.approx(1.0)

    def test_unmatched_traffic_counts_as_drift(self):
        d = BucketDriftDetector(threshold=0.3, patience=1)
        t = QualityTracker()
        d.observe(_score(t, [100.0, 0.0]))
        assert d.observe(_score(t, [50.0, 0.0], unmatched=50.0))

    def test_patience_requires_sustained_drift(self):
        d = BucketDriftDetector(threshold=0.3, patience=2)
        t = QualityTracker()
        d.observe(_score(t, [100.0, 0.0]))
        assert not d.observe(_score(t, [0.0, 100.0]))  # first strike
        assert d.observe(_score(t, [0.0, 100.0]))      # second fires

    def test_streak_resets_on_calm_window(self):
        d = BucketDriftDetector(threshold=0.3, patience=2)
        t = QualityTracker()
        calm = [100.0, 0.0]
        drifted = [0.0, 100.0]
        d.observe(_score(t, calm))
        assert not d.observe(_score(t, drifted))
        assert not d.observe(_score(t, calm))     # streak broken
        assert not d.observe(_score(t, drifted))  # needs two again
        assert d.observe(_score(t, drifted))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            BucketDriftDetector(threshold=0.0)
        with pytest.raises(ValueError):
            BucketDriftDetector(patience=0)


def _drifting_workload():
    """A trace whose active region shifts halfway through."""
    dom = UIDDomain(12)
    table = generate_subnet_table(dom, seed=81)
    # phase 1 and phase 2 concentrate in different halves of the space
    m1 = TrafficModel(mode="zipf", active_fraction=0.05, zipf_exponent=1.2)
    ts1, u1 = generate_timestamped_trace(table, 30_000, 30.0, seed=82,
                                         model=m1)
    m2 = TrafficModel(mode="zipf", active_fraction=0.05, zipf_exponent=1.2)
    ts2, u2 = generate_timestamped_trace(table, 30_000, 30.0, seed=983,
                                         model=m2)
    trace = Trace(
        np.concatenate([ts1, ts2 + 30.0]), np.concatenate([u1, u2])
    )
    return table, trace


class TestAdaptiveSystem:
    def test_rebuild_fires_and_helps(self):
        table, trace = _drifting_workload()
        history = trace.slice_time(0, 15)
        live = trace.slice_time(15, 60)
        metric = get_metric("average")

        static = MonitoringSystem(
            table, metric, num_monitors=2,
            algorithm="overlapping", budget=40,
        )
        static.train(history)
        static_report = static.run(live, window_width=5.0)

        adaptive = AdaptiveMonitoringSystem(
            table, metric, num_monitors=2,
            algorithm="overlapping", budget=40,
            detector=BucketDriftDetector(threshold=0.3, patience=1),
        )
        adaptive.train(history)
        report = adaptive.run(live, window_width=5.0)

        # drift happens at t=30 -> at least one rebuild
        assert report.rebuilds
        # after the rebuild, the adaptive system beats the static one
        # on the drifted tail
        tail_static = np.mean(
            [w.error for w in static_report.windows[-3:]]
        )
        tail_adaptive = np.mean([w.error for w in report.windows[-3:]])
        assert tail_adaptive <= tail_static + 1e-9
        # rebuilds cost downstream bytes
        assert report.function_bytes > static_report.function_bytes

    def test_no_drift_no_rebuild(self):
        dom = UIDDomain(12)
        table = generate_subnet_table(dom, seed=91)
        ts, uids = generate_timestamped_trace(
            table, 40_000, 40.0, seed=92, model=TrafficModel()
        )
        trace = Trace(ts, uids)
        adaptive = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
            detector=BucketDriftDetector(threshold=0.6, patience=2),
        )
        adaptive.train(trace.slice_time(0, 20))
        report = adaptive.run(trace.slice_time(20, 40), window_width=5.0)
        assert report.rebuilds == []
        assert len(report.drift_scores) == len(report.windows)

    def test_bad_warehouse_rejected(self):
        dom = UIDDomain(10)
        table = generate_subnet_table(dom, seed=1)
        with pytest.raises(ValueError):
            AdaptiveMonitoringSystem(
                table, get_metric("rms"), warehouse_windows=0
            )


class TestPartialInstall:
    """A rebuild whose installs are (partially) lost leaves a
    mixed-version fleet; recalibration must ride it out via the stale
    policy and the install scheduler's retries, not crash."""

    def _system(self, stale_policy):
        table, trace = _drifting_workload()
        system = AdaptiveMonitoringSystem(
            table, get_metric("average"), num_monitors=2,
            algorithm="overlapping", budget=40,
            detector=BucketDriftDetector(threshold=0.3, patience=1),
            stale_policy=stale_policy,
        )
        system.train(trace.slice_time(0, 15))
        return system, trace.slice_time(15, 60)

    def test_lost_installs_quarantined_and_survived(self):
        system, live = self._system("quarantine")
        baseline_downstream = system.channel.downstream_bytes
        # Every install transmission after training is lost: once the
        # drift detector fires, the whole fleet goes permanently stale.
        report = system.run(
            live, window_width=5.0,
            faults=FaultModel(install_drop=1.0, seed=5),
        )
        assert report.rebuilds  # drift still detected and acted on
        first = report.rebuilds[0]
        degraded = [w for w in report.windows if w.window_index > first]
        assert degraded
        assert all(w.stale_messages > 0 for w in degraded)
        assert all(w.monitors_reporting == 0 for w in degraded)
        assert all(np.isfinite(w.error) for w in report.windows)
        # The rebuild itself plus the scheduler's backoff retries were
        # all charged downstream.
        assert report.function_bytes > baseline_downstream

    def test_lost_installs_strict_policy_raises(self):
        system, live = self._system("strict")
        with pytest.raises(ValueError, match="stale"):
            system.run(
                live, window_width=5.0,
                faults=FaultModel(install_drop=1.0, seed=5),
            )

    def test_recovering_installs_reconverge(self):
        """With installs lost only sometimes, retries eventually land
        and the fleet converges back to the current version."""
        system, live = self._system("rescale")
        report = system.run(
            live, window_width=5.0,
            faults=FaultModel(install_drop=0.5, seed=8),
        )
        assert report.rebuilds
        assert all(np.isfinite(w.error) for w in report.windows)
        # After the last rebuild settles, full-strength windows exist.
        assert any(
            w.monitors_reporting == 2 for w in report.windows
        )


class TestDetectorReset:
    def test_reset_drops_reference_and_streak(self):
        d = BucketDriftDetector(threshold=0.3, patience=2)
        t = QualityTracker()
        d.observe(_score(t, [100.0, 0.0]))
        assert not d.observe(_score(t, [0.0, 100.0]))  # streak = 1
        d.reset()
        t.reset()
        assert d._streak == 0
        assert t._reference is None
        # the next window re-anchors instead of firing
        assert not d.observe(_score(t, [0.0, 100.0]))
        assert t._reference is not None

    def test_reset_then_observe_measures_against_new_anchor(self):
        t = QualityTracker()
        _score(t, [100.0, 0.0])
        t.reset()
        _score(t, [0.0, 100.0])  # new reference
        assert _score(t, [0.0, 100.0]) == 0.0

    def test_anchor_window_scores_zero(self):
        t = QualityTracker()
        _score(t, [100.0, 0.0])
        assert _score(t, [0.0, 100.0]) > 0.3
        # a new function version re-anchors: its first window scores 0
        assert _score(t, [0.0, 100.0], version=1) == 0.0

    def test_reported_drift_is_zero_after_each_rebuild(self):
        """The first window after a rebuild re-anchors the detector:
        its reported score is 0, like its window report's."""
        table = generate_subnet_table(UIDDomain(10), seed=2)
        ts, uids = generate_timestamped_trace(
            table, 8000, duration=40.0, seed=4,
            model=TrafficModel(active_fraction=0.15, zipf_exponent=1.2),
        )
        trace = Trace(ts, uids)
        adaptive = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=2,
            algorithm="lpm_greedy", budget=40,
            detector=BucketDriftDetector(threshold=0.01, patience=1),
        )
        adaptive.train(trace.slice_time(0, 20))
        report = adaptive.run(trace.slice_time(20, 40), window_width=2.0)
        positions = {
            w.window_index: k for k, w in enumerate(report.windows)
        }
        anchors = [
            positions[w + 1] for w in report.rebuilds if w + 1 in positions
        ]
        assert anchors
        for k in anchors:
            assert report.drift_scores[k] == 0.0
            assert report.windows[k].drift_score == 0.0


class TestWarehouse:
    def _run(self, **kwargs):
        table, trace = _drifting_workload()
        kwargs.setdefault("algorithm", "lpm_greedy")
        system = AdaptiveMonitoringSystem(
            table, get_metric("rms"), num_monitors=2, budget=40,
            detector=BucketDriftDetector(threshold=0.3, patience=1),
            **kwargs,
        )
        system.train(trace.slice_time(0, 15))
        report = system.run(trace.slice_time(15, 60), window_width=5.0)
        return system, report

    def test_warehouse_bounded_and_sum_maintained(self):
        system, report = self._run(warehouse_windows=3)
        assert len(report.windows) > 3
        assert len(system._warehouse) == 3  # deque maxlen enforced
        np.testing.assert_array_equal(
            system._warehouse_sum,
            np.sum(np.stack(list(system._warehouse)), axis=0),
        )

    def test_single_window_warehouse(self):
        system, _report = self._run(warehouse_windows=1)
        assert len(system._warehouse) == 1
        np.testing.assert_array_equal(
            system._warehouse_sum, system._warehouse[0]
        )

    def test_incremental_adaptive_report_identical(self):
        """End-to-end: recalibrations through the subtree memo produce
        the same report as full rebuilds."""
        full_sys, full = self._run(algorithm="nonoverlapping")
        inc_sys, inc = self._run(algorithm="nonoverlapping",
                                 incremental=True)
        assert inc_sys.control_center.incremental
        assert full.rebuilds == inc.rebuilds
        assert full.drift_scores == inc.drift_scores
        assert [w.error for w in full.windows] == [
            w.error for w in inc.windows
        ]
        assert full.function_bytes == inc.function_bytes
