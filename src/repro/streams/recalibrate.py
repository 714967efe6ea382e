"""Histogram recalibration under traffic drift.

The paper's deployment section leaves open "practical challenges in
terms of when and how to recalibrate the histograms based on the
history of the UID stream" (Section 6).  This module implements the
natural design:

* :class:`BucketDriftDetector` — the Control Center cannot see raw
  identifiers, but it *can* watch the histograms themselves: the
  normalized per-bucket distribution of each window is compared (total
  variation distance) against the first window with traffic under the
  current function, and identifiers that match no bucket are counted
  (the ``drift_score`` every decoded window carries, see
  :mod:`repro.obs.quality`).  Sustained drift beyond a threshold
  recommends a rebuild.
* :class:`AdaptiveMonitoringSystem` — a monitoring system that retrains
  its partitioning function from the warehouse of past windows whenever
  the detector fires (the paper notes Monitors' logs reach a warehouse
  on a non-real-time basis, so exact history is available for
  *re*construction even though live decoding is approximate).

Rebuilds cost downstream bandwidth (the new function must be installed
on every Monitor), which the channel accounts for as usual — the bench
harness measures the drift/accuracy/bandwidth triangle this creates.
Construction cost, by contrast, is often avoidable: a jittery detector
can fire while the warehouse still holds the same recent windows, and
the Control Center's rebuild cache (see
:mod:`repro.streams.control_center`) then reinstalls the memoized
function instead of re-running the dynamic programs.

Under a faulty channel a rebuild's installs can be *partially*
delivered: some Monitors run the new function while others still hold
the old one.  Recalibration tolerates this — failed installs are left
to the run loop's install scheduler (retry with capped exponential
backoff), and until the fleet converges the Control Center's
``stale_policy`` decides whether mixed-version windows are decoded
from the covered part of the fleet (``"quarantine"``/``"rescale"``) or
rejected (``"strict"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

import numpy as np

from ..obs import emit
from .control_center import DecodedWindow
from .system import _UNSET, MonitoringSystem, SystemReport
from .tuples import Trace

__all__ = ["BucketDriftDetector", "AdaptiveMonitoringSystem"]


class BucketDriftDetector:
    """Decides rebuilds from the per-window drift scores of
    :class:`~repro.obs.quality.QualityTracker` (see the module
    docstring).

    Parameters
    ----------
    threshold:
        Drift score above which a window counts as drifted.
    patience:
        Number of consecutive drifted windows before recommending a
        rebuild (a single bursty window should not retrain the world).
    """

    def __init__(self, threshold: float = 0.25, patience: int = 2) -> None:
        if not 0 < threshold <= 2:
            raise ValueError(f"threshold must be in (0, 2], got {threshold}")
        if patience < 1:
            raise ValueError(f"patience must be at least 1, got {patience}")
        self.threshold = threshold
        self.patience = patience
        self._streak = 0

    def reset(self) -> None:
        """Drop any drift streak."""
        self._streak = 0

    def observe(self, score: float) -> bool:
        """Feed one window's drift score; returns True when a rebuild
        is recommended (the streak then starts over)."""
        if score > self.threshold:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.patience:
            self._streak = 0
            return True
        return False


@dataclass
class AdaptiveReport(SystemReport):
    """System report extended with recalibration events."""

    rebuilds: List[int] = field(default_factory=list)
    drift_scores: List[float] = field(default_factory=list)


class AdaptiveMonitoringSystem(MonitoringSystem):
    """A monitoring system that retrains on detected drift.

    The warehouse keeps the exact counts of recent windows (Monitors'
    logs); on a rebuild the partitioning function is reconstructed from
    the last ``warehouse_windows`` of them and re-installed on every
    Monitor.
    """

    def __init__(
        self,
        *args,
        detector: Optional[BucketDriftDetector] = None,
        warehouse_windows: int = 3,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if warehouse_windows < 1:
            raise ValueError("warehouse_windows must be at least 1")
        self.detector = detector or BucketDriftDetector()
        self.warehouse_windows = warehouse_windows
        # Bounded window log with a maintained running sum, so a
        # rebuild reads its history counts in O(|G|) instead of
        # re-summing the whole warehouse.  Exact for the integer-valued
        # counts the system aggregates (float64 adds/subtracts of
        # integers below 2**53 are lossless).
        self._warehouse: Deque[np.ndarray] = deque(maxlen=warehouse_windows)
        self._warehouse_sum: Optional[np.ndarray] = None

    def _install(self, counts: np.ndarray) -> None:
        """Rebuild and push the new function to the fleet — best
        effort.

        Each Monitor gets one transmission now; installs the channel
        loses are *not* retried here.  The run loop's install scheduler
        picks the laggards up on subsequent windows, so a partially
        installed function is a transient mixed-version fleet handled
        by the decode policy, not an error.
        """
        function = self.control_center.rebuild_function(counts)
        version = self.control_center.function_version
        for monitor in self.monitors:
            if self.channel.send_function(function, version=version):
                monitor.install_function(function, version)

    def _after_window(
        self,
        window: int,
        decoded: DecodedWindow,
        actual: np.ndarray,
        report: SystemReport,
    ) -> None:
        # Warehouse logging (non-real-time in a deployment).
        if self._warehouse_sum is None:
            self._warehouse_sum = np.zeros_like(actual, dtype=np.float64)
        if len(self._warehouse) == self.warehouse_windows:
            self._warehouse_sum -= self._warehouse[0]  # about to evict
        self._warehouse.append(actual)
        self._warehouse_sum += actual
        # Drift decision from the (deduplicated, current-version)
        # histogram stream alone: the window's quality drift score.
        score = decoded.quality.drift_score
        report.drift_scores.append(score)
        emit("drift", window=window, score=score)
        if self.detector.observe(score):
            # Copy: the running sum mutates in place every window, and
            # the rebuild path fingerprints / retains what we hand it.
            # The new version re-anchors the quality tracker's
            # reference on the next window with traffic.
            history = self._warehouse_sum.copy()
            self._install(history)
            report.rebuilds.append(window)
            emit(
                "recalibration",
                window=window,
                version=self.control_center.function_version,
            )

    def run(
        self,
        live: Trace,
        window_width: float,
        split_seed: int = 0,
        faults: object = _UNSET,
    ) -> AdaptiveReport:
        active = self.faults if faults is _UNSET else faults
        return self._run_windows(
            live, window_width, split_seed, active, AdaptiveReport()
        )
