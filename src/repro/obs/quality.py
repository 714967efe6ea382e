"""Online decode-quality signals — no ground truth required.

The paper's accuracy metrics (Section 2.2.4) need the exact per-group
answer, which the Control Center never has while a run is live.  This
module computes the signals it *can* watch from the decoded histogram
stream alone, per window:

* **spill fraction** — share of traffic that matched no bucket and
  landed in the trash bin (``Histogram.unmatched``); a rising spill
  means the installed function no longer spans live traffic.
* **occupancy entropy** — Shannon entropy of the per-bucket
  distribution, normalized by ``log2(num_buckets)`` into ``[0, 1]``;
  a well-fitted function spreads mass (entropy near 1), a collapsed
  one funnels it into few buckets.
* **occupancy skew** — largest bucket share over the uniform share
  (``max_p * num_buckets``); the peak-to-uniform ratio complementing
  entropy (1.0 = perfectly even).
* **coverage** — reporting monitors over expected monitors (already a
  decode output; re-exported here so every signal rides one gauge
  family).
* **duplicate / stale rates** — redundant and stale-version deliveries
  as a fraction of the window's messages.
* **drift score** — total-variation distance between the window's
  normalized bucket distribution and a reference distribution, plus
  the unmatched fraction.  The reference is the first window with
  traffic in each run under each function version.
  :class:`~repro.streams.recalibrate.BucketDriftDetector` reads this
  number, so the recalibration trigger, the ``drift`` event and the
  ``quality.drift_score`` gauge are one value.

:class:`QualityTracker` scores each decoded window in slot space: the
window arrives as dense per-slot sums over the current function's
sorted bucket nodes (:attr:`~repro.core.compiled.CompiledEstimator.
slot_nodes`), the reference is one array of the same layout, and every
signal is a few numpy reductions.  ``ControlCenter.decode_window``
owns one tracker and runs it on every window, so a report does not
depend on whether telemetry is live; the telemetry plane only exports
the values as ``quality.*`` gauges.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Optional

import numpy as np

__all__ = ["WindowQuality", "QualityTracker", "QUALITY_GAUGES"]

_add = np.add.reduce
_max = np.maximum.reduce


class WindowQuality(NamedTuple):
    """One window's online quality signals (see module docstring).

    A named tuple rather than a frozen dataclass: it is built once per
    decoded window, and a tuple is several times cheaper to build."""

    spill_fraction: float = 0.0
    occupancy_entropy: float = 0.0
    occupancy_skew: float = 0.0
    coverage: float = 0.0
    duplicate_rate: float = 0.0
    stale_rate: float = 0.0
    drift_score: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return self._asdict()


#: Gauge family exported per signal: ``quality.<field>``.
QUALITY_GAUGES = tuple(f"quality.{name}" for name in WindowQuality._fields)


class QualityTracker:
    """Per-decoder quality bookkeeping.

    Holds the drift reference — the per-slot shares of the first window
    with traffic decoded under the current function version since the
    last :meth:`reset` — and produces one :class:`WindowQuality` per
    decoded window.  A window without traffic never becomes the
    reference: it would make every later window look drifted.
    """

    def __init__(self) -> None:
        self._reference: Optional[np.ndarray] = None
        self._version: Optional[int] = None

    def reset(self) -> None:
        """Drop the reference; the next window with traffic anchors a
        new one (called at the start of every run)."""
        self._reference = None
        self._version = None

    def observe(
        self,
        sums: np.ndarray,
        unmatched: float,
        num_buckets: int,
        version: int,
        coverage: float,
        messages: int,
        duplicates: int,
        stale: int,
    ) -> WindowQuality:
        """Score one decoded window.

        ``sums`` holds the merged per-slot bucket counts in the current
        function's slot layout (it may be empty when no histogram was
        usable); ``unmatched`` is the merged trash-bin count.  The
        result depends only on these values, so every decode path that
        produces the same sums yields the same bits."""
        if version != self._version:
            self._reference = None
            self._version = version
        matched = float(_add(sums))
        total = matched + unmatched
        spill = entropy = skew = drift = 0.0
        if total > 0:
            spill = unmatched / total
            shares = sums / total
            if self._reference is None:
                self._reference = shares
            else:
                diff = self._reference - shares
                drift = 0.5 * float(_add(np.abs(diff, out=diff))) + spill
        elif self._reference is not None:
            # No traffic at all: every reference share is lost mass.
            drift = 0.5 * float(_add(self._reference))
        if matched > 0 and num_buckets > 0:
            # Occupancy is the distribution of matched traffic; without
            # spill, ``shares`` already holds exactly those quotients.
            occupancy = shares if total == matched else sums / matched
            p = occupancy.compress(occupancy > 0.0)
            skew = float(_max(p)) * num_buckets
            if num_buckets > 1:
                # ``0.0 - x``, not ``-x``: a single occupied bucket
                # sums to 0.0, which must not turn into -0.0.
                entropy = (0.0 - float(_add(p * np.log2(p)))) / math.log2(
                    num_buckets
                )
        return WindowQuality(
            spill, entropy, skew, coverage,
            duplicates / messages if messages else 0.0,
            stale / messages if messages else 0.0,
            drift,
        )
