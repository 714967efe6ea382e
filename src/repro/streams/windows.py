"""Window operators over identifier streams.

The paper's target query aggregates over a sliding window
(Section 2.2.2).  Histograms are per-window messages, so the substrate
provides both tumbling windows (the common deployment: one histogram
per period) and overlapping sliding windows.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from .tuples import Trace

__all__ = ["Window", "TumblingWindows", "SlidingWindows"]


class Window:
    """One window of a stream: its time extent, the identifiers in it
    and (for weighted streams) their parallel per-tuple values.

    A plain slotted record: segmentation makes one per window, and
    thousands of small windows make its constructor a visible cost."""

    __slots__ = ("index", "start", "end", "uids", "values")

    def __init__(
        self,
        index: int,
        start: float,
        end: float,
        uids: np.ndarray,
        values: Optional[np.ndarray] = None,
    ) -> None:
        self.index = index
        self.start = start
        self.end = end
        self.uids = uids
        self.values = values

    def __len__(self) -> int:
        return int(self.uids.size)

    def __repr__(self) -> str:
        return (
            f"Window(index={self.index}, start={self.start!r}, "
            f"end={self.end!r}, tuples={len(self)}, "
            f"weighted={self.values is not None})"
        )


def _cut(
    trace: Trace, starts: List[float], ends: List[float]
) -> Iterator[Window]:
    """Windows ``[starts[k], ends[k])`` as views into the trace's
    columns: the cuts ``trace.slice_time`` makes window by window,
    found with one ``searchsorted``."""
    cuts = np.searchsorted(trace.timestamps, starts + ends).tolist()
    uids, values = trace.uids, trace.values
    for index, (start, end, lo, hi) in enumerate(
        zip(starts, ends, cuts, cuts[len(starts):])
    ):
        yield Window(
            index, start, end, uids[lo:hi],
            None if values is None else values[lo:hi],
        )


class TumblingWindows:
    """Non-overlapping fixed-width windows."""

    def __init__(self, width: float) -> None:
        if width <= 0:
            raise ValueError(f"window width must be positive, got {width}")
        self.width = width

    def segment(self, trace: Trace) -> Iterator[Window]:
        if not len(trace):
            return
        # Edges accumulate: each window ends where the next one starts.
        t_end = float(trace.timestamps[-1])
        edges = [float(trace.timestamps[0])]
        while edges[-1] <= t_end:
            edges.append(edges[-1] + self.width)
        yield from _cut(trace, edges[:-1], edges[1:])


class SlidingWindows:
    """Fixed-width windows advancing by a (smaller) slide step."""

    def __init__(self, width: float, slide: float) -> None:
        if width <= 0 or slide <= 0:
            raise ValueError("window width and slide must be positive")
        if slide > width:
            raise ValueError(
                f"slide {slide} exceeds width {width}; use TumblingWindows"
            )
        self.width = width
        self.slide = slide

    def segment(self, trace: Trace) -> Iterator[Window]:
        if not len(trace):
            return
        t0 = float(trace.timestamps[0])
        t_end = float(trace.timestamps[-1])
        starts = []
        start = t0
        while start <= t_end:
            starts.append(start)
            start = t0 + len(starts) * self.slide
        yield from _cut(trace, starts, [s + self.width for s in starts])
