"""Timestamped identifier streams.

A :class:`Trace` is the column-wise representation of the paper's
``UIDStream``: parallel arrays of timestamps and unique identifiers,
plus an optional per-tuple value column for weighted (``sum(value)``)
aggregation — e.g. bytes per packet.  Traces are what Monitors observe
and what the windowing operators segment.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Trace"]


class Trace:
    """A time-ordered stream of (timestamp, uid[, value]) observations."""

    def __init__(
        self,
        timestamps: Sequence[float],
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ):
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.uids = np.asarray(uids, dtype=np.int64)
        if self.timestamps.shape != self.uids.shape:
            raise ValueError(
                f"timestamps {self.timestamps.shape} and uids "
                f"{self.uids.shape} must be parallel"
            )
        self.values: Optional[np.ndarray]
        if values is None:
            self.values = None
        else:
            self.values = np.asarray(values, dtype=np.float64)
            if self.values.shape != self.uids.shape:
                raise ValueError(
                    f"values {self.values.shape} and uids "
                    f"{self.uids.shape} must be parallel"
                )
        if self.timestamps.size and np.any(np.diff(self.timestamps) < 0):
            order = np.argsort(self.timestamps, kind="stable")
            self.timestamps = self.timestamps[order]
            self.uids = self.uids[order]
            if self.values is not None:
                self.values = self.values[order]

    @classmethod
    def untimed(
        cls,
        uids: Sequence[int],
        rate: float = 1.0,
        values: Optional[Sequence[float]] = None,
    ) -> "Trace":
        """A trace with synthetic evenly-spaced timestamps."""
        uids = np.asarray(uids, dtype=np.int64)
        return cls(
            np.arange(uids.size, dtype=np.float64) / rate, uids, values
        )

    def __len__(self) -> int:
        return int(self.uids.size)

    @property
    def duration(self) -> float:
        if not len(self):
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def slice_time(self, start: float, end: float) -> "Trace":
        """Observations with timestamps in ``[start, end)``."""
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="left"))
        return Trace(
            self.timestamps[lo:hi],
            self.uids[lo:hi],
            None if self.values is None else self.values[lo:hi],
        )

    def split(self, shares: int, seed: int = 0) -> Tuple["Trace", ...]:
        """Randomly partition the trace across ``shares`` observers —
        how traffic spreads over multiple Monitors."""
        if shares < 1:
            raise ValueError(f"shares must be at least 1, got {shares}")
        rng = np.random.default_rng(seed)
        # The split is defined by the int64 draw; each ``owner == s``
        # pass reads a narrow copy of it, a fraction of the bytes.
        owner = rng.integers(0, shares, size=len(self)).astype(
            np.min_scalar_type(shares - 1)
        )
        # One index array per share, gathered with ``take``: cheaper
        # than compressing every column through a boolean mask.  A
        # subsequence of a sorted trace is sorted, so no share is
        # re-validated.
        return tuple(
            Trace._trusted(
                self.timestamps.take(rows),
                self.uids.take(rows),
                None if self.values is None else self.values.take(rows),
            )
            for rows in (np.flatnonzero(owner == s) for s in range(shares))
        )

    @classmethod
    def _trusted(
        cls,
        timestamps: np.ndarray,
        uids: np.ndarray,
        values: Optional[np.ndarray],
    ) -> "Trace":
        """A trace over columns already parallel, typed and sorted."""
        trace = cls.__new__(cls)
        trace.timestamps = timestamps
        trace.uids = uids
        trace.values = values
        return trace

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        return zip(self.timestamps.tolist(), self.uids.tolist())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace({len(self)} tuples over {self.duration:g}s)"
