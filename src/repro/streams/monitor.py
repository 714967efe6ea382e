"""The remote Monitor (paper Figure 1, left).

A Monitor holds the current partitioning function pushed to it by the
Control Center, partitions each window of identifiers it observes into
per-bucket aggregates, and emits the resulting histogram.  Its
resources are assumed limited: partitioning one identifier is a single
O(height) prefix lookup and the state kept per window is one counter
per (nonzero) bucket.

Under the default ``fast`` stream kernel mode (see
:mod:`repro.streams.kernels`) the function is compiled at install time
into a :class:`~repro.core.compiled.CompiledPartitioner`, reducing a
window to one lookup per tuple and ``bincount`` arithmetic; histograms
are bit-identical to the naive path either way.  The histogram is encoded
to the v2 wire format as soon as it is built, and only those bytes
leave the Monitor: a :class:`HistogramMessage` carries the payload and
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.compiled import CompiledPartitioner
from ..core.partition import Histogram, PartitioningFunction
from ..core.wire import encode_histogram_v2, encode_histograms_v2
from ..obs import get_registry
from .kernels import stream_kernel_mode

__all__ = ["HistogramMessage", "Monitor"]


@dataclass(frozen=True)
class HistogramMessage:
    """One Monitor-to-Control-Center message: a window's histogram.

    The Monitor encodes the histogram at send time (the v2 format of
    :mod:`repro.core.wire`) and ``payload`` holds the actual bytes that
    cross the link — the only form of the histogram the message has.
    Byte accounting charges ``len(payload)``, and the Control Center
    validates and decodes those bytes
    (:func:`~repro.core.wire.decode_histogram_v2` recovers the object).
    """

    monitor: str
    window_index: int
    function_version: int
    #: The v2 wire encoding of the window's histogram.
    payload: bytes

    def size_bytes(self) -> int:
        # window index + version header, then the histogram payload.
        return 8 + len(self.payload)


class Monitor:
    """A remote observation point partitioning its identifier stream."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.function: Optional[PartitioningFunction] = None
        self.function_version = -1
        self.windows_processed = 0
        self.tuples_processed = 0
        self.crashes = 0
        self._compiled: Optional[CompiledPartitioner] = None

    def install_function(
        self, function: PartitioningFunction, version: int
    ) -> None:
        """Accept a (new) partitioning function from the Control
        Center.  The function is compiled once here (a fleet sharing
        one function object shares one compilation) so per-window work
        is pure index arithmetic."""
        self.function = function
        self.function_version = version
        self._compiled = CompiledPartitioner.for_function(function)

    def crash(self) -> None:
        """Crash-and-restart: volatile state (the installed function)
        is lost; the lifetime statistics survive (they model persistent
        logs).  The Monitor cannot report again until the Control
        Center's install scheduler gets a function back onto it."""
        self.function = None
        self.function_version = -1
        self._compiled = None
        self.crashes += 1

    def _build(
        self, uids: np.ndarray, values: Optional[Sequence[float]]
    ) -> Histogram:
        if stream_kernel_mode() == "fast":
            return self._compiled.build_histogram(uids, values=values)
        return self.function.build_histogram(uids, values=values)

    def _message(
        self, window_index: int, histogram: Histogram
    ) -> HistogramMessage:
        # The v2 encode happens exactly once per transmission-worthy
        # histogram (here, or batched in ``_messages``); the object is
        # dropped once encoded.
        return HistogramMessage(
            monitor=self.name,
            window_index=window_index,
            function_version=self.function_version,
            payload=encode_histogram_v2(
                histogram,
                self.function.domain,
                semantics=self.function.semantics,
            ),
        )

    def _account(
        self,
        windows: int,
        tuples: int,
        nonzero: Iterable[int],
        metrics: bool = True,
    ) -> None:
        """Fold a batch into the lifetime stats and ``monitor.*``
        metrics; ``nonzero`` holds each window's nonzero-bucket count.
        ``metrics=False`` updates only the stats — the sharded serving
        layer passes it when replaying a prefetched build, whose
        metrics the worker's own registry recorded (merged under a
        ``shard=`` label), so hit windows are never double-counted."""
        self.windows_processed += windows
        self.tuples_processed += tuples
        if not metrics:
            return
        registry = get_registry()
        if registry.enabled:
            registry.counter("monitor.windows", monitor=self.name).inc(
                windows
            )
            registry.counter("monitor.tuples", monitor=self.name).inc(tuples)
            observed = registry.histogram("monitor.window.nonzero_buckets")
            for buckets in nonzero:
                observed.observe(buckets)

    def process_window(
        self,
        window_index: int,
        uids: Sequence[int],
        values: Optional[Sequence[float]] = None,
    ) -> HistogramMessage:
        """Partition one window of identifiers into a histogram.

        Pass a per-tuple ``values`` vector to aggregate sum(value)
        instead of count(*) — e.g. bytes per packet.
        """
        if self.function is None:
            raise RuntimeError(
                f"monitor {self.name!r} has no partitioning function installed"
            )
        uids = np.asarray(uids, dtype=np.int64)
        with get_registry().timer(
            "monitor.partition.duration", monitor=self.name
        ).time():
            histogram = self._build(uids, values)
        self._account(1, int(uids.size), (len(histogram),))
        return self._message(window_index, histogram)

    def process_windows(
        self,
        window_indices: Sequence[int],
        uid_windows: Sequence[Sequence[int]],
        values: Optional[Sequence[Optional[Sequence[float]]]] = None,
    ) -> List[HistogramMessage]:
        """Partition several windows in one batched pass.

        Under the ``fast`` kernel mode all windows are matched in one
        concatenated searchsorted + flattened 2-D bincount
        (:meth:`~repro.core.compiled.CompiledPartitioner.build_histograms`);
        the per-window histograms are bit-identical to one
        :meth:`process_window` call each.  Under ``naive`` this is the
        equivalent loop.
        """
        if len(window_indices) != len(uid_windows):
            raise ValueError(
                f"{len(window_indices)} window indices for "
                f"{len(uid_windows)} uid windows"
            )
        if self.function is None:
            raise RuntimeError(
                f"monitor {self.name!r} has no partitioning function installed"
            )
        arrays = [np.asarray(u, dtype=np.int64) for u in uid_windows]
        if stream_kernel_mode() == "fast":
            with get_registry().timer(
                "monitor.partition.duration", monitor=self.name
            ).time():
                histograms = self._compiled.build_histograms(arrays, values)
        else:
            if values is None:
                values = [None] * len(arrays)
            histograms = [
                self.function.build_histogram(u, values=v)
                for u, v in zip(arrays, values)
            ]
        self._account(
            len(arrays), sum(int(a.size) for a in arrays),
            map(len, histograms),
        )
        return self._messages(window_indices, histograms)

    def _messages(
        self, window_indices: Sequence[int], histograms: Sequence[Histogram]
    ) -> List[HistogramMessage]:
        """Batched :meth:`_message`: one vectorized v2 encode pass for
        the whole window batch (:func:`~repro.core.wire.encode_histograms_v2`
        is byte-identical to per-histogram encodes)."""
        payloads = encode_histograms_v2(
            histograms,
            self.function.domain,
            semantics=self.function.semantics,
        )
        return [
            HistogramMessage(
                monitor=self.name,
                window_index=w,
                function_version=self.function_version,
                payload=p,
            )
            for w, p in zip(window_indices, payloads)
        ]
