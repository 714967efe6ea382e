"""Stream kernel modes: the compiled serving fast path.

PR 2's ``REPRO_KERNELS`` switch covered *construction* (the dynamic
programs that build partitioning functions).  This module is the same
contract for the *serving* path — the per-window work a deployed
Monitor and Control Center actually repeat forever:

``"fast"`` (the default)
    Monitors partition windows through a
    :class:`~repro.core.compiled.CompiledPartitioner` (one lookup per
    tuple, to its bucket slot or, for overlapping functions, its
    elementary segment, then ``bincount`` arithmetic per window) and
    the Control Center estimates through a
    :class:`~repro.core.compiled.CompiledEstimator` (flat gather/divide
    arrays instead of per-node dict walks); the exact ground-truth join
    every window is scored against runs through a
    :class:`~repro.core.compiled.CompiledGroupJoin` (the same lookup,
    uid -> group).  The lookup is a dense-table gather up to 2^20
    identifiers and one ``searchsorted`` above.  Every fast path
    performs the *same* floating-point operations in the *same* order
    as the naive reference, so histograms, estimates and ground truth
    are bit-for-bit identical — only interpreter overhead is
    eliminated.

``"naive"``
    The seed per-depth ancestor-mask loops in
    :meth:`~repro.core.partition.PartitioningFunction.build_histogram`,
    the per-node loops of
    :func:`~repro.core.estimate.reconstruct_estimates`, and the
    binary-search join of
    :meth:`~repro.core.groups.GroupTable.counts_from_uids`.  Kept as the
    executable reference the fast paths are property-tested against,
    and as the baseline ``benchmarks/bench_streams.py`` measures
    speedups from.

The mode can be pinned from the environment with
``REPRO_STREAM_KERNELS=naive|fast`` (read at import time; an unknown
non-empty value raises :class:`ValueError`), switched
process-wide with :func:`set_stream_kernel_mode`, or scoped with
:func:`use_stream_kernel_mode`.  It is independent of the construction
mode — a run can build with ``REPRO_KERNELS=naive`` while serving with
``REPRO_STREAM_KERNELS=fast`` and vice versa.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "STREAM_KERNEL_MODES",
    "stream_kernel_mode",
    "set_stream_kernel_mode",
    "use_stream_kernel_mode",
]

STREAM_KERNEL_MODES = ("naive", "fast")


def _check_mode(mode: str) -> str:
    if mode not in STREAM_KERNEL_MODES:
        known = ", ".join(STREAM_KERNEL_MODES)
        raise ValueError(
            f"unknown stream kernel mode {mode!r}; known modes: {known}"
        )
    return mode


def _initial_mode() -> str:
    mode = os.environ.get("REPRO_STREAM_KERNELS", "").strip().lower()
    return _check_mode(mode) if mode else "fast"


_mode = _initial_mode()
_mode_lock = threading.Lock()


def stream_kernel_mode() -> str:
    """The currently active stream kernel mode."""
    return _mode


def set_stream_kernel_mode(mode: str) -> str:
    """Install ``mode`` process-wide; returns the previous mode."""
    global _mode
    _check_mode(mode)
    with _mode_lock:
        previous = _mode
        _mode = mode
    return previous


@contextmanager
def use_stream_kernel_mode(mode: str) -> Iterator[str]:
    """Scope a stream kernel mode for a ``with`` block."""
    previous = set_stream_kernel_mode(mode)
    try:
        yield mode
    finally:
        set_stream_kernel_mode(previous)
