"""Vectorized DP kernels (budget-splitting merges and kernel modes).

Every construction algorithm spends its time in two inner loops: the
``(min, +)`` / ``(min, max)`` budget-splitting convolution
(:func:`knapsack_merge`) and the ``grperr`` evaluations driven by
:class:`~repro.algorithms.base.DPContext`.  This module holds the
knapsack kernels plus the process-wide *kernel mode* that selects
between them:

``"fast"`` (the default)
    One stacked merge core, :func:`_stacked_merge`, behind every fast
    merge (:func:`knapsack_merge`, :func:`knapsack_merge_batch` and the
    nonoverlapping arena sweep), and batched ``grperr`` evaluation.
    Every fast path performs the *same* floating-point operations as
    the naive reference, element for element, so results are
    bit-for-bit identical — only Python-loop overhead is eliminated.

``"naive"``
    The seed implementation: a Python loop over the left child's budget
    allocations and one ``grperr`` slice evaluation per density.  Kept
    as the executable reference the fast paths are tested against, and
    as the baseline the construction perf harness
    (``benchmarks/bench_kernel.py``) measures speedups from.  Naive
    rebuilds never memoize: incremental rebuilds run through ``"fast"``
    only (see :mod:`repro.algorithms.incremental`).

The mode can also be pinned from the environment with
``REPRO_KERNELS=naive|fast`` (read at import time; an unknown non-empty
value raises :class:`ValueError`, unset or empty means ``"fast"``).

The reference and the fast merges return ``(out, choice)`` with
identical semantics, including argmin tie-breaking: ties go to the
smallest left-child allocation ``c``, so reconstruction walks the same
splits either way.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "INF",
    "KERNEL_MODES",
    "kernel_mode",
    "set_kernel_mode",
    "use_kernel_mode",
    "knapsack_merge",
    "knapsack_merge_batch",
    "knapsack_merge_reference",
]

INF = float("inf")

KERNEL_MODES = ("naive", "fast")

#: Cap on candidate-matrix size per block — bounds peak memory of the
#: broadcast merge to a few megabytes regardless of table sizes.
_MAX_BLOCK_ELEMENTS = 1 << 20

#: Up to this many cells (left rows x output width) the reference
#: loop beats the stacked merge's fixed setup cost in a single-pair
#: merge (both are bit-identical, so this is purely a constant-factor
#: choice).
_SMALL_PROBLEM = 96

#: From this many candidate rows on, the transposed candidate layout
#: (allocation axis innermost, so the min/argmin reductions run over
#: contiguous memory) beats the row-major layout, whose reductions
#: stride by the output width.  Same cells, same single combine op,
#: same first-minimum tie-breaking — purely a memory-layout choice.
_TRANSPOSE_ROWS = 100


def _strided(buf: np.ndarray, offset: int, shape, strides) -> np.ndarray:
    """Zero-copy shifted-window view into ``buf`` (byte offset/strides).

    Equivalent to ``np.lib.stride_tricks.as_strided`` on a sliced
    buffer but without its per-call interface-dict overhead — the
    ``np.ndarray`` constructor still bounds-checks every extent against
    the buffer, so this stays safe; callers arrange ``inf`` padding so
    out-of-window cells read as infeasible.
    """
    return np.ndarray(
        shape, dtype=buf.dtype, buffer=buf, offset=offset, strides=strides
    )


def _ranges(sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s)`` for each ``s`` in ``sizes`` — the
    row-offset pattern for gathering variable-height blocks out of a
    contiguous arena."""
    total = int(sizes.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)


def _check_mode(mode: str) -> str:
    if mode not in KERNEL_MODES:
        known = ", ".join(KERNEL_MODES)
        raise ValueError(f"unknown kernel mode {mode!r}; known modes: {known}")
    return mode


def _initial_mode() -> str:
    mode = os.environ.get("REPRO_KERNELS", "").strip().lower()
    return _check_mode(mode) if mode else "fast"


_mode = _initial_mode()
_mode_lock = threading.Lock()


def kernel_mode() -> str:
    """The currently active kernel mode."""
    return _mode


def set_kernel_mode(mode: str) -> str:
    """Install ``mode`` process-wide; returns the previous mode.

    Note that :class:`~repro.algorithms.base.DPContext` snapshots the
    mode at construction time, so switch modes *before* building
    contexts (or use :func:`use_kernel_mode` around whole runs).
    """
    global _mode
    _check_mode(mode)
    with _mode_lock:
        previous = _mode
        _mode = mode
    return previous


@contextmanager
def use_kernel_mode(mode: str) -> Iterator[str]:
    """Scope a kernel mode for a ``with`` block."""
    previous = set_kernel_mode(mode)
    try:
        yield mode
    finally:
        set_kernel_mode(previous)


def knapsack_merge_reference(
    left: np.ndarray,
    right: np.ndarray,
    cap: int,
    combine: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed merge: a Python loop over the left child's allocation.

    Kept verbatim as the executable reference for the vectorized
    kernel; ``REPRO_KERNELS=naive`` routes all merges here.
    """
    m, n = len(left), len(right)
    size = min(cap, m + n - 2) + 1
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    maximum = combine == "max"
    for c in range(min(m, size)):
        lv = left[c]
        if lv == INF:
            continue
        jmax = min(n - 1, size - 1 - c)
        if jmax < 0:
            break
        seg = right[: jmax + 1]
        cand = np.maximum(lv, seg) if maximum else lv + seg
        window = out[c : c + jmax + 1]
        better = cand < window
        if better.any():
            window[better] = cand[better]
            choice[c : c + jmax + 1][better] = c
    return out, choice


def _stacked_merge(
    l: np.ndarray,
    r: np.ndarray,
    width: int,
    maximum: bool,
    want_choice: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The one fast budget-splitting merge: row ``k`` of the ``(K, m)``
    / ``(K, n)`` stacks ``l`` and ``r`` convolves into::

        out[k, B]    = min over c of  l[k, c] (+ or max) r[k, B - c]
        choice[k, B] = the first minimizing c            (B < width)

    Where ``out`` is ``inf`` the choice is arbitrary; callers mask or
    skip those cells.  ``want_choice=False`` skips the choice pass (for
    sweeps that discard split choices).

    The candidate matrix is a zero-copy strided view of the longer
    table, ``inf``-padded so that out-of-range cells never win, and is
    reduced over the shorter table's allocations (its *rows*).  When
    the right table is the shorter, its allocations ``j`` run in
    descending order, so ascending rows are ascending ``c = B - j``
    and the first minimum is the smallest left allocation either way:
    the reference kernel's tie-break.  Each cell is the same single
    (commutative) combine of the same two scalars the reference
    computes, so values and choices are bit-identical.

    Tall reductions (``_TRANSPOSE_ROWS`` rows up) put the rows
    innermost, so min/argmin reduce contiguous memory, in blocks of
    whole batch rows.  Shorter ones keep the rows in the middle axis,
    in blocks of ascending rows where a later block replaces only a
    strict improvement; their first minimum is the first flag of an
    equality mask written transposed, since ``argmin`` over a middle
    axis copies the whole block.  Either layout reuses one candidate
    buffer of at most ``_MAX_BLOCK_ELEMENTS`` cells.
    """
    K, m = l.shape
    n = r.shape[1]
    swap = n < m
    short, long = (r, l) if swap else (l, r)
    rows = min(short.shape[1], width)
    cols = min(long.shape[1], width)
    pad = np.full((K, rows - 1 + width), INF)
    pad[:, rows - 1 : rows - 1 + cols] = long[:, :cols]
    s0, s1 = pad.strides
    if swap:  # row t is j = rows - 1 - t, so c = B - (rows - 1) + t
        short = short[:, rows - 1 :: -1]
        first, step = 0, s1
    else:  # row t is c = t
        short = short[:, :rows]
        first, step = (rows - 1) * s1, -s1
    combine = np.maximum if maximum else np.add
    if rows >= _TRANSPOSE_ROWS and rows * width <= _MAX_BLOCK_ELEMENTS:
        out = np.empty((K, width))
        choice = np.empty((K, width), np.intp) if want_choice else None
        kstep = _MAX_BLOCK_ELEMENTS // (rows * width)
        buf = np.empty((min(kstep, K), width, rows))
        for k0 in range(0, K, kstep):
            k1 = min(K, k0 + kstep)
            view = _strided(
                pad[k0:k1], first, (k1 - k0, width, rows), (s0, s1, step)
            )
            cand = combine(short[k0:k1, None], view, out=buf[: k1 - k0])
            out[k0:k1] = cand.min(axis=2)
            if want_choice:
                choice[k0:k1] = cand.argmin(axis=2)
    else:
        block = max(1, _MAX_BLOCK_ELEMENTS // max(1, K * width))
        buf = np.empty((K, min(block, rows), width))
        flags = np.empty(buf.size, dtype=bool)
        idx = None
        for c0 in range(0, rows, block):
            t = min(rows, c0 + block) - c0
            view = _strided(
                pad, first + c0 * step, (K, t, width), (s0, step, s1)
            )
            cand = combine(short[:, c0 : c0 + t, None], view, out=buf[:, :t])
            vals = cand.min(axis=1)
            if want_choice:
                hit = flags[: K * width * t].reshape(K, width, t)
                np.equal(cand, vals[:, None], out=hit.transpose(0, 2, 1))
                idx = hit.argmax(axis=2)
            if c0 == 0:
                out, choice = vals, idx
                continue
            better = vals < out
            out[better] = vals[better]
            if want_choice:
                choice[better] = idx[better] + c0
    if swap and want_choice:
        choice += np.arange(1 - rows, width + 1 - rows)
    return out, choice


def knapsack_merge_batch(
    lefts: np.ndarray,
    rights: np.ndarray,
    cap: int,
    combine: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge ``J`` independent (left, right) table pairs in one call.

    ``lefts``/``rights`` are ``(J, m)`` / ``(J, n)`` matrices — row
    ``i`` is one merge problem.  Returns ``(out, choice)`` of shape
    ``(J, size)``, row ``i`` bit-for-bit identical to
    ``knapsack_merge_reference(lefts[i], rights[i], cap, combine)``:
    :func:`_stacked_merge` plus the reference's ``-1`` choice wherever
    no allocation is feasible.
    """
    size = min(cap, lefts.shape[1] + rights.shape[1] - 2) + 1
    out, choice = _stacked_merge(lefts, rights, size, combine == "max")
    choice[out == INF] = -1
    return out, choice.astype(np.int32)


def knapsack_merge(
    left: np.ndarray,
    right: np.ndarray,
    cap: int,
    combine: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Budget-splitting merge of two child error tables.

    ``left[c]`` / ``right[c]`` hold the best error of each subtree when
    given ``c`` buckets (``inf`` = infeasible).  Returns ``(out,
    choice)`` of length ``min(cap, len(left) + len(right) - 2) + 1``
    where::

        out[B]    = min over c of  left[c] (+ or max) right[B - c]
        choice[B] = the minimizing c (buckets granted to the left child)

    ``combine`` is ``"sum"`` for additive penalty metrics and ``"max"``
    for max-combine metrics.  Dispatches on the active kernel mode: the
    reference loop, or a batch of one through :func:`_stacked_merge`
    (small problems stay on the reference loop, which is cheaper
    there).  Both are bit-for-bit identical.
    """
    size = min(cap, len(left) + len(right) - 2) + 1
    if _mode == "naive" or min(len(left), size) * size <= _SMALL_PROBLEM:
        return knapsack_merge_reference(left, right, cap, combine)
    out, choice = knapsack_merge_batch(left[None], right[None], cap, combine)
    return out[0], choice[0]
