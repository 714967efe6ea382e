"""Vectorized DP kernels (budget-splitting merges and kernel modes).

Every construction algorithm spends its time in two inner loops: the
``(min, +)`` / ``(min, max)`` budget-splitting convolution
(:func:`knapsack_merge`) and the ``grperr`` evaluations driven by
:class:`~repro.algorithms.base.DPContext`.  This module holds the
knapsack kernels plus the process-wide *kernel mode* that selects
between them:

``"fast"`` (the default)
    Broadcast/blocked merges and batched ``grperr`` evaluation.  Every
    fast path performs the *same* floating-point operations as the
    naive reference, element for element, so results are bit-for-bit
    identical — only Python-loop overhead is eliminated.

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

Both merge kernels return ``(out, choice)`` with identical semantics,
including argmin tie-breaking: ties go to the smallest left-child
allocation ``c``, so reconstruction walks the same splits either way.
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
    "knapsack_merge_vectorized",
]

INF = float("inf")

KERNEL_MODES = ("naive", "fast")

#: Cap on candidate-matrix size per block — bounds peak memory of the
#: broadcast merge to a few megabytes regardless of table sizes.
_MAX_BLOCK_ELEMENTS = 1 << 20

#: Below this many candidate cells the scalar loop beats the broadcast
#: setup cost (both kernels are bit-identical, so this is purely a
#: constant-factor choice).
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


def knapsack_merge_vectorized(
    left: np.ndarray,
    right: np.ndarray,
    cap: int,
    combine: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Broadcast/blocked merge via a shifted-window candidate matrix.

    The right table is embedded in an ``inf``-padded buffer so that row
    ``c`` of a strided view holds ``right[B - c]`` for every output
    budget ``B`` (out-of-range cells read the padding and stay ``inf``).
    One combine and a column min/argmin then yield the merged table and
    the choice array.  ``np.argmin`` returns the *first* minimum, i.e.
    the smallest ``c``, matching the reference kernel's tie-breaking
    exactly; blocks are processed in ascending ``c`` and only strict
    improvements cross block boundaries, preserving that invariant.
    """
    m, n = len(left), len(right)
    size = min(cap, m + n - 2) + 1
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    rows = min(m, size)
    if rows <= 0:
        return out, choice
    maximum = combine == "max"
    ncols = min(n, size)
    pad = np.full(rows - 1 + size, INF)
    pad[rows - 1 : rows - 1 + ncols] = right[:ncols]
    stride = pad.strides[0]
    if rows >= _TRANSPOSE_ROWS and rows * size <= _MAX_BLOCK_ELEMENTS:
        # Tall problem: build the candidate matrix with the allocation
        # axis innermost so min/argmin reduce over contiguous memory.
        shifted = _strided(
            pad, (rows - 1) * stride, (size, rows), (stride, -stride)
        )
        lv = left[None, :rows]
        cand = np.maximum(lv, shifted) if maximum else lv + shifted
        vals = cand.min(axis=1)
        rowmin = cand.argmin(axis=1).astype(np.int32)
        return vals, np.where(vals < INF, rowmin, np.int32(-1))
    block = max(1, _MAX_BLOCK_ELEMENTS // size)
    for c0 in range(0, rows, block):
        c1 = min(rows, c0 + block)
        shifted = _strided(
            pad,
            (rows - 1 - c0) * stride,
            (c1 - c0, size),
            (-stride, stride),
        )
        lv = left[c0:c1, None]
        cand = np.maximum(lv, shifted) if maximum else lv + shifted
        vals = cand.min(axis=0)
        better = vals < out
        if better.any():
            rowmin = cand.argmin(axis=0)
            out[better] = vals[better]
            choice[better] = (c0 + rowmin[better]).astype(np.int32)
    return out, choice


def _merge_one_right(
    left: np.ndarray, right: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact shortcut for a single-entry right table (``n == 1``)."""
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    k = min(len(left), size)
    v = np.maximum(left[:k], right[0]) if maximum else left[:k] + right[0]
    out[:k] = v
    choice[:k] = np.where(v < INF, np.arange(k, dtype=np.int32), -1)
    return out, choice


def _merge_one_left(
    left: np.ndarray, right: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact shortcut for a single-entry left table (``m == 1``)."""
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    k = min(len(right), size)
    v = np.maximum(left[0], right[:k]) if maximum else left[0] + right[:k]
    out[:k] = v
    choice[:k] = np.where(v < INF, np.int32(0), np.int32(-1))
    return out, choice


def _merge_two_right(
    left: np.ndarray, right: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact shortcut for a two-entry right table (``n == 2``).

    Column ``B`` sees candidate ``c = B - 1`` (combining ``right[1]``)
    first and ``c = B`` (combining ``right[0]``) second, mirroring the
    reference kernel's ascending-``c``, strict-improvement scan — so
    values, tie-breaking, and the recorded choices are bit-identical.
    The common case (a leaf child, ``right[0] == inf``) makes the
    second candidate vacuous at no extra cost.
    """
    m = len(left)
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    k1 = min(m, size - 1)
    if k1 > 0:
        v1 = np.maximum(left[:k1], right[1]) if maximum else left[:k1] + right[1]
        out[1 : k1 + 1] = v1
        choice[1 : k1 + 1] = np.where(
            v1 < INF, np.arange(k1, dtype=np.int32), -1
        )
    if right[0] < INF:
        k0 = min(m, size)
        v0 = np.maximum(left[:k0], right[0]) if maximum else left[:k0] + right[0]
        better = v0 < out[:k0]
        if better.any():
            out[:k0][better] = v0[better]
            choice[:k0][better] = np.arange(k0, dtype=np.int32)[better]
    return out, choice


def _merge_two_left(
    left: np.ndarray, right: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact shortcut for a two-entry left table (``m == 2``)."""
    n = len(right)
    out = np.full(size, INF)
    choice = np.full(size, -1, dtype=np.int32)
    if left[0] < INF:
        k0 = min(n, size)
        v0 = np.maximum(left[0], right[:k0]) if maximum else left[0] + right[:k0]
        out[:k0] = v0
        choice[:k0] = np.where(v0 < INF, np.int32(0), np.int32(-1))
    k1 = min(n, size - 1)
    if k1 > 0:
        v1 = np.maximum(left[1], right[:k1]) if maximum else left[1] + right[:k1]
        better = v1 < out[1 : k1 + 1]
        if better.any():
            out[1 : k1 + 1][better] = v1[better]
            choice[1 : k1 + 1][better] = 1
    return out, choice


def _positive_merge_batch(
    l: np.ndarray,
    r: np.ndarray,
    width: int,
    maximum: bool,
    want_choice: bool = True,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Full convolution of stacked all-finite tables (no capacity-0
    row): row ``k`` convolves ``l[k]`` with ``r[k]``.

    The nonoverlapping sweep's tables are ``inf`` at entry 0 and finite
    everywhere else, so its merges reduce to convolving the finite
    tails ``left[1:]`` / ``right[1:]``: ``l``/``r`` are ``(K, m)`` /
    ``(K, n)`` stacks of those tails (``inf``-padded to one shape), and
    ``out[k, B']`` is the best combine over ``c' + j' = B'``.  The
    returned choice is *1-based* — the left-child bucket count ``c =
    c' + 1`` — matching the reference kernel's smallest-``c``
    tie-breaking via the same per-column first-minimum argmin.
    ``want_choice=False`` skips the argmin pass for sweeps that discard
    split choices (the low-memory reconstruction mode).  Either layout
    reuses one candidate buffer of at most ``_MAX_BLOCK_ELEMENTS``
    cells per block, so only one block is ever live.
    """
    K, m = l.shape
    n = r.shape[1]
    rows = min(m, width)
    ncols = min(n, width)
    pad = np.full((K, rows - 1 + width), INF)
    pad[:, rows - 1 : rows - 1 + ncols] = r[:, :ncols]
    s0, s1 = pad.strides
    combine = np.maximum if maximum else np.add
    out = np.empty(0)
    choice: Optional[np.ndarray] = None
    if rows >= _TRANSPOSE_ROWS and rows * width <= _MAX_BLOCK_ELEMENTS:
        # Tall problem: the allocation axis innermost, so min/argmin
        # reduce contiguous memory, in blocks of whole batch rows.
        out = np.empty((K, width))
        choice = np.empty((K, width), np.int32) if want_choice else None
        step = _MAX_BLOCK_ELEMENTS // (rows * width)
        buf = np.empty((min(step, K), width, rows))
        for k0 in range(0, K, step):
            k1 = min(K, k0 + step)
            shifted = _strided(
                pad[k0:k1], (rows - 1) * s1, (k1 - k0, width, rows),
                (s0, s1, -s1),
            )
            cand = combine(
                l[k0:k1, None, :rows], shifted, out=buf[: k1 - k0]
            )
            out[k0:k1] = cand.min(axis=2)
            if want_choice:
                choice[k0:k1] = cand.argmin(axis=2) + 1
        return out, choice
    block = max(1, _MAX_BLOCK_ELEMENTS // max(1, width * K))
    buf = np.empty((K, min(block, rows), width))
    for c0 in range(0, rows, block):
        c1 = min(rows, c0 + block)
        shifted = _strided(
            pad,
            (rows - 1 - c0) * s1,
            (K, c1 - c0, width),
            (s0, -s1, s1),
        )
        cand = combine(l[:, c0:c1, None], shifted, out=buf[:, : c1 - c0])
        vals = cand.min(axis=1)
        if c0 == 0:
            out = vals
            if want_choice:
                choice = cand.argmin(axis=1).astype(np.int32)
                choice += 1
            continue
        better = vals < out
        if better.any():
            out[better] = vals[better]
            if want_choice:
                rowmin = cand.argmin(axis=1)
                choice[better] = (c0 + rowmin[better] + 1).astype(np.int32)
    return out, choice


def _batch_two_right(
    lefts: np.ndarray, rights: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched exact shortcut for two-entry right tables (``n == 2``).

    Stacked analogue of :func:`_merge_two_right`: column ``B`` sees the
    ``c = B - 1`` candidate (combining ``right[1]``) first, then the
    ``c = B`` candidate (``right[0]``) as a strict improvement.  Rows
    whose ``right[0]`` is infinite produce all-``inf`` second-pass
    candidates, which never strictly improve — the same outcome as the
    reference skipping them.
    """
    J, m = lefts.shape
    out = np.full((J, size), INF)
    choice = np.full((J, size), -1, dtype=np.int32)
    k1 = min(m, size - 1)
    if k1 > 0:
        r1 = rights[:, 1:2]
        v1 = np.maximum(lefts[:, :k1], r1) if maximum else lefts[:, :k1] + r1
        out[:, 1 : k1 + 1] = v1
        choice[:, 1 : k1 + 1] = np.where(
            v1 < INF, np.arange(k1, dtype=np.int32), np.int32(-1)
        )
    k0 = min(m, size)
    r0 = rights[:, 0:1]
    v0 = np.maximum(lefts[:, :k0], r0) if maximum else lefts[:, :k0] + r0
    better = v0 < out[:, :k0]
    if better.any():
        out[:, :k0][better] = v0[better]
        ar = np.broadcast_to(np.arange(k0, dtype=np.int32), (J, k0))
        choice[:, :k0][better] = ar[better]
    return out, choice


def _batch_two_left(
    lefts: np.ndarray, rights: np.ndarray, size: int, maximum: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched exact shortcut for two-entry left tables (``m == 2``)."""
    J, n = rights.shape
    out = np.full((J, size), INF)
    choice = np.full((J, size), -1, dtype=np.int32)
    k0 = min(n, size)
    l0 = lefts[:, 0:1]
    v0 = np.maximum(l0, rights[:, :k0]) if maximum else l0 + rights[:, :k0]
    out[:, :k0] = v0
    choice[:, :k0] = np.where(v0 < INF, np.int32(0), np.int32(-1))
    k1 = min(n, size - 1)
    if k1 > 0:
        l1 = lefts[:, 1:2]
        v1 = np.maximum(l1, rights[:, :k1]) if maximum else l1 + rights[:, :k1]
        win = out[:, 1 : k1 + 1]
        better = v1 < win
        if better.any():
            win[better] = v1[better]
            choice[:, 1 : k1 + 1][better] = 1
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
    ``(J, size)``.  Row ``i`` is bit-for-bit identical to
    ``knapsack_merge_reference(lefts[i], rights[i], cap, combine)``:
    the candidate cells combine the same scalars with the same single
    floating-point operation, and the per-column first-minimum argmin
    reproduces the smallest-``c`` tie-breaking.

    The overlapping DP uses this to fold its per-enclosing-ancestor
    loop (one merge per ancestor, per node) into a single stacked
    kernel invocation.
    """
    J, m = lefts.shape
    n = rights.shape[1]
    size = min(cap, m + n - 2) + 1
    rows = min(m, size)
    if rows <= 0 or J == 0:
        out = np.full((J, size), INF)
        choice = np.full((J, size), -1, dtype=np.int32)
        return out, choice
    maximum = combine == "max"
    if n == 2:
        return _batch_two_right(lefts, rights, size, maximum)
    if m == 2:
        return _batch_two_left(lefts, rights, size, maximum)
    ncols = min(n, size)
    pad = np.full((J, rows - 1 + size), INF)
    pad[:, rows - 1 : rows - 1 + ncols] = rights[:, :ncols]
    s0, s1 = pad.strides
    if rows >= _TRANSPOSE_ROWS and J * rows * size <= _MAX_BLOCK_ELEMENTS:
        shifted = _strided(
            pad, (rows - 1) * s1, (J, size, rows), (s0, s1, -s1)
        )
        lv = lefts[:, None, :rows]
        cand = np.maximum(lv, shifted) if maximum else lv + shifted
        vals = cand.min(axis=2)
        rowmin = cand.argmin(axis=2).astype(np.int32)
        choice = np.where(vals < INF, rowmin, np.int32(-1))
        return vals, choice
    block = max(1, _MAX_BLOCK_ELEMENTS // max(1, size * J))
    if rows <= block:
        # Single-block case: the column min/argmin over all candidate
        # rows is the final answer — no running tables needed.
        shifted = _strided(
            pad, (rows - 1) * s1, (J, rows, size), (s0, -s1, s1)
        )
        lv = lefts[:, :rows, None]
        cand = np.maximum(lv, shifted) if maximum else lv + shifted
        vals = cand.min(axis=1)
        rowmin = cand.argmin(axis=1).astype(np.int32)
        choice = np.where(vals < INF, rowmin, np.int32(-1))
        return vals, choice
    out = np.full((J, size), INF)
    choice = np.full((J, size), -1, dtype=np.int32)
    for c0 in range(0, rows, block):
        c1 = min(rows, c0 + block)
        shifted = _strided(
            pad,
            (rows - 1 - c0) * s1,
            (J, c1 - c0, size),
            (s0, -s1, s1),
        )
        lv = lefts[:, c0:c1, None]
        cand = np.maximum(lv, shifted) if maximum else lv + shifted
        vals = cand.min(axis=1)
        better = vals < out
        if better.any():
            rowmin = cand.argmin(axis=1)
            out[better] = vals[better]
            choice[better] = (c0 + rowmin[better]).astype(np.int32)
    return out, choice


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
    for max-combine metrics.  Dispatches on the active kernel mode;
    both kernels are bit-for-bit identical.
    """
    if _mode == "naive":
        return knapsack_merge_reference(left, right, cap, combine)
    m, n = len(left), len(right)
    size = min(cap, m + n - 2) + 1
    maximum = combine == "max"
    # One- and two-entry tables (leaf children — half the merges in a
    # binary hierarchy) have closed forms: one vector combine per
    # candidate row, bit-identical to the reference scan.
    if n == 1:
        return _merge_one_right(left, right, size, maximum)
    if m == 1:
        return _merge_one_left(left, right, size, maximum)
    if n == 2:
        return _merge_two_right(left, right, size, maximum)
    if m == 2:
        return _merge_two_left(left, right, size, maximum)
    if min(m, size) * size <= _SMALL_PROBLEM:
        return knapsack_merge_reference(left, right, cap, combine)
    return knapsack_merge_vectorized(left, right, cap, combine)
