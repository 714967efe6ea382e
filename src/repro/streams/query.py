"""The exact grouped windowed aggregation query (paper Section 2.2.2).

This is the ground truth the histograms approximate::

    select G.gid, count(*)
    from UIDStream U [sliding window], GroupHierarchy G
    where G.uid = U.uid
    group by G.node;

Evaluated directly against the full lookup table — the expensive
computation a deployment avoids by shipping histograms instead of raw
identifiers.  Under the ``fast`` stream kernel mode the join runs
through a :class:`~repro.core.compiled.CompiledGroupJoin` (one dense
gather per tuple); ``naive`` keeps
:meth:`~repro.core.groups.GroupTable.counts_from_uids` as the
reference it is checked against.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..core.compiled import CompiledGroupJoin
from ..core.groups import GroupTable
from .kernels import stream_kernel_mode
from .tuples import Trace
from .windows import TumblingWindows, Window

__all__ = [
    "exact_group_counts",
    "exact_group_counts_batched",
    "GroupedAggregationQuery",
]


def exact_group_counts(
    table: GroupTable,
    uids: Sequence[int],
    values: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Exact per-group aggregates of a window (the join + group-by):
    ``count(*)`` per group, or ``sum(value)`` when a parallel per-tuple
    ``values`` vector is given."""
    if stream_kernel_mode() == "fast":
        return CompiledGroupJoin.for_table(table).counts(uids, values)
    return table.counts_from_uids(uids, values=values)


def exact_group_counts_batched(
    table: GroupTable,
    uid_windows: Sequence[Sequence[int]],
    value_windows: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> np.ndarray:
    """Exact per-group aggregates for many windows in one pass.

    Returns a ``(windows, groups)`` float64 matrix whose row ``w`` is
    bit-identical to ``exact_group_counts(table, uid_windows[w],
    values=value_windows[w])``: the batch runs one group lookup over
    the concatenated windows (the compiled join's gather under the
    ``fast`` stream kernel mode, ``GroupTable.lookup_many`` under
    ``naive``) and one flattened ``bincount`` keyed by
    ``window * (num_groups + 1) + group + 1``, whose per-window bin 0
    collects the uncovered tuples and is dropped.  Cells are disjoint
    per (window, group) and the concatenation preserves each window's
    tuple order, so every cell accumulates the same elements in the
    same order as the per-window call — exact for counts, and
    bit-identical float summation for weighted aggregates.
    """
    n_windows = len(uid_windows)
    n_groups = len(table)
    if n_windows == 0:
        return np.zeros((0, n_groups), dtype=np.float64)
    arrays = [np.asarray(u, dtype=np.int64) for u in uid_windows]
    sizes = np.asarray([a.size for a in arrays], dtype=np.int64)
    if value_windows is not None:
        if len(value_windows) != n_windows:
            raise ValueError(
                f"{len(value_windows)} value windows for "
                f"{n_windows} uid windows"
            )
        weights = []
        for a, v in zip(arrays, value_windows):
            if v is None:
                raise ValueError(
                    "value_windows must be all-present or None"
                )
            v = np.asarray(v, dtype=np.float64)
            if v.shape != a.shape:
                raise ValueError(
                    f"{v.shape[0] if v.ndim else 0} values for "
                    f"{a.shape[0]} identifiers"
                )
            weights.append(v)
    uids = (
        np.concatenate(arrays) if n_windows > 1 else arrays[0]
    )
    if stream_kernel_mode() == "fast":
        idx = CompiledGroupJoin.for_table(table).group_indices(uids)
    else:
        idx = table.lookup_many(uids)
    win = np.repeat(np.arange(n_windows, dtype=np.int64), sizes)
    flat = win * (n_groups + 1) + (idx + 1)
    values = None
    if value_windows is not None:
        values = np.concatenate(weights) if n_windows > 1 else weights[0]
    sums = np.bincount(
        flat, weights=values, minlength=n_windows * (n_groups + 1)
    )
    return sums.reshape(n_windows, n_groups + 1)[:, 1:].astype(np.float64)


class GroupedAggregationQuery:
    """A windowed count(*) group-by query against a lookup table.

    Iterating :meth:`run` yields ``(window, counts)`` pairs — the exact
    answer stream the Control Center's approximations are scored
    against.
    """

    def __init__(
        self,
        table: GroupTable,
        windows: Optional[TumblingWindows] = None,
    ) -> None:
        self.table = table
        self.windows = windows or TumblingWindows(1.0)

    def run(self, trace: Trace) -> Iterator[Tuple[Window, np.ndarray]]:
        for window in self.windows.segment(trace):
            yield window, exact_group_counts(
                self.table, window.uids, values=window.values
            )

    def answer_dict(self, uids: Sequence[int]) -> Dict[object, float]:
        """One window's answer keyed by application group id, nonzero
        groups only (the shape of the SQL result set)."""
        counts = exact_group_counts(self.table, uids)
        return {
            self.table.group_ids[i]: float(c)
            for i, c in enumerate(counts)
            if c > 0
        }
