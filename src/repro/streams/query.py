"""The exact grouped windowed aggregation query (paper Section 2.2.2).

This is the ground truth the histograms approximate::

    select G.gid, count(*)
    from UIDStream U [sliding window], GroupHierarchy G
    where G.uid = U.uid
    group by G.node;

Evaluated directly against the full lookup table — the expensive
computation a deployment avoids by shipping histograms instead of raw
identifiers.  Under the ``fast`` stream kernel mode the join runs
through a :class:`~repro.core.compiled.CompiledGroupJoin` (one uid ->
group lookup per tuple); ``naive`` keeps
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
    """Exact per-group aggregates for many windows.

    Returns a ``(windows, groups)`` float64 matrix whose row ``w`` is
    ``exact_group_counts(table, uid_windows[w],
    values=value_windows[w])``: the rows are those per-window joins,
    stacked, so each follows the stream kernel mode the same way.
    """
    if value_windows is not None:
        if len(value_windows) != len(uid_windows):
            raise ValueError(
                f"{len(value_windows)} value windows for "
                f"{len(uid_windows)} uid windows"
            )
        if any(v is None for v in value_windows):
            raise ValueError("value_windows must be all-present or None")
    if not len(uid_windows):
        return np.zeros((0, len(table)), dtype=np.float64)
    if value_windows is None:
        value_windows = [None] * len(uid_windows)
    return np.stack(
        [
            exact_group_counts(table, u, values=v)
            for u, v in zip(uid_windows, value_windows)
        ]
    )


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
