"""Shared generators for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import GroupTable, UIDDomain
from repro.streams import TumblingWindows

ALL_METRICS = ["rms", "average", "avg_relative", "max_relative"]


def random_cut(
    rng: np.random.Generator, height: int, stop: float = 0.5
) -> List[int]:
    """A random covering nonoverlapping cut of a height-``height``
    domain (used as random group nodes)."""
    out: List[int] = []
    stack = [1]
    while stack:
        node = stack.pop()
        if UIDDomain.depth(node) >= height or rng.random() < stop:
            out.append(node)
        else:
            stack.extend(UIDDomain.children(node))
    return out


def random_instance(
    seed: int,
    height_range: Tuple[int, int] = (2, 5),
    zero_fraction: float = 0.4,
    max_count: int = 30,
) -> Tuple[UIDDomain, GroupTable, np.ndarray]:
    """A random small (domain, table, counts) problem instance."""
    rng = np.random.default_rng(seed)
    height = int(rng.integers(*height_range))
    dom = UIDDomain(height)
    groups = random_cut(rng, height)
    table = GroupTable(dom, groups)
    counts = rng.integers(0, max_count, len(table)).astype(float)
    counts[rng.random(len(table)) < zero_fraction] = 0.0
    if counts.sum() == 0:
        counts[0] = float(max_count // 2 + 1)
    return dom, table, counts


def naive_window_histograms(system, live, window_width, split_seed=0):
    """``(monitor name, window index) -> Histogram`` for a run of
    ``system`` over ``live``, rebuilt independently of the run: the same
    split and segmentation as :meth:`MonitoringSystem.run`, partitioned
    by the naive ``function.build_histogram`` of the current function
    (valid for runs that install one function)."""
    function = system.control_center.function
    windows = TumblingWindows(window_width)
    shares = live.split(len(system.monitors), seed=split_seed)
    return {
        (monitor.name, win.index): function.build_histogram(
            win.uids, values=win.values
        )
        for monitor, share in zip(system.monitors, shares)
        for win in windows.segment(share)
    }
