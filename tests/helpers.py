"""Shared generators for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import GroupTable, UIDDomain
from repro.core.domain import ROOT
from repro.core.hierarchy import PNode
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


def recursive_hierarchy(table: GroupTable, counts: np.ndarray) -> List[PNode]:
    """Reference pruned hierarchy, built node by node: the recursive
    least-common-ancestor split over the nonzero groups, with a zero
    summary inserted for every nonempty all-zero sibling on each
    compressed path.  Returns the nodes in postorder, ``index`` set."""
    domain = table.domain
    counts = np.asarray(counts, dtype=np.float64)

    def attach(parent: PNode, left: PNode, right: PNode) -> PNode:
        parent.left, parent.right = left, right
        left.parent = right.parent = parent
        parent.n_groups = left.n_groups + right.n_groups
        parent.n_nonzero = left.n_nonzero + right.n_nonzero
        parent.tuples = left.tuples + right.tuples
        return parent

    def wrap(sub: PNode, top: int) -> PNode:
        cur, child = sub, sub.node
        while child != top:
            parent, sib = UIDDomain.parent(child), UIDDomain.sibling(child)
            z = table.groups_below(sib)
            if z > 0:
                zero = PNode(sib, "zero")
                zero.n_groups = z
                branch = PNode(parent, "branch")
                cur = (
                    attach(branch, zero, cur) if sib < child
                    else attach(branch, cur, zero)
                )
            child = parent
        return cur

    def build(groups: List[int]) -> PNode:
        if len(groups) == 1:
            g = groups[0]
            leaf = PNode(int(table.nodes[g]), "group")
            leaf.group_index = g
            leaf.n_groups = leaf.n_nonzero = 1
            leaf.tuples = float(counts[g])
            return leaf
        anchor = UIDDomain.lca(
            int(table.nodes[groups[0]]), int(table.nodes[groups[-1]])
        )
        lo, hi = domain.uid_range(anchor)
        mid = (lo + hi) // 2
        split = next(
            k for k, g in enumerate(groups) if table.starts[g] >= mid
        )
        left = wrap(build(groups[:split]), UIDDomain.left_child(anchor))
        right = wrap(build(groups[split:]), UIDDomain.right_child(anchor))
        return attach(PNode(anchor, "branch"), left, right)

    nonzero = np.flatnonzero(counts > 0).tolist()
    if nonzero:
        root = wrap(build(nonzero), ROOT)
    else:
        root = PNode(ROOT, "zero")
        root.n_groups = len(table)
    out: List[PNode] = []
    stack = [(root, False)]
    while stack:
        p, expanded = stack.pop()
        if expanded or p.is_leaf:
            p.index = len(out)
            out.append(p)
        else:
            stack += [(p, True), (p.right, False), (p.left, False)]
    return out
