"""Shared generators for the test suite (importable, unlike conftest)."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import GroupTable, UIDDomain
from repro.core.domain import ROOT
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


def random_partial_table(
    rng: np.random.Generator, height: int, stop: float = 0.6
) -> GroupTable:
    """A random table whose groups sit at mixed depths and need not
    cover the domain: a random cut with a random subset of its nodes
    dropped."""
    nodes = random_cut(rng, height, stop=stop)
    keep = rng.random(len(nodes)) < rng.uniform(0.3, 1.0)
    keep[int(rng.integers(0, len(nodes)))] = True
    return GroupTable(
        UIDDomain(height), [n for n, k in zip(nodes, keep) if k]
    )


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


class OracleNode:
    """One node of :func:`recursive_hierarchy`'s object tree."""

    __slots__ = (
        "node", "kind", "left", "right", "parent", "n_groups",
        "n_nonzero", "tuples", "group_index", "index",
    )

    def __init__(self, node: int, kind: str) -> None:
        self.node = node
        self.kind = kind  # "group", "zero" or "branch"
        self.left: Optional[OracleNode] = None
        self.right: Optional[OracleNode] = None
        self.parent: Optional[OracleNode] = None
        self.n_groups = 0
        self.n_nonzero = 0
        self.tuples = 0.0
        self.group_index: Optional[int] = None
        self.index = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def density(self) -> float:
        return self.tuples / self.n_groups


def recursive_hierarchy(
    table: GroupTable, counts: np.ndarray
) -> List[OracleNode]:
    """Reference pruned hierarchy, built node by node: the recursive
    least-common-ancestor split over the nonzero groups, with a zero
    summary inserted for every nonempty all-zero sibling on each
    compressed path.  Returns the nodes in postorder, ``index`` set."""
    domain = table.domain
    counts = np.asarray(counts, dtype=np.float64)

    def attach(
        parent: OracleNode, left: OracleNode, right: OracleNode
    ) -> OracleNode:
        parent.left, parent.right = left, right
        left.parent = right.parent = parent
        parent.n_groups = left.n_groups + right.n_groups
        parent.n_nonzero = left.n_nonzero + right.n_nonzero
        parent.tuples = left.tuples + right.tuples
        return parent

    def wrap(sub: OracleNode, top: int) -> OracleNode:
        cur, child = sub, sub.node
        while child != top:
            parent, sib = UIDDomain.parent(child), UIDDomain.sibling(child)
            z = table.groups_below(sib)
            if z > 0:
                zero = OracleNode(sib, "zero")
                zero.n_groups = z
                branch = OracleNode(parent, "branch")
                cur = (
                    attach(branch, zero, cur) if sib < child
                    else attach(branch, cur, zero)
                )
            child = parent
        return cur

    def build(groups: List[int]) -> OracleNode:
        if len(groups) == 1:
            g = groups[0]
            leaf = OracleNode(int(table.nodes[g]), "group")
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
        return attach(OracleNode(anchor, "branch"), left, right)

    nonzero = np.flatnonzero(counts > 0).tolist()
    if nonzero:
        root = wrap(build(nonzero), ROOT)
    else:
        root = OracleNode(ROOT, "zero")
        root.n_groups = len(table)
    out: List[OracleNode] = []
    stack = [(root, False)]
    while stack:
        p, expanded = stack.pop()
        if expanded or p.is_leaf:
            p.index = len(out)
            out.append(p)
        else:
            stack += [(p, True), (p.right, False), (p.left, False)]
    return out
