"""Golden outputs of the builders that walk the pruned hierarchy node by
node: the quantized LPM heuristic, the exact k-holes search, and the
naive sweeps of the nonoverlapping and overlapping DPs.

``lpm_quantized`` and ``lpm_kholes`` have no fast twin to be compared
against, and the other tests bound them (by brute force or by the
optimal curves) without pinning them.  This module pins, for each build
over 12 seeded random instances and one height-62 instance, the curve
as float64 bit patterns and the ``(node, sparse_group_node)`` bucket
lists at three budgets.  The naive DP sweeps always run under the
naive kernels; the LPM builders run under whichever kernel mode is
active, and both modes must match the same data.

Regenerate ``tests/data/tree_walk_golden.json`` (only when a change to
these builders' output is intended) with::

    PYTHONPATH=src python tests/test_tree_walk_golden.py --record
"""

import json
import os
import sys

import numpy as np
import pytest

from repro import GroupTable, PrunedHierarchy, UIDDomain, get_metric
from repro.algorithms import (
    build_lpm_kholes,
    build_lpm_quantized,
    build_nonoverlapping,
    build_overlapping,
)
from repro.algorithms.kernels import use_kernel_mode

from helpers import random_instance

DATA = os.path.join(os.path.dirname(__file__), "data", "tree_walk_golden.json")

BUDGET = 8
BUCKET_BUDGETS = (2, 4, BUDGET)
METRICS = ("rms", "max_relative")
SEEDS = (4, 7, 13, 21, 45, 61, 68, 78, 132, 183, 208, 347)

#: name -> (kernel mode, or None for the active one; build)
BUILDS = {
    f"lpm_quantized-theta{theta}-sparse{int(sparse)}": (
        None,
        lambda h, m, theta=theta, sparse=sparse: build_lpm_quantized(
            h, m, BUDGET, theta=theta, sparse=sparse
        ),
    )
    for theta in (0.5, 1.0)
    for sparse in (False, True)
}
BUILDS.update({
    f"lpm_kholes-k{k}-sparse{int(sparse)}": (
        None,
        lambda h, m, k=k, sparse=sparse: build_lpm_kholes(
            h, m, BUDGET, k=k, sparse=sparse
        ),
    )
    for k in (1, 2)
    for sparse in (False, True)
})
BUILDS.update({
    f"nonoverlapping-naive-low_memory{int(low)}": (
        "naive",
        lambda h, m, low=low: build_nonoverlapping(
            h, m, BUDGET, low_memory=low
        ),
    )
    for low in (False, True)
})
BUILDS.update({
    f"overlapping-naive-sparse{int(sparse)}": (
        "naive",
        lambda h, m, sparse=sparse: build_overlapping(
            h, m, BUDGET, sparse=sparse
        ),
    )
    for sparse in (False, True)
})


def instances():
    """``name -> (table, counts)``: 12 seeded random instances of 9 to
    47 pruned nodes and the height-62 window whose groups sit in one
    corner of the domain."""
    out = {}
    for seed in SEEDS:
        _dom, table, counts = random_instance(seed, height_range=(3, 8))
        out[f"random-{seed}"] = (table, counts)
    dom = UIDDomain(62)
    base = dom.node(40, 12345)
    table = GroupTable(dom, [4 * base, 4 * base + 1, 4 * base + 3])
    out["height-62"] = (table, np.array([0.0, 2.0, 3.0]))
    return out


def capture(build_name):
    """``"instance/metric" -> {curve bits, buckets per budget}`` for one
    build."""
    mode, build = BUILDS[build_name]
    out = {}
    for name, (table, counts) in instances().items():
        for mname in METRICS:
            h = PrunedHierarchy(table, counts)
            metric = get_metric(mname)
            if mode is None:
                record = _record(build(h, metric))
            else:
                with use_kernel_mode(mode):
                    record = _record(build(h, metric))
            out[f"{name}/{mname}"] = record
    return out


def _record(result):
    return {
        "curve": np.asarray(result.curve, dtype=np.float64)
        .view(np.int64).tolist(),
        "buckets": {
            str(b): [
                [int(x.node), x.sparse_group_node]
                for x in result.function_at(b).buckets
            ]
            for b in BUCKET_BUDGETS
        },
    }


@pytest.fixture(scope="module")
def golden():
    with open(DATA) as f:
        return json.load(f)


@pytest.mark.parametrize("build_name", sorted(BUILDS))
def test_matches_golden(golden, build_name):
    expected = golden[build_name]
    observed = json.loads(json.dumps(capture(build_name)))
    assert observed.keys() == expected.keys()
    for key, want in expected.items():
        assert observed[key] == want, (build_name, key)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_tree_walk_golden.py --record")
    with open(DATA, "w") as f:
        json.dump(
            {name: capture(name) for name in sorted(BUILDS)}, f, indent=None
        )
        f.write("\n")
    print("wrote", DATA)
