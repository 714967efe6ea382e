"""repro — Compact Histograms for Hierarchical Identifiers.

A full reproduction of Reiss, Garofalakis & Hellerstein, *Compact
Histograms for Hierarchical Identifiers*, VLDB 2006: histogram
partitioning functions over hierarchies of unique identifiers
(nonoverlapping, overlapping and longest-prefix-match), optimized for
any distributive error metric, together with the distributed stream
monitoring substrate they were designed for.

Quickstart
----------
>>> import numpy as np
>>> from repro import (UIDDomain, GroupTable, PrunedHierarchy,
...                    get_metric, build_overlapping, evaluate_function)
>>> dom = UIDDomain(8)                       # 256 identifiers
>>> groups = [dom.node(4, p) for p in range(16)]   # 16 /4 "subnets"
>>> table = GroupTable(dom, groups)
>>> counts = np.zeros(16); counts[3] = 100.0; counts[10] = 5.0
>>> hierarchy = PrunedHierarchy(table, counts)
>>> result = build_overlapping(hierarchy, get_metric("rms"), budget=4)
>>> fn = result.function_at(4)
>>> evaluate_function(table, counts, fn, get_metric("rms")) == result.error_at(4)
True
"""

from .core import (
    ROOT,
    AverageError,
    AverageRelativeError,
    Bucket,
    CompiledEstimator,
    CompiledGroupJoin,
    CompiledPartitioner,
    DistributiveErrorMetric,
    GroupTable,
    Histogram,
    LongestPrefixMatchPartitioning,
    MaximumRelativeError,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    PartitioningFunction,
    PenaltyMetric,
    PrunedHierarchy,
    RMSError,
    UIDDomain,
    assign_groups_to_buckets,
    available_metrics,
    evaluate_function,
    get_metric,
    histogram_from_group_counts,
    net_group_populations,
    reconstruct_estimates,
    register_metric,
)
from .algorithms import (
    ConstructionResult,
    OverlappingDP,
    build_lpm_greedy,
    build_nonoverlapping,
    build_overlapping,
)
from .obs import (
    MetricsRegistry,
    get_registry,
    set_registry,
    span,
    use_registry,
    write_metrics,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # domain & tables
    "ROOT",
    "UIDDomain",
    "GroupTable",
    "PrunedHierarchy",
    # metrics
    "DistributiveErrorMetric",
    "PenaltyMetric",
    "RMSError",
    "AverageError",
    "AverageRelativeError",
    "MaximumRelativeError",
    "get_metric",
    "register_metric",
    "available_metrics",
    # partitioning functions
    "Bucket",
    "Histogram",
    "PartitioningFunction",
    "NonoverlappingPartitioning",
    "OverlappingPartitioning",
    "LongestPrefixMatchPartitioning",
    # estimation
    "CompiledPartitioner",
    "CompiledEstimator",
    "CompiledGroupJoin",
    "assign_groups_to_buckets",
    "histogram_from_group_counts",
    "reconstruct_estimates",
    "evaluate_function",
    "net_group_populations",
    # construction
    "ConstructionResult",
    "build_nonoverlapping",
    "build_overlapping",
    "OverlappingDP",
    "build_lpm_greedy",
    # observability
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "span",
    "write_metrics",
]
