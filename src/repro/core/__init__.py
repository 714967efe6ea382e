"""Core substrates: domain arithmetic, lookup tables, error metrics,
pruned hierarchies, partitioning functions and reconstruction."""

from .domain import ROOT, UIDDomain
from .errors import (
    AverageError,
    AverageRelativeError,
    DistributiveErrorMetric,
    MaximumRelativeError,
    PenaltyMetric,
    RMSError,
    available_metrics,
    get_metric,
    register_metric,
)
from .estimate import (
    assign_groups_to_buckets,
    evaluate_function,
    histogram_from_group_counts,
    net_group_populations,
    reconstruct_estimates,
)
from .compiled import CompiledEstimator, CompiledGroupJoin, CompiledPartitioner
from .groups import GroupTable
from .hierarchy import PrunedHierarchy
from .serialize import (
    decode_function,
    encode_function,
    function_from_json,
    function_to_json,
)
from .wire import (
    WireHistogram,
    decode_histogram_v2,
    encode_histogram_v2,
    encode_histograms_v2,
    merge_views,
    merge_wire,
)
from .partition import (
    Bucket,
    Histogram,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    PartitioningFunction,
)

__all__ = [
    "ROOT",
    "UIDDomain",
    "GroupTable",
    "PrunedHierarchy",
    "DistributiveErrorMetric",
    "PenaltyMetric",
    "RMSError",
    "AverageError",
    "AverageRelativeError",
    "MaximumRelativeError",
    "get_metric",
    "register_metric",
    "available_metrics",
    "Bucket",
    "Histogram",
    "PartitioningFunction",
    "NonoverlappingPartitioning",
    "OverlappingPartitioning",
    "LongestPrefixMatchPartitioning",
    "CompiledPartitioner",
    "CompiledEstimator",
    "CompiledGroupJoin",
    "assign_groups_to_buckets",
    "histogram_from_group_counts",
    "reconstruct_estimates",
    "evaluate_function",
    "net_group_populations",
    "encode_function",
    "decode_function",
    "function_to_json",
    "function_from_json",
    "WireHistogram",
    "encode_histogram_v2",
    "encode_histograms_v2",
    "decode_histogram_v2",
    "merge_views",
    "merge_wire",
]
