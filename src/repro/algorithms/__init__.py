"""Histogram construction algorithms (paper Section 3) and refinements
(Section 4)."""

from .arbitrary import ANode, ArbitraryHierarchy
from .base import INF, ConstructionResult, DPContext, knapsack_merge
from .construct import ALGORITHMS, available_algorithms, build
from .kernels import (
    KERNEL_MODES,
    kernel_mode,
    knapsack_merge_reference,
    set_kernel_mode,
    use_kernel_mode,
)
from .exhaustive import (
    candidate_buckets,
    exhaustive_lpm,
    exhaustive_nonoverlapping,
    exhaustive_overlapping,
)
from .lpm_greedy import bucket_approx_errors, build_lpm_greedy
from .lpm_kholes import build_lpm_kholes, split_to_k_holes
from .lpm_quantized import Quantizer, build_lpm_quantized
from .multidim import (
    GridGroups,
    MultiDimResult,
    build_lpm_greedy_nd,
    build_nonoverlapping_nd,
    build_overlapping_nd,
    evaluate_nd,
)
from .nonoverlapping import build_nonoverlapping
from .overlapping import OverlappingDP, build_overlapping

__all__ = [
    "INF",
    "ConstructionResult",
    "DPContext",
    "knapsack_merge",
    "knapsack_merge_reference",
    "KERNEL_MODES",
    "kernel_mode",
    "set_kernel_mode",
    "use_kernel_mode",
    "build",
    "ALGORITHMS",
    "available_algorithms",
    "build_nonoverlapping",
    "build_overlapping",
    "OverlappingDP",
    "build_lpm_greedy",
    "bucket_approx_errors",
    "build_lpm_kholes",
    "split_to_k_holes",
    "build_lpm_quantized",
    "Quantizer",
    "exhaustive_nonoverlapping",
    "exhaustive_overlapping",
    "exhaustive_lpm",
    "candidate_buckets",
    "GridGroups",
    "MultiDimResult",
    "build_nonoverlapping_nd",
    "build_lpm_greedy_nd",
    "build_overlapping_nd",
    "evaluate_nd",
    "ANode",
    "ArbitraryHierarchy",
]
