"""Distributive error metrics (paper Section 2.2.4).

The paper's algorithms minimize any error metric expressible as a
*distributive aggregate* ``<start, merge, finalize>`` over per-group
(actual, estimate) pairs, subject to two monotonicity properties that
make local optimality sound:

* ``finalize(B) > finalize(C)  ->  finalize(A + B) >= finalize(A + C)``
* ``finalize(B) == finalize(C) ->  finalize(A + B) == finalize(A + C)``

Two layers are provided:

:class:`DistributiveErrorMetric`
    The fully general interface, with explicit partial state records
    (PSRs).  Use it to define exotic metrics; the reference evaluator
    and the test-suite oracles run on it.

:class:`PenaltyMetric`
    The optimized family used by the dynamic programs.  Every metric
    the paper evaluates (RMS, average, average-relative and
    maximum-relative error) has a PSR of the form
    ``(aggregate penalty, group count)`` where the group count of a
    subtree is a structural constant.  Minimizing ``finalize`` then
    reduces to minimizing a scalar that combines across subtrees with
    ``+`` or ``max``, which the DPs exploit with vectorized
    ``(min, +)`` / ``(min, max)`` convolutions.

The four concrete metrics default to the configurations of the paper's
experimental study (Section 5); relative metrics take the sanity
constant ``b`` of Equations 8-9 as ``floor``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Tuple, Type

import numpy as np

__all__ = [
    "DistributiveErrorMetric",
    "PenaltyMetric",
    "RMSError",
    "AverageError",
    "AverageRelativeError",
    "MaximumRelativeError",
    "get_metric",
    "register_metric",
    "available_metrics",
]

PSR = Tuple[float, float]


class DistributiveErrorMetric(ABC):
    """A distributive aggregate ``<start, merge, finalize>`` over groups.

    PSRs are modelled as tuples of floats; ``start`` produces the PSR of
    a single group given its actual and estimated count, ``merge``
    combines the PSRs of disjoint group sets and ``finalize`` converts a
    PSR into the numeric error.
    """

    #: Short registry name (e.g. ``"rms"``); set by subclasses.
    name: str = ""

    @abstractmethod
    def start(self, actual: float, estimate: float) -> PSR:
        """PSR for a single group."""

    @abstractmethod
    def merge(self, a: PSR, b: PSR) -> PSR:
        """Merge the PSRs of two disjoint sets of groups."""

    @abstractmethod
    def finalize(self, psr: PSR) -> float:
        """Convert a PSR into a numeric error value."""

    # ------------------------------------------------------------------
    # Conveniences built on the primitive operations
    # ------------------------------------------------------------------
    def zero(self) -> PSR:
        """The PSR of the empty group set (identity of :meth:`merge`)."""
        return self.start(0.0, 0.0)

    def evaluate(
        self, actual: Sequence[float], estimate: Sequence[float]
    ) -> float:
        """Error of an approximate answer over a vector of groups."""
        actual = np.asarray(actual, dtype=np.float64)
        estimate = np.asarray(estimate, dtype=np.float64)
        if actual.shape != estimate.shape:
            raise ValueError(
                f"shape mismatch: actual {actual.shape} vs estimate {estimate.shape}"
            )
        if actual.size == 0:
            raise ValueError("cannot evaluate an error metric over zero groups")
        psr = self.start(float(actual[0]), float(estimate[0]))
        for a, e in zip(actual[1:], estimate[1:]):
            psr = self.merge(psr, self.start(float(a), float(e)))
        return self.finalize(psr)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class PenaltyMetric(DistributiveErrorMetric):
    """A distributive metric with PSR ``(aggregate penalty, group count)``.

    Subclasses define a per-group scalar ``penalty``, whether penalties
    combine with ``sum`` or ``max``, and how the combined penalty and
    the group count produce the final error.  Because the group count
    of any subtree is fixed by the lookup table (it does not depend on
    bucket choices), comparing solutions by ``finalize`` is equivalent
    to comparing aggregate penalties — this is the scalar fast path the
    dynamic programs run on.
    """

    #: ``"sum"`` or ``"max"`` — how per-group penalties combine.
    combine: str = "sum"

    @abstractmethod
    def penalty(self, actual: float, estimate: float) -> float:
        """Scalar penalty of estimating ``actual`` by ``estimate``."""

    @abstractmethod
    def penalty_array(
        self, actual: np.ndarray, estimate: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`penalty` over numpy arrays."""

    @abstractmethod
    def finalize_total(self, total: float, count: float) -> float:
        """Final error given the combined penalty and the group count."""

    def finalize_total_array(
        self, totals: np.ndarray, count: float
    ) -> np.ndarray:
        """Vectorized :meth:`finalize_total` over an array of combined
        penalties (one group count — finalizing one universe at many
        budgets, the shape of every DP's output curve).

        The default loops over :meth:`finalize_total`; the built-in
        metrics override it with closed-form array expressions that are
        bit-for-bit identical to the scalar path (IEEE-754 ``sqrt`` and
        division are correctly rounded in both :mod:`math` and numpy).
        """
        return np.asarray(
            [self.finalize_total(float(t), count) for t in totals],
            dtype=np.float64,
        )

    # -- generic API implemented on top of the scalar pieces -----------
    def start(self, actual: float, estimate: float) -> PSR:
        return (self.penalty(actual, estimate), 1.0)

    def merge(self, a: PSR, b: PSR) -> PSR:
        if self.combine == "sum":
            return (a[0] + b[0], a[1] + b[1])
        return (max(a[0], b[0]), a[1] + b[1])

    def finalize(self, psr: PSR) -> float:
        return self.finalize_total(psr[0], psr[1])

    def zero(self) -> PSR:
        return (0.0, 0.0)

    def evaluate(
        self, actual: Sequence[float], estimate: Sequence[float]
    ) -> float:
        actual = np.asarray(actual, dtype=np.float64)
        estimate = np.asarray(estimate, dtype=np.float64)
        if actual.shape != estimate.shape:
            raise ValueError(
                f"shape mismatch: actual {actual.shape} vs estimate {estimate.shape}"
            )
        if actual.size == 0:
            raise ValueError("cannot evaluate an error metric over zero groups")
        pens = self.penalty_array(actual, estimate)
        total = float(pens.sum()) if self.combine == "sum" else float(pens.max())
        return self.finalize_total(total, float(actual.size))

    # -- helpers used by the dynamic programs ---------------------------
    @property
    def neutral_penalty(self) -> float:
        """Identity element of the penalty combiner (0 for both modes,
        since penalties are nonnegative)."""
        return 0.0

    def combine_totals(self, a: float, b: float) -> float:
        """Combine two aggregate penalties of disjoint group sets."""
        return a + b if self.combine == "sum" else max(a, b)

    def combine_totals_array(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`combine_totals`."""
        return a + b if self.combine == "sum" else np.maximum(a, b)

    def repeated_penalty(self, penalty: float, times: float) -> float:
        """Aggregate penalty of ``times`` groups sharing one penalty.

        Used for the sparse-group optimization (paper Section 4.3):
        every zero-count group inside a bucket has the same penalty, so
        an entire empty region contributes in O(1).
        """
        if times <= 0:
            return self.neutral_penalty
        if self.combine == "sum":
            return penalty * times
        return penalty


class RMSError(PenaltyMetric):
    """Root-mean-squared error (Equation 7)."""

    name = "rms"
    combine = "sum"

    def penalty(self, actual: float, estimate: float) -> float:
        d = actual - estimate
        return d * d

    def penalty_array(self, actual, estimate):
        d = actual - estimate
        return d * d

    def finalize_total(self, total: float, count: float) -> float:
        if count <= 0:
            return 0.0
        return math.sqrt(total / count)

    def finalize_total_array(self, totals, count):
        if count <= 0:
            return np.zeros_like(np.asarray(totals, dtype=np.float64))
        return np.sqrt(np.asarray(totals, dtype=np.float64) / count)


class AverageError(PenaltyMetric):
    """Mean absolute error (Equation 3)."""

    name = "average"
    combine = "sum"

    def penalty(self, actual: float, estimate: float) -> float:
        return abs(actual - estimate)

    def penalty_array(self, actual, estimate):
        return np.abs(actual - estimate)

    def finalize_total(self, total: float, count: float) -> float:
        if count <= 0:
            return 0.0
        return total / count

    def finalize_total_array(self, totals, count):
        if count <= 0:
            return np.zeros_like(np.asarray(totals, dtype=np.float64))
        return np.asarray(totals, dtype=np.float64) / count


class _RelativeMixin:
    """Shared relative-error penalty with the division floor ``b``."""

    def __init__(self, floor: float = 1.0) -> None:
        if floor <= 0:
            raise ValueError(f"relative-error floor must be positive, got {floor}")
        self.floor = float(floor)

    def penalty(self, actual: float, estimate: float) -> float:
        return abs(actual - estimate) / max(actual, self.floor)

    def penalty_array(self, actual, estimate):
        return np.abs(actual - estimate) / np.maximum(actual, self.floor)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(floor={self.floor})"


class AverageRelativeError(_RelativeMixin, PenaltyMetric):
    """Mean relative error with sanity floor ``b`` (Equation 8)."""

    name = "avg_relative"
    combine = "sum"

    def finalize_total(self, total: float, count: float) -> float:
        if count <= 0:
            return 0.0
        return total / count

    def finalize_total_array(self, totals, count):
        if count <= 0:
            return np.zeros_like(np.asarray(totals, dtype=np.float64))
        return np.asarray(totals, dtype=np.float64) / count


class MaximumRelativeError(_RelativeMixin, PenaltyMetric):
    """Maximum relative error with sanity floor ``b`` (Equation 9)."""

    name = "max_relative"
    combine = "max"

    def finalize_total(self, total: float, count: float) -> float:
        return total

    def finalize_total_array(self, totals, count):
        return np.array(totals, dtype=np.float64, copy=True)


_REGISTRY: Dict[str, Type[DistributiveErrorMetric]] = {}


def register_metric(cls: Type[DistributiveErrorMetric]) -> Type[DistributiveErrorMetric]:
    """Register a metric class under its ``name`` for :func:`get_metric`."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no registry name")
    _REGISTRY[cls.name] = cls
    return cls


for _cls in (RMSError, AverageError, AverageRelativeError, MaximumRelativeError):
    register_metric(_cls)


def get_metric(name: str, **kwargs) -> DistributiveErrorMetric:
    """Instantiate a registered metric by name.

    >>> get_metric("rms")
    RMSError()
    >>> get_metric("avg_relative", floor=5.0)
    AverageRelativeError(floor=5.0)
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown error metric {name!r}; known metrics: {known}")
    return cls(**kwargs)


def available_metrics() -> Iterable[str]:
    """Names of all registered metrics."""
    return sorted(_REGISTRY)
