"""The payload is the message: property tests for the bytes-only path.

A :class:`~repro.streams.monitor.HistogramMessage` carries only its v2
payload, so two kernels stand where object work used to be, and both
must stay bit-identical to the reference paths:

* the count(*) build — one unweighted integer ``bincount`` per window
  (:class:`~repro.core.compiled.CompiledPartitioner` with
  ``values=None``) — against the float ones-weights build and the
  naive ``PartitioningFunction.build_histogram``, for every semantics
  class, single and batched, on empty windows, out-of-domain
  identifiers and domains above the dense segment-table cap;
* the Control Center's slot-space merge
  (:meth:`~repro.core.compiled.CompiledEstimator.slot_sums` plus
  ``estimate_slots``) against ``merge_views`` + ``Histogram.from_arrays``
  + ``CompiledEstimator.estimate``, over crafted payloads: zero
  counters, float64 counters, a node outside the function (which must
  take the ``merge_views`` fallback), a single payload, and duplicate
  and stale copies.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Bucket,
    CompiledEstimator,
    CompiledPartitioner,
    GroupTable,
    Histogram,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    UIDDomain,
    get_metric,
)
from repro.core.wire import WireHistogram, encode_histogram_v2, merge_views
from repro.streams import ControlCenter, HistogramMessage
from repro.streams.kernels import use_stream_kernel_mode


def _assert_identical(a, b):
    """Bitwise equality of two histograms, field by field."""
    assert a.nodes.tobytes() == b.nodes.tobytes()
    assert a.values.dtype == b.values.dtype == np.float64
    assert a.values.tobytes() == b.values.tobytes()
    assert a.unmatched == b.unmatched
    assert a.total == b.total


# -- count(*) build ---------------------------------------------------------

def _functions(rng, domain):
    """One random function per semantics class over ``domain``."""
    h = domain.height
    depth = int(rng.integers(1, min(h, 6) + 1))
    prefixes = rng.choice(
        1 << depth, size=int(rng.integers(1, min(6, 1 << depth) + 1)),
        replace=False,
    )
    yield NonoverlappingPartitioning(
        domain, [Bucket(domain.node(depth, int(p))) for p in prefixes]
    )
    for cls in (OverlappingPartitioning, LongestPrefixMatchPartitioning):
        nodes = {1}
        while len(nodes) < int(rng.integers(2, 8)):
            d = int(rng.integers(0, h + 1))
            nodes.add(int(domain.node(d, int(rng.integers(0, 1 << d)))))
        yield cls(domain, [Bucket(n) for n in sorted(nodes)])


def _window(rng, domain, max_len=200):
    """In-domain identifiers mixed with negative and too-large ones;
    empty about one time in five."""
    n = int(rng.integers(0, max_len)) if rng.random() > 0.2 else 0
    uids = rng.integers(0, domain.num_uids, size=n)
    if n:
        out = rng.random(n) < 0.1
        uids[out] = rng.choice(
            [-1, -(2**40), domain.num_uids, domain.num_uids + 7, 2**50],
            size=int(out.sum()),
        )
    return uids.astype(np.int64)


class TestCountBuild:
    # h=7 takes the dense uid -> owner table; h=22 is above the 2^20
    # dense cap and takes the binary search.
    @pytest.mark.parametrize("height", [7, 22])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_equals_ones_weights_and_naive(self, height, seed):
        rng = np.random.default_rng(seed)
        domain = UIDDomain(height)
        n_windows = int(rng.integers(1, 5))
        windows = [_window(rng, domain) for _ in range(n_windows)]
        ones = [np.ones(w.size) for w in windows]
        for fn in _functions(rng, domain):
            compiled = CompiledPartitioner.for_function(fn)
            batched = compiled.build_histograms(windows)
            weighted = compiled.build_histograms(windows, ones)
            assert len(batched) == len(weighted) == len(windows)
            for uids, w, got, got_w in zip(windows, ones, batched, weighted):
                naive = fn.build_histogram(uids)
                single = compiled.build_histogram(uids)
                _assert_identical(single, naive)
                _assert_identical(single, compiled.build_histogram(uids, w))
                _assert_identical(got, naive)
                _assert_identical(got_w, naive)

    def test_empty_windows(self):
        domain = UIDDomain(5)
        empty = np.empty(0, dtype=np.int64)
        for fn in _functions(np.random.default_rng(0), domain):
            compiled = CompiledPartitioner.for_function(fn)
            for h in [compiled.build_histogram(empty)] + (
                compiled.build_histograms([empty, empty])
            ):
                _assert_identical(h, fn.build_histogram(empty))
                assert len(h) == 0 and h.total == 0.0

    def test_out_of_domain_only_is_unmatched(self):
        domain = UIDDomain(22)
        uids = np.asarray([-5, domain.num_uids, 2**40], dtype=np.int64)
        for fn in _functions(np.random.default_rng(1), domain):
            h = CompiledPartitioner.for_function(fn).build_histogram(uids)
            assert len(h) == 0
            assert (h.unmatched, h.total) == (3.0, 3.0)


# -- slot-space decode ------------------------------------------------------

DOM = UIDDomain(6)
TABLE = GroupTable(DOM, [DOM.node(3, p) for p in range(8)])
ALGORITHMS = ("nonoverlapping", "overlapping", "lpm_greedy")


def _control_center(rng, algorithm):
    cc = ControlCenter(
        TABLE, get_metric("rms"), algorithm=algorithm,
        budget=int(rng.integers(2, 7)), stale_policy="quarantine",
    )
    cc.rebuild_function(rng.integers(0, 20, size=len(TABLE)).astype(float))
    return cc


def _raw_histogram(nodes, values, unmatched=0.0):
    """A histogram that keeps zero counters (``Histogram`` itself drops
    them), so the encoder puts them on the wire."""
    h = Histogram.__new__(Histogram)
    h.nodes = np.asarray(nodes, dtype=np.int64)
    h.values = np.asarray(values, dtype=np.float64)
    h.unmatched = float(unmatched)
    h.total = float(h.values.sum()) + h.unmatched
    h._dict = None
    return h


def _payload(rng, function, foreign=False):
    """A crafted payload over a random subset of ``function``'s slots:
    integer counters of random width or float64 ones, with zeros, and
    optionally one node that is not a slot."""
    slots = np.asarray(function.match_nodes, dtype=np.int64)
    nodes = rng.choice(slots, size=int(rng.integers(0, slots.size + 1)),
                       replace=False)
    if foreign:
        outside = np.setdiff1d(np.arange(1, 1 << (DOM.height + 1)), slots)
        nodes = np.append(nodes, rng.choice(outside))
    nodes = np.sort(nodes)
    if rng.random() < 0.5:
        values = rng.integers(0, 1 << int(rng.choice([4, 12, 30, 40])),
                              size=nodes.size).astype(float)
    else:
        values = rng.normal(size=nodes.size) * 100.0
    values[rng.random(nodes.size) < 0.25] = 0.0
    unmatched = float(rng.integers(0, 5)) if rng.random() < 0.5 else 0.0
    return encode_histogram_v2(
        _raw_histogram(nodes, values, unmatched), DOM,
        semantics=function.semantics,
    )


def _reference(cc, payloads):
    """``merge_views`` + ``from_arrays`` + the compiled estimate."""
    views = [WireHistogram(p) for p in payloads]
    nodes, sums, unmatched, total = merge_views(views)
    merged = Histogram.from_arrays(nodes, sums, unmatched, total)
    estimator = CompiledEstimator.for_pair(cc.table, cc.function)
    return merged, estimator.estimate(merged), sum(len(v) for v in views)


def _messages(cc, payloads, version=None):
    version = cc.function_version if version is None else version
    return [
        HistogramMessage(f"m{i}", 0, version, p)
        for i, p in enumerate(payloads)
    ]


def _check(cc, payloads):
    merged_ref, est_ref, nonzero_ref = _reference(cc, payloads)
    with use_stream_kernel_mode("fast"):
        merged, sums, est, nonzero = cc._merge_and_estimate(
            _messages(cc, payloads)
        )
    _assert_identical(merged, merged_ref)
    estimator = CompiledEstimator.for_pair(cc.table, cc.function)
    assert sums.tobytes() == estimator.slot_counts(merged_ref).tobytes()
    assert est.tobytes() == est_ref.tobytes()
    assert nonzero == nonzero_ref
    return merged


class TestSlotSpaceDecode:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_equals_merge_views(self, algorithm, seed):
        rng = np.random.default_rng(seed)
        cc = _control_center(rng, algorithm)
        foreign = int(rng.integers(-3, 3))
        payloads = [
            _payload(rng, cc.function, foreign=(i == foreign))
            for i in range(int(rng.integers(1, 6)))
        ]
        _check(cc, payloads)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_payload(self, algorithm):
        rng = np.random.default_rng(3)
        cc = _control_center(rng, algorithm)
        _check(cc, [_payload(rng, cc.function)])

    def test_foreign_node_takes_the_merge_views_fallback(self):
        rng = np.random.default_rng(4)
        cc = _control_center(rng, "lpm_greedy")
        payloads = [_payload(rng, cc.function, foreign=True),
                    _payload(rng, cc.function)]
        estimator = CompiledEstimator.for_pair(cc.table, cc.function)
        views = [WireHistogram(p) for p in payloads]
        assert estimator.slot_sums(views) is None
        assert estimator.slot_sums(views[1:]) is not None
        merged = _check(cc, payloads)
        # The fallback keeps the foreign node in the merged histogram.
        assert not np.isin(merged.nodes, estimator.slot_nodes).all()

    def test_zero_counters_leave_the_merged_histogram(self):
        rng = np.random.default_rng(5)
        cc = _control_center(rng, "nonoverlapping")
        slots = cc.function.match_nodes
        payload = encode_histogram_v2(
            _raw_histogram(slots, [0.0] * len(slots)), DOM,
            semantics=cc.function.semantics,
        )
        merged = _check(cc, [payload, payload])
        assert len(merged) == 0

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_duplicates_and_stale_copies(self, algorithm):
        """Duplicates are dropped and stale copies quarantined before
        the merge: the decode equals the reference over the unique
        current-version payloads."""
        rng = np.random.default_rng(6)
        cc = _control_center(rng, algorithm)
        old = _messages(cc, [_payload(rng, cc.function)])
        cc.rebuild_function(
            rng.integers(0, 20, size=len(TABLE)).astype(float)
        )
        current = [_payload(rng, cc.function) for _ in range(3)]
        messages = _messages(cc, current)
        arrivals = old + messages + messages[:2]
        with use_stream_kernel_mode("fast"):
            decoded = cc.decode_window(arrivals)
        merged_ref, est_ref, nonzero_ref = _reference(cc, current)
        _assert_identical(decoded.merged, merged_ref)
        assert decoded.estimates.tobytes() == est_ref.tobytes()
        assert decoded.nonzero_buckets == nonzero_ref
        assert (decoded.duplicates_dropped, decoded.stale_messages) == (2, 1)
        with use_stream_kernel_mode("naive"):
            naive = cc.decode_window(arrivals)
        _assert_identical(naive.merged, merged_ref)
        assert np.array_equal(naive.estimates, est_ref)
