"""The histogram wire format: property tests, query-from-wire
equivalence, an adversarial truncation/bit-flip fuzz battery, and
golden fixtures.

The contract under test, in order of appearance:

* encode -> decode is the identity for histograms (unsigned and
  float64 counters) and, via the function codec, for functions across
  all three semantics;
* the scalar and batched encoders reject the same malformed input;
* querying the raw v2 bytes (point counts, subtree totals, compiled
  per-group estimates, wire-level merges) is **bit-identical** to
  decoding first and querying the objects — zero tolerance, both
  stream-kernel modes;
* every corrupted or truncated variant of a valid payload raises
  ``ValueError`` — never hangs, never asserts, never returns garbage;
* the byte layout itself is pinned by golden fixtures in
  ``tests/data/`` so a format change is an intentional fixture update.
"""

import pathlib
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Bucket,
    Histogram,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    PrunedHierarchy,
    UIDDomain,
    get_metric,
)
from repro.algorithms.construct import build
from repro.core.compiled import CompiledEstimator
from repro.core.estimate import reconstruct_estimates
from repro.core.serialize import decode_function, encode_function
from repro.core import wire as wire_module
from repro.core.wire import (
    WireHistogram,
    decode_histogram_v2,
    encode_histogram_v2,
    encode_histograms_v2,
    merge_wire,
)
from repro.streams import use_stream_kernel_mode

from helpers import random_instance

DATA_DIR = pathlib.Path(__file__).parent / "data"

SEMANTICS = ["nonoverlapping", "overlapping", "longest_prefix_match"]


# -- strategies -----------------------------------------------------------

def histograms(max_height=10, float_values=False):
    """Histograms over a random domain: sorted unique node ids with
    positive counts, plus optional unmatched/total accounting."""

    @st.composite
    def strat(draw):
        height = draw(st.integers(min_value=0, max_value=max_height))
        dom = UIDDomain(height)
        node_limit = (1 << (height + 1)) - 1
        nodes = draw(
            st.lists(
                st.integers(min_value=1, max_value=node_limit),
                max_size=24, unique=True,
            )
        )
        nodes = sorted(nodes)
        if float_values:
            values = draw(
                st.lists(
                    st.floats(
                        min_value=1e-6, max_value=1e12,
                        allow_nan=False, allow_infinity=False,
                    ),
                    min_size=len(nodes), max_size=len(nodes),
                )
            )
        else:
            values = draw(
                st.lists(
                    st.integers(min_value=1, max_value=2**40),
                    min_size=len(nodes), max_size=len(nodes),
                )
            )
        unmatched = float(draw(st.integers(min_value=0, max_value=100)))
        hist = Histogram.from_arrays(
            np.asarray(nodes, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            unmatched=unmatched,
            total=float(np.sum(np.asarray(values, dtype=np.float64)))
            + unmatched,
        )
        return dom, hist

    return strat()


# -- round-trip identity --------------------------------------------------

class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(histograms(), st.sampled_from(SEMANTICS))
    def test_integer_roundtrip_identity(self, case, semantics):
        dom, hist = case
        data = encode_histogram_v2(hist, dom, semantics=semantics)
        out = decode_histogram_v2(data)
        assert np.array_equal(out.nodes, hist.nodes)
        assert np.array_equal(out.values, hist.values)
        assert out.unmatched == hist.unmatched
        assert out.total == hist.total
        view = WireHistogram(data)
        assert view.semantics == semantics
        assert view.height == dom.height

    def test_totals_omitted_when_np_sum_matches(self):
        """Past 2**53 an integral counter sum depends on the summation
        order: totals are omitted exactly when ``np.sum`` reproduces
        them, whatever a sequential sum would give."""
        values = np.random.default_rng(1).integers(1, 1 << 62, 50)
        values = values.astype(np.float64)
        assert float(np.sum(values)) != float(sum(values.tolist()))
        hist = Histogram.from_arrays(
            np.arange(1, 51), values, total=float(np.sum(values))
        )
        data = encode_histogram_v2(hist, UIDDomain(8))
        assert not data[3] & 0b1000  # HAS_TOTALS clear
        assert WireHistogram(data).total == hist.total

    @settings(max_examples=80, deadline=None)
    @given(histograms(float_values=True))
    def test_float64_roundtrip_identity(self, case):
        dom, hist = case
        data = encode_histogram_v2(hist, dom)
        view = WireHistogram(data)
        if len(hist) and not np.all(hist.values == np.floor(hist.values)):
            assert view.float_counters
        out = view.to_histogram()
        assert np.array_equal(out.nodes, hist.nodes)
        assert np.array_equal(out.values, hist.values)
        assert out.unmatched == hist.unmatched
        assert out.total == hist.total

    def test_zero_buckets(self):
        dom = UIDDomain(6)
        hist = Histogram({})
        view = WireHistogram(encode_histogram_v2(hist, dom))
        assert len(view) == 0
        assert view.total == 0.0
        assert view.count(1) == 0.0

    def test_one_bucket(self):
        dom = UIDDomain(6)
        hist = Histogram({dom.node(6, 63): 7.0}, total=7.0)
        view = WireHistogram(encode_histogram_v2(hist, dom))
        assert view.count(dom.node(6, 63)) == 7.0
        assert view.to_histogram().counts == hist.counts

    def test_height_zero_domain(self):
        dom = UIDDomain(0)
        hist = Histogram({1: 3.0}, total=3.0)
        out = decode_histogram_v2(encode_histogram_v2(hist, dom))
        assert out.counts == {1: 3.0}

    def test_auto_picks_narrow_counters(self):
        dom = UIDDomain(8)
        small = encode_histogram_v2(Histogram({1: 3.0}, total=3.0), dom)
        wide = encode_histogram_v2(
            Histogram({1: float(2**33)}, total=float(2**33)), dom
        )
        assert WireHistogram(small).stride == 1
        assert WireHistogram(wide).stride == 8
        assert len(small) < len(wide)

    @pytest.mark.parametrize("encoder", ["scalar", "batch_alone", "batch_mixed"])
    @pytest.mark.parametrize(
        "semantics, height, nodes, values",
        [
            ("x", 4, [1], [1.0]),
            ("nonoverlapping", 64, [1], [1.0]),
            ("nonoverlapping", 4, [0, 3], [1.0, 1.0]),
            ("nonoverlapping", 4, [3, 32], [1.0, 1.0]),
            ("nonoverlapping", 4, [3, 5], [1.0, float("nan")]),
            ("nonoverlapping", 4, [3, 5], [2.5, float("inf")]),
            ("nonoverlapping", 4, [3, 5], [float("-inf"), 1.0]),
        ],
        ids=[
            "unknown_semantics", "height_64", "node_0", "node_past_height",
            "nan", "inf", "minus_inf",
        ],
    )
    def test_both_encoders_reject(self, semantics, height, nodes, values,
                                  encoder):
        """The scalar encoder and the batched one, on the bad
        histogram alone or among valid ones, raise ``ValueError``."""
        dom = UIDDomain(height)
        bad = Histogram.from_arrays(
            np.asarray(nodes, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )
        good = Histogram({1: 3.0, 2: 1.5}, total=4.5)
        with pytest.raises(ValueError):
            if encoder == "scalar":
                encode_histogram_v2(bad, dom, semantics=semantics)
            elif encoder == "batch_alone":
                encode_histograms_v2([bad], dom, semantics=semantics)
            else:
                encode_histograms_v2(
                    [good, Histogram({}), bad, good], dom,
                    semantics=semantics,
                )

    @pytest.mark.parametrize(
        "cls",
        [
            NonoverlappingPartitioning,
            OverlappingPartitioning,
            LongestPrefixMatchPartitioning,
        ],
    )
    def test_function_roundtrip_all_semantics(self, cls):
        dom = UIDDomain(6)
        if cls is NonoverlappingPartitioning:
            buckets = [Bucket(dom.node(1, 0)), Bucket(dom.node(1, 1))]
        else:
            buckets = [
                Bucket(1),
                Bucket(dom.node(2, 3)),
                Bucket(
                    dom.node(2, 1),
                    sparse_group_node=dom.node(5, 0b01011),
                ),
            ]
        fn = cls(dom, buckets)
        out = decode_function(encode_function(fn))
        assert type(out) is cls
        assert [b.node for b in out.buckets] == [b.node for b in fn.buckets]
        assert [b.sparse_group_node for b in out.buckets] == [
            b.sparse_group_node for b in fn.buckets
        ]


# -- querying the bytes ---------------------------------------------------

class TestQueryFromWire:
    @settings(max_examples=60, deadline=None)
    @given(histograms())
    def test_point_counts_match_decoded(self, case):
        dom, hist = case
        view = WireHistogram(encode_histogram_v2(hist, dom))
        decoded = view.to_histogram()
        probes = list(hist.nodes.tolist()) + [
            1, (1 << (dom.height + 1)) - 1
        ]
        for node in probes:
            assert view.count(node) == decoded.get(node)

    @settings(max_examples=60, deadline=None)
    @given(histograms(max_height=6))
    def test_subtree_totals_match_naive_sum(self, case):
        dom, hist = case
        view = WireHistogram(encode_histogram_v2(hist, dom))
        limit = 1 << (dom.height + 1)
        probes = [n for n in [1, 2, 3] if n < limit]
        for anchor in probes + hist.nodes.tolist()[:4]:
            expected = 0.0
            for node, value in zip(
                hist.nodes.tolist(), hist.values.tolist()
            ):
                if UIDDomain.is_ancestor(anchor, node) or node == anchor:
                    expected += value
            assert view.subtree_total(anchor) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(histograms(max_height=5), min_size=1, max_size=4))
    def test_wire_merge_bit_identical_to_object_merge(self, cases):
        height = max(dom.height for dom, _ in cases)
        dom = UIDDomain(height)
        hists = [h for _, h in cases]
        payloads = [encode_histogram_v2(h, dom) for h in hists]
        merged_wire = WireHistogram(merge_wire(payloads)).to_histogram()
        merged_obj = Histogram.merge(hists)
        assert np.array_equal(merged_wire.nodes, merged_obj.nodes)
        assert np.array_equal(merged_wire.values, merged_obj.values)
        assert merged_wire.unmatched == merged_obj.unmatched
        assert merged_wire.total == merged_obj.total

    def test_pairwise_merge_api(self):
        """``merge_wire`` takes parsed views as well as raw payloads."""
        dom = UIDDomain(5)
        a = Histogram({1: 2.0, 9: 5.0}, total=7.0)
        b = Histogram({9: 1.0, 40: 3.0}, total=4.0)
        va = WireHistogram(encode_histogram_v2(a, dom))
        vb = encode_histogram_v2(b, dom)
        merged = WireHistogram(merge_wire([va, vb]))
        assert merged.count(9) == 6.0
        assert merged.count(40) == 3.0
        assert merged.total == 11.0

    def test_merge_rejects_mismatched_payloads(self):
        a = encode_histogram_v2(Histogram({1: 1.0}), UIDDomain(4))
        b = encode_histogram_v2(Histogram({1: 1.0}), UIDDomain(5))
        c = encode_histogram_v2(
            Histogram({1: 1.0}), UIDDomain(4), semantics="overlapping"
        )
        with pytest.raises(ValueError):
            merge_wire([a, b])
        with pytest.raises(ValueError):
            merge_wire([a, c])
        with pytest.raises(ValueError):
            merge_wire([])

    @pytest.mark.parametrize("mode", ["fast", "naive"])
    @pytest.mark.parametrize("seed", range(4))
    def test_estimates_from_wire_bit_identical(self, mode, seed):
        """Compiled gathers over the raw buffer == naive reference over
        the decoded object, zero tolerance, every algorithm output."""
        dom, table, counts = random_instance(seed, height_range=(3, 6))
        hierarchy = PrunedHierarchy(table, counts)
        fn = build(
            "lpm_greedy", hierarchy, get_metric("rms"), 6
        ).function_at(6)
        rng = np.random.default_rng(seed + 100)
        uids = rng.integers(0, dom.num_uids, 5000)
        hist = fn.build_histogram(uids)
        view = WireHistogram(
            encode_histogram_v2(hist, dom, semantics=fn.semantics)
        )
        reference = reconstruct_estimates(
            table, fn, view.to_histogram()
        )
        with use_stream_kernel_mode(mode):
            from_wire = CompiledEstimator.for_pair(table, fn).estimate(view)
        assert np.array_equal(from_wire, reference)


# -- adversarial inputs ---------------------------------------------------

def _sample_payloads():
    dom = UIDDomain(8)
    return [
        encode_histogram_v2(Histogram({}), dom),
        encode_histogram_v2(Histogram({1: 3.0}, total=3.0), dom),
        encode_histogram_v2(
            Histogram(
                {3: 1.0, 17: 260.0, 300: 70000.0},
                unmatched=2.0,
                total=70263.0,
            ),
            dom,
            semantics="longest_prefix_match",
        ),
        encode_histogram_v2(
            Histogram({5: 1.25, 80: 2.5}, total=3.75), dom
        ),
        # Many buckets: multi-byte node deltas and 2-byte counters.
        pytest.param(
            encode_histogram_v2(_long_histogram(), UIDDomain(16)),
            id="many_buckets",
        ),
    ]


def _long_histogram(n=168, seed=8):
    """A histogram with 1- to 3-byte node deltas and 2-byte counters."""
    rng = np.random.default_rng(seed)
    nodes = np.sort(
        rng.choice(np.arange(1, 1 << 17), size=n, replace=False)
    )
    counts = rng.integers(1, 3000, n).astype(np.float64)
    return Histogram.from_arrays(nodes, counts, total=float(np.sum(counts)))


class TestFuzz:
    @pytest.mark.parametrize("payload", _sample_payloads())
    def test_every_truncation_rejected(self, payload):
        for cut in range(len(payload)):
            with pytest.raises(ValueError):
                WireHistogram(payload[:cut])

    @pytest.mark.parametrize("payload", _sample_payloads())
    def test_every_single_bit_flip_rejected(self, payload):
        for i in range(len(payload)):
            for bit in range(8):
                corrupted = bytearray(payload)
                corrupted[i] ^= 1 << bit
                with pytest.raises(ValueError):
                    WireHistogram(bytes(corrupted))

    @pytest.mark.parametrize("payload", _sample_payloads())
    def test_trailing_garbage_rejected(self, payload):
        with pytest.raises(ValueError):
            WireHistogram(payload + b"\x00")

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64))
    def test_random_bytes_never_crash(self, blob):
        """Arbitrary input either parses (it would need a valid CRC) or
        raises ValueError — nothing else escapes."""
        try:
            WireHistogram(blob)
        except ValueError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(
        histograms(max_height=6),
        st.data(),
    )
    def test_property_corruption_rejected(self, case, data):
        dom, hist = case
        payload = encode_histogram_v2(hist, dom)
        i = data.draw(
            st.integers(min_value=0, max_value=len(payload) - 1)
        )
        bit = data.draw(st.integers(min_value=0, max_value=7))
        corrupted = bytearray(payload)
        corrupted[i] ^= 1 << bit
        with pytest.raises(ValueError):
            WireHistogram(bytes(corrupted))


# -- golden fixtures ------------------------------------------------------

def _golden_cases():
    dom = UIDDomain(8)
    return {
        "v2_empty.bin": (
            encode_histogram_v2(Histogram({}), dom),
            Histogram({}),
        ),
        "v2_small_u8.bin": (
            encode_histogram_v2(
                Histogram({1: 9.0, 17: 250.0}, total=259.0), dom
            ),
            Histogram({1: 9.0, 17: 250.0}, total=259.0),
        ),
        "v2_lpm_totals_u32.bin": (
            encode_histogram_v2(
                Histogram(
                    {3: 1.0, 17: 260.0, 300: 70000.0},
                    unmatched=2.0,
                    total=70263.0,
                ),
                dom,
                semantics="longest_prefix_match",
            ),
            Histogram(
                {3: 1.0, 17: 260.0, 300: 70000.0},
                unmatched=2.0,
                total=70263.0,
            ),
        ),
        "v2_float64.bin": (
            encode_histogram_v2(
                Histogram({5: 1.25, 80: 2.5}, total=3.75), dom
            ),
            Histogram({5: 1.25, 80: 2.5}, total=3.75),
        ),
    }


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", sorted(_golden_cases()))
    def test_fixture_bytes_pinned(self, name):
        """Re-encoding the fixture's histogram must reproduce the
        checked-in bytes exactly; decoding them must reproduce the
        histogram.  A mismatch means the wire layout changed — update
        the fixture only if that was intentional."""
        encoded, hist = _golden_cases()[name]
        fixture = (DATA_DIR / name).read_bytes()
        assert encoded == fixture, (
            f"{name}: encoder output no longer matches the checked-in "
            f"wire bytes"
        )
        out = decode_histogram_v2(fixture)
        assert out.counts == hist.counts
        assert out.unmatched == hist.unmatched
        assert out.total == hist.total


# -- k-way shard merge properties -----------------------------------------

def histogram_fleets(max_height=8, max_shards=5):
    """(domain, [histograms...]) over ONE shared domain — the shape of
    a shard fleet reporting one window.  Shards may be empty (a quiet
    monitor), counters mix integral and float64 modes, and every value
    is a multiple of 1/16 well inside float64's exact range, so
    addition is associative and the merge contract below is exact
    byte-identity, not approximate equality.
    """

    @st.composite
    def strat(draw):
        height = draw(st.integers(min_value=0, max_value=max_height))
        dom = UIDDomain(height)
        node_limit = (1 << (height + 1)) - 1
        n_shards = draw(st.integers(min_value=2, max_value=max_shards))
        fleet = []
        for _ in range(n_shards):
            nodes = sorted(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=node_limit),
                        max_size=12, unique=True,
                    )
                )
            )
            sixteenths = draw(
                st.lists(
                    st.integers(min_value=1, max_value=2**40),
                    min_size=len(nodes), max_size=len(nodes),
                )
            )
            if draw(st.booleans()):
                values = [v / 16.0 for v in sixteenths]  # float64 mode
            else:
                values = [float(v) for v in sixteenths]  # integral mode
            unmatched = float(draw(st.integers(min_value=0, max_value=50)))
            values_arr = np.asarray(values, dtype=np.float64)
            fleet.append(
                Histogram.from_arrays(
                    np.asarray(nodes, dtype=np.int64),
                    values_arr,
                    unmatched=unmatched,
                    total=float(np.sum(values_arr)) + unmatched,
                )
            )
        return dom, fleet

    return strat()


class TestShardMergeProperties:
    """The serving fan-in merges shard payloads in whatever order and
    grouping the workers deliver them; these properties pin that the
    merged payload bytes cannot depend on either."""

    @settings(max_examples=80, deadline=None)
    @given(histogram_fleets(), st.sampled_from(SEMANTICS), st.data())
    def test_shard_order_permutation_is_byte_identical(
        self, case, semantics, data
    ):
        dom, fleet = case
        payloads = [
            encode_histogram_v2(h, dom, semantics=semantics) for h in fleet
        ]
        merged = merge_wire(payloads)
        shuffled = data.draw(st.permutations(payloads))
        assert merge_wire(shuffled) == merged

    @settings(max_examples=80, deadline=None)
    @given(histogram_fleets(), st.sampled_from(SEMANTICS), st.data())
    def test_associative_grouping_is_byte_identical(
        self, case, semantics, data
    ):
        """Left-fold, flat k-way, and split-in-two tree merges must
        all produce the same payload bytes."""
        dom, fleet = case
        payloads = [
            encode_histogram_v2(h, dom, semantics=semantics) for h in fleet
        ]
        flat = merge_wire(payloads)
        cut = data.draw(
            st.integers(min_value=1, max_value=len(payloads) - 1)
        )
        tree = merge_wire(
            [merge_wire(payloads[:cut]), merge_wire(payloads[cut:])]
        )
        assert tree == flat
        fold = payloads[0]
        for payload in payloads[1:]:
            fold = merge_wire([fold, payload])
        assert fold == flat

    @settings(max_examples=40, deadline=None)
    @given(histogram_fleets(max_shards=3), st.sampled_from(SEMANTICS))
    def test_empty_shards_are_merge_neutral(self, case, semantics):
        dom, fleet = case
        empty = encode_histogram_v2(Histogram({}), dom, semantics=semantics)
        payloads = [
            encode_histogram_v2(h, dom, semantics=semantics) for h in fleet
        ]
        with_empties = [empty] + payloads + [empty]
        assert merge_wire(with_empties) == merge_wire(payloads)


# -- batched monitor-side encode ------------------------------------------

def histogram_batches(max_height=62, max_batch=8):
    """(domain, [histograms...]) over one domain for the batched
    encoder: arbitrary finite positive counters (not just exact ones —
    batched vs scalar is the same arithmetic, so identity must hold
    for any encodable input), empty histograms, and non-derivable
    explicit totals mixed in.  Heights up to 62 keep node ids below
    ``2**63`` and reach every node-delta varint length from 1 to 9
    bytes."""

    @st.composite
    def strat(draw):
        height = draw(st.integers(min_value=0, max_value=max_height))
        dom = UIDDomain(height)
        node_limit = (1 << (height + 1)) - 1
        batch = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_batch))):
            nodes = sorted(
                draw(
                    st.lists(
                        st.integers(min_value=1, max_value=node_limit),
                        max_size=10, unique=True,
                    )
                )
            )
            if draw(st.booleans()):
                values = draw(
                    st.lists(
                        st.floats(
                            min_value=1e-6, max_value=1e15,
                            allow_nan=False, allow_infinity=False,
                        ),
                        min_size=len(nodes), max_size=len(nodes),
                    )
                )
            else:
                values = [
                    float(v) for v in draw(
                        st.lists(
                            st.integers(min_value=1, max_value=2**63 - 1),
                            min_size=len(nodes), max_size=len(nodes),
                        )
                    )
                ]
            unmatched = float(draw(st.integers(min_value=0, max_value=20)))
            values_arr = np.asarray(values, dtype=np.float64)
            total = float(np.sum(values_arr)) + unmatched
            if draw(st.booleans()):
                total += 1.0  # force the explicit-totals section
            batch.append(
                Histogram.from_arrays(
                    np.asarray(nodes, dtype=np.int64),
                    values_arr,
                    unmatched=unmatched,
                    total=total,
                )
            )
        return dom, batch

    return strat()


class TestBatchedEncode:
    @settings(max_examples=100, deadline=None)
    @given(histogram_batches(), st.sampled_from(SEMANTICS))
    def test_batched_encode_matches_scalar_bytes(self, case, semantics):
        """One vectorized encode pass over a mixed batch must emit the
        exact bytes of one scalar encode per histogram — the sharded
        Monitor's batched send path may never change the wire."""
        dom, batch = case
        batched = encode_histograms_v2(batch, dom, semantics=semantics)
        scalar = [
            encode_histogram_v2(h, dom, semantics=semantics) for h in batch
        ]
        assert batched == scalar

    def test_batched_encode_empty_list(self):
        assert encode_histograms_v2([], UIDDomain(4)) == []


# -- the varint codec -----------------------------------------------------

def _wide_varints(n, seed=0):
    """``n`` values of every encoded length from 1 to 10 bytes,
    including the largest 64-bit value."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 64, n).astype(np.uint64)
    values = (np.uint64(1) << bits) | rng.integers(0, 2, n).astype(np.uint64)
    values[:1] = np.uint64((1 << 64) - 1)
    return values.tolist()


def _encode_varints(values):
    out = bytearray()
    wire_module._leb_encode(values, out)
    return bytes(out)


def _decode_error(buf, n):
    with pytest.raises(ValueError) as info:
        wire_module._leb_decode(buf, 0, len(buf), n)
    return str(info.value)


#: Malformed varints, each spliced between valid ones below, and the
#: error the decoder must report for the first bad one.
_BAD_VARINTS = {
    "over_long": (b"\x80" * 10 + b"\x01", "longer than 10 bytes"),
    "past_64_bits": (b"\xff" * 9 + b"\x02", "exceeds 64 bits"),
    "past_64_bits_then_over_long": (
        b"\xff" * 9 + b"\x7f" + b"\x80" * 11 + b"\x01", "exceeds 64 bits",
    ),
    "over_long_then_past_64_bits": (
        b"\x80" * 11 + b"\x01" + b"\xff" * 9 + b"\x02",
        "longer than 10 bytes",
    ),
}


class TestVarints:
    @pytest.mark.parametrize("n", [0, 1, 200])
    def test_round_trip(self, n):
        values = _wide_varints(n)
        buf = _encode_varints(values)
        assert wire_module._leb_decode(buf, 0, len(buf), n) == (
            values, len(buf)
        )

    def test_one_byte_section(self):
        values = list(range(128))
        buf = _encode_varints(values)
        assert buf == bytes(values)
        assert wire_module._leb_decode(buf, 0, len(buf), 128) == (values, 128)

    def test_batched_array_encoder_matches(self):
        values = _wide_varints(200, seed=3)
        array = np.asarray(values, dtype=np.uint64)
        lengths = wire_module._leb_lengths(array)
        assert wire_module._leb_encode_array(array, lengths) == (
            _encode_varints(values)
        )
        assert lengths.tolist() == [
            len(_encode_varints([v])) for v in values
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _encode_varints([3, -1])

    @pytest.mark.parametrize("bad", sorted(_BAD_VARINTS))
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_bad_varint_reported(self, bad, where):
        good = _wide_varints(40, seed=1)
        k = {"first": 0, "middle": 20, "last": 39}[where]
        splice, message = _BAD_VARINTS[bad]
        buf = _encode_varints(good[:k]) + splice + _encode_varints(good[k:])
        assert message in _decode_error(buf, 40)

    @pytest.mark.parametrize(
        "tail, message",
        [
            (b"", "truncated"),
            (b"\x81", "truncated"),
            (b"\x80" * 9, "truncated"),
            (b"\x80" * 10, "longer than 10 bytes"),
            (b"\x80" * 14, "longer than 10 bytes"),
        ],
    )
    def test_truncated_and_unterminated_tails(self, tail, message):
        good = _wide_varints(40, seed=2)
        buf = _encode_varints(good[:-1]) + tail
        assert message in _decode_error(buf, 40)


def _with_crc(data) -> bytes:
    """Re-seal a (corrupted) payload with a valid CRC32, so the parse
    gets past the checksum to the structural checks."""
    data = bytes(data)
    crc = zlib.crc32(data[10:], zlib.crc32(data[:6]))
    return data[:6] + struct.pack("<I", crc) + data[10:]


class TestStructuralFuzz:
    """Corruptions re-sealed with a valid CRC reach the varint, order,
    bounds and stray-byte checks, which must either reject them with a
    :class:`ValueError` or yield a well-formed view."""

    @pytest.mark.parametrize("payload", _sample_payloads())
    def test_resealed_corruptions(self, payload):
        cases = []
        for i in range(10, len(payload)):
            for flip in (0x01, 0x80, 0xFF):
                corrupted = bytearray(payload)
                corrupted[i] ^= flip
                cases.append(_with_crc(corrupted))
        cases += [_with_crc(payload[:cut]) for cut in range(10, len(payload))]
        rejected = 0
        for case in cases:
            try:
                view = WireHistogram(case)
            except ValueError:
                rejected += 1
                continue
            nodes = view.nodes.tolist()
            assert nodes == sorted(set(nodes))
            assert not nodes or 1 <= nodes[0] <= nodes[-1] < 2 << view.height
            assert len(view.values) == len(nodes)
            assert np.isfinite(view.total) and np.isfinite(view.unmatched)
        assert rejected
