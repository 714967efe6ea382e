"""Tests for the bit streams and the function codecs (binary and JSON)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Bucket,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    PrunedHierarchy,
    UIDDomain,
    get_metric,
)
from repro.algorithms import build_overlapping
from repro.core.bits import BitReader, BitWriter
from repro.core.serialize import (
    decode_function,
    encode_function,
    function_from_json,
    function_to_json,
)

from helpers import random_instance


class TestBits:
    def test_write_read_roundtrip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0, 1)
        w.write(0xABCD, 16)
        r = BitReader(w.getvalue())
        assert r.read(3) == 0b101
        assert r.read(1) == 0
        assert r.read(16) == 0xABCD

    def test_zero_width(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0
        r = BitReader(b"")
        assert r.read(0) == 0

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write(4, 2)
        with pytest.raises(ValueError):
            w.write(1, -1)

    def test_read_past_end(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(EOFError):
            r.read(1)

    @given(st.lists(st.integers(min_value=0, max_value=10**9),
                    min_size=1, max_size=10))
    def test_varint_roundtrip(self, values):
        w = BitWriter()
        for v in values:
            w.write_unary_varint(v)
        r = BitReader(w.getvalue())
        for v in values:
            assert r.read_unary_varint() == v

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=2**20),
                              st.integers(min_value=0, max_value=24)),
                    min_size=1, max_size=20))
    def test_mixed_field_roundtrip(self, fields):
        w = BitWriter()
        clipped = [(v & ((1 << width) - 1), width) for v, width in fields]
        for v, width in clipped:
            w.write(v, width)
        r = BitReader(w.getvalue())
        for v, width in clipped:
            assert r.read(width) == v


DOM = UIDDomain(6)


def _fn(cls, *nodes, sparse=None):
    buckets = [Bucket(n) for n in nodes]
    if sparse:
        buckets.append(Bucket(sparse[0], sparse_group_node=sparse[1]))
    return cls(DOM, buckets)


def _codec_samples():
    return [
        _fn(NonoverlappingPartitioning, DOM.node(1, 0), DOM.node(1, 1)),
        _fn(OverlappingPartitioning, 1, DOM.node(2, 3), DOM.node(4, 9)),
        _fn(
            LongestPrefixMatchPartitioning, 1, DOM.node(2, 3),
            sparse=(DOM.node(2, 1), DOM.node(5, 0b01001)),
        ),
    ]


def _sample_id(fn):
    return f"{fn.semantics}-{fn.num_buckets}"


class TestFunctionCodec:
    @pytest.mark.parametrize("cls", [NonoverlappingPartitioning,
                                     OverlappingPartitioning,
                                     LongestPrefixMatchPartitioning])
    def test_roundtrip_plain(self, cls):
        if cls is NonoverlappingPartitioning:
            fn = _fn(cls, DOM.node(1, 0), DOM.node(1, 1))
        else:
            fn = _fn(cls, 1, DOM.node(2, 3), DOM.node(4, 9))
        out = decode_function(encode_function(fn))
        assert type(out) is cls
        assert out.domain == fn.domain
        assert [b.node for b in out.buckets] == [b.node for b in fn.buckets]

    def test_roundtrip_sparse(self):
        fn = _fn(
            OverlappingPartitioning, 1,
            sparse=(DOM.node(2, 1), DOM.node(5, 0b01011)),
        )
        out = decode_function(encode_function(fn))
        sparse = [b for b in out.buckets if b.is_sparse]
        assert len(sparse) == 1
        assert sparse[0].node == DOM.node(2, 1)
        assert sparse[0].sparse_group_node == DOM.node(5, 0b01011)

    def test_encoded_size_tracks_size_bits(self):
        fn = _fn(OverlappingPartitioning, 1, DOM.node(3, 5), DOM.node(6, 40))
        data = encode_function(fn)
        # wire size is within a small header + rounding of the model
        assert len(data) * 8 <= fn.size_bits() + 32

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            decode_function(b"\xff\xff")

    @pytest.mark.parametrize("fn", _codec_samples(), ids=_sample_id)
    def test_every_truncation_rejected(self, fn):
        data = encode_function(fn)
        for cut in range(len(data)):
            with pytest.raises(ValueError, match="malformed function"):
                decode_function(data[:cut])

    @pytest.mark.parametrize("fn", _codec_samples(), ids=_sample_id)
    def test_trailing_bytes_rejected(self, fn):
        """The encoder pads by fewer than 8 bits, so any appended byte
        is trailing garbage, not padding."""
        data = encode_function(fn)
        assert len(decode_function(data).buckets) == len(fn.buckets)
        for tail in (b"\x00", b"\x00" * 3, b"\xff"):
            with pytest.raises(ValueError, match="trailing"):
                decode_function(data + tail)

    @pytest.mark.parametrize("seed", range(6))
    def test_constructed_functions_roundtrip(self, seed):
        _dom, table, counts = random_instance(seed)
        h = PrunedHierarchy(table, counts)
        fn = build_overlapping(h, get_metric("rms"), 4).function_at(4)
        out = decode_function(encode_function(fn))
        assert sorted(out.match_nodes) == sorted(fn.match_nodes)
        assert out.semantics == fn.semantics

    def test_json_roundtrip(self):
        fn = _fn(
            LongestPrefixMatchPartitioning, 1, DOM.node(2, 3),
            sparse=(DOM.node(2, 1), DOM.node(5, 0b01001)),
        )
        out = function_from_json(function_to_json(fn))
        assert type(out) is LongestPrefixMatchPartitioning
        assert [b.node for b in out.buckets] == [b.node for b in fn.buckets]
        assert out.buckets[-1].sparse_group_node == \
            fn.buckets[-1].sparse_group_node

    def test_json_bad_semantics_rejected(self):
        fn = _fn(OverlappingPartitioning, 1)
        text = function_to_json(fn).replace("overlapping", "woozle")
        with pytest.raises(ValueError):
            function_from_json(text)
