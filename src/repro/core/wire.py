"""The v2 histogram wire format: queryable without deserialization.

The v1 codec in :mod:`repro.core.serialize` ships a histogram as a flat
bit string of ``(node, fixed-width counter)`` pairs that the Control
Center must fully decode into a :class:`~.partition.Histogram` before it
can answer anything.  This module is the next step the ROADMAP calls
"query-from-serialized": a byte-aligned, self-describing binary format
whose payload can be *queried in place* — point counts, subtree (range)
totals, per-group estimates, and merges across Monitors all operate on
the raw buffer through :class:`WireHistogram`, a zero-copy view over a
``memoryview``.

Layout (all multi-byte integers little-endian)::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       2     magic  b"RW"
    2       1     version (currently 2)
    3       1     flags:  bits 0-1  semantics code (see serialize.py)
                          bit  2    FLOAT64 counters (weighted values)
                          bit  3    HAS_TOTALS (explicit total/unmatched)
                          bits 4-7  reserved, must be zero
    4       1     domain height (0..63)
    5       1     counter stride ``w`` in bytes: 1, 2, 4 or 8
    6       4     CRC32 over bytes [0:6] + bytes [10:] (detects any
                  corruption, including of the header fields themselves)
    10      var   LEB128 bucket count ``n``
    [+16]         (HAS_TOTALS only) unmatched, total as float64
    var     var   node-id section: LEB128 first node id, then LEB128
                  successive deltas (node ids are sorted and unique, so
                  every delta is >= 1)
    end-n*w n*w   counter section: ``n`` counters at fixed stride ``w``
                  (unsigned little-endian ints, or float64 when the
                  FLOAT64 flag is set)

Design notes:

* **Self-describing counters.** v1's ``counter_bits`` is an
  out-of-band contract between encoder and decoder (see the hazard
  note in :mod:`repro.core.serialize`); here the stride byte travels
  with the payload and the encoder picks the narrowest width that fits,
  so small windows pay 1-byte counters instead of v1's fixed 32 bits.
* **Fixed-stride counter section.** The counter section sits at the
  *end* of the buffer, so its offset is computable from the header
  alone (``len(data) - n * w``) and counters are directly addressable:
  :attr:`WireHistogram.values` is one ``np.frombuffer`` over the
  payload — no copy, no parse.
* **Delta-encoded node ids.** Bucket node ids are sorted, so LEB128
  deltas cost ~``log2(gap)`` bits instead of v1's
  ``ceil(log2(h+1)) + depth`` bits per identifier; dense functions
  (the common case at realistic budgets) pay one byte per bucket.
* **Integrity.** The CRC32 makes every truncation or bit flip a
  :class:`ValueError` at parse time — a corrupted payload can never
  decode to silently-wrong counts (property-tested by the fuzz suite
  in ``tests/test_wire.py``).
* **Exactness.** Integer counters round-trip float64 -> uint -> float64
  losslessly (the encoder rejects non-integral or negative values
  unless the float64 mode is chosen), so v2 decodes are bit-identical
  to the histograms that were encoded, and query-from-wire estimates
  are bit-identical to decode-then-estimate.
* **Mergeability is a format property.** :func:`merge_views` merges
  parsed views with the same concatenate/unique/bincount accumulation
  as :meth:`.partition.Histogram.merge`, so merged counters are
  bit-for-bit the values an object-level merge would produce; the
  Control Center decodes every window through it.  :func:`merge_wire`
  re-encodes that merge as a new payload, for merging away from the
  Control Center.
* **Cost per byte.**  A window histogram carries tens of buckets, so
  one payload is encoded, parsed and checked with plain Python loops
  over its varints and counters: a numpy call's fixed ~1 us would cost
  more than the bytes themselves.  Only the batched encoder, which
  works on the buckets of many histograms at once, is vectorized.
"""

from __future__ import annotations

import math
import operator
import struct
import zlib
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domain import UIDDomain
from .partition import Histogram

__all__ = [
    "WIRE_FORMATS",
    "MAGIC",
    "VERSION",
    "WireHistogram",
    "encode_histogram_v2",
    "encode_histograms_v2",
    "decode_histogram_v2",
    "merge_views",
    "merge_wire",
]

#: Wire formats the streams layer can be asked to speak.
WIRE_FORMATS = ("v1", "v2")

MAGIC = b"RW"
VERSION = 2

_FLAG_SEMANTICS_MASK = 0b0000_0011
_FLAG_FLOAT64 = 0b0000_0100
_FLAG_HAS_TOTALS = 0b0000_1000
_FLAG_RESERVED_MASK = 0b1111_0000

#: flags/semantics codes shared with the v1 function codec.
_SEMANTICS_CODES = {
    "nonoverlapping": 0,
    "overlapping": 1,
    "longest_prefix_match": 2,
}
_CODE_SEMANTICS = {v: k for k, v in _SEMANTICS_CODES.items()}

_HEADER = struct.Struct("<2sBBBBI")  # magic, version, flags, height, stride, crc
_HEADER_LEN = _HEADER.size  # 10
_TOTALS = struct.Struct("<dd")

_STRIDES = (1, 2, 4, 8)
_UINT_DTYPES = {1: "<u1", 2: "<u2", 4: "<u4", 8: "<u8"}
#: Longest admissible LEB128 encoding (64-bit payloads).
_LEB_MAX_BYTES = 10
_TWO_53 = float(1 << 53)
_TWO_64 = float(1 << 64)

#: Counter-mode names accepted by :func:`encode_histogram_v2`.
_COUNTER_MODES = ("auto", "u8", "u16", "u32", "u64", "float64")
_MODE_STRIDE = {"u8": 1, "u16": 2, "u32": 4, "u64": 8, "float64": 8}


def _leb_encode(values, out: bytearray) -> None:
    """Append the minimal LEB128 encoding of each nonnegative integer
    in ``values``, in order."""
    append = out.append
    for v in values:
        if v < 0:
            raise ValueError(f"LEB128 values must be nonnegative: {v}")
        while v > 0x7F:
            append((v & 0x7F) | 0x80)
            v >>= 7
        append(v)


def _leb_decode(data, pos: int, end: int, n: int) -> Tuple[List[int], int]:
    """Decode exactly ``n`` consecutive LEB128 integers from
    ``data[pos:end]``.

    Returns ``(values, next_pos)``; raises :class:`ValueError` at the
    first truncated varint or encoding longer than 64 bits (so a
    corrupted continuation bit can never make the decoder loop or build
    a huge integer)."""
    if end - pos == n and (not n or max(data[pos:end]) < 0x80):
        # All-single-byte section (the dense-histogram common case).
        return list(data[pos:end]), end
    out: List[int] = []
    append = out.append
    for _ in range(n):
        if pos >= end:
            raise ValueError("malformed v2 payload: truncated varint")
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            append(byte)
            continue
        value = byte & 0x7F
        shift = 7
        while True:
            if pos >= end:
                raise ValueError("malformed v2 payload: truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift == 7 * _LEB_MAX_BYTES:
                raise ValueError(
                    "malformed v2 payload: varint longer than 10 bytes"
                )
        if value >> 64:
            raise ValueError("malformed v2 payload: varint exceeds 64 bits")
        append(value)
    return out, pos


def _leb_encode_array(values: np.ndarray) -> bytes:
    """Vectorized LEB128 of a nonnegative uint64 array — byte-identical
    to :func:`_leb_encode` over the same elements.  Only the batched
    encoder uses it, on the deltas of a whole batch of histograms."""
    if values.size == 0:
        return b""
    values = values.astype(np.uint64, copy=False)
    max_len = (int(values.max()).bit_length() + 6) // 7 or 1
    if max_len == 1:
        # Every value fits one byte (dense histograms: deltas are
        # mostly 1) — the bytes ARE the values.
        return values.astype(np.uint8).tobytes()
    lengths = np.ones(values.size, dtype=np.int64)
    for k in range(1, max_len):
        lengths += values >= (np.uint64(1) << np.uint64(7 * k))
    offsets = np.zeros(values.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    out = np.zeros(int(offsets[-1] + lengths[-1]), dtype=np.uint8)
    for j in range(max_len):
        mask = lengths > j
        chunk = (values[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = (lengths[mask] - 1 > j).astype(np.uint8)
        out[offsets[mask] + j] = chunk.astype(np.uint8) | (
            cont * np.uint8(0x80)
        )
    return out.tobytes()


def _decode_nodes(
    buf, pos: int, end: int, n: int, height: int
) -> Tuple[np.ndarray, int]:
    """Decode the node-id section ``buf[pos:end]`` (``n`` LEB128
    deltas) into int64 node ids, checking that they are strictly
    increasing and valid for ``height``.  Returns ``(nodes, next_pos)``."""
    if n == 0:
        return np.empty(0, dtype=np.int64), pos
    deltas, pos = _leb_decode(buf, pos, end, n)
    if deltas[0] < 1:
        raise ValueError("malformed v2 payload: node id 0")
    if 0 in deltas:
        raise ValueError(
            "malformed v2 payload: node ids not strictly increasing"
        )
    nodes = list(accumulate(deltas))
    # Node ids must be below 2**(height + 1) and fit an int64.
    if nodes[-1] >= min(1 << (height + 1), 1 << 63):
        raise ValueError(
            f"malformed v2 payload: node {nodes[-1]} invalid for "
            f"height {height}"
        )
    return np.array(nodes, dtype=np.int64), pos


def _integral_max(values: np.ndarray) -> Optional[int]:
    """The largest counter when every counter is a nonnegative integer
    below ``2**64`` (so it fits an unsigned wire counter), else
    ``None``.  ``values`` is a nonempty float64 array."""
    vs = values.tolist()
    top = max(vs)
    if top < _TWO_64 and min(vs) >= 0.0 and all(map(float.is_integer, vs)):
        return int(top)
    return None


def _all_finite(values: np.ndarray) -> bool:
    return all(map(math.isfinite, values.tolist()))


def _counter_sum(values: np.ndarray, integral: bool) -> float:
    """``float(np.sum(values))`` over float64, the number the omitted
    totals are recomputed with.  Nonnegative integral counters are
    summed in Python: when that sum stays below ``2**53`` every partial
    sum is exact in any order, so it is the same number."""
    if integral:
        s = sum(values.tolist())
        if s < _TWO_53:
            return float(s)
    return float(np.sum(np.asarray(values, dtype=np.float64)))


def _pick_stride(max_value: int) -> int:
    for w in _STRIDES:
        if max_value < (1 << (8 * w)):
            return w
    raise ValueError(
        f"count {max_value} does not fit in a 64-bit wire counter"
    )


def encode_histogram_v2(
    histogram: Histogram,
    domain: UIDDomain,
    semantics: str = "nonoverlapping",
    counters: str = "auto",
) -> bytes:
    """Serialize a histogram to the v2 wire form.

    ``counters`` selects the counter mode: ``"auto"`` (the default)
    uses the narrowest unsigned width that fits every count, switching
    to float64 automatically when any value is non-integral or
    negative; ``"float64"`` forces the weighted-values mode; ``"u8"``/
    ``"u16"``/``"u32"``/``"u64"`` force a fixed unsigned width (a value
    that does not fit raises, exactly like v1's overflow check).

    The histogram's ``unmatched``/``total`` accounting is preserved:
    when it is derivable (no unmatched traffic and ``total`` equals the
    counter sum) it is omitted from the wire and recomputed at decode
    time with the identical float operation, otherwise 16 explicit
    bytes carry it — either way ``decode_histogram_v2`` is a lossless
    inverse.
    """
    if semantics not in _SEMANTICS_CODES:
        known = ", ".join(sorted(_SEMANTICS_CODES))
        raise ValueError(f"unknown semantics {semantics!r}; known: {known}")
    if counters not in _COUNTER_MODES:
        known = ", ".join(_COUNTER_MODES)
        raise ValueError(f"unknown counter mode {counters!r}; known: {known}")
    if not 0 <= domain.height <= 63:
        raise ValueError(f"domain height {domain.height} exceeds wire format")
    nodes = histogram.nodes
    values = np.asarray(histogram.values, dtype=np.float64)
    n = int(nodes.size)
    if n and int(nodes[-1]) >= (1 << (domain.height + 1)):
        raise ValueError(
            f"node {int(nodes[-1])} invalid for height {domain.height}"
        )
    if n and int(nodes[0]) < 1:
        raise ValueError(f"invalid node id {int(nodes[0])}")

    float_mode = counters == "float64"
    max_value: Optional[int] = 0
    if counters == "auto" and n:
        max_value = _integral_max(values)
        float_mode = max_value is None
    if float_mode:
        if n and not _all_finite(values):
            raise ValueError("float64 counters must be finite")
        stride = 8
    else:
        if counters != "auto" and n:
            bad = (values < 0) | (values != np.floor(values))
            if bool(np.any(bad)):
                v = values.tolist()[int(np.argmax(bad))]
                raise ValueError(
                    f"count {v} is not a nonnegative integer; use the "
                    f"float64 counter mode for weighted histograms"
                )
            max_value = int(values.max())
        if counters == "auto":
            stride = _pick_stride(max_value)
        else:
            stride = _MODE_STRIDE[counters]
            if max_value >= (1 << (8 * stride)):
                raise ValueError(
                    f"count {max_value} does not fit in "
                    f"{8 * stride}-bit counter"
                )

    # Totals are omitted when decode can recompute them exactly: the
    # decoder sums the (float64) counter view with the same
    # _counter_sum the check below uses, so equality here guarantees
    # equality there.
    has_totals = histogram.unmatched != 0.0 or histogram.total != (
        _counter_sum(values, integral=not float_mode) if n else 0.0
    )

    flags = _SEMANTICS_CODES[semantics]
    if float_mode:
        flags |= _FLAG_FLOAT64
    if has_totals:
        flags |= _FLAG_HAS_TOTALS

    body = bytearray()
    _leb_encode((n,), body)
    if has_totals:
        body += _TOTALS.pack(histogram.unmatched, histogram.total)
    node_list = nodes.tolist()
    _leb_encode(map(operator.sub, node_list, [0] + node_list), body)
    if float_mode:
        body += np.ascontiguousarray(values, dtype="<f8").tobytes()
    else:
        body += values.astype(_UINT_DTYPES[stride]).tobytes()

    head = MAGIC + bytes([VERSION, flags, domain.height, stride])
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + struct.pack("<I", crc) + bytes(body)


def encode_histograms_v2(
    histograms: Sequence[Histogram],
    domain: UIDDomain,
    semantics: str = "nonoverlapping",
    counters: str = "auto",
) -> List[bytes]:
    """Batched :func:`encode_histogram_v2`: encode many histograms in
    one vectorized pass, byte-identical to encoding each separately.

    The scalar encoder's cost at realistic bucket counts is fixed
    numpy-call overhead (~15 small array ops per histogram), not
    arithmetic — the profiled ingest hotspot of the serving layer's
    shard workers, which encode every window of a run in one go.  This
    path hoists those ops over the concatenated bucket arrays: one
    integrality/finiteness scan with per-histogram ``reduceat``
    reductions, one delta computation, one vectorized LEB128 pass
    (sliced back per histogram — element encodings are position
    independent), and one counter-section conversion per distinct
    stride.  Per-histogram work is reduced to header assembly, the
    totals check and a CRC32.

    Only the ``"auto"`` counter mode is batched; explicit modes fall
    back to the scalar encoder per histogram.
    """
    histograms = list(histograms)
    if counters != "auto" or not histograms:
        return [
            encode_histogram_v2(h, domain, semantics, counters=counters)
            for h in histograms
        ]
    if semantics not in _SEMANTICS_CODES:
        known = ", ".join(sorted(_SEMANTICS_CODES))
        raise ValueError(f"unknown semantics {semantics!r}; known: {known}")
    if not 0 <= domain.height <= 63:
        raise ValueError(f"domain height {domain.height} exceeds wire format")
    sem_code = _SEMANTICS_CODES[semantics]
    node_limit = 1 << (domain.height + 1)

    sizes = [int(h.nodes.size) for h in histograms]
    nonempty = [k for k, n in enumerate(sizes) if n]
    total = sum(sizes)
    if total:
        all_nodes = np.concatenate([histograms[k].nodes for k in nonempty])
        all_values = np.concatenate([histograms[k].values for k in nonempty])
        starts = np.zeros(len(nonempty), dtype=np.int64)
        np.cumsum([sizes[k] for k in nonempty[:-1]], out=starts[1:])
        # Per-histogram reductions over one elementwise scan.  The
        # segment boundaries are exactly the scalar encoder's per-call
        # array extents, so each reduction equals its np.all/np.max.
        ok = (
            (all_values >= 0.0)
            & (all_values == np.floor(all_values))
            & (all_values < float(1 << 64))
        )
        seg_integral = np.minimum.reduceat(ok, starts)
        seg_finite = np.minimum.reduceat(np.isfinite(all_values), starts)
        seg_max = np.maximum.reduceat(all_values, starts)
        # One delta pass: cross-histogram positions get garbage from
        # the global diff, then every segment start is overwritten with
        # its absolute first node — the scalar encoder's layout.
        deltas = np.empty(total, dtype=np.uint64)
        if total > 1:
            deltas[1:] = np.diff(all_nodes).astype(np.uint64)
        deltas[starts] = all_nodes[starts].astype(np.uint64)
        leb_blob = _leb_encode_array(deltas)
        # Element encodings are position independent, so per-histogram
        # slices of the global LEB blob equal per-histogram encodes.
        lens = np.ones(total, dtype=np.int64)
        for k in range(1, _LEB_MAX_BYTES):
            lens += deltas >= (np.uint64(1) << np.uint64(7 * k))
        byte_ends = np.cumsum(np.add.reduceat(lens, starts))
        f_blob = np.ascontiguousarray(all_values, dtype="<f8").tobytes()
        value_ends = starts + np.asarray(
            [sizes[k] for k in nonempty], dtype=np.int64
        )
    # Counter sections are converted per distinct stride over only the
    # histograms using it (converting foreign segments could overflow).
    stride_blobs: dict = {}

    integral = {}
    float_mode = {}
    stride_of = {}
    for j, k in enumerate(nonempty):
        integral[k] = bool(seg_integral[j])
        if integral[k]:
            float_mode[k] = False
            stride_of[k] = _pick_stride(int(seg_max[j]))
        else:
            if not bool(seg_finite[j]):
                raise ValueError("float64 counters must be finite")
            float_mode[k] = True
            stride_of[k] = 8
    by_stride: dict = {}
    for j, k in enumerate(nonempty):
        if not float_mode[k]:
            by_stride.setdefault(stride_of[k], []).append((j, k))
    for stride, members in by_stride.items():
        blob = np.concatenate(
            [histograms[k].values for _j, k in members]
        ).astype(_UINT_DTYPES[stride]).tobytes()
        offset = 0
        for _j, k in members:
            end = offset + sizes[k] * stride
            stride_blobs[k] = blob[offset:end]
            offset = end

    payloads: List[bytes] = []
    j = 0  # nonempty cursor
    for k, h in enumerate(histograms):
        n = sizes[k]
        if n:
            if int(h.nodes[-1]) >= node_limit:
                raise ValueError(
                    f"node {int(h.nodes[-1])} invalid for height "
                    f"{domain.height}"
                )
            if int(h.nodes[0]) < 1:
                raise ValueError(f"invalid node id {int(h.nodes[0])}")
            stride = stride_of[k]
            fmode = float_mode[k]
        else:
            stride = _pick_stride(0)
            fmode = False
        if h.unmatched != 0.0:
            # Totals can't be derivable; skip the sum the scalar
            # encoder would compute and discard.
            has_totals = True
        else:
            # Same sum as the scalar encoder (reduceat's sequential
            # accumulation could differ in the last bits).
            derivable_total = (
                _counter_sum(h.values, integral=not fmode) if n else 0.0
            )
            has_totals = h.total != derivable_total
        flags = sem_code
        if fmode:
            flags |= _FLAG_FLOAT64
        if has_totals:
            flags |= _FLAG_HAS_TOTALS
        body = bytearray()
        _leb_encode((n,), body)
        if has_totals:
            body += _TOTALS.pack(h.unmatched, h.total)
        if n:
            leb_lo = int(byte_ends[j - 1]) if j else 0
            body += leb_blob[leb_lo:int(byte_ends[j])]
            if fmode:
                body += f_blob[int(starts[j]) * 8:int(value_ends[j]) * 8]
            else:
                body += stride_blobs[k]
            j += 1
        head = MAGIC + bytes([VERSION, flags, domain.height, stride])
        crc = zlib.crc32(bytes(body), zlib.crc32(head))
        payloads.append(head + struct.pack("<I", crc) + bytes(body))
    return payloads


class WireHistogram:
    """A zero-copy queryable view over a v2 payload.

    Construction validates the whole buffer — header fields, CRC32,
    varint structure, node monotonicity and bounds — and raises
    :class:`ValueError` for *any* truncated or corrupted input; a
    successfully constructed view is safe to query.  The counter
    section is never copied: :attr:`values` is an ``np.frombuffer``
    window into the original buffer, and every query below is a gather
    over it.
    """

    __slots__ = (
        "data",
        "height",
        "semantics",
        "float_counters",
        "stride",
        "nodes",
        "unmatched",
        "total",
        "_counters_off",
        "_values",
    )

    def __init__(self, data) -> None:
        view = memoryview(data)
        if view.nbytes < _HEADER_LEN:
            raise ValueError(
                f"malformed v2 payload: {view.nbytes} bytes is shorter "
                f"than the {_HEADER_LEN}-byte header"
            )
        magic, version, flags, height, stride, crc = _HEADER.unpack_from(
            view, 0
        )
        if magic != MAGIC:
            raise ValueError(
                f"malformed v2 payload: bad magic {bytes(magic)!r}"
            )
        if version != VERSION:
            raise ValueError(
                f"unsupported wire version {version} (expected {VERSION})"
            )
        if flags & _FLAG_RESERVED_MASK:
            raise ValueError(
                f"malformed v2 payload: reserved flag bits set ({flags:#04x})"
            )
        semantics_code = flags & _FLAG_SEMANTICS_MASK
        if semantics_code not in _CODE_SEMANTICS:
            raise ValueError(
                f"malformed v2 payload: bad semantics code {semantics_code}"
            )
        if height > 63:
            raise ValueError(f"malformed v2 payload: height {height} > 63")
        if stride not in _STRIDES:
            raise ValueError(
                f"malformed v2 payload: counter stride {stride} not in "
                f"{_STRIDES}"
            )
        float_counters = bool(flags & _FLAG_FLOAT64)
        if float_counters and stride != 8:
            raise ValueError(
                f"malformed v2 payload: float64 counters need stride 8, "
                f"got {stride}"
            )
        expect = zlib.crc32(
            view[_HEADER_LEN:], zlib.crc32(view[:6])
        )
        if expect != crc:
            raise ValueError(
                f"corrupt v2 payload: CRC mismatch "
                f"(header {crc:#010x}, computed {expect:#010x})"
            )
        buf = view.tobytes() if not isinstance(data, bytes) else data
        pos = _HEADER_LEN
        end = len(buf)
        (n,), pos = _leb_decode(buf, pos, end, 1)
        unmatched = 0.0
        total: Optional[float] = None
        if flags & _FLAG_HAS_TOTALS:
            if pos + _TOTALS.size > end:
                raise ValueError("malformed v2 payload: truncated totals")
            unmatched, total = _TOTALS.unpack_from(buf, pos)
            if not (math.isfinite(unmatched) and math.isfinite(total)):
                raise ValueError(
                    "malformed v2 payload: non-finite totals"
                )
            pos += _TOTALS.size
        counters_off = end - n * stride
        if counters_off < pos:
            raise ValueError(
                f"malformed v2 payload: {n} counters of stride {stride} "
                f"do not fit in {end - pos} remaining bytes"
            )
        nodes, pos = _decode_nodes(buf, pos, counters_off, n, height)
        if pos != counters_off:
            raise ValueError(
                f"malformed v2 payload: {counters_off - pos} stray bytes "
                f"between node and counter sections"
            )
        self.data = buf
        self.height = int(height)
        self.semantics = _CODE_SEMANTICS[semantics_code]
        self.float_counters = float_counters
        self.stride = int(stride)
        self.nodes = nodes
        self._counters_off = counters_off
        self._values: Optional[np.ndarray] = None
        if float_counters and n and not _all_finite(self.values):
            raise ValueError("malformed v2 payload: non-finite counter")
        self.unmatched = float(unmatched)
        if total is None:
            # Recompute with the same operation the encoder checked, so
            # the omitted-totals path is exactly lossless.
            total = (
                _counter_sum(self.values, integral=not float_counters)
                if n else 0.0
            )
        self.total = float(total)

    # -- the zero-copy counter window -----------------------------------
    @property
    def values(self) -> np.ndarray:
        """The counter section as a numpy view over the raw buffer
        (float64 for weighted payloads, unsigned ints otherwise).  No
        bytes are copied; the array aliases ``self.data``."""
        if self._values is None:
            dtype = "<f8" if self.float_counters else _UINT_DTYPES[self.stride]
            self._values = np.frombuffer(
                self.data, dtype=dtype, count=int(self.nodes.size),
                offset=self._counters_off,
            )
        return self._values

    def __len__(self) -> int:
        return int(self.nodes.size)

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    # -- point / range queries ------------------------------------------
    def count(self, node: int) -> float:
        """The counter at ``node`` (0.0 when the bucket is absent) —
        one binary search plus one buffer read."""
        k = int(np.searchsorted(self.nodes, node))
        if k < self.nodes.size and int(self.nodes[k]) == node:
            return float(self.values[k])
        return 0.0

    def subtree_total(self, node: int) -> float:
        """Sum of all bucket counters inside the subtree of ``node`` —
        a range query straight off the wire bytes.

        A subtree's node ids are contiguous *per depth* (the depth-``d``
        descendants of ``node`` occupy ``[node << k, (node + 1) << k)``
        for ``k = d - depth(node)``), so the query is one
        ``searchsorted`` pair per level below ``node``.
        """
        if node < 1 or node >= (1 << (self.height + 1)):
            raise ValueError(
                f"node {node} invalid for height {self.height}"
            )
        total = 0.0
        depth = UIDDomain.depth(node)
        values = self.values
        for k in range(self.height - depth + 1):
            lo = int(np.searchsorted(self.nodes, node << k))
            hi = int(np.searchsorted(self.nodes, (node + 1) << k))
            if hi > lo:
                total += float(np.sum(values[lo:hi], dtype=np.float64))
        return total

    # -- interop ---------------------------------------------------------
    def to_histogram(self) -> Histogram:
        """Materialize a :class:`~.partition.Histogram` (the naive
        decode path; bit-identical counters by construction)."""
        return Histogram.from_arrays(
            self.nodes.copy(),
            np.asarray(self.values, dtype=np.float64),
            unmatched=self.unmatched,
            total=self.total,
        )

    def merge(self, other: "WireHistogram") -> bytes:
        """Merge two payloads into a new v2 payload without building
        :class:`~.partition.Histogram` objects."""
        return merge_wire([self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "float64" if self.float_counters else f"u{8 * self.stride}"
        return (
            f"WireHistogram({len(self)} buckets, {kind} counters, "
            f"{self.size_bytes} bytes)"
        )


def decode_histogram_v2(data) -> Histogram:
    """Decode a v2 payload into a :class:`~.partition.Histogram` (the
    reference path; :class:`WireHistogram` queries the bytes in place
    instead)."""
    return WireHistogram(data).to_histogram()


def _as_wire(payload) -> WireHistogram:
    return payload if isinstance(payload, WireHistogram) else WireHistogram(
        payload
    )


def merge_views(views: Sequence) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """The k-way fan-in arithmetic shared by every merge path: combine
    bucket views into ``(nodes, sums, unmatched, total)``.

    ``views`` may be :class:`WireHistogram` views,
    :class:`~.partition.Histogram` objects, or anything else exposing
    sorted ``nodes``, parallel ``values``, ``unmatched`` and ``total``.
    Counter accumulation is the same concatenate + ``np.unique`` +
    ``np.bincount`` sequence as :meth:`.partition.Histogram.merge`, and
    totals accumulate in argument order, so the result is bit-for-bit
    what an object-level merge of the decoded histograms would produce.
    This is the Control Center's per-window merge, serial and sharded
    alike: one call over the window's views, then one merged histogram
    — no intermediate merged payload is materialized.
    """
    if not views:
        raise ValueError("merge_views needs at least one view")
    unmatched = 0.0
    total = 0.0
    for v in views:
        unmatched += v.unmatched
        total += v.total
    if len(views) == 1:
        nodes = views[0].nodes
        sums = np.asarray(views[0].values, dtype=np.float64)
    elif all(
        v.nodes.size == views[0].nodes.size
        and np.array_equal(v.nodes, views[0].nodes)
        for v in views[1:]
    ):
        # Aligned fast path — every shard runs the same partitioning
        # function and ships the full slot-node array, so the k views
        # share one node layout and the merge is a running elementwise
        # sum.  ``np.bincount`` adds weights into zero-initialized bins
        # in input order, i.e. per bucket ``0.0 + v_0 + v_1 + ...``
        # left to right — exactly the accumulation below, so the
        # counters stay bit-identical to the
        # concatenate/unique/bincount path.
        nodes = views[0].nodes
        sums = np.zeros(nodes.size, dtype=np.float64)
        for v in views:
            sums += np.asarray(v.values, dtype=np.float64)
    else:
        all_nodes = np.concatenate([v.nodes for v in views])
        all_values = np.concatenate(
            [np.asarray(v.values, dtype=np.float64) for v in views]
        )
        nodes, inverse = np.unique(all_nodes, return_inverse=True)
        sums = np.bincount(
            inverse, weights=all_values, minlength=nodes.size
        )
    return nodes, sums, unmatched, total


def merge_wire(payloads: Sequence) -> bytes:
    """Merge v2 payloads (bytes or :class:`WireHistogram` views) into
    one v2 payload.

    The accumulation is :func:`merge_views`, so the merged counters are
    bit-for-bit what an object-level merge of the decoded histograms
    would produce — mergeability is a property of the format, not a
    decode step.
    """
    views = [_as_wire(p) for p in payloads]
    if not views:
        raise ValueError("merge_wire needs at least one payload")
    height = views[0].height
    semantics = views[0].semantics
    for v in views[1:]:
        if v.height != height:
            raise ValueError(
                f"cannot merge payloads over different domains "
                f"(heights {height} and {v.height})"
            )
        if v.semantics != semantics:
            raise ValueError(
                f"cannot merge payloads with different semantics "
                f"({semantics!r} and {v.semantics!r})"
            )
    float_mode = any(v.float_counters for v in views)
    nodes, sums, unmatched, total = merge_views(views)
    merged = Histogram.from_arrays(nodes, sums, unmatched, total)
    return encode_histogram_v2(
        merged,
        UIDDomain(height),
        semantics=semantics,
        counters="float64" if float_mode else "auto",
    )
