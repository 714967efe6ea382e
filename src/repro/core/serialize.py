"""Wire formats for partitioning functions.

The binary codec realizes the size model the paper argues from: a
partitioning function is a list of buckets, each **one identifier**
encoded as (depth, prefix) — ``ceil(log2(h + 1)) + depth`` bits — with
a single flag bit and, for sparse buckets (Section 4.3), a
``O(log log |U|)``-bit offset locating the inner single-group
sub-bucket *relative to* its enclosing bucket.  The format is
self-delimiting given the domain height, and the decoder rejects a
truncated payload or one with trailing bytes; the function sizes
produced here are what the simulated channel charges for installs.  A
JSON codec is provided for configuration files and debugging.

Histograms have one wire format, :mod:`repro.core.wire`; its flags byte
carries the semantics codes defined here.  See ``docs/wire-format.md``
for both layouts bit by bit.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Type

from .bits import BitReader, BitWriter
from .domain import UIDDomain
from .partition import (
    Bucket,
    LongestPrefixMatchPartitioning,
    NonoverlappingPartitioning,
    OverlappingPartitioning,
    PartitioningFunction,
)

__all__ = [
    "encode_function",
    "decode_function",
    "function_to_json",
    "function_from_json",
]

#: Semantics codes: the function codec's 2-bit field and the low bits
#: of a histogram payload's flags byte (:mod:`repro.core.wire`).
_SEMANTICS_CODES: Dict[str, int] = {
    "nonoverlapping": 0,
    "overlapping": 1,
    "longest_prefix_match": 2,
}
_SEMANTICS_CLASSES: Dict[str, Type[PartitioningFunction]] = {
    "nonoverlapping": NonoverlappingPartitioning,
    "overlapping": OverlappingPartitioning,
    "longest_prefix_match": LongestPrefixMatchPartitioning,
}
_CODE_SEMANTICS = {v: k for k, v in _SEMANTICS_CODES.items()}


def _depth_bits(domain: UIDDomain) -> int:
    """Bits needed to encode a prefix length 0..height."""
    return max(1, math.ceil(math.log2(domain.height + 1)))


def _write_node(w: BitWriter, domain: UIDDomain, node: int) -> None:
    depth = UIDDomain.depth(node)
    w.write(depth, _depth_bits(domain))
    w.write(UIDDomain.prefix(node), depth)


def _read_node(r: BitReader, domain: UIDDomain) -> int:
    depth = r.read(_depth_bits(domain))
    prefix = r.read(depth)
    return domain.node(depth, prefix)


def encode_function(function: PartitioningFunction) -> bytes:
    """Serialize a partitioning function to its compact wire form.

    Layout: 6-bit domain height, 2-bit semantics code, varint bucket
    count, then per bucket the anchor node, a sparse flag, and (sparse
    only) the depth offset of the inner sub-bucket plus its path bits.
    """
    domain = function.domain
    if domain.height >= (1 << 6):
        raise ValueError(f"domain height {domain.height} exceeds wire format")
    w = BitWriter()
    w.write(domain.height, 6)
    w.write(_SEMANTICS_CODES[function.semantics], 2)
    w.write_unary_varint(function.num_buckets)
    for b in function.buckets:
        _write_node(w, domain, b.node)
        if b.sparse_group_node is None:
            w.write(0, 1)
        else:
            w.write(1, 1)
            offset = UIDDomain.depth(b.sparse_group_node) - UIDDomain.depth(
                b.node
            )
            w.write(offset, _depth_bits(domain))
            # path bits from the bucket anchor down to the sub-bucket
            sub_prefix = UIDDomain.prefix(b.sparse_group_node)
            rel = sub_prefix - (UIDDomain.prefix(b.node) << offset)
            w.write(rel, offset)
    return w.getvalue()


def decode_function(data: bytes) -> PartitioningFunction:
    """Inverse of :func:`encode_function`.  A truncated payload, or one
    with 8 or more bits after the last bucket (the encoder pads by
    fewer), raises :class:`ValueError`."""
    r = BitReader(data)
    try:
        domain = UIDDomain(r.read(6))
        try:
            semantics = _CODE_SEMANTICS[r.read(2)]
        except KeyError:
            raise ValueError("malformed function encoding: bad semantics code")
        count = r.read_unary_varint()
        buckets = []
        for _ in range(count):
            node = _read_node(r, domain)
            if r.read(1):
                offset = r.read(_depth_bits(domain))
                rel = r.read(offset)
                depth = UIDDomain.depth(node) + offset
                sub = domain.node(
                    depth, (UIDDomain.prefix(node) << offset) | rel
                )
                buckets.append(Bucket(node, sparse_group_node=sub))
            else:
                buckets.append(Bucket(node))
    except EOFError:
        raise ValueError(
            "malformed function encoding: truncated payload"
        ) from None
    if r.bits_remaining >= 8:
        raise ValueError(
            f"malformed function encoding: {r.bits_remaining} trailing "
            f"bits after the last bucket"
        )
    return _SEMANTICS_CLASSES[semantics](domain, buckets)


def function_to_json(function: PartitioningFunction) -> str:
    """Human-readable JSON form (configuration / debugging)."""
    domain = function.domain
    return json.dumps(
        {
            "semantics": function.semantics,
            "height": domain.height,
            "buckets": [
                {
                    "prefix": domain.node_prefix_str(b.node),
                    **(
                        {
                            "sparse_group": domain.node_prefix_str(
                                b.sparse_group_node
                            )
                        }
                        if b.is_sparse
                        else {}
                    ),
                }
                for b in function.buckets
            ],
        },
        indent=2,
    )


def function_from_json(text: str) -> PartitioningFunction:
    """Inverse of :func:`function_to_json`."""
    doc = json.loads(text)
    domain = UIDDomain(int(doc["height"]))
    buckets = []
    for item in doc["buckets"]:
        node = domain.parse_prefix_str(item["prefix"])
        sparse = item.get("sparse_group")
        buckets.append(
            Bucket(
                node,
                sparse_group_node=(
                    domain.parse_prefix_str(sparse) if sparse else None
                ),
            )
        )
    try:
        cls = _SEMANTICS_CLASSES[doc["semantics"]]
    except KeyError:
        raise ValueError(f"unknown semantics {doc.get('semantics')!r}")
    return cls(domain, buckets)
