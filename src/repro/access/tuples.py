"""Heap tuples: the versioned on-page record format.

Every stored tuple carries a 32-byte header with the transaction stamps the
no-overwrite storage system needs:

* ``xmin`` — xid of the inserting transaction;
* ``xmax`` — xid of the deleting transaction (0 while the version is live);
* ``oid``  — the tuple's permanent object id, stable across versions, which
  is what large-object chunk records are addressed by;
* ``flags``/``natts`` — reserved bits and a sanity check.

The header is followed by the record bytes produced by
:meth:`repro.access.schema.Schema.encode`.  ``xmax`` is the only field ever
updated in place (setting it marks deletion); everything else is immutable,
which is what makes old versions trustworthy for time travel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.access.schema import Schema
from repro.errors import SchemaError
from repro.storage.constants import INVALID_XID, TUPLE_HEADER_SIZE

_HEADER = struct.Struct("<QQQII")
assert _HEADER.size == TUPLE_HEADER_SIZE

#: ``xmax`` is the second u64 of the header — the one field the
#: no-overwrite system ever rewrites on a stored image.
_XMAX = struct.Struct("<Q")
XMAX_OFFSET = 8


@dataclass(frozen=True, order=True)
class TID:
    """Tuple identifier: (block number, slot) within a relation file."""

    blockno: int
    slot: int

    def __repr__(self) -> str:
        return f"({self.blockno},{self.slot})"


@dataclass
class HeapTuple:
    """A decoded tuple version."""

    xmin: int
    xmax: int
    oid: int
    values: tuple
    tid: TID | None = None

    def value(self, schema: Schema, name: str) -> Any:
        """Attribute *name*'s value under *schema*."""
        return self.values[schema.position(name)]


def serialize_tuple(schema: Schema, xmin: int, oid: int,
                    values: tuple, xmax: int = INVALID_XID) -> bytes:
    """Header + record bytes for a new tuple version."""
    record = schema.encode(values)
    header = _HEADER.pack(xmin, xmax, oid, 0, len(values))
    return header + record


def deserialize_tuple(schema: Schema, data,
                      tid: TID | None = None) -> HeapTuple:
    """Decode an on-page tuple image.

    *data* may be ``bytes`` or a ``memoryview`` into a page buffer; the
    record body is decoded without copying it first (the decoded values
    own their storage, so the result never aliases the page).
    """
    if len(data) < TUPLE_HEADER_SIZE:
        raise SchemaError(
            f"tuple image of {len(data)} bytes is shorter than the header")
    xmin, xmax, oid, _flags, natts = _HEADER.unpack_from(data, 0)
    if natts != len(schema):
        raise SchemaError(
            f"tuple has {natts} attributes, schema expects {len(schema)}")
    if not isinstance(data, memoryview):
        data = memoryview(data)
    values = schema.decode(data[TUPLE_HEADER_SIZE:])
    return HeapTuple(xmin=xmin, xmax=xmax, oid=oid, values=values, tid=tid)


def read_stamps(data) -> tuple[int, int, int]:
    """Fast path: (xmin, xmax, oid) without decoding the record body.

    Works on ``bytes`` or a ``memoryview`` of the on-page image.
    """
    xmin, xmax, oid, _flags, _natts = _HEADER.unpack_from(data, 0)
    return xmin, xmax, oid


def xmax_patch(xmax: int) -> bytes:
    """The 8-byte header patch that stamps *xmax* on a stored image.

    Written at :data:`XMAX_OFFSET` via ``SlottedPage.patch_item`` — the
    in-place equivalent of :func:`stamp_xmax` without copying the image.
    """
    return _XMAX.pack(xmax)


def stamp_xmax(data: bytes, xmax: int) -> bytes:
    """A copy of the tuple image with *xmax* written into the header.

    This is the single in-place mutation the no-overwrite system performs:
    marking a version as superseded.
    """
    xmin, _old_xmax, oid, flags, natts = _HEADER.unpack_from(data, 0)
    return _HEADER.pack(xmin, xmax, oid, flags, natts) + data[TUPLE_HEADER_SIZE:]
