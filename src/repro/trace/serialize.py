"""Binary trace serialization.

Campaign traces are expensive to produce (a functional simulation) and
cheap to re-analyze (a detector pass), so persisting them pays off when
sweeping detector configurations offline.  The format is a small custom
binary layout with a versioned magic; it is not meant for interchange,
only for faithful round-trips within this library (asserted by unit and
property tests).

Version 3 (current, written by :func:`encode_trace`) is *column-aligned*:
after the header, a small index declares where each fixed-dtype column
section starts, and every section is padded to a 64-byte boundary so a
consumer can construct typed views (``memoryview.cast`` /
``numpy.frombuffer``) directly over the encoded buffer -- the zero-copy
path :func:`view_packed_trace` does exactly that, with no per-column
copy at all::

    header:   magic 'CORDTRC3' | u16 n_threads | u8 hung | i64 seed
              u32 n_events | n_threads * u64 final_icounts | u16 name_len
              | name utf-8
    index:    u8 n_columns (5) | u8 align_log2 (6 -> 64-byte alignment)
              | n_columns * u64 column offsets (from the start of the
              blob; strictly increasing, each aligned)
    sections: zero padding to each declared offset, then the column as
              one contiguous little-endian block:
              thread u16[n] | address u64[n] | flags u8[n]
              | icount u64[n] | value i64[n]
              (flags bit0 = write, bit1 = sync)

The index is validated by recomputation: the declared offsets must equal
the offsets the declared alignment implies, and the buffer must end
exactly at the last section's end, so any bit flip in the index -- and
any truncation anywhere -- raises instead of mis-slicing columns.

Version 2 (same header, columns packed back to back with no index or
padding -- encoding was five ``array.tobytes`` calls) and version 1
(row-major, 23 bytes per event: ``u16 thread | u64 address | u8 flags |
u32 icount | i64 value`` after the same header shape) are still decoded
for old files.

Robustness contract: decoding arbitrary bytes either returns a faithful
trace or raises :class:`~repro.common.errors.LogFormatError` -- never a
raw ``struct.error``/``UnicodeDecodeError`` and never a huge allocation
driven by a corrupt length field (the payload-length check runs before
any column is materialized).  The codec itself carries no checksum, so a
bit flip *inside* a column payload of the right length is undetectable
here; the on-disk store (:mod:`repro.trace.store`) layers a SHA-256
checksummed frame on top for exactly that case.

See ``docs/trace-format.md`` for the full layout and the sweep-cache key
scheme built on top of it.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Union

from repro.common.errors import LogFormatError
from repro.trace.packed import COLUMN_TYPECODES, PackedTrace
from repro.trace.stream import Trace

_MAGIC_V1 = b"CORDTRC1"
_MAGIC_V2 = b"CORDTRC2"
_MAGIC_V3 = b"CORDTRC3"
_HEADER = struct.Struct("<HBqI")
_EVENT_V1 = struct.Struct("<HQBIq")
_NO_SEED = -(1 << 62)
_LITTLE = sys.byteorder == "little"

#: v3 section alignment: 64 bytes (a cache line) relative to the start
#: of the blob, so columns stay aligned for typed views no matter which
#: aligned container (e.g. an mmap-backed store entry) holds them.
V3_ALIGN = 64
_V3_INDEX = struct.Struct("<BB")
_V3_OFFSETS = struct.Struct("<%dQ" % len(COLUMN_TYPECODES))
_ITEMSIZES = tuple(
    array(code).itemsize for _name, code in COLUMN_TYPECODES
)


def _v3_layout(header_len: int, n_events: int, align: int):
    """Column offsets (and total length) for a v3 blob.

    A pure function of the header length, the event count, and the
    alignment -- both the encoder and the decoders derive the layout
    from it, so the on-disk index can be *validated* instead of trusted.
    """
    offsets = []
    position = header_len
    for itemsize in _ITEMSIZES:
        position = -(-position // align) * align
        offsets.append(position)
        position += n_events * itemsize
    return offsets, position


def _column_le_bytes(column, typecode: str) -> bytes:
    """One column as little-endian bytes (columns may be ``array.array``
    or, for buffer-backed traces, read-only ``memoryview`` casts)."""
    if _LITTLE:
        return column.tobytes()
    swapped = array(typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def _encode_header(magic: bytes, packed: PackedTrace) -> bytearray:
    name_bytes = packed.name.encode("utf-8")
    out = bytearray(magic)
    out += _HEADER.pack(
        packed.n_threads,
        1 if packed.hung else 0,
        _NO_SEED if packed.seed is None else packed.seed,
        len(packed),
    )
    out += struct.pack(
        "<%dQ" % packed.n_threads, *packed.final_icounts
    )
    out += struct.pack("<H", len(name_bytes))
    out += name_bytes
    return out


def _decode_header(data, magic_len: int):
    """Decode the shared header, validating as it goes.

    Any way a truncated or bit-flipped buffer can break the header --
    cut-off fixed fields, an icount table or name extending past the end
    of the data, a name that is not UTF-8 -- raises
    :class:`LogFormatError` with a reason, never ``struct.error`` or
    ``UnicodeDecodeError`` (and never an attempt to decode garbage).
    """
    offset = magic_len
    try:
        n_threads, hung, seed, n_events = _HEADER.unpack_from(
            data, offset
        )
        offset += _HEADER.size
        final_icounts = list(
            struct.unpack_from("<%dQ" % n_threads, data, offset)
        )
        offset += 8 * n_threads
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
    except struct.error as exc:
        raise LogFormatError(
            "truncated trace header: %s" % exc
        ) from exc
    if offset + name_len > len(data):
        raise LogFormatError(
            "trace name extends past the end of the data "
            "(need %d bytes at offset %d of %d)"
            % (name_len, offset, len(data))
        )
    try:
        name = bytes(data[offset:offset + name_len]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LogFormatError(
            "trace name is not valid UTF-8: %s" % exc
        ) from exc
    offset += name_len
    return offset, n_events, final_icounts, name, bool(hung), (
        None if seed == _NO_SEED else seed
    )


def encode_packed_trace(packed: PackedTrace) -> bytes:
    """Serialize a packed trace (format v3, aligned column sections)."""
    out = _encode_header(_MAGIC_V3, packed)
    out += _V3_INDEX.pack(
        len(COLUMN_TYPECODES), V3_ALIGN.bit_length() - 1
    )
    header_len = len(out) + _V3_OFFSETS.size
    offsets, _total = _v3_layout(header_len, len(packed), V3_ALIGN)
    out += _V3_OFFSETS.pack(*offsets)
    for column, offset, (_name, code) in zip(
        packed.columns(), offsets, COLUMN_TYPECODES
    ):
        out += b"\x00" * (offset - len(out))
        out += _column_le_bytes(column, code)
    return bytes(out)


def encode_packed_trace_v2(packed: PackedTrace) -> bytes:
    """Serialize in the legacy v2 layout (migration tests, old tools)."""
    out = _encode_header(_MAGIC_V2, packed)
    for column, (_name, code) in zip(packed.columns(), COLUMN_TYPECODES):
        out += _column_le_bytes(column, code)
    return bytes(out)


def decode_packed_trace(
    data: Union[bytes, bytearray, memoryview]
) -> PackedTrace:
    """Deserialize any format version into (owned) columnar form."""
    magic = bytes(data[: len(_MAGIC_V3)])
    if magic == _MAGIC_V3:
        return _decode_v3(data)
    if magic == _MAGIC_V2:
        return _decode_v2(data)
    if magic == _MAGIC_V1:
        return _decode_v1(data)
    raise LogFormatError("not a CORD trace (bad magic)")


def _decode_v3_geometry(data):
    """Validate a v3 buffer's header + index; return the slicing recipe.

    Shared by the eager decoder and the zero-copy view so both enforce
    the same contract: the declared index must match the recomputed
    layout and the buffer must end exactly at the last section's end.
    """
    offset, n_events, final_icounts, name, hung, seed = _decode_header(
        data, len(_MAGIC_V3)
    )
    try:
        n_columns, align_log2 = _V3_INDEX.unpack_from(data, offset)
        declared = _V3_OFFSETS.unpack_from(
            data, offset + _V3_INDEX.size
        )
    except struct.error as exc:
        raise LogFormatError(
            "truncated v3 column index: %s" % exc
        ) from exc
    if n_columns != len(COLUMN_TYPECODES):
        raise LogFormatError(
            "v3 trace declares %d columns, expected %d"
            % (n_columns, len(COLUMN_TYPECODES))
        )
    if align_log2 > 12:
        raise LogFormatError(
            "v3 alignment 2**%d is implausible" % align_log2
        )
    header_len = offset + _V3_INDEX.size + _V3_OFFSETS.size
    offsets, total = _v3_layout(header_len, n_events, 1 << align_log2)
    if list(declared) != offsets:
        raise LogFormatError(
            "v3 column index %r does not match the layout %r its "
            "header implies" % (list(declared), offsets)
        )
    if len(data) != total:
        raise LogFormatError(
            "trace payload is %d bytes, expected %d"
            % (len(data), total)
        )
    return offsets, n_events, final_icounts, name, hung, seed


def _decode_v3(data) -> PackedTrace:
    offsets, n_events, final_icounts, name, hung, seed = (
        _decode_v3_geometry(data)
    )
    packed = PackedTrace(final_icounts, name=name, hung=hung, seed=seed)
    view = memoryview(data)
    for column, offset in zip(packed.columns(), offsets):
        span = n_events * column.itemsize
        column.frombytes(view[offset:offset + span])
        if not _LITTLE:
            column.byteswap()
    return packed


def view_packed_trace(
    data: Union[bytes, bytearray, memoryview], backing=None
) -> PackedTrace:
    """A zero-copy :class:`PackedTrace` over a v3 buffer.

    Columns are read-only typed views (``memoryview.cast``) constructed
    directly over ``data`` -- no pickle, no ``array`` materialization,
    no per-column copy -- so N consumers of one mapped buffer (an
    ``mmap``-backed store entry) share one physical copy of the trace.
    ``backing`` is any object that must stay alive as long as the views
    do (the mmap); the returned trace pins it.

    Only the v3 format can be viewed (v1/v2 sections are unaligned and
    interleaved); on big-endian hosts the little-endian sections cannot
    be aliased either, so both cases fall back to the eager decoder --
    same trace, one copy.  Malformed buffers raise
    :class:`LogFormatError` exactly like the eager path.
    """
    if bytes(data[: len(_MAGIC_V3)]) != _MAGIC_V3 or not _LITTLE:
        return decode_packed_trace(
            data if isinstance(data, (bytes, bytearray)) else bytes(data)
        )
    offsets, n_events, final_icounts, name, hung, seed = (
        _decode_v3_geometry(data)
    )
    view = data if isinstance(data, memoryview) else memoryview(data)
    columns = []
    for offset, (_name, code), itemsize in zip(
        offsets, COLUMN_TYPECODES, _ITEMSIZES
    ):
        span = n_events * itemsize
        columns.append(view[offset:offset + span].cast(code))
    return PackedTrace.from_buffer(
        columns,
        final_icounts,
        name=name,
        hung=hung,
        seed=seed,
        backing=backing if backing is not None else view.obj,
    )


def _decode_v2(data) -> PackedTrace:
    offset, n_events, final_icounts, name, hung, seed = _decode_header(
        data, len(_MAGIC_V2)
    )
    packed = PackedTrace(final_icounts, name=name, hung=hung, seed=seed)
    expected = offset + n_events * sum(
        array(code).itemsize for _name, code in COLUMN_TYPECODES
    )
    if len(data) != expected:
        raise LogFormatError(
            "trace payload is %d bytes, expected %d"
            % (len(data), expected)
        )
    view = memoryview(data)
    for column in packed.columns():
        span = n_events * column.itemsize
        column.frombytes(view[offset:offset + span])
        if not _LITTLE:
            column.byteswap()
        offset += span
    return packed


def _decode_v1(data) -> PackedTrace:
    offset, n_events, final_icounts, name, hung, seed = _decode_header(
        data, len(_MAGIC_V1)
    )
    expected = offset + n_events * _EVENT_V1.size
    if len(data) != expected:
        raise LogFormatError(
            "trace payload is %d bytes, expected %d"
            % (len(data), expected)
        )
    packed = PackedTrace(final_icounts, name=name, hung=hung, seed=seed)
    ta = packed.thread.append
    aa = packed.address.append
    fa = packed.flags.append
    ia = packed.icount.append
    va = packed.value.append
    for thread, address, flags, icount, value in _EVENT_V1.iter_unpack(
        bytes(data[offset:])
    ):
        ta(thread)
        aa(address)
        fa(flags)
        ia(icount)
        va(value)
    return packed


def encode_trace(trace: Union[Trace, PackedTrace]) -> bytes:
    """Serialize a trace (object- or packed-backed) to bytes (v3)."""
    if isinstance(trace, PackedTrace):
        return encode_packed_trace(trace)
    return encode_packed_trace(PackedTrace.from_trace(trace))


def decode_trace(data: Union[bytes, bytearray]) -> Trace:
    """Deserialize a trace produced by :func:`encode_trace` (any version).

    The returned trace is packed-backed: its event-object list
    materializes lazily on first ``.events`` access.
    """
    return Trace.from_packed(decode_packed_trace(data))


def _encode_trace_v1(trace: Trace) -> bytes:
    """Legacy row-major encoder (kept for migration tests only)."""
    packed = PackedTrace.from_trace(trace)
    out = _encode_header(_MAGIC_V1, packed)
    pack = _EVENT_V1.pack
    for thread, address, flags, icount, value in zip(*packed.columns()):
        out += pack(thread, address, flags, icount, value)
    return bytes(out)
