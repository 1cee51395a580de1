"""Binary encoding of atoms into physical records.

Physical records are *byte strings of variable length* (paper, 3.2).  The
encoding is self-describing (tag + payload per value) so that partitions —
records holding only an attribute subset — and cluster records can be
decoded without consulting the schema.  An encoded atom is a small
dictionary image::

    u8  tag ATOM
    u16 attribute count
    per attribute: name (STR), value (tagged)

All integers little-endian; strings UTF-8 with u32 length prefixes.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import AccessError
from repro.mad.types import Surrogate

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_TAG_BOOL_TRUE = 4
_TAG_BOOL_FALSE = 5
_TAG_BYTES = 6
_TAG_LIST = 7
_TAG_DICT = 8
_TAG_SURROGATE = 9
_TAG_ATOM = 10

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")


def _encode_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NULL)
    elif isinstance(value, bool):
        out.append(_TAG_BOOL_TRUE if value else _TAG_BOOL_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        out += _I64.pack(value)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out += _F64.pack(value)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR)
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        out += _U32.pack(len(value))
        out += bytes(value)
    elif isinstance(value, Surrogate):
        raw = value.atom_type.encode("utf-8")
        out.append(_TAG_SURROGATE)
        out += _U16.pack(len(raw))
        out += raw
        out += _I64.pack(value.number)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _U32.pack(len(value))
        for item in value:
            _encode_value(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _U32.pack(len(value))
        for key in value:
            if not isinstance(key, str):
                raise AccessError(f"record field name must be str, got {key!r}")
            _encode_value(key, out)
            _encode_value(value[key], out)
    else:
        raise AccessError(f"value {value!r} of type {type(value).__name__} "
                          f"is not encodable")


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == _TAG_NULL:
        return None, pos
    if tag == _TAG_BOOL_TRUE:
        return True, pos
    if tag == _TAG_BOOL_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return _I64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_FLOAT:
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _TAG_STR:
        length = _U32.unpack_from(data, pos)[0]
        pos += 4
        return data[pos:pos + length].decode("utf-8"), pos + length
    if tag == _TAG_BYTES:
        length = _U32.unpack_from(data, pos)[0]
        pos += 4
        return bytes(data[pos:pos + length]), pos + length
    if tag == _TAG_SURROGATE:
        name_len = _U16.unpack_from(data, pos)[0]
        pos += 2
        atom_type = data[pos:pos + name_len].decode("utf-8")
        pos += name_len
        number = _I64.unpack_from(data, pos)[0]
        return Surrogate(atom_type, number), pos + 8
    if tag == _TAG_LIST:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return items, pos
    if tag == _TAG_DICT:
        count = _U32.unpack_from(data, pos)[0]
        pos += 4
        record: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _decode_value(data, pos)
            value, pos = _decode_value(data, pos)
            record[key] = value
        return record, pos
    raise AccessError(f"corrupt record: unknown value tag {tag} at byte {pos - 1}")


def encode_atom(values: dict[str, Any]) -> bytes:
    """Encode an attribute-value dict into a physical-record byte string."""
    out = bytearray()
    out.append(_TAG_ATOM)
    out += _U16.pack(len(values))
    for name, value in values.items():
        _encode_value(name, out)
        _encode_value(value, out)
    return bytes(out)


def decode_atom(data: bytes) -> dict[str, Any]:
    """Decode a physical record back into an attribute-value dict."""
    if not data or data[0] != _TAG_ATOM:
        raise AccessError("corrupt record: missing atom tag")
    count = _U16.unpack_from(data, 1)[0]
    pos = 3
    values: dict[str, Any] = {}
    for _ in range(count):
        name, pos = _decode_value(data, pos)
        value, pos = _decode_value(data, pos)
        values[name] = value
    if pos != len(data):
        raise AccessError(
            f"corrupt record: {len(data) - pos} trailing bytes"
        )
    return values


def copy_values(values: dict[str, Any]) -> dict[str, Any]:
    """A caller-owned copy of decoded ``values``.

    The dict and every list or dict nested in it are new; scalars,
    strings, bytes and surrogates are immutable and shared.  Decoded
    records are memoised on their page (:meth:`repro.storage.page.Page
    .decoded`), so each reader gets such a copy and may change it freely.
    """
    out = values.copy()
    for name, value in values.items():
        kind = type(value)
        if kind is list:
            out[name] = _copy_list(value)
        elif kind is dict:
            out[name] = copy_values(value)
    return out


def _copy_list(items: list[Any]) -> list[Any]:
    for item in items:
        if type(item) is list or type(item) is dict:
            return [_copy_list(x) if type(x) is list
                    else copy_values(x) if type(x) is dict else x
                    for x in items]
    return items[:]


def encoded_size(values: dict[str, Any]) -> int:
    """Size in bytes of the encoded form of ``values``."""
    return len(encode_atom(values))
