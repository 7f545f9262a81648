"""Canonical byte encoding: primitives, field codecs and the record codec.

Every hashed or persisted structure in this package is serialized through
this module. The encoding is deterministic and injective per type:
fields are written in declared order, integers are fixed-width big-endian,
floats are big-endian IEEE 754 doubles, and text / byte strings / lists
carry a u32 length prefix. Two distinct values of the same type therefore
never encode to the same bytes, and decode(encode(x)) == x.

A wire record is a dataclass whose every field is declared with wire(codec),
so each record states its layout once, beside its definition. The record
codec derives everything else from that statement: encode and decode, and
the digests, each of which covers a run of a record's fields (a tid hashes
a transaction's leading fields, an evidence hash every field before it).
"""

from __future__ import annotations

import dataclasses
import functools
import operator
import struct
from typing import Any, Callable, Iterable, Mapping, Optional, TypeVar

from .errors import LedgerFormatError, MalformedBody

T = TypeVar("T")


class Writer:
    """Accumulates canonical bytes."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> "Writer":
        if not 0 <= value < 2**8:
            raise ValueError(f"u8 out of range: {value}")
        self._buf.append(value)
        return self

    def u32(self, value: int) -> "Writer":
        if not 0 <= value < 2**32:
            raise ValueError(f"u32 out of range: {value}")
        self._buf += value.to_bytes(4, "big")
        return self

    def f64(self, value: float) -> "Writer":
        self._buf += struct.pack(">d", value)
        return self

    def boolean(self, value: bool) -> "Writer":
        self._buf.append(1 if value else 0)
        return self

    def fixed(self, value: bytes, size: int) -> "Writer":
        if len(value) != size:
            raise ValueError(f"expected {size} bytes, got {len(value)}")
        self._buf += value
        return self

    def blob(self, value: bytes) -> "Writer":
        self.u32(len(value))
        self._buf += value
        return self

    def text(self, value: str) -> "Writer":
        return self.blob(value.encode("utf-8"))

    def items(self, values: Iterable[T], encode_one: Callable[["Writer", T], None]) -> "Writer":
        values = list(values)
        self.u32(len(values))
        for v in values:
            encode_one(self, v)
        return self

    def optional(self, value: Optional[T], encode_one: Callable[["Writer", T], None]) -> "Writer":
        if value is None:
            self.u8(0)
        else:
            self.u8(1)
            encode_one(self, value)
        return self

    def raw(self, value: bytes) -> "Writer":
        # No length prefix: only for embedding already-canonical sub-encodings.
        self._buf += value
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Decodes canonical bytes; raises LedgerFormatError on truncation."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise LedgerFormatError(
                f"truncated record: wanted {n} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos:self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def f64(self) -> float:
        return struct.unpack(">d", self._take(8))[0]

    def boolean(self) -> bool:
        flag = self.u8()
        if flag not in (0, 1):
            raise LedgerFormatError(f"bad boolean byte {flag}")
        return flag == 1

    def fixed(self, size: int) -> bytes:
        return self._take(size)

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        raw = self.blob()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LedgerFormatError(f"bad utf-8 in text field: {exc}") from None

    def items(self, decode_one: Callable[["Reader"], T]) -> list[T]:
        count = self.u32()
        return [decode_one(self) for _ in range(count)]

    def optional(self, decode_one: Callable[["Reader"], T]) -> Optional[T]:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise LedgerFormatError(f"bad optional tag {flag}")
        return decode_one(self)

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self.remaining():
            raise LedgerFormatError(f"{self.remaining()} trailing bytes after record")


# --- field codecs ---------------------------------------------------------------

class Codec:
    """How one field value goes on the wire: a writer and a reader."""

    __slots__ = ("write", "read")

    def __init__(self, write: Callable[[Writer, Any], object], read: Callable[[Reader], Any]) -> None:
        self.write = write
        self.read = read


F64 = Codec(Writer.f64, Reader.f64)
U32 = Codec(Writer.u32, Reader.u32)
BOOLEAN = Codec(Writer.boolean, Reader.boolean)
BLOB = Codec(Writer.blob, Reader.blob)
TEXT = Codec(Writer.text, Reader.text)


def fixed(size: int) -> Codec:
    return Codec(lambda w, value: w.fixed(value, size), lambda r: r.fixed(size))


def items(codec) -> Codec:
    """A length-prefixed list of codec values, decoded as a tuple."""
    codec = _codec(codec)
    return Codec(lambda w, values: w.items(values, codec.write), lambda r: tuple(r.items(codec.read)))


def optional(codec) -> Codec:
    codec = _codec(codec)
    return Codec(lambda w, value: w.optional(value, codec.write), lambda r: r.optional(codec.read))


class WireTable:
    """An enum's one-byte wire tags, and the reverse map that decodes them."""

    def __init__(self, what: str, tags: dict) -> None:
        self.what = what
        self.tags = tags
        self._members = {code: member for member, code in tags.items()}

    def write(self, w: Writer, member) -> None:
        w.u8(self.tags[member])

    def read(self, r: Reader):
        tag = r.u8()
        member = self._members.get(tag)
        if member is None:
            raise MalformedBody(f"unknown {self.what} tag {tag}")
        return member


class Switch:
    """The codec of a field whose layout an earlier field's value picks:
    `on` names that field, and `cases` maps each of its values to a record
    class."""

    def __init__(self, on: str, cases: Mapping[Any, type]) -> None:
        self.on = on
        self.at = -1  # index of the `on` field, set by the record that holds this
        self.cases = {tag: layout(cls) for tag, cls in cases.items()}


def wire(codec, **field_args) -> Any:
    """Declares a dataclass field with its wire codec."""
    return dataclasses.field(metadata={"wire": _codec(codec)}, **field_args)


def _codec(codec):
    # A record class stands for its layout wherever a codec is expected.
    return layout(codec) if isinstance(codec, type) else codec


# --- the record codec -------------------------------------------------------------

class Record:
    """The layout of a wire record: its dataclass fields, in declared order,
    each with the codec wire() gave it. A record is itself a field codec."""

    def __init__(self, cls: type) -> None:
        fields = dataclasses.fields(cls)
        names = [f.name for f in fields]
        self.cls = cls
        self.codecs = tuple(f.metadata["wire"] for f in fields)
        switches = [codec for codec in self.codecs if isinstance(codec, Switch)]
        for switch in switches:
            switch.at = names.index(switch.on)
        get = operator.attrgetter(*names)
        self.values = get if len(names) > 1 else lambda value: (get(value),)
        if not switches:
            self.write, self.read = _straight_line(cls, names, self.codecs)

    def write_values(self, w: Writer, values, start: int = 0) -> None:
        """Writes values as the record's fields from index `start` on."""
        for codec, value in zip(self.codecs[start:], values):
            if isinstance(codec, Switch):
                codec = codec.cases[values[codec.at - start]]
            codec.write(w, value)

    def read_values(self, r: Reader, start: int = 0) -> list:
        """Reads the record's fields from index `start` to the end."""
        values: list = []
        for codec in self.codecs[start:]:
            if isinstance(codec, Switch):
                codec = codec.cases[values[codec.at - start]]
            values.append(codec.read(r))
        return values

    # A record without a Switch replaces these two with straight-line code.
    def write(self, w: Writer, value) -> None:
        self.write_values(w, self.values(value))

    def read(self, r: Reader):
        return self.cls(*self.read_values(r))


def _straight_line(cls: type, names: list, codecs: tuple):
    """write(w, value) and read(r) for a record whose field codecs are all
    fixed, generated as one call per field, the way dataclasses generates
    __init__. Records nest, so these run once per sub-record, and a loop
    over the fields there costs about as much as the writes it drives."""
    env = {"cls": cls}
    for i, codec in enumerate(codecs):
        env[f"w{i}"], env[f"r{i}"] = codec.write, codec.read
    exec(
        "def write(w, value):\n"
        + "".join(f"    w{i}(w, value.{name})\n" for i, name in enumerate(names))
        + "def read(r):\n"
        + "    return cls(" + "".join(f"r{i}(r), " for i in range(len(names))) + ")\n",
        env,
    )
    return env["write"], env["read"]


@functools.cache
def layout(cls: type) -> Record:
    return Record(cls)


def field_values(value) -> tuple:
    """A record's field values, in declared order."""
    return layout(type(value)).values(value)


def pack(cls: type, *values, start: int = 0) -> bytes:
    """The canonical bytes of values taken as cls's fields from `start` on:
    a whole record, or any run of its fields."""
    w = Writer()
    layout(cls).write_values(w, values, start)
    return w.getvalue()


def encode(value, start: int = 0, stop: Optional[int] = None) -> bytes:
    """The canonical bytes of a record, or of its fields [start:stop]."""
    return pack(type(value), *field_values(value)[start:stop], start=start)


def unpack(cls: type, data: bytes, start: int = 0) -> list:
    """Decodes data holding exactly cls's fields from `start` on."""
    r = Reader(data)
    values = layout(cls).read_values(r, start)
    r.expect_end()
    return values


def decode(cls: type, data: bytes):
    """Decodes data holding exactly one cls record."""
    return cls(*unpack(cls, data))
