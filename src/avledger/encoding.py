"""Canonical byte encoding primitives.

Every hashed or persisted structure in this package is serialized through
these helpers. The encoding is deterministic and injective per type:
fields are written in declared order, integers are fixed-width big-endian,
floats are big-endian IEEE 754 doubles, and text / byte strings / lists
carry a u32 length prefix. Two distinct values of the same type therefore
never encode to the same bytes, and decode(encode(x)) == x.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable, Optional, TypeVar

from .errors import LedgerFormatError

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
