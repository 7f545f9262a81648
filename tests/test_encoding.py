"""Round-trip and injectivity properties of the canonical byte encoding."""

import copy
import dataclasses
import inspect
import struct
from dataclasses import MISSING, dataclass
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from avledger.encoding import (
    BLOB,
    BOOLEAN,
    F64,
    TEXT,
    U8,
    U32,
    decode,
    encode,
    fixed,
    items,
    optional,
    wire,
)
from avledger.errors import LedgerFormatError
from avledger.txmodel import MaintenanceBody

from worldkit import frozen_records

finite_f64 = st.floats(allow_nan=False)
small_blob = st.binary(max_size=48)
small_text = st.text(max_size=32)


@dataclass(frozen=True, slots=True)
class Fields:
    """A wire record with one field of each codec the package declares
    with, so that the record codec is checked here on all of them."""

    small: int = wire(U8)
    count: int = wire(U32)
    real: float = wire(F64)
    flag: bool = wire(BOOLEAN)
    digest: bytes = wire(fixed(32))
    blob: bytes = wire(BLOB)
    text: str = wire(TEXT)
    blobs: tuple = wire(items(BLOB))
    maybe: Optional[int] = wire(optional(U32))


ANY_FIELDS = st.builds(
    Fields,
    st.integers(0, 2**8 - 1),
    st.integers(0, 2**32 - 1),
    finite_f64,
    st.booleans(),
    st.binary(min_size=32, max_size=32),
    small_blob,
    small_text,
    st.lists(small_blob, max_size=8).map(tuple),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
PLAIN = Fields(7, 70_000, -1.5, True, b"\x01" * 32, b"blob", "text", (b"a", b""), 9)


@given(ANY_FIELDS)
def test_scalar_round_trip(value):
    assert decode(Fields, encode(value)) == value


@given(st.lists(small_blob, max_size=8))
def test_items_round_trip(blobs):
    value = dataclasses.replace(PLAIN, blobs=tuple(blobs))
    assert decode(Fields, encode(value)) == value


@given(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_optional_round_trip(maybe):
    value = dataclasses.replace(PLAIN, maybe=maybe)
    assert decode(Fields, encode(value)) == value


def _bits(value: Fields) -> tuple:
    # 0.0 and -0.0 compare equal as floats but encode to distinct IEEE
    # doubles, so the float field is compared on the bit level.
    values = (getattr(value, f.name) for f in dataclasses.fields(value))
    return tuple(struct.pack(">d", v) if isinstance(v, float) else v for v in values)


@given(ANY_FIELDS, ANY_FIELDS)
def test_encoding_is_injective(a, b):
    """encode(a) == encode(b) implies a == b."""
    if encode(a) == encode(b):
        assert _bits(a) == _bits(b)


@given(ANY_FIELDS)
def test_decode_encode_decode_is_stable(value):
    data = encode(value)
    assert encode(decode(Fields, data)) == data


def test_truncated_read_raises():
    data = encode(PLAIN)
    for cut in range(len(data)):
        with pytest.raises(LedgerFormatError, match="truncated"):
            decode(Fields, data[:cut])


def test_trailing_bytes_detected():
    with pytest.raises(LedgerFormatError, match="1 trailing bytes"):
        decode(Fields, encode(PLAIN) + b"\x00")


def test_out_of_range_integers_rejected():
    with pytest.raises(struct.error):
        encode(dataclasses.replace(PLAIN, small=256))
    with pytest.raises(struct.error):
        encode(dataclasses.replace(PLAIN, count=2**32))


@pytest.mark.parametrize("flag", [2, 0, 1.0, "yes", None])
def test_boolean_takes_only_true_or_false(flag):
    with pytest.raises(ValueError, match="boolean must be True or False"):
        encode(MaintenanceBody(b"\x00" * 32, flag, "st-0", 1.0))


# --- compiled record constructors ------------------------------------------------

def _made_by_setattr(cls, values: dict):
    """The record as the __init__ dataclasses writes makes it: one
    object.__setattr__ per field, in declared order."""
    record = object.__new__(cls)
    for f in dataclasses.fields(cls):
        object.__setattr__(record, f.name, values[f.name])
    return record


def _hash(record):
    try:
        return hash(record)
    except TypeError as exc:  # a record holding a dict
        return str(exc)


def _assert_same(record, reference) -> None:
    assert type(record) is type(reference)
    assert record == reference
    assert repr(record) == repr(reference)
    assert _hash(record) == _hash(reference)
    for f in dataclasses.fields(reference):
        assert getattr(record, f.name) == getattr(reference, f.name)


@pytest.mark.parametrize("cls", frozen_records(), ids=lambda cls: cls.__name__)
def test_frozen_record_constructor_sets_what_setattr_would(cls):
    fields = dataclasses.fields(cls)
    # 32-byte values pass every length check a __post_init__ makes.
    values = {f.name: bytes([i + 1]) * 32 for i, f in enumerate(fields)}
    reference = _made_by_setattr(cls, values)
    _assert_same(cls(*values.values()), reference)
    _assert_same(cls(**values), reference)

    given = {f.name: values[f.name] for f in fields if f.default is MISSING and f.default_factory is MISSING}
    defaults = {
        f.name: f.default if f.default_factory is MISSING else f.default_factory()
        for f in fields
        if f.name not in given
    }
    by_default = _made_by_setattr(cls, {**given, **defaults})
    _assert_same(cls(*given.values()), by_default)
    _assert_same(cls(**given), by_default)
    for f in fields:
        if f.default_factory is not MISSING:
            assert getattr(cls(**given), f.name) is not getattr(cls(**given), f.name)
    assert list(inspect.signature(cls).parameters) == [f.name for f in fields]

    record = cls(*values.values())
    first = fields[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, values[first])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, first)
    changed = {**values, first: b"\xee" * 32}
    _assert_same(dataclasses.replace(record, **{first: changed[first]}), _made_by_setattr(cls, changed))
    _assert_same(copy.deepcopy(record), reference)
    _assert_same(copy.copy(record), reference)
