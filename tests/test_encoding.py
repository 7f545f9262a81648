"""Round-trip and injectivity properties of the canonical byte encoding."""

import pytest
from hypothesis import given, strategies as st

from avledger.encoding import Reader, Writer, encode
from avledger.errors import LedgerFormatError
from avledger.txmodel import MaintenanceBody

finite_f64 = st.floats(allow_nan=False)
small_blob = st.binary(max_size=48)
small_text = st.text(max_size=32)


@given(
    st.integers(0, 2**8 - 1),
    st.integers(0, 2**32 - 1),
    finite_f64,
    st.booleans(),
    st.binary(min_size=32, max_size=32),
    small_blob,
    small_text,
)
def test_scalar_round_trip(a, c, f, flag, fixed, blob, text):
    w = Writer()
    w.u8(a).u32(c).f64(f).boolean(flag).fixed(fixed, 32).blob(blob).text(text)
    r = Reader(w.getvalue())
    assert r.u8() == a
    assert r.u32() == c
    assert r.f64() == f
    assert r.boolean() == flag
    assert r.fixed(32) == fixed
    assert r.blob() == blob
    assert r.text() == text
    r.expect_end()


@given(st.lists(small_blob, max_size=8))
def test_items_round_trip(blobs):
    w = Writer()
    w.items(blobs, lambda wr, b: wr.blob(b))
    r = Reader(w.getvalue())
    assert r.items(lambda rd: rd.blob()) == blobs
    r.expect_end()


@given(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_optional_round_trip(value):
    w = Writer()
    w.optional(value, lambda wr, v: wr.u32(v))
    r = Reader(w.getvalue())
    assert r.optional(lambda rd: rd.u32()) == value
    r.expect_end()


def _encode_tuple(values) -> bytes:
    n, f, blob, text, flag = values
    w = Writer()
    w.u32(n).f64(f).blob(blob).text(text).boolean(flag)
    return w.getvalue()


value_tuples = st.tuples(
    st.integers(0, 2**32 - 1), finite_f64, small_blob, small_text, st.booleans()
)


@given(value_tuples, value_tuples)
def test_encoding_is_injective(a, b):
    """encode(a) == encode(b) implies a == b on mixed-field tuples.

    0.0 and -0.0 compare equal as floats but encode to distinct IEEE
    doubles, so comparison happens on the bit level for the float slot.
    """
    if _encode_tuple(a) == _encode_tuple(b):
        import struct

        assert a[0] == b[0] and a[2] == b[2] and a[3] == b[3] and a[4] == b[4]
        assert struct.pack(">d", a[1]) == struct.pack(">d", b[1])


@given(small_blob)
def test_decode_encode_decode_is_stable(blob):
    w = Writer()
    w.blob(blob)
    first = Reader(w.getvalue()).blob()
    w2 = Writer()
    w2.blob(first)
    assert w2.getvalue() == w.getvalue()


def test_truncated_read_raises():
    data = Writer().u32(7).getvalue()
    r = Reader(data[:2])
    with pytest.raises(LedgerFormatError):
        r.u32()


def test_trailing_bytes_detected():
    r = Reader(Writer().u8(1).u8(2).getvalue())
    r.u8()
    with pytest.raises(LedgerFormatError):
        r.expect_end()


def test_out_of_range_integers_rejected():
    w = Writer()
    with pytest.raises(ValueError):
        w.u8(256)
    with pytest.raises(ValueError):
        w.u32(2**32)


def test_fixed_length_enforced():
    w = Writer()
    with pytest.raises(ValueError):
        w.fixed(b"\x00" * 31, 32)


@pytest.mark.parametrize("flag", [2, 0, 1.0, "yes", None])
def test_boolean_takes_only_true_or_false(flag):
    with pytest.raises(ValueError, match="boolean must be True or False"):
        Writer().boolean(flag)
    with pytest.raises(ValueError, match="boolean must be True or False"):
        encode(MaintenanceBody(b"\x00" * 32, flag, "st-0", 1.0))
