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

The record codec compiles each layout, and each field run a digest packs,
to one straight-line Python function the first time it is used, the way
dataclasses generates __init__. Nested records are inlined, and each run
of consecutive fixed-width values (numbers, booleans, enum tags, fixed-size
byte strings, and the length prefixes before variable ones) becomes one
precompiled struct call. A list is read one item at a time, and the
record a switch picks is found through a dict. Reads walk (data, offset);
writes append to one bytearray. A slotted record is read without its
__init__: object.__new__, then one slot store per field.

Every frozen record is declared with frozen(), which compiles its
__init__ from the same slot stores, so building a record costs one bound
store per field instead of one object.__setattr__ call per field.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import struct
from typing import Any, Callable, Mapping, Optional

from .errors import LedgerFormatError, MalformedBody


# --- field codecs ---------------------------------------------------------------

class Codec:
    """How one field value goes on the wire. `fmt` is the struct format of
    a fixed-width value's bytes (None for a variable-width one); the record
    codec packs runs of fixed-width values together.

    emit_write adds the code that writes the value of the Python expression
    `value`; emit_read adds the code that reads one and returns an
    expression for it.
    """

    fmt: Optional[str] = None

    def emit_write(self, code: "_Source", value: str) -> None:
        raise NotImplementedError

    def emit_read(self, code: "_Source") -> str:
        raise NotImplementedError


class Number(Codec):
    """A fixed-width number, laid out by one struct format."""

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt

    def emit_write(self, code: "_Source", value: str) -> None:
        code.pack(self.fmt, value)

    def emit_read(self, code: "_Source") -> str:
        return code.unpack(self.fmt)


class _Decoding(dict):
    """Wire value to value; a wire value not in the map raises the domain
    error that `refuse` makes of it."""

    __slots__ = ("refuse",)

    def __init__(self, pairs: dict, refuse: Callable[[int], Exception]) -> None:
        super().__init__(pairs)
        self.refuse = refuse

    def __missing__(self, raw: int):
        raise self.refuse(raw)


U8 = Number("B")
U32 = Number("I")
F64 = Number("d")
_FLAGS = _Decoding({0: False, 1: True}, lambda flag: LedgerFormatError(f"bad boolean byte {flag}"))


def _not_bool(value) -> None:
    raise ValueError(f"boolean must be True or False, got {value!r}")


def _wrong_size(value, size: int) -> None:
    raise ValueError(f"expected {size} bytes, got {len(value)}")


class Boolean(Codec):
    """One byte, 0 or 1; only True and False encode."""

    fmt = U8.fmt

    def emit_write(self, code: "_Source", value: str) -> None:
        flag = code.bind(value)
        code.aside(f"if type({flag}) is not bool: {code.ref(_not_bool)}({flag})")
        code.pack(self.fmt, flag)

    def emit_read(self, code: "_Source") -> str:
        return code.lookup(_FLAGS, code.unpack(self.fmt))


class Fixed(Codec):
    """A byte string of exactly `size` bytes, with no length prefix."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.fmt = f"{size}s"

    def emit_write(self, code: "_Source", value: str) -> None:
        raw = code.bind(value)
        # struct pads or cuts an "Ns" value silently, so the size is checked.
        code.aside(f"if len({raw}) != {self.size}: {code.ref(_wrong_size)}({raw}, {self.size})")
        code.pack(self.fmt, raw)

    def emit_read(self, code: "_Source") -> str:
        return code.unpack(self.fmt)


class Blob(Codec):
    """A byte string after its u32 length."""

    def emit_write(self, code: "_Source", value: str) -> None:
        raw = code.bind(value)
        code.pack(U32.fmt, f"len({raw})")
        code.line(f"w += {raw}")

    def emit_read(self, code: "_Source") -> str:
        size = code.unpack(U32.fmt)
        raw = code.name()
        code.line(f"{raw} = data[at:at + {size}]")
        code.line(f"if len({raw}) != {size}: {code.ref(_short)}(data, at, (({size}, None),))")
        code.line(f"at += {size}")
        return raw


def _bad_text(exc: UnicodeDecodeError) -> None:
    raise LedgerFormatError(f"bad utf-8 in text field: {exc}") from None


class Text(Blob):
    """A string as the blob of its UTF-8 bytes."""

    def emit_write(self, code: "_Source", value: str) -> None:
        super().emit_write(code, f"{value}.encode('utf-8')")

    def emit_read(self, code: "_Source") -> str:
        raw = super().emit_read(code)
        text = code.name()
        code.line(f"try: {text} = {raw}.decode('utf-8')")
        code.line(f"except UnicodeDecodeError as exc: {code.ref(_bad_text)}(exc)")
        return text


BOOLEAN = Boolean()
BLOB = Blob()
TEXT = Text()


@functools.cache
def fixed(size: int) -> Fixed:
    return Fixed(size)


class items(Codec):
    """A u32 count, then that many codec values; decoded as a tuple."""

    def __init__(self, codec) -> None:
        self.codec = _codec(codec)

    def emit_write(self, code: "_Source", value: str) -> None:
        values = code.bind(value)
        code.pack(U32.fmt, f"len({values})")
        one = code.name()
        with code.block(f"for {one} in {values}:"):
            self.codec.emit_write(code, one)

    def emit_read(self, code: "_Source") -> str:
        count = code.unpack(U32.fmt)
        values = code.name()
        code.line(f"{values} = []")
        with code.block(f"for _ in range({count}):"):
            code.line(f"{values}.append({self.codec.emit_read(code)})")
        return f"tuple({values})"


def _bad_optional(flag: int) -> None:
    raise LedgerFormatError(f"bad optional tag {flag}")


class optional(Codec):
    """A flag byte, 0 for None or 1 before the codec value."""

    def __init__(self, codec) -> None:
        self.codec = _codec(codec)

    def emit_write(self, code: "_Source", value: str) -> None:
        value = code.bind(value)
        with code.block(f"if {value} is None:"):
            code.pack(U8.fmt, "0")
        with code.block("else:"):
            code.pack(U8.fmt, "1")
            self.codec.emit_write(code, value)

    def emit_read(self, code: "_Source") -> str:
        flag = code.unpack(U8.fmt)
        value = code.name()
        with code.block(f"if {flag} == 1:"):
            code.line(f"{value} = {self.codec.emit_read(code)}")
        with code.block("else:"):
            code.line(f"if {flag}: {code.ref(_bad_optional)}({flag})")
            code.line(f"{value} = None")
        return value


class WireTable(Codec):
    """An enum's one-byte wire tags, and the reverse map that decodes them."""

    fmt = U8.fmt

    def __init__(self, what: str, tags: dict) -> None:
        self.tags = tags
        self.members = _Decoding(
            {code: member for member, code in tags.items()},
            lambda tag: MalformedBody(f"unknown {what} tag {tag}"),
        )

    def emit_write(self, code: "_Source", value: str) -> None:
        code.pack(self.fmt, f"{code.ref(self.tags)}[{value}]")

    def emit_read(self, code: "_Source") -> str:
        return code.lookup(self.members, code.unpack(self.fmt))


class Switch(Codec):
    """The codec of a field whose layout an earlier field's value picks:
    `on` names that field, and `cases` maps each of its values to a record
    class. The chosen record's compiled codec is found through a dict."""

    def __init__(self, on: str, cases: Mapping[Any, type]) -> None:
        self.on = on
        self.at = -1  # index of the `on` field, set by the record that holds this
        self.cases = {tag: layout(cls) for tag, cls in cases.items()}

    @functools.cached_property
    def writers(self) -> dict:
        return {tag: _writer(record.cls, 0, None) for tag, record in self.cases.items()}

    @functools.cached_property
    def readers(self) -> dict:
        return {tag: _reader(record.cls) for tag, record in self.cases.items()}

    def emit_write(self, code: "_Source", value: str, on: str) -> None:
        code.line(f"w += {code.ref(self.writers)}[{on}]({value})")

    def emit_read(self, code: "_Source", on: str) -> str:
        value = code.name()
        code.line(f"{value}, at = {code.ref(self.readers)}[{on}](data, at)")
        return value


def wire(codec, **field_args) -> Any:
    """Declares a dataclass field with its wire codec."""
    return dataclasses.field(metadata={"wire": _codec(codec)}, **field_args)


def _codec(codec):
    # A record class stands for its layout wherever a codec is expected.
    return layout(codec) if isinstance(codec, type) else codec


# --- the record codec -------------------------------------------------------------

class Record(Codec):
    """The layout of a wire record: its dataclass fields, in declared order,
    each with the codec wire() gave it. A record is itself a field codec,
    fixed-width when all its fields are."""

    def __init__(self, cls: type) -> None:
        fields = dataclasses.fields(cls)
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.codecs = tuple(f.metadata["wire"] for f in fields)
        for codec in self.codecs:
            if isinstance(codec, Switch):
                codec.at = self.names.index(codec.on)
        formats = [codec.fmt for codec in self.codecs]
        self.fmt = None if None in formats else "".join(formats)

    def emit_write(self, code: "_Source", value: str) -> None:
        value = code.bind(value)
        self.emit_fields_write(code, [f"{value}.{name}" for name in self.names])

    def emit_read(self, code: "_Source") -> str:
        return f"{code.ref(_builder(self.cls))}({', '.join(self.emit_fields_read(code))})"

    def emit_fields_write(self, code: "_Source", values: list, start: int = 0) -> None:
        """Writes `values` as the fields from index `start` on."""
        for codec, value in zip(self.codecs[start:], values):
            if isinstance(codec, Switch):
                codec.emit_write(code, value, on=values[codec.at - start])
            else:
                codec.emit_write(code, value)

    def emit_fields_read(self, code: "_Source", start: int = 0) -> list:
        """Reads the fields from index `start` to the end."""
        values: list = []
        for codec in self.codecs[start:]:
            if isinstance(codec, Switch):
                values.append(codec.emit_read(code, on=values[codec.at - start]))
            else:
                values.append(codec.emit_read(code))
        return values


def _truncated(size: int, at: int, have: int) -> LedgerFormatError:
    return LedgerFormatError(f"truncated record: wanted {size} bytes at offset {at}, have {have}")


def _short(data: bytes, at: int, fields: tuple) -> None:
    """Raises the error of the fixed-width `fields`, (width, decoding table
    or None) each, read from `at` past the end of data: that of the first
    field that overruns data, unless a one-byte field before it holds a
    value its table refuses, as reading one field at a time would find."""
    have = len(data)
    for width, table in fields:
        if at + width > have:
            break
        if table is not None:
            table[data[at]]
        at += width
    raise _truncated(width, at, have - at)


def _trailing(data: bytes, at: int) -> None:
    raise LedgerFormatError(f"{len(data) - at} trailing bytes after record")


class _Source:
    """The Python source of one generated codec function, built field by
    field. Fixed-width values collect in a pending run that becomes one
    struct call when any other code is added. A read unpacks the run from
    `data` at `at` and advances `at`; a write packs it onto bytearray `w`.
    Objects the code uses are bound as globals of the function."""

    def __init__(self, reading: bool) -> None:
        self.reading = reading
        self.env: dict = {}
        self.refs: dict = {}
        self.lines: list = []
        self.depth = 1
        self.count = 0
        self._reset_run()

    def _reset_run(self) -> None:
        self.formats: list = []  # each pending field's struct format
        self.run: list = []  # write: each field's value; read: its name
        self.after: list = []  # read: lookups bound once the run is read
        self.tables: dict = {}  # read: the table that decodes a field's name

    def name(self) -> str:
        self.count += 1
        return f"x{self.count}"

    def ref(self, obj) -> str:
        """The global name under which the function sees obj."""
        if id(obj) not in self.refs:
            self.refs[id(obj)] = name = f"k{len(self.refs)}"
            self.env[name] = obj
        return self.refs[id(obj)]

    def aside(self, text: str) -> None:
        """Adds a statement that neither reads nor writes wire bytes."""
        self.lines.append("    " * self.depth + text)

    def line(self, text: str) -> None:
        """Adds a statement after the pending run."""
        self.flush()
        self.aside(text)

    def bind(self, value: str) -> str:
        """A name for the expression `value`, evaluated once."""
        if value.isidentifier():
            return value
        name = self.name()
        self.aside(f"{name} = {value}")
        return name

    @contextlib.contextmanager
    def block(self, header: str):
        self.line(header)
        self.depth += 1
        yield
        self.flush()
        self.depth -= 1

    def pack(self, fmt: str, value: str) -> None:
        self.formats.append(fmt)
        self.run.append(value)

    def unpack(self, fmt: str) -> str:
        name = self.name()
        self.formats.append(fmt)
        self.run.append(name)
        return name

    def lookup(self, table: _Decoding, raw: str) -> str:
        """The value that `table` decodes from the raw value `raw`."""
        self.tables[raw] = self.ref(table)
        name = self.name()
        self.after.append(f"{name} = {self.tables[raw]}[{raw}]")
        return name

    def flush(self) -> None:
        if not self.formats:
            return
        layout = struct.Struct(">" + "".join(self.formats))
        run = ", ".join(self.run)
        if self.reading:
            # The (width, decoding table) of each field, as _short takes them.
            fields = "".join(
                f"({struct.calcsize('>' + fmt)}, {self.tables.get(name)}), "
                for fmt, name in zip(self.formats, self.run)
            )
            self.aside(f"try: {run}, = {self.ref(layout)}.unpack_from(data, at)")
            self.aside(f"except {self.ref(struct.error)}: {self.ref(_short)}(data, at, ({fields}))")
            self.aside(f"at += {layout.size}")
            for text in self.after:
                self.aside(text)
        else:
            self.aside(f"w += {self.ref(layout)}.pack({run})")
        self._reset_run()


def _compile(params: str, reading: bool, emit: Callable[[_Source], str]) -> Callable:
    """Generates `def f(params)` from the code `emit` adds; emit returns
    the expression the function returns."""
    code = _Source(reading)
    code.line(f"return {emit(code)}")
    source = f"def f({params}):\n" + "\n".join(code.lines) + "\n"
    exec(source, code.env)
    return code.env["f"]


@functools.cache
def layout(cls: type) -> Record:
    return Record(cls)


@functools.cache
def _writer(cls: type, start: int = 0, stop: Optional[int] = None, of_record: bool = True) -> Callable:
    """f(value) -> the canonical bytes of record value's fields [start:stop];
    or, not of_record, f(*values) -> those of values taken as the fields
    from index start on."""
    names = layout(cls).names[start:stop]
    values = [f"v.{name}" for name in names] if of_record else [f"f{i}" for i in range(len(names))]

    def emit(code: _Source) -> str:
        code.aside("w = bytearray()")
        layout(cls).emit_fields_write(code, values, start)
        return "bytes(w)"

    return _compile("v" if of_record else ", ".join(values), False, emit)


@functools.cache
def _reader(cls: type, start: int = 0, of_record: bool = True) -> Callable:
    """f(data, at) -> (the cls record read from offset at, or, not
    of_record, a list of its field values from index start on; the offset
    after it)."""

    def emit(code: _Source) -> str:
        values = ", ".join(layout(cls).emit_fields_read(code, start))
        return f"{code.ref(_builder(cls))}({values}), at" if of_record else f"[{values}], at"

    return _compile("data, at", True, emit)


# --- record construction ----------------------------------------------------------

def _emit_stores(code: _Source, cls: type, record: str, values: list) -> None:
    """Sets each field of `record` to its value expression, in declared
    order, through the field's slot descriptor (its __set__, bound once,
    is not guarded by the frozen __setattr__); then runs __post_init__
    where the class has one."""
    for f, value in zip(dataclasses.fields(cls), values):
        code.aside(f"{code.ref(vars(cls)[f.name].__set__)}({record}, {value})")
    if hasattr(cls, "__post_init__"):
        code.aside(f"{record}.__post_init__()")


@functools.cache
def _builder(cls: type) -> Callable:
    """f(*field values) -> the cls record, made as its __init__ makes it,
    without the call: object.__new__, then the stores __init__ makes."""
    params = [f"f{i}" for i in range(len(dataclasses.fields(cls)))]

    def emit(code: _Source) -> str:
        code.aside(f"v = {code.ref(object.__new__)}({code.ref(cls)})")
        _emit_stores(code, cls, "v", params)
        return "v"

    return _compile(", ".join(params), False, emit)


class _Factory:
    """The default of a parameter whose field has a default_factory."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


@functools.cache
def _constructor(cls: type) -> Callable:
    """The __init__ of a frozen record: the signature and defaults of the
    one dataclasses writes, and the stores that _builder makes."""
    written = cls.__init__
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    args = written.__code__.co_varnames[:written.__code__.co_argcount]
    if list(args) != ["self", *names] or written.__code__.co_kwonlyargcount:
        raise TypeError(f"{cls.__name__}: a frozen record takes each field, and only its fields, by position")

    def emit(code: _Source) -> str:
        values = [
            name if f.default_factory is dataclasses.MISSING
            else f"{code.ref(f.default_factory)}() if {name} is {code.ref(_FACTORY)} else {name}"
            for f, name in zip(fields, names)
        ]
        _emit_stores(code, cls, "self", values)
        return "None"

    init = _compile(", ".join(args), False, emit)
    init.__defaults__ = tuple(
        f.default if f.default_factory is dataclasses.MISSING else _FACTORY
        for f in fields
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ) or None
    init.__name__, init.__qualname__ = written.__name__, written.__qualname__
    init.__module__, init.__annotations__ = cls.__module__, written.__annotations__
    return init


def frozen(cls: type) -> type:
    """@dataclass(frozen=True, slots=True), with the __init__ compiled by
    the emitter the decoders build records with: one bound slot store per
    field, where dataclasses looks up object.__setattr__ for each. The
    signature, the defaults, __post_init__, eq, hash, repr, replace and
    copy stay those of the dataclass."""
    cls = dataclasses.dataclass(cls, frozen=True, slots=True)
    cls.__init__ = _constructor(cls)
    return cls


def _exactly(read: Callable, data: bytes):
    value, at = read(data, 0)
    if at != len(data):
        _trailing(data, at)
    return value


def pack(cls: type, *values, start: int = 0) -> bytes:
    """The canonical bytes of values taken as cls's fields from `start` on:
    a whole record, or any run of its fields."""
    return _writer(cls, start, start + len(values), False)(*values)


def encode(value, start: int = 0, stop: Optional[int] = None) -> bytes:
    """The canonical bytes of a record, or of its fields [start:stop]."""
    return _writer(type(value), start, stop)(value)


def unpack(cls: type, data: bytes, start: int = 0) -> list:
    """Decodes data holding exactly cls's fields from `start` on."""
    return _exactly(_reader(cls, start, False), data)


def decode(cls: type, data: bytes):
    """Decodes data holding exactly one cls record."""
    return _exactly(_reader(cls), data)
