"""Reading input files: JSON configs, scenarios and sidecar tables, and line tables.

This module alone knows how an input file is read and how a bad value in
one is named. Every failure is a ConfigError: a file that cannot be read,
is not UTF-8 or is not JSON names the file, a bad row of a line table reads
`FILE line N: ...`, a value of the wrong JSON type or outside its set
reads `WHERE: KEY must be KIND, got VALUE`, and a key an object may not hold
reads `WHERE: KEY is not a NOUN key (one of A, B, ...)`. A value's JSON type
is its Python type exactly, so a bool is no integer.
"""

from __future__ import annotations

import csv
import io
import json
import re
import reprlib
from importlib import resources
from itertools import islice


class ConfigError(ValueError):
    """An input file missing or unreadable, a value in it malformed, or an
    output path that cannot be written."""


# What a JSON value of each Python type is called in an error message.
_KINDS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
          list: "a list", dict: "an object"}


def load_packaged_json(name: str):
    """A JSON data file packaged with the program."""
    return json.loads(resources.files("ics_scope.data").joinpath(name).read_text())


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its members, refusing a key named twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return obj


def read_file(path) -> bytes:
    """The bytes of the file at path."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot read {path}: {exc}") from None


def read_json(path):
    """The JSON value a file holds; an object may not repeat a key."""
    data = read_file(path)
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None


def writable(out, make):
    """make(), which creates the output path out or opens it for writing;
    the OSError it raises becomes ConfigError 'cannot write OUT: REASON'."""
    try:
        return make()
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from None


def fault(where: str, key: str | None, kind: str, value, detail: str = "") -> ConfigError:
    """The error for a value that is not kind: the value at key, or without
    a key the whole of where. A long value is shortened."""
    name = where if key is None else f"{where}: {key}"
    return ConfigError(f"{name} must be {kind}, got {reprlib.repr(value)}"
                       + (f" ({detail})" if detail else ""))


def typed(value, kind: type, where: str, key: str | None = None, items: type | None = None,
          optional: bool = False):
    """value, when its JSON type is kind (float: a number, an integer
    included) and, for a list, each item's type is items; None as well
    when optional."""
    if optional and value is None:
        return value
    if not (type(value) is kind or kind is float and type(value) is int) or (
            items is not None and not all(type(item) is items for item in value)):
        of = f" of {_KINDS[items].split()[1]}s" if items is not None else ""
        raise fault(where, key, _KINDS[kind] + of, value)
    return value


# The largest AS number: AS numbers are four octets (RFC 6793).
AS_MAX = 2**32 - 1


def as_number(value, where: str, key: str) -> int:
    """value, when it is an integer from 0 to AS_MAX."""
    if not 0 <= typed(value, int, where, key) <= AS_MAX:
        raise fault(where, key, f"an AS number (0 to {AS_MAX})", value)
    return value


def choice(value, allowed, where: str, key: str) -> str:
    """value, when it is one of the strings allowed."""
    if type(value) is not str or value not in allowed:
        raise fault(where, key, f"one of {', '.join(sorted(allowed))}", value)
    return value


def known(raw: dict, keys, where: str, noun: str) -> dict:
    """raw, when each of its keys is one of keys: a misspelt key would
    otherwise be ignored, its value silently replaced by the default."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{where}: {key} is not a {noun} key (one of {', '.join(keys)})")
    return raw


def parsed(parse, value, where: str, key: str, kind: str):
    """parse(value), for a value that parse, raising ValueError, TypeError,
    LookupError or AttributeError, finds is not kind."""
    try:
        return parse(value)
    except (AttributeError, LookupError, TypeError, ValueError) as exc:
        raise fault(where, key, kind, value, str(exc)) from None


class _NotUtf8(Exception):
    """Raised by a line table's line source in place of its first non-UTF-8 line."""


# Comment lines a line table may start with and still load a column at a
# time: printable ASCII or tab after the '#', no '"', which could open a CSV
# field that runs on over the next line, and no '\r', which ends a line.
_HEADER = re.compile(rb'(?:#[\t -!#-~]*+\n)*+')


def line_table(path, canonical, columns, row, delimiter: str | None = None) -> tuple:
    """The columns of a line table, from one read of its file: columns(its
    ASCII text after any leading _HEADER lines), a column at a time in C,
    when the bytes pattern canonical matches all of the file after those
    lines and columns raises no KeyError or ValueError on a value only a row
    can judge; otherwise the columns of row(r) for its rows r in file order,
    () without rows, a line at a time.
    Either way one UTF-8 byte-order mark at the start of the file is dropped.
    Without delimiter a row is a line stripped of surrounding whitespace;
    with one it is a CSV record's list of fields. Blank rows and rows that
    start with '#' are skipped. The first of these in the file is
    a ConfigError naming the file and the line: a row that row refuses with
    ValueError, a record the CSV reader cannot parse, a line not UTF-8."""
    data = read_file(path)
    data = data[3:] if data.startswith(b"\xef\xbb\xbf") else data
    start = _HEADER.match(data).end()
    if canonical.fullmatch(data, start):
        try:
            return columns(data[start:].decode("ascii"))
        except (KeyError, ValueError):
            pass
    number, bad, reader = 0, 0, None

    def lines_before(fh):
        yield from islice(fh, bad - 1)
        raise _NotUtf8

    def stripped(lines):
        nonlocal number
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield line

    try:
        if not data.isascii():
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:  # line breaks split as newline="" splits
                head = data[:exc.start]
                bad = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                              newline="") as text:
            lines = lines_before(text) if bad else text
            if delimiter:
                reader = csv.reader(lines, delimiter=delimiter)
                rows = (fields for fields in reader if fields and not fields[0].startswith("#"))
            else:
                rows = stripped(lines)
            return tuple(zip(*map(row, rows)))
    except _NotUtf8:
        raise ConfigError(f"{path} line {bad}: not UTF-8 text") from None
    except (ValueError, csv.Error) as exc:
        raise ConfigError(f"{path} line {reader.line_num if reader else number}: {exc}") from None
