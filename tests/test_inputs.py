"""The line-table reader: on any bytes it yields the rows, in order, and ends
in the error, that the earlier line-by-line reader gave; and each loader
reads its file once."""

import builtins
import csv
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import inputs
from ics_scope.classify import HoneypotSets, RdnsTable, default_scanner_registry
from ics_scope.enrich import load_asn_table, load_geo_table
from ics_scope.inputs import ConfigError, line_table
from test_line_tables import _NEVER, spy_paths


@contextmanager
def _line_by_line_rows(path, delimiter=None):
    """The reader that line_table's row reader replaced, kept as the
    reference: it decodes with surrogateescape, after one leading byte-order
    mark, and checks each line's UTF-8 as the line is read."""
    number = 0

    def lines(fh):
        nonlocal number
        for number, line in enumerate(fh, 1):
            if number == 1 and line.startswith("\ufeff"):
                line = line[1:]
            if not line.isascii():
                line.encode("utf-8")  # fails on a byte surrogateescape kept undecoded
            yield line

    def rows(fh):
        if delimiter:
            for fields in csv.reader(lines(fh), delimiter=delimiter):
                if fields and not fields[0].startswith("#"):
                    yield fields
        else:
            for line in lines(fh):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield line

    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            yield rows(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeEncodeError:
        raise ConfigError(f"{path} line {number}: not UTF-8 text") from None
    except (ValueError, csv.Error) as exc:
        raise ConfigError(f"{path} line {number}: {exc}") from None


def _line_table_rows(path, delimiter, take):
    return line_table(path, _NEVER, None, take, delimiter)


def _reference_rows(path, delimiter, take):
    with _line_by_line_rows(path, delimiter) as rows:
        return tuple(zip(*map(take, rows)))


def _drain(read, path, delimiter):
    """The rows read(path, delimiter, take) hands take before it ends, and
    the ConfigError message it ends in (None without one). take refuses a
    row holding 'bad' with ValueError and makes any other row a row of one
    column, which read returns."""
    seen = []

    def take(row):
        if "bad" in (row if delimiter is None else ",".join(row)):
            raise ValueError(f"refused {row!r}")
        seen.append(row)
        return (row,)

    try:
        columns = read(path, delimiter, take)
    except ConfigError as exc:
        return seen, str(exc)
    assert columns == ((tuple(seen),) if seen else ())
    return seen, None


# Pieces of a table: byte-order marks, whole and cut short, rows, comments,
# blanks, every line end, quoted CSV
# fields that span lines, bytes that are not UTF-8 (also inside a comment or
# a quoted field), UTF-8-encoded surrogates and code points past U+10FFFF,
# and breaks that str.splitlines splits on but newline="" reading does not.
_PIECES = st.sampled_from([
    b"\xef\xbb\xbf", b"\xef\xbb", b"10.0.0.1", b"a,b", b"x, y ,z", b"bad", b"bad,row", b"#", b"# note", b"# caf\xe9",
    b" ", b"\t", b",", b'"', b'"two\nlines"', b'"q\r\n\xffq"', b"\n", b"\r", b"\r\n",
    b"\n\n", b"\r\r\n", b"\xff", b"\xe9", b"\xc3", b"caf\xc3\xa9", b"\xed\xa0\x80",
    b"\xf4\x90\x80\x80", b"\xe2\x82", b"\x00", b"\x85", b"\x0c", b"\x1c",
    "\u2028\u00a0".encode(),
])
_TABLES = st.lists(st.one_of(_PIECES, st.binary(max_size=3)), max_size=40).map(b"".join)


@settings(max_examples=500, deadline=None)
@given(content=_TABLES, delimiter=st.sampled_from([None, ","]))
def test_table_rows_match_the_line_by_line_reader(tmp_path_factory, content, delimiter):
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(content)
    assert (_drain(_line_table_rows, path, delimiter)
            == _drain(_reference_rows, path, delimiter))


@pytest.mark.parametrize("content, line", [
    (b"a\r\nb\rc\nd\xff\n", 4),
    (b"# caf\xe9\n10.0.0.1\n", 1),
    (b'x,"one\r\ntwo\xff"\n', 2),
    (b"\n\n\r\r\n\xed\xa0\x80", 5),
])
def test_the_first_line_that_is_not_utf8_is_named(tmp_path, content, line):
    path = tmp_path / "table.txt"
    path.write_bytes(content)
    assert _drain(_line_table_rows, path, ",")[1] == f"{path} line {line}: not UTF-8 text"


def test_an_earlier_refused_row_wins_over_a_later_bad_byte(tmp_path):
    path = tmp_path / "table.txt"
    path.write_bytes(b"10.0.0.1\nbad\n\xff\n")
    assert _drain(_line_table_rows, path, None) == (["10.0.0.1"], f"{path} line 2: refused 'bad'")


def test_a_unicode_error_of_the_with_block_keeps_its_message(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("10.0.0.1\n")

    def encode(row):
        "\ud800".encode("utf-8")

    with pytest.raises(ConfigError, match="table.txt line 1: 'utf-8' codec can't encode"):
        line_table(path, _NEVER, None, encode)


def test_a_table_is_opened_once(tmp_path, monkeypatch):
    path = tmp_path / "table.txt"
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(inputs, "open", counting_open, raising=False)
    ran = spy_paths(monkeypatch)
    loaders = [(load_asn_table, "10.0.0.0/8 1\n"), (load_geo_table, "10.0.0.0/8,DE\n"),
               (lambda path: RdnsTable.from_csv(path, default_scanner_registry()),
                "10.0.0.1,a.example\n"),
               (lambda path: HoneypotSets.from_files(path, path), "10.0.0.1\n")]
    for load, line in loaders:
        for content, how in ((line, "column"), (line + "# by line\n", "line")):
            path.write_text(content)
            opened.clear()
            ran.clear()
            load(path)
            # The honeypot pair reads its one file as each list.
            assert opened == [path] * len(ran) and set(ran) == {how}, (load, how)
    path.write_bytes(b"10.0.0.1\n10.0.0.2\n")
    opened.clear()
    assert _drain(_line_table_rows, path, None) == (["10.0.0.1", "10.0.0.2"], None)
    assert opened == [path]
