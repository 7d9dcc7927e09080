"""The line-table loaders: a file of canonical lines loads a column at a
time, any other file a line at a time, and either way the table, the
ConfigError and the log records are those of the earlier per-line loaders,
kept here as the references."""

import json
import logging
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import classify, enrich
from ics_scope.capture import int_to_ip, ip_to_int, parse_cidr
from ics_scope.classify import HoneypotSets, RdnsTable
from ics_scope.enrich import LpmTable, load_asn_table, load_geo_table, load_scan_snapshot
from ics_scope.inputs import AS_MAX, ConfigError, line_table

# Matches no file, so that line_table reads every table a row at a time.
_NEVER = re.compile(rb"(?!)")
_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")
_ENRICH_LOG = logging.getLogger("ics_scope.enrich")


def _reference_prefix_table(path, row_value, delimiter=None) -> LpmTable:
    """The per-line prefix-table loader: row_value(row) is a row's prefix
    text and value."""
    table = LpmTable()

    def rows(lines):
        for row in lines:
            prefix, value = row_value(row)
            network, plen = parse_cidr(prefix, strict=False)
            table.add(network, plen, value)

    line_table(path, _NEVER, None, rows, delimiter)
    if table.overridden > 1:
        _ENRICH_LOG.warning("%d more duplicate prefixes overridden in %s",
                            table.overridden - 1, path)
    return table


def _asn_row(line):
    parts = line.split()
    if len(parts) == 2:
        prefix, asn = parts
    elif len(parts) == 3:
        prefix, asn = f"{parts[0]}/{parts[1]}", parts[2]
    else:
        raise ValueError(f"unparseable prefix line: {line!r}")
    if not (asn.isascii() and asn.isdigit()):
        raise ValueError(f"AS number must be ASCII decimal digits, got {asn!r}")
    number = int(asn)
    if number > AS_MAX:
        raise ValueError(f"AS number must be at most {AS_MAX}, got {asn}")
    return prefix, number


def _geo_row(row):
    if len(row) < 2:
        raise ValueError("expected 'prefix,country'")
    prefix, country = row[0].strip(), row[1].strip()
    country = country.upper() if country.isascii() else country
    if not _COUNTRY_RE.match(country):
        raise ValueError(f"invalid country code {country!r} for prefix {prefix}")
    return prefix, country


def _reference_rdns(path) -> RdnsTable:
    mapping = {}

    def rows(lines):
        for row in lines:
            if len(row) < 2:
                raise ValueError("expected 'ip,name'")
            mapping[ip_to_int(row[0].strip())] = row[1].strip()

    line_table(path, _NEVER, None, rows, ",")
    return RdnsTable(mapping)


def _reference_honeypots(all_path, ics_path) -> HoneypotSets:
    hp_all, hp_ics = (line_table(path, _NEVER, None, lambda rows: frozenset(map(ip_to_int, rows)))
                      for path in (all_path, ics_path))
    if not hp_ics <= hp_all:
        extra = sorted(map(int_to_ip, hp_ics - hp_all))[:3]
        raise ConfigError(f"hp_ics {ics_path} must be a subset of hp_all {all_path}, "
                          f"offending entries: {extra}")
    return HoneypotSets(hp_all, hp_ics)


_REFERENCES = {
    load_asn_table: lambda path: _reference_prefix_table(path, _asn_row),
    load_geo_table: lambda path: _reference_prefix_table(path, _geo_row, ","),
    RdnsTable.from_csv: _reference_rdns,
    HoneypotSets.from_files: _reference_honeypots,
}


def spy_paths(monkeypatch) -> list:
    """A list the loaders append to as they load: "column" for a table built
    a column at a time, "line" for one built a line at a time."""
    ran = []

    def spy(path, canonical, columns, rows, *delimiter):
        def by_column(text):
            table = columns(text)
            ran.append("column")
            return table

        def by_line(lines):
            ran.append("line")
            return rows(lines)

        return line_table(path, canonical, by_column, by_line, *delimiter)

    monkeypatch.setattr(enrich, "line_table", spy)
    monkeypatch.setattr(classify, "line_table", spy)
    return ran


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records = []

    def emit(self, record):
        self.records.append((record.name, record.levelname, record.getMessage()))


@contextmanager
def _logged():
    handler = _Records()
    logger = logging.getLogger("ics_scope")
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


def _fields(table):
    if isinstance(table, LpmTable):
        return table._by_len, table._probes, table.overridden
    if isinstance(table, RdnsTable):
        return table.mapping
    return table.hp_all, table.hp_ics


def _outcome(load, *paths):
    """What loading paths gives: the table's fields or the ConfigError's
    text, and the log records, as (logger, level, message)."""
    with _logged() as records:
        try:
            result = _fields(load(*paths))
        except ConfigError as exc:
            result = str(exc)
    return result, records


# Addresses, few enough that prefixes and addresses repeat.
_ADDRESSES = st.one_of(st.sampled_from(["10.0.0.0", "10.0.0.1", "10.1.2.3", "0.0.0.0",
                                        "255.255.255.255"]),
                       st.integers(0, 2**32 - 1).map(int_to_ip))
_LENGTHS = st.one_of(st.sampled_from([0, 8, 24, 32]), st.integers(0, 32))


def _line(*parts):
    """A line of the parts: strategies and constant texts."""
    parts = [part if isinstance(part, st.SearchStrategy) else st.just(part) for part in parts]
    return st.tuples(*parts).map(lambda texts: "".join(map(str, texts)).encode() + b"\n")


# Per table: a canonical line, and lines of every shape the canonical
# pattern refuses or a column refuses (near misses). Each table loads with
# a line or two of these among canonical lines.
_TABLES = {
    load_asn_table: (
        _line(_ADDRESSES, "/", _LENGTHS, " ", st.sampled_from([0, 7, "007", 64500, AS_MAX])),
        [b"# comment\n", b"\n", b"10.0.0.0/8 1\r\n", b"10.0.0.1 5\n", b"10.0.0.0 8 5\n",
         b"10.0.0.0/024 5\n", "10.0.0.0/8 \u0663\n".encode(), b" 10.0.0.0/8 1\n",
         b"10.0.0.0/8 1 2\n", b"10.0.0.0/8\t1\n", b"\xff\n", b"256.0.0.1/8 1\n",
         b"10.0.0.0/33 1\n", b"10.0.0.0/08 1\n", b"10.0.0.0/8 4294967296\n",
         b"1.2.3/8 1\n", b"10.0.0.0/8 1"],
    ),
    load_geo_table: (
        _line(_ADDRESSES, "/", _LENGTHS, ",", st.sampled_from(["DE", "JP"])),
        [b"# comment\n", b"\n", b"10.0.0.0/8,DE\r\n", b"10.0.0.1,DE\n", b"10.0.0.0/8,de\n",
         b'"10.0.0.0/8",DE\n', b"10.0.0.0/8,DE,x\n", "10.0.0.0/8,\u00df\n".encode(),
         b"10.0.0.0/8, DE\n", b"10.0.0.0/8,DEU\n", b"10.0.0.0/8\n", b"\xff\n",
         b"256.0.0.1/8,DE\n", b"10.0.0.0/33,DE\n", b"10.0.0.0/08,DE\n", b"10.0.0.0/024,DE\n",
         b"10.0.0.0/8,JP"],
    ),
    RdnsTable.from_csv: (
        _line(_ADDRESSES, ",", st.sampled_from(["a.example", "scan-1.shodan.io", "x#y!"])),
        [b"# comment\n", b"\n", b"10.0.0.1,a.example\r\n", b'10.0.0.1,"a,b"\n',
         b"10.0.0.1, a.example\n", b"10.0.0.1,a b\n", b"10.0.0.1,a,b\n",
         "10.0.0.1,caf\u00e9\n".encode(), b"10.0.0.1\n", b"10.0.0.1,\n", b" 10.0.0.1,x\n",
         b"\xff\n", b"256.0.0.1,x\n", b"10.0.0.01,x\n", b"10.0.0.1,x"],
    ),
}
_HONEYPOT_LINES = (
    _line(st.sampled_from(["10.0.0.1", "10.0.0.2", "192.0.2.7"])),
    [b"# comment\n", b"\n", b"10.0.0.1\r\n", b" 10.0.0.1\n", b"10.0.0.1/32\n", b"10.0.0.1 x\n",
     b"\xff\n", b"256.0.0.1\n", b"10.0.0\n", b"10.0.0.2"],
)


def _table(data, canonical, odd) -> bytes:
    """A table's bytes: canonical lines with up to two odd ones among them,
    without its last line end now and then."""
    lines = data.draw(st.lists(canonical, max_size=12))
    for line in data.draw(st.lists(st.sampled_from(odd), max_size=2)):
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    content = b"".join(lines)
    if content.endswith(b"\n") and data.draw(st.sampled_from([False, False, False, True])):
        content = content[:-1]
    return content


@pytest.mark.parametrize("load", list(_TABLES), ids=["asn", "geo", "rdns"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_table_loads_as_the_per_line_loader_loads_it(tmp_path_factory, load, data):
    path = tmp_path_factory.getbasetemp() / "table.txt"
    path.write_bytes(_table(data, *_TABLES[load]))
    assert _outcome(load, path) == _outcome(_REFERENCES[load], path)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_honeypot_lists_load_as_the_per_line_loader_loads_them(tmp_path_factory, data):
    paths = [tmp_path_factory.getbasetemp() / name for name in ("hp_all.txt", "hp_ics.txt")]
    for path in paths:
        path.write_bytes(_table(data, *_HONEYPOT_LINES))
    assert (_outcome(HoneypotSets.from_files, *paths)
            == _outcome(_reference_honeypots, *paths))


_CANONICAL = {
    load_asn_table: b"1.0.0.0/8 152422\n1.0.0.0/12 399924\n1.0.108.0/24 201115\n0.0.0.0/0 0\n",
    load_geo_table: b"1.0.0.0/8,FR\n1.0.0.0/14,BR\n1.1.0.0/16,AT\n9.9.9.9/32,ZA\n",
    RdnsTable.from_csv: b"1.1.2.140,mail652.corp14.example\n1.10.80.123,scan-20603.shodan.io\n",
}


@pytest.mark.parametrize("load", list(_CANONICAL), ids=["asn", "geo", "rdns"])
def test_canonical_lines_load_a_column_at_a_time(tmp_path, monkeypatch, load):
    path = tmp_path / "table.txt"
    path.write_bytes(_CANONICAL[load])
    ran = spy_paths(monkeypatch)
    assert _outcome(load, path) == _outcome(_REFERENCES[load], path)
    assert ran == ["column"]


@pytest.mark.parametrize("load, line", [
    pytest.param(load, line, id=f"{name}-{line!r}")
    for name, (load, (_, odd)) in zip(("asn", "geo", "rdns"), _TABLES.items()) for line in odd
])
def test_any_other_line_loads_the_table_a_line_at_a_time(tmp_path, monkeypatch, load, line):
    path = tmp_path / "table.txt"
    path.write_bytes(_CANONICAL[load] + line)
    ran = spy_paths(monkeypatch)
    assert _outcome(load, path) == _outcome(_REFERENCES[load], path)
    assert ran == ["line"]


@pytest.mark.parametrize("load, line", [
    (load_asn_table, b"1.0.0.0/8 152422\n"), (load_asn_table, b"1.0.0.0/8 7\n"),
    (load_geo_table, b"1.0.0.0/8,FR\n"), (load_geo_table, b"1.0.0.0/8,DE\n"),
])
def test_a_repeated_prefix_loads_the_table_a_line_at_a_time(tmp_path, monkeypatch, load, line):
    path = tmp_path / "table.txt"
    path.write_bytes(_CANONICAL[load] + line)
    ran = spy_paths(monkeypatch)
    outcome = _outcome(load, path)
    assert outcome == _outcome(_REFERENCES[load], path)
    assert ran == ["line"]
    assert outcome[0][2] == (line not in _CANONICAL[load])  # overridden


# Leading comment lines: those that keep the column path, and some that
# send a table to the line path (a quote, a CR, a non-ASCII byte, a space
# before the '#', a blank line).
_HEADERS = [b"# prefix asn\n", b"#\n", b"#\tsource: x, y; z!\n", b"#,'a'\n", b'#,"a\n',
            b'# "a"\n', b"# a\rb\n", b"#\r\n", "# caf\u00e9\n".encode(), b"#\xff\n",
            b" # a\n", b"\n"]


@pytest.mark.parametrize("load", list(_TABLES), ids=["asn", "geo", "rdns"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_table_after_comment_lines_loads_as_the_per_line_loader_loads_it(
        tmp_path_factory, load, data):
    path = tmp_path_factory.getbasetemp() / "table.txt"
    header = b"".join(data.draw(st.lists(st.sampled_from(_HEADERS), min_size=1, max_size=3)))
    path.write_bytes(header + _table(data, *_TABLES[load]))
    assert _outcome(load, path) == _outcome(_REFERENCES[load], path)


@pytest.mark.parametrize("load", list(_CANONICAL), ids=["asn", "geo", "rdns"])
def test_leading_comment_lines_keep_the_column_path(tmp_path, monkeypatch, load):
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_bytes(_CANONICAL[load])
    commented.write_bytes(b"# prefix asn\n#\n" + _CANONICAL[load])
    ran = spy_paths(monkeypatch)
    outcome = _outcome(load, commented)
    assert ran == ["column"]
    assert outcome == _outcome(load, plain) == _outcome(_REFERENCES[load], commented)


@pytest.mark.parametrize("load, line", [(load_asn_table, b"10.0.0.0/33 1\n"),
                                        (load_geo_table, b"10.0.0.0/8,DEU\n"),
                                        (RdnsTable.from_csv, b"256.0.0.1,x\n")],
                         ids=["asn", "geo", "rdns"])
def test_a_bad_line_after_comment_lines_names_its_line(tmp_path, load, line):
    path = tmp_path / "table.txt"
    path.write_bytes(b"# a\n# b\n" + _CANONICAL[load] + line)
    number = 3 + _CANONICAL[load].count(b"\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} line {number}: "):
        load(path)


def test_a_scan_snapshot_names_its_first_bad_address(tmp_path):
    path = tmp_path / "scan_snapshot.json"
    path.write_text(json.dumps({"modbus": {"transport": ["10.0.0.1", "10.0.0.256", "x"]}}))
    with pytest.raises(ConfigError) as caught:
        load_scan_snapshot(path)
    assert str(caught.value) == (f"{path}: modbus.transport: invalid IPv4 address "
                                 f"'10.0.0.256'")
