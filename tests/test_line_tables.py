"""The line-table loaders: a file of canonical lines loads a column at a
time, any other file a line at a time, and either way the table, the
ConfigError and the log records are those of the earlier per-line loaders,
kept here as the references."""

import json
import logging
import pickle
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import classify, enrich, inputs
from ics_scope.capture import int_to_ip, ip_to_int, parse_cidr
from ics_scope.classify import HoneypotSets, RdnsTable, ScannerRegistry
from ics_scope.enrich import LpmTable, load_asn_table, load_geo_table, load_scan_snapshot
from ics_scope.inputs import AS_MAX, ConfigError, line_table

# Matches no file, so that line_table reads every table a row at a time.
_NEVER = re.compile(rb"(?!)")
_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")
_ENRICH_LOG = logging.getLogger("ics_scope.enrich")


def _reference_prefix_table(path, row_value, delimiter=None) -> tuple:
    """The per-line prefix-table loader, on dicts of its own: row_value(row)
    is a row's prefix text and value. A later row wins for a repeated
    prefix. Once the table has loaded, the first row that changed a value
    is named and the rest are counted. Gives the fields _fields gives of a
    table."""

    def row(fields):
        prefix, value = row_value(fields)
        return (*parse_cidr(prefix, strict=False), value)

    by_len, overrides = {}, []
    for network, plen, value in zip(*line_table(path, _NEVER, None, row, delimiter)):
        bucket = by_len.setdefault(plen, {})
        key = network >> (32 - plen)
        if bucket.get(key, value) != value:
            overrides.append(f"{int_to_ip(network)}/{plen}: {value!r} overrides {bucket[key]!r}")
        bucket[key] = value
    if overrides:
        _ENRICH_LOG.warning("duplicate prefix %s", overrides[0])
    if len(overrides) > 1:
        _ENRICH_LOG.warning("%d more duplicate prefixes overridden in %s",
                            len(overrides) - 1, path)
    probes = tuple((32 - plen, by_len[plen]) for plen in sorted(by_len, reverse=True))
    return by_len, probes, len(overrides)


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


# The registry the rDNS tables of these tests load against.
_REGISTRY = ScannerRegistry.from_entries([
    {"project": "Shodan", "rdns_patterns": ["shodan"]},
    {"project": "Example", "rdns_patterns": ["example", "x#"]},
])


def _load_rdns(path) -> RdnsTable:
    return RdnsTable.from_csv(path, _REGISTRY)


def _match_rdns(registry: ScannerRegistry, name: str) -> str | None:
    """The per-name rule: the first project in registry order that has a
    pattern the lower-cased name contains."""
    lowered = name.lower()
    return next((project.name for project in registry.projects
                 for pattern in project.rdns_patterns if pattern in lowered), None)


def _reference_rdns(path, registry=_REGISTRY) -> RdnsTable:
    """The per-line loader: each address's last name, then the project
    _match_rdns finds in it."""

    def row(fields):
        if len(fields) < 2:
            raise ValueError("expected 'ip,name'")
        return ip_to_int(fields[0].strip()), fields[1].strip()

    names = dict(zip(*line_table(path, _NEVER, None, row, ",")))
    return RdnsTable({ip: project for ip, name in names.items()
                      if (project := _match_rdns(registry, name))})


def _reference_honeypots(all_path, ics_path) -> HoneypotSets:
    hp_all, hp_ics = (frozenset(*line_table(path, _NEVER, None, lambda line: (ip_to_int(line),)))
                      for path in (all_path, ics_path))
    if not hp_ics <= hp_all:
        extra = sorted(map(int_to_ip, hp_ics - hp_all))[:3]
        raise ConfigError(f"hp_ics {ics_path} must be a subset of hp_all {all_path}, "
                          f"offending entries: {extra}")
    return HoneypotSets(hp_all, hp_ics)


_REFERENCES = {
    load_asn_table: lambda path: _reference_prefix_table(path, _asn_row),
    load_geo_table: lambda path: _reference_prefix_table(path, _geo_row, ","),
    _load_rdns: _reference_rdns,
    HoneypotSets.from_files: _reference_honeypots,
}


def spy_paths(monkeypatch) -> list:
    """A list the loaders append to as they load: "column" for a table built
    a column at a time, "line" for one built a line at a time."""
    ran = []

    def spy(path, canonical, columns, row, *delimiter):
        def by_column(text):
            table = columns(text)
            ran.append("column")
            return table

        before = len(ran)
        try:
            return line_table(path, canonical, by_column, row, *delimiter)
        finally:
            if len(ran) == before:
                ran.append("line")

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
    """An LpmTable's fields; any other table (_reference_prefix_table's
    tuple, an RdnsTable's dict, a HoneypotSets tuple) compares as it is."""
    if isinstance(table, LpmTable):
        return table._by_len, table._probes, table.overridden
    return table


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
         b"10.0.0.0/8 1 2\n", b"10.0.0.0/8\t1\n", b"10.0.0.0\t024\t1\n", b"\xff\n",
         b"256.0.0.1/8 1\n", b"10.0.0.0/33 1\n", b"10.0.0.0/08 1\n", b"10.0.0.0/8 4294967296\n",
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
    _load_rdns: (
        _line(_ADDRESSES, ",", st.sampled_from(["a.example", "scan-1.shodan.io", "x#y!",
                                                "Scan-2.SHODAN.example", "plc.corp"])),
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
    _load_rdns: b"1.1.2.140,mail652.corp14.example\n1.10.80.123,scan-20603.shodan.io\n",
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
def test_a_repeated_prefix_keeps_the_column_path(tmp_path, monkeypatch, load, line):
    path = tmp_path / "table.txt"
    path.write_bytes(_CANONICAL[load] + line)
    ran = spy_paths(monkeypatch)
    outcome = _outcome(load, path)
    assert outcome == _outcome(_REFERENCES[load], path)
    assert ran == ["column"]
    assert outcome[0][2] == (line not in _CANONICAL[load])  # overridden


@pytest.mark.parametrize("load, line", [
    (load_asn_table, b"1.0.0.0/8 152422\n"), (load_asn_table, b"1.0.0.0/8 7\n"),
    (load_geo_table, b"1.0.0.0/8,FR\n"), (load_geo_table, b"1.0.0.0/8,DE\n"),
])
def test_a_repeated_prefix_loads_the_table_a_line_at_a_time(tmp_path, monkeypatch, load, line):
    """In a table that takes the line path (CRLF line ends), a repeated
    prefix overrides as it does on the column path."""
    path = tmp_path / "table.txt"
    path.write_bytes((_CANONICAL[load] + line).replace(b"\n", b"\r\n"))
    ran = spy_paths(monkeypatch)
    outcome = _outcome(load, path)
    assert outcome == _outcome(_REFERENCES[load], path)
    assert ran == ["line"]
    assert outcome[0][2] == (line not in _CANONICAL[load])  # overridden
    column_path = tmp_path / "column.txt"
    column_path.write_bytes(_CANONICAL[load] + line)
    assert outcome == _outcome(load, column_path)


@pytest.mark.parametrize("load, lines", [
    (load_asn_table, b"1.0.0.0/8 7\n1.0.0.0/8 8\n1.0.0.0/8 9\n10.0.0.0/33 1\n"),
    (load_geo_table, b"1.0.0.0/8,DE\n1.0.0.0/8,JP\n1.0.0.0/8,NL\n10.0.0.0/8,DEU\n"),
], ids=["asn", "geo"])
def test_a_repeated_prefix_before_a_bad_line_logs_nothing(tmp_path, load, lines):
    path = tmp_path / "table.txt"
    path.write_bytes(_CANONICAL[load] + lines)
    number = (_CANONICAL[load] + lines).count(b"\n")
    outcome = _outcome(load, path)
    assert outcome == _outcome(_REFERENCES[load], path)
    message, records = outcome
    assert message.startswith(f"{path} line {number}: ") and records == []


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
                                        (_load_rdns, b"256.0.0.1,x\n")],
                         ids=["asn", "geo", "rdns"])
def test_a_bad_line_after_comment_lines_names_its_line(tmp_path, load, line):
    path = tmp_path / "table.txt"
    path.write_bytes(b"# a\n# b\n" + _CANONICAL[load] + line)
    number = 3 + _CANONICAL[load].count(b"\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} line {number}: "):
        load(path)


def test_a_geo_table_holds_one_string_per_country_across_a_pickle(tmp_path, monkeypatch):
    """On either path: LF line ends load a column at a time, CRLF ones a line
    at a time."""
    path = tmp_path / "geo.csv"
    lines = [b"1.0.0.0/8,FR", b"2.0.0.0/8,FR", b"3.0.0.0/16,DE", b"4.0.0.0/24,FR", b"5.0.0.0/24,DE"]
    ran = spy_paths(monkeypatch)
    for end, how in ((b"\n", "column"), (b"\r\n", "line")):
        path.write_bytes(b"".join(line + end for line in lines))
        ran.clear()
        table = load_geo_table(path)
        assert ran == [how]
        for loaded in (table, pickle.loads(pickle.dumps(table, pickle.HIGHEST_PROTOCOL))):
            values = [value for bucket in loaded._by_len.values() for value in bucket.values()]
            assert sorted(values) == ["DE", "DE", "FR", "FR", "FR"]
            assert len(set(map(id, values))) == 2


# Parts of rDNS names and of registry patterns: upper-case and non-ASCII
# ones ('İ'.lower() is two characters); and pattern parts that the file's
# addresses hold too, one that spans an address and its name ("0,"), which
# no name holds, and a digit ("7").
_NAME_PARTS = ["shodan", "SHODAN", "censys", "Censys", "sonar.", "scan", ".io", "-7", "\u00e9",
               "\u0130", "\u00df"]
_ASCII_PARTS = [part for part in _NAME_PARTS if part.isascii()]


@st.composite
def _registries(draw) -> ScannerRegistry:
    pattern = st.lists(st.sampled_from([*_NAME_PARTS, "0,", "7"]), min_size=1, max_size=2)
    projects = draw(st.lists(st.lists(pattern.map("".join), max_size=3), max_size=4))
    return ScannerRegistry.from_entries([{"project": f"P{index}", "rdns_patterns": patterns}
                                         for index, patterns in enumerate(projects)])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), registry=_registries(), ascii_names=st.booleans())
def test_an_rdns_table_keeps_the_project_match_rdns_finds_in_each_name(
        tmp_path_factory, data, registry, ascii_names):
    """Both load paths, against the per-line loader over random registries:
    a name may match no project or several, and a repeated address keeps
    the project of its last name, if any."""
    parts = st.sampled_from(_ASCII_PARTS if ascii_names else _NAME_PARTS)
    rows = data.draw(st.lists(st.tuples(_ADDRESSES, st.lists(parts, min_size=1, max_size=4)),
                              max_size=12))
    path = tmp_path_factory.getbasetemp() / "rdns.csv"
    path.write_bytes("".join(f"{address},{''.join(name)}\n" for address, name in rows).encode())
    with pytest.MonkeyPatch.context() as monkeypatch:
        ran = spy_paths(monkeypatch)
        outcome = _outcome(lambda path: RdnsTable.from_csv(path, registry), path)
    assert outcome == _outcome(lambda path: _reference_rdns(path, registry), path)
    ascii_only = all(map(str.isascii, map("".join, [name for _, name in rows])))
    assert ran == (["column"] if ascii_only else ["line"])


_TAB_LINE = _line(_ADDRESSES, "\t", _LENGTHS, "\t", st.sampled_from([0, 7, "007", 64500, AS_MAX]))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_published_tab_separated_lines_load_as_the_per_line_loader_loads_them(
        tmp_path_factory, data):
    """CAIDA's 'a.b.c.d<TAB>N<TAB>asn', among 'a.b.c.d/N asn' lines, loads a
    column at a time, a repeated prefix included."""
    lines = data.draw(st.lists(st.one_of(_TAB_LINE, _TABLES[load_asn_table][0]), max_size=12))
    path = tmp_path_factory.getbasetemp() / "asn.txt"
    path.write_bytes(b"".join(lines))
    with pytest.MonkeyPatch.context() as monkeypatch:
        ran = spy_paths(monkeypatch)
        outcome = _outcome(load_asn_table, path)
    assert outcome == _outcome(_REFERENCES[load_asn_table], path)
    assert ran == ["column"]


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("before, after, how", [(b"", b"", "column"),
                                                (b"# prefix asn\n", b"", "column"),
                                                (b"", b"# by line\n", "line")],
                         ids=["canonical", "header", "by-line"])
@pytest.mark.parametrize("load", list(_CANONICAL), ids=["asn", "geo", "rdns"])
def test_a_byte_order_mark_starting_a_table_is_dropped(tmp_path, monkeypatch, load, before,
                                                        after, how):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(before + _CANONICAL[load] + after)
    marked.write_bytes(_BOM + before + _CANONICAL[load] + after)
    ran = spy_paths(monkeypatch)
    assert _outcome(load, marked) == _outcome(load, plain)
    assert ran == [how, how]


@pytest.mark.parametrize("load, content, number", [
    (load_asn_table, _BOM + _BOM + b"1.0.0.0/8 1\n", 1),
    (load_asn_table, b"1.0.0.0/8 1\n" + _BOM + b"2.0.0.0/8 2\n", 2),
    (load_asn_table, b"# a\n1.0.0.0/8 1" + _BOM + b"\n", 2),
    (load_geo_table, b"1.0.0.0/8,FR\n2.0.0.0/8," + _BOM + b"DE\n", 2),
    (_load_rdns, _BOM + b"1.0.0.1,a\n" + _BOM + b"1.0.0.2,b\n", 2),
])
def test_a_byte_order_mark_anywhere_else_names_its_line(tmp_path, load, content, number):
    path = tmp_path / "table.txt"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} line {number}: "):
        load(path)


def test_a_scan_snapshot_names_its_first_bad_address(tmp_path):
    path = tmp_path / "scan_snapshot.json"
    path.write_text(json.dumps({"modbus": {"transport": ["10.0.0.1", "10.0.0.256", "x"]}}))
    with pytest.raises(ConfigError) as caught:
        load_scan_snapshot(path)
    assert str(caught.value) == (f"{path}: modbus.transport: invalid IPv4 address "
                                 f"'10.0.0.256'")


# The line patterns as written before their repeats were made possessive,
# kept as the references of the patterns in use, with the lines each
# table's tests draw.
_GREEDY_HEADER = re.compile(rb"(?:#[\t -!#-~]*\n)*")
_GREEDY_LINES = {
    "asn": (enrich._ASN_LINES,
            rb"(?:[0-9.]{7,15}(?:/[0-9]{1,2} |\t[0-9]{1,2}\t)[0-9]{1,10}\n)*",
            (st.one_of(_TAB_LINE, _TABLES[load_asn_table][0]), _TABLES[load_asn_table][1])),
    "geo": (enrich._GEO_LINES, rb"(?:[0-9.]{7,15}/[0-9]{1,2},[A-Z]{2}\n)*",
            _TABLES[load_geo_table]),
    "rdns": (classify._RDNS_LINES, rb"(?:[0-9.]{7,15},[!#-+\--~]+\n)*", _TABLES[_load_rdns]),
    "address": (classify._ADDRESS_LINES, rb"(?:[0-9.]{7,15}\n)*", _HONEYPOT_LINES),
}


@pytest.mark.parametrize("name", list(_GREEDY_LINES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_each_possessive_line_pattern_matches_what_its_greedy_form_matches(name, data):
    """On a drawn table, on canonical lines followed by each odd line, and on
    a table cut short, each behind drawn comment lines and without them."""
    pattern, greedy, (canonical, odd) = _GREEDY_LINES[name]
    header = b"".join(data.draw(st.lists(st.sampled_from(_HEADERS), max_size=2)))
    body = b"".join(data.draw(st.lists(canonical, max_size=4)))
    tables = [_table(data, canonical, odd), *(body + line for line in odd)]
    cut = tables[0][:data.draw(st.integers(0, len(tables[0])))]
    for content in (*tables, cut):
        for text in (content, header + content):
            start = _GREEDY_HEADER.match(text).end()
            assert inputs._HEADER.match(text).end() == start
            assert (pattern.fullmatch(text, start) is None) == (
                re.fullmatch(greedy, text[start:]) is None), text
