import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.capture import int_to_ip, ip_to_int, parse_cidr
from ics_scope.classify import ScannerRegistry
from ics_scope.enrich import (
    CONE_TO_CONE,
    CONE_TO_MEMBER,
    IxpTopology,
    LpmTable,
    MEMBER_TO_CONE,
    MEMBER_TO_MEMBER,
    UNKNOWN_TRANSITION,
    fabric_side,
    is_domestic,
    load_asn_table,
    load_geo_table,
    load_scan_snapshot,
    protocols_per_asn,
    scan_overlap,
    transition,
)
from ics_scope.inputs import ConfigError
from ics_scope.sanitize import DpiCatalog
from oracles import is_local


def _lpm(rows) -> LpmTable:
    """The table of (prefix, value) rows; a later row wins for a repeated prefix."""
    return LpmTable(*zip(*[(plen, network >> (32 - plen), value) for prefix, value in rows
                           for network, plen in [parse_cidr(prefix, strict=False)]]))


def test_lpm_most_specific_wins():
    table = _lpm([("10.0.0.0/8", 100), ("10.1.2.0/24", 200)])
    assert table.lookup(ip_to_int("10.1.2.3")) == 200
    assert table.lookup(ip_to_int("10.9.9.9")) == 100
    assert table.lookup(ip_to_int("11.0.0.1")) is None


def test_lpm_exact_host_entry():
    table = _lpm([("192.0.2.7/32", 7)])
    assert table.lookup(ip_to_int("192.0.2.7")) == 7
    assert table.lookup(ip_to_int("192.0.2.8")) is None


def test_lpm_default_route():
    table = _lpm([("0.0.0.0/0", 1), ("10.0.0.0/8", 2)])
    assert table.lookup(ip_to_int("10.1.1.1")) == 2
    assert table.lookup(ip_to_int("200.1.1.1")) == 1


def test_lpm_agrees_with_linear_scan_randomized():
    rng = random.Random(17)
    prefixes = []
    for _ in range(300):
        plen = rng.choice([8, 12, 16, 20, 24, 28, 32])
        network = rng.randrange(0, 2**32) & ~((1 << (32 - plen)) - 1)
        prefixes.append((network, plen, rng.randrange(1, 10_000)))
    table = _lpm([(f"{int_to_ip(network)}/{plen}", value) for network, plen, value in prefixes])
    # Rebuild the view the way the table resolved duplicates (last wins).
    resolved = {}
    for network, plen, value in prefixes:
        resolved[(network, plen)] = value
    for _ in range(1500):
        ip = rng.randrange(0, 2**32)
        best = None
        for (network, plen), value in resolved.items():
            if plen == 0 or (ip >> (32 - plen)) == (network >> (32 - plen)):
                if best is None or plen > best[0]:
                    best = (plen, value)
        expected = best[1] if best else None
        assert table.lookup(ip) == expected


def test_load_asn_table_formats(tmp_path):
    path = tmp_path / "asn.txt"
    path.write_text("10.0.0.0/8 64500\n10.1.0.0 16 64501\n# comment\n\n")
    table = load_asn_table(path)
    assert table.lookup(ip_to_int("10.1.2.3")) == 64501
    assert table.lookup(ip_to_int("10.200.0.1")) == 64500


def test_load_asn_table_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "asn.txt"
    path.write_text("10.0.0.0/8 1\n10.0.0.0/8 2\n")
    with caplog.at_level("WARNING"):
        table = load_asn_table(path)
    assert table.lookup(ip_to_int("10.5.5.5")) == 2
    assert any("duplicate prefix" in m for m in caplog.messages)


def test_many_duplicate_prefixes_log_two_lines(tmp_path, caplog):
    path = tmp_path / "asn.txt"
    prefixes = [f"10.{i // 256}.{i % 256}.0/24" for i in range(1000)]
    path.write_text("".join(f"{p} 1\n" for p in prefixes) + "".join(f"{p} 2\n" for p in prefixes))
    with caplog.at_level("WARNING"):
        table = load_asn_table(path)
    assert table.lookup(ip_to_int("10.3.231.1")) == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        "duplicate prefix 10.0.0.0/24: 2 overrides 1",
        f"999 more duplicate prefixes overridden in {path}",
    ]


def test_table_path_with_a_nul_cannot_be_read():
    for load in (load_asn_table, load_geo_table):
        with pytest.raises(ConfigError) as caught:
            load("a\x00b")
        assert str(caught.value) == "cannot read a\x00b: embedded null byte"


@pytest.mark.parametrize("load", [ScannerRegistry.from_json, IxpTopology.from_json,
                                  load_scan_snapshot, DpiCatalog.from_json],
                         ids=["registry", "cone", "scan-snapshot", "dpi-catalog"])
def test_json_path_with_a_nul_cannot_be_read(load):
    with pytest.raises(ConfigError) as caught:
        load("a\x00b.json")
    assert str(caught.value) == "cannot read a\x00b.json: embedded null byte"


@pytest.mark.parametrize("asn", ["1_000", "+7", "\u0663", "64500", "0", "4294967295"])
def test_load_asn_table_takes_only_ascii_digits(tmp_path, asn):
    path = tmp_path / "asn.txt"
    path.write_text(f"11.0.0.0/8 1\n10.0.0.0/8 {asn}\n", encoding="utf-8")
    if asn.isascii() and asn.isdigit():
        assert load_asn_table(path).lookup(ip_to_int("10.1.2.3")) == int(asn)
        return
    with pytest.raises(ConfigError, match=f"asn.txt line 2: AS number must be ASCII decimal "
                                          f"digits, got '{re.escape(asn)}'"):
        load_asn_table(path)


def test_geo_table_validates_country(tmp_path):
    good = tmp_path / "geo.csv"
    good.write_text("10.0.0.0/8,DE\n192.168.0.0/16,jp\n")
    table = load_geo_table(good)
    assert table.lookup(ip_to_int("192.168.1.1")) == "JP"
    bad = tmp_path / "bad.csv"
    bad.write_text("10.0.0.0/8,DEX\n")
    with pytest.raises(ValueError, match="country"):
        load_geo_table(bad)


@pytest.mark.parametrize("code", ["\u00df", "\ufb00", "\u017fe"])
def test_geo_country_must_be_two_ascii_letters_before_upper_casing(tmp_path, code):
    # 'ß', 'ﬀ' and 'ſe' upper-case to 'SS', 'FF' and 'SE'.
    path = tmp_path / "geo.csv"
    path.write_text(f"10.0.0.0/8,de\n11.0.0.0/8,{code}\n", encoding="utf-8")
    with pytest.raises(ConfigError) as caught:
        load_geo_table(path)
    assert str(caught.value) == (f"{path} line 2: invalid country code {code!r} "
                                 f"for prefix 11.0.0.0/8")


def test_prefix_table_errors_name_the_line(tmp_path):
    asn = tmp_path / "asn.txt"
    asn.write_text("10.0.0.0/8 1\n10.0.0.0/255.0.0.0 2\n")
    with pytest.raises(ValueError, match="asn.txt line 2: invalid prefix length"):
        load_asn_table(asn)
    geo = tmp_path / "geo.csv"
    geo.write_text("# prefix,country\n10.0.0.0/8,DE\n10.0.0.256/24,DE\n")
    with pytest.raises(ValueError, match="geo.csv line 3: invalid IPv4 address '10.0.0.256'"):
        load_geo_table(geo)


@pytest.fixture()
def topo():
    return IxpTopology({64500: frozenset({64600, 64601}), 64501: frozenset({64700})})


def _transition(src_asn, dst_asn, ingress, egress, topo) -> str:
    """A packet's transition from its two sides, as the pipeline joins it."""
    return transition(fabric_side(src_asn, ingress, topo), fabric_side(dst_asn, egress, topo))


def test_transition_definitions(topo):
    assert _transition(64500, 64501, 64500, 64501, topo) == MEMBER_TO_MEMBER
    assert _transition(64500, 64700, 64500, 64501, topo) == MEMBER_TO_CONE
    assert _transition(64600, 64501, 64500, 64501, topo) == CONE_TO_MEMBER
    assert _transition(64600, 64700, 64500, 64501, topo) == CONE_TO_CONE


def test_transition_unknown_cases(topo):
    # Source AS absent from the ingress member's cone.
    assert _transition(64999, 64501, 64500, 64501, topo) == UNKNOWN_TRANSITION
    assert _transition(None, 64501, 64500, 64501, topo) == UNKNOWN_TRANSITION
    assert _transition(64500, 64501, None, 64501, topo) == UNKNOWN_TRANSITION


def test_member_removed_from_own_cone(caplog):
    with caplog.at_level("WARNING"):
        topo = IxpTopology({1: frozenset({1, 2})})
    assert topo.cone[1] == frozenset({2})


def test_resolve_member(topo):
    assert topo.resolve_member(64500) == 64500
    assert topo.resolve_member(64601) == 64500
    assert topo.resolve_member(64700) == 64501
    assert topo.resolve_member(65000) is None
    assert topo.resolve_member(None) is None


def _reference_member(asn, members, cone):
    """The member rule as first written: a member resolves to itself, any
    other AS to the lowest member whose cone holds it, or to None."""
    if asn is None:
        return None
    if asn in members:
        return asn
    owners = sorted(m for m, ases in cone.items() if asn in ases)
    return owners[0] if owners else None


# Cones over a few ASes, so that ASes sit in several cones, members in
# other members' cones and members in their own.
_CONES = st.dictionaries(st.integers(1, 12), st.frozensets(st.integers(1, 12), max_size=6),
                         max_size=5)


@settings(max_examples=300, deadline=None)
@given(cone=_CONES, asns=st.lists(st.one_of(st.none(), st.integers(0, 13)), max_size=30))
def test_resolve_member_is_the_reference_rule(cone, asns):
    topo = IxpTopology(dict(cone))
    cleaned = {m: ases - {m} for m, ases in cone.items()}  # own-cone entries removed
    assert topo.cone == cleaned
    for asn in asns:  # repeats included: the second answer comes from the memo
        assert topo.resolve_member(asn) == _reference_member(asn, frozenset(cone), cleaned)


def test_cone_as_numbers_are_four_octets(tmp_path):
    path = tmp_path / "cone.json"
    path.write_text('{"4294967295": [0, 4294967294]}')
    assert IxpTopology.from_json(path).cone == {4294967295: frozenset({0, 4294967294})}
    path.write_text('{"64500": [], "4294967296": []}')
    with pytest.raises(ConfigError) as caught:
        IxpTopology.from_json(path)
    assert str(caught.value) == (f"{path}: member must be an AS number (0 to 4294967295), "
                                 f"got 4294967296")


def test_is_local_formula():
    assert is_local(64500, 64500, 64501, 64501) is True
    assert is_local(64502, 64500, 64501, 64501) is False
    assert is_local(None, 64500, 64501, 64501) is None


def test_is_local_equivalent_to_member_to_member(topo):
    rng = random.Random(23)
    ases = [64500, 64501, 64600, 64601, 64700, 64999]
    for _ in range(1000):
        src = rng.choice(ases)
        dst = rng.choice(ases)
        ingress = topo.resolve_member(src)
        egress = topo.resolve_member(dst)
        local = is_local(src, ingress, egress, dst)
        if local is None:
            continue
        assert local == (_transition(src, dst, ingress, egress, topo) == MEMBER_TO_MEMBER)


def test_is_domestic():
    geo = _lpm([("10.0.0.0/8", "DE"), ("11.0.0.0/8", "JP")])

    def domestic(src, dst):
        return is_domestic(geo.lookup(ip_to_int(src)), geo.lookup(ip_to_int(dst)))

    assert domestic("10.0.0.1", "10.0.0.2") is True
    assert domestic("10.0.0.1", "11.0.0.1") is False
    assert domestic("12.0.0.1", "10.0.0.1") is None


def _by_asn(rows) -> dict:
    """protocols_per_asn input from (src_asn, protocol) request rows."""
    protocols: dict = {}
    for asn, protocol in rows:
        protocols.setdefault(asn, set()).add(protocol)
    return protocols


def test_protocols_per_asn_flags():
    rows = [(64500, "modbus"), (64500, "bacnet"), (64500, "modbus")]
    rows += [(64501, p) for p in ("modbus", "bacnet", "dnp3", "iec104", "hartip")]
    assert protocols_per_asn(_by_asn(rows)) == [
        [64500, 2, "bacnet;modbus", False],
        [64501, 5, "bacnet;dnp3;hartip;iec104;modbus", True],
    ]


def test_protocols_per_asn_threshold_boundary():
    rows = [(1, p) for p in ("modbus", "bacnet", "dnp3", "iec104")]
    assert protocols_per_asn(_by_asn(rows))[0][3] is False  # exactly 4 is not flagged


def test_scan_overlap_arithmetic():
    passive = {("modbus", "source"): {ip_to_int("1.1.1.1"), ip_to_int("2.2.2.2")},
               ("modbus", "destination"): set()}
    snapshot = {"modbus": {"transport": frozenset({ip_to_int("2.2.2.2"), ip_to_int("3.3.3.3")}),
                           "application": frozenset()}}
    rows = scan_overlap(passive, snapshot)
    source_row = next(r for r in rows if r["role"] == "source")
    assert source_row["transport_overlap_pct"] == 50.0
    assert source_row["application_overlap_pct"] == 0.0
    assert source_row["transport_only_senders"] == ["2.2.2.2"]


def test_scan_overlap_empty_snapshot():
    passive = {("bacnet", "source"): {ip_to_int("1.1.1.1")},
               ("bacnet", "destination"): {ip_to_int("2.2.2.2")}}
    rows = scan_overlap(passive, {})
    assert all(r["transport_overlap_pct"] == 0.0 for r in rows)
    assert all(r["application_overlap_pct"] == 0.0 for r in rows)


def test_scan_snapshot_subset_enforced(tmp_path):
    path = tmp_path / "snap.json"
    path.write_text('{"modbus": {"transport": ["1.1.1.1"], "application": ["2.2.2.2"]}}')
    with pytest.raises(ValueError, match="application hosts"):
        load_scan_snapshot(path)


def test_scan_overlap_app_bounded_by_transport_randomized():
    rng = random.Random(4)
    for _ in range(50):
        hosts = [ip_to_int(f"10.0.{i // 256}.{i % 256}") for i in range(rng.randrange(1, 120))]
        transport = frozenset(rng.sample(hosts, rng.randrange(0, len(hosts) + 1)))
        application = frozenset(rng.sample(sorted(transport),
                                           rng.randrange(0, len(transport) + 1)))
        passive = {("x", "source"): set(rng.sample(hosts, rng.randrange(1, len(hosts) + 1))),
                   ("x", "destination"): set()}
        rows = scan_overlap(passive, {"x": {"transport": transport,
                                            "application": application}})
        for row in rows:
            assert row["application_overlap_pct"] <= row["transport_overlap_pct"]
