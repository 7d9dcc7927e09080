import random

import pytest

from ics_scope.capture import int_to_ip
from ics_scope.enrich import (
    CONE_TO_CONE,
    CONE_TO_MEMBER,
    IxpTopology,
    LpmTable,
    MEMBER_TO_CONE,
    MEMBER_TO_MEMBER,
    UNKNOWN_TRANSITION,
    is_domestic,
    is_local,
    load_asn_table,
    load_geo_table,
    load_scan_snapshot,
    protocols_per_asn,
    scan_overlap,
    transition,
)


def test_lpm_most_specific_wins():
    table = LpmTable()
    table.add("10.0.0.0/8", 100)
    table.add("10.1.2.0/24", 200)
    assert table.lookup("10.1.2.3") == 200
    assert table.lookup("10.9.9.9") == 100
    assert table.lookup("11.0.0.1") is None


def test_lpm_exact_host_entry():
    table = LpmTable()
    table.add("192.0.2.7/32", 7)
    assert table.lookup("192.0.2.7") == 7
    assert table.lookup("192.0.2.8") is None


def test_lpm_default_route():
    table = LpmTable()
    table.add("0.0.0.0/0", 1)
    table.add("10.0.0.0/8", 2)
    assert table.lookup("10.1.1.1") == 2
    assert table.lookup("200.1.1.1") == 1


def test_lpm_agrees_with_linear_scan_randomized():
    rng = random.Random(17)
    table = LpmTable()
    prefixes = []
    for _ in range(300):
        plen = rng.choice([8, 12, 16, 20, 24, 28, 32])
        network = rng.randrange(0, 2**32) & ~((1 << (32 - plen)) - 1)
        value = rng.randrange(1, 10_000)
        prefix = f"{int_to_ip(network)}/{plen}"
        table.add(prefix, value)
        prefixes.append((network, plen, value))
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
        assert table.lookup(int_to_ip(ip)) == expected


def test_load_asn_table_formats(tmp_path):
    path = tmp_path / "asn.txt"
    path.write_text("10.0.0.0/8 64500\n10.1.0.0 16 64501\n# comment\n\n")
    table = load_asn_table(path)
    assert table.lookup("10.1.2.3") == 64501
    assert table.lookup("10.200.0.1") == 64500


def test_load_asn_table_duplicate_last_wins(tmp_path, caplog):
    path = tmp_path / "asn.txt"
    path.write_text("10.0.0.0/8 1\n10.0.0.0/8 2\n")
    with caplog.at_level("WARNING"):
        table = load_asn_table(path)
    assert table.lookup("10.5.5.5") == 2
    assert any("duplicate prefix" in m for m in caplog.messages)


def test_geo_table_validates_country(tmp_path):
    good = tmp_path / "geo.csv"
    good.write_text("10.0.0.0/8,DE\n192.168.0.0/16,jp\n")
    table = load_geo_table(good)
    assert table.lookup("192.168.1.1") == "JP"
    bad = tmp_path / "bad.csv"
    bad.write_text("10.0.0.0/8,DEX\n")
    with pytest.raises(ValueError, match="country"):
        load_geo_table(bad)


@pytest.fixture()
def topo():
    return IxpTopology(
        members=frozenset({64500, 64501}),
        cone={64500: frozenset({64600, 64601}), 64501: frozenset({64700})},
    )


def test_transition_definitions(topo):
    assert transition(64500, 64501, 64500, 64501, topo) == MEMBER_TO_MEMBER
    assert transition(64500, 64700, 64500, 64501, topo) == MEMBER_TO_CONE
    assert transition(64600, 64501, 64500, 64501, topo) == CONE_TO_MEMBER
    assert transition(64600, 64700, 64500, 64501, topo) == CONE_TO_CONE


def test_transition_unknown_cases(topo):
    # Source AS absent from the ingress member's cone.
    assert transition(64999, 64501, 64500, 64501, topo) == UNKNOWN_TRANSITION
    assert transition(None, 64501, 64500, 64501, topo) == UNKNOWN_TRANSITION
    assert transition(64500, 64501, None, 64501, topo) == UNKNOWN_TRANSITION


def test_cone_for_non_member_rejected():
    with pytest.raises(ValueError, match="non-member"):
        IxpTopology(members=frozenset({1}), cone={1: frozenset(), 2: frozenset({3})})


def test_member_removed_from_own_cone(caplog):
    with caplog.at_level("WARNING"):
        topo = IxpTopology(members=frozenset({1}), cone={1: frozenset({1, 2})})
    assert topo.cone[1] == frozenset({2})


def test_resolve_member(topo):
    assert topo.resolve_member(64500) == 64500
    assert topo.resolve_member(64601) == 64500
    assert topo.resolve_member(64700) == 64501
    assert topo.resolve_member(65000) is None
    assert topo.resolve_member(None) is None
    tagged = IxpTopology(members=frozenset({9}), cone={9: frozenset()},
                         tag_members={"vp:in": 9})
    assert tagged.resolve_member(12345, tag="vp:in") == 9


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
        assert local == (transition(src, dst, ingress, egress, topo) == MEMBER_TO_MEMBER)


def test_is_domestic():
    geo = LpmTable()
    geo.add("10.0.0.0/8", "DE")
    geo.add("11.0.0.0/8", "JP")
    assert is_domestic("10.0.0.1", "10.0.0.2", geo) is True
    assert is_domestic("10.0.0.1", "11.0.0.1", geo) is False
    assert is_domestic("12.0.0.1", "10.0.0.1", geo) is None


def _by_asn(rows) -> dict:
    """protocols_per_asn input from (src_asn, protocol) request rows."""
    protocols: dict = {}
    for asn, protocol in rows:
        protocols.setdefault(asn, set()).add(protocol)
    return protocols


def test_protocols_per_asn_flags():
    rows = [(64500, "modbus"), (64500, "bacnet"), (64500, "modbus")]
    rows += [(64501, p) for p in ("modbus", "bacnet", "dnp3", "iec104", "hartip")]
    per_asn = protocols_per_asn(_by_asn(rows))
    assert per_asn[64500]["distinct"] == 2
    assert per_asn[64500]["suspicious"] is False
    assert per_asn[64501]["distinct"] == 5
    assert per_asn[64501]["suspicious"] is True


def test_protocols_per_asn_threshold_boundary():
    rows = [(1, p) for p in ("modbus", "bacnet", "dnp3", "iec104")]
    assert protocols_per_asn(_by_asn(rows))[1]["suspicious"] is False  # exactly 4 is not flagged


def test_scan_overlap_arithmetic():
    passive = {"modbus": {"source": {"1.1.1.1", "2.2.2.2"}, "destination": set()}}
    snapshot = {"modbus": {"transport": frozenset({"2.2.2.2", "3.3.3.3"}),
                           "application": frozenset()}}
    rows = scan_overlap(passive, snapshot)
    source_row = next(r for r in rows if r["role"] == "source")
    assert source_row["transport_overlap_pct"] == 50.0
    assert source_row["application_overlap_pct"] == 0.0
    assert source_row["transport_only_senders"] == ["2.2.2.2"]


def test_scan_overlap_empty_snapshot():
    passive = {"bacnet": {"source": {"1.1.1.1"}, "destination": {"2.2.2.2"}}}
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
        hosts = [f"10.0.{i // 256}.{i % 256}" for i in range(rng.randrange(1, 120))]
        transport = frozenset(rng.sample(hosts, rng.randrange(0, len(hosts) + 1)))
        application = frozenset(rng.sample(sorted(transport),
                                           rng.randrange(0, len(transport) + 1)))
        passive = {"x": {"source": set(rng.sample(hosts, rng.randrange(1, len(hosts) + 1))),
                         "destination": set()}}
        rows = scan_overlap(passive, {"x": {"transport": transport,
                                            "application": application}})
        for row in rows:
            assert row["application_overlap_pct"] <= row["transport_overlap_pct"]
