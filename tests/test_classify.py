import ipaddress
import random

import pytest

from ics_scope.classify import (
    ALL_FILTERS,
    FILTER_FAMILIES,
    HP_ALL,
    HP_ICS,
    INDUSTRIAL,
    NON_INDUSTRIAL,
    SCANNER_PREFIX,
    SCANNER_RDNS,
    HoneypotSets,
    RdnsTable,
    Reason,
    ScannerRegistry,
    classify,
    default_scanner_registry,
    filter_report,
    label_under,
)


@pytest.fixture()
def registry():
    return ScannerRegistry.from_entries(
        [
            {"project": "Shodan", "prefixes": ["203.0.113.0/24", "198.51.0.0/16"],
             "rdns_patterns": ["shodan"]},
            {"project": "Rapid7", "prefixes": ["198.51.100.0/24"],
             "rdns_patterns": ["rapid7", "sonar."]},
            {"project": "Censys", "prefixes": ["192.0.2.0/24"], "rdns_patterns": ["census"]},
            {"project": "Kudelski", "prefixes": ["192.88.99.0/24"], "rdns_patterns": ["kudelski"]},
        ]
    )


def test_prefix_membership(registry):
    assert registry.match_prefix("203.0.113.77") == "Shodan"
    assert registry.match_prefix("8.8.8.8") is None


def test_most_specific_prefix_wins(registry):
    # 198.51.100.x is inside Shodan's /16 and Rapid7's /24.
    assert registry.match_prefix("198.51.100.9") == "Rapid7"
    assert registry.match_prefix("198.51.7.9") == "Shodan"


def test_prefix_match_agrees_with_bruteforce(registry):
    nets = []
    for project in registry.projects:
        for network, plen in project.prefixes:
            nets.append((ipaddress.IPv4Network((network, plen)), project.name))
    rng = random.Random(42)
    for _ in range(2000)[:2000]:
        ip = ipaddress.IPv4Address(rng.randrange(0, 2**32))
        covering = [(net.prefixlen, name) for net, name in nets if ip in net]
        expected = max(covering)[1] if covering else None
        if covering:
            best_len = max(covering)[0]
            candidates = [name for plen, name in covering if plen == best_len]
            assert registry.match_prefix(str(ip)) in candidates
        else:
            assert registry.match_prefix(str(ip)) is None


def test_rdns_quoted_names():
    registry = default_scanner_registry()
    rdns = RdnsTable({"1.2.3.4": "scanner2.labs.rapid7.com",
                      "5.6.7.8": "pirate.census.shodan.io"})
    assert registry.match_rdns(rdns.lookup("1.2.3.4")) == "Rapid7"
    # Registry order puts the shodan pattern ahead of census.
    assert registry.match_rdns(rdns.lookup("5.6.7.8")) == "Shodan"
    assert registry.match_rdns(rdns.lookup("9.9.9.9")) is None


def test_rdns_case_insensitive():
    registry = default_scanner_registry()
    rdns = RdnsTable({"1.1.1.1": "Probe.SHODAN.io"})
    assert registry.match_rdns(rdns.lookup("1.1.1.1")) == "Shodan"


def test_hp_subset_enforced(tmp_path):
    all_path = tmp_path / "all.txt"
    ics_path = tmp_path / "ics.txt"
    all_path.write_text("10.0.0.1\n10.0.0.2\n")
    ics_path.write_text("10.0.0.2\n10.0.0.9\n")
    with pytest.raises(ValueError, match="subset"):
        HoneypotSets.from_files(all_path, ics_path)
    ics_path.write_text("10.0.0.2\n")
    hp = HoneypotSets.from_files(all_path, ics_path)
    assert hp.hp_ics < hp.hp_all


def test_classify_scanner_prefix(registry):
    reasons = classify("203.0.113.5", "10.0.0.1", registry,
                       RdnsTable.empty(), HoneypotSets.empty())
    assert label_under(reasons, ALL_FILTERS) == NON_INDUSTRIAL
    assert reasons == frozenset({Reason(SCANNER_PREFIX, "Shodan")})


def test_classify_hp_all_only_under_hp_ics_family(registry):
    hp = HoneypotSets(frozenset({"10.1.0.1"}), frozenset())
    reasons = classify("10.1.0.1", "10.2.0.2", registry, RdnsTable.empty(), hp)
    assert label_under(reasons, FILTER_FAMILIES["hp-ics"]) == INDUSTRIAL
    assert label_under(reasons, ALL_FILTERS) == NON_INDUSTRIAL
    assert reasons == frozenset({Reason(HP_ALL)})


def test_classify_accumulates_reasons(registry):
    hp = HoneypotSets(frozenset({"10.1.0.1"}), frozenset({"10.1.0.1"}))
    rdns = RdnsTable({"10.1.0.1": "a.shodan.io"})
    reasons = classify("10.1.0.1", "10.2.0.2", registry, rdns, hp)
    assert reasons == frozenset(
        {Reason(SCANNER_RDNS, "Shodan"), Reason(HP_ALL), Reason(HP_ICS)}
    )


def test_classify_checks_both_endpoints(registry):
    hp = HoneypotSets(frozenset({"10.3.0.3"}), frozenset())
    as_src = classify("10.3.0.3", "10.4.0.4", registry, RdnsTable.empty(), hp)
    as_dst = classify("10.4.0.4", "10.3.0.3", registry, RdnsTable.empty(), hp)
    assert label_under(as_src, ALL_FILTERS) == label_under(as_dst, ALL_FILTERS) == NON_INDUSTRIAL
    assert as_src == as_dst


def test_label_reason_consistency(registry):
    rng = random.Random(5)
    hp = HoneypotSets(frozenset({"10.1.0.1", "10.1.0.2"}), frozenset({"10.1.0.2"}))
    rdns = RdnsTable({"10.1.0.3": "x.census.example"})
    pool = ["203.0.113.5", "10.1.0.1", "10.1.0.2", "10.1.0.3", "10.9.9.9", "10.8.8.8"]
    for _ in range(300):
        reasons = classify(rng.choice(pool), rng.choice(pool), registry, rdns, hp)
        assert (label_under(reasons, ALL_FILTERS) == NON_INDUSTRIAL) == bool(reasons)


def test_filter_report_shares():
    counts = {("modbus", "request", frozenset({Reason(SCANNER_PREFIX, "Shodan")})): 80,
              ("modbus", "request", frozenset()): 20}
    report = filter_report(counts)
    modbus = next(r for r in report if r["protocol"] == "modbus")
    assert modbus["excl_scanners"] == pytest.approx(0.2)
    assert modbus["excl_both"] == pytest.approx(0.2)
    assert modbus["excl_hp_all"] == pytest.approx(1.0)
    assert modbus["request_share"] == pytest.approx(1.0)
    total = report[0]
    assert total["protocol"] == "total"
    assert total["total_packets"] == 100


def test_filter_report_no_hits_everything_industrial():
    report = filter_report({("dnp3", "reply", frozenset()): 10})
    row = next(r for r in report if r["protocol"] == "dnp3")
    assert row["excl_scanners"] == row["excl_hp_ics"] == row["excl_hp_all"] == 1.0
    assert row["request_share"] == 0.0


def test_filter_family_monotonicity_spot():
    reasons_pool = [
        frozenset(),
        frozenset({Reason(SCANNER_PREFIX, "Censys")}),
        frozenset({Reason(HP_ALL)}),
        frozenset({Reason(HP_ALL), Reason(HP_ICS)}),
        frozenset({Reason(SCANNER_RDNS, "Rapid7"), Reason(HP_ALL)}),
    ]
    rng = random.Random(11)
    rows = [rng.choice(reasons_pool) for _ in range(500)]
    scanners = frozenset({SCANNER_PREFIX, SCANNER_RDNS})
    share = lambda fam: sum(label_under(reasons, fam) == INDUSTRIAL for reasons in rows)
    assert share(scanners | {HP_ALL, HP_ICS}) <= share(scanners | {HP_ICS}) <= share(scanners)


def test_registry_rejects_empty_project():
    with pytest.raises(ValueError, match="empty project"):
        ScannerRegistry.from_entries([{"project": "", "prefixes": []}])


def test_all_filters_constant():
    assert ALL_FILTERS == frozenset({SCANNER_PREFIX, SCANNER_RDNS, HP_ALL, HP_ICS})
