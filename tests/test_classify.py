import ipaddress
import random

import pytest

from ics_scope.capture import ip_to_int
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
    default_scanner_registry,
    endpoint_reasons,
    filter_report,
    label_under,
)
from ics_scope.inputs import ConfigError


def classify(src_ip, dst_ip, registry, rdns, honeypots):
    """A packet's reasons, as count_keys joins them: the union of its two
    endpoints' reasons."""
    return (endpoint_reasons(src_ip, registry, rdns, honeypots)
            | endpoint_reasons(dst_ip, registry, rdns, honeypots))


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
    assert registry.match_prefix(ip_to_int("203.0.113.77")) == "Shodan"
    assert registry.match_prefix(ip_to_int("8.8.8.8")) is None


def test_most_specific_prefix_wins(registry):
    # 198.51.100.x is inside Shodan's /16 and Rapid7's /24.
    assert registry.match_prefix(ip_to_int("198.51.100.9")) == "Rapid7"
    assert registry.match_prefix(ip_to_int("198.51.7.9")) == "Shodan"


def test_a_prefix_two_projects_list_goes_to_the_first_and_the_longest_prefix_wins():
    registry = ScannerRegistry.from_entries([
        {"project": "A", "prefixes": ["198.51.0.0/16", "192.0.2.0/24"]},
        {"project": "B", "prefixes": ["192.0.2.0/24", "198.51.100.0/24"]},
        {"project": "C", "prefixes": ["192.0.2.0/24", "198.51.0.0/16"]},
    ])
    assert registry.match_prefix(ip_to_int("192.0.2.200")) == "A"
    assert registry.match_prefix(ip_to_int("198.51.100.1")) == "B"
    assert registry.match_prefix(ip_to_int("198.51.99.1")) == "A"
    assert registry.match_prefix(ip_to_int("192.0.3.1")) is None


def test_a_prefix_two_projects_list_is_logged(caplog):
    with caplog.at_level("WARNING"):
        ScannerRegistry.from_entries([{"project": "A", "prefixes": ["192.0.2.0/24"]},
                                      {"project": "B", "prefixes": ["192.0.2.0/24"]}])
    assert caplog.messages == ["duplicate prefix 192.0.2.0/24: 'A' overrides 'B'"]


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
            assert registry.match_prefix(int(ip)) in candidates
        else:
            assert registry.match_prefix(int(ip)) is None


def test_rdns_quoted_names():
    registry = default_scanner_registry()
    assert registry.match_rdns("scanner2.labs.rapid7.com") == "Rapid7"
    # Registry order puts the shodan pattern ahead of census.
    assert registry.match_rdns("pirate.census.shodan.io") == "Shodan"
    assert registry.match_rdns("plc.example.net") is None


def test_rdns_case_insensitive():
    assert default_scanner_registry().match_rdns("Probe.SHODAN.io") == "Shodan"


def test_an_rdns_table_keeps_the_projects_of_its_names():
    names = {ip_to_int("1.2.3.4"): "scanner2.labs.rapid7.com",
             ip_to_int("5.6.7.8"): "pirate.census.shodan.io",
             ip_to_int("9.9.9.9"): "plc.example.net"}
    rdns = RdnsTable.from_names(names, default_scanner_registry())
    assert rdns.mapping == {ip_to_int("1.2.3.4"): "Rapid7", ip_to_int("5.6.7.8"): "Shodan"}
    assert rdns.lookup(ip_to_int("9.9.9.9")) is None


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


def test_address_lists_name_the_bad_line(tmp_path):
    hp = tmp_path / "all.txt"
    hp.write_text("10.0.0.1\n# comment\n10.0.0.01\n")
    with pytest.raises(ValueError, match="all.txt line 3: invalid IPv4 address '10.0.0.01'"):
        HoneypotSets.from_files(hp, hp)
    rdns = tmp_path / "rdns.csv"
    rdns.write_text("10.0.0.1,a.example\nhost-a,b.example\n")
    with pytest.raises(ValueError, match="rdns.csv line 2: invalid IPv4 address 'host-a'"):
        RdnsTable.from_csv(rdns, default_scanner_registry())


def test_classify_scanner_prefix(registry):
    reasons = classify(ip_to_int("203.0.113.5"), ip_to_int("10.0.0.1"), registry,
                       RdnsTable.empty(), HoneypotSets.empty())
    assert label_under(reasons, ALL_FILTERS) == NON_INDUSTRIAL
    assert reasons == frozenset({Reason(SCANNER_PREFIX, "Shodan")})


def test_classify_hp_all_only_under_hp_ics_family(registry):
    hp = HoneypotSets(frozenset({ip_to_int("10.1.0.1")}), frozenset())
    reasons = classify(ip_to_int("10.1.0.1"), ip_to_int("10.2.0.2"), registry,
                       RdnsTable.empty(), hp)
    assert label_under(reasons, FILTER_FAMILIES["hp-ics"]) == INDUSTRIAL
    assert label_under(reasons, ALL_FILTERS) == NON_INDUSTRIAL
    assert reasons == frozenset({Reason(HP_ALL)})


def test_classify_accumulates_reasons(registry):
    hp = HoneypotSets(frozenset({ip_to_int("10.1.0.1")}), frozenset({ip_to_int("10.1.0.1")}))
    rdns = RdnsTable.from_names({ip_to_int("10.1.0.1"): "a.shodan.io"}, registry)
    reasons = classify(ip_to_int("10.1.0.1"), ip_to_int("10.2.0.2"), registry, rdns, hp)
    assert reasons == frozenset(
        {Reason(SCANNER_RDNS, "Shodan"), Reason(HP_ALL), Reason(HP_ICS)}
    )


def test_classify_checks_both_endpoints(registry):
    hp = HoneypotSets(frozenset({ip_to_int("10.3.0.3")}), frozenset())
    as_src = classify(ip_to_int("10.3.0.3"), ip_to_int("10.4.0.4"), registry,
                      RdnsTable.empty(), hp)
    as_dst = classify(ip_to_int("10.4.0.4"), ip_to_int("10.3.0.3"), registry,
                      RdnsTable.empty(), hp)
    assert label_under(as_src, ALL_FILTERS) == label_under(as_dst, ALL_FILTERS) == NON_INDUSTRIAL
    assert as_src == as_dst


def test_label_reason_consistency(registry):
    rng = random.Random(5)
    hp = HoneypotSets(frozenset({ip_to_int("10.1.0.1"), ip_to_int("10.1.0.2")}),
                      frozenset({ip_to_int("10.1.0.2")}))
    rdns = RdnsTable.from_names({ip_to_int("10.1.0.3"): "x.census.example"}, registry)
    pool = [ip_to_int(ip) for ip in
            ("203.0.113.5", "10.1.0.1", "10.1.0.2", "10.1.0.3", "10.9.9.9", "10.8.8.8")]
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
    with pytest.raises(ValueError, match="project must be a non-empty string, got ''"):
        ScannerRegistry.from_entries([{"project": "", "prefixes": []}])


@pytest.mark.parametrize("patterns", [[""], ["shodan", ""]])
def test_registry_rejects_an_empty_rdns_pattern(patterns):
    # "" is in every name: each address with an rDNS entry would be a scanner.
    with pytest.raises(ConfigError, match="entry 0: rdns_patterns must be a list of non-empty "
                                          "strings, got "):
        ScannerRegistry.from_entries([{"project": "Shodan", "rdns_patterns": patterns}])


def test_all_filters_constant():
    assert ALL_FILTERS == frozenset({SCANNER_PREFIX, SCANNER_RDNS, HP_ALL, HP_ICS})
