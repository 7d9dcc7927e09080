import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ics_scope.capture import record_from_frame
from ics_scope.dissectors import dissect
from ics_scope.sanitize import (
    DROPPED_KNOWN_PROTOCOL,
    DROPPED_MALFORMED,
    DROPPED_TUNNEL,
    KEPT,
    PORT_ONLY,
    VERDICTS,
    DpiCatalog,
    default_catalog,
    dpi_cross_check,
    drop_malformed,
    is_port_only,
    pct,
    retention,
    sanitize_candidate,
    sanitize_rows,
    strip_tunnels,
)
from ics_scope.trafficgen import (
    ETH_HEADER,
    bacnet_dns_chimera,
    bacnet_read_property,
    build_backscatter_frame,
    build_frame,
    build_ipv4,
    modbus_request,
)


def _sanitize(pairs, port_only=0):
    """One verdict per candidate from sanitize_candidate, and the retention
    figures of those verdicts and port_only port-only records, counted as
    one capture of vantage "vp"."""
    verdicts = [sanitize_candidate(record, dissection, default_catalog())
                for record, dissection in pairs]
    events = Counter(("vp", verdict) for verdict in verdicts)
    events[("vp", PORT_ONLY)] += port_only
    return verdicts, retention(events)[0]


def _kept(pairs, verdicts):
    return [pair for pair, verdict in zip(pairs, verdicts) if verdict == KEPT]


def _pair(frame):
    record = record_from_frame(frame)
    dissection = dissect(record)
    assert dissection is not None
    return record, dissection


def _bacnet_pair():
    return _pair(build_frame("10.0.0.1", "10.0.0.2", "udp", 49152, 47808,
                             bacnet_read_property()))


def _tunnel_pair():
    frame = build_backscatter_frame("10.9.0.1", "10.0.0.1", "10.0.0.2", "udp",
                                    49152, 47808, bacnet_read_property())
    return _pair(frame)


def _chimera_pair():
    return _pair(build_frame("10.0.1.1", "10.0.1.2", "udp", 53, 47808, bacnet_dns_chimera()))


def _malformed_pair():
    payload = bytearray(modbus_request())
    payload[2:4] = b"\x00\x01"
    return _pair(build_frame("10.0.2.1", "10.0.2.2", "tcp", 49152, 502, bytes(payload)))


def test_strip_tunnels_drops_backscatter():
    record, dissection = _tunnel_pair()
    assert dissection.protocol == "bacnet"
    assert dissection.via_icmp_quote
    assert strip_tunnels(dissection) == DROPPED_TUNNEL


def test_strip_tunnels_keeps_plain_traffic():
    record, dissection = _bacnet_pair()
    assert strip_tunnels(dissection) == KEPT


def test_icmp_echo_is_never_a_candidate():
    echo = ETH_HEADER + build_ipv4(
        "10.1.1.1", "10.1.1.2", 1, b"\x08\x00\x00\x00\x00\x01\x00\x01" + b"ping"
    )
    record = record_from_frame(echo)
    assert dissect(record) is None


def test_drop_malformed():
    _, good = _bacnet_pair()
    _, bad = _malformed_pair()
    assert drop_malformed(good) == KEPT
    assert drop_malformed(bad) == DROPPED_MALFORMED


def test_dpi_http_signature_fires_when_forced():
    frame = build_frame("10.0.3.1", "10.0.3.2", "tcp", 49152, 502,
                        b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
    record = record_from_frame(frame)
    assert dpi_cross_check(record, default_catalog()) == DROPPED_KNOWN_PROTOCOL
    # The pipeline never routes it here as a candidate: the port-502 packet
    # dissects as malformed modbus and dies one step earlier.
    assert dissect(record).verdict == "malformed"


def test_dpi_tls_signature_fires_but_is_pipeline_unreachable():
    frame = build_frame("10.0.4.1", "10.0.4.2", "tcp", 49152, 2404,
                        bytes.fromhex("16030100100a0b") + b"\x00" * 12)
    record = record_from_frame(frame)
    assert dpi_cross_check(record, default_catalog()) == DROPPED_KNOWN_PROTOCOL
    assert dissect(record) is None  # start byte 0x16 never matches on 2404


def test_dpi_tls_signature_spares_modbus_transaction_0x1603():
    # MBAP header 1603 0000 0006: the TLS prefix, but a zero TLS record length.
    payload = modbus_request(transaction_id=0x1603)
    assert payload.startswith(bytes.fromhex("1603000000060103"))
    record, dissection = _pair(build_frame("10.0.4.3", "10.0.4.4", "tcp", 49152, 502, payload))
    assert (dissection.protocol, dissection.verdict) == ("modbus", "well_formed")
    assert dpi_cross_check(record, default_catalog()) == KEPT
    assert _sanitize([(record, dissection)])[0] == [KEPT]


def test_dpi_dns_chimera_survives_to_step_three():
    record, dissection = _chimera_pair()
    assert dissection.verdict == "well_formed"
    assert strip_tunnels(dissection) == KEPT
    assert drop_malformed(dissection) == KEPT
    assert dpi_cross_check(record, default_catalog()) == DROPPED_KNOWN_PROTOCOL


def test_dpi_ssh_and_ntp_checks():
    ssh = record_from_frame(build_frame("10.0.5.1", "10.0.5.2", "tcp", 49152, 49153,
                                        b"SSH-2.0-OpenSSH_8.9\r\n"))
    assert dpi_cross_check(ssh, default_catalog()) == DROPPED_KNOWN_PROTOCOL
    ntp = record_from_frame(build_frame("10.0.5.3", "10.0.5.4", "udp", 123, 49155,
                                        bytes([0x23]) + b"\x00" * 47))
    assert dpi_cross_check(ntp, default_catalog()) == DROPPED_KNOWN_PROTOCOL
    short_ntp = record_from_frame(build_frame("10.0.5.3", "10.0.5.4", "udp", 123, 49155,
                                              bytes([0x23]) + b"\x00" * 10))
    assert dpi_cross_check(short_ntp, default_catalog()) == KEPT


def test_catalog_rejects_bad_entries():
    with pytest.raises(ValueError, match="mask/prefix length"):
        DpiCatalog.from_entries([{"name": "x", "prefix_bytes": "aabb", "mask": "ff"}])
    with pytest.raises(ValueError, match="unknown check"):
        DpiCatalog.from_entries([{"name": "x", "check": "nope"}])


# Each of these once escaped the loader as a TypeError, AttributeError or
# KeyError (or, for an empty name, loaded a signature that never drops).
@pytest.mark.parametrize("entries, message", [
    pytest.param(None, "expected a list of signatures, got NoneType", id="not-a-list"),
    pytest.param([None], "entry 0: expected an object, got NoneType", id="entry-null"),
    pytest.param([{"prefix_bytes": "aa"}], "entry 0: 'name' must be a non-empty string",
                 id="name-missing"),
    pytest.param([{"name": ""}], "entry 0: 'name' must be a non-empty string", id="name-empty"),
    pytest.param([{"name": "x", "prefix_bytes": None}], "'prefix_bytes' must be a hex string",
                 id="prefix-null"),
    pytest.param([{"name": "x", "prefix_bytes": "zz"}], "'prefix_bytes' must be a hex string",
                 id="prefix-not-hex"),
    pytest.param([{"name": "x", "check": []}], "unknown check []", id="check-list"),
    pytest.param([{"name": "x", "transport": ["tcp"]}], "unknown transport ['tcp']",
                 id="transport-list"),
    pytest.param([{"name": "x", "port_hint": "53"}], "port_hint must be a port number",
                 id="port-hint-text"),
])
def test_catalog_rejects_malformed_json(entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DpiCatalog.from_entries(entries)


def test_sanitize_counts_and_order():
    pairs = [_bacnet_pair() for _ in range(5)]
    pairs.insert(1, _tunnel_pair())
    pairs.insert(3, _malformed_pair())
    pairs.append(_chimera_pair())
    verdicts, report = _sanitize(pairs)
    assert report["candidates_in"] == 8
    assert report["after_tunnel"] == 7
    assert report["after_malformed"] == 6
    assert report["after_dpi"] == 5
    assert verdicts.count(KEPT) == 5
    assert verdicts[1] == DROPPED_TUNNEL
    assert verdicts[3] == DROPPED_MALFORMED
    assert verdicts[-1] == DROPPED_KNOWN_PROTOCOL
    # Survivors preserve input order.
    kept_ids = [id(r) for r, _ in _kept(pairs, verdicts)]
    expected = [id(r) for r, d in pairs
                if strip_tunnels(d) == KEPT and drop_malformed(d) == KEPT
                and dpi_cross_check(r, default_catalog()) == KEPT]
    assert kept_ids == expected


def test_sanitize_empty_input():
    _, report = _sanitize([])
    assert report["candidates_in"] == 0
    assert pct(0, report["candidates_in"]) is None
    assert all(row["remaining_pct"] is None for row in sanitize_rows(report))


def test_sanitize_idempotent():
    pairs = [_bacnet_pair(), _tunnel_pair(), _malformed_pair(), _chimera_pair()]
    kept = _kept(pairs, _sanitize(pairs)[0])
    verdicts, report = _sanitize(kept)
    assert report["candidates_in"] == len(kept)
    assert report["after_dpi"] == len(kept)
    assert all(v == KEPT for v in verdicts)


def test_kept_set_invariant_under_step_order():
    rng = random.Random(3)
    pairs = []
    makers = [_bacnet_pair, _tunnel_pair, _malformed_pair, _chimera_pair]
    for _ in range(40):
        pairs.append(rng.choice(makers)())
    predicates = {
        "tunnel": lambda r, d: strip_tunnels(d) == KEPT,
        "malformed": lambda r, d: drop_malformed(d) == KEPT,
        "dpi": lambda r, d: dpi_cross_check(r, default_catalog()) == KEPT,
    }
    reference = None
    for order in itertools.permutations(predicates):
        kept = [
            index
            for index, (record, dissection) in enumerate(pairs)
            if all(predicates[name](record, dissection) for name in order)
        ]
        if reference is None:
            reference = kept
        assert kept == reference


def test_port_only_baseline_zero_without_ics_ports():
    frames = [build_frame("10.0.7.1", "10.0.7.2", "tcp", 49152, 8080, b"hello")
              for _ in range(5)]
    assert not any(is_port_only(record_from_frame(f)) for f in frames)


def test_verdict_partition_sums_to_candidates():
    from collections import Counter

    pairs = [_bacnet_pair(), _tunnel_pair(), _malformed_pair(), _chimera_pair(),
             _bacnet_pair()]
    verdicts, report = _sanitize(pairs)
    counts = Counter(verdicts)
    assert sum(counts.values()) == report["candidates_in"] == 5
    assert set(counts) <= {KEPT, DROPPED_TUNNEL, DROPPED_MALFORMED, DROPPED_KNOWN_PROTOCOL}


def test_port_only_baseline_ratio():
    frames = [build_frame("10.0.6.1", "10.0.6.2", "tcp", 49152, 502, modbus_request())
              for _ in range(2)]
    bad = bytearray(modbus_request())
    bad[2:4] = b"\x00\x01"
    frames += [build_frame("10.0.6.1", "10.0.6.2", "tcp", 49152, 502, bytes(bad))
               for _ in range(8)]
    records = [record_from_frame(f) for f in frames]
    assert sum(map(is_port_only, records)) == 10
    pairs = [(r, dissect(r)) for r in records]
    _, report = _sanitize(pairs, port_only=sum(map(is_port_only, records)))
    assert report["after_dpi"] == 2
    assert sanitize_rows(report)[-1]["remaining_pct"] == 500.0


@given(st.lists(st.tuples(st.text(alphabet="ab", max_size=2),
                          st.sampled_from(VERDICTS + (PORT_ONLY,)))))
def test_retention_per_vantage_sums_to_totals(events):
    total, per_vantage = retention(Counter(events))
    assert set(per_vantage) == {vantage for vantage, _ in events}
    for figures in (total, *per_vantage.values()):
        assert (figures["candidates_in"] >= figures["after_tunnel"]
                >= figures["after_malformed"] >= figures["after_dpi"])
    for key, value in total.items():
        assert sum(figures[key] for figures in per_vantage.values()) == value
    seen = Counter(event for _, event in events)
    chain = [total[key] for key in ("candidates_in", "after_tunnel", "after_malformed",
                                    "after_dpi")]
    assert chain[0] == sum(seen[verdict] for verdict in VERDICTS)
    assert [a - b for a, b in zip(chain, chain[1:])] == [
        seen[DROPPED_TUNNEL], seen[DROPPED_MALFORMED], seen[DROPPED_KNOWN_PROTOCOL]]
    assert total["port_only"] == seen[PORT_ONLY]


def test_default_catalog_loads_all_signatures():
    names = {sig.name for sig in default_catalog().signatures}
    assert names == {"http", "tls", "ssh", "smtp", "dns", "ntp"}
