import itertools
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.capture import ICMP, PacketRecord
from ics_scope.dissectors import MALFORMED, dissect
from ics_scope.inputs import ConfigError
from ics_scope.ports import TCP, UDP
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
    is_port_only,
    pct,
    retention,
    sanitize_candidate,
    sanitize_rows,
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

from reads import record_from_frame
from test_pipeline import _SIDECARS, _mutated


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
    assert sanitize_candidate(record, dissection, default_catalog()) == DROPPED_TUNNEL


def test_strip_tunnels_keeps_plain_traffic():
    record, dissection = _bacnet_pair()
    assert sanitize_candidate(record, dissection, default_catalog()) == KEPT


def test_icmp_echo_is_never_a_candidate():
    echo = ETH_HEADER + build_ipv4(
        "10.1.1.1", "10.1.1.2", 1, b"\x08\x00\x00\x00\x00\x01\x00\x01" + b"ping"
    )
    record = record_from_frame(echo)
    assert dissect(record) is None


def test_drop_malformed():
    good_record, good = _bacnet_pair()
    bad_record, bad = _malformed_pair()
    assert sanitize_candidate(good_record, good, default_catalog()) == KEPT
    assert sanitize_candidate(bad_record, bad, default_catalog()) == DROPPED_MALFORMED


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
    assert not dissection.via_icmp_quote
    assert dissection.verdict != MALFORMED
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
    with pytest.raises(ValueError, match="check must be one of dns_header, ntp_header, "
                                         "tls_record, got 'nope'"):
        DpiCatalog.from_entries([{"name": "x", "check": "nope"}])


# Each of these once escaped the loader as a TypeError, AttributeError or
# KeyError (or, for an empty name, loaded a signature that never drops).
@pytest.mark.parametrize("entries, message", [
    pytest.param(None, "DPI catalog must be a list, got None", id="not-a-list"),
    pytest.param([None], "entry 0 must be an object, got None", id="entry-null"),
    pytest.param([{"prefix_bytes": "aa"}], "entry 0: name must be a non-empty string, got None",
                 id="name-missing"),
    pytest.param([{"name": ""}], "entry 0: name must be a non-empty string, got ''",
                 id="name-empty"),
    pytest.param([{"name": "x", "prefix_bytes": None}], "prefix_bytes must be a hex string, "
                 "got None", id="prefix-null"),
    pytest.param([{"name": "x", "prefix_bytes": "zz"}], "prefix_bytes must be a hex string, "
                 "got 'zz'", id="prefix-not-hex"),
    pytest.param([{"name": "x", "check": []}],
                 "check must be one of dns_header, ntp_header, tls_record, got []",
                 id="check-list"),
    pytest.param([{"name": "x", "transport": ["tcp"]}],
                 "transport must be one of tcp, udp, got ['tcp']", id="transport-list"),
    pytest.param([{"name": "x", "port_hint": "53"}], "port_hint must be a port number",
                 id="port-hint-text"),
    # These loaded a signature that never matches.
    pytest.param([{"name": "http", "transport": "tcp", "prefix": "47455420"}],
                 "signature http: prefix is not a signature key (one of name, transport, "
                 "port_hint, prefix_bytes, mask, check)", id="key-misspelt"),
    pytest.param([{"name": "x"}], "signature x: prefix_bytes or check must be given, "
                 "or the signature never matches", id="name-alone"),
    pytest.param([{"name": "x", "prefix_bytes": "", "transport": "udp"}],
                 "signature x: prefix_bytes or check must be given", id="prefix-empty"),
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
                if not d.via_icmp_quote and d.verdict != MALFORMED
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
        "tunnel": lambda r, d: not d.via_icmp_quote,
        "malformed": lambda r, d: d.verdict != MALFORMED,
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


def _linear_match(catalog, record):
    """The name the first signature in catalog order that matches gives."""
    if record.ip_proto not in (TCP, UDP) or not record.payload:
        return None
    return next((sig.name for sig in catalog.signatures
                 if sig.matches(record.ip_proto, record.src_port, record.dst_port,
                                record.payload)), None)


_CHECKS = ["dns_header", "ntp_header", "tls_record"]


@st.composite
def _catalog_entries(draw):
    """1-6 valid catalog entries named by position, with first mask bytes
    00, f0, ff or any; a later prefix sometimes repeats an earlier one."""
    entries = []
    for index in range(draw(st.integers(1, 6))):
        entry = {"name": f"sig{index}"}
        earlier = [e["prefix_bytes"] for e in entries if "prefix_bytes" in e]
        if earlier and draw(st.booleans()):
            prefix = bytes.fromhex(draw(st.sampled_from(earlier)))
        else:
            prefix = draw(st.binary(max_size=4))
        if prefix:
            first = draw(st.sampled_from([0x00, 0xF0, 0xFF]) | st.integers(0, 255))
            rest = draw(st.binary(min_size=len(prefix) - 1, max_size=len(prefix) - 1))
            entry.update(prefix_bytes=prefix.hex(), mask=(bytes([first]) + rest).hex())
        check = draw(st.sampled_from([None] + _CHECKS) if prefix else st.sampled_from(_CHECKS))
        transport = draw(st.sampled_from([None, "tcp", "udp"]))
        port_hint = draw(st.sampled_from([None, 53, 123, 502]))
        for key, value in (("check", check), ("transport", transport), ("port_hint", port_hint)):
            if value is not None:
                entry[key] = value
        entries.append(entry)
    return entries


@st.composite
def _records(draw, catalog):
    """A TCP, UDP or ICMP record whose payload starts with a signature's
    prefix, that prefix with one bit flipped, or nothing in particular, and
    whose ports are on a signature's port hint or anywhere."""
    prefixes = [sig.prefix for sig in catalog.signatures if sig.prefix]
    start = draw(st.sampled_from([b""] + prefixes))
    if start and draw(st.booleans()):
        bit = 1 << draw(st.integers(0, 8 * len(start) - 1))
        start = (int.from_bytes(start, "big") ^ bit).to_bytes(len(start), "big")
    payload = start + draw(st.binary(max_size=64))
    hints = [sig.port_hint for sig in catalog.signatures if sig.port_hint is not None]
    ports = st.integers(0, 65535) | st.sampled_from(hints) if hints else st.integers(0, 65535)
    return PacketRecord(ts=0, src_ip=1, dst_ip=2, ip_proto=draw(st.sampled_from([TCP, UDP, ICMP])),
                        src_port=draw(ports), dst_port=draw(ports), payload=payload,
                        payload_wire_len=len(payload))


def _agrees_with_linear_match(data, catalog):
    for _ in range(8):
        record = data.draw(_records(catalog))
        assert catalog.match(record) == _linear_match(catalog, record), record


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_indexed_match_is_the_linear_match(data):
    _agrees_with_linear_match(data, DpiCatalog.from_entries(data.draw(_catalog_entries())))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_indexed_match_is_the_linear_match_on_mutated_sidecars(data):
    try:
        catalog = DpiCatalog.from_entries(
            _mutated(data, json.loads(json.dumps(_SIDECARS["dpi_catalog"]))))
    except ConfigError:
        return
    _agrees_with_linear_match(data, catalog)


def test_the_first_of_two_signatures_sharing_a_prefix_wins():
    first = {"name": "first", "transport": "tcp", "prefix_bytes": "4745", "mask": "f0ff"}
    second = {"name": "second", "prefix_bytes": "4745"}
    payload = b"GET / HTTP/1.1\r\n"
    record = PacketRecord(0, 1, 2, TCP, 49152, 80, payload, len(payload))
    assert DpiCatalog.from_entries([first, second]).match(record) == "first"
    assert DpiCatalog.from_entries([second, first]).match(record) == "second"
    # "O" (0x4f) differs from "G" (0x47) only in a bit that first's mask leaves out.
    record = PacketRecord(0, 1, 2, TCP, 49152, 80, b"OE" + payload[2:], len(payload))
    assert DpiCatalog.from_entries([second, first]).match(record) == "first"
