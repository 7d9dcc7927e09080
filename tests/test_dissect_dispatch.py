"""dissect_segment, which reads a record's two ports from one per-transport
table and tries the destination and source port dissectors as straight-line
code, against the loop it replaced, which looked each port up on the
record's transport and walked the (protocol, port role) pairs; either way a
heuristic tries only a transport its protocol is registered on."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.capture import TCP, UDP, PacketRecord
from ics_scope.dissectors import (
    _NORMAL_DISSECTORS,
    HEURISTIC,
    HEURISTICS,
    IEC104,
    MALFORMED,
    MODBUS,
    NORMAL,
    REPLY,
    REQUEST,
    S7COMM,
    UNKNOWN,
    UNRELATED,
    Dissection,
    dissect_segment,
)
from ics_scope.inputs import load_packaged_json
from ics_scope.ports import PORTS, TRANSPORTS
from ics_scope.trafficgen import s7_setup_job

from golden import golden_packets
from reads import record_from_frame


def _reference_ports() -> dict[tuple[int, int], str]:
    """(IP protocol, port) -> protocol, read from the packaged table apart
    from PortRegistry."""
    table = {}
    for protocol, transports in load_packaged_json("ports.json").items():
        for transport, entries in transports.items():
            for entry in entries:
                lo, hi = entry if isinstance(entry, list) else (entry, entry)
                for port in range(lo, hi + 1):
                    table[(TRANSPORTS[transport], port)] = protocol
    return table


_REFERENCE_PORTS = _reference_ports()
# (IP protocol, protocol) of every protocol registered on a transport.
_REFERENCE_TRANSPORTS = {(ip_proto, protocol)
                         for (ip_proto, _), protocol in _REFERENCE_PORTS.items()}


def _reference_dissect_segment(packet, stats=None, via_icmp_quote=False):
    if not packet.payload:
        return None
    dst_protocol = _REFERENCE_PORTS.get((packet.ip_proto, packet.dst_port))
    src_protocol = _REFERENCE_PORTS.get((packet.ip_proto, packet.src_port))
    if dst_protocol is None and src_protocol is None:
        for protocol, dissector in HEURISTICS:
            if (packet.ip_proto, protocol) not in _REFERENCE_TRANSPORTS:
                continue
            found = dissector(packet, UNKNOWN)
            if found is not None and found[2] != MALFORMED:
                return Dissection(protocol, HEURISTIC, *found, UNRELATED, via_icmp_quote)
        return None
    direction = UNRELATED if via_icmp_quote else (REQUEST if dst_protocol else REPLY)
    for protocol, port_role in ((dst_protocol, REQUEST), (src_protocol, REPLY)):
        if protocol is None or (port_role == REPLY and protocol == dst_protocol):
            continue
        found = _NORMAL_DISSECTORS[protocol](packet, port_role)
        if found is not None:
            return Dissection(protocol, NORMAL, *found, direction, via_icmp_quote)
        if protocol == S7COMM and stats is not None and packet.payload[:2] == b"\x03\x00":
            stats["non_s7comm_tpkt_on_102"] += 1
    return None


def test_the_table_is_the_packaged_one_on_each_transport():
    every = {port for _, port in _REFERENCE_PORTS}
    for ip_proto, ports in PORTS.by_transport.items():
        assert ports == {port: _REFERENCE_PORTS.get((ip_proto, port)) for port in every}


def _segment(payload, ip_proto, sport, dport, wire_len):
    return PacketRecord(0, 0x0A000001, 0x0A000002, ip_proto, sport, dport, payload, wire_len)


# A TPKT-framed COTP connection request: on port 102, but not S7comm.
_TPKT_NOT_S7 = bytes.fromhex("0300001611e00000000100c1020100c2020102c0010a")
# (protocol, payload) of the golden packets and two more on port 102.
_GOLDEN = sorted({(p.protocol, record_from_frame(p.frame).payload) for p in golden_packets()}
                 | {(S7COMM, s7_setup_job()), (S7COMM, _TPKT_NOT_S7)})
_REGISTERED = sorted({port for _, port in _REFERENCE_PORTS})
_PORTS = st.one_of(st.sampled_from(_REGISTERED), st.integers(min_value=0, max_value=65535))


def _ports_of(protocol, ip_proto) -> list[int]:
    return sorted(port for (proto, port), name in _REFERENCE_PORTS.items()
                  if (proto, name) == (ip_proto, protocol))


@st.composite
def _payloads(draw):
    """(protocol or None, captured payload, wire length): a golden payload
    with some bytes flipped and cut short by the capture, arbitrary bytes
    behind a TPKT header, or arbitrary bytes."""
    kind = draw(st.sampled_from(["golden", "tpkt", "any"]))
    if kind != "golden":
        payload = (b"\x03\x00" if kind == "tpkt" else b"") + draw(st.binary(max_size=80))
        return ((S7COMM if kind == "tpkt" else None), payload,
                len(payload) + draw(st.sampled_from([0, 0, 1, 64])))
    protocol, golden = draw(st.sampled_from(_GOLDEN))
    payload = bytearray(golden)
    for _ in range(draw(st.integers(0, 3))):
        payload[draw(st.integers(0, len(payload) - 1))] ^= draw(st.integers(1, 255))
    wire_len = len(payload) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    if draw(st.booleans()):
        payload = payload[:draw(st.integers(0, len(payload)))]
    return protocol, bytes(payload), max(wire_len, 0)


@st.composite
def _port_pairs(draw, ip_proto, protocol):
    """(source, destination): registered or arbitrary ports, two ports of
    one protocol on the transport, or a port of the payload's protocol on
    either side."""
    how = draw(st.sampled_from(["any", "one protocol", "payload protocol"]))
    if how == "one protocol":
        ports = _ports_of(draw(st.sampled_from(sorted(set(_REFERENCE_PORTS.values())))),
                          ip_proto) or _REGISTERED
        return draw(st.sampled_from(ports)), draw(st.sampled_from(ports))
    pair = [draw(_PORTS), draw(_PORTS)]
    if how == "payload protocol" and _ports_of(protocol, ip_proto):
        pair[draw(st.integers(0, 1))] = draw(st.sampled_from(_ports_of(protocol, ip_proto)))
    return tuple(pair)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), ip_proto=st.sampled_from([TCP, UDP]), via_icmp_quote=st.booleans())
def test_dispatch_is_the_reference_loop(data, ip_proto, via_icmp_quote):
    protocol, payload, wire_len = data.draw(_payloads())
    sport, dport = data.draw(_port_pairs(ip_proto, protocol))
    packet = _segment(payload, ip_proto, sport, dport, wire_len)
    notes, reference_notes = Counter(), Counter()
    found = dissect_segment(packet, notes, via_icmp_quote)
    assert found == _reference_dissect_segment(packet, reference_notes, via_icmp_quote)
    assert notes == reference_notes
    assert dissect_segment(packet, None, via_icmp_quote) == found


@pytest.mark.parametrize("sport, dport, expected", [
    (49152, 102, None),
    (102, 49152, None),
    (102, 102, None),
    # The S7comm dissector declines on the destination port, then the
    # source port's Modbus dissector calls the TPKT bytes malformed.
    (502, 102, (MODBUS, REQUEST, MALFORMED)),
])
def test_a_tpkt_payload_s7comm_declines_on_102_is_noted_once(sport, dport, expected):
    notes = Counter()
    found = dissect_segment(_segment(_TPKT_NOT_S7, TCP, sport, dport, len(_TPKT_NOT_S7)), notes)
    assert (found and (found.protocol, found.direction, found.verdict)) == expected
    assert notes == Counter({"non_s7comm_tpkt_on_102": 1})


def test_a_tpkt_payload_claimed_on_the_destination_port_is_not_noted():
    # Modbus on 502 answers first, so S7comm on the source port is never tried.
    notes = Counter()
    found = dissect_segment(_segment(_TPKT_NOT_S7, TCP, 102, 502, len(_TPKT_NOT_S7)), notes)
    assert (found.protocol, found.verdict) == (MODBUS, MALFORMED)
    assert notes == Counter()


def test_an_s7comm_payload_on_102_is_not_noted():
    notes = Counter()
    payload = s7_setup_job()
    found = dissect_segment(_segment(payload, TCP, 49152, 102, len(payload)), notes)
    assert (found.protocol, found.kind) == (S7COMM, NORMAL)
    assert notes == Counter()


# A QUIC short-header packet (RFC 9000, 17.3: first byte 0b01xxxxxx) whose
# first bytes read as an IEC-104 I-frame of a defined type id, captured at a
# snaplen of 128 of its 1,252 bytes.
_QUIC_AS_IEC104 = bytes([0x68, 0x0E, 0x00, 0x00, 0x00, 0x00, 0x01]) + bytes(range(7, 86))


def test_a_heuristic_claims_no_transport_its_protocol_is_not_registered_on():
    assert PORTS.ports_for(IEC104) == {"tcp": [2404]}
    quic = _segment(_QUIC_AS_IEC104, UDP, 50000, 443, 1252)
    assert dissect_segment(quic) is None
    found = dissect_segment(quic._replace(ip_proto=TCP))
    assert (found.protocol, found.kind, found.verdict) == (IEC104, HEURISTIC, "well_formed")
