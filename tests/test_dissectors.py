import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.capture import TCP, UDP, CaptureMeta, TransportView, read_capture, record_from_frame
from ics_scope.dissectors import (
    BACNET,
    DNP3,
    ETHERNETIP,
    HARTIP,
    HEURISTIC,
    HEURISTICS,
    IEC104,
    MALFORMED,
    MIN_IDENTIFIABLE_FRAME_BYTES,
    MODBUS,
    NORMAL,
    REPLY,
    REQUEST,
    S7COMM,
    UNKNOWN,
    WELL_FORMED,
    action_name,
    dissect,
    dissect_bacnet,
    dissect_dnp3,
    dissect_ethernetip,
    dissect_hartip,
    dissect_iec104,
    dissect_modbus,
    dissect_s7,
    dissect_segment,
    _heuristic_claim,
    dnp3_crc,
)
from ics_scope.trafficgen import (
    build_frame,
    dnp3_read_request,
    golden_packets,
    hartip_message,
    modbus_exception_reply,
    modbus_request,
    s7_setup_job,
)


def seg(payload, ip_proto=TCP, sport=49152, dport=49153, wire_len=None):
    return TransportView(ip_proto, "10.0.0.1", "10.0.0.2", sport, dport, payload,
                         wire_len if wire_len is not None else len(payload))


# --- modbus ----------------------------------------------------------------


def test_modbus_read_request_wellformed():
    payload = bytes.fromhex("00010000000601030000000a")
    d = dissect_modbus(seg(payload, dport=502))
    assert d.protocol == MODBUS and d.verdict == WELL_FORMED
    assert d.role == REQUEST and d.function_code == 3


def test_modbus_bad_protocol_id_malformed():
    payload = bytes.fromhex("00010001000601030000000a")
    assert dissect_modbus(seg(payload, dport=502)).verdict == MALFORMED


def test_modbus_exception_is_reply():
    payload = modbus_exception_reply(3)
    d = dissect_modbus(seg(payload, sport=502, dport=49152))
    assert d.verdict == WELL_FORMED
    assert d.role == REPLY and d.function_code == 0x83


def test_modbus_function_code_zero_malformed():
    payload = bytes.fromhex("000100000006010000000000")
    assert dissect_modbus(seg(payload, dport=502)).verdict == MALFORMED


def test_modbus_short_payload_rejected():
    assert dissect_modbus(seg(b"\x00\x01\x00\x00\x00\x02\x01", dport=502)) is None


# --- bacnet ----------------------------------------------------------------


def test_bacnet_read_property_wellformed():
    payload = bytes.fromhex("810a001101040005010c0c00800001195537")[:17]
    d = dissect_bacnet(seg(payload, ip_proto=UDP, sport=47809, dport=47808))
    assert d.protocol == BACNET and d.verdict == WELL_FORMED
    assert d.role == REQUEST and d.function_code == 12


def test_bacnet_wrong_magic_rejected():
    assert dissect_bacnet(seg(b"\x82\x0a\x00\x04", ip_proto=UDP, dport=47808)) is None


def test_bacnet_undefined_bvlc_function_malformed():
    d = dissect_bacnet(seg(b"\x81\x0f\x00\x04", ip_proto=UDP, dport=47808))
    assert d.verdict == MALFORMED


def test_bacnet_length_mismatch_malformed():
    d = dissect_bacnet(seg(b"\x81\x0a\x00\x09\x01\x00\x10\x08", ip_proto=UDP, dport=47808))
    assert d.verdict == MALFORMED


def test_bacnet_npdu_version_checked_when_readable():
    payload = bytes([0x81, 0x0A, 0x00, 0x08, 0x02, 0x00, 0x10, 0x08])
    d = dissect_bacnet(seg(payload, ip_proto=UDP, dport=47808))
    assert d.verdict == MALFORMED


def test_bacnet_complete_46_byte_frame():
    # 14 Ethernet + 20 IP + 8 UDP + a complete 4-byte BVLC message.
    from ics_scope.trafficgen import build_frame

    frame = build_frame("10.0.0.1", "10.0.0.2", "udp", 49152, 47808,
                        bytes([0x81, 0x06, 0x00, 0x04]))
    assert len(frame) == 46
    d = dissect(record_from_frame(frame))
    assert d is not None
    assert (d.protocol, d.kind, d.role, d.verdict) == (BACNET, NORMAL, REQUEST, WELL_FORMED)


# --- s7comm ----------------------------------------------------------------


def test_s7_job_on_port_102_wellformed():
    payload = s7_setup_job()
    d = dissect_s7(seg(payload, dport=102))
    assert d.protocol == S7COMM and d.kind == NORMAL
    assert d.role == REQUEST and d.function_code == 0xF0 and d.verdict == WELL_FORMED


def test_s7_wrong_tpkt_rejected():
    payload = b"\x02" + s7_setup_job()[1:]
    assert dissect_s7(seg(payload, dport=102)) is None


def test_s7_bad_protocol_id_asymmetric():
    payload = bytearray(s7_setup_job())
    payload[7] = 0x33
    payload = bytes(payload)
    assert dissect_segment(seg(payload)) is None
    d = dissect_s7(seg(payload, dport=102))
    assert d.verdict == MALFORMED and d.kind == NORMAL


def test_s7_heuristic_requires_full_message():
    payload = s7_setup_job()
    truncated = seg(payload[:20], wire_len=len(payload))
    assert dissect_s7(truncated, heuristic=True) is None
    assert dissect_segment(seg(payload)).kind == HEURISTIC


# --- ethernetip ------------------------------------------------------------


def test_enip_list_identity_request():
    from ics_scope.trafficgen import enip_list_identity_request

    payload = enip_list_identity_request()
    assert len(payload) == 24
    d = dissect_ethernetip(seg(payload, dport=44818))
    assert d.protocol == ETHERNETIP and d.verdict == WELL_FORMED
    assert d.role == REQUEST and d.function_code == 0x63


def test_enip_unknown_command_malformed():
    payload = (0xBEEF).to_bytes(2, "little") + b"\x00" * 22
    assert dissect_ethernetip(seg(payload, dport=44818)).verdict == MALFORMED


def test_enip_short_payload_rejected():
    assert dissect_ethernetip(seg(b"\x63\x00" + b"\x00" * 8, dport=44818)) is None


def test_enip_nonzero_options_malformed():
    payload = bytearray(b"\x63\x00" + b"\x00" * 22)
    payload[20] = 1
    assert dissect_ethernetip(seg(bytes(payload), dport=44818)).verdict == MALFORMED


# --- dnp3 ------------------------------------------------------------------


def _crc_oracle(block: bytes) -> int:
    """Bit-by-bit MSB-first long division with the forward polynomial."""
    crc = 0
    for byte in block:
        for bit_index in range(8):
            incoming = (byte >> bit_index) & 1
            top = (crc >> 15) & 1
            crc = (crc << 1) & 0xFFFF
            if top ^ incoming:
                crc ^= 0x3D65
    reflected = 0
    for i in range(16):
        reflected |= ((crc >> i) & 1) << (15 - i)
    return reflected ^ 0xFFFF


def test_dnp3_crc_against_independent_oracle():
    header = dnp3_read_request()[:8]
    assert dnp3_crc(header) == _crc_oracle(header)
    import random

    rng = random.Random(99)
    for _ in range(50):
        block = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 17)))
        assert dnp3_crc(block) == _crc_oracle(block)


def test_dnp3_valid_frame_wellformed():
    payload = dnp3_read_request()
    d = dissect_dnp3(seg(payload, dport=20000))
    assert d.protocol == DNP3 and d.verdict == WELL_FORMED
    assert d.role == REQUEST and d.function_code == 4


def test_dnp3_wrong_start_rejected():
    payload = b"\x05\x65" + dnp3_read_request()[2:]
    assert dissect_dnp3(seg(payload, dport=20000)) is None


def test_dnp3_corrupted_crc_malformed_on_port():
    payload = bytearray(dnp3_read_request())
    payload[8] ^= 0x01
    d = dissect_dnp3(seg(bytes(payload), dport=20000))
    assert d.verdict == MALFORMED
    assert dissect_segment(seg(bytes(payload))) is None


def test_dnp3_reply_role_from_dir_bit():
    from ics_scope.trafficgen import dnp3_response

    d = dissect_dnp3(seg(dnp3_response(), sport=20000, dport=49152))
    assert d.role == REPLY


# --- hartip ----------------------------------------------------------------


def test_hartip_session_initiate_wellformed():
    payload = bytes.fromhex("010000000001000d") + b"\x01\x00\x00\x75\x30"
    d = dissect_hartip(seg(payload, dport=5094))
    assert d.protocol == HARTIP and d.verdict == WELL_FORMED
    assert d.role == REQUEST and d.function_code == 0


def test_hartip_bad_version_rejected():
    payload = b"\x07" + hartip_message(0, 0, b"\x01\x00\x00\x75\x30")[1:]
    assert dissect_hartip(seg(payload, dport=5094)) is None


def test_hartip_bad_message_type_malformed():
    payload = bytearray(hartip_message(0, 0, b"\x01\x00\x00\x75\x30"))
    payload[1] = 9
    assert dissect_hartip(seg(bytes(payload), dport=5094)).verdict == MALFORMED


# --- iec104 ----------------------------------------------------------------


def test_iec104_u_frame_startdt_wellformed():
    d = dissect_iec104(seg(bytes.fromhex("680407000000"), dport=2404))
    assert d.protocol == IEC104 and d.verdict == WELL_FORMED
    assert d.function_code == 0x07


def test_iec104_wrong_start_rejected():
    assert dissect_iec104(seg(bytes.fromhex("670407000000"), dport=2404)) is None


def test_iec104_oversized_length_malformed_on_port():
    d = dissect_iec104(seg(bytes.fromhex("68ff00000000"), dport=2404))
    assert d.verdict == MALFORMED
    assert dissect_segment(seg(bytes.fromhex("68ff00000000"))) is None


def test_iec104_undefined_type_id_malformed():
    payload = bytes([0x68, 0x08, 0x00, 0x00, 0x00, 0x00, 0xFF, 0x01, 0x06, 0x01])
    assert dissect_iec104(seg(payload, dport=2404)).verdict == MALFORMED


def test_iec104_heuristic_needs_full_sanity():
    payload = bytes([0x68, 0x08, 0x00, 0x00, 0x00, 0x00, 0x64, 0x01, 0x06, 0x01])
    d = dissect_segment(seg(payload, sport=5555, dport=5556))
    assert d is not None and d.protocol == IEC104
    assert d.kind == HEURISTIC and d.role == UNKNOWN
    short = seg(payload[:8], sport=5555, dport=5556, wire_len=len(payload))
    assert dissect_segment(short) is None


# --- the heuristic rule ------------------------------------------------------


def _patched(payload: bytes, offset: int, value: int) -> bytes:
    out = bytearray(payload)
    out[offset] = value
    return bytes(out)


_S7 = s7_setup_job()
_DNP3 = dnp3_read_request()
_IEC104_I = bytes([0x68, 0x08, 0x00, 0x00, 0x00, 0x00, 0x64, 0x01, 0x06, 0x01])

# (protocol, registered port, payload, wire length or None, verdict on the port)
_PORT_ONLY_VERDICTS = [
    pytest.param(S7COMM, 102, _patched(_S7, 7, 0x33), None, MALFORMED, id="s7-protocol-id"),
    pytest.param(S7COMM, 102, _patched(_S7, 8, 0x05), None, MALFORMED, id="s7-message-type"),
    pytest.param(S7COMM, 102, _patched(_S7, 14, _S7[14] + 1), None, MALFORMED,
                 id="s7-parameter-length"),
    pytest.param(DNP3, 20000, _patched(_DNP3, 2, 4), None, MALFORMED, id="dnp3-length-below-5"),
    pytest.param(DNP3, 20000, _patched(_DNP3, 2, _DNP3[2] + 1), None, MALFORMED,
                 id="dnp3-length-vs-wire"),
    pytest.param(DNP3, 20000, _patched(_DNP3, 8, _DNP3[8] ^ 1), None, MALFORMED, id="dnp3-crc"),
    pytest.param(IEC104, 2404, bytes.fromhex("68ff00000000"), None, MALFORMED,
                 id="iec104-length-range"),
    pytest.param(IEC104, 2404, bytes.fromhex("680800000000"), None, MALFORMED,
                 id="iec104-length-vs-wire"),
    pytest.param(IEC104, 2404, bytes.fromhex("680400000000"), None, MALFORMED,
                 id="iec104-empty-i-frame"),
    pytest.param(IEC104, 2404, _patched(_IEC104_I, 6, 0xFF), None, MALFORMED,
                 id="iec104-type-id"),
    pytest.param(IEC104, 2404, bytes.fromhex("680401010000"), None, MALFORMED,
                 id="iec104-s-frame"),
    pytest.param(IEC104, 2404, bytes.fromhex("680403000000"), None, MALFORMED,
                 id="iec104-u-frame"),
    pytest.param(S7COMM, 102, _S7[:20], len(_S7), WELL_FORMED, id="s7-message-not-captured"),
    pytest.param(DNP3, 20000, _DNP3[:8], len(_DNP3), WELL_FORMED, id="dnp3-crc-not-captured"),
]


@pytest.mark.parametrize("protocol, port, payload, wire_len, on_port", _PORT_ONLY_VERDICTS)
def test_heuristics_decline_what_only_ports_may_judge(protocol, port, payload, wire_len,
                                                      on_port):
    d = dissect_segment(seg(payload, dport=port, wire_len=wire_len))
    assert (d.protocol, d.kind, d.verdict) == (protocol, NORMAL, on_port)
    assert dissect_segment(seg(payload, wire_len=wire_len)) is None
    assert dissect_segment(seg(payload, sport=5555, dport=5556, wire_len=wire_len)) is None


# --- table values and corpus-level properties -------------------------------


def test_min_identifiable_lengths_registered():
    assert MIN_IDENTIFIABLE_FRAME_BYTES == {
        MODBUS: 74,
        S7COMM: 93,
        ETHERNETIP: 74,
        BACNET: 46,
        DNP3: 62,
        HARTIP: 78,
        IEC104: 76,
    }
    assert MIN_IDENTIFIABLE_FRAME_BYTES[BACNET] == 46
    assert MIN_IDENTIFIABLE_FRAME_BYTES[S7COMM] == 93
    assert MIN_IDENTIFIABLE_FRAME_BYTES[MODBUS] == 74


def test_golden_corpus_dissects_to_manifest(golden_dir, golden_manifest):
    for entry in golden_manifest:
        records = list(read_capture(golden_dir / entry["file"], CaptureMeta("golden")))
        assert len(records) == 1
        d = dissect(records[0])
        assert d is not None, entry["file"]
        assert d.protocol == entry["protocol"]
        assert d.verdict == entry["verdict"]
        assert d.role == entry["role"]
        assert d.function_code == entry["function_code"]
        assert d.kind == entry["kind"]


def test_min_length_property_for_every_golden():
    for packet in golden_packets():
        if packet.verdict != WELL_FORMED:
            continue
        threshold = MIN_IDENTIFIABLE_FRAME_BYTES[packet.protocol]
        at = dissect(record_from_frame(packet.frame, captured_len=threshold))
        assert at is not None and at.protocol == packet.protocol
        assert at.verdict == WELL_FORMED
        below = dissect(record_from_frame(packet.frame, captured_len=threshold - 1))
        assert below is None or below.verdict != WELL_FORMED or below.protocol != packet.protocol


def test_capture_cut_in_transport_header_never_dissects():
    frame = build_frame("10.0.0.1", "10.0.0.2", "tcp", 49152, 502, modbus_request())
    record = record_from_frame(frame, captured_len=14 + 20 + 10)
    assert (record.src_port, record.dst_port) == (49152, 502)  # from the full frame
    assert record.payload is None
    assert dissect(record) is None


def test_exclusivity_on_golden_corpus():
    for packet in golden_packets():
        if packet.verdict != WELL_FORMED:
            continue
        record = record_from_frame(packet.frame)
        d = dissect(record)
        assert d.protocol == packet.protocol
        for dissector in HEURISTICS:
            claim = _heuristic_claim(dissector, record)
            assert claim is None or claim.protocol == packet.protocol, (packet.name, claim)


def test_normal_path_blocks_heuristics():
    # A registered port decides alone; garbage on 2404 stays unidentified
    # even though the payload would never match heuristics anyway.
    payload = b"\x16\x03\x01\x00\x10" + b"\x00" * 16
    assert dissect_segment(seg(payload, dport=2404)) is None
    # The same bytes on unregistered ports walk the heuristic chain.
    assert dissect_segment(seg(payload, sport=5555, dport=5556)) is None


def test_empty_payload_never_candidate():
    assert dissect_segment(seg(b"", dport=502)) is None


def test_action_names_loaded():
    assert action_name(MODBUS, 3) == "read_holding_registers"
    assert action_name(S7COMM, 0xF0) == "setup_communication"
    assert action_name(BACNET, 8) == "who_is"
    assert action_name(MODBUS, None) is None
    assert action_name(MODBUS, 250) is None


@settings(max_examples=300, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=80),
    sport=st.integers(min_value=1, max_value=65535),
    dport=st.integers(min_value=1, max_value=65535),
    ip_proto=st.sampled_from([TCP, UDP]),
)
def test_dissect_segment_total_and_deterministic(payload, sport, dport, ip_proto):
    segment = seg(payload, ip_proto, sport, dport)
    first = dissect_segment(segment)
    second = dissect_segment(segment)
    assert first == second
    if first is not None:
        assert first.verdict in (WELL_FORMED, MALFORMED)
        assert first.kind in (NORMAL, HEURISTIC)


def test_golden_manifest_shape(golden_manifest):
    keys = {"file", "protocol", "verdict", "role", "function_code", "kind"}
    assert all(set(entry) == keys for entry in golden_manifest)
    assert len({entry["protocol"] for entry in golden_manifest}) == 7
