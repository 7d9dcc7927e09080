"""Dissectors for the seven supported ICS protocols.

Identification runs in two stages, mirroring how mature packet analyzers
behave: a normal dissector keyed on a registered port validates header
fields and may call a packet malformed; if no registered port matches,
heuristic dissectors pattern-match the payload on any port. Heuristic
acceptance is deliberately conservative: a heuristic declines anything its
dissector would call malformed.

Verdict rules per protocol follow one scheme: the entry magic (or port)
must match or the packet is not this protocol at all; an enumerated or
range-constrained header field that is readable but out of specification
makes the packet malformed; length fields are judged against the wire
length derived from the IP header, so snap truncation alone never flags a
packet. Identification additionally requires a minimum number of captured
payload bytes (a fixed prefix for modbus, bacnet and dnp3; the complete
declared message for ethernetip, hartip, iec104 and heuristic s7comm),
which is what gives each protocol its frame-length identification floor.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .capture import (
    ICMP,
    ICMP_ERROR_TYPES,
    REPLY,
    REQUEST,
    TCP,
    UDP,
    PacketRecord,
    TransportView,
    ipv4_view,
)
from .ports import PORTS, load_packaged_json

log = logging.getLogger(__name__)

MODBUS = "modbus"
S7COMM = "s7comm"
ETHERNETIP = "ethernetip"
BACNET = "bacnet"
DNP3 = "dnp3"
HARTIP = "hartip"
IEC104 = "iec104"
PROTOCOLS = (MODBUS, S7COMM, ETHERNETIP, BACNET, DNP3, HARTIP, IEC104)

NORMAL = "normal"
HEURISTIC = "heuristic"
WELL_FORMED = "well_formed"
MALFORMED = "malformed"
UNKNOWN = "unknown"

# Frame length (from link-layer start) at which each protocol's golden
# packet becomes identifiable; derived byte-wise against the golden corpus.
MIN_IDENTIFIABLE_FRAME_BYTES = {
    MODBUS: 74,
    S7COMM: 93,
    ETHERNETIP: 74,
    BACNET: 46,
    DNP3: 62,
    HARTIP: 78,
    IEC104: 76,
}

ENIP_COMMANDS = frozenset(
    {0x0000, 0x0004, 0x0063, 0x0064, 0x0065, 0x0066, 0x006F, 0x0070, 0x0072, 0x0073}
)
ENIP_STATUS = frozenset({0x0000, 0x0001, 0x0002, 0x0003, 0x0004, 0x0064, 0x0065, 0x0069})

BVLC_MAX_FUNCTION = 0x0C
BVLC_ORIGINAL_UNICAST = 0x0A
BVLC_ORIGINAL_BROADCAST = 0x0B

S7_HEADER_LEN = {1: 10, 7: 10, 2: 12, 3: 12}  # message type -> header bytes
S7_ROLE = {1: REQUEST, 2: REPLY, 3: REPLY, 7: UNKNOWN}

IEC104_U_FUNCTIONS = frozenset({0x07, 0x0B, 0x13, 0x23, 0x43, 0x83})
IEC104_TYPE_IDS = frozenset(
    list(range(1, 22))
    + list(range(30, 41))
    + list(range(45, 52))
    + list(range(58, 65))
    + [70]
    + list(range(100, 108))
    + list(range(110, 114))
    + list(range(120, 128))
)

HARTIP_ROLE = {0: REQUEST, 1: REPLY, 2: REPLY, 3: REPLY}


@dataclass(frozen=True)
class Dissection:
    protocol: str
    kind: str  # normal | heuristic
    role: str  # request | reply | unknown
    function_code: int | None
    verdict: str  # well_formed | malformed
    via_icmp_quote: bool = False  # found in the datagram an ICMP error message quotes


# A record, or the TCP/UDP datagram an ICMP error quotes: the dissectors read
# payload (the captured bytes), payload_wire_len (the payload's length on the
# wire per the IP header), ip_proto and the two ports.
Packet = PacketRecord | TransportView


@lru_cache(maxsize=1)
def _opcode_tables() -> dict:
    return load_packaged_json("opcodes.json")


def action_name(protocol: str, function_code: int | None) -> str | None:
    """Human-readable action for a protocol opcode, if the table knows it."""
    if function_code is None:
        return None
    return _opcode_tables().get(protocol, {}).get(str(function_code))


def _port_role(packet: Packet, protocol: str) -> str:
    if PORTS.protocol_for(packet.dst_port, packet.ip_proto) == protocol:
        return REQUEST
    if PORTS.protocol_for(packet.src_port, packet.ip_proto) == protocol:
        return REPLY
    return UNKNOWN


def dissect_modbus(packet: Packet) -> Dissection | None:
    """Modbus/TCP: MBAP header plus function code.

    Needs the 7-byte MBAP header and the function code captured. Protocol id
    must be zero, the MBAP length must account for the wire payload exactly,
    and function code 0 is invalid. Codes 128-255 are exception replies.
    """
    p = packet.payload
    if packet.payload_wire_len < 8 or len(p) < 8:
        return None
    role = _port_role(packet, MODBUS)
    fc = p[7]
    if p[2:4] != b"\x00\x00":
        return Dissection(MODBUS, NORMAL, role, fc, MALFORMED)
    if fc == 0:
        return Dissection(MODBUS, NORMAL, role, fc, MALFORMED)
    declared = int.from_bytes(p[4:6], "big")
    if declared < 2 or 6 + declared != packet.payload_wire_len:
        return Dissection(MODBUS, NORMAL, role, fc, MALFORMED)
    if fc >= 128:
        role = REPLY
    return Dissection(MODBUS, NORMAL, role, fc, WELL_FORMED)


def _bacnet_service_choice(p: bytes) -> int | None:
    """Walk NPDU addressing to the APDU service choice, if captured."""
    if len(p) < 6:
        return None
    control = p[5]
    if control & 0x80:  # network-layer message, no APDU
        return None
    off = 6
    if control & 0x20:  # destination specifier: DNET(2) DLEN(1) DADR(DLEN)
        if len(p) < off + 3:
            return None
        off += 3 + p[off + 2]
    if control & 0x08:  # source specifier
        if len(p) < off + 3:
            return None
        off += 3 + p[off + 2]
    if control & 0x20:  # hop count trails the destination specifier
        off += 1
    if len(p) <= off:
        return None
    pdu_type = p[off] >> 4
    if pdu_type == 0x0:  # confirmed request: type, segmentation, invoke id, service
        return p[off + 3] if len(p) > off + 3 else None
    if pdu_type == 0x1:  # unconfirmed request: type, service
        return p[off + 1] if len(p) > off + 1 else None
    if pdu_type in (0x2, 0x3, 0x5):  # acks and errors carry service at offset 2
        return p[off + 2] if len(p) > off + 2 else None
    return None


def dissect_bacnet(packet: Packet) -> Dissection | None:
    """BACnet/IP: the 4-byte BVLC header is the identification unit.

    BVLC length must equal the UDP payload length on the wire; for original
    NPDU encapsulations the NPDU version byte must be 0x01 when captured.
    """
    p = packet.payload
    if packet.payload_wire_len < 4 or len(p) < 4:
        return None
    if p[0] != 0x81:
        return None
    role = _port_role(packet, BACNET)
    function = p[1]
    if function > BVLC_MAX_FUNCTION:
        return Dissection(BACNET, NORMAL, role, None, MALFORMED)
    declared = int.from_bytes(p[2:4], "big")
    if declared != packet.payload_wire_len:
        return Dissection(BACNET, NORMAL, role, None, MALFORMED)
    if function in (BVLC_ORIGINAL_UNICAST, BVLC_ORIGINAL_BROADCAST):
        if len(p) >= 5 and p[4] != 0x01:
            return Dissection(BACNET, NORMAL, role, None, MALFORMED)
    return Dissection(BACNET, NORMAL, role, _bacnet_service_choice(p), WELL_FORMED)


def dissect_s7(packet: Packet, heuristic: bool = False) -> Dissection | None:
    """S7comm over TPKT/COTP.

    TPKT magic 0x03 0x00, COTP data transfer 0xF0, then the S7 header with
    protocol id 0x32 and a known message type; a bad protocol id or message
    type is malformed. With heuristic set, the whole TPKT-declared message
    must be captured before the packet is identified.
    """
    p = packet.payload
    if packet.payload_wire_len < 17 or len(p) < 17:
        return None
    if p[0] != 0x03 or p[1] != 0x00:
        return None
    tpkt_len = int.from_bytes(p[2:4], "big")
    if tpkt_len != packet.payload_wire_len:
        return None
    if p[5] != 0xF0:
        return None
    if p[7] != 0x32:
        return Dissection(S7COMM, NORMAL, UNKNOWN, None, MALFORMED)
    msg_type = p[8]
    if msg_type not in S7_HEADER_LEN:
        return Dissection(S7COMM, NORMAL, UNKNOWN, None, MALFORMED)
    role = S7_ROLE[msg_type]
    header_len = S7_HEADER_LEN[msg_type]
    need = 7 + header_len
    if len(p) < need:
        return None
    param_len = int.from_bytes(p[13:15], "big")
    data_len = int.from_bytes(p[15:17], "big")
    if need + param_len + data_len != tpkt_len:
        return Dissection(S7COMM, NORMAL, role, None, MALFORMED)
    if heuristic and len(p) < tpkt_len:
        return None
    fc = p[need] if param_len >= 1 and len(p) > need else None
    return Dissection(S7COMM, NORMAL, role, fc, WELL_FORMED)


def dissect_ethernetip(packet: Packet) -> Dissection | None:
    """EtherNet/IP encapsulation: 24-byte header, known command and status.

    The encapsulation length plus header must match the wire payload, the
    options word must be zero, and the complete declared message has to be
    captured before the packet is identified.
    """
    p = packet.payload
    if packet.payload_wire_len < 24 or len(p) < 24:
        return None
    role = _port_role(packet, ETHERNETIP)
    command = int.from_bytes(p[0:2], "little")
    if command not in ENIP_COMMANDS:
        return Dissection(ETHERNETIP, NORMAL, role, command, MALFORMED)
    declared = int.from_bytes(p[2:4], "little")
    if 24 + declared != packet.payload_wire_len:
        return Dissection(ETHERNETIP, NORMAL, role, command, MALFORMED)
    status = int.from_bytes(p[8:12], "little")
    if status not in ENIP_STATUS:
        return Dissection(ETHERNETIP, NORMAL, role, command, MALFORMED)
    options = int.from_bytes(p[20:24], "little")
    if options != 0:
        return Dissection(ETHERNETIP, NORMAL, role, command, MALFORMED)
    if len(p) < 24 + declared:
        return None
    return Dissection(ETHERNETIP, NORMAL, role, command, WELL_FORMED)


_DNP3_CRC_TABLE = None


def _dnp3_crc_table():
    global _DNP3_CRC_TABLE
    if _DNP3_CRC_TABLE is None:
        table = []
        for byte in range(256):
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ 0xA6BC if crc & 1 else crc >> 1
            table.append(crc)
        _DNP3_CRC_TABLE = table
    return _DNP3_CRC_TABLE


def dnp3_crc(block: bytes) -> int:
    """Data-link CRC-16 (reversed polynomial 0xA6BC, inverted output)."""
    table = _dnp3_crc_table()
    crc = 0
    for byte in block:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return (~crc) & 0xFFFF


def dissect_dnp3(packet: Packet, heuristic: bool = False) -> Dissection | None:
    """DNP3 data-link frame: 0x05 0x64 magic, length sanity, header CRC.

    Identification needs the header through the source address captured;
    the header CRC is verified whenever its two bytes made it into the
    capture, and with heuristic set they must have. The DIR bit decides the
    role: master-to-outstation frames are requests.
    """
    p = packet.payload
    if packet.payload_wire_len < 10 or len(p) < 8:
        return None
    if p[0] != 0x05 or p[1] != 0x64:
        return None
    role_fallback = _port_role(packet, DNP3)
    length = p[2]
    ctrl = p[3]
    fc = ctrl & 0x0F
    role = REQUEST if ctrl & 0x80 else REPLY
    if length < 5:
        return Dissection(DNP3, NORMAL, role_fallback, fc, MALFORMED)
    user = length - 5
    expected_total = 10 + user + 2 * ((user + 15) // 16)
    if expected_total != packet.payload_wire_len:
        return Dissection(DNP3, NORMAL, role, fc, MALFORMED)
    if len(p) >= 10:
        if int.from_bytes(p[8:10], "little") != dnp3_crc(p[0:8]):
            return Dissection(DNP3, NORMAL, role, fc, MALFORMED)
    elif heuristic:
        return None
    return Dissection(DNP3, NORMAL, role, fc, WELL_FORMED)


def dissect_hartip(packet: Packet) -> Dissection | None:
    """HART-IP: version 1 header, enumerated message type and id.

    The byte-count field covers the whole message and must equal the wire
    payload; the complete message has to be captured for identification.
    """
    p = packet.payload
    if packet.payload_wire_len < 8 or len(p) < 8:
        return None
    if p[0] != 0x01:
        return None
    msg_type = p[1]
    msg_id = p[2]
    role = HARTIP_ROLE.get(msg_type, _port_role(packet, HARTIP))
    if msg_type > 3:
        return Dissection(HARTIP, NORMAL, role, msg_id, MALFORMED)
    if msg_id > 3:
        return Dissection(HARTIP, NORMAL, role, msg_id, MALFORMED)
    declared = int.from_bytes(p[6:8], "big")
    if declared != packet.payload_wire_len:
        return Dissection(HARTIP, NORMAL, role, msg_id, MALFORMED)
    if len(p) < declared:
        return None
    return Dissection(HARTIP, NORMAL, role, msg_id, WELL_FORMED)


def dissect_iec104(packet: Packet) -> Dissection | None:
    """IEC 60870-5-104 APCI: 0x68 start, APDU length in [4, 253], I/S/U frame.

    I-frames must carry an ASDU with a defined type id; the first APDU must
    be completely captured before the packet is identified.
    """
    p = packet.payload
    if packet.payload_wire_len < 6 or len(p) < 6:
        return None
    if p[0] != 0x68:
        return None
    role = _port_role(packet, IEC104)
    apdu_len = p[1]
    if not 4 <= apdu_len <= 253:
        return Dissection(IEC104, NORMAL, role, None, MALFORMED)
    if 2 + apdu_len > packet.payload_wire_len:
        return Dissection(IEC104, NORMAL, role, None, MALFORMED)
    ctrl0 = p[2]
    if ctrl0 & 0x01 == 0:  # I-frame
        if apdu_len <= 4:
            return Dissection(IEC104, NORMAL, role, None, MALFORMED)
        if len(p) < 2 + apdu_len:
            return None
        type_id = p[6]
        if type_id not in IEC104_TYPE_IDS:
            return Dissection(IEC104, NORMAL, role, type_id, MALFORMED)
        return Dissection(IEC104, NORMAL, role, type_id, WELL_FORMED)
    if ctrl0 & 0x03 == 0x01:  # S-frame
        if apdu_len != 4 or p[3] != 0:
            return Dissection(IEC104, NORMAL, role, None, MALFORMED)
        return Dissection(IEC104, NORMAL, role, None, WELL_FORMED)
    # U-frame
    if apdu_len != 4 or ctrl0 not in IEC104_U_FUNCTIONS or p[3:6] != b"\x00\x00\x00":
        return Dissection(IEC104, NORMAL, role, None, MALFORMED)
    return Dissection(IEC104, NORMAL, role, ctrl0, WELL_FORMED)


_NORMAL_DISSECTORS = {
    MODBUS: dissect_modbus,
    S7COMM: dissect_s7,
    ETHERNETIP: dissect_ethernetip,
    BACNET: dissect_bacnet,
    DNP3: dissect_dnp3,
    HARTIP: dissect_hartip,
    IEC104: dissect_iec104,
}

# Heuristic dissectors in decreasing order of magic selectivity.
HEURISTICS = (
    dissect_iec104,
    partial(dissect_dnp3, heuristic=True),
    partial(dissect_s7, heuristic=True),
)


def _heuristic_claim(dissector, packet: Packet) -> Dissection | None:
    """The one heuristic rule, for every heuristic dissector.

    A heuristic declines anything its dissector would call malformed, and
    what it claims is kind=heuristic.
    """
    found = dissector(packet)
    if found is None or found.verdict == MALFORMED:
        return None
    return replace(found, kind=HEURISTIC)


def dissect_segment(packet: Packet, stats: Counter | None = None) -> Dissection | None:
    """Identify a transport payload: registered-port dissectors first.

    When either port is registered the matching normal dissector decides and
    heuristics are never consulted. Empty payloads (pure transport control
    segments) are never candidates.
    """
    if not packet.payload:
        return None
    tried: list[str] = []
    for port in (packet.dst_port, packet.src_port):
        protocol = PORTS.protocol_for(port, packet.ip_proto)
        if protocol is None or protocol in tried:
            continue
        result = _NORMAL_DISSECTORS[protocol](packet)
        if result is not None:
            return result
        tried.append(protocol)
        if protocol == S7COMM and stats is not None and packet.payload[:2] == b"\x03\x00":
            stats["non_s7comm_tpkt_on_102"] += 1
    if tried:
        return None
    for dissector in HEURISTICS:
        result = _heuristic_claim(dissector, packet)
        if result is not None:
            return result
    return None


def dissect(record: PacketRecord, stats: Counter | None = None) -> Dissection | None:
    """Identify a packet record from the reader's transport decode.

    An ICMP error message is dissected through its quoted inner datagram,
    the way overly eager analyzers treat backscatter; the result is marked
    via_icmp_quote, and the tunnel-stripping sanitizer step exists to
    reverse exactly that.
    """
    if not record.payload:
        return None
    if record.ip_proto != ICMP:
        return dissect_segment(record, stats)
    if record.icmp_type not in ICMP_ERROR_TYPES:
        return None
    inner = ipv4_view(record.payload)
    if inner is None or inner.ip_proto not in (TCP, UDP):
        return None
    found = dissect_segment(inner, stats)
    return None if found is None else replace(found, via_icmp_quote=True)
