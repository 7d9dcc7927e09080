"""Dissectors for the seven supported ICS protocols.

Identification runs in two stages, mirroring how mature packet analyzers
behave: a normal dissector keyed on a registered port validates header
fields and may call a packet malformed; if no registered port matches,
heuristic dissectors pattern-match the payload on any port. Heuristic
acceptance is deliberately conservative: a heuristic declines anything its
dissector would call malformed.

dissect_segment makes the one port decision per packet: it reads the two
ports from the packet's transport dict of the port table (ports.PORTS,
the table the port-only baseline reads too), tries the destination port's
dissector and then the source port's as straight-line code, hands each the
role its port implies, and gives the dissection its direction. The
dissectors themselves judge only bytes.

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
from functools import lru_cache, partial
from typing import NamedTuple

from .capture import (
    ICMP,
    ICMP_ERROR_TYPES,
    TCP,
    UDP,
    PacketRecord,
    ipv4_view,
)
from .inputs import load_packaged_json
from .ports import PORTS

log = logging.getLogger(__name__)

MODBUS = "modbus"
S7COMM = "s7comm"
ETHERNETIP = "ethernetip"
BACNET = "bacnet"
DNP3 = "dnp3"
HARTIP = "hartip"
IEC104 = "iec104"

# The seven dissected protocols, by the names every report and input file uses.
PROTOCOLS = (MODBUS, S7COMM, ETHERNETIP, BACNET, DNP3, HARTIP, IEC104)

NORMAL = "normal"
HEURISTIC = "heuristic"
WELL_FORMED = "well_formed"
MALFORMED = "malformed"
UNKNOWN = "unknown"

# A packet's direction: sent to a registered port, from one, or neither.
REQUEST = "request"
REPLY = "reply"
UNRELATED = "unrelated"

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


class Dissection(NamedTuple):
    protocol: str
    kind: str  # normal | heuristic
    role: str  # request | reply | unknown
    function_code: int | None
    verdict: str  # well_formed | malformed
    # request when the destination port is registered on the transport, else
    # reply; unrelated for a heuristic claim and anything an ICMP error quotes.
    direction: str
    via_icmp_quote: bool = False  # found in the datagram an ICMP error message quotes


@lru_cache(maxsize=1)
def _opcode_tables() -> dict:
    return load_packaged_json("opcodes.json")


def action_name(protocol: str, function_code: int | None) -> str | None:
    """Human-readable action for a protocol opcode, if the table knows it."""
    if function_code is None:
        return None
    return _opcode_tables().get(protocol, {}).get(str(function_code))


# Each dissector takes the packet and the role its port implies (REQUEST on
# the destination port, REPLY on the source port, UNKNOWN for a heuristic)
# and returns (role, function code, verdict), or None when the bytes are not
# its protocol or too little of them was captured.


def dissect_modbus(packet: PacketRecord, port_role: str) -> tuple | None:
    """Modbus/TCP: MBAP header plus function code.

    Needs the 7-byte MBAP header and the function code captured. Protocol id
    must be zero, the MBAP length must account for the wire payload exactly,
    and function code 0 is invalid. Codes 128-255 are exception replies.
    """
    p = packet.payload
    if packet.payload_wire_len < 8 or len(p) < 8:
        return None
    fc = p[7]
    if p[2:4] != b"\x00\x00" or fc == 0:
        return port_role, fc, MALFORMED
    declared = int.from_bytes(p[4:6], "big")
    if declared < 2 or 6 + declared != packet.payload_wire_len:
        return port_role, fc, MALFORMED
    return (REPLY if fc >= 128 else port_role), fc, WELL_FORMED


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


def dissect_bacnet(packet: PacketRecord, port_role: str) -> tuple | None:
    """BACnet/IP: the 4-byte BVLC header is the identification unit.

    BVLC length must equal the UDP payload length on the wire; for original
    NPDU encapsulations the NPDU version byte must be 0x01 when captured.
    """
    p = packet.payload
    if packet.payload_wire_len < 4 or len(p) < 4:
        return None
    if p[0] != 0x81:
        return None
    function = p[1]
    if function > BVLC_MAX_FUNCTION:
        return port_role, None, MALFORMED
    declared = int.from_bytes(p[2:4], "big")
    if declared != packet.payload_wire_len:
        return port_role, None, MALFORMED
    if function in (BVLC_ORIGINAL_UNICAST, BVLC_ORIGINAL_BROADCAST):
        if len(p) >= 5 and p[4] != 0x01:
            return port_role, None, MALFORMED
    return port_role, _bacnet_service_choice(p), WELL_FORMED


def dissect_s7(packet: PacketRecord, port_role: str, heuristic: bool = False) -> tuple | None:
    """S7comm over TPKT/COTP.

    TPKT magic 0x03 0x00, COTP data transfer 0xF0, then the S7 header with
    protocol id 0x32 and a known message type; a bad protocol id or message
    type is malformed. The message type alone decides the role. With
    heuristic set, the whole TPKT-declared message must be captured before
    the packet is identified.
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
    msg_type = p[8]
    if p[7] != 0x32 or msg_type not in S7_HEADER_LEN:
        return UNKNOWN, None, MALFORMED
    role = S7_ROLE[msg_type]
    header_len = S7_HEADER_LEN[msg_type]
    need = 7 + header_len
    if len(p) < need:
        return None
    param_len = int.from_bytes(p[13:15], "big")
    data_len = int.from_bytes(p[15:17], "big")
    if need + param_len + data_len != tpkt_len:
        return role, None, MALFORMED
    if heuristic and len(p) < tpkt_len:
        return None
    return role, (p[need] if param_len >= 1 and len(p) > need else None), WELL_FORMED


def dissect_ethernetip(packet: PacketRecord, port_role: str) -> tuple | None:
    """EtherNet/IP encapsulation: 24-byte header, known command and status.

    The encapsulation length plus header must match the wire payload, the
    options word must be zero, and the complete declared message has to be
    captured before the packet is identified.
    """
    p = packet.payload
    if packet.payload_wire_len < 24 or len(p) < 24:
        return None
    command = int.from_bytes(p[0:2], "little")
    declared = int.from_bytes(p[2:4], "little")
    if (command not in ENIP_COMMANDS or 24 + declared != packet.payload_wire_len
            or int.from_bytes(p[8:12], "little") not in ENIP_STATUS
            or int.from_bytes(p[20:24], "little") != 0):
        return port_role, command, MALFORMED
    if len(p) < 24 + declared:
        return None
    return port_role, command, WELL_FORMED


def _dnp3_crc_of_byte(crc: int) -> int:
    for _ in range(8):
        crc = (crc >> 1) ^ 0xA6BC if crc & 1 else crc >> 1
    return crc


_DNP3_CRC_TABLE = tuple(_dnp3_crc_of_byte(byte) for byte in range(256))


def dnp3_crc(block: bytes) -> int:
    """Data-link CRC-16 (reversed polynomial 0xA6BC, inverted output)."""
    crc = 0
    for byte in block:
        crc = (crc >> 8) ^ _DNP3_CRC_TABLE[(crc ^ byte) & 0xFF]
    return (~crc) & 0xFFFF


def dissect_dnp3(packet: PacketRecord, port_role: str, heuristic: bool = False) -> tuple | None:
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
    length = p[2]
    ctrl = p[3]
    fc = ctrl & 0x0F
    if length < 5:
        return port_role, fc, MALFORMED
    role = REQUEST if ctrl & 0x80 else REPLY
    user = length - 5
    expected_total = 10 + user + 2 * ((user + 15) // 16)
    if expected_total != packet.payload_wire_len:
        return role, fc, MALFORMED
    if len(p) >= 10:
        if int.from_bytes(p[8:10], "little") != dnp3_crc(p[0:8]):
            return role, fc, MALFORMED
    elif heuristic:
        return None
    return role, fc, WELL_FORMED


def dissect_hartip(packet: PacketRecord, port_role: str) -> tuple | None:
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
    role = HARTIP_ROLE.get(msg_type, port_role)
    declared = int.from_bytes(p[6:8], "big")
    if msg_type > 3 or msg_id > 3 or declared != packet.payload_wire_len:
        return role, msg_id, MALFORMED
    if len(p) < declared:
        return None
    return role, msg_id, WELL_FORMED


def dissect_iec104(packet: PacketRecord, port_role: str) -> tuple | None:
    """IEC 60870-5-104 APCI: 0x68 start, APDU length in [4, 253], I/S/U frame.

    I-frames must carry an ASDU with a defined type id; the first APDU must
    be completely captured before the packet is identified.
    """
    p = packet.payload
    if packet.payload_wire_len < 6 or len(p) < 6:
        return None
    if p[0] != 0x68:
        return None
    apdu_len = p[1]
    if not 4 <= apdu_len <= 253 or 2 + apdu_len > packet.payload_wire_len:
        return port_role, None, MALFORMED
    ctrl0 = p[2]
    if ctrl0 & 0x01 == 0:  # I-frame
        if apdu_len <= 4:
            return port_role, None, MALFORMED
        if len(p) < 2 + apdu_len:
            return None
        type_id = p[6]
        return port_role, type_id, (WELL_FORMED if type_id in IEC104_TYPE_IDS else MALFORMED)
    if ctrl0 & 0x03 == 0x01:  # S-frame
        return port_role, None, (WELL_FORMED if apdu_len == 4 and p[3] == 0 else MALFORMED)
    # U-frame
    if apdu_len != 4 or ctrl0 not in IEC104_U_FUNCTIONS or p[3:6] != b"\x00\x00\x00":
        return port_role, None, MALFORMED
    return port_role, ctrl0, WELL_FORMED


_NORMAL_DISSECTORS = {
    MODBUS: dissect_modbus,
    S7COMM: dissect_s7,
    ETHERNETIP: dissect_ethernetip,
    BACNET: dissect_bacnet,
    DNP3: dissect_dnp3,
    HARTIP: dissect_hartip,
    IEC104: dissect_iec104,
}

# Heuristic (protocol, dissector) pairs in decreasing order of magic selectivity.
HEURISTICS = (
    (IEC104, dissect_iec104),
    (DNP3, partial(dissect_dnp3, heuristic=True)),
    (S7COMM, partial(dissect_s7, heuristic=True)),
)

# Per IP protocol, the heuristics whose protocol the port table registers on
# that transport: a heuristic never claims a packet of a transport its
# protocol does not run over (QUIC on UDP/443 would pass for IEC-104).
_HEURISTICS_ON = {ip_proto: tuple(h for h in HEURISTICS if h[0] in ports.values())
                  for ip_proto, ports in PORTS.by_transport.items()}


def _note_declined_s7(packet: PacketRecord, stats: Counter | None) -> None:
    """Count a TPKT-framed payload the S7comm dissector declined on its port."""
    if stats is not None and packet.payload[:2] == b"\x03\x00":
        stats["non_s7comm_tpkt_on_102"] += 1


def dissect_segment(packet: PacketRecord, stats: Counter | None = None,
                    via_icmp_quote: bool = False) -> Dissection | None:
    """Identify a TCP or UDP payload: registered-port dissectors first.

    The one place a packet's ports are looked up. When either port is
    registered, the normal dissector of the destination port's protocol
    decides first (port role request), then the source port's (reply), and
    heuristics are never consulted; the direction is request when the
    destination port is registered, else reply. With neither registered,
    the first heuristic to claim the payload decides, declining anything it
    would call malformed; the direction is unrelated. Only the heuristics of
    protocols the port table registers on the packet's transport try it.
    Empty payloads (pure transport control segments) are never candidates.
    """
    if not packet.payload:
        return None
    ports = PORTS.by_transport[packet.ip_proto]
    dst_protocol = ports.get(packet.dst_port)
    src_protocol = ports.get(packet.src_port)
    # tuple.__new__ skips the Python-level __new__ NamedTuple generates.
    if dst_protocol is None and src_protocol is None:
        for protocol, dissector in _HEURISTICS_ON[packet.ip_proto]:
            found = dissector(packet, UNKNOWN)
            if found is not None and found[2] != MALFORMED:
                role, function_code, verdict = found
                return tuple.__new__(Dissection, (protocol, HEURISTIC, role, function_code,
                                                  verdict, UNRELATED, via_icmp_quote))
        return None
    direction = UNRELATED if via_icmp_quote else (REQUEST if dst_protocol else REPLY)
    if dst_protocol is not None:
        found = _NORMAL_DISSECTORS[dst_protocol](packet, REQUEST)
        if found is not None:
            role, function_code, verdict = found
            return tuple.__new__(Dissection, (dst_protocol, NORMAL, role, function_code, verdict,
                                              direction, via_icmp_quote))
        if dst_protocol == S7COMM:
            _note_declined_s7(packet, stats)
        if src_protocol is None or src_protocol == dst_protocol:
            return None
    found = _NORMAL_DISSECTORS[src_protocol](packet, REPLY)
    if found is not None:
        role, function_code, verdict = found
        return tuple.__new__(Dissection, (src_protocol, NORMAL, role, function_code, verdict,
                                          direction, via_icmp_quote))
    if src_protocol == S7COMM:
        _note_declined_s7(packet, stats)
    return None


def dissect(record: PacketRecord, stats: Counter | None = None) -> Dissection | None:
    """Identify a packet record from the reader's transport decode.

    An ICMP error message is dissected through its quoted inner datagram,
    the way overly eager analyzers treat backscatter; the result is marked
    via_icmp_quote, and the tunnel-stripping sanitizer step exists to
    reverse exactly that. dissect_segment refuses an empty payload, and
    ipv4_view an ICMP error that quotes nothing.
    """
    if record.ip_proto != ICMP:
        return dissect_segment(record, stats)
    if record.icmp_type not in ICMP_ERROR_TYPES:
        return None
    inner, _ = ipv4_view(record.payload, record.ts)
    if inner is None or inner.ip_proto not in (TCP, UDP):
        return None
    return dissect_segment(inner, stats, via_icmp_quote=True)
