"""Synthetic labeled pcap corpora for exercising every pipeline stage.

Scenario specs describe flows (industrial exchanges, scanner sweeps,
backscatter, malformed plants, fingerprintable decoys); generation is fully
deterministic per seed and emits, next to the capture, a ground-truth file
with one record per packet plus every sidecar table the analysis pipeline
consumes (scanner registry, honeypot lists, reverse DNS snapshot, prefix
tables, topology, scan snapshot and a ready-made analyze config).

The per-protocol payload templates below are also the source of the golden
packet corpus used by the dissector tests, so the generator and the tests
cannot drift apart.
"""

from __future__ import annotations

import ipaddress
import json
import random
import struct
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .capture import REPLY, REQUEST, UNRELATED, CaptureMeta, int_to_ip, ip_to_int
from .dissectors import (
    BACNET,
    DNP3,
    ETHERNETIP,
    HARTIP,
    HEURISTIC,
    IEC104,
    MALFORMED,
    MODBUS,
    NORMAL,
    S7COMM,
    UNKNOWN,
    WELL_FORMED,
    dnp3_crc,
)
from .ports import default_registry
from .sanitize import DROPPED_KNOWN_PROTOCOL, DROPPED_MALFORMED, DROPPED_TUNNEL, KEPT

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_US_PER_DAY = 86_400_000_000

ETH_HEADER = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"

TCP_TS_OPTIONS = b"\x01\x01\x08\x0a" + struct.pack(">II", 1, 0)

INDUSTRIAL_LABEL = "industrial"
NON_INDUSTRIAL_LABEL = "non_industrial"

INDUSTRIAL = "industrial"
SCANNER_SWEEP = "scanner_sweep"
BACKSCATTER = "backscatter"
MALFORMED_KIND = "malformed"
DPI_DECOY = "dpi_decoy"
FLOW_KINDS = (INDUSTRIAL, SCANNER_SWEEP, BACKSCATTER, MALFORMED_KIND, DPI_DECOY)

# Canonical scan-project rDNS patterns; prefix lists come from the flows.
PROJECT_PATTERNS = {
    "Shodan": ["shodan"],
    "Rapid7": ["rapid7", "sonar."],
    "Censys": ["census"],
    "Kudelski": ["kudelski"],
}
PROJECT_ORDER = ("Shodan", "Rapid7", "Censys", "Kudelski")


class ScenarioError(ValueError):
    """Invalid scenario specification."""


# ---------------------------------------------------------------------------
# Frame building


def _aton(ip: str) -> bytes:
    a, b, c, d = ip.split(".")
    return bytes((int(a), int(b), int(c), int(d)))


def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(int.from_bytes(data[i:i + 2], "big") for i in range(0, len(data), 2))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def build_ipv4(src: str, dst: str, proto: int, body: bytes, ident: int = 0) -> bytes:
    header = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, 20 + len(body), ident & 0xFFFF, 0x4000, 64, proto, 0,
        _aton(src), _aton(dst),
    )
    checksum = _checksum16(header)
    return header[:10] + checksum.to_bytes(2, "big") + header[12:] + body


def _pseudo_header(src: str, dst: str, proto: int, length: int) -> bytes:
    return _aton(src) + _aton(dst) + b"\x00" + bytes([proto]) + length.to_bytes(2, "big")


def build_tcp(
    src_ip: str, dst_ip: str, sport: int, dport: int, payload: bytes,
    options: bytes = b"", seq: int = 1000,
) -> bytes:
    if len(options) % 4:
        raise ValueError("TCP options must pad to 32-bit words")
    offset = (20 + len(options)) // 4
    header = struct.pack(
        ">HHIIBBHHH", sport, dport, seq, 0, offset << 4, 0x18, 8192, 0, 0
    ) + options
    segment = header + payload
    checksum = _checksum16(_pseudo_header(src_ip, dst_ip, 6, len(segment)) + segment)
    return segment[:16] + checksum.to_bytes(2, "big") + segment[18:]


def build_udp(src_ip: str, dst_ip: str, sport: int, dport: int, payload: bytes) -> bytes:
    length = 8 + len(payload)
    datagram = struct.pack(">HHHH", sport, dport, length, 0) + payload
    checksum = _checksum16(_pseudo_header(src_ip, dst_ip, 17, length) + datagram) or 0xFFFF
    return datagram[:6] + checksum.to_bytes(2, "big") + datagram[8:]


def build_icmp_error(icmp_type: int, code: int, quoted: bytes) -> bytes:
    message = struct.pack(">BBHI", icmp_type, code, 0, 0) + quoted
    checksum = _checksum16(message)
    return message[:2] + checksum.to_bytes(2, "big") + message[4:]


def build_frame(
    src_ip: str, dst_ip: str, transport: str, sport: int, dport: int,
    payload: bytes, tcp_options: bytes = b"", ident: int = 0,
) -> bytes:
    if transport == "tcp":
        body = build_tcp(src_ip, dst_ip, sport, dport, payload, options=tcp_options)
        proto = 6
    elif transport == "udp":
        body = build_udp(src_ip, dst_ip, sport, dport, payload)
        proto = 17
    else:
        raise ValueError(f"unknown transport {transport!r}")
    return ETH_HEADER + build_ipv4(src_ip, dst_ip, proto, body, ident=ident)


def build_backscatter_frame(
    router_ip: str, probe_src: str, probe_dst: str, transport: str,
    sport: int, dport: int, probe_payload: bytes, ident: int = 0,
) -> bytes:
    """ICMP port-unreachable quoting the original probe datagram in full."""
    if transport == "udp":
        inner_body = build_udp(probe_src, probe_dst, sport, dport, probe_payload)
        inner_proto = 17
    else:
        inner_body = build_tcp(probe_src, probe_dst, sport, dport, probe_payload)
        inner_proto = 6
    inner = build_ipv4(probe_src, probe_dst, inner_proto, inner_body, ident=ident)
    icmp = build_icmp_error(3, 3, inner)
    return ETH_HEADER + build_ipv4(router_ip, probe_src, 1, icmp, ident=ident + 1)


# ---------------------------------------------------------------------------
# Protocol payload templates; builders return (payload, function_code)


def modbus_request(function_code: int = 3, transaction_id: int = 1, unit: int = 1) -> bytes:
    body = bytes([unit, function_code]) + b"\x00\x00\x00\x0a"
    return struct.pack(">HHH", transaction_id & 0xFFFF, 0, len(body)) + body


def modbus_reply(function_code: int = 3, transaction_id: int = 1, unit: int = 1) -> bytes:
    body = bytes([unit, function_code, 0x04]) + b"\x00\x2a\x00\x2b"
    return struct.pack(">HHH", transaction_id & 0xFFFF, 0, len(body)) + body


def modbus_exception_reply(function_code: int = 3, transaction_id: int = 1) -> bytes:
    body = bytes([1, function_code | 0x80, 0x02])
    return struct.pack(">HHH", transaction_id & 0xFFFF, 0, len(body)) + body


def bacnet_read_property(invoke_id: int = 1, property_id: int = 85) -> bytes:
    apdu = bytes([0x00, 0x05, invoke_id & 0xFF, 0x0C, 0x0C, 0x00, 0x80, 0x00, 0x01,
                  0x19, property_id & 0xFF])
    return bytes([0x81, 0x0A]) + (4 + 2 + len(apdu)).to_bytes(2, "big") + b"\x01\x04" + apdu


def bacnet_whois() -> bytes:
    return bytes([0x81, 0x0A, 0x00, 0x08, 0x01, 0x00, 0x10, 0x08])


def bacnet_read_property_ack(invoke_id: int = 1, property_id: int = 85) -> bytes:
    apdu = bytes([0x30, invoke_id & 0xFF, 0x0C, 0x0C, 0x00, 0x80, 0x00, 0x01,
                  0x19, property_id & 0xFF, 0x3E, 0x44, 0x42, 0x28, 0x00, 0x00, 0x3F])
    return bytes([0x81, 0x0A]) + (4 + 2 + len(apdu)).to_bytes(2, "big") + b"\x01\x00" + apdu


def _s7_pdu(message_type: int, parameter: bytes, data: bytes = b"", pdu_ref: int = 1) -> bytes:
    if message_type in (2, 3):
        header = struct.pack(
            ">BBHHHHBB", 0x32, message_type, 0, pdu_ref & 0xFFFF,
            len(parameter), len(data), 0, 0,
        )
    else:
        header = struct.pack(
            ">BBHHHH", 0x32, message_type, 0, pdu_ref & 0xFFFF, len(parameter), len(data)
        )
    body = b"\x02\xf0\x80" + header + parameter + data
    return b"\x03\x00" + (4 + len(body)).to_bytes(2, "big") + body


S7_SETUP_PARAM = bytes([0xF0, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0xF0])
S7_READ_PARAM = bytes([0x04, 0x01, 0x12, 0x0A, 0x10, 0x02, 0x00, 0x02, 0x00, 0x01,
                       0x84, 0x00, 0x00, 0x00])


def s7_setup_job(pdu_ref: int = 1) -> bytes:
    return _s7_pdu(1, S7_SETUP_PARAM, pdu_ref=pdu_ref)


def s7_setup_ack(pdu_ref: int = 1) -> bytes:
    return _s7_pdu(3, S7_SETUP_PARAM, pdu_ref=pdu_ref)


def s7_read_job(pdu_ref: int = 1) -> bytes:
    return _s7_pdu(1, S7_READ_PARAM, pdu_ref=pdu_ref)


def s7_read_ack(pdu_ref: int = 1) -> bytes:
    return _s7_pdu(3, b"\x04\x01", b"\xff\x04\x00\x10\x2a\x8e", pdu_ref=pdu_ref)


def enip_payload(command: int, body: bytes = b"", session: int = 0) -> bytes:
    return struct.pack("<HHII", command, len(body), session, 0) + b"\x00" * 12 + body


def enip_list_identity_request() -> bytes:
    return enip_payload(0x0063)


def enip_register_session_request() -> bytes:
    return enip_payload(0x0065, b"\x01\x00\x00\x00")


def enip_list_identity_reply() -> bytes:
    return enip_payload(0x0063, bytes([0x01, 0x00, 0x0C, 0x00, 0x02, 0x00, 0x01, 0x00]))


def dnp3_frame(app_fc: int = 1, ctrl: int = 0xC4, dst: int = 1, src: int = 2,
               objects: bytes = b"\x3c\x01\x06") -> bytes:
    user = bytes([0xC1, 0xC1, app_fc]) + objects
    header = bytes([0x05, 0x64, 5 + len(user), ctrl]) + dst.to_bytes(2, "little") + \
        src.to_bytes(2, "little")
    out = header + dnp3_crc(header).to_bytes(2, "little")
    for i in range(0, len(user), 16):
        chunk = user[i:i + 16]
        out += chunk + dnp3_crc(chunk).to_bytes(2, "little")
    return out


def dnp3_read_request(objects: bytes = b"\x3c\x01\x06\x3c\x02\x06") -> bytes:
    # DIR=1 PRM=1, function 4 (unconfirmed user data), master to outstation.
    return dnp3_frame(app_fc=1, ctrl=0xC4, objects=objects)


def dnp3_response() -> bytes:
    # DIR=0 outstation-to-master.
    return dnp3_frame(app_fc=0x81 & 0x0F, ctrl=0x44, dst=2, src=1, objects=b"\x81\x00\x00")


def hart_token_body(command: int = 3) -> bytes:
    body = bytes([0x82, 0x80, 0x00, 0x00, 0x00, 0x01, command & 0xFF, 0x07,
                  0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07])
    check = 0
    for byte in body:
        check ^= byte
    return body + bytes([check])


def hartip_message(msg_type: int = 0, msg_id: int = 3, body: bytes = b"",
                   sequence: int = 1, status: int = 0) -> bytes:
    return bytes([0x01, msg_type, msg_id, status]) + sequence.to_bytes(2, "big") + \
        (8 + len(body)).to_bytes(2, "big") + body


def hartip_session_initiate() -> bytes:
    return hartip_message(0, 0, b"\x01\x00\x00\x75\x30")


def iec104_i_frame(type_id: int = 100, body: bytes = b"\x01\x06\x01",
                   send_seq: int = 0, recv_seq: int = 0) -> bytes:
    asdu = bytes([type_id]) + body
    return bytes([0x68, 4 + len(asdu)]) + struct.pack("<HH", (send_seq << 1) & 0xFFFF,
                                                      (recv_seq << 1) & 0xFFFF) + asdu


def iec104_u_frame(function: int = 0x07) -> bytes:
    return bytes([0x68, 0x04, function, 0x00, 0x00, 0x00])


def bacnet_dns_chimera() -> bytes:
    """Payload that is a well-formed BACnet message and a plausible DNS header.

    Sent from UDP port 53 it survives dissection (valid BVLC, known function,
    matching length, NPDU version 1) yet fingerprints as DNS in the
    cross-check catalog: exactly the kind of false positive the third
    sanitizing step exists to remove.
    """
    head = bytes([0x81, 0x0A, 0x00, 0x80, 0x01, 0x00, 0x10, 0x08])
    filler = bytes((i * 7 + 3) & 0xFF for i in range(120))
    return head + filler


def _request_payload(protocol: str, rng: random.Random) -> tuple[bytes, int]:
    if protocol == MODBUS:
        fc = rng.choice((1, 2, 3, 4))
        return modbus_request(fc, transaction_id=rng.randrange(1, 0xFFFF)), fc
    if protocol == BACNET:
        if rng.random() < 0.5:
            return bacnet_whois(), 8
        return bacnet_read_property(invoke_id=rng.randrange(1, 255),
                                    property_id=rng.choice((85, 77, 28))), 12
    if protocol == S7COMM:
        if rng.random() < 0.5:
            return s7_setup_job(pdu_ref=rng.randrange(1, 0xFFFF)), 0xF0
        return s7_read_job(pdu_ref=rng.randrange(1, 0xFFFF)), 0x04
    if protocol == ETHERNETIP:
        if rng.random() < 0.5:
            return enip_list_identity_request(), 0x63
        return enip_register_session_request(), 0x65
    if protocol == DNP3:
        objects = rng.choice((b"\x3c\x01\x06\x3c\x02\x06", b"\x3c\x02\x06\x3c\x03\x06",
                              b"\x3c\x01\x06"))
        return dnp3_read_request(objects), 4
    if protocol == HARTIP:
        if rng.random() < 0.5:
            return hartip_session_initiate(), 0
        return hartip_message(0, 3, hart_token_body(rng.choice((1, 2, 3)))), 3
    if protocol == IEC104:
        type_id = rng.choice((100, 102))
        return iec104_i_frame(type_id, send_seq=rng.randrange(0, 1000)), type_id
    raise ValueError(f"no request template for {protocol}")


def _reply_payload(protocol: str, rng: random.Random) -> tuple[bytes, int]:
    if protocol == MODBUS:
        return modbus_reply(transaction_id=rng.randrange(1, 0xFFFF)), 3
    if protocol == BACNET:
        return bacnet_read_property_ack(invoke_id=rng.randrange(1, 255)), 12
    if protocol == S7COMM:
        if rng.random() < 0.5:
            return s7_setup_ack(pdu_ref=rng.randrange(1, 0xFFFF)), 0xF0
        return s7_read_ack(pdu_ref=rng.randrange(1, 0xFFFF)), 0x04
    if protocol == ETHERNETIP:
        return enip_list_identity_reply(), 0x63
    if protocol == DNP3:
        return dnp3_response(), 4
    if protocol == HARTIP:
        return hartip_message(1, 3, hart_token_body(3)), 3
    if protocol == IEC104:
        return iec104_i_frame(100, body=b"\x01\x07\x01",
                              recv_seq=rng.randrange(0, 1000)), 100
    raise ValueError(f"no reply template for {protocol}")


def _malformed_payload(protocol: str, rng: random.Random) -> tuple[bytes, int | None, str]:
    """One enumerated header field corrupted; returns (payload, fc, role)."""
    if protocol == MODBUS:
        p = bytearray(modbus_request(transaction_id=rng.randrange(1, 0xFFFF)))
        p[2:4] = b"\x00\x01"  # MBAP protocol id must be zero
        return bytes(p), p[7], REQUEST
    if protocol == BACNET:
        return bytes([0x81, 0x0F, 0x00, 0x04]), None, REQUEST  # undefined BVLC function
    if protocol == S7COMM:
        p = bytearray(s7_setup_job(pdu_ref=rng.randrange(1, 0xFFFF)))
        p[7] = 0x33  # bad protocol id behind valid TPKT/COTP
        return bytes(p), None, UNKNOWN
    if protocol == ETHERNETIP:
        p = bytearray(enip_list_identity_request())
        p[0:2] = (0xBEEF).to_bytes(2, "little")  # unknown command
        return bytes(p), 0xBEEF, REQUEST
    if protocol == DNP3:
        p = bytearray(dnp3_read_request())
        p[8] ^= 0x01  # break the header CRC
        return bytes(p), p[3] & 0x0F, REQUEST
    if protocol == HARTIP:
        p = bytearray(hartip_message(0, 3, hart_token_body()))
        p[1] = 9  # message type out of range
        return bytes(p), p[2], REQUEST
    if protocol == IEC104:
        return bytes([0x68, 0xFF, 0x00, 0x00, 0x00, 0x00]), None, REQUEST  # length > 253
    raise ValueError(f"no malformed template for {protocol}")


_PROTOCOL_TRANSPORT = {
    MODBUS: "tcp",
    S7COMM: "tcp",
    ETHERNETIP: "udp",
    BACNET: "udp",
    DNP3: "tcp",
    HARTIP: "tcp",
    IEC104: "tcp",
}


def protocol_port(protocol: str) -> int:
    ports = default_registry().ports_for(protocol)
    return ports[_PROTOCOL_TRANSPORT[protocol]][0]


# ---------------------------------------------------------------------------
# Golden corpus


@dataclass(frozen=True)
class GoldenPacket:
    name: str
    protocol: str
    frame: bytes
    kind: str
    role: str
    function_code: int | None
    verdict: str


def golden_packets() -> list[GoldenPacket]:
    """One well-formed and one malformed reference packet per protocol.

    Layouts are pinned deliberately: transport choice and TCP option sizes
    give each well-formed packet exactly its registered identification
    floor under byte-wise truncation.
    """
    golden = [
        GoldenPacket(
            "modbus_wellformed", MODBUS,
            build_frame("198.18.1.10", "198.18.1.20", "tcp", 49152, 502,
                        bytes.fromhex("00010000000601030000000a"),
                        tcp_options=TCP_TS_OPTIONS),
            NORMAL, REQUEST, 3, WELL_FORMED,
        ),
        GoldenPacket(
            "s7comm_wellformed", S7COMM,
            build_frame("198.18.2.10", "198.18.2.20", "tcp", 34962, 8102,
                        s7_setup_ack(), tcp_options=TCP_TS_OPTIONS),
            HEURISTIC, REPLY, 0xF0, WELL_FORMED,
        ),
        GoldenPacket(
            "ethernetip_wellformed", ETHERNETIP,
            build_frame("198.18.3.10", "198.18.3.20", "udp", 44818, 51000,
                        enip_list_identity_reply()),
            NORMAL, REPLY, 0x63, WELL_FORMED,
        ),
        GoldenPacket(
            "bacnet_wellformed", BACNET,
            build_frame("198.18.4.10", "198.18.4.20", "udp", 47809, 47808,
                        bacnet_read_property()),
            NORMAL, REQUEST, 12, WELL_FORMED,
        ),
        GoldenPacket(
            "dnp3_wellformed", DNP3,
            build_frame("198.18.5.10", "198.18.5.20", "tcp", 49153, 20000,
                        dnp3_read_request()),
            NORMAL, REQUEST, 4, WELL_FORMED,
        ),
        GoldenPacket(
            "hartip_wellformed", HARTIP,
            build_frame("198.18.6.10", "198.18.6.20", "tcp", 50001, 5094,
                        hartip_message(0, 3, hart_token_body())),
            NORMAL, REQUEST, 3, WELL_FORMED,
        ),
        GoldenPacket(
            "iec104_wellformed", IEC104,
            build_frame("198.18.7.10", "198.18.7.20", "tcp", 50002, 2404,
                        iec104_i_frame(), tcp_options=TCP_TS_OPTIONS),
            NORMAL, REQUEST, 100, WELL_FORMED,
        ),
    ]
    rng = random.Random(7)
    for protocol, src_octet in ((MODBUS, 11), (S7COMM, 12), (ETHERNETIP, 13),
                                (BACNET, 14), (DNP3, 15), (HARTIP, 16), (IEC104, 17)):
        payload, fc, role = _malformed_payload(protocol, rng)
        golden.append(
            GoldenPacket(
                f"{protocol}_malformed", protocol,
                build_frame(f"198.18.{src_octet}.10", f"198.18.{src_octet}.20",
                            _PROTOCOL_TRANSPORT[protocol], 49200,
                            protocol_port(protocol), payload),
                NORMAL, role, fc, MALFORMED,
            )
        )
    return golden


def write_pcap(path, packets, snap_len: int = 65535, nanos: bool = False) -> None:
    """Classic little-endian pcap; packets are (ts_us, frame_bytes) pairs."""
    magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
    with open(path, "wb") as fh:
        fh.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snap_len, 1))
        for ts_us, frame in packets:
            sec, rem = divmod(ts_us, 1_000_000)
            frac = rem * 1000 if nanos else rem
            data = frame[:snap_len]
            fh.write(struct.pack("<IIII", sec, frac, len(data), len(frame)))
            fh.write(data)


def write_golden_corpus(directory) -> Path:
    """Per-protocol pcap files plus the JSON manifest the tests consume."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    base_ts = 1_514_808_000_000_000  # 2018-01-01 12:00:00 UTC
    for index, packet in enumerate(golden_packets()):
        filename = f"{packet.name}.pcap"
        write_pcap(directory / filename, [(base_ts + index * 1_000_000, packet.frame)])
        manifest.append(
            {
                "file": filename,
                "protocol": packet.protocol,
                "verdict": packet.verdict,
                "role": packet.role,
                "function_code": packet.function_code,
                "kind": packet.kind,
            }
        )
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


# ---------------------------------------------------------------------------
# Scenario model


@dataclass
class FlowSpec:
    kind: str
    protocol: str
    src: str
    dst: str
    start_day: date
    end_day: date
    packets_per_day: int
    active_days: list[date] | None = None
    request_ratio: float = 1.0
    project: str | None = None
    rdns_name: str | None = None
    rdns_project: str | None = None
    honeypot: str | None = None
    heuristic: bool = False

    def days(self) -> list[date]:
        if self.active_days is not None:
            return sorted(self.active_days)
        out = []
        day = self.start_day
        while day <= self.end_day:
            out.append(day)
            day += timedelta(days=1)
        return out

    def tags(self) -> tuple[str, ...]:
        """Filter reasons every packet of this flow must trigger."""
        reasons = []
        if self.kind == SCANNER_SWEEP and self.project:
            reasons.append(f"scanner_prefix:{self.project}")
        if self.rdns_project:
            reasons.append(f"scanner_rdns:{self.rdns_project}")
        if self.honeypot == "ics":
            reasons.extend(["hp_all", "hp_ics"])
        elif self.honeypot == "all":
            reasons.append("hp_all")
        return tuple(sorted(reasons))


def _capture_meta(raw: dict) -> CaptureMeta:
    """The scenario's capture setup, checked as analyze checks a capture entry.

    These values go into the corpus's config.json as they are, so a value
    analyze would refuse is a ScenarioError naming its key.
    """
    values = {}
    for key, default, kind, name in (("vantage", "vp0", str, "a string"),
                                     ("sample_interval", 1, int, "an integer"),
                                     ("snap_len", 65535, int, "an integer")):
        value = values[key] = raw.get(key, default)
        if type(value) is not kind:
            raise ScenarioError(f"{key} must be {name}, got {value!r}")
    try:
        return CaptureMeta(**values)
    except ValueError as exc:
        raise ScenarioError(f"invalid scenario spec: {exc}") from None


@dataclass
class ScenarioSpec:
    seed: int
    vantage: str
    start_day: date
    end_day: date
    flows: list[FlowSpec]
    sample_interval: int = 1
    snap_len: int = 65535

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        try:
            flows = []
            for index, flow in enumerate(raw["flows"]):
                if not isinstance(flow, dict):
                    raise ScenarioError(f"flow {index}: expected an object, got {flow!r}")
                schedule = flow.get("schedule", {})
                if not isinstance(schedule, dict):
                    raise ScenarioError(f"flow {index}: schedule must be an object, "
                                        f"got {schedule!r}")
                active = schedule.get("active_days")
                start = schedule.get("start_day", raw["start_day"])
                flows.append(
                    FlowSpec(
                        kind=flow["kind"],
                        protocol=flow["protocol"],
                        src=flow["src"],
                        dst=flow["dst"],
                        start_day=date.fromisoformat(start),
                        end_day=date.fromisoformat(schedule.get("end_day", start)),
                        packets_per_day=int(schedule.get("packets_per_day", 1)),
                        active_days=[date.fromisoformat(d) for d in active] if active else None,
                        request_ratio=float(flow.get("request_ratio", 1.0)),
                        project=flow.get("project"),
                        rdns_name=flow.get("rdns_name"),
                        rdns_project=flow.get("rdns_project"),
                        honeypot=flow.get("honeypot"),
                        heuristic=bool(flow.get("heuristic", False)),
                    )
                )
            meta = _capture_meta(raw)
            spec = cls(
                seed=int(raw["seed"]),
                vantage=meta.vantage,
                start_day=date.fromisoformat(raw["start_day"]),
                end_day=date.fromisoformat(raw["end_day"]),
                flows=flows,
                sample_interval=meta.sample_interval,
                snap_len=meta.snap_len,
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError(f"invalid scenario spec: {exc}") from exc
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario spec is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ScenarioError("scenario spec must be a JSON object")
        return cls.from_dict(raw)

    def validate(self) -> None:
        if self.start_day > self.end_day:
            raise ScenarioError("corpus start_day after end_day")
        networks = []
        for index, flow in enumerate(self.flows):
            where = f"flow {index} ({flow.kind}/{flow.protocol})"
            if flow.kind not in FLOW_KINDS:
                raise ScenarioError(f"{where}: unknown kind")
            if flow.protocol not in _PROTOCOL_TRANSPORT:
                raise ScenarioError(f"{where}: unknown protocol")
            src_net = _flow_network(where, "src", flow.src)
            dst_net = _flow_network(where, "dst", flow.dst)
            networks.append((flow, src_net, dst_net))
            if flow.packets_per_day < 1:
                raise ScenarioError(f"{where}: packets_per_day must be positive")
            if not 0.0 <= flow.request_ratio <= 1.0:
                raise ScenarioError(f"{where}: request_ratio out of [0, 1]")
            for day in flow.days():
                if not self.start_day <= day <= self.end_day:
                    raise ScenarioError(f"{where}: schedule day {day} outside corpus range")
            if flow.kind == SCANNER_SWEEP:
                if not flow.project:
                    raise ScenarioError(f"{where}: sweeps need a project")
                total = flow.packets_per_day * len(flow.days())
                if _usable_hosts(dst_net) > total:
                    raise ScenarioError(
                        f"{where}: destination CIDR larger than the {total} packets requested"
                    )
            if flow.rdns_name and not flow.rdns_project:
                raise ScenarioError(f"{where}: rdns_name needs rdns_project")
            if flow.honeypot not in (None, "ics", "all"):
                raise ScenarioError(f"{where}: honeypot must be 'ics' or 'all'")
        self._validate_pools(networks)

    def _validate_pools(self, networks) -> None:
        """Tagged source networks must not bleed into untagged traffic.

        networks: (flow, source network, destination network) per flow.
        """
        tagged: list[tuple[ipaddress.IPv4Network, tuple[str, ...]]] = []
        plain: list[ipaddress.IPv4Network] = []
        for flow, src_net, dst_net in networks:
            if flow.tags():
                tagged.append((src_net, flow.tags()))
            elif flow.kind in (INDUSTRIAL, SCANNER_SWEEP):
                plain.append(src_net)
            if flow.kind in (INDUSTRIAL, SCANNER_SWEEP):
                plain.append(dst_net)
        for plain_net in plain:
            for tagged_net, tags in tagged:
                if plain_net.overlaps(tagged_net):
                    raise ScenarioError(
                        f"untagged network {plain_net} overlaps {tagged_net} "
                        f"(tagged {','.join(tags)}); ground truth would be ambiguous"
                    )
        for i, (net_a, tags_a) in enumerate(tagged):
            for net_b, tags_b in tagged[i + 1:]:
                if net_a.overlaps(net_b) and tags_a != tags_b:
                    raise ScenarioError(
                        f"tagged networks {net_a} and {net_b} overlap with different "
                        f"filter tags; ground truth would be ambiguous"
                    )


def _as_network(spec: str) -> ipaddress.IPv4Network:
    return ipaddress.IPv4Network(spec if "/" in spec else spec + "/32")


def _flow_network(where: str, key: str, spec) -> ipaddress.IPv4Network:
    """A flow's src or dst: an address, or a network without host bits."""
    try:
        return _as_network(spec)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {key} must be an IPv4 address or network, "
                            f"got {spec!r} ({exc})") from None


def _usable_hosts(network: ipaddress.IPv4Network) -> int:
    if network.prefixlen >= 31:
        return network.num_addresses
    return network.num_addresses - 2


def _host_list(spec: str) -> list[str]:
    network = _as_network(spec)
    if network.prefixlen >= 31:
        return [str(a) for a in network]
    return [str(a) for a in network.hosts()]


def _day_us(day: date) -> int:
    return (day.toordinal() - _EPOCH_ORDINAL) * _US_PER_DAY


# ---------------------------------------------------------------------------
# Generation


@dataclass
class GeneratedCorpus:
    out_dir: Path
    pcap: Path
    ground_truth: Path
    config: Path
    sidecars: dict[str, Path] = field(default_factory=dict)


@dataclass
class _Pending:
    ts: int
    seq: int
    frame: bytes
    truth: dict


def generate(spec: ScenarioSpec, out_dir) -> GeneratedCorpus:
    """Emit the corpus pcap, per-packet ground truth and all sidecar tables.

    Output is byte-identical for identical specs: one seeded generator
    drives every random choice and all emitted tables are sorted.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(spec.seed)
    pending: list[_Pending] = []
    seq = 0
    ident = 1

    registry_prefixes: dict[str, set[str]] = {}
    rdns_rows: set[tuple[str, str]] = set()
    hp_all: set[str] = set()
    hp_ics: set[str] = set()
    industrial_endpoints: set[str] = set()

    for flow in spec.flows:
        if flow.kind == SCANNER_SWEEP:
            registry_prefixes.setdefault(flow.project, set()).add(str(_as_network(flow.src)))

    for flow in spec.flows:
        transport = _PROTOCOL_TRANSPORT[flow.protocol]
        port = protocol_port(flow.protocol)
        src_hosts = _host_list(flow.src)
        dst_hosts = _host_list(flow.dst)
        reasons = list(flow.tags())
        label = NON_INDUSTRIAL_LABEL if reasons else INDUSTRIAL_LABEL
        rdns_counter = 0
        named: set[str] = set()
        sweep_index = 0

        for day in flow.days():
            day_us = _day_us(day)
            if flow.kind == INDUSTRIAL:
                n_requests = round(flow.packets_per_day * flow.request_ratio)
            else:
                n_requests = flow.packets_per_day

            for pkt_index in range(flow.packets_per_day):
                ts = day_us + rng.randrange(_US_PER_DAY)
                is_request = pkt_index < n_requests
                src = src_hosts[0] if len(src_hosts) == 1 else rng.choice(src_hosts)
                if flow.kind == SCANNER_SWEEP:
                    dst = dst_hosts[sweep_index % len(dst_hosts)]
                    sweep_index += 1
                else:
                    dst = dst_hosts[0] if len(dst_hosts) == 1 else rng.choice(dst_hosts)

                if flow.honeypot == "ics":
                    hp_all.add(src)
                    hp_ics.add(src)
                elif flow.honeypot == "all":
                    hp_all.add(src)
                if flow.rdns_name and src not in named:
                    rdns_rows.add((src, flow.rdns_name.format(i=rdns_counter)))
                    named.add(src)
                    rdns_counter += 1

                ident += 2
                heuristic_s7 = flow.heuristic and flow.protocol == S7COMM

                if flow.kind == BACKSCATTER:
                    payload, fc = _request_payload(flow.protocol, rng)
                    router = f"100.80.{rng.randrange(0, 16)}.{rng.randrange(1, 255)}"
                    frame = build_backscatter_frame(
                        router, src, dst, transport,
                        rng.randrange(49152, 65536), port, payload, ident=ident,
                    )
                    truth = {
                        "protocol": flow.protocol, "kind": NORMAL, "verdict": WELL_FORMED,
                        "role": REQUEST, "function_code": fc, "direction": UNRELATED,
                        "sanitize": DROPPED_TUNNEL, "label": None, "reasons": None,
                    }
                elif flow.kind == MALFORMED_KIND:
                    payload, fc, role = _malformed_payload(flow.protocol, rng)
                    frame = build_frame(src, dst, transport, rng.randrange(49152, 65536),
                                        port, payload, ident=ident)
                    truth = {
                        "protocol": flow.protocol, "kind": NORMAL, "verdict": MALFORMED,
                        "role": role, "function_code": fc, "direction": REQUEST,
                        "sanitize": DROPPED_MALFORMED, "label": None, "reasons": None,
                    }
                elif flow.kind == DPI_DECOY:
                    frame = build_frame(src, dst, "udp", 53, 47808,
                                        bacnet_dns_chimera(), ident=ident)
                    truth = {
                        "protocol": BACNET, "kind": NORMAL, "verdict": WELL_FORMED,
                        "role": REQUEST, "function_code": 8, "direction": REQUEST,
                        "sanitize": DROPPED_KNOWN_PROTOCOL, "label": None, "reasons": None,
                    }
                elif is_request:
                    payload, fc = _request_payload(flow.protocol, rng)
                    if heuristic_s7:
                        sport = rng.randrange(49152, 65536)
                        dport = rng.randrange(49152, 65536)
                        direction_truth, kind = UNRELATED, HEURISTIC
                    else:
                        sport, dport = rng.randrange(49152, 65536), port
                        direction_truth, kind = REQUEST, NORMAL
                    frame = build_frame(src, dst, transport, sport, dport, payload, ident=ident)
                    truth = {
                        "protocol": flow.protocol, "kind": kind, "verdict": WELL_FORMED,
                        "role": REQUEST, "function_code": fc, "direction": direction_truth,
                        "sanitize": KEPT, "label": label, "reasons": reasons or None,
                    }
                else:
                    payload, fc = _reply_payload(flow.protocol, rng)
                    if heuristic_s7:
                        sport = rng.randrange(49152, 65536)
                        dport = rng.randrange(49152, 65536)
                        direction_truth, kind = UNRELATED, HEURISTIC
                    else:
                        sport, dport = port, rng.randrange(49152, 65536)
                        direction_truth, kind = REPLY, NORMAL
                    frame = build_frame(dst, src, transport, sport, dport, payload, ident=ident)
                    truth = {
                        "protocol": flow.protocol, "kind": kind, "verdict": WELL_FORMED,
                        "role": REPLY, "function_code": fc, "direction": direction_truth,
                        "sanitize": KEPT, "label": label, "reasons": reasons or None,
                    }
                if flow.kind == INDUSTRIAL and not reasons:
                    industrial_endpoints.add(src)
                    industrial_endpoints.add(dst)
                pending.append(_Pending(ts, seq, frame, truth))
                seq += 1

    pending.sort(key=lambda p: (p.ts, p.seq))

    pcap_path = out_dir / "corpus.pcap"
    write_pcap(pcap_path, [(p.ts, p.frame) for p in pending], snap_len=spec.snap_len)

    truth_path = out_dir / "ground_truth.jsonl"
    with open(truth_path, "w") as fh:
        for index, packet in enumerate(pending):
            row = {"index": index, "vantage": spec.vantage, **packet.truth}
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    sidecars = _write_sidecars(
        spec, out_dir, registry_prefixes, rdns_rows, hp_all, hp_ics,
        industrial_endpoints, pending,
    )

    config_path = out_dir / "config.json"
    config = {
        "captures": [
            {
                "path": "corpus.pcap",
                "vantage": spec.vantage,
                "sample_interval": spec.sample_interval,
                "snap_len": spec.snap_len,
            }
        ],
        "scanner_registry": "registry.json",
        "hp_all": "hp_all.txt",
        "hp_ics": "hp_ics.txt",
        "rdns": "rdns.csv",
        "asn_table": "asn.txt",
        "cone": "cone.json",
        "geo": "geo.csv",
        "scan_snapshot": "scan_snapshot.json",
        "filters": "all",
    }
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")

    return GeneratedCorpus(
        out_dir=out_dir,
        pcap=pcap_path,
        ground_truth=truth_path,
        config=config_path,
        sidecars=sidecars,
    )


def _write_sidecars(
    spec: ScenarioSpec,
    out_dir: Path,
    registry_prefixes: dict[str, set[str]],
    rdns_rows: set[tuple[str, str]],
    hp_all: set[str],
    hp_ics: set[str],
    industrial_endpoints: set[str],
    pending: list[_Pending],
) -> dict[str, Path]:
    paths: dict[str, Path] = {}

    registry = [
        {
            "project": project,
            "prefixes": sorted(registry_prefixes.get(project, set())),
            "rdns_patterns": PROJECT_PATTERNS[project],
        }
        for project in PROJECT_ORDER
    ]
    paths["registry"] = out_dir / "registry.json"
    paths["registry"].write_text(json.dumps(registry, indent=2) + "\n")

    paths["hp_all"] = out_dir / "hp_all.txt"
    paths["hp_all"].write_text("".join(ip + "\n" for ip in sorted(hp_all, key=ip_to_int)))
    paths["hp_ics"] = out_dir / "hp_ics.txt"
    paths["hp_ics"].write_text("".join(ip + "\n" for ip in sorted(hp_ics, key=ip_to_int)))

    paths["rdns"] = out_dir / "rdns.csv"
    paths["rdns"].write_text("".join(f"{ip},{name}\n" for ip, name in sorted(rdns_rows)))

    # Every /24 seen on the wire gets an origin AS; industrial endpoints
    # become fabric members, every other AS lands in a member's cone.
    endpoint_ips: set[str] = set()
    for packet in pending:
        frame = packet.frame
        endpoint_ips.add(int_to_ip(int.from_bytes(frame[26:30], "big")))
        endpoint_ips.add(int_to_ip(int.from_bytes(frame[30:34], "big")))
    all_prefixes = sorted({ip_to_int(ip) & 0xFFFFFF00 for ip in endpoint_ips})
    asn_of_prefix = {prefix: 64500 + i for i, prefix in enumerate(all_prefixes)}

    paths["asn"] = out_dir / "asn.txt"
    paths["asn"].write_text(
        "".join(f"{int_to_ip(p)}/24 {asn}\n" for p, asn in sorted(asn_of_prefix.items()))
    )

    member_prefixes = sorted({ip_to_int(ip) & 0xFFFFFF00 for ip in industrial_endpoints})
    members = sorted({asn_of_prefix[p] for p in member_prefixes})
    cone: dict[int, set[int]] = {m: set() for m in members}
    if members:
        others = sorted(set(asn_of_prefix.values()) - set(members))
        for i, asn in enumerate(others):
            cone[members[i % len(members)]].add(asn)
    paths["cone"] = out_dir / "cone.json"
    paths["cone"].write_text(
        json.dumps({str(m): sorted(c) for m, c in cone.items()}, indent=2, sort_keys=True) + "\n"
    )

    member_set = set(member_prefixes)
    foreign = ["US", "JP", "NL"]
    geo_rows = [
        f"{int_to_ip(p)}/24,{'DE' if p in member_set else foreign[i % len(foreign)]}\n"
        for i, p in enumerate(all_prefixes)
    ]
    paths["geo"] = out_dir / "geo.csv"
    paths["geo"].write_text("".join(geo_rows))

    # Scan snapshot: industrial destinations answered the transport scan,
    # alternate ones also completed the application handshake.
    per_protocol_dsts: dict[str, set[str]] = {}
    for packet in pending:
        truth = packet.truth
        if truth.get("sanitize") == KEPT and truth.get("label") == INDUSTRIAL_LABEL:
            per_protocol_dsts.setdefault(truth["protocol"], set()).add(
                int_to_ip(int.from_bytes(packet.frame[30:34], "big"))
            )
    snapshot = {}
    for protocol, dsts in sorted(per_protocol_dsts.items()):
        ordered = sorted(dsts, key=ip_to_int)
        snapshot[protocol] = {"transport": ordered, "application": ordered[::2]}
    paths["scan_snapshot"] = out_dir / "scan_snapshot.json"
    paths["scan_snapshot"].write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    return paths
