"""Synthetic labeled pcap corpora for exercising every pipeline stage.

Scenario specs describe flows (industrial exchanges, scanner sweeps,
backscatter, malformed plants, fingerprintable decoys); generation is fully
deterministic per seed and emits, next to the capture, a ground-truth file
with one record per packet plus every sidecar table the analysis pipeline
consumes (scanner registry, honeypot lists, reverse DNS snapshot, prefix
tables, topology, scan snapshot and a ready-made analyze config).

The per-protocol frame and payload builders below are public: the tests
build their golden reference packets from them, so the generator and the
tests cannot drift apart.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import asdict, dataclass, field
from datetime import date, timedelta
from pathlib import Path

from .capture import (_EPOCH_ORDINAL, _US_PER_DAY, ICMP, LINKTYPE_ETHERNET, PCAP_MAGIC_MICROS,
                      PCAP_MAGIC_NANOS, META_KEYS, CaptureMeta, int_to_ip, ip_to_int, parse_cidr)
from .classify import (INDUSTRIAL as INDUSTRIAL_LABEL, NON_INDUSTRIAL, RdnsTable,
                       default_scanner_registry, reason_tags)
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
    REPLY,
    REQUEST,
    S7COMM,
    UNKNOWN,
    UNRELATED,
    WELL_FORMED,
    dnp3_crc,
)
from .inputs import ConfigError, choice, known, parsed, read_json, typed, writable
from .ports import PORTS, TCP, TRANSPORTS, UDP
from .sanitize import DROPPED_KNOWN_PROTOCOL, DROPPED_MALFORMED, DROPPED_TUNNEL, KEPT

ETH_HEADER = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x00"

INDUSTRIAL = "industrial"
SCANNER_SWEEP = "scanner_sweep"
BACKSCATTER = "backscatter"
MALFORMED_KIND = "malformed"
DPI_DECOY = "dpi_decoy"
FLOW_KINDS = (INDUSTRIAL, SCANNER_SWEEP, BACKSCATTER, MALFORMED_KIND, DPI_DECOY)


# ---------------------------------------------------------------------------
# Frame building


def _aton(ip: str) -> bytes:
    return ip_to_int(ip).to_bytes(4, "big")


def _checksum16(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
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
    options: bytes = b"",
) -> bytes:
    if len(options) % 4:
        raise ValueError("TCP options must pad to 32-bit words")
    offset = (20 + len(options)) // 4
    header = struct.pack(
        ">HHIIBBHHH", sport, dport, 1000, 0, offset << 4, 0x18, 8192, 0, 0
    ) + options
    segment = header + payload
    checksum = _checksum16(_pseudo_header(src_ip, dst_ip, TCP, len(segment)) + segment)
    return segment[:16] + checksum.to_bytes(2, "big") + segment[18:]


def build_udp(src_ip: str, dst_ip: str, sport: int, dport: int, payload: bytes) -> bytes:
    length = 8 + len(payload)
    datagram = struct.pack(">HHHH", sport, dport, length, 0) + payload
    checksum = _checksum16(_pseudo_header(src_ip, dst_ip, UDP, length) + datagram) or 0xFFFF
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
    elif transport == "udp":
        body = build_udp(src_ip, dst_ip, sport, dport, payload)
    else:
        raise ValueError(f"unknown transport {transport!r}")
    return ETH_HEADER + build_ipv4(src_ip, dst_ip, TRANSPORTS[transport], body, ident=ident)


def build_backscatter_frame(
    router_ip: str, probe_src: str, probe_dst: str, transport: str,
    sport: int, dport: int, probe_payload: bytes, ident: int = 0,
) -> bytes:
    """ICMP port-unreachable quoting the original probe datagram in full."""
    probe = build_frame(probe_src, probe_dst, transport, sport, dport, probe_payload, ident=ident)
    icmp = build_icmp_error(3, 3, probe[len(ETH_HEADER):])
    return ETH_HEADER + build_ipv4(router_ip, probe_src, ICMP, icmp, ident=ident + 1)


# ---------------------------------------------------------------------------
# Protocol payload templates; builders return (payload, function_code)


def modbus_request(function_code: int = 3, transaction_id: int = 1, unit: int = 1) -> bytes:
    body = bytes([unit, function_code]) + b"\x00\x00\x00\x0a"
    return struct.pack(">HHH", transaction_id & 0xFFFF, 0, len(body)) + body


def modbus_reply(function_code: int = 3, transaction_id: int = 1, unit: int = 1) -> bytes:
    body = bytes([unit, function_code, 0x04]) + b"\x00\x2a\x00\x2b"
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


def malformed_payload(protocol: str, rng: random.Random) -> tuple[bytes, int | None, str]:
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
    ports = PORTS.ports_for(protocol)
    return ports[_PROTOCOL_TRANSPORT[protocol]][0]


def write_pcap(path, packets, snap_len: int = 65535, nanos: bool = False) -> None:
    """Classic little-endian pcap; packets are (ts_us, frame_bytes) pairs."""
    magic = PCAP_MAGIC_NANOS if nanos else PCAP_MAGIC_MICROS
    with writable(path, lambda: open(path, "wb")) as fh:
        fh.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, snap_len, LINKTYPE_ETHERNET))
        for ts_us, frame in packets:
            sec, rem = divmod(ts_us, 1_000_000)
            frac = rem * 1000 if nanos else rem
            data = frame[:snap_len]
            fh.write(struct.pack("<IIII", sec, frac, len(data), len(frame)))
            fh.write(data)


# ---------------------------------------------------------------------------
# Scenario model


@dataclass
class FlowSpec:
    kind: str
    protocol: str
    src: tuple[int, int]  # (network address as int, prefix length)
    dst: tuple[int, int]
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
        """Filter reasons every packet of this flow must trigger, sorted."""
        return reason_tags(self.project if self.kind == SCANNER_SWEEP else None,
                           self.rdns_project, self.honeypot is not None, self.honeypot == "ics")


def _day(value, where: str, key: str) -> date:
    return parsed(date.fromisoformat, value, where, key, "a date (YYYY-MM-DD)")


_FLOW_KEYS = ("kind", "protocol", "src", "dst", "schedule", "request_ratio", "project",
              "rdns_name", "rdns_project", "honeypot", "heuristic")
_SCHEDULE_KEYS = ("start_day", "end_day", "active_days", "packets_per_day")
_SCENARIO_KEYS = ("seed", *META_KEYS, "start_day", "end_day", "flows")


def _flow(index: int, flow, first: date, last: date) -> FlowSpec:
    """Entry index of a scenario's flows with all of its checks: each value's
    JSON type and range, and each scheduled day within the corpus range
    first..last; first is also the flow's default start_day."""
    where = f"flow {index}"
    schedule = typed(typed(flow, dict, where).get("schedule", {}), dict, where, "schedule")
    kind = choice(flow.get("kind"), FLOW_KINDS, where, "kind")
    protocol = choice(flow.get("protocol"), _PROTOCOL_TRANSPORT, where, "protocol")
    where = f"flow {index} ({kind}/{protocol})"
    known(flow, _FLOW_KEYS, where, "flow")
    known(schedule, _SCHEDULE_KEYS, f"{where}: schedule", "schedule")
    start = _day(schedule["start_day"], where, "start_day") if "start_day" in schedule else first
    active = typed(schedule.get("active_days"), list, where, "active_days", optional=True)
    if active == []:
        raise ConfigError(f"{where}: active_days must list at least one day")
    honeypot = flow.get("honeypot")
    spec = FlowSpec(
        kind=kind,
        protocol=protocol,
        src=_flow_network(where, "src", flow.get("src")),
        dst=_flow_network(where, "dst", flow.get("dst")),
        start_day=start,
        end_day=_day(schedule["end_day"], where, "end_day") if "end_day" in schedule else start,
        packets_per_day=typed(schedule.get("packets_per_day", 1), int, where, "packets_per_day"),
        active_days=[_day(day, where, "active_days") for day in active] if active else None,
        request_ratio=typed(flow.get("request_ratio", 1.0), float, where, "request_ratio"),
        project=typed(flow.get("project"), str, where, "project", optional=True),
        rdns_name=typed(flow.get("rdns_name"), str, where, "rdns_name", optional=True),
        rdns_project=typed(flow.get("rdns_project"), str, where, "rdns_project", optional=True),
        honeypot=None if honeypot is None else choice(honeypot, ("all", "ics"), where,
                                                      "honeypot"),
        heuristic=typed(flow.get("heuristic", False), bool, where, "heuristic"),
    )
    if spec.packets_per_day < 1:
        raise ConfigError(f"{where}: packets_per_day must be positive")
    if not 0.0 <= spec.request_ratio <= 1.0:
        raise ConfigError(f"{where}: request_ratio out of [0, 1]")
    days = spec.days()
    for day in days:
        if not first <= day <= last:
            raise ConfigError(f"{where}: schedule day {day} outside corpus range")
    total = spec.packets_per_day * len(days)
    if kind == SCANNER_SWEEP and len(_host_range(spec.dst)) > total:
        raise ConfigError(f"{where}: destination CIDR larger than the {total} packets requested")
    _validate_projects(where, spec, min(len(_host_range(spec.src)), total))
    return spec


@dataclass
class ScenarioSpec:
    seed: int
    meta: CaptureMeta
    start_day: date
    end_day: date
    flows: list[FlowSpec]

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        """A scenario from its JSON object, checked in this order: the
        scenario's own keys, each flow in document order with all of its
        checks, then the overlap of the flows' networks. The first fault
        raises ConfigError naming the flow, if any, and the key."""
        raw = known(typed(raw, dict, "scenario"), _SCENARIO_KEYS, "scenario", "scenario")
        flows = typed(raw.get("flows", []), list, "scenario", "flows")
        if not flows:
            raise ConfigError("scenario: flows must list at least one flow")
        meta = CaptureMeta.from_entry(raw, "scenario")
        seed = typed(raw.get("seed"), int, "scenario", "seed")
        start_day = _day(raw.get("start_day"), "scenario", "start_day")
        end_day = _day(raw.get("end_day"), "scenario", "end_day")
        if start_day > end_day:
            raise ConfigError("scenario: start_day after end_day")
        specs = [_flow(index, flow, start_day, end_day) for index, flow in enumerate(flows)]
        _validate_pools(specs)
        return cls(seed, meta, start_day, end_day, specs)

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        return cls.from_dict(read_json(path))


def _validate_pools(flows: list[FlowSpec]) -> None:
    """Tagged source networks must not bleed into untagged traffic."""
    tagged: list[tuple[tuple[int, int], tuple[str, ...]]] = []
    plain: list[tuple[int, int]] = []
    for flow in flows:
        if flow.tags():
            tagged.append((flow.src, flow.tags()))
        elif flow.kind in (INDUSTRIAL, SCANNER_SWEEP):
            plain.append(flow.src)
        if flow.kind in (INDUSTRIAL, SCANNER_SWEEP):
            plain.append(flow.dst)
    for plain_net in plain:
        for tagged_net, tags in tagged:
            if _overlaps(plain_net, tagged_net):
                raise ConfigError(
                    f"untagged network {_cidr(plain_net)} overlaps {_cidr(tagged_net)} "
                    f"(tagged {','.join(tags)}); ground truth would be ambiguous"
                )
    for i, (net_a, tags_a) in enumerate(tagged):
        for net_b, tags_b in tagged[i + 1:]:
            if _overlaps(net_a, net_b) and tags_a != tags_b:
                raise ConfigError(
                    f"tagged networks {_cidr(net_a)} and {_cidr(net_b)} overlap with "
                    f"different filter tags; ground truth would be ambiguous"
                )


def _validate_projects(where: str, flow: FlowSpec, hosts: int) -> None:
    """The packaged scanner registry flags the flow as its tags say: a
    sweep's project and the rdns_project are registry projects, and each rDNS
    name the flow can give its first `hosts` source hosts matches the latter."""
    registry = default_scanner_registry()
    projects = [project.name for project in registry.projects]
    if flow.kind == SCANNER_SWEEP:
        choice(flow.project, projects, where, "project")
    if flow.rdns_name or flow.rdns_project:
        choice(flow.rdns_project, projects, where, "rdns_project")
    if flow.rdns_project and not flow.rdns_name:
        raise ConfigError(f"{where}: rdns_project needs rdns_name")
    names = [parsed(lambda pattern: pattern.format(i=i), flow.rdns_name, where, "rdns_name",
                    "a name pattern with {i}") for i in range(hosts if flow.rdns_name else 0)]
    # The analyzer's resolve: host i's lower-cased name under key i.
    found = RdnsTable.from_names({i: name.lower() for i, name in enumerate(names)}, registry)
    for i, name in enumerate(names):
        if found.get(i) != flow.rdns_project:
            raise ConfigError(f"{where}: the scanner registry matches rdns_name {name!r} to "
                              f"{found.get(i) or 'no project'}, not {flow.rdns_project}")


def _flow_network(where: str, key: str, spec) -> tuple[int, int]:
    """A flow's src or dst: an address, or a network without host bits."""
    return parsed(lambda text: parse_cidr(text, strict=True), spec, where, key,
                  "an IPv4 address or network")


def _cidr(network: tuple[int, int]) -> str:
    return f"{int_to_ip(network[0])}/{network[1]}"


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether two networks share the top bits of the shorter prefix."""
    shift = 32 - min(a[1], b[1])
    return a[0] >> shift == b[0] >> shift


def _host_range(network: tuple[int, int]) -> range:
    """A network's host addresses: all of a /31 or /32, otherwise all but
    the network and broadcast addresses."""
    start, plen = network
    end = start + (1 << (32 - plen))
    return range(start, end) if plen >= 31 else range(start + 1, end - 1)


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
    sidecars: dict[str, Path] = field(default_factory=dict)  # keyed by config key


def _ephemeral_port(rng: random.Random) -> int:
    return rng.randrange(49152, 65536)


def generate(spec: ScenarioSpec, out_dir) -> GeneratedCorpus:
    """Emit the corpus pcap, per-packet ground truth and all sidecar tables.

    Output is byte-identical for identical specs: one seeded generator
    drives every random choice and all emitted tables are sorted.
    """
    out_dir = Path(out_dir)
    writable(out_dir, lambda: out_dir.mkdir(parents=True, exist_ok=True))
    rng = random.Random(spec.seed)
    pending: list[tuple[int, bytes, dict]] = []  # (ts, frame, truth) in draw order
    ident = 1

    registry_prefixes: dict[str, set[str]] = {}
    rdns_rows: set[tuple[str, str]] = set()
    hp_all: set[str] = set()
    hp_ics: set[str] = set()
    industrial_endpoints: set[str] = set()

    for flow in spec.flows:
        if flow.kind == SCANNER_SWEEP:
            registry_prefixes.setdefault(flow.project, set()).add(_cidr(flow.src))
        transport = _PROTOCOL_TRANSPORT[flow.protocol]
        port = protocol_port(flow.protocol)
        src_hosts = _host_range(flow.src)
        dst_hosts = _host_range(flow.dst)
        reasons = list(flow.tags())
        label = NON_INDUSTRIAL if reasons else INDUSTRIAL_LABEL
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
                src = int_to_ip(src_hosts[0] if len(src_hosts) == 1 else rng.choice(src_hosts))
                if flow.kind == SCANNER_SWEEP:
                    dst = int_to_ip(dst_hosts[sweep_index % len(dst_hosts)])
                    sweep_index += 1
                else:
                    dst = int_to_ip(dst_hosts[0] if len(dst_hosts) == 1
                                    else rng.choice(dst_hosts))

                if flow.honeypot == "ics":
                    hp_all.add(src)
                    hp_ics.add(src)
                elif flow.honeypot == "all":
                    hp_all.add(src)
                if flow.rdns_name and src not in named:
                    rdns_rows.add((src, flow.rdns_name.format(i=len(named))))
                    named.add(src)

                ident += 2
                truth = {
                    "protocol": flow.protocol, "kind": NORMAL, "verdict": WELL_FORMED,
                    "role": REQUEST, "function_code": None, "direction": REQUEST,
                    "sanitize": KEPT, "label": None, "reasons": None,
                }
                if flow.kind == BACKSCATTER:
                    payload, fc = _request_payload(flow.protocol, rng)
                    router = f"100.80.{rng.randrange(0, 16)}.{rng.randrange(1, 255)}"
                    frame = build_backscatter_frame(
                        router, src, dst, transport,
                        _ephemeral_port(rng), port, payload, ident=ident,
                    )
                    truth.update(function_code=fc, direction=UNRELATED, sanitize=DROPPED_TUNNEL)
                elif flow.kind == MALFORMED_KIND:
                    payload, fc, role = malformed_payload(flow.protocol, rng)
                    frame = build_frame(src, dst, transport, _ephemeral_port(rng),
                                        port, payload, ident=ident)
                    truth.update(verdict=MALFORMED, role=role, function_code=fc,
                                 sanitize=DROPPED_MALFORMED)
                elif flow.kind == DPI_DECOY:
                    frame = build_frame(src, dst, "udp", 53, 47808,
                                        bacnet_dns_chimera(), ident=ident)
                    truth.update(protocol=BACNET, function_code=8,
                                 sanitize=DROPPED_KNOWN_PROTOCOL)
                else:
                    role = REQUEST if is_request else REPLY
                    build = _request_payload if is_request else _reply_payload
                    payload, fc = build(flow.protocol, rng)
                    if flow.heuristic and flow.protocol == S7COMM:
                        ports = _ephemeral_port(rng), _ephemeral_port(rng)
                        truth.update(kind=HEURISTIC, direction=UNRELATED)
                    else:
                        ports = ((_ephemeral_port(rng), port) if is_request
                                 else (port, _ephemeral_port(rng)))
                        truth["direction"] = role
                    ends = (src, dst) if is_request else (dst, src)
                    frame = build_frame(*ends, transport, *ports, payload, ident=ident)
                    truth.update(role=role, function_code=fc, label=label,
                                 reasons=reasons or None)
                if flow.kind == INDUSTRIAL and not reasons:
                    industrial_endpoints.add(src)
                    industrial_endpoints.add(dst)
                pending.append((ts, frame, truth))

    pending.sort(key=lambda packet: packet[0])  # stable: ties keep draw order

    pcap_path = out_dir / "corpus.pcap"
    write_pcap(pcap_path, [(ts, frame) for ts, frame, _ in pending], snap_len=spec.meta.snap_len)

    truth_path = out_dir / "ground_truth.jsonl"
    with writable(truth_path, lambda: open(truth_path, "w")) as fh:
        for index, (_, _, truth) in enumerate(pending):
            row = {"index": index, "vantage": spec.meta.vantage, **truth}
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    config = {"captures": [{"path": "corpus.pcap", **asdict(spec.meta)}], "filters": "all"}
    sidecars = {}
    for key, (name, text) in _sidecar_files(
        registry_prefixes, rdns_rows, hp_all, hp_ics, industrial_endpoints, pending,
    ).items():
        sidecars[key] = path = out_dir / name
        writable(path, lambda: path.write_text(text))
        config[key] = name

    config_path = out_dir / "config.json"
    text = json.dumps(config, indent=2, sort_keys=True) + "\n"
    writable(config_path, lambda: config_path.write_text(text))

    return GeneratedCorpus(out_dir, pcap_path, truth_path, config_path, sidecars)


def _sidecar_files(
    registry_prefixes: dict[str, set[str]],
    rdns_rows: set[tuple[str, str]],
    hp_all: set[str],
    hp_ics: set[str],
    industrial_endpoints: set[str],
    pending: list[tuple[int, bytes, dict]],
) -> dict[str, tuple[str, str]]:
    """Each sidecar table as {analyze config key: (file name, text)}."""
    registry = [
        {
            "project": project.name,
            "prefixes": sorted(registry_prefixes.get(project.name, set())),
            "rdns_patterns": project.rdns_patterns,
        }
        for project in default_scanner_registry().projects
    ]

    # Every /24 seen on the wire gets an origin AS; industrial endpoints
    # become fabric members, every other AS lands in a member's cone.
    all_prefixes = sorted({int.from_bytes(frame[at:at + 4], "big") & 0xFFFFFF00
                           for _, frame, _ in pending for at in (26, 30)})
    asn_of_prefix = {prefix: 64500 + i for i, prefix in enumerate(all_prefixes)}

    member_prefixes = sorted({ip_to_int(ip) & 0xFFFFFF00 for ip in industrial_endpoints})
    members = sorted({asn_of_prefix[p] for p in member_prefixes})
    cone: dict[int, set[int]] = {m: set() for m in members}
    if members:
        others = sorted(set(asn_of_prefix.values()) - set(members))
        for i, asn in enumerate(others):
            cone[members[i % len(members)]].add(asn)

    member_set = set(member_prefixes)
    foreign = ["US", "JP", "NL"]
    geo_rows = [
        f"{int_to_ip(p)}/24,{'DE' if p in member_set else foreign[i % len(foreign)]}\n"
        for i, p in enumerate(all_prefixes)
    ]

    # Scan snapshot: industrial destinations answered the transport scan,
    # alternate ones also completed the application handshake.
    per_protocol_dsts: dict[str, set[int]] = {}
    for _, frame, truth in pending:
        if truth.get("sanitize") == KEPT and truth.get("label") == INDUSTRIAL_LABEL:
            per_protocol_dsts.setdefault(truth["protocol"], set()).add(
                int.from_bytes(frame[30:34], "big"))
    snapshot = {}
    for protocol, dsts in sorted(per_protocol_dsts.items()):
        ordered = [int_to_ip(ip) for ip in sorted(dsts)]
        snapshot[protocol] = {"transport": ordered, "application": ordered[::2]}

    return {
        "scanner_registry": ("registry.json", json.dumps(registry, indent=2) + "\n"),
        "hp_all": ("hp_all.txt", "".join(ip + "\n" for ip in sorted(hp_all, key=ip_to_int))),
        "hp_ics": ("hp_ics.txt", "".join(ip + "\n" for ip in sorted(hp_ics, key=ip_to_int))),
        "rdns": ("rdns.csv", "".join(f"{ip},{name}\n" for ip, name in sorted(rdns_rows))),
        "asn_table": ("asn.txt", "".join(f"{int_to_ip(p)}/24 {asn}\n"
                                         for p, asn in sorted(asn_of_prefix.items()))),
        "cone": ("cone.json", json.dumps({str(m): sorted(c) for m, c in cone.items()},
                                         indent=2, sort_keys=True) + "\n"),
        "geo": ("geo.csv", "".join(geo_rows)),
        "scan_snapshot": ("scan_snapshot.json",
                          json.dumps(snapshot, indent=2, sort_keys=True) + "\n"),
    }
