"""Classic-pcap ingest into normalized, truncated packet records.

The reader keeps only what the downstream stages need: IPv4 frames carrying
ICMP, TCP or UDP, snapped to the vantage point's capture length. Everything
else is skipped and counted so that record + skip totals always reconcile
with the frame count in the file.
"""

from __future__ import annotations

import logging
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .ports import PortRegistry, default_registry

log = logging.getLogger(__name__)

PCAP_MAGIC_MICROS = 0xA1B2C3D4
PCAP_MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD

ICMP = 1
TCP = 6
UDP = 17

# ICMP error messages quote the datagram that triggered them.
ICMP_ERROR_TYPES = (3, 11, 12)

REQUEST = "request"
REPLY = "reply"
UNRELATED = "unrelated"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_US_PER_DAY = 86_400_000_000


class CaptureError(ValueError):
    """Unreadable or structurally invalid capture file."""


def ip_to_int(ip: str) -> int:
    a, b, c, d = ip.split(".")
    return (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)


def int_to_ip(value: int) -> str:
    return f"{(value >> 24) & 255}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def utc_day(ts_us: int) -> date:
    """UTC calendar day a microsecond timestamp falls on."""
    return date.fromordinal(_EPOCH_ORDINAL + ts_us // _US_PER_DAY)


@dataclass(frozen=True)
class CaptureMeta:
    """Static facts about one vantage point's capture setup.

    sample_interval N means one captured packet stands for N packets on the
    wire. snap_len is counted from the link-layer frame start; day bucketing
    is fixed to UTC calendar days.
    """

    vantage: str
    sample_interval: int = 1
    snap_len: int = 65535

    def __post_init__(self):
        if self.sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        if self.snap_len < 46:
            raise ValueError("snap_len below 46 bytes cannot identify any supported protocol")


@dataclass(frozen=True)
class PacketRecord:
    """One sampled, truncated frame. Ports are 0 for ICMP.

    The last three fields are the transport decode of the captured bytes, as
    the reader made it: payload is None when the capture stops inside the
    transport header, payload_wire_len is the payload's length on the wire
    per the IP header, and icmp_type is -1 for TCP and UDP. For ICMP the
    payload is everything after the 8-byte ICMP header (the quoted datagram
    for error messages).
    """

    ts: int  # microseconds since the Unix epoch, UTC
    src_ip: str
    dst_ip: str
    ip_proto: int
    src_port: int
    dst_port: int
    captured: bytes  # frame bytes from link-layer start, possibly snap-truncated
    orig_len: int  # frame length on the wire
    vantage: str
    payload: bytes | None = None
    payload_wire_len: int = 0
    icmp_type: int = -1

    @property
    def day(self) -> date:
        return utc_day(self.ts)


@dataclass(frozen=True)
class TransportView:
    """Transport payload of an IPv4 datagram plus wire-length bookkeeping.

    payload holds the captured bytes; payload_wire_len is how long the
    payload was on the wire according to the IP header, so truncation is
    detectable even though trailing bytes are gone.
    """

    ip_proto: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload: bytes
    payload_wire_len: int
    icmp_type: int = -1


def ipv4_view(datagram: bytes) -> TransportView | None:
    """Parse a possibly truncated IPv4 datagram down to its transport payload."""
    if len(datagram) < 20:
        return None
    if datagram[0] >> 4 != 4:
        return None
    ihl = (datagram[0] & 0x0F) * 4
    if ihl < 20 or len(datagram) < ihl:
        return None
    total_len = int.from_bytes(datagram[2:4], "big")
    if total_len < ihl:
        return None
    proto = datagram[9]
    src = f"{datagram[12]}.{datagram[13]}.{datagram[14]}.{datagram[15]}"
    dst = f"{datagram[16]}.{datagram[17]}.{datagram[18]}.{datagram[19]}"
    # Trailing bytes beyond the IP total length are link padding, not payload.
    body = datagram[ihl:total_len] if len(datagram) > total_len else datagram[ihl:]
    wire_body = total_len - ihl
    if proto == TCP:
        if len(body) < 20:
            return None
        thl = (body[12] >> 4) * 4
        if thl < 20 or len(body) < thl:
            return None
        sport = int.from_bytes(body[0:2], "big")
        dport = int.from_bytes(body[2:4], "big")
        return TransportView(TCP, src, dst, sport, dport, body[thl:], max(wire_body - thl, 0))
    if proto == UDP:
        if len(body) < 8:
            return None
        sport = int.from_bytes(body[0:2], "big")
        dport = int.from_bytes(body[2:4], "big")
        return TransportView(UDP, src, dst, sport, dport, body[8:], max(wire_body - 8, 0))
    if proto == ICMP:
        if len(body) < 8:
            return None
        return TransportView(ICMP, src, dst, 0, 0, body[8:], max(wire_body - 8, 0), body[0])
    return None


def _frame_ip_slice(frame: bytes) -> tuple[bytes | None, str]:
    """Strip the Ethernet header (one VLAN tag tolerated), return IP bytes."""
    if len(frame) < 14:
        return None, "short"
    ethertype = int.from_bytes(frame[12:14], "big")
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        if len(frame) < 18:
            return None, "short"
        ethertype = int.from_bytes(frame[16:18], "big")
        offset = 18
        if ethertype == ETHERTYPE_VLAN:
            return None, "qinq"
    if ethertype == ETHERTYPE_IPV6:
        return None, "ipv6"
    if ethertype != ETHERTYPE_IPV4:
        return None, "non_ipv4"
    return frame[offset:], ""


class PcapReader:
    """Streaming reader over a classic pcap file.

    Iterating yields PacketRecords in file order. Skip counters and frame
    totals are reliable once iteration finishes; records_yielded plus the
    sum of skipped reasons always equals frames_read.
    """

    def __init__(self, path, meta: CaptureMeta):
        self.path = Path(path)
        self.meta = meta
        self.skipped: Counter[str] = Counter()
        self.frames_read = 0
        self.records_yielded = 0
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise CaptureError(f"cannot open capture {self.path}: {exc}") from exc
        header = self._fh.read(24)
        if len(header) < 24:
            self._fh.close()
            raise CaptureError(f"{self.path}: truncated pcap file header")
        magic_le = struct.unpack("<I", header[:4])[0]
        magic_be = struct.unpack(">I", header[:4])[0]
        if magic_le in (PCAP_MAGIC_MICROS, PCAP_MAGIC_NANOS):
            self._endian, magic = "<", magic_le
        elif magic_be in (PCAP_MAGIC_MICROS, PCAP_MAGIC_NANOS):
            self._endian, magic = ">", magic_be
        else:
            self._fh.close()
            raise CaptureError(f"{self.path}: unknown pcap magic {header[:4].hex()}")
        self._nanos = magic == PCAP_MAGIC_NANOS
        _, _, _, _, _, linktype = struct.unpack(self._endian + "HHiIII", header[4:])
        if linktype != LINKTYPE_ETHERNET:
            self._fh.close()
            raise CaptureError(f"{self.path}: unsupported link type {linktype}, expected Ethernet")

    def close(self):
        if not self._fh.closed:
            self._fh.close()

    @property
    def skipped_frames(self) -> int:
        return sum(self.skipped.values())

    def __iter__(self):
        if self._fh.closed:  # single-consumer stream; a second pass needs a new reader
            return
        rec_header = struct.Struct(self._endian + "IIII")
        try:
            while True:
                head = self._fh.read(16)
                if not head:
                    break
                if len(head) < 16:
                    log.warning("%s: truncated record header at end of file", self.path)
                    break
                sec, frac, incl_len, orig_len = rec_header.unpack(head)
                data = self._fh.read(incl_len)
                if len(data) < incl_len:
                    log.warning(
                        "%s: truncated final record (%d of %d bytes), stopping",
                        self.path, len(data), incl_len,
                    )
                    break
                self.frames_read += 1
                ts = sec * 1_000_000 + (frac // 1000 if self._nanos else frac)
                captured = data[: self.meta.snap_len]
                ip_bytes, reason = _frame_ip_slice(captured)
                if ip_bytes is None:
                    self.skipped[reason] += 1
                    continue
                view = ipv4_view(ip_bytes)
                if view is None:
                    proto = ip_bytes[9] if len(ip_bytes) >= 10 else None
                    self.skipped["short" if proto in (ICMP, TCP, UDP) else "non_transport"] += 1
                    continue
                self.records_yielded += 1
                yield _record(ts, view, view, captured, orig_len, self.meta.vantage)
        finally:
            self.close()


def read_capture(path, meta: CaptureMeta) -> PcapReader:
    """Open a pcap for streaming; iterate the result to get PacketRecords."""
    return PcapReader(path, meta)


def _record(ts: int, ends: TransportView, decode: TransportView | None, captured: bytes,
            orig_len: int, vantage: str) -> PacketRecord:
    """Endpoints from one decode, payload fields from the decode of the captured bytes."""
    decoded = () if decode is None else (decode.payload, decode.payload_wire_len, decode.icmp_type)
    return PacketRecord(ts, ends.src_ip, ends.dst_ip, ends.ip_proto, ends.src_port,
                        ends.dst_port, captured, orig_len, vantage, *decoded)


def _frame_view(frame: bytes) -> TransportView | None:
    ip_bytes, _ = _frame_ip_slice(frame)
    return None if ip_bytes is None else ipv4_view(ip_bytes)


def record_from_frame(
    frame: bytes,
    ts: int = 0,
    captured_len: int | None = None,
    orig_len: int | None = None,
    vantage: str = "synthetic",
) -> PacketRecord | None:
    """Build a record straight from frame bytes, optionally truncated.

    Endpoint metadata is recovered from the full frame even when the
    truncated slice cuts into the transport header, mirroring what a capture
    file records; the payload fields come from the captured slice, as the
    reader's do. Returns None for frames outside the supported model.
    """
    view = _frame_view(frame)
    if view is None:
        return None
    captured = frame if captured_len is None else frame[:captured_len]
    decode = view if captured_len is None else _frame_view(captured)
    return _record(ts, view, decode, captured,
                   orig_len if orig_len is not None else len(frame), vantage)


def direction(record: PacketRecord, registry: PortRegistry | None = None) -> str:
    """Request, reply or unrelated, judged by registered ICS ports.

    Destination port wins when both ports are registered; ICMP records never
    relate to a port.
    """
    registry = registry or default_registry()
    if record.ip_proto == UDP:
        transport = "udp"
    elif record.ip_proto == TCP:
        transport = "tcp"
    else:
        return UNRELATED
    if registry.protocol_for(record.dst_port, transport):
        return REQUEST
    if registry.protocol_for(record.src_port, transport):
        return REPLY
    return UNRELATED
