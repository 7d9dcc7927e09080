"""Classic-pcap ingest into normalized, truncated packet records.

The reader keeps only what the downstream stages need: IPv4 frames carrying
ICMP, TCP or UDP, snapped to the vantage point's capture length. Everything
else is skipped and counted so that record + skip totals always reconcile
with the frame count in the file.
"""

from __future__ import annotations

import os
import stat
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path

from .ports import PORTS, TCP, UDP

PCAP_MAGIC_MICROS = 0xA1B2C3D4
PCAP_MAGIC_NANOS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
PCAP_HEADER_LEN = 24  # the file header; records follow it

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_VLAN = 0x8100
ETHERTYPE_IPV6 = 0x86DD

ICMP = 1  # TCP and UDP are defined with the port table, in .ports

# ICMP error messages quote the datagram that triggered them.
ICMP_ERROR_TYPES = (3, 11, 12)

REQUEST = "request"
REPLY = "reply"
UNRELATED = "unrelated"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_US_PER_DAY = 86_400_000_000


class CaptureError(ValueError):
    """Unreadable or structurally invalid capture file."""


# Canonical decimal texts (no sign, no space, no leading zero) of each octet
# value and each prefix length.
_OCTETS = {str(value): value for value in range(256)}
_PREFIX_LENGTHS = {str(plen): plen for plen in range(33)}


def ip_to_int(text: str) -> int:
    """Dotted-quad address to its 32-bit value.

    Accepts exactly what ipaddress.IPv4Address accepts: four canonical
    decimal octets; anything else raises ValueError.
    """
    try:
        a, b, c, d = text.split(".")
        return (_OCTETS[a] << 24) | (_OCTETS[b] << 16) | (_OCTETS[c] << 8) | _OCTETS[d]
    except (KeyError, ValueError):
        raise ValueError(f"invalid IPv4 address {text!r}") from None


def parse_cidr(text: str, strict: bool) -> tuple[int, int]:
    """'a.b.c.d' or 'a.b.c.d/N' to (network address, prefix length).

    N is ASCII decimal digits, leading zeros allowed, of value at most 32;
    a bare address is a /32. Host bits below the prefix raise ValueError
    when strict and are masked off otherwise, as with ipaddress.IPv4Network.
    Netmask forms (a.b.c.d/255.255.255.0) are not accepted.
    """
    address, slash, length = text.partition("/")
    value = ip_to_int(address)
    if not slash:
        return value, 32
    plen = _PREFIX_LENGTHS.get(length.lstrip("0") or "0") if length else None
    if plen is None:
        raise ValueError(f"invalid prefix length in {text!r}")
    network = value & (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
    if strict and network != value:
        raise ValueError(f"{text!r} has host bits set")
    return network, plen


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
    """One IPv4 datagram decoded down to its transport payload.

    The reader yields one per captured frame, and an ICMP error's quoted
    datagram is decoded into one too. payload holds the captured bytes after
    the transport header (after the 8-byte ICMP header for ICMP: the quoted
    datagram for error messages); payload_wire_len is the payload's length
    on the wire per the IP header, so truncation is detectable even though
    trailing bytes are gone. Ports are 0 for ICMP; icmp_type is -1 for TCP
    and UDP. Which vantage point saw the packet is a fact of its capture
    (CaptureMeta), not of the record.
    """

    ts: int  # microseconds since the Unix epoch, UTC
    src_ip: int  # IPv4 addresses as 32-bit values; int_to_ip formats them
    dst_ip: int
    ip_proto: int
    src_port: int
    dst_port: int
    payload: bytes
    payload_wire_len: int
    icmp_type: int = -1

    @property
    def day(self) -> date:
        return utc_day(self.ts)


def ipv4_view(datagram: bytes, ts: int) -> PacketRecord | None:
    """Parse a possibly truncated IPv4 datagram down to its transport payload.

    ts becomes the record's timestamp. None when the datagram is not IPv4
    carrying ICMP, TCP or UDP, or when the capture stops inside the IP or
    transport header.
    """
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
    src = int.from_bytes(datagram[12:16], "big")
    dst = int.from_bytes(datagram[16:20], "big")
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
        return PacketRecord(ts, src, dst, TCP, sport, dport, body[thl:], max(wire_body - thl, 0))
    if proto == UDP:
        if len(body) < 8:
            return None
        sport = int.from_bytes(body[0:2], "big")
        dport = int.from_bytes(body[2:4], "big")
        return PacketRecord(ts, src, dst, UDP, sport, dport, body[8:], max(wire_body - 8, 0))
    if proto == ICMP:
        if len(body) < 8:
            return None
        return PacketRecord(ts, src, dst, ICMP, 0, 0, body[8:], max(wire_body - 8, 0), body[0])
    return None


def _decode_frame(frame: bytes, ts: int) -> tuple[PacketRecord | None, str]:
    """The reader's step for one captured frame: its record, or why it is skipped.

    Strips the Ethernet header (one VLAN tag tolerated) and decodes the IPv4
    datagram. Returns (record, "") or (None, skip reason): "short",
    "qinq", "ipv6", "non_ipv4" or "non_transport".
    """
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
    datagram = frame[offset:]
    record = ipv4_view(datagram, ts)
    if record is None:
        proto = datagram[9] if len(datagram) >= 10 else None
        return None, "short" if proto in (ICMP, TCP, UDP) else "non_transport"
    return record, ""


class PcapReader:
    """Streaming reader over a classic pcap file, or over a byte range of it.

    Iterating yields PacketRecords in file order and raises CaptureError at
    a record cut short by the end of the file. A range [start, stop) of file
    offsets selects the records whose 16-byte header starts inside it; the
    reader reaches start by walking the earlier record headers, seeking past
    their bodies. The ranges of any cut of the file into consecutive pieces
    together yield exactly the whole file's records, and a record cut short
    is raised by the one range its header starts in. A record holding more
    bytes than the file header's snaplen (when non-zero) cannot come from
    that capture and is skipped as "over_snaplen".

    frames_read counts from the file's first record, walked ones included,
    so an error names the same record index whatever the range; first_frame
    is the index of the range's first record. Skip counters and frame totals
    are reliable once iteration stops; records_yielded plus the sum of
    skipped reasons always equals frames_read - first_frame.
    """

    def __init__(self, path, meta: CaptureMeta, start: int = PCAP_HEADER_LEN,
                 stop: int | None = None):
        self.path = Path(path)
        self.meta = meta
        self.start = max(start, PCAP_HEADER_LEN)
        self.stop = stop
        self.skipped: Counter[str] = Counter()
        self.first_frame = 0
        self.frames_read = 0
        self.records_yielded = 0
        try:
            self._fh = open(self.path, "rb")
        except OSError as exc:
            raise CaptureError(f"cannot open capture {self.path}: {exc}") from exc
        info = os.fstat(self._fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            self._fh.close()
            raise CaptureError(f"{self.path}: not a regular file")
        self._size = info.st_size
        header = self._fh.read(PCAP_HEADER_LEN)
        if len(header) < PCAP_HEADER_LEN:
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
        _, _, _, _, self.snaplen, linktype = struct.unpack(self._endian + "HHiIII", header[4:])
        if linktype != LINKTYPE_ETHERNET:
            self._fh.close()
            raise CaptureError(f"{self.path}: unsupported link type {linktype}, expected Ethernet")

    def close(self):
        if not self._fh.closed:
            self._fh.close()

    def __iter__(self):
        if self._fh.closed:  # single-consumer stream; a second pass needs a new reader
            return
        fh, size = self._fh, self._size
        rec_header = struct.Struct(self._endian + "IIII")
        # A file header snaplen of 0 sets no limit; incl_len is 32 bits.
        max_incl_len = self.snaplen or 0xFFFFFFFF
        stop = size if self.stop is None else min(self.stop, size)
        pos = PCAP_HEADER_LEN
        try:
            while pos < self.start:
                head = fh.read(16)
                incl_len = rec_header.unpack(head)[2] if len(head) == 16 else size
                if incl_len > size - pos - 16:
                    # Cut short: raised by the range its header starts in;
                    # this later range holds nothing.
                    pos = size
                    break
                fh.seek(incl_len, os.SEEK_CUR)
                pos += 16 + incl_len
                self.frames_read += 1
            self.first_frame = self.frames_read
            while pos < stop:
                head = fh.read(16)
                if len(head) < 16:
                    raise CaptureError(f"{self.path}: record {self.frames_read}: truncated "
                                       f"record header ({len(head)} of 16 bytes)")
                sec, frac, incl_len, _ = rec_header.unpack(head)
                pos += 16
                # Checked before reading, so a bogus length never becomes a buffer.
                if incl_len > size - pos:
                    raise CaptureError(f"{self.path}: record {self.frames_read}: runs past the "
                                       f"end of the file ({size - pos} of {incl_len} bytes)")
                data = fh.read(incl_len)
                pos += incl_len
                self.frames_read += 1
                if incl_len > max_incl_len:
                    self.skipped["over_snaplen"] += 1
                    continue
                ts = sec * 1_000_000 + (frac // 1000 if self._nanos else frac)
                record, reason = _decode_frame(data[: self.meta.snap_len], ts)
                if record is None:
                    self.skipped[reason] += 1
                    continue
                self.records_yielded += 1
                yield record
        finally:
            self.close()


def read_capture(path, meta: CaptureMeta, start: int = PCAP_HEADER_LEN,
                 stop: int | None = None) -> PcapReader:
    """Open a pcap, or the byte range [start, stop) of it, for streaming;
    iterate the result to get PacketRecords."""
    return PcapReader(path, meta, start, stop)


def record_from_frame(frame: bytes, ts: int = 0,
                      captured_len: int | None = None) -> PacketRecord | None:
    """The record the reader yields for a frame captured up to captured_len bytes.

    None exactly where the reader skips the frame. A test fixture builder
    kept next to the decode it reuses, so that fixtures cannot drift from
    what the reader yields.
    """
    return _decode_frame(frame[:captured_len], ts)[0]


def direction(record: PacketRecord) -> str:
    """Request, reply or unrelated, judged by registered ICS ports.

    Destination port wins when both ports are registered; ICMP records never
    relate to a port.
    """
    if PORTS.protocol_for(record.dst_port, record.ip_proto):
        return REQUEST
    if PORTS.protocol_for(record.src_port, record.ip_proto):
        return REPLY
    return UNRELATED
