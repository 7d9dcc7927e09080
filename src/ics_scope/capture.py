"""Classic-pcap ingest into normalized, truncated packet records.

The reader keeps only what the downstream stages need: IPv4 frames carrying
ICMP, TCP or UDP, snapped to the vantage point's capture length. Everything
else is skipped with its reason; the reader yields one outcome per frame, so
that record + skip totals always reconcile with the frame count in the file.
"""

from __future__ import annotations

import os
import stat
import struct
from _socket import AF_INET, inet_pton  # importing socket builds enum classes: +0.6 MB RSS
from dataclasses import dataclass, fields
from datetime import date
from itertools import repeat
from operator import rshift, sub
from pathlib import Path
from typing import NamedTuple

from .inputs import ConfigError, typed
from .ports import TCP, UDP

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

# The reader's outcome for a frame decoded to a record; a skipped frame's
# outcome is its skip reason.
RECORD = "record"

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_US_PER_DAY = 86_400_000_000


class CaptureError(ValueError):
    """Unreadable or structurally invalid capture file."""


# Canonical decimal texts (no sign, no space, no leading zero) of each prefix length.
_PREFIX_LENGTHS = {str(plen): plen for plen in range(33)}


def ip_to_int(text: str) -> int:
    """Dotted-quad address to its 32-bit value.

    Accepts exactly what ipaddress.IPv4Address accepts: four canonical
    decimal octets; anything else raises ValueError.
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, text), "big")
    except (OSError, ValueError):
        raise ValueError(f"invalid IPv4 address {text!r}") from None


def ip_column(texts: list[str]) -> list[int]:
    """ip_to_int of each text, parsed in C a column at a time: a text it
    refuses raises ip_to_int's ValueError, naming the first such text."""
    try:
        packed = b"".join(map(inet_pton, repeat(AF_INET), texts))
    except (OSError, ValueError):
        return list(map(ip_to_int, texts))
    return list(struct.unpack(f">{len(texts)}I", packed))


def prefix_columns(addresses, lengths) -> tuple[list[int], list[int]]:
    """Each a.b.c.d/N's N and top N bits, from columns of a.b.c.d and of N, as
    parse_cidr(strict=False) parses it; KeyError for a leading zero in N."""
    plens = list(map(_PREFIX_LENGTHS.__getitem__, lengths))
    return plens, list(map(rshift, ip_column(addresses), map(sub, repeat(32), plens)))


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
    network = value >> (32 - plen) << (32 - plen)
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

    @classmethod
    def from_entry(cls, raw: dict, where: str, prefix: str = "") -> "CaptureMeta":
        """The capture setup an analyze config's capture entry or a gen
        scenario gives, each value checked as analyze checks it; an error
        names the key after prefix."""
        values = {key: typed(raw.get(key, default), kind, where, prefix + key)
                  for key, default, kind in (("vantage", "vp0", str), ("sample_interval", 1, int),
                                             ("snap_len", 65535, int))}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{where}: {prefix}{exc}") from None


# The keys CaptureMeta.from_entry reads of a capture entry or a scenario.
META_KEYS = tuple(f.name for f in fields(CaptureMeta))


class PacketRecord(NamedTuple):
    """One IPv4 datagram decoded down to its transport payload.

    The reader yields one per frame it keeps, and an ICMP error's quoted
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


# Version and IHL, total length, flags and fragment offset, protocol, source
# and destination address.
_IPV4_HEADER = struct.Struct("!BxH2xHxB2xII")
_PORTS = struct.Struct("!HH")
_ETHERTYPE = struct.Struct("!H")


def ipv4_view(buf: bytes, ts: int, offset: int = 0) -> PacketRecord | None:
    """Parse a possibly truncated IPv4 datagram down to its transport payload.

    The datagram starts at offset in buf and runs to the end of buf; its
    headers are read in place and only the payload is copied. ts becomes
    the record's timestamp. None when the datagram is not IPv4 carrying
    ICMP, TCP or UDP, when it is a fragment other than the first (its bytes
    start inside the transport payload), or when the capture stops inside
    the IP or transport header.
    """
    size = len(buf)
    if size - offset < 20:
        return None
    first, total_len, fragment, proto, src, dst = _IPV4_HEADER.unpack_from(buf, offset)
    ihl = (first & 0x0F) * 4
    if first >> 4 != 4 or ihl < 20 or size - offset < ihl or total_len < ihl or fragment & 0x1FFF:
        return None
    body = offset + ihl
    # Trailing bytes beyond the IP total length are link padding, not payload.
    end = offset + total_len
    if end > size:
        end = size
    captured = end - body
    if proto == TCP:
        if captured < 20:
            return None
        thl = (buf[body + 12] >> 4) * 4
        if thl < 20 or captured < thl:
            return None
    elif proto == UDP or proto == ICMP:
        if captured < 8:
            return None
        thl = 8  # the UDP header, or the ICMP header
    else:
        return None
    payload, wire_len = buf[body + thl:end], total_len - ihl - thl
    if wire_len < 0:
        wire_len = 0
    # tuple.__new__ skips the Python-level __new__ NamedTuple generates: a
    # call per record.
    if proto == ICMP:
        return tuple.__new__(PacketRecord, (ts, src, dst, ICMP, 0, 0, payload, wire_len, buf[body]))
    sport, dport = _PORTS.unpack_from(buf, body)
    return tuple.__new__(PacketRecord, (ts, src, dst, proto, sport, dport, payload, wire_len, -1))


def _decode_frame(frame: bytes, ts: int) -> tuple[PacketRecord | None, str]:
    """The reader's step for one captured frame: its record, or why it is skipped.

    Strips the Ethernet header (one VLAN tag tolerated) and decodes the IPv4
    datagram in place. Returns (record, RECORD) or (None, skip reason):
    "short", "qinq", "ipv6", "non_ipv4", "fragment" or "non_transport".
    """
    if len(frame) < 14:
        return None, "short"
    ethertype = _ETHERTYPE.unpack_from(frame, 12)[0]
    offset = 14
    if ethertype == ETHERTYPE_VLAN:
        if len(frame) < 18:
            return None, "short"
        ethertype = _ETHERTYPE.unpack_from(frame, 16)[0]
        offset = 18
        if ethertype == ETHERTYPE_VLAN:
            return None, "qinq"
    if ethertype == ETHERTYPE_IPV6:
        return None, "ipv6"
    if ethertype != ETHERTYPE_IPV4:
        return None, "non_ipv4"
    record = ipv4_view(frame, ts, offset)
    if record is None:
        if len(frame) >= offset + 20 and (frame[offset + 6] & 0x1F or frame[offset + 7]):
            return None, "fragment"  # not the first: its bytes hold no transport header
        proto = frame[offset + 9] if len(frame) >= offset + 10 else None
        return None, "short" if proto in (ICMP, TCP, UDP) else "non_transport"
    return record, RECORD


def read_capture(path, meta: CaptureMeta, start: int = PCAP_HEADER_LEN,
                 stop: int | None = None):
    """Stream a classic pcap file, or a byte range of it: one outcome per
    frame, in file order, (record, RECORD) or (None, skip reason).

    The file is opened and its header checked on the first next(), and
    closed when the generator ends or is dropped. A range [start, stop) of
    file offsets selects the records whose 16-byte header starts inside it,
    reached by walking the earlier record headers. The ranges of any cut of
    the file into consecutive pieces together yield exactly the whole file's
    outcomes. A record cut short by the end of the file raises CaptureError
    in the one range its header starts in, named by its index in the whole
    file. A record holding more bytes than the file header's snaplen (when
    non-zero) cannot come from that capture and is skipped as "over_snaplen".
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CaptureError(f"cannot open capture {path}: {exc}") from exc
    with fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CaptureError(f"{path}: not a regular file")
        size = info.st_size
        header = fh.read(PCAP_HEADER_LEN)
        if len(header) < PCAP_HEADER_LEN:
            raise CaptureError(f"{path}: truncated pcap file header")
        magic_le = struct.unpack("<I", header[:4])[0]
        magic_be = struct.unpack(">I", header[:4])[0]
        if magic_le in (PCAP_MAGIC_MICROS, PCAP_MAGIC_NANOS):
            endian, magic = "<", magic_le
        elif magic_be in (PCAP_MAGIC_MICROS, PCAP_MAGIC_NANOS):
            endian, magic = ">", magic_be
        else:
            raise CaptureError(f"{path}: unknown pcap magic {header[:4].hex()}")
        nanos = magic == PCAP_MAGIC_NANOS
        _, _, _, _, snaplen, linktype = struct.unpack(endian + "HHiIII", header[4:])
        if linktype != LINKTYPE_ETHERNET:
            raise CaptureError(f"{path}: unsupported link type {linktype}, expected Ethernet")
        rec_header = struct.Struct(endian + "IIII")
        # A file header snaplen of 0 sets no limit; incl_len is 32 bits.
        max_incl_len = snaplen or 0xFFFFFFFF
        start = max(start, PCAP_HEADER_LEN)
        stop = size if stop is None else min(stop, size)
        pos = PCAP_HEADER_LEN
        index = 0  # of the next record in the whole file
        while pos < start:
            head = fh.read(16)
            incl_len = rec_header.unpack(head)[2] if len(head) == 16 else size
            if incl_len > size - pos - 16:
                # Cut short: raised by the range its header starts in;
                # this later range holds nothing.
                return
            fh.seek(incl_len, os.SEEK_CUR)
            pos += 16 + incl_len
            index += 1
        while pos < stop:
            head = fh.read(16)
            if len(head) < 16:
                raise CaptureError(f"{path}: record {index}: truncated "
                                   f"record header ({len(head)} of 16 bytes)")
            sec, frac, incl_len, _ = rec_header.unpack(head)
            pos += 16
            # Checked before reading, so a bogus length never becomes a buffer.
            if incl_len > size - pos:
                raise CaptureError(f"{path}: record {index}: runs past the "
                                   f"end of the file ({size - pos} of {incl_len} bytes)")
            data = fh.read(incl_len)
            pos += incl_len
            index += 1
            if incl_len > max_incl_len:
                yield None, "over_snaplen"
                continue
            ts = sec * 1_000_000 + (frac // 1000 if nanos else frac)
            yield _decode_frame(data[: meta.snap_len], ts)

