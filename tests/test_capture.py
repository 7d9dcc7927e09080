import ipaddress
import os
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ics_scope

from ics_scope.capture import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    ICMP,
    ICMP_ERROR_TYPES,
    RECORD,
    TCP,
    UDP,
    CaptureError,
    CaptureMeta,
    PacketRecord,
    int_to_ip,
    ip_to_int,
    ipv4_view,
    parse_cidr,
    read_capture,
    utc_day,
)
from ics_scope.dissectors import REPLY, REQUEST, UNRELATED, dissect, dissect_segment
from ics_scope.ports import PORTS
from ics_scope.trafficgen import (
    ETH_HEADER,
    build_backscatter_frame,
    bacnet_whois,
    build_frame,
    build_icmp_error,
    build_ipv4,
    build_tcp,
    build_udp,
    modbus_request,
    write_pcap,
)

from golden import golden_packets
from reads import read_all, record_from_frame

ARP_FRAME = (
    b"\xff\xff\xff\xff\xff\xff" + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x06" + b"\x00" * 28
)


def _tcp_frame():
    return build_frame("10.0.0.1", "10.0.0.2", "tcp", 49152, 502, modbus_request())


def _udp_frame():
    return build_frame("10.0.0.3", "10.0.0.4", "udp", 47808, 47810, b"\x81\x0b\x00\x08\x01\x00\x10\x08")


def test_read_capture_skips_non_ip(tmp_path):
    path = tmp_path / "mixed.pcap"
    write_pcap(path, [(1000, _tcp_frame()), (2000, ARP_FRAME), (3000, _udp_frame())])
    records, outcomes = read_all(path, CaptureMeta("vp"))
    assert len(records) == 2
    assert outcomes.total() == 3
    assert outcomes.total() - outcomes[RECORD] == 1
    assert outcomes["non_ipv4"] == 1
    assert records[0].ip_proto == 6 and records[1].ip_proto == 17
    assert outcomes[RECORD] == len(records)


def test_snap_truncation_recorded(tmp_path):
    frame = build_frame("10.0.0.1", "10.0.0.2", "udp", 1234, 5678, b"\x00" * 466)
    assert len(frame) == 508
    path = tmp_path / "big.pcap"
    write_pcap(path, [(0, frame)])
    record, _ = next(read_capture(path, CaptureMeta("vp", snap_len=128)))
    assert len(record.payload) == 128 - 14 - 20 - 8
    assert record.payload_wire_len == 508 - 14 - 20 - 8


@pytest.mark.parametrize("snaplen, over", [(80, 1), (0, 0)])
def test_record_over_the_file_snaplen_is_skipped(tmp_path, snaplen, over):
    short, long = _tcp_frame(), build_frame("10.0.0.1", "10.0.0.2", "udp", 1234, 47808,
                                            b"\x00" * 100)
    assert len(short) <= 80 < len(long)
    path = tmp_path / "snap.pcap"
    write_pcap(path, [(0, short), (1, long), (2, short)])
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 16, snaplen)  # the file header's snaplen field
    path.write_bytes(bytes(data))
    records, outcomes = read_all(path, CaptureMeta("vp"))
    assert struct.unpack_from("<I", path.read_bytes(), 16)[0] == snaplen
    assert outcomes["over_snaplen"] == over
    assert len(records) == 3 - over
    assert outcomes[RECORD] == len(records) and outcomes.total() == 3


def test_nanosecond_and_byteswapped_variants_agree(tmp_path):
    frame = _tcp_frame()
    ts_us = 1_500_000  # 1.5 s after the epoch

    micro = tmp_path / "micro.pcap"
    write_pcap(micro, [(ts_us, frame)])
    nano = tmp_path / "nano.pcap"
    write_pcap(nano, [(ts_us, frame)], nanos=True)
    swapped = tmp_path / "swapped.pcap"
    with open(swapped, "wb") as fh:
        fh.write(struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        fh.write(struct.pack(">IIII", 1, 500_000, len(frame), len(frame)))
        fh.write(frame)

    results = []
    for path in (micro, nano, swapped):
        records, _ = read_all(path, CaptureMeta("vp"))
        assert len(records) == 1
        results.append(records[0])
    assert results[0] == results[1] == results[2]
    assert results[0].ts == ts_us


def test_vlan_unwrapped_once_qinq_skipped(tmp_path):
    inner = build_ipv4("10.1.0.1", "10.1.0.2", 17, build_udp("10.1.0.1", "10.1.0.2", 1, 2, b"x"))
    vlan = ARP_FRAME[:12] + b"\x81\x00\x00\x64\x08\x00" + inner
    qinq = ARP_FRAME[:12] + b"\x81\x00\x00\x64\x81\x00\x00\x65\x08\x00" + inner
    path = tmp_path / "vlan.pcap"
    write_pcap(path, [(0, vlan), (1, qinq)])
    records, outcomes = read_all(path, CaptureMeta("vp"))
    assert len(records) == 1
    assert int_to_ip(records[0].src_ip) == "10.1.0.1"
    assert outcomes["qinq"] == 1


def _udp_fragment(flags_and_offset: int) -> bytes:
    """An IPv4 datagram whose bytes after the IP header read like a UDP
    header from port 53 to BACnet's 47808 and a Who-Is, with the given
    flags and fragment offset (in 8-byte units)."""
    body = b"\x00\x35\xba\xc0" + b"\x00\x10\x00\x00" + bacnet_whois()
    datagram = bytearray(build_ipv4("198.51.100.7", "10.3.0.2", UDP, body))
    datagram[6:8] = flags_and_offset.to_bytes(2, "big")
    return bytes(datagram)


def _icmp_error_frame(datagram: bytes) -> bytes:
    return ETH_HEADER + build_ipv4("10.3.0.9", "198.51.100.7", ICMP,
                                   build_icmp_error(3, 3, datagram))


def test_only_first_fragments_are_read(tmp_path):
    # The last fragment of an amplification reply, at byte 1480 of its
    # datagram: its bytes are payload, not a UDP header, so it is skipped,
    # and an ICMP error quoting it gives no candidate. A first fragment
    # (more-fragments set, offset 0) reads as an unfragmented datagram.
    tail = _udp_fragment(1480 // 8)
    first = _udp_fragment(0x2000)
    path = tmp_path / "fragments.pcap"
    write_pcap(path, [(0, ETH_HEADER + tail), (1, ETH_HEADER + first),
                      (2, _icmp_error_frame(tail)), (3, _icmp_error_frame(first))])
    records, outcomes = read_all(path, CaptureMeta("vp"))
    assert outcomes == Counter({RECORD: 3, "fragment": 1})
    assert ipv4_view(tail, 0) == (None, "fragment")
    read_first, quoted_tail, quoted_first = records
    assert (read_first.ip_proto, read_first.src_port, read_first.dst_port) == (UDP, 53, 47808)
    assert dissect(read_first).protocol == "bacnet"
    assert dissect(quoted_tail) is None
    assert dissect(quoted_first).protocol == "bacnet"
    assert dissect(quoted_first).via_icmp_quote


def test_icmp_records_have_zero_ports(tmp_path):
    icmp_body = b"\x08\x00\x00\x00\x00\x00\x00\x00payload"
    frame = ETH_HEADER + build_ipv4("10.2.0.1", "10.2.0.2", 1, icmp_body)
    path = tmp_path / "icmp.pcap"
    write_pcap(path, [(0, frame)])
    record, _ = next(read_capture(path, CaptureMeta("vp")))
    assert record.ip_proto == 1
    assert record.src_port == 0 and record.dst_port == 0


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
    with pytest.raises(CaptureError, match="unknown pcap magic"):
        next(read_capture(path, CaptureMeta("vp")))


def test_truncated_file_header_rejected(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
    with pytest.raises(CaptureError, match="truncated pcap file header"):
        next(read_capture(path, CaptureMeta("vp")))


def test_non_regular_file_rejected():
    # The reader needs the file size to check record lengths and cut ranges.
    with pytest.raises(CaptureError, match="not a regular file"):
        next(read_capture(os.devnull, CaptureMeta("vp")))


def test_non_ethernet_linktype_rejected(tmp_path):
    path = tmp_path / "raw.pcap"
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
    with pytest.raises(CaptureError, match="link type"):
        next(read_capture(path, CaptureMeta("vp")))


def _opened(path):
    """How many of this process's file descriptors are open on path."""
    fds = [f"/proc/self/fd/{fd}" for fd in os.listdir("/proc/self/fd")]
    return sum(1 for fd in fds if os.path.exists(fd) and os.readlink(fd) == str(path))


def test_reader_dropped_unread_leaves_no_file_open(tmp_path):
    path = tmp_path / "one.pcap"
    write_pcap(path, [(0, _tcp_frame())])
    reader = read_capture(path, CaptureMeta("vp"))
    assert _opened(path) == 0
    del reader
    assert _opened(path) == 0


def test_reader_abandoned_after_one_frame_closes_its_file(tmp_path):
    path = tmp_path / "two.pcap"
    write_pcap(path, [(0, _tcp_frame()), (1, _udp_frame())])
    reader = read_capture(path, CaptureMeta("vp"))
    _, outcome = next(reader)
    assert outcome == RECORD and _opened(path) == 1
    del reader
    assert _opened(path) == 0


def _read(path, start=24, stop=None):
    """What a reader of [start, stop) of path yields up to a CaptureError:
    its records, the Counter of its outcomes, and the error message or None."""
    records, outcomes, error = [], Counter(), None
    try:
        for record, outcome in read_capture(path, CaptureMeta("vp"), start, stop):
            outcomes[outcome] += 1
            if record is not None:
                records.append(record)
    except CaptureError as exc:
        error = str(exc)
    return records, outcomes, error


def test_truncated_final_record_warns_and_stops(tmp_path):
    path = tmp_path / "cut.pcap"
    frame = _tcp_frame()
    write_pcap(path, [(0, frame), (1, frame)])
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    records, outcomes, error = _read(path)
    assert "cut.pcap: record 1: runs past the end" in error
    assert len(records) == 1
    assert outcomes.total() == 1


def _cut_corpus():
    frames = [_tcp_frame(), ARP_FRAME, _udp_frame(), _tcp_frame()[:40]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.pcap"
        write_pcap(path, [(i, frame) for i, frame in enumerate(frames)])
        data = path.read_bytes()
        records, _ = read_all(path, CaptureMeta("vp"))
    boundaries, offset = [24], 24
    for frame in frames:
        offset += 16 + len(frame)
        boundaries.append(offset)
    return data, boundaries, records


_CUT_DATA, _CUT_BOUNDARIES, _CUT_RECORDS = _cut_corpus()


@settings(max_examples=100, deadline=None)
@given(cut=st.integers(min_value=24, max_value=len(_CUT_DATA)))
def test_pcap_cut_anywhere_yields_complete_records_then_fails(cut):
    complete = sum(1 for b in _CUT_BOUNDARIES[1:] if b <= cut)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cut.pcap"
        path.write_bytes(_CUT_DATA[:cut])
        records, outcomes, error = _read(path)
    if error is not None:
        assert cut not in _CUT_BOUNDARIES
        assert f"record {complete}:" in error
    else:
        assert cut in _CUT_BOUNDARIES
    assert outcomes.total() == complete
    assert records == _CUT_RECORDS[: len(records)]
    assert len(records) == outcomes[RECORD]


def test_huge_incl_len_is_refused_before_it_is_read(tmp_path):
    # A 92-byte pcap whose one record header claims 0xFFFFFFF0 bytes: the
    # reader must refuse it from the file size, not buffer 4 GiB. The child
    # process runs under a 1 GiB address-space limit, which binds only it.
    path = tmp_path / "huge.pcap"
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from ics_scope.cli import main; sys.exit(main(['dissect', sys.argv[1]]))")
    env = {**os.environ, "PYTHONPATH": str(Path(ics_scope.__file__).parents[1])}
    for snaplen in (0, 65535):
        path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, snaplen, 1)
                         + struct.pack("<IIII", 0, 0, 0xFFFFFFF0, 0xFFFFFFF0) + bytes(52))
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 2, result.stderr
        assert "record 0: runs past the end of the file (52 of 4294967280 bytes)" in result.stderr


def _golden_pcap():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.pcap"
        write_pcap(path, [(i * 1000, p.frame) for i, p in enumerate(golden_packets())])
        return path.read_bytes()


_GOLDEN_PCAP = _golden_pcap()


def _record_offsets(data):
    """The file offset of each record header a whole read walks over, in order."""
    offsets, pos = [], 24
    while pos < len(data):
        offsets.append(pos)
        if pos + 16 > len(data):
            break
        pos += 16 + struct.unpack_from("<I", data, pos + 8)[0]
    return offsets


@settings(max_examples=200, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, len(_GOLDEN_PCAP) - 1), st.integers(1, 255)),
                      max_size=6),
       cut=st.none() | st.integers(0, len(_GOLDEN_PCAP)),
       cuts=st.lists(st.integers(0, len(_GOLDEN_PCAP) + 8), min_size=1, max_size=3))
def test_mutated_pcap_reads_the_same_whole_or_in_ranges(flips, cut, cuts):
    data = bytearray(_GOLDEN_PCAP)
    for offset, mask in flips:
        data[offset] ^= mask
    data = bytes(data[:cut])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.pcap"
        path.write_bytes(data)
        records, outcomes, error = _read(path)
        # An empty range reads the file header and no record.
        header_error = _read(path, 24, 24)[2]
        bounds = [24, *sorted(cuts), None]
        pieces = [_read(path, start, stop) for start, stop in zip(bounds, bounds[1:])]
    if header_error is not None:  # the file header was refused: by every range alike
        assert error == header_error and outcomes == Counter()
        assert all(piece == ([], Counter(), error) for piece in pieces)
        return
    assert len(records) == outcomes[RECORD]
    failed = [i for i, (_, _, message) in enumerate(pieces) if message is not None]
    assert len(failed) == (error is not None)
    summed, joined = Counter(), []
    for i, (piece_records, piece_outcomes, message) in enumerate(pieces):
        assert len(piece_records) == piece_outcomes[RECORD]
        if failed and i > failed[0]:
            assert piece_records == [] and piece_outcomes == Counter()
        summed += piece_outcomes
        joined += piece_records
        if message is not None:
            # Raised by the range that holds the start of the bad record,
            # named by its index in the whole file.
            assert message == error
            bad = _record_offsets(data)[outcomes.total()]
            start, stop = bounds[i], bounds[i + 1]
            assert max(start, 24) <= bad and (stop is None or bad < stop)
    assert joined == records
    assert summed == outcomes


def test_empty_pcap_yields_nothing(tmp_path):
    path = tmp_path / "empty.pcap"
    write_pcap(path, [])
    records, outcomes = read_all(path, CaptureMeta("vp"))
    assert records == []
    assert outcomes.total() == 0


@given(
    transport=st.sampled_from(["icmp", "tcp", "udp"]),
    sport=st.integers(min_value=0, max_value=65535),
    dport=st.integers(min_value=0, max_value=65535),
    index=st.integers(min_value=0),
)
def test_direction_total_and_deterministic(transport, sport, dport, index):
    # A captured segment's direction comes with its dissection: one of the
    # three values, the same on every call, and set by the registered port.
    packets = golden_packets()
    payload = record_from_frame(packets[index % len(packets)].frame).payload
    if transport == "icmp":
        frame = build_backscatter_frame("10.0.0.9", "10.0.0.1", "10.0.0.2", "tcp",
                                        sport, dport, payload)
    else:
        frame = build_frame("10.0.0.1", "10.0.0.2", transport, sport, dport, payload)
    record = record_from_frame(frame)
    first = dissect(record)
    assert dissect(record) == first
    if first is None:
        return
    assert first.direction in (REQUEST, REPLY, UNRELATED)
    if transport == "icmp":
        assert first.direction == UNRELATED
    elif PORTS.by_transport[record.ip_proto].get(dport) is not None:
        assert first.direction == REQUEST
    elif PORTS.by_transport[record.ip_proto].get(sport) is not None:
        assert first.direction == REPLY
    else:
        assert first.direction == UNRELATED


def test_utc_day_bucketing():
    # 2018-01-03T23:59:59Z stays on the 3rd.
    ts = 1_515_023_999_000_000
    assert utc_day(ts).isoformat() == "2018-01-03"
    assert utc_day(ts + 1_000_000).isoformat() == "2018-01-04"


def test_reading_is_deterministic(tmp_path):
    path = tmp_path / "twice.pcap"
    write_pcap(path, [(i, _tcp_frame()) for i in range(5)] + [(9, _udp_frame())])
    first = read_all(path, CaptureMeta("vp"))
    second = read_all(path, CaptureMeta("vp"))
    assert first == second


def test_record_from_frame_matches_reader(tmp_path):
    frame = _tcp_frame()
    path = tmp_path / "one.pcap"
    write_pcap(path, [(7, frame)])
    from_reader, _ = next(read_capture(path, CaptureMeta("synthetic")))
    direct = record_from_frame(frame, ts=7)
    assert direct == from_reader


def test_reader_and_record_from_frame_agree_on_every_cut(tmp_path):
    # Every golden packet cut at every length from the Ethernet header on:
    # the reader yields exactly the fixture's record, or skips the frame
    # where the fixture gives None, and its counters reconcile.
    path = tmp_path / "cut.pcap"
    ts = 1_515_023_999_123_456
    skipped = 0
    for packet in golden_packets():
        for length in range(14, len(packet.frame) + 1):
            write_pcap(path, [(ts, packet.frame[:length])])
            records, outcomes = read_all(path, CaptureMeta("vp"))
            expected = record_from_frame(packet.frame, ts, captured_len=length)
            assert records == ([] if expected is None else [expected]), (packet.name, length)
            assert outcomes.total() == 1
            assert outcomes[RECORD] == len(records)
            skipped += expected is None
    assert skipped > 0


# Octet texts around the canonical forms: empty, leading zeros, out of range,
# signs, spaces, non-ASCII digits and other number syntaxes.
_OCTET_TEXTS = st.one_of(
    st.integers(min_value=0, max_value=255).map(str),
    st.sampled_from(["", "0", "00", "01", "000", "007", "255", "256", "999", "1000", " 1", "1 ",
                     "+1", "-1", "-0", "0x1", "1e2", "a", "\u0661", "\uff11", "1_0", "\t1"]),
)
_ADDRESS_TEXTS = st.one_of(
    st.lists(_OCTET_TEXTS, min_size=3, max_size=5).map(".".join),
    st.text(max_size=16),
)
_PREFIX_LENGTH_TEXTS = st.one_of(
    st.builds(lambda plen, zeros: "0" * zeros + str(plen),
              st.integers(min_value=0, max_value=32), st.integers(min_value=0, max_value=3)),
    st.sampled_from(["33", "033", "99", "4294967296", "", " 24", "24 ", "+24", "-0", "2 4",
                     "\u0662\u0664", "0x18", "24.0"]),
)


def _agree(parse, reference):
    """parse returns what reference gives, and raises ValueError where it does."""
    try:
        expected = reference()
    except ValueError:
        with pytest.raises(ValueError):
            parse()
    else:
        assert parse() == expected


@settings(max_examples=500, deadline=None)
@given(text=_ADDRESS_TEXTS)
def test_ip_to_int_matches_ipaddress(text):
    _agree(lambda: ip_to_int(text), lambda: int(ipaddress.IPv4Address(text)))


@settings(max_examples=500, deadline=None)
@given(value=st.integers(min_value=0, max_value=2**32 - 1), length=_PREFIX_LENGTH_TEXTS,
       clear_host_bits=st.booleans(), odd_address=st.one_of(st.none(), _ADDRESS_TEXTS),
       bare=st.booleans())
def test_parse_cidr_matches_ipaddress(value, length, clear_host_bits, odd_address, bare):
    if clear_host_bits and length.isascii() and length.isdigit() and int(length) <= 32:
        value &= (0xFFFFFFFF << (32 - int(length))) & 0xFFFFFFFF
    address = int_to_ip(value) if odd_address is None else odd_address
    text = address if bare else f"{address}/{length}"
    for strict in (False, True):
        def reference():
            network = ipaddress.IPv4Network(text, strict=strict)
            return int(network.network_address), network.prefixlen

        _agree(lambda: parse_cidr(text, strict), reference)


# Texts some C libraries' address parsers accept; each must be refused here
# on every platform, whatever the libc.
@pytest.mark.parametrize("text", [
    "1.2.3", "1.2.3.4 ", " 1.2.3.4", "01.2.3.4", "1.2.3.04", "0x1.2.3.4", "1..3.4",
    "256.1.1.1", "1.2.3.4\x00", "1.2.3.4\ud800", "\uff11.2.3.4", "",
])
def test_ip_to_int_refuses_what_a_lax_libc_accepts(text):
    with pytest.raises(ValueError) as caught:
        ip_to_int(text)
    assert str(caught.value) == f"invalid IPv4 address {text!r}"


def test_parse_cidr_host_bits():
    assert parse_cidr("10.1.2.3/8", strict=False) == (ip_to_int("10.0.0.0"), 8)
    with pytest.raises(ValueError, match="host bits"):
        parse_cidr("10.1.2.3/8", strict=True)
    assert parse_cidr("10.1.2.3", strict=True) == (ip_to_int("10.1.2.3"), 32)
    assert parse_cidr("10.0.0.0/024", strict=True) == (ip_to_int("10.0.0.0"), 24)


def test_parse_cidr_rejects_netmask_form():
    # ipaddress reads "/255.255.255.0" as /24; table prefixes must give the length.
    assert ipaddress.IPv4Network("10.0.0.0/255.255.255.0").prefixlen == 24
    for strict in (False, True):
        with pytest.raises(ValueError, match="prefix length"):
            parse_cidr("10.0.0.0/255.255.255.0", strict)


def test_reader_yields_integer_addresses(tmp_path):
    path = tmp_path / "one.pcap"
    write_pcap(path, [(0, _tcp_frame())])
    record, _ = next(read_capture(path, CaptureMeta("vp")))
    assert (record.src_ip, record.dst_ip) == (0x0A000001, 0x0A000002)
    assert int_to_ip(record.dst_ip) == "10.0.0.2"


# The slicing decode the in-place one replaced, kept as its reference: each
# header is sliced off and each field read from its own slice.


def _slicing_ipv4_view(datagram: bytes, ts: int) -> PacketRecord | None:
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
    if int.from_bytes(datagram[6:8], "big") & 0x1FFF:  # not the first fragment
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


def _slicing_decode_frame(frame: bytes, ts: int) -> tuple[PacketRecord | None, str]:
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
    record = _slicing_ipv4_view(datagram, ts)
    if record is None:
        if len(datagram) >= 20 and int.from_bytes(datagram[6:8], "big") & 0x1FFF:
            return None, "fragment"
        proto = datagram[9] if len(datagram) >= 10 else None
        return None, "short" if proto in (ICMP, TCP, UDP) else "non_transport"
    return record, RECORD


# s7comm, modbus, iec104, hartip, dnp3, ethernetip and bacnet ports.
_ICS_PORTS = (102, 502, 2404, 5094, 20000, 44818, 47808)


_QUOTED_MODBUS = build_ipv4("10.0.0.1", "10.0.0.2", TCP,
                            build_tcp("10.0.0.1", "10.0.0.2", 49152, 502, modbus_request()))


@st.composite
def _datagrams(draw, quoted=False):
    """An IPv4-shaped datagram with any version, IHL, total length (below,
    at or above its bytes) and flags and fragment offset, carrying TCP with
    any data offset, UDP, ICMP or another protocol; an ICMP error quotes one
    more such datagram."""
    version = draw(st.sampled_from([4, 4, 4, 4, 4, 0, 6, 15]))
    ihl = draw(st.just(5) | st.integers(0, 15))
    proto = draw(st.sampled_from([ICMP, TCP, TCP, TCP, UDP, UDP, 0, 47]))
    options = draw(st.binary(min_size=max(ihl * 4 - 20, 0), max_size=max(ihl * 4 - 20, 0)))
    ports = struct.pack("!HH", *(draw(st.sampled_from(_ICS_PORTS) | st.integers(0, 65535))
                                 for _ in range(2)))
    if proto == TCP:
        data_offset = draw(st.just(5) | st.integers(0, 15))
        transport = (ports + draw(st.binary(min_size=8, max_size=8))
                     + bytes([data_offset << 4]) + draw(st.binary(min_size=7, max_size=7))
                     + draw(st.binary(min_size=max(data_offset * 4 - 20, 0),
                                      max_size=max(data_offset * 4 - 20, 0))))
    elif proto == UDP:
        transport = ports + draw(st.binary(min_size=4, max_size=4))
    elif proto == ICMP:
        icmp_type = draw(st.sampled_from([*ICMP_ERROR_TYPES, 0, 8]))
        transport = bytes([icmp_type]) + draw(st.binary(min_size=7, max_size=7))
        if icmp_type in ICMP_ERROR_TYPES and not quoted:
            transport += draw(st.just(_QUOTED_MODBUS) | _datagrams(quoted=True))
    else:
        transport = b""
    payload = draw(st.binary(max_size=24) | st.just(modbus_request()))
    length = 20 + len(options) + len(transport) + len(payload)
    total_len = draw(st.just(length) | st.integers(max(length - 12, 0), length + 12)
                     | st.integers(0, 65535))
    # Unfragmented, don't-fragment, a first fragment, or any flags and offset.
    fragment = draw(st.sampled_from([0, 0x4000, 0x2000]) | st.integers(0, 0xFFFF))
    header = struct.pack("!BBHHHBBH4s4s", version << 4 | ihl, 0, total_len, 0, fragment, 64,
                         proto, 0, draw(st.binary(min_size=4, max_size=4)),
                         draw(st.binary(min_size=4, max_size=4)))
    return header + options + transport + payload


@st.composite
def _frames(draw):
    """An Ethernet frame with 0, 1 or 2 VLAN tags, any of the IPv4, IPv6 or
    another ethertype, and link padding after the datagram."""
    tags = b"".join(b"\x81\x00" + draw(st.binary(min_size=2, max_size=2))
                    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))))
    ethertype = draw(st.sampled_from([ETHERTYPE_IPV4] * 6 + [ETHERTYPE_IPV6, 0x0806]))
    return (draw(st.binary(min_size=12, max_size=12)) + tags + struct.pack("!H", ethertype)
            + draw(_datagrams()) + draw(st.binary(max_size=8)))


@settings(max_examples=300, deadline=None)
@given(frame=_frames())
def test_in_place_decode_matches_the_slicing_reference(frame):
    # The frame cut at every length: the reader's outcome for each cut and
    # record_from_frame's record equal the slicing decode's, and an ICMP
    # error dissects through the slicing decode of its quoted datagram.
    ts = 1_515_023_999_123_456
    expected = [_slicing_decode_frame(frame[:length], ts) for length in range(len(frame) + 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cuts.pcap"
        write_pcap(path, [(ts, frame[:length]) for length in range(len(frame) + 1)])
        assert list(read_capture(path, CaptureMeta("vp"))) == expected
    for length, (want, _) in enumerate(expected):
        record = record_from_frame(frame, ts, captured_len=length)
        assert record == want
        if record is None:
            continue
        assert type(record.payload) is bytes
        if record.ip_proto == ICMP and record.icmp_type in ICMP_ERROR_TYPES and record.payload:
            inner = _slicing_ipv4_view(record.payload, ts)
            quoted = (dissect_segment(inner, via_icmp_quote=True)
                      if inner is not None and inner.ip_proto in (TCP, UDP) else None)
            assert dissect(record) == quoted
