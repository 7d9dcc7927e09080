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
    REPLY,
    REQUEST,
    UNRELATED,
    CaptureError,
    CaptureMeta,
    PacketRecord,
    direction,
    int_to_ip,
    ip_to_int,
    parse_cidr,
    read_capture,
    record_from_frame,
    utc_day,
)
from ics_scope.dissectors import PROTOCOLS
from ics_scope.ports import default_registry
from ics_scope.trafficgen import (
    ETH_HEADER,
    build_frame,
    build_ipv4,
    build_udp,
    golden_packets,
    modbus_request,
    write_pcap,
)

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
    reader = read_capture(path, CaptureMeta("vp"))
    records = list(reader)
    assert len(records) == 2
    assert reader.frames_read == 3
    assert sum(reader.skipped.values()) == 1
    assert reader.skipped["non_ipv4"] == 1
    assert records[0].ip_proto == 6 and records[1].ip_proto == 17
    assert reader.records_yielded + sum(reader.skipped.values()) == reader.frames_read


def test_snap_truncation_recorded(tmp_path):
    frame = build_frame("10.0.0.1", "10.0.0.2", "udp", 1234, 5678, b"\x00" * 466)
    assert len(frame) == 508
    path = tmp_path / "big.pcap"
    write_pcap(path, [(0, frame)])
    record = next(iter(read_capture(path, CaptureMeta("vp", snap_len=128))))
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
    reader = read_capture(path, CaptureMeta("vp"))
    records = list(reader)
    assert reader.snaplen == snaplen
    assert reader.skipped["over_snaplen"] == over
    assert len(records) == 3 - over
    assert reader.records_yielded + sum(reader.skipped.values()) == reader.frames_read == 3


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
        records = list(read_capture(path, CaptureMeta("vp")))
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
    reader = read_capture(path, CaptureMeta("vp"))
    records = list(reader)
    assert len(records) == 1
    assert int_to_ip(records[0].src_ip) == "10.1.0.1"
    assert reader.skipped["qinq"] == 1


def test_icmp_records_have_zero_ports(tmp_path):
    icmp_body = b"\x08\x00\x00\x00\x00\x00\x00\x00payload"
    frame = ETH_HEADER + build_ipv4("10.2.0.1", "10.2.0.2", 1, icmp_body)
    path = tmp_path / "icmp.pcap"
    write_pcap(path, [(0, frame)])
    record = next(iter(read_capture(path, CaptureMeta("vp"))))
    assert record.ip_proto == 1
    assert record.src_port == 0 and record.dst_port == 0


def test_unknown_magic_rejected(tmp_path):
    path = tmp_path / "bad.pcap"
    path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
    with pytest.raises(CaptureError, match="unknown pcap magic"):
        read_capture(path, CaptureMeta("vp"))


def test_truncated_file_header_rejected(tmp_path):
    path = tmp_path / "short.pcap"
    path.write_bytes(b"\xd4\xc3\xb2\xa1\x02\x00")
    with pytest.raises(CaptureError, match="truncated pcap file header"):
        read_capture(path, CaptureMeta("vp"))


def test_non_regular_file_rejected():
    # The reader needs the file size to check record lengths and cut ranges.
    with pytest.raises(CaptureError, match="not a regular file"):
        read_capture(os.devnull, CaptureMeta("vp"))


def test_non_ethernet_linktype_rejected(tmp_path):
    path = tmp_path / "raw.pcap"
    path.write_bytes(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
    with pytest.raises(CaptureError, match="link type"):
        read_capture(path, CaptureMeta("vp"))


def test_truncated_final_record_warns_and_stops(tmp_path):
    path = tmp_path / "cut.pcap"
    frame = _tcp_frame()
    write_pcap(path, [(0, frame), (1, frame)])
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    reader = read_capture(path, CaptureMeta("vp"))
    records = []
    with pytest.raises(CaptureError, match="cut.pcap: record 1: runs past the end"):
        for record in reader:
            records.append(record)
    assert len(records) == 1
    assert reader.frames_read == 1


def _cut_corpus():
    frames = [_tcp_frame(), ARP_FRAME, _udp_frame(), _tcp_frame()[:40]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "full.pcap"
        write_pcap(path, [(i, frame) for i, frame in enumerate(frames)])
        data = path.read_bytes()
        records = list(read_capture(path, CaptureMeta("vp")))
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
        reader = read_capture(path, CaptureMeta("vp"))
        records = []
        try:
            for record in reader:
                records.append(record)
        except CaptureError as exc:
            assert cut not in _CUT_BOUNDARIES
            assert f"record {complete}:" in str(exc)
        else:
            assert cut in _CUT_BOUNDARIES
    assert reader.frames_read == complete
    assert reader.records_yielded + sum(reader.skipped.values()) == reader.frames_read
    assert records == _CUT_RECORDS[: len(records)]
    assert len(records) == reader.records_yielded


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


def _read(path, start=24, stop=None):
    """What a reader of [start, stop) of path yields: its records, skip
    counts, first frame and frames read, and the CaptureError message or
    None. The reader is None when the file header was refused."""
    records, reader, error = [], None, None
    try:
        reader = read_capture(path, CaptureMeta("vp"), start, stop)
        records.extend(reader)
    except CaptureError as exc:
        error = str(exc)
    return records, reader, error


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
        records, whole, error = _read(path)
        bounds = [24, *sorted(cuts), None]
        pieces = [_read(path, start, stop) for start, stop in zip(bounds, bounds[1:])]
    if whole is None:  # the file header was refused: by every range alike
        assert error is not None
        assert all(reader is None and message == error for _, reader, message in pieces)
        return
    assert whole.records_yielded + sum(whole.skipped.values()) == whole.frames_read
    assert len(records) == whole.records_yielded
    failed = [i for i, (_, _, message) in enumerate(pieces) if message is not None]
    assert len(failed) == (error is not None)
    frames, skipped, joined = 0, Counter(), []
    for i, (piece_records, reader, message) in enumerate(pieces):
        assert reader.first_frame == frames  # file-absolute frame numbers
        assert reader.records_yielded + sum(reader.skipped.values()) == (
            reader.frames_read - reader.first_frame)
        frames = reader.frames_read
        skipped += reader.skipped
        joined += piece_records
        if message is not None:
            # Raised by the range that holds the start of the bad record.
            assert message == error
            bad = _record_offsets(data)[whole.frames_read]
            start, stop = bounds[i], bounds[i + 1]
            assert max(start, 24) <= bad and (stop is None or bad < stop)
        if failed and i > failed[0]:
            assert piece_records == [] and reader.frames_read == reader.first_frame
    assert joined == records
    assert skipped == whole.skipped
    assert frames == whole.frames_read


def test_empty_pcap_yields_nothing(tmp_path):
    path = tmp_path / "empty.pcap"
    write_pcap(path, [])
    reader = read_capture(path, CaptureMeta("vp"))
    assert list(reader) == []
    assert reader.frames_read == 0


def _record(proto, sport, dport):
    return PacketRecord(0, ip_to_int("1.1.1.1"), ip_to_int("2.2.2.2"), proto, sport, dport, b"", 0)


def test_direction_examples():
    assert direction(_record(6, 49152, 502)) == REQUEST
    assert direction(_record(6, 502, 49152)) == REPLY
    # Both ports registered: destination-port precedence wins.
    assert direction(_record(17, 47808, 47809)) == REQUEST
    assert direction(_record(6, 49152, 49153)) == UNRELATED
    assert direction(_record(1, 0, 0)) == UNRELATED


def test_direction_all_registered_pairs_are_requests():
    registry = default_registry()
    pairs = [(port, transport) for protocol in PROTOCOLS
             for transport, ports in registry.ports_for(protocol).items() for port in ports]
    by_transport = {"tcp": 6, "udp": 17}
    for port_a, transport in pairs:
        for port_b, transport_b in pairs:
            if transport != transport_b:
                continue
            record = _record(by_transport[transport], port_a, port_b)
            assert direction(record) == REQUEST


@given(
    proto=st.sampled_from([1, 6, 17]),
    sport=st.integers(min_value=0, max_value=65535),
    dport=st.integers(min_value=0, max_value=65535),
)
def test_direction_total_and_deterministic(proto, sport, dport):
    record = _record(proto, sport, dport)
    first = direction(record)
    assert first in (REQUEST, REPLY, UNRELATED)
    assert direction(record) == first


def test_utc_day_bucketing():
    # 2018-01-03T23:59:59Z stays on the 3rd.
    ts = 1_515_023_999_000_000
    assert utc_day(ts).isoformat() == "2018-01-03"
    assert utc_day(ts + 1_000_000).isoformat() == "2018-01-04"


def test_reading_is_deterministic(tmp_path):
    path = tmp_path / "twice.pcap"
    write_pcap(path, [(i, _tcp_frame()) for i in range(5)] + [(9, _udp_frame())])
    first = list(read_capture(path, CaptureMeta("vp")))
    second = list(read_capture(path, CaptureMeta("vp")))
    assert first == second


def test_record_from_frame_matches_reader(tmp_path):
    frame = _tcp_frame()
    path = tmp_path / "one.pcap"
    write_pcap(path, [(7, frame)])
    from_reader = next(iter(read_capture(path, CaptureMeta("synthetic"))))
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
            reader = read_capture(path, CaptureMeta("vp"))
            records = list(reader)
            expected = record_from_frame(packet.frame, ts, captured_len=length)
            assert records == ([] if expected is None else [expected]), (packet.name, length)
            assert reader.frames_read == 1
            assert reader.records_yielded + sum(reader.skipped.values()) == reader.frames_read
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
    record = next(iter(read_capture(path, CaptureMeta("vp"))))
    assert (record.src_ip, record.dst_ip) == (0x0A000001, 0x0A000002)
    assert int_to_ip(record.dst_ip) == "10.0.0.2"
