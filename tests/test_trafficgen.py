import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ics_scope.capture import ICMP, CaptureMeta, int_to_ip, utc_day
from ics_scope.dissectors import dissect
from ics_scope.inputs import ConfigError
from ics_scope.trafficgen import ScenarioSpec, build_backscatter_frame, build_frame, generate

from golden import golden_packets
from reads import read_all, record_from_frame


def _spec(**overrides):
    raw = {
        "seed": 5,
        "vantage": "vp0",
        "start_day": "2018-01-01",
        "end_day": "2018-01-05",
        "flows": [
            {
                "kind": "industrial",
                "protocol": "modbus",
                "src": "198.18.0.1",
                "dst": "198.19.0.1",
                "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-05",
                             "packets_per_day": 10},
                "request_ratio": 0.5,
            }
        ],
    }
    raw.update(overrides)
    return raw


def test_same_seed_byte_identical(tmp_path):
    spec = ScenarioSpec.from_dict(_spec())
    first = generate(spec, tmp_path / "a")
    second = generate(ScenarioSpec.from_dict(_spec()), tmp_path / "b")
    assert first.pcap.read_bytes() == second.pcap.read_bytes()
    assert first.ground_truth.read_text() == second.ground_truth.read_text()
    for name, path in first.sidecars.items():
        assert path.read_bytes() == second.sidecars[name].read_bytes()


def test_generated_wellformed_packets_pass_dissectors():
    for packet in golden_packets():
        record = record_from_frame(packet.frame)
        dissection = dissect(record)
        assert dissection is not None
        assert dissection.protocol == packet.protocol
        assert dissection.verdict == packet.verdict


def test_sweep_is_request_only_and_scanner_labeled(tmp_path):
    raw = _spec(flows=[
        {
            "kind": "scanner_sweep",
            "protocol": "bacnet",
            "project": "Shodan",
            "src": "203.0.113.0/29",
            "dst": "100.64.0.0/26",
            "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                         "packets_per_day": 80},
        }
    ])
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    truth = [json.loads(line) for line in corpus.ground_truth.read_text().splitlines()]
    assert len(truth) == 80
    assert all(t["direction"] == "request" for t in truth)
    assert all(t["label"] == "non_industrial" for t in truth)
    assert all(t["reasons"] == ["scanner_prefix:Shodan"] for t in truth)
    registry = json.loads(corpus.sidecars["scanner_registry"].read_text())
    shodan = next(e for e in registry if e["project"] == "Shodan")
    assert shodan["prefixes"] == ["203.0.113.0/29"]
    from ics_scope.classify import filter_report

    records = read_all(corpus.pcap, CaptureMeta("vp0"))[0]
    report = filter_report(Counter((dissect(r).protocol, dissect(r).direction, frozenset())
                                   for r in records))
    assert next(row for row in report if row["protocol"] == "bacnet")["request_share"] == 1.0
    # Destination coverage: every host of the /26 shows up.
    assert len({r.dst_ip for r in records}) == 62


def test_ground_truth_aligns_with_pcap(tmp_path):
    corpus = generate(ScenarioSpec.from_dict(_spec()), tmp_path)
    records = read_all(corpus.pcap, CaptureMeta("vp0"))[0]
    truth = [json.loads(line) for line in corpus.ground_truth.read_text().splitlines()]
    assert len(records) == len(truth) == 50
    assert [t["index"] for t in truth] == list(range(50))
    timestamps = [r.ts for r in records]
    assert timestamps == sorted(timestamps)


def test_snap_len_emulation(tmp_path):
    raw = _spec(snap_len=96)
    raw["flows"][0]["protocol"] = "s7comm"
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    records = read_all(corpus.pcap, CaptureMeta("vp0", snap_len=96))[0]
    assert all(len(r.payload) <= 96 - 14 - 20 - 20 for r in records)
    assert all(dissect(r) is not None for r in records)


def test_schedule_outside_range_rejected():
    raw = _spec()
    raw["flows"][0]["schedule"]["end_day"] = "2018-02-01"
    with pytest.raises(ConfigError, match="outside corpus range"):
        ScenarioSpec.from_dict(raw)


def test_oversized_sweep_cidr_rejected():
    raw = _spec(flows=[
        {
            "kind": "scanner_sweep",
            "protocol": "modbus",
            "project": "Censys",
            "src": "192.0.2.0/28",
            "dst": "100.64.0.0/16",
            "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                         "packets_per_day": 100},
        }
    ])
    with pytest.raises(ConfigError, match="CIDR larger"):
        ScenarioSpec.from_dict(raw)


@pytest.mark.parametrize("src, packets_per_day, ok", [
    ("198.18.0.0/29", 10, True),   # 6 source hosts: names 0-5 only
    ("198.18.0.0/28", 7, True),    # 7 packets: names 0-6 only
    ("198.18.0.0/28", 10, False),  # name 7 is host7.census.rapid7.net
])
def test_rdns_names_checked_up_to_hosts_and_packets(src, packets_per_day, ok):
    raw = _spec()
    raw["flows"][0].update(src=src, rdns_name="host{i}.census.rapid{i}.net",
                           rdns_project="Censys")
    raw["flows"][0]["schedule"].update(end_day="2018-01-01", packets_per_day=packets_per_day)
    if ok:
        ScenarioSpec.from_dict(raw)
    else:
        with pytest.raises(ConfigError, match="to Rapid7, not Censys"):
            ScenarioSpec.from_dict(raw)


def test_pool_overlap_rejected():
    raw = _spec(flows=[
        {
            "kind": "scanner_sweep",
            "protocol": "modbus",
            "project": "Censys",
            "src": "192.0.2.0/28",
            "dst": "100.64.0.0/28",
            "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                         "packets_per_day": 20},
        },
        {
            "kind": "industrial",
            "protocol": "modbus",
            "src": "192.0.2.3",
            "dst": "198.19.0.1",
            "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                         "packets_per_day": 5},
        },
    ])
    with pytest.raises(ConfigError, match="ambiguous"):
        ScenarioSpec.from_dict(raw)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        ScenarioSpec.from_json(path)


def test_active_day_schedule(tmp_path):
    raw = _spec()
    raw["end_day"] = "2018-03-01"
    raw["flows"][0]["schedule"] = {
        "active_days": ["2018-01-01", "2018-01-15", "2018-02-20"],
        "packets_per_day": 2,
    }
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    truth = [json.loads(line) for line in corpus.ground_truth.read_text().splitlines()]
    assert len(truth) == 6
    records = read_all(corpus.pcap, CaptureMeta("vp0"))[0]
    days = sorted({utc_day(r.ts).isoformat() for r in records})
    assert days == ["2018-01-01", "2018-01-15", "2018-02-20"]


def test_protocols_per_asn_matches_ground_truth(tmp_path):
    raw = _spec(flows=[
        {
            "kind": "scanner_sweep", "protocol": protocol, "project": "Shodan",
            "src": "203.0.113.0/28", "dst": f"100.6{i}.0.0/29",
            "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                         "packets_per_day": 8},
        }
        for i, protocol in enumerate(["modbus", "bacnet", "dnp3", "iec104", "hartip"])
    ])
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    from ics_scope.enrich import load_asn_table, protocols_per_asn

    asn_table = load_asn_table(corpus.sidecars["asn_table"])
    truth = [json.loads(line) for line in corpus.ground_truth.read_text().splitlines()]
    records = read_all(corpus.pcap, CaptureMeta("vp0"))[0]

    rows: dict[int, set] = {}
    expected: dict[int, set] = {}
    for record, t in zip(records, truth):
        if dissect(record).direction != "request":
            continue
        asn = asn_table.lookup(record.src_ip)
        assert asn is not None
        rows.setdefault(asn, set()).add(dissect(record).protocol)
        expected.setdefault(asn, set()).add(t["protocol"])
    per_asn = {row[0]: row for row in protocols_per_asn(rows)}
    assert set(per_asn) == set(expected)
    for asn, protocols in expected.items():
        assert per_asn[asn][1] == len(protocols)
    # All sweep sources share one /28, hence one AS requesting 5 protocols.
    assert any(suspicious for _, _, _, suspicious in per_asn.values())


def test_honeypot_sidecars_subset(tmp_path):
    raw = _spec(flows=[
        {
            "kind": "industrial",
            "protocol": "modbus",
            "src": "100.66.0.1",
            "dst": "198.19.0.1",
            "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                         "packets_per_day": 4},
            "honeypot": "ics",
        },
        {
            "kind": "industrial",
            "protocol": "modbus",
            "src": "100.66.1.1",
            "dst": "198.19.0.2",
            "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                         "packets_per_day": 4},
            "honeypot": "all",
        },
    ])
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    hp_all = set(corpus.sidecars["hp_all"].read_text().split())
    hp_ics = set(corpus.sidecars["hp_ics"].read_text().split())
    assert hp_ics == {"100.66.0.1"}
    assert hp_all == {"100.66.0.1", "100.66.1.1"}
    truth = [json.loads(line) for line in corpus.ground_truth.read_text().splitlines()]
    ics_rows = [t for t in truth if t["reasons"] == ["hp_all", "hp_ics"]]
    all_rows = [t for t in truth if t["reasons"] == ["hp_all"]]
    assert len(ics_rows) == 4 and len(all_rows) == 4


@pytest.mark.parametrize("change", [{"src": 5}, {"request_ratio": "0.5"}])
def test_each_flow_is_checked_whole_before_the_next(change):
    # Flow 0 schedules a day past end_day; flow 1 has a fault of its own.
    raw = _spec(flows=[
        _spec()["flows"][0],
        {**_spec()["flows"][0], "src": "198.18.1.1", "dst": "198.19.1.1", **change},
    ])
    raw["flows"][0]["schedule"]["end_day"] = "2018-02-01"
    with pytest.raises(ConfigError) as caught:
        ScenarioSpec.from_dict(raw)
    assert str(caught.value) == (
        "flow 0 (industrial/modbus): schedule day 2018-01-06 outside corpus range")


def _folded_sum(data: bytes) -> int:
    """The 16-bit one's-complement sum of data, padded with a zero byte to
    an even length, one word at a time."""
    data += b"\x00" * (len(data) % 2)
    total = 0
    for i in range(0, len(data), 2):
        total += data[i] << 8 | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return total


def _check_datagram(datagram: bytes) -> None:
    """The IPv4 header and the TCP or UDP segment of datagram each sum to
    0xFFFF with their checksum in, the segment behind its pseudo-header."""
    assert _folded_sum(datagram[:20]) == 0xFFFF
    segment = datagram[20:]
    pseudo = datagram[12:20] + bytes([0, datagram[9]]) + len(segment).to_bytes(2, "big")
    assert _folded_sum(pseudo + segment) == 0xFFFF


_addresses = st.integers(0, 2**32 - 1).map(int_to_ip)
_ports = st.integers(0, 65535)


@settings(max_examples=300, deadline=None)
@given(src=_addresses, dst=_addresses, router=_addresses,
       transport=st.sampled_from(["tcp", "udp"]), sport=_ports, dport=_ports,
       payload=st.binary(max_size=1500),
       options=st.integers(0, 10).map(lambda words: b"\x01" * 4 * words),
       ident=st.integers(0, 0xFFFE))
@example(src="0.0.0.0", dst="0.0.0.0", router="0.0.0.0", transport="udp", sport=0, dport=0,
         payload=b"", options=b"", ident=0)
@example(src="255.255.255.255", dst="255.255.255.255", router="255.255.255.255",
         transport="tcp", sport=65535, dport=65535, payload=b"\xff" * 1499, options=b"",
         ident=0xFFFE)
def test_frame_checksums_fold_to_all_ones(src, dst, router, transport, sport, dport, payload,
                                          options, ident):
    frame = build_frame(src, dst, transport, sport, dport, payload,
                        tcp_options=options if transport == "tcp" else b"", ident=ident)
    _check_datagram(frame[14:])
    frame = build_backscatter_frame(router, src, dst, transport, sport, dport, payload, ident)
    outer = frame[14:]
    assert outer[9] == ICMP
    assert _folded_sum(outer[:20]) == 0xFFFF
    assert _folded_sum(outer[20:]) == 0xFFFF
    _check_datagram(outer[28:])


def test_an_unknown_transport_is_refused():
    with pytest.raises(ValueError, match="unknown transport 'sctp'"):
        build_frame("192.0.2.1", "198.51.100.1", "sctp", 1, 2, b"x")
    with pytest.raises(ValueError, match="unknown transport 'sctp'"):
        build_backscatter_frame("203.0.113.1", "192.0.2.1", "198.51.100.1", "sctp", 1, 2, b"x")
