import json
from collections import Counter

import pytest

from ics_scope.capture import CaptureMeta, record_from_frame, utc_day
from ics_scope.dissectors import dissect
from ics_scope.inputs import ConfigError
from ics_scope.trafficgen import ScenarioSpec, generate

from golden import golden_packets
from reads import read_all


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
    per_asn = protocols_per_asn(rows)
    assert set(per_asn) == set(expected)
    for asn, protocols in expected.items():
        assert per_asn[asn]["distinct"] == len(protocols)
    # All sweep sources share one /28, hence one AS requesting 5 protocols.
    assert any(info["suspicious"] for info in per_asn.values())


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
