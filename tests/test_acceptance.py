"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The oracle corpora are generated once per session (conftest.py);
pipeline runtime bounds are asserted on the analysis stages themselves.
"""

import itertools
import json
import random
import time
from datetime import date, timedelta

import numpy as np
import pytest

from ics_scope.capture import (
    RECORD,
    CaptureMeta,
    int_to_ip,
    ip_to_int,
    utc_day,
)
from ics_scope.classify import (
    ALL_FILTERS,
    HP_ALL,
    HP_ICS,
    INDUSTRIAL,
    SCANNER_PREFIX,
    SCANNER_RDNS,
    HoneypotSets,
    RdnsTable,
    ScannerRegistry,
    endpoint_reasons,
    label_under,
)
from ics_scope.dissectors import WELL_FORMED, dissect
from ics_scope.enrich import (
    IxpTopology,
    MEMBER_TO_MEMBER,
    TRANSITIONS,
    UNKNOWN_TRANSITION,
    fabric_side,
    load_asn_table,
    load_geo_table,
    scan_overlap,
    transition,
)
from ics_scope.metrics import daily_series, host_stability
from ics_scope.pipeline import (
    CaptureSource,
    CaptureState,
    PipelineConfig,
    candidate_verdicts,
    run_analyze,
)
from ics_scope.sanitize import KEPT, default_catalog, retention
from ics_scope.trafficgen import ScenarioSpec, generate

from golden import MIN_IDENTIFIABLE_FRAME_BYTES, golden_packets
from oracles import is_local
from reads import read_all, record_from_frame

SCANNERS = frozenset({SCANNER_PREFIX, SCANNER_RDNS})


def _stable_host_days():
    rng = random.Random(1234)
    offsets = {0, 178} | set(rng.sample(range(1, 178), 144))
    start = date(2018, 1, 1)
    return sorted((start + timedelta(days=o)).isoformat() for o in offsets)


def _scenario_industrial_stable():
    return {
        "seed": 101,
        "vantage": "ixp0",
        "start_day": "2018-01-01",
        "end_day": "2018-06-28",
        "sample_interval": 16384,
        "snap_len": 128,
        "flows": [
            {"kind": "industrial", "protocol": "bacnet", "src": "198.18.10.1",
             "dst": "198.19.10.1",
             "schedule": {"active_days": _stable_host_days(), "packets_per_day": 40},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "modbus", "src": "198.18.11.1",
             "dst": "198.19.11.1",
             "schedule": {"start_day": "2018-01-01", "end_day": "2018-06-28",
                          "packets_per_day": 60},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "iec104", "src": "198.18.12.1",
             "dst": "198.19.12.1",
             "schedule": {"start_day": "2018-01-01", "end_day": "2018-06-28",
                          "packets_per_day": 50},
             "request_ratio": 0.8},
            {"kind": "industrial", "protocol": "hartip", "src": "198.18.13.1",
             "dst": "198.19.13.1",
             "schedule": {"start_day": "2018-01-01", "end_day": "2018-06-28",
                          "packets_per_day": 40},
             "request_ratio": 0.5},
        ],
    }


def _scenario_scanner_sweep():
    return {
        "seed": 202,
        "vantage": "isp0",
        "start_day": "2018-01-01",
        "end_day": "2018-01-07",
        "sample_interval": 16384,
        "snap_len": 128,
        "flows": [
            {"kind": "scanner_sweep", "protocol": "bacnet", "project": "Rapid7",
             "src": "198.51.100.0/26", "dst": "100.64.0.0/18",
             "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                          "packets_per_day": 30000}},
            {"kind": "scanner_sweep", "protocol": "modbus", "project": "Shodan",
             "src": "203.0.113.0/27", "dst": "100.65.0.0/20",
             "schedule": {"start_day": "2018-01-03", "end_day": "2018-01-03",
                          "packets_per_day": 12000}},
            {"kind": "scanner_sweep", "protocol": "s7comm", "project": "Censys",
             "src": "192.0.2.0/28", "dst": "100.66.0.0/21",
             "schedule": {"start_day": "2018-01-04", "end_day": "2018-01-04",
                          "packets_per_day": 6000}},
            {"kind": "industrial", "protocol": "ethernetip", "src": "198.18.20.1",
             "dst": "198.19.20.1",
             "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-07",
                          "packets_per_day": 100},
             "request_ratio": 0.5},
        ],
    }


def _scenario_mixed():
    return {
        "seed": 303,
        "vantage": "ixp1",
        "start_day": "2018-02-01",
        "end_day": "2018-02-14",
        "sample_interval": 16384,
        "snap_len": 128,
        "flows": [
            {"kind": "industrial", "protocol": "bacnet", "src": "198.18.30.1",
             "dst": "198.19.30.1",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 300},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "s7comm", "src": "198.18.31.1",
             "dst": "198.19.31.1", "heuristic": True,
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 100},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "dnp3", "src": "198.18.32.1",
             "dst": "198.19.32.1",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 200},
             "request_ratio": 0.7},
            {"kind": "industrial", "protocol": "modbus", "src": "100.67.0.1",
             "dst": "198.19.33.1", "honeypot": "ics",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 150}},
            {"kind": "industrial", "protocol": "ethernetip", "src": "100.68.0.1",
             "dst": "198.19.34.1", "honeypot": "all",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 150}},
            {"kind": "industrial", "protocol": "hartip", "src": "100.69.0.1",
             "dst": "198.19.35.1",
             "rdns_name": "scanner{i}.labs.rapid7.com", "rdns_project": "Rapid7",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 100}},
            {"kind": "scanner_sweep", "protocol": "bacnet", "project": "Kudelski",
             "src": "192.88.99.0/26", "dst": "100.70.0.0/22",
             "schedule": {"start_day": "2018-02-05", "end_day": "2018-02-05",
                          "packets_per_day": 4000}},
            {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.0.0/28",
             "dst": "100.72.0.0/28",
             "schedule": {"start_day": "2018-02-03", "end_day": "2018-02-05",
                          "packets_per_day": 50}},
            {"kind": "malformed", "protocol": "modbus", "src": "100.73.0.1",
             "dst": "100.74.0.1",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 30}},
            {"kind": "malformed", "protocol": "iec104", "src": "100.73.1.1",
             "dst": "100.74.1.1",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 30}},
            {"kind": "malformed", "protocol": "dnp3", "src": "100.73.2.1",
             "dst": "100.74.2.1",
             "schedule": {"start_day": "2018-02-01", "end_day": "2018-02-14",
                          "packets_per_day": 30}},
            {"kind": "dpi_decoy", "protocol": "bacnet", "src": "100.127.0.1",
             "dst": "100.127.0.2",
             "schedule": {"start_day": "2018-02-07", "end_day": "2018-02-08",
                          "packets_per_day": 10}},
        ],
    }


def _load_truth(corpus):
    with open(corpus.ground_truth) as fh:
        return [json.loads(line) for line in fh]


def _capture_meta(corpus):
    config = json.loads(corpus.config.read_text())
    entry = config["captures"][0]
    return CaptureMeta(entry["vantage"], entry["sample_interval"], entry["snap_len"])


def _dissect_cut(frame, length):
    """Dissection of a frame captured up to length bytes; None when the
    reader would skip the cut frame."""
    record = record_from_frame(frame, captured_len=length)
    return None if record is None else dissect(record)


def test_criterion_1_min_length_thresholds():
    started = time.perf_counter()
    well_formed = [p for p in golden_packets() if p.verdict == WELL_FORMED]
    # The threshold table covers every protocol, one well-formed packet each.
    assert sorted(MIN_IDENTIFIABLE_FRAME_BYTES) == sorted(p.protocol for p in well_formed)
    for packet in well_formed:
        threshold = MIN_IDENTIFIABLE_FRAME_BYTES[packet.protocol]
        minimal = None
        for length in range(40, len(packet.frame) + 1):
            d = _dissect_cut(packet.frame, length)
            if d is not None and d.protocol == packet.protocol and d.verdict == WELL_FORMED:
                minimal = length
                break
        assert minimal == threshold, (packet.protocol, minimal, threshold)
        below = _dissect_cut(packet.frame, threshold - 1)
        assert below is None or below.verdict != WELL_FORMED or below.protocol != packet.protocol
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 min-length thresholds: PASS ({elapsed:.3f}s)")


def test_criterion_2_sanitization_arithmetic(tmp_path):
    malformed_counts = {"modbus": 13, "s7comm": 12, "ethernetip": 12, "bacnet": 12,
                        "dnp3": 12, "hartip": 12, "iec104": 12}
    flows = [
        {"kind": "industrial", "protocol": "bacnet", "src": "198.18.40.1",
         "dst": "198.19.40.1",
         "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                      "packets_per_day": 13},
         "request_ratio": 0.6},
        {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.9.1",
         "dst": "100.72.9.1",
         "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                      "packets_per_day": 1}},
        {"kind": "dpi_decoy", "protocol": "bacnet", "src": "100.127.9.1",
         "dst": "100.127.9.2",
         "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                      "packets_per_day": 1}},
    ]
    for index, (protocol, count) in enumerate(sorted(malformed_counts.items())):
        flows.append(
            {"kind": "malformed", "protocol": protocol, "src": f"100.73.{40 + index}.1",
             "dst": f"100.74.{40 + index}.1",
             "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-01",
                          "packets_per_day": count}}
        )
    raw = {"seed": 404, "vantage": "vp", "start_day": "2018-01-01",
           "end_day": "2018-01-01", "flows": flows}
    corpus = generate(ScenarioSpec.from_dict(raw), tmp_path)
    state = CaptureState()
    source = CaptureSource(corpus.pcap, _capture_meta(corpus))
    for _ in candidate_verdicts(state, source, 0, default_catalog()):
        pass
    total, _ = retention(state.events)
    counts = (total["candidates_in"], total["after_tunnel"], total["after_malformed"],
              total["after_dpi"])
    assert counts == (100, 99, 14, 13), counts
    print(f"\nACCEPTANCE 2 sanitization arithmetic 100/99/14/13: PASS {counts}")


def test_criterion_3_end_to_end_oracle(oracle_corpora):
    total_packets = 0
    pipeline_elapsed = 0.0
    label_tp = label_fp = label_fn = 0
    for name, corpus in oracle_corpora.items():
        truth = _load_truth(corpus)
        source = CaptureSource(corpus.pcap, _capture_meta(corpus))
        registry = ScannerRegistry.from_json(corpus.sidecars["scanner_registry"])
        honeypots = HoneypotSets.from_files(corpus.sidecars["hp_all"],
                                            corpus.sidecars["hp_ics"])
        rdns = RdnsTable.from_csv(corpus.sidecars["rdns"], registry)
        catalog = default_catalog()

        started = time.perf_counter()
        state = CaptureState()
        candidates = list(candidate_verdicts(state, source, 0, catalog))
        kept = [(position, record) for position, record, _, verdict in candidates
                if verdict == KEPT]
        kept_reasons = [
            endpoint_reasons(record.src_ip, registry, rdns, honeypots)
            | endpoint_reasons(record.dst_ip, registry, rdns, honeypots)
            for _, record in kept
        ]
        pipeline_elapsed += time.perf_counter() - started

        records = state.frames[(0, RECORD)]
        total_packets += records
        assert records == len(truth), name

        # Each candidate is the truth row at its position; a row without a
        # protocol is no candidate.
        truth_at = {expected["index"]: expected for expected in truth}
        assert [position for position, *_ in candidates] == [
            expected["index"] for expected in truth if expected["protocol"] is not None], name
        for position, _, dissection, verdict in candidates:
            expected = truth_at[position]
            got = (dissection.protocol, dissection.kind, dissection.verdict,
                   dissection.role, dissection.function_code, dissection.direction)
            want = (expected["protocol"], expected["kind"], expected["verdict"],
                    expected["role"], expected["function_code"], expected["direction"])
            assert got == want, (name, position, got, want)
            assert verdict == expected["sanitize"], (name, position)

        kept_truth = [t for t in truth if t["protocol"] is not None and t["sanitize"] == "kept"]
        assert len(kept_truth) == len(kept)
        for (position, _), reasons in zip(kept, kept_reasons):
            expected = truth_at[position]
            want_reasons = sorted(expected["reasons"] or [])
            got_reasons = sorted(reason.tag() for reason in reasons)
            label = label_under(reasons, ALL_FILTERS)
            assert label == expected["label"], (name, position)
            assert got_reasons == want_reasons, (name, position)
            if label == "non_industrial" and expected["label"] == "non_industrial":
                label_tp += 1
            elif label == "non_industrial":
                label_fp += 1
            elif expected["label"] == "non_industrial":
                label_fn += 1

    precision = label_tp / (label_tp + label_fp)
    recall = label_tp / (label_tp + label_fn)
    assert precision == 1.0 and recall == 1.0
    assert total_packets >= 100_000
    assert pipeline_elapsed < 10.0, pipeline_elapsed
    print(
        f"\nACCEPTANCE 3 end-to-end oracle: PASS ({total_packets} packets, "
        f"precision={precision:.1f}, recall={recall:.1f}, {pipeline_elapsed:.2f}s pipeline)"
    )


def test_criterion_4_host_stability(oracle_corpora):
    corpus = oracle_corpora["industrial_stable"]
    meta = _capture_meta(corpus)
    records = read_all(corpus.pcap, meta)[0]
    stable_days: dict[date, set] = {}
    for record in records:
        dissection = dissect(record)
        if dissection is not None:
            stable_days.setdefault(utc_day(record.ts), set()).add(record.dst_ip)
    stable = {row[0]: row for row in host_stability(stable_days)}["198.19.10.1"]
    assert (stable[3], stable[4]) == (179, 146)

    rng = random.Random(77)
    start = date(2017, 6, 1)
    synthetic: dict[date, set] = {}
    expected = {}
    for host_index in range(1000):
        ip = 0x0A000000 + host_index
        offsets = sorted(rng.sample(range(0, 365), rng.randrange(1, 40)))
        expected[int_to_ip(ip)] = offsets
        for o in offsets:
            synthetic.setdefault(start + timedelta(days=o), set()).add(ip)
    for ip, _, _, window_days, active_days, _ in host_stability(synthetic):
        offsets = expected[ip]
        # Independent recomputation by explicit day-walk.
        active = set(offsets)
        window = offsets[-1] - offsets[0] + 1
        count = sum(1 for o in range(offsets[0], offsets[-1] + 1) if o in active)
        assert window_days == window
        assert active_days == count
    print("\nACCEPTANCE 4 host stability (179, 146) + 1k brute force: PASS")


def test_criterion_5_filter_family_monotonicity():
    for corpus_index in range(100):
        rng = random.Random(5000 + corpus_index)
        registry = ScannerRegistry.from_entries([
            {"project": "Shodan", "prefixes": ["203.0.113.0/25"], "rdns_patterns": ["shodan"]},
            {"project": "Censys", "prefixes": ["192.0.2.0/26"], "rdns_patterns": ["census"]},
        ])
        hp_all_pool = [ip_to_int(f"100.64.0.{i}") for i in range(1, 120)]
        hp_all = set(rng.sample(hp_all_pool, rng.randrange(5, 60)))
        hp_ics = set(rng.sample(sorted(hp_all), rng.randrange(0, len(hp_all))))
        honeypots = HoneypotSets(frozenset(hp_all), frozenset(hp_ics))
        rdns = RdnsTable.from_names({ip_to_int(f"100.65.0.{i}"): "probe.shodan.io"
                                     for i in range(1, 10)}, registry)
        pool = (
            [ip_to_int(f"203.0.113.{i}") for i in range(1, 100)]
            + hp_all_pool
            + [ip_to_int(f"100.65.0.{i}") for i in range(1, 20)]
            + [ip_to_int(f"198.18.0.{i}") for i in range(1, 120)]
        )
        reasons = []
        for _ in range(200):
            src, dst = rng.choice(pool), rng.choice(pool)
            reasons.append(endpoint_reasons(src, registry, rdns, honeypots)
                           | endpoint_reasons(dst, registry, rdns, honeypots))
        share_scanners = sum(label_under(r, SCANNERS) == INDUSTRIAL for r in reasons)
        share_hp_ics = sum(label_under(r, SCANNERS | {HP_ICS}) == INDUSTRIAL for r in reasons)
        share_hp_all = sum(
            label_under(r, SCANNERS | {HP_ICS, HP_ALL}) == INDUSTRIAL for r in reasons
        )
        assert share_hp_all <= share_hp_ics <= share_scanners, corpus_index
    print("\nACCEPTANCE 5 filter-family monotonicity on 100 corpora: PASS")


def _partition_topologies(n_ases):
    """Partition-style cone assignments over member subsets of 1..n."""
    ases = list(range(1, n_ases + 1))
    for member_bits in range(1, 1 << n_ases):
        members = [a for i, a in enumerate(ases) if member_bits >> i & 1]
        outside = [a for a in ases if a not in members]
        slots = [None] + members
        for assignment in itertools.product(range(len(slots)), repeat=len(outside)):
            cone = {m: set() for m in members}
            for asn, slot in zip(outside, assignment):
                if slots[slot] is not None:
                    cone[slots[slot]].add(asn)
            yield IxpTopology({m: frozenset(c) for m, c in cone.items()})


def _transition(src_asn, dst_asn, ingress, egress, topo) -> str:
    """A packet's transition from its two sides, as the pipeline joins it."""
    return transition(fabric_side(src_asn, ingress, topo), fabric_side(dst_asn, egress, topo))


def test_criterion_6_locality_consistency(oracle_corpora):
    checked = 0
    for n_ases in range(2, 7):
        for topo in _partition_topologies(n_ases):
            members = sorted(topo.cone)
            ases = list(range(1, n_ases + 1))
            for src, dst in itertools.product(ases, repeat=2):
                for ingress in members:
                    for egress in members:
                        local = is_local(src, ingress, egress, dst)
                        kind = _transition(src, dst, ingress, egress, topo)
                        assert local == (kind == MEMBER_TO_MEMBER)
                        checked += 1

    # Transition shares over non-unknown packets sum to exactly 100%.
    corpus = oracle_corpora["mixed"]
    from collections import Counter

    from ics_scope.enrich import load_asn_table

    config = PipelineConfig.from_json(corpus.config)
    asn_table = load_asn_table(config.asn_table)
    topo = IxpTopology.from_json(config.cone)
    counts: Counter = Counter()
    for record in read_all(corpus.pcap, _capture_meta(corpus))[0]:
        dissection = dissect(record)
        if dissection is None:
            continue
        src_asn = asn_table.lookup(record.src_ip)
        dst_asn = asn_table.lookup(record.dst_ip)
        ingress = topo.resolve_member(src_asn)
        egress = topo.resolve_member(dst_asn)
        counts[(dissection.protocol,
                _transition(src_asn, dst_asn, ingress, egress, topo))] += 1
    protocols = {p for p, _ in counts}
    for protocol in protocols:
        known = sum(counts[(protocol, t)] for t in TRANSITIONS)
        total_non_unknown = sum(
            v for (p, t), v in counts.items() if p == protocol and t != UNKNOWN_TRANSITION
        )
        assert known == total_non_unknown  # shares over the four kinds sum to 100% exactly
    print(f"\nACCEPTANCE 6 locality consistency: PASS ({checked} topology tuples)")


def test_criterion_7_lpm_oracle(tmp_path):
    rng = random.Random(999)
    entries = {}
    while len(entries) < 10_000:
        plen = rng.choice([8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32])
        network = rng.randrange(0, 2**32) & (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
        entries[(network, plen)] = rng.randrange(1, 70_000)
    started = time.perf_counter()
    countries = ["DE", "US", "JP", "NL", "FR"]
    prefixes = [f"{int_to_ip(network)}/{plen}" for network, plen in entries]
    asn_path, geo_path = tmp_path / "asn.txt", tmp_path / "geo.csv"
    asn_path.write_text("".join(f"{prefix} {asn}\n"
                                for prefix, asn in zip(prefixes, entries.values())))
    geo_path.write_text("".join(f"{prefix},{countries[asn % len(countries)]}\n"
                                for prefix, asn in zip(prefixes, entries.values())))
    table, geo = load_asn_table(asn_path), load_geo_table(geo_path)

    keys = np.array([net >> (32 - plen) if plen else 0 for (net, plen) in entries],
                    dtype=np.uint64)
    plens = np.array([plen for (_, plen) in entries], dtype=np.uint64)
    values = np.array(list(entries.values()), dtype=np.int64)
    shifts = (32 - plens).astype(np.uint64)

    ips = [rng.randrange(0, 2**32) for _ in range(10_000)]
    mismatches = 0
    for ip in ips:
        shifted = np.uint64(ip) >> shifts
        hits = shifted == keys
        if hits.any():
            best = plens[hits].max()
            winners = values[hits & (plens == best)]
            expected_asn = int(winners[0])
            expected_country = countries[expected_asn % len(countries)]
        else:
            expected_asn = None
            expected_country = None
        if table.lookup(ip) != expected_asn:
            mismatches += 1
        if geo.lookup(ip) != expected_country:
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 5.0, elapsed
    print(f"\nACCEPTANCE 7 LPM oracle 10k x 10k: PASS ({elapsed:.2f}s)")


def _extrapolated(packets: int, sample_interval: int) -> int:
    """daily.tsv's on-wire estimate for one day's packets at one interval."""
    day = date(2018, 1, 1)
    return daily_series({("vp", "bacnet", day, True, sample_interval): packets})[0][2]


def test_criterion_8_extrapolation_and_determinism(oracle_corpora, tmp_path):
    rng = random.Random(321)
    for _ in range(1000):
        a = rng.randrange(0, 10**9)
        b = rng.randrange(0, 10**9)
        s = rng.randrange(1, 2**20)
        assert _extrapolated(a + b, s) == _extrapolated(a, s) + _extrapolated(b, s)

    corpus = oracle_corpora["mixed"]
    config = PipelineConfig.from_json(corpus.config)
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run_analyze(config, first)
    run_analyze(config, second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print(f"\nACCEPTANCE 8 extrapolation linearity + byte-identical bundles: PASS "
          f"({len(names)} files)")


def test_criterion_9_scan_overlap_bound():
    rng = random.Random(606)
    for round_index in range(100):
        hosts = [0x0B000000 + i for i in range(rng.randrange(2, 200))]
        transport = set(rng.sample(hosts, rng.randrange(0, len(hosts) + 1)))
        application = set(rng.sample(sorted(transport), rng.randrange(0, len(transport) + 1)))
        passive = {
            ("modbus", "source"): set(rng.sample(hosts, rng.randrange(1, len(hosts) + 1))),
            ("modbus", "destination"): set(rng.sample(hosts, rng.randrange(1, len(hosts) + 1))),
        }
        snapshot = {"modbus": {"transport": frozenset(transport),
                               "application": frozenset(application)}}
        for row in scan_overlap(passive, snapshot):
            assert row["application_overlap_pct"] <= row["transport_overlap_pct"], round_index
    print("\nACCEPTANCE 9 scan-overlap bound on randomized snapshots: PASS")
