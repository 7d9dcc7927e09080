"""Benchmark workloads: seeded scenarios, corpus generation and input layout.

Each workload is one of the acceptance scenarios, rebuilt here from the
workload seed so that the benchmark never depends on the test suite. The
generator writes the capture, the per-packet ground truth and the unpadded
sidecar tables to ``gen/``; the program only ever sees ``input/``, which
holds the capture files it reads, the padded sidecar tables and the config.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import struct
from datetime import date, timedelta
from pathlib import Path

import checker
import padding

WORKLOADS = ("longterm_industrial", "scan_burst", "dirty_mix")

DEFAULT_SEEDS = {"longterm_industrial": 101, "scan_burst": 202, "dirty_mix": 303}

# Padding sizes per workload; see padding.pad_tables for what each row adds.
PAD_SIZES = {
    "longterm_industrial": padding.PadSizes(asn=50_000, geo=50_000, rdns=50_000,
                                            hp_all=50_000, hp_ics=10_000,
                                            cone_members=1_000, scan_hosts=20_000),
    "scan_burst": padding.PadSizes(asn=5_000, geo=5_000, rdns=5_000, hp_all=5_000,
                                   hp_ics=1_000, cone_members=100, scan_hosts=2_000),
    "dirty_mix": padding.PadSizes(asn=5_000, geo=5_000, rdns=5_000, hp_all=5_000,
                                  hp_ics=1_000, cone_members=100, scan_hosts=2_000),
}

def longterm_industrial(seed: int) -> dict:
    """Acceptance ``industrial_stable``: four host pairs over 179 days.

    The BACnet pair keeps the acceptance pattern of 146 active days in its
    179-day window whatever the seed; the seed drives the generator.
    """
    rng = random.Random(1234)
    start = date(2018, 1, 1)
    offsets = {0, 178} | set(rng.sample(range(1, 178), 144))
    stable_days = sorted((start + timedelta(days=o)).isoformat() for o in offsets)
    whole = {"start_day": "2018-01-01", "end_day": "2018-06-28"}
    return {
        "seed": seed,
        "vantage": "ixp0",
        "start_day": "2018-01-01",
        "end_day": "2018-06-28",
        "sample_interval": 16384,
        "snap_len": 128,
        "flows": [
            {"kind": "industrial", "protocol": "bacnet", "src": "198.18.10.1",
             "dst": "198.19.10.1",
             "schedule": {"active_days": stable_days, "packets_per_day": 40},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "modbus", "src": "198.18.11.1",
             "dst": "198.19.11.1", "schedule": {**whole, "packets_per_day": 60},
             "request_ratio": 0.5},
            {"kind": "industrial", "protocol": "iec104", "src": "198.18.12.1",
             "dst": "198.19.12.1", "schedule": {**whole, "packets_per_day": 50},
             "request_ratio": 0.8},
            {"kind": "industrial", "protocol": "hartip", "src": "198.18.13.1",
             "dst": "198.19.13.1", "schedule": {**whole, "packets_per_day": 40},
             "request_ratio": 0.5},
        ],
    }


def scan_burst(seed: int) -> dict:
    """Acceptance ``scanner_sweep``: three sweeps next to one industrial flow."""
    return {
        "seed": seed,
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


def dirty_mix(seed: int) -> dict:
    """Acceptance ``mixed`` with its sanitize-dropped flows raised.

    The industrial, honeypot, rDNS and sweep flows are those of ``mixed``;
    backscatter, malformed headers (all seven protocols) and DPI decoys are
    raised until about a third of all candidates is dropped, split evenly
    over the three sanitize steps, all on few hosts.
    """
    whole = {"start_day": "2018-02-01", "end_day": "2018-02-14"}
    flows = [
        {"kind": "industrial", "protocol": "bacnet", "src": "198.18.30.1",
         "dst": "198.19.30.1", "schedule": {**whole, "packets_per_day": 300},
         "request_ratio": 0.5},
        {"kind": "industrial", "protocol": "s7comm", "src": "198.18.31.1",
         "dst": "198.19.31.1", "heuristic": True,
         "schedule": {**whole, "packets_per_day": 100}, "request_ratio": 0.5},
        {"kind": "industrial", "protocol": "dnp3", "src": "198.18.32.1",
         "dst": "198.19.32.1", "schedule": {**whole, "packets_per_day": 200},
         "request_ratio": 0.7},
        {"kind": "industrial", "protocol": "modbus", "src": "100.67.0.1",
         "dst": "198.19.33.1", "honeypot": "ics",
         "schedule": {**whole, "packets_per_day": 150}},
        {"kind": "industrial", "protocol": "ethernetip", "src": "100.68.0.1",
         "dst": "198.19.34.1", "honeypot": "all",
         "schedule": {**whole, "packets_per_day": 150}},
        {"kind": "industrial", "protocol": "hartip", "src": "100.69.0.1",
         "dst": "198.19.35.1",
         "rdns_name": "scanner{i}.labs.rapid7.com", "rdns_project": "Rapid7",
         "schedule": {**whole, "packets_per_day": 100}},
        {"kind": "scanner_sweep", "protocol": "bacnet", "project": "Kudelski",
         "src": "192.88.99.0/26", "dst": "100.70.0.0/22",
         "schedule": {"start_day": "2018-02-05", "end_day": "2018-02-05",
                      "packets_per_day": 4000}},
        # 3,000 ICMP-quoted probes for the tunnel step.
        {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.0.0/28",
         "dst": "100.72.0.0/28",
         "schedule": {"start_day": "2018-02-03", "end_day": "2018-02-05",
                      "packets_per_day": 500}},
        {"kind": "backscatter", "protocol": "modbus", "src": "100.71.1.0/28",
         "dst": "100.72.1.0/28",
         "schedule": {"start_day": "2018-02-03", "end_day": "2018-02-05",
                      "packets_per_day": 500}},
        # 3,024 DPI decoys (BACnet payloads that fingerprint as DNS).
        {"kind": "dpi_decoy", "protocol": "bacnet", "src": "100.127.0.1",
         "dst": "100.127.0.2", "schedule": {**whole, "packets_per_day": 216}},
    ]
    # 3,024 malformed headers, 432 for each of the seven protocols.
    for index, protocol in enumerate(("modbus", "iec104", "dnp3", "s7comm", "hartip",
                                      "ethernetip", "bacnet")):
        flows.append(
            {"kind": "malformed", "protocol": protocol, "src": f"100.73.{index}.1",
             "dst": f"100.74.{index}.1", "schedule": {**whole, "packets_per_day": 30}}
        )
        flows.append(
            {"kind": "malformed", "protocol": protocol, "src": f"100.73.{index}.2",
             "dst": f"100.74.{index}.2",
             "schedule": {"start_day": "2018-02-08", "end_day": "2018-02-10",
                          "packets_per_day": 4}}
        )
    return {
        "seed": seed,
        "vantage": "ixp1",
        "start_day": "2018-02-01",
        "end_day": "2018-02-14",
        "sample_interval": 16384,
        "snap_len": 128,
        "flows": flows,
    }


SCENARIOS = {
    "longterm_industrial": longterm_industrial,
    "scan_burst": scan_burst,
    "dirty_mix": dirty_mix,
}


def split_pcap_by_day(pcap: Path, out_dir: Path, stem: str) -> list[Path]:
    """Rotate a classic pcap into one file per UTC day, in file order."""
    data = pcap.read_bytes()
    days: dict[int, list[bytes]] = {}
    for record, sec, _, _ in checker.pcap_records(data):
        days.setdefault(sec // 86_400, []).append(record)
    files = []
    for day, records in days.items():
        path = out_dir / f"{stem}-{date.fromordinal(719_163 + day).isoformat()}.pcap"
        path.write_bytes(data[:24] + b"".join(records))
        files.append(path)
    return files


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tls_lookalikes(pcap: Path) -> int:
    """Modbus/TCP packets whose payload starts like a TLS record (16 03 0x).

    A Modbus transaction id of 0x1603 followed by the zero protocol id is
    exactly that prefix, and the program's DPI step drops such a packet as
    TLS although it is well-formed Modbus on port 502: about one Modbus
    packet in 65,536, so a corpus holds one for some seeds only.
    """
    found = 0
    for _, _, _, frame in checker.pcap_records(pcap.read_bytes()):
        ip = frame[14:]
        if ip[9] != 6:
            continue
        tcp = ip[(ip[0] & 0x0F) * 4:]
        if 502 in struct.unpack_from(">HH", tcp):
            payload = tcp[(tcp[12] >> 4) * 4:]
            found += payload[:2] == b"\x16\x03" and len(payload) > 2 and payload[2] < 0x10
    return found


def prepare(workload: str, seed: int, work_dir: Path) -> Path:
    """Generate (or reuse) a workload's corpus; returns its directory.

    A generated corpus holding a TLS look-alike Modbus packet (see
    tls_lookalikes) is generated again from the next derived seed, so that
    no operation fails on some seeds only.
    """
    corpus_dir = work_dir / "corpora" / f"{workload}-s{seed}"
    attempt = 0
    while not (corpus_dir / "corpus.json").exists():
        scenario = SCENARIOS[workload](seed + attempt * 1_000_003)
        build(scenario, corpus_dir, PAD_SIZES[workload], split_by_day=workload == "scan_burst")
        if tls_lookalikes(corpus_dir / "gen" / "corpus.pcap"):
            (corpus_dir / "corpus.json").unlink()
            attempt += 1
    return corpus_dir


def build(scenario: dict, corpus_dir: Path, sizes: padding.PadSizes, split_by_day: bool) -> None:
    """Generate a scenario and lay out what the program analyses.

    ``gen/`` holds the generator's output, ``input/config.json`` is what the
    program analyses. A finished corpus carries ``corpus.json`` with the
    sha256 of the generated capture and ground truth.
    """
    from ics_scope.trafficgen import ScenarioSpec, generate

    if corpus_dir.exists():
        shutil.rmtree(corpus_dir)
    gen_dir = corpus_dir / "gen"
    input_dir = corpus_dir / "input"
    input_dir.mkdir(parents=True)
    corpus = generate(ScenarioSpec.from_dict(scenario), gen_dir)
    (corpus_dir / "scenario.json").write_text(json.dumps(scenario, indent=1) + "\n")

    if split_by_day:
        pcaps = split_pcap_by_day(corpus.pcap, input_dir, "capture")
    else:
        pcaps = [input_dir / "capture.pcap"]
        shutil.copyfile(corpus.pcap, pcaps[0])
    padding.pad_tables(gen_dir, input_dir, scenario, sizes, scenario["seed"])

    config = json.loads(corpus.config.read_text())
    template = config["captures"][0]
    config["captures"] = [{**template, "path": p.name} for p in pcaps]
    (input_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    (corpus_dir / "corpus.json").write_text(json.dumps({
        "seed": scenario["seed"],
        "pcap_sha256": sha256(corpus.pcap),
        "ground_truth_sha256": sha256(corpus.ground_truth),
        "captures": [p.name for p in pcaps],
    }, indent=2, sort_keys=True) + "\n")
