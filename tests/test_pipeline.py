import cProfile
import csv
import faulthandler
import gc
import json
import os
import signal
import struct
import sys
import time
import tracemalloc
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import pipeline
from ics_scope.capture import (RECORD, CaptureError, CaptureMeta, int_to_ip, ip_to_int,
                             read_capture)
from ics_scope.classify import FAMILIES, default_scanner_registry
from ics_scope.cli import main
from ics_scope.pipeline import (
    ChildError,
    ConfigError,
    LoadedInputs,
    PipelineConfig,
    load_inputs,
    run_analyze,
)
from ics_scope.ports import PORTS
from ics_scope.sanitize import (DROPPED_KNOWN_PROTOCOL, DROPPED_MALFORMED, DROPPED_TUNNEL, KEPT,
                               DpiSignature, default_catalog)
from ics_scope.trafficgen import ScenarioSpec, generate
from test_cli import SCENARIO as CLI_SCENARIO
from test_line_tables import spy_paths

SCENARIO = {
    "seed": 17,
    "vantage": "vp0",
    "start_day": "2018-03-01",
    "end_day": "2018-03-04",
    "sample_interval": 16384,
    "snap_len": 128,
    "flows": [
        {"kind": "industrial", "protocol": "bacnet", "src": "198.18.0.10",
         "dst": "198.19.0.20",
         "schedule": {"start_day": "2018-03-01", "end_day": "2018-03-04",
                      "packets_per_day": 12},
         "request_ratio": 0.5},
        {"kind": "scanner_sweep", "protocol": "modbus", "project": "Shodan",
         "src": "203.0.113.0/30", "dst": "100.64.0.0/28",
         "schedule": {"start_day": "2018-03-02", "end_day": "2018-03-03",
                      "packets_per_day": 10}},
        {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.0.1",
         "dst": "100.72.0.1",
         "schedule": {"start_day": "2018-03-02", "end_day": "2018-03-02",
                      "packets_per_day": 3}},
        {"kind": "malformed", "protocol": "modbus", "src": "100.73.0.1",
         "dst": "100.74.0.1",
         "schedule": {"start_day": "2018-03-03", "end_day": "2018-03-03",
                      "packets_per_day": 3}},
    ],
}


def _split_corpus(tmp_path, names):
    """Generate the scenario and split its pcap into one file per name, cut
    at every third of its records (mid-day)."""
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    data = corpus.pcap.read_bytes()
    offsets, pos = [], 24
    while pos < len(data):
        offsets.append(pos)
        pos += 16 + struct.unpack_from("<I", data, pos + 8)[0]
    cuts = [24] + [offsets[len(offsets) * i // 3] for i in range(1, len(names))] + [len(data)]
    for name, start, end in zip(names, cuts, cuts[1:]):
        (corpus.out_dir / name).write_bytes(data[:24] + data[start:end])
    return corpus


def _config(corpus, name, captures):
    """The corpus config with one capture per dict, each the corpus's own
    capture entry updated with the dict."""
    raw = json.loads(corpus.config.read_text())
    template = raw["captures"][0]
    raw["captures"] = [{**template, **capture} for capture in captures]
    config = corpus.out_dir / f"{name}.json"
    config.write_text(json.dumps(raw))
    return config


def _analyze(corpus, tmp_path, name, captures):
    """Run the pipeline on the corpus config with its captures replaced by
    (path, sample_interval) pairs."""
    captures = [{"path": path, "sample_interval": interval} for path, interval in captures]
    out = tmp_path / name
    run_analyze(PipelineConfig.from_json(_config(corpus, name, captures)), out)
    return out


def _daily(bundle):
    rows = {}
    for line in (bundle / "daily.tsv").read_text().splitlines()[1:]:
        day, count, extrapolated, label = line.split("\t")
        rows[(day, label)] = (int(count), int(extrapolated))
    return rows


def test_daily_extrapolates_each_capture_by_its_own_interval(tmp_path):
    corpus = _split_corpus(tmp_path, ["first.pcap", "second.pcap"])
    first = _daily(_analyze(corpus, tmp_path, "first", [("first.pcap", 1)]))
    second = _daily(_analyze(corpus, tmp_path, "second", [("second.pcap", 1)]))
    both = _daily(_analyze(corpus, tmp_path, "both",
                           [("first.pcap", 1000), ("second.pcap", 10)]))
    assert any(first.get(key, (0, 0))[0] and second.get(key, (0, 0))[0] for key in both)
    for key, (count, extrapolated) in both.items():
        count_1 = first.get(key, (0, 0))[0]
        count_2 = second.get(key, (0, 0))[0]
        assert count == count_1 + count_2, key
        assert extrapolated == count_1 * 1000 + count_2 * 10, key


def test_split_capture_gives_the_one_capture_bundle(tmp_path):
    corpus = _split_corpus(tmp_path, ["first.pcap", "second.pcap"])
    whole = _analyze(corpus, tmp_path, "whole", [("corpus.pcap", 16384)])
    split = _analyze(corpus, tmp_path, "split", [("first.pcap", 16384), ("second.pcap", 16384)])
    names = sorted(p.name for p in whole.iterdir())
    assert names == sorted(p.name for p in split.iterdir())
    for name in names:
        if name != "run_summary.json":
            assert (whole / name).read_bytes() == (split / name).read_bytes(), name
    whole_summary = json.loads((whole / "run_summary.json").read_text())
    split_summary = json.loads((split / "run_summary.json").read_text())
    assert [c["path"].rsplit("/", 1)[-1] for c in split_summary.pop("captures")] == [
        "first.pcap", "second.pcap"]
    whole_summary.pop("captures")
    assert whole_summary == split_summary
    assert whole_summary["kept"] < whole_summary["candidates"]


def test_without_asn_and_geo_tables_every_kept_packet_is_unresolved(tmp_path):
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    raw = json.loads(corpus.config.read_text())
    del raw["asn_table"], raw["geo"]
    config = corpus.out_dir / "no_asn_geo.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "bundle"
    summary = run_analyze(PipelineConfig.from_json(config), out)

    def rows(name):
        with open(out / name) as fh:
            return list(csv.DictReader(fh))

    transitions, domestic = rows("transitions.csv"), rows("domestic.csv")
    assert transitions and len(transitions) == len(domestic)
    for moved, where in zip(transitions, domestic):
        assert (moved["protocol"], moved["label"]) == (where["protocol"], where["label"])
        assert moved["packets"] == "0"
        assert int(moved["unknown_packets"]) > 0
        assert (where["domestic_count"], where["resolved_count"]) == ("0", "0")
        assert where["indeterminate_count"] == moved["unknown_packets"]
    assert sum(int(row["unknown_packets"]) for row in transitions) == summary["kept"]
    assert (out / "asn_protocols.csv").read_text() == (
        "asn,distinct_protocols,protocols,suspicious\n")


# One industrial modbus flow: 198.18.0.10 in AS 64500 to 198.19.0.20 in AS
# 64501, both members with empty cones in the generated cone table.
_ONE_FLOW = {
    "seed": 5, "vantage": "ixp0", "start_day": "2018-01-01", "end_day": "2018-01-01",
    "flows": [{"kind": "industrial", "protocol": "modbus", "src": "198.18.0.10",
               "dst": "198.19.0.20", "schedule": {"packets_per_day": 3}}],
}


def test_tag_members_resolve_members_with_or_without_a_cone(tmp_path):
    corpus = generate(ScenarioSpec.from_dict(_ONE_FLOW), tmp_path / "corpus")
    raw = json.loads(corpus.config.read_text())
    raw["tag_members"] = {"ixp0:in": 64500, "ixp0:out": 64501}
    rows = {}
    for name, cone in (("with_cone", raw["cone"]), ("without_cone", None)):
        config = corpus.out_dir / f"{name}.json"
        config.write_text(json.dumps({**raw, "cone": cone}))
        run_analyze(PipelineConfig.from_json(config), tmp_path / name)
        rows[name] = (tmp_path / name / "transitions.csv").read_text().splitlines()[1:]
    assert rows["with_cone"] == rows["without_cone"] == [
        "modbus,industrial,100.0,0.0,0.0,0.0,3,0"]


def _calls_per_record(monkeypatch, tmp_path, flows, owner, *names):
    """The calls to the methods owner.name that capture_state makes for each
    record of a corpus of the flows, a Counter by name per record, and the
    capture's state."""
    corpus = generate(ScenarioSpec.from_dict({**SCENARIO, "snap_len": 65535, "flows": flows}),
                      tmp_path)
    config = PipelineConfig.from_json(corpus.config)
    inputs = load_inputs(config)
    calls: Counter[str] = Counter()

    def counter(name):
        wrapped = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return wrapped(*args)
        return counted

    per_record = []
    read = pipeline.read_capture

    def reading(*args):
        # The stream is done with a record when it asks for the next one.
        for outcome in read(*args):
            before = calls.copy()
            yield outcome
            per_record.append(calls - before)

    for name in names:
        monkeypatch.setattr(owner, name, counter(name))
    monkeypatch.setattr(pipeline, "read_capture", reading)
    state = pipeline.capture_state(config, inputs, 0)
    assert len(per_record) == state.frames[(0, RECORD)]
    return per_record, state


class _PortTable(Mapping):
    """A stand-in for one per-transport dict of PORTS.by_transport whose
    reads a test can count."""

    def __init__(self, ports):
        self._ports = ports

    def __getitem__(self, port):
        return self._ports[port]

    def __iter__(self):
        return iter(self._ports)

    def __len__(self):
        return len(self._ports)

    def __contains__(self, port):
        return port in self._ports

    def get(self, port, default=None):
        return self._ports.get(port, default)


_SCHEDULE = {"start_day": "2018-03-01", "end_day": "2018-03-02", "packets_per_day": 6}


def test_each_record_looks_up_its_ports_at_most_twice(tmp_path, monkeypatch):
    flows = [
        {"kind": "industrial", "protocol": "modbus", "src": "198.18.0.10",
         "dst": "198.19.0.20", "schedule": _SCHEDULE, "request_ratio": 0.5},
        {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.0.1",
         "dst": "100.72.0.1", "schedule": _SCHEDULE},
        {"kind": "industrial", "protocol": "s7comm", "src": "198.18.1.10",
         "dst": "198.19.1.20", "schedule": _SCHEDULE, "request_ratio": 0.5, "heuristic": True},
    ]
    for ip_proto, ports in PORTS.by_transport.items():
        monkeypatch.setitem(PORTS.by_transport, ip_proto, _PortTable(ports))
    per_record, state = _calls_per_record(monkeypatch, tmp_path, flows, _PortTable,
                                          "get", "__getitem__", "__contains__")
    assert len(per_record) == 36
    industrial = (False,) * len(FAMILIES)
    assert state.filter_counts.keys() >= {("modbus", "request", industrial),
                                          ("modbus", "reply", industrial),
                                          ("s7comm", "unrelated", industrial)}
    # A port's protocol is looked up once per port (the dissector dispatch)
    # and its membership tested at most once per port (the port-only test).
    assert max(c["get"] + c["__getitem__"] for c in per_record) <= 2, per_record
    assert max(c["__contains__"] for c in per_record) <= 2, per_record
    # Every record reached the table: the count above is not vacuous.
    assert all(c["get"] for c in per_record), per_record


def test_each_candidate_tests_at_most_three_dpi_signatures(tmp_path, monkeypatch):
    flows = [
        {"kind": "industrial", "protocol": "modbus", "src": "198.18.0.10",
         "dst": "198.19.0.20", "schedule": _SCHEDULE, "request_ratio": 0.5},
        {"kind": "industrial", "protocol": "bacnet", "src": "198.18.1.10",
         "dst": "198.19.1.20", "schedule": _SCHEDULE, "request_ratio": 0.5},
        {"kind": "dpi_decoy", "protocol": "bacnet", "src": "100.127.9.1",
         "dst": "100.127.9.2", "schedule": _SCHEDULE},
    ]
    per_record, state = _calls_per_record(monkeypatch, tmp_path, flows, DpiSignature, "matches")
    assert len(per_record) == 36
    assert state.events[("vp0", KEPT)] == 24
    assert state.events[("vp0", DROPPED_KNOWN_PROTOCOL)] == 12
    # The largest bucket of the packaged catalog: UDP payloads that start
    # with "S" may be ssh, dns or ntp. A linear walk tests all 12.
    assert max(c["matches"] for c in per_record) <= 3, per_record


_MIX_SCHEDULE = {"start_day": "2018-03-01", "end_day": "2018-03-04", "packets_per_day": 40}
# Every stage of the stream and every sanitize verdict, over a few hosts.
_MIX_FLOWS = [
    {"kind": "industrial", "protocol": "modbus", "src": "198.18.0.10",
     "dst": "198.19.0.20", "schedule": _MIX_SCHEDULE, "request_ratio": 0.5},
    {"kind": "industrial", "protocol": "bacnet", "src": "198.18.1.10",
     "dst": "198.19.1.20", "schedule": _MIX_SCHEDULE, "request_ratio": 0.5},
    {"kind": "industrial", "protocol": "s7comm", "src": "198.18.2.10",
     "dst": "198.19.2.20", "schedule": _MIX_SCHEDULE, "request_ratio": 0.5, "heuristic": True},
    {"kind": "scanner_sweep", "protocol": "modbus", "project": "Shodan",
     "src": "203.0.113.0/30", "dst": "100.64.0.0/25", "schedule": _MIX_SCHEDULE},
    {"kind": "backscatter", "protocol": "bacnet", "src": "100.71.0.1",
     "dst": "100.72.0.1", "schedule": _MIX_SCHEDULE},
    {"kind": "malformed", "protocol": "dnp3", "src": "100.73.0.1",
     "dst": "100.74.0.1", "schedule": _MIX_SCHEDULE},
    {"kind": "dpi_decoy", "protocol": "bacnet", "src": "100.127.9.1",
     "dst": "100.127.9.2", "schedule": _MIX_SCHEDULE},
]
# Function calls per record of capture_state on the corpus of _MIX_FLOWS,
# counted under cProfile (32.61 when pinned). The count is a property of the
# code, not of the host: a change that adds a call per record fails here.
_CALLS_PER_RECORD = 32.7


def test_the_stream_makes_at_most_its_pinned_calls_per_record(tmp_path):
    corpus = generate(ScenarioSpec.from_dict({**SCENARIO, "flows": _MIX_FLOWS}), tmp_path)
    config = PipelineConfig.from_json(corpus.config)
    inputs = load_inputs(config)
    pipeline.capture_state(config, inputs, 0)  # first-use caches filled outside the count
    profile = cProfile.Profile()
    state = profile.runcall(pipeline.capture_state, config, inputs, 0)
    records = state.frames[(0, RECORD)]
    assert records == 1120
    assert {verdict for _, verdict in state.events} >= {KEPT, DROPPED_KNOWN_PROTOCOL,
                                                        DROPPED_MALFORMED, DROPPED_TUNNEL}
    # One entry per code object or builtin. The stream builds each record and
    # dissection with the builtin tuple.__new__, one call; a NamedTuple's
    # generated constructor would add a Python-level call per tuple.
    calls = sum(entry.callcount for entry in profile.getstats())
    assert calls / records <= _CALLS_PER_RECORD, calls / records


# Three captures at two vantage points, the third with its own interval.
_THREE_CAPTURES = [
    {"path": "first.pcap", "vantage": "ixp"},
    {"path": "second.pcap", "vantage": "isp"},
    {"path": "third.pcap", "vantage": "ixp", "sample_interval": 10},
]


def _cpus(monkeypatch, count):
    """Make the CPUs this process may use look like count CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The line tables of a generated corpus (hp_all with hp_ics, rdns, asn_table,
# geo): with more than one CPU each loads in a forked child of its own.
_LINE_TABLES = 4


def _pad_tables(corpus, rows=3000):
    """Append rows rows to each line table of the corpus, in address space its
    traffic never uses; every hundredth prefix repeats the one fifty rows up
    with another value, which must win, and every other rDNS name is a
    Shodan one."""
    raw = json.loads(corpus.config.read_text())
    base = ip_to_int("172.16.0.0")
    hosts = [int_to_ip(base + 256 * n + 1) for n in range(rows)]
    prefixes = [f"{int_to_ip(base + 256 * (n - 50 if n % 100 == 99 else n))}/24"
                for n in range(rows)]
    appended = {
        "hp_all": [f"{ip}\n" for ip in hosts],
        "hp_ics": [f"{ip}\n" for ip in hosts[::5]],
        "rdns": [f"{ip},host{n}.{('example.net', 'shodan.io')[n % 2]}\n"
                 for n, ip in enumerate(hosts)],
        "asn_table": [f"{prefix} {65000 + n % 700}\n" for n, prefix in enumerate(prefixes)],
        "geo": [f"{prefix},{('FR', 'JP', 'BR')[n % 3]}\n" for n, prefix in enumerate(prefixes)],
    }
    for key, lines in appended.items():
        with open(corpus.out_dir / raw[key], "a") as fh:
            fh.writelines(lines)


def _tables(inputs):
    """Every loaded table, field by field."""
    return {
        "registry": (inputs.scanner_registry.projects, inputs.scanner_registry.prefixes._by_len,
                     inputs.scanner_registry.prefixes._probes),
        "hp_all": inputs.honeypots.hp_all,
        "hp_ics": inputs.honeypots.hp_ics,
        "rdns": inputs.rdns,
        **{name: (table._by_len, table._probes)
           for name, table in (("asn_table", inputs.asn_table), ("geo", inputs.geo))},
        "cone": inputs.topology.cone,
        "scan_snapshot": inputs.scan_snapshot,
        "dpi_catalog": inputs.dpi_catalog.signatures,
    }


def _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, config, captures):
    """Analyze config as if on 1, 2, 3 and 8 CPUs: one bundle, byte for byte,
    with one reader summary per configured capture, from tables equal field
    by field; no fork on one CPU and otherwise one forked child per line
    table and one per CPU, none left afterwards."""
    forks, in_parent, loads = [], [], []
    real_fork, real_state, real_load = os.fork, pipeline.capture_state, pipeline.load_inputs

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    # A child's appends land in its own copy of the list, so only this
    # process's calls are counted.
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(pipeline, "capture_state",
                        lambda *args: in_parent.append(args[2]) or real_state(*args))
    monkeypatch.setattr(pipeline, "load_inputs",
                        lambda config: loads.append(real_load(config)) or loads[-1])
    bundles, tables = {}, {}
    for cpus in (1, 2, 3, 8):
        _cpus(monkeypatch, cpus)
        forks.clear()
        in_parent.clear()
        fds = _open_fds()
        bundles[cpus] = tmp_path / f"cpus{cpus}"
        run_analyze(PipelineConfig.from_json(config), bundles[cpus])
        assert len(forks) == (0 if cpus == 1 else _LINE_TABLES + cpus)
        assert in_parent == (list(range(len(captures))) if cpus == 1 else [])
        assert _open_fds() == fds
        _no_child_left()
        tables[cpus] = _tables(loads.pop())
        summary = json.loads((bundles[cpus] / "run_summary.json").read_text())
        assert [c["path"].rsplit("/", 1)[-1] for c in summary["captures"]] == captures
    assert summary["kept"] > 0
    names = sorted(p.name for p in bundles[1].iterdir())
    for cpus in (2, 3, 8):
        assert tables[cpus] == tables[1]
        assert sorted(p.name for p in bundles[cpus].iterdir()) == names
        for name in names:
            assert (bundles[1] / name).read_bytes() == (bundles[cpus] / name).read_bytes(), name
    return bundles[1], tables[1]


def test_pool_and_in_process_runs_write_the_same_bundle(tmp_path, monkeypatch):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "three", _THREE_CAPTURES)
    bundle, _ = _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, config,
                                              [c["path"] for c in _THREE_CAPTURES])
    per_vantage = json.loads((bundle / "sanitize.json").read_text())["per_vantage"]
    assert sorted(per_vantage) == ["isp", "ixp"]


def test_one_capture_cut_into_pieces_writes_the_same_bundle(tmp_path, monkeypatch):
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    _pad_tables(corpus)
    _, tables = _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, corpus.config,
                                              ["corpus.pcap"])
    # The rDNS table keeps the addresses whose name names a scanner project.
    assert len(tables["rdns"]) >= 1500 and len(tables["hp_ics"]) >= 600
    for name in ("asn_table", "geo"):
        assert sum(len(bucket) for bucket in tables[name][0].values()) > 2900
    # The last of two rows for one prefix wins.
    assert tables["asn_table"][0][24][ip_to_int("172.16.49.0") >> 8] == 65099
    assert tables["geo"][0][24][ip_to_int("172.16.49.0") >> 8] == "FR"


# tracemalloc's size of the tables load_inputs loads at one CPU from the
# padded corpus of the test above: 988,708 bytes, plus 5 %. Each line table
# loads a column at a time, its repeated prefixes too (1,133,659 bytes when
# they sent the prefix tables a line at a time).
_INPUTS_BYTES = 1_038_000


def test_the_loaded_tables_take_at_most_their_pinned_memory(tmp_path, monkeypatch):
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    _pad_tables(corpus)
    config = PipelineConfig.from_json(corpus.config)
    _cpus(monkeypatch, 1)
    ran = spy_paths(monkeypatch)
    default_scanner_registry(), default_catalog()  # packaged tables, cached outside the count
    gc.collect()
    tracemalloc.start()
    try:
        inputs = load_inputs(config)
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(inputs.rdns) >= 1500
    assert ran == ["column"] * (_LINE_TABLES + 1)  # the honeypot pair is two lists
    assert size <= _INPUTS_BYTES, size


@pytest.mark.parametrize("batch", [1, 2, 7])
def test_keys_counted_in_small_batches_write_the_same_bundle(tmp_path, monkeypatch, batch):
    names = [c["path"] for c in _THREE_CAPTURES]
    corpus = _split_corpus(tmp_path, names)
    config = _config(corpus, "three", _THREE_CAPTURES)
    _cpus(monkeypatch, 1)
    run_analyze(PipelineConfig.from_json(config), tmp_path / "whole")
    counted = []
    real_count = pipeline.count_keys
    monkeypatch.setattr(pipeline, "count_keys",
                        lambda state, keys, *args: counted.append(len(keys))
                        or real_count(state, keys, *args))
    monkeypatch.setattr(pipeline, "KEY_BATCH", batch)
    bundle, _ = _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, config, names)
    # At one CPU every full batch is counted on its own; the forked runs count
    # in their children, out of this list's sight.
    assert max(counted) == batch and len(counted) > len(names)
    for path in sorted((tmp_path / "whole").iterdir()):
        assert (bundle / path.name).read_bytes() == path.read_bytes(), path.name


def test_pieces_cover_the_record_bytes_once(tmp_path):
    sizes = [0, 100, 0, 7, 50, 0]  # record bytes per capture
    captures = []
    for index, size in enumerate(sizes):
        path = tmp_path / f"{index}.pcap"
        path.write_bytes(bytes(24 + size))
        captures.append(pipeline.CaptureSource(path, None))
    for count in (1, 2, 3, 8, 200):
        pieces = pipeline._pieces(captures, count)
        assert 1 <= len(pieces) <= count
        parts = [part for piece in pieces for part in piece]
        assert [index for index, _, _ in parts] == sorted(index for index, _, _ in parts)
        for index, size in enumerate(sizes):
            ranges = [(start, stop) for i, start, stop in parts if i == index]
            assert ranges  # every capture is read, if only its header
            assert ranges[0][0] == 24 and ranges[-1][1] == 24 + size
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            assert all(start < stop for start, stop in ranges) or ranges == [(24, 24)]
        lengths = [sum(stop - start for _, start, stop in piece) for piece in pieces]
        assert sum(lengths) == sum(sizes)
        if count <= sum(sizes):  # equal pieces, to the byte
            assert len(pieces) == count and max(lengths) - min(lengths) <= 1
    assert pipeline._pieces([], 4) == []


def test_truncated_later_capture_fails_the_pool_run(tmp_path, monkeypatch, capsys):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    third = corpus.out_dir / "third.pcap"
    third.write_bytes(third.read_bytes()[:-5])  # the last record runs past the end
    with pytest.raises(CaptureError) as whole_read:
        list(read_capture(third, CaptureMeta("ixp")))
    config = _config(corpus, "cut", _THREE_CAPTURES)
    for cpus in (1, 2, 8):
        _cpus(monkeypatch, cpus)
        fds = _open_fds()
        # The file-absolute record index, as a whole read of the capture names it.
        with pytest.raises(CaptureError, match="third.pcap: record .* runs past the end") as run:
            run_analyze(PipelineConfig.from_json(config), tmp_path / f"direct{cpus}")
        assert str(run.value) == str(whole_read.value)
        assert _open_fds() == fds
        _no_child_left()
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(config), "--out", str(reports)]) == 2
    assert "runs past the end of the file" in capsys.readouterr().err
    assert list(reports.iterdir()) == []
    _no_child_left()


def test_the_first_bad_capture_names_the_error_at_any_cpu_count(tmp_path, monkeypatch):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    for name in ("first.pcap", "third.pcap"):  # cut in the first and in the last piece
        path = corpus.out_dir / name
        path.write_bytes(path.read_bytes()[:-5])
    config = _config(corpus, "two_cut", _THREE_CAPTURES)
    test_pid, real_state = os.getpid(), pipeline.capture_state

    def first_piece_is_slow(config, inputs, index, *args):
        if os.getpid() != test_pid and index == 0:
            time.sleep(0.5)  # the later piece meets its error first
        return real_state(config, inputs, index, *args)

    monkeypatch.setattr(pipeline, "capture_state", first_piece_is_slow)
    messages = set()
    for cpus in (1, 2, 8):
        _cpus(monkeypatch, cpus)
        with pytest.raises(CaptureError, match="first.pcap: record .* runs past the end") as run:
            run_analyze(PipelineConfig.from_json(config), tmp_path / f"out{cpus}")
        messages.add(str(run.value))
        _no_child_left()
    assert len(messages) == 1


def _fails_in_a_child(tmp_path, monkeypatch, name, behaviour):
    """The three-capture config on 2 CPUs, with capture_state running
    behaviour(index) first whenever it runs in a forked child."""
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, name, _THREE_CAPTURES)
    test_pid, real_state = os.getpid(), pipeline.capture_state

    def state(config, inputs, index, *args):
        if os.getpid() != test_pid:  # never end the test process itself
            behaviour(index)
        return real_state(config, inputs, index, *args)

    monkeypatch.setattr(pipeline, "capture_state", state)
    _cpus(monkeypatch, 2)
    return config


def test_a_worker_that_dies_fails_the_run(tmp_path, monkeypatch):
    def dies_on_the_third(index):
        if index == 2:
            os._exit(1)  # as a child the kernel kills for memory would

    config = _fails_in_a_child(tmp_path, monkeypatch, "dies", dies_on_the_third)
    fds = _open_fds()
    # Should the run wait forever, end the test session after 60 s instead.
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(ChildError, match="exit status 1"):
            run_analyze(PipelineConfig.from_json(config), tmp_path / "reports")
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert not (tmp_path / "reports" / "run_summary.json").exists()
    assert _open_fds() == fds
    _no_child_left()


def test_a_child_result_that_cannot_be_pickled_fails_with_its_reason(tmp_path, monkeypatch):
    test_pid, real_state = os.getpid(), pipeline.capture_state

    def unpicklable(config, inputs, index, *args):
        state = real_state(config, inputs, index, *args)
        if os.getpid() != test_pid:
            state.notes[lambda: None] = 1  # pickle cannot store a lambda
        return state

    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "unpicklable", _THREE_CAPTURES)
    monkeypatch.setattr(pipeline, "capture_state", unpicklable)
    _cpus(monkeypatch, 2)
    fds = _open_fds()
    with pytest.raises(ChildError, match=r"forked child \d+ failed: \w+: Can't pickle"):
        run_analyze(PipelineConfig.from_json(config), tmp_path / "reports")
    assert list((tmp_path / "reports").iterdir()) == []
    assert _open_fds() == fds
    _no_child_left()


def _killed_in_the_stream(tmp_path, monkeypatch):
    def killed_or_slow(index):
        if index == 2:  # only in the second piece
            os.kill(os.getpid(), signal.SIGKILL)
        if index == 0:  # only in the first piece, which must not be waited for
            time.sleep(60)

    return _fails_in_a_child(tmp_path, monkeypatch, "killed", killed_or_slow)


def _killed_loading_a_table(tmp_path, monkeypatch):
    """The three-capture config on 2 CPUs, whose prefix-to-AS table's load
    child is killed while the geo table's load child sleeps."""
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "killed", _THREE_CAPTURES)
    test_pid, real_asn, real_geo = os.getpid(), pipeline.load_asn_table, pipeline.load_geo_table

    def killed(path):
        if os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_asn(path)

    def slow(path):
        if os.getpid() != test_pid:
            time.sleep(60)  # must not be waited for
        return real_geo(path)

    monkeypatch.setattr(pipeline, "load_asn_table", killed)
    monkeypatch.setattr(pipeline, "load_geo_table", slow)
    _cpus(monkeypatch, 2)
    return config


def test_a_child_killed_by_sigkill_fails_the_run_at_once(tmp_path, monkeypatch, capsys):
    for case in (_killed_in_the_stream, _killed_loading_a_table):
        with monkeypatch.context() as patch:
            config = case(tmp_path / case.__name__, patch)
            reports = tmp_path / case.__name__ / "reports"
            fds = _open_fds()
            faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
            try:
                started = time.monotonic()
                assert main(["analyze", "--config", str(config), "--out", str(reports)]) == 1
                assert time.monotonic() - started < 30
            finally:
                faulthandler.cancel_dump_traceback_later()
        assert f"killed by signal {signal.SIGKILL.value}" in capsys.readouterr().err
        assert list(reports.glob("*")) == []
        assert _open_fds() == fds
        _no_child_left()


_TABLE_KEYS = ("scanner_registry", "hp_all", "hp_ics", "rdns", "asn_table", "cone", "geo",
               "scan_snapshot", "dpi_catalog")

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)

_VALID_CONFIG = st.fixed_dictionaries(
    {
        "captures": st.lists(
            st.fixed_dictionaries(
                {"path": st.sampled_from(["a.pcap", "b.pcap", "c.pcap"])},
                optional={
                    "vantage": st.text(max_size=8),
                    "sample_interval": st.integers(min_value=1, max_value=2**20),
                    "snap_len": st.integers(min_value=46, max_value=65535),
                },
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda capture: capture["path"],  # a file listed twice is refused
        ),
    },
    optional={
        **{key: st.sampled_from(["table.txt", None]) for key in _TABLE_KEYS},
        "filters": st.sampled_from(["scanners", "hp-ics", "hp-all", "all"]),
        "stability_label": st.sampled_from(["industrial", "non_industrial", "all"]),
        "tag_members": st.dictionaries(st.text(max_size=8), st.integers(0, 2**32 - 1),
                                       max_size=3),
    },
)


def _nodes(value, path=()):
    """Every position in a JSON tree, as the key/index path leading to it."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from _nodes(child, path + (index,))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("config")
    for name in ("a.pcap", "b.pcap", "c.pcap", "table.txt"):
        (directory / name).write_text("")
    return directory


@settings(max_examples=300, deadline=None)
@given(config=_VALID_CONFIG, data=st.data())
def test_config_loader_on_mutated_json_raises_only_config_error(config_dir, config, data):
    path = config_dir / "config.json"
    path.write_text(json.dumps(config))
    assert isinstance(PipelineConfig.from_json(path), PipelineConfig)

    node = data.draw(st.sampled_from(list(_nodes(config))))
    drop = bool(node) and data.draw(st.booleans())
    replacement = None if drop else data.draw(_JSON)
    if not node:
        config = replacement
    else:
        parent = config
        for step in node[:-1]:
            parent = parent[step]
        if drop:
            del parent[node[-1]]
        else:
            parent[node[-1]] = replacement
    path.write_text(json.dumps(config))
    try:
        PipelineConfig.from_json(path)
    except ConfigError:
        pass  # any other exception fails the property


# One valid JSON sidecar of each kind load_inputs reads, by config key.
_SIDECARS = {
    "scanner_registry": [
        {"project": "Shodan", "prefixes": ["203.0.113.0/30"], "rdns_patterns": ["shodan"]},
        {"project": "Censys", "prefixes": ["192.0.2.0/28", "198.51.100.7"]},
    ],
    "cone": {"64500": [64501, 64502], "64510": [64511]},
    "scan_snapshot": {
        "modbus": {"transport": ["10.0.0.1", "10.0.0.2"], "application": ["10.0.0.1"]},
        "bacnet": {"transport": ["10.0.1.1"]},
    },
    "dpi_catalog": [
        {"name": "http", "transport": "tcp", "prefix_bytes": "47455420", "mask": "ffffffff"},
        {"name": "tls", "transport": "tcp", "prefix_bytes": "160300", "mask": "fffff0",
         "check": "tls_record"},
        {"name": "ssh", "prefix_bytes": "5353482d"},
        {"name": "dns", "transport": "udp", "port_hint": 53, "check": "dns_header"},
    ],
}


def _mutated(data, value):
    """value with one node dropped or replaced by any JSON value."""
    node = data.draw(st.sampled_from(list(_nodes(value))))
    if not node:
        return data.draw(_JSON)
    parent = value
    for step in node[:-1]:
        parent = parent[step]
    if data.draw(st.booleans()):
        del parent[node[-1]]
    else:
        parent[node[-1]] = data.draw(_JSON)
    return value


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from(sorted(_SIDECARS)), data=st.data())
def test_sidecar_loaders_on_mutated_json_raise_only_config_error(tmp_path_factory, key, data):
    directory = tmp_path_factory.mktemp("sidecars")
    (directory / "a.pcap").write_text("")
    config = {"captures": [{"path": "a.pcap"}]}
    for name, content in _SIDECARS.items():
        (directory / f"{name}.json").write_text(json.dumps(content))
        config[name] = f"{name}.json"
    (directory / "config.json").write_text(json.dumps(config))
    assert isinstance(load_inputs(PipelineConfig.from_json(directory / "config.json")),
                      LoadedInputs)

    mutated = _mutated(data, json.loads(json.dumps(_SIDECARS[key])))
    (directory / f"{key}.json").write_text(json.dumps(mutated))
    try:
        load_inputs(PipelineConfig.from_json(directory / "config.json"))
    except ConfigError:
        pass  # any other exception fails the property


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scenario_reader_on_mutated_json_raises_only_config_error(data):
    assert isinstance(ScenarioSpec.from_dict(json.loads(json.dumps(CLI_SCENARIO))), ScenarioSpec)
    try:
        ScenarioSpec.from_dict(_mutated(data, json.loads(json.dumps(CLI_SCENARIO))))
    except ConfigError:
        pass  # any other exception fails the property


# One valid line table of each kind load_inputs reads, by config key.
_LINE_TABLE_TEXTS = {
    "hp_all": "10.0.0.1\n# a comment\n10.0.0.2\n",
    "hp_ics": "10.0.0.2\n",
    "rdns": "10.0.0.1,scanner.example.net\n",
    "asn_table": "10.0.0.0/8 64500\n10.1.0.0 16 64501\n",
    "geo": "10.0.0.0/8,DE\n",
}


def _line_tables(directory):
    """The config of directory, written with the valid line tables it names."""
    (directory / "a.pcap").write_text("")
    config = {"captures": [{"path": "a.pcap"}]}
    for name, content in _LINE_TABLE_TEXTS.items():
        (directory / name).write_text(content)
        config[name] = name
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json"


def test_the_valid_line_tables_load(tmp_path):
    assert isinstance(load_inputs(PipelineConfig.from_json(_line_tables(tmp_path))),
                      LoadedInputs)


def test_an_unpaired_honeypot_list_forks_nothing(tmp_path, monkeypatch):
    # hp_all without hp_ics, and an asn_table with a bad line: the unpaired
    # list is refused, as a one-CPU load meets it first, before any line
    # table's child forks.
    path = _line_tables(tmp_path)
    config = json.loads(path.read_text())
    del config["hp_ics"]
    path.write_text(json.dumps(config))
    with open(tmp_path / "asn_table", "a") as fh:
        fh.write("10.2.0.0/16 not-an-asn\n")
    forks, real_fork = [], os.fork

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    for cpus in (1, 2, 8):
        _cpus(monkeypatch, cpus)
        with pytest.raises(ConfigError, match="^hp_all and hp_ics must be configured together$"):
            load_inputs(PipelineConfig.from_json(path))
        assert forks == []
        _no_child_left()


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(_LINE_TABLE_TEXTS)), tail=st.binary(max_size=40))
def test_line_tables_with_any_bytes_appended_raise_only_config_error(tmp_path_factory, key,
                                                                      tail):
    config = _line_tables(tmp_path_factory.mktemp("tables"))
    with open(config.parent / key, "ab") as fh:
        fh.write(tail)
    try:
        load_inputs(PipelineConfig.from_json(config))
    except ConfigError:
        pass  # any other exception fails the property
