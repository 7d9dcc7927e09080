import faulthandler
import json
import os
import signal
import struct
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import pipeline
from ics_scope.capture import CaptureError, CaptureMeta, read_capture
from ics_scope.cli import main
from ics_scope.pipeline import (
    ChildError,
    ConfigError,
    LoadedInputs,
    PipelineConfig,
    load_inputs,
    run_analyze,
)
from ics_scope.trafficgen import ScenarioSpec, generate

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


def _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, config, captures):
    """Analyze config as if on 1, 2, 3 and 8 CPUs: one bundle, byte for byte,
    with one reader summary per configured capture; no fork on one CPU and
    one forked child per CPU otherwise, none left afterwards."""
    forks, in_parent = [], []
    real_fork, real_state = os.fork, pipeline.capture_state

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
    bundles = {}
    for cpus in (1, 2, 3, 8):
        _cpus(monkeypatch, cpus)
        forks.clear()
        in_parent.clear()
        fds = _open_fds()
        bundles[cpus] = tmp_path / f"cpus{cpus}"
        run_analyze(PipelineConfig.from_json(config), bundles[cpus])
        assert len(forks) == (0 if cpus == 1 else cpus)
        assert in_parent == (list(range(len(captures))) if cpus == 1 else [])
        assert _open_fds() == fds
        _no_child_left()
        summary = json.loads((bundles[cpus] / "run_summary.json").read_text())
        assert [c["path"].rsplit("/", 1)[-1] for c in summary["captures"]] == captures
    assert summary["kept"] > 0
    names = sorted(p.name for p in bundles[1].iterdir())
    for cpus in (2, 3, 8):
        assert sorted(p.name for p in bundles[cpus].iterdir()) == names
        for name in names:
            assert (bundles[1] / name).read_bytes() == (bundles[cpus] / name).read_bytes(), name
    return bundles[1]


def test_pool_and_in_process_runs_write_the_same_bundle(tmp_path, monkeypatch):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "three", _THREE_CAPTURES)
    bundle = _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, config,
                                           [c["path"] for c in _THREE_CAPTURES])
    per_vantage = json.loads((bundle / "sanitize.json").read_text())["per_vantage"]
    assert sorted(per_vantage) == ["isp", "ixp"]


def test_one_capture_cut_into_pieces_writes_the_same_bundle(tmp_path, monkeypatch):
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    _same_bundle_at_any_cpu_count(tmp_path, monkeypatch, corpus.config, ["corpus.pcap"])


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


def test_a_child_killed_by_sigkill_fails_the_run_at_once(tmp_path, monkeypatch, capsys):
    def killed_or_slow(index):
        if index == 2:  # only in the second piece
            os.kill(os.getpid(), signal.SIGKILL)
        if index == 0:  # only in the first piece, which must not be waited for
            time.sleep(60)

    config = _fails_in_a_child(tmp_path, monkeypatch, "killed", killed_or_slow)
    reports = tmp_path / "reports"
    fds = _open_fds()
    faulthandler.dump_traceback_later(60, exit=True, file=sys.__stderr__)
    try:
        started = time.monotonic()
        assert main(["analyze", "--config", str(config), "--out", str(reports)]) == 1
        assert time.monotonic() - started < 30
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert f"killed by signal {signal.SIGKILL.value}" in capsys.readouterr().err
    assert list(reports.iterdir()) == []
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
                {"path": st.sampled_from(["a.pcap", "b.pcap"])},
                optional={
                    "vantage": st.text(max_size=8),
                    "sample_interval": st.integers(min_value=1, max_value=2**20),
                    "snap_len": st.integers(min_value=46, max_value=65535),
                },
            ),
            max_size=3,
        ),
    },
    optional={
        **{key: st.sampled_from(["table.txt", None]) for key in _TABLE_KEYS},
        "filters": st.sampled_from(["scanners", "hp-ics", "hp-all", "all"]),
        "stability_label": st.sampled_from(["industrial", "non_industrial", "all"]),
        "tag_members": st.dictionaries(st.text(max_size=8), st.integers(), max_size=3),
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
    for name in ("a.pcap", "b.pcap", "table.txt"):
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
