import concurrent.futures
import faulthandler
import json
import multiprocessing
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope import pipeline
from ics_scope.capture import CaptureError
from ics_scope.cli import main
from ics_scope.pipeline import ConfigError, LoadedInputs, PipelineConfig, load_inputs, run_analyze
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


def test_pool_and_in_process_runs_write_the_same_bundle(tmp_path, monkeypatch):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "three", _THREE_CAPTURES)
    in_parent, pools = [], []
    real_state = pipeline.capture_state
    monkeypatch.setattr(pipeline, "capture_state",
                        lambda *args: in_parent.append(args[0]) or real_state(*args))

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers, *args):
            pools.append(max_workers)
            super().__init__(max_workers, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    bundles = {}
    for cpus, workers, states_in_parent in ((1, [], 3), (2, [2], 0), (8, [3], 0)):
        _cpus(monkeypatch, cpus)
        in_parent.clear()
        pools.clear()
        bundles[cpus] = tmp_path / f"cpus{cpus}"
        run_analyze(PipelineConfig.from_json(config), bundles[cpus])
        assert pools == workers  # min(captures, CPUs) workers, and no pool for one
        assert len(in_parent) == states_in_parent
        assert multiprocessing.active_children() == []
    per_vantage = json.loads((bundles[1] / "sanitize.json").read_text())["per_vantage"]
    assert sorted(per_vantage) == ["isp", "ixp"]
    names = sorted(p.name for p in bundles[1].iterdir())
    for cpus in (2, 8):
        assert sorted(p.name for p in bundles[cpus].iterdir()) == names
        for name in names:
            assert (bundles[1] / name).read_bytes() == (bundles[cpus] / name).read_bytes(), name


def test_truncated_later_capture_fails_the_pool_run(tmp_path, monkeypatch, capsys):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    third = corpus.out_dir / "third.pcap"
    third.write_bytes(third.read_bytes()[:-5])  # the last record runs past the end
    config = _config(corpus, "cut", _THREE_CAPTURES)
    _cpus(monkeypatch, 2)
    with pytest.raises(CaptureError, match="third.pcap: record .* runs past the end"):
        run_analyze(PipelineConfig.from_json(config), tmp_path / "direct")
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(config), "--out", str(reports)]) == 2
    assert "runs past the end of the file" in capsys.readouterr().err
    assert list(reports.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_fails_the_run(tmp_path, monkeypatch):
    corpus = _split_corpus(tmp_path, [c["path"] for c in _THREE_CAPTURES])
    config = _config(corpus, "dies", _THREE_CAPTURES)
    real_state = pipeline.capture_state

    def dies_on_the_third(source, *args):
        if source.path.name == "third.pcap":
            os._exit(1)  # as a worker the kernel kills for memory would
        return real_state(source, *args)

    monkeypatch.setattr(pipeline, "capture_state", dies_on_the_third)
    _cpus(monkeypatch, 2)
    # Should the run wait forever, end the test session after 60 s instead.
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        with pytest.raises(BrokenProcessPool):
            run_analyze(PipelineConfig.from_json(config), tmp_path / "reports")
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert not (tmp_path / "reports" / "run_summary.json").exists()
    assert multiprocessing.active_children() == []


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
