import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.pipeline import ConfigError, PipelineConfig, run_analyze
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


def _corpus_in_halves(tmp_path):
    """Generate the scenario and split its pcap a third of the way in, mid-day."""
    corpus = generate(ScenarioSpec.from_dict(SCENARIO), tmp_path / "corpus")
    data = corpus.pcap.read_bytes()
    offsets, pos = [], 24
    while pos < len(data):
        offsets.append(pos)
        pos += 16 + struct.unpack_from("<I", data, pos + 8)[0]
    cut = offsets[len(offsets) // 3]
    (corpus.out_dir / "first.pcap").write_bytes(data[:cut])
    (corpus.out_dir / "second.pcap").write_bytes(data[:24] + data[cut:])
    return corpus


def _analyze(corpus, tmp_path, name, captures):
    """Run the pipeline on the corpus config with its captures replaced."""
    raw = json.loads(corpus.config.read_text())
    template = raw["captures"][0]
    raw["captures"] = [{**template, "path": path, "sample_interval": interval}
                       for path, interval in captures]
    config = corpus.out_dir / f"{name}.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / name
    run_analyze(PipelineConfig.from_json(config), out)
    return out


def _daily(bundle):
    rows = {}
    for line in (bundle / "daily.tsv").read_text().splitlines()[1:]:
        day, count, extrapolated, label = line.split("\t")
        rows[(day, label)] = (int(count), int(extrapolated))
    return rows


def test_daily_extrapolates_each_capture_by_its_own_interval(tmp_path):
    corpus = _corpus_in_halves(tmp_path)
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
    corpus = _corpus_in_halves(tmp_path)
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
