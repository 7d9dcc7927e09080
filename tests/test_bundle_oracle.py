"""Every bundle run_analyze writes matches the benchmark's independent checker.

perfbench/checker.py recomputes the whole expected bundle from the capture
files, the generator's ground truth and its unpadded tables, without
importing ics_scope. Here it checks the acceptance ``mixed`` scenario under
every filter family and stability label, the same corpus split into two
captures, a corpus whose addresses sort differently as integers and as
strings, and small random scenarios.
"""

import json
import sys
import tempfile
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ics_scope.classify import FILTER_FAMILIES, default_scanner_registry
from ics_scope.pipeline import STABILITY_LABELS, PipelineConfig, run_analyze
from ics_scope.trafficgen import FLOW_KINDS, INDUSTRIAL, SCANNER_SWEEP, ScenarioSpec, generate

from golden import PROTOCOLS
from test_acceptance import _scenario_mixed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checker  # noqa: E402


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    return generate(ScenarioSpec.from_dict(_scenario_mixed()),
                    tmp_path_factory.mktemp("oracle") / "mixed")


def _check(config_path: Path, corpus, out: Path) -> list[str]:
    run_analyze(PipelineConfig.from_json(config_path), out)
    expected = checker.expected_bundle(config_path, corpus.ground_truth, corpus.out_dir)
    return checker.check_bundle(out, expected)


def _variant(corpus, name: str, **changes) -> Path:
    config = json.loads(corpus.config.read_text())
    path = corpus.out_dir / f"{name}.json"
    path.write_text(json.dumps({**config, **changes}))
    return path


@pytest.mark.parametrize("label", STABILITY_LABELS)
@pytest.mark.parametrize("family", sorted(FILTER_FAMILIES))
def test_bundle_matches_checker(mixed, tmp_path, family, label):
    config = _variant(mixed, f"config-{family}-{label}", filters=family, stability_label=label)
    assert _check(config, mixed, tmp_path / "bundle") == []


def _split_captures(corpus) -> list[dict]:
    """Config entries for the first half of the records at the corpus's own
    vantage and the rest at vantage ixp2 with another sample interval."""
    data = corpus.pcap.read_bytes()
    records = [record for record, _, _, _ in checker.pcap_records(data)]
    half = len(records) // 2
    for name, part in (("first.pcap", records[:half]), ("second.pcap", records[half:])):
        (corpus.out_dir / name).write_bytes(data[:24] + b"".join(part))
    template = json.loads(corpus.config.read_text())["captures"][0]
    return [
        {**template, "path": "first.pcap"},
        {**template, "path": "second.pcap", "vantage": "ixp2", "sample_interval": 4096},
    ]


def test_two_capture_split_matches_checker(mixed, tmp_path):
    """The first half of the records at one vantage, the rest at another."""
    config = _variant(mixed, "config-split", captures=_split_captures(mixed))
    assert _check(config, mixed, tmp_path / "bundle") == []


def test_report_orders_addresses_as_strings(tmp_path):
    """9.0.0.1 sorts before 10.0.0.1 as a number and after it as a string."""
    scenario = {
        "seed": 17, "vantage": "ixp0", "start_day": "2018-03-01", "end_day": "2018-03-04",
        "sample_interval": 1, "snap_len": 128,
        "flows": [{"kind": "industrial", "protocol": "bacnet", "src": "9.0.0.1",
                   "dst": "10.0.0.1", "request_ratio": 0.5,
                   "schedule": {"start_day": "2018-03-01", "end_day": "2018-03-04",
                                "packets_per_day": 20}}],
    }
    corpus = generate(ScenarioSpec.from_dict(scenario), tmp_path / "corpus")
    (corpus.out_dir / "scan_snapshot.json").write_text(json.dumps(
        {"bacnet": {"transport": ["9.0.0.1", "10.0.0.1"], "application": []}}))
    config = _variant(corpus, "config-all", stability_label="all")
    out = tmp_path / "bundle"
    assert _check(config, corpus, out) == []
    stability = (out / "stability.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in stability[1:]] == ["10.0.0.1", "9.0.0.1"]
    overlap = json.loads((out / "scan_overlap.json").read_text())
    senders = next(row for row in overlap if row["role"] == "source")["transport_only_senders"]
    assert senders == ["10.0.0.1", "9.0.0.1"]


@st.composite
def _scenarios(draw):
    """A small valid scenario: 1-3 flows of any kind and protocol over 1-3
    days, each flow on networks of its own."""
    days = [date(2018, 1, 1) + timedelta(days=n) for n in range(draw(st.integers(1, 3)))]
    projects = [project.name for project in default_scanner_registry().projects]
    flows = []
    for index in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(FLOW_KINDS))
        protocol = draw(st.sampled_from(PROTOCOLS))
        if draw(st.booleans()):
            active = sorted(draw(st.sets(st.sampled_from(days), min_size=1)))
            schedule = {"active_days": [day.isoformat() for day in active]}
        else:
            first = draw(st.integers(0, len(days) - 1))
            last = draw(st.integers(first, len(days) - 1))
            active = days[first:last + 1]
            schedule = {"start_day": days[first].isoformat(), "end_day": days[last].isoformat()}
        schedule["packets_per_day"] = draw(st.integers(1, 4))
        net = f"10.{10 + index}"
        flow = {"kind": kind, "protocol": protocol, "src": f"{net}.1.1", "dst": f"{net}.2.1",
                "schedule": schedule}
        if kind in (INDUSTRIAL, SCANNER_SWEEP):
            flow["src"] = draw(st.sampled_from([f"{net}.1.1", f"{net}.1.0/30"]))
            if protocol == "s7comm":
                flow["heuristic"] = draw(st.booleans())
        if kind == INDUSTRIAL:
            flow["request_ratio"] = draw(st.sampled_from([0.0, 0.5, 1.0]))
        if kind == SCANNER_SWEEP:
            flow["project"] = draw(st.sampled_from(projects))
            if schedule["packets_per_day"] * len(active) >= 2:
                flow["dst"] = draw(st.sampled_from([f"{net}.2.1", f"{net}.2.0/30"]))
        flows.append(flow)
    return {"seed": draw(st.integers(0, 2**16)), "vantage": "vp0",
            "start_day": days[0].isoformat(), "end_day": days[-1].isoformat(),
            "sample_interval": draw(st.sampled_from([1, 4096])), "flows": flows}


@settings(max_examples=100, deadline=None)
@given(raw=_scenarios())
def test_generated_scenarios_match_checker(raw):
    """gen, then analyze, then the checker, on a random small scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(ScenarioSpec.from_dict(raw), Path(tmp) / "corpus")
        assert _check(corpus.config, corpus, Path(tmp) / "bundle") == []
