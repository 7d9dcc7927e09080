import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import ics_scope
from ics_scope import __version__
from ics_scope.capture import ip_to_int
from ics_scope.cli import main
from ics_scope.pipeline import PipelineConfig, load_inputs
from ics_scope.trafficgen import write_pcap

from golden import golden_packets

SCENARIO = {
    "seed": 9,
    "vantage": "ixp0",
    "start_day": "2018-01-01",
    "end_day": "2018-01-03",
    "sample_interval": 16384,
    "snap_len": 128,
    "flows": [
        {
            "kind": "industrial",
            "protocol": "bacnet",
            "src": "198.18.0.10",
            "dst": "198.19.0.20",
            "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-03",
                         "packets_per_day": 8},
            "request_ratio": 0.5,
        },
        {
            "kind": "scanner_sweep",
            "protocol": "modbus",
            "project": "Shodan",
            "src": "203.0.113.0/30",
            "dst": "100.64.0.0/28",
            "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                         "packets_per_day": 16},
        },
    ],
}


def _gen(tmp_path):
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps(SCENARIO))
    out = tmp_path / "corpus"
    assert main(["gen", str(spec_path), "--out", str(out)]) == 0
    return out


# The report bundle, as the README's bundle paragraph lists it.
BUNDLE_FILES = {
    "sanitize.csv", "filters.csv", "transitions.csv", "domestic.csv", "daily.tsv",
    "stability.csv", "asn_protocols.csv", "scan_overlap.csv",
    "sanitize.json", "filters.json", "scan_overlap.json",
    "protocol_rank.csv", "run_summary.json",
}


def test_gen_and_analyze_roundtrip(tmp_path, capsys):
    corpus = _gen(tmp_path)
    reports = tmp_path / "reports"
    code = main(["analyze", "--config", str(corpus / "config.json"), "--out", str(reports)])
    assert code == 0
    assert {path.name for path in reports.iterdir()} == BUNDLE_FILES
    summary = json.loads((reports / "run_summary.json").read_text())
    assert summary["records"] == 40
    assert summary["kept"] == 40


def _at_any_cpu_count(monkeypatch, capsys, argv):
    """The exit code and standard error of main(argv) as if on 1, 2 and 8
    CPUs, which must be the same at all three."""
    outcomes = set()
    for cpus in (1, 2, 8):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        code = main(argv)
        outcomes.add((code, capsys.readouterr().err))
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()


def _analyze(corpus, tmp_path):
    return ["analyze", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "r")]


def test_analyze_missing_honeypot_file_exit_2(tmp_path, capsys, monkeypatch):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    config["hp_all"] = "does_not_exist.txt"
    bad = corpus / "bad_config.json"
    bad.write_text(json.dumps(config))
    code, err = _at_any_cpu_count(monkeypatch, capsys, [
        "analyze", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "does_not_exist.txt" in err


@pytest.mark.parametrize("key", ["hp_all", "hp_ics"])
def test_analyze_one_honeypot_list_alone_exit_2(tmp_path, capsys, monkeypatch, key):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    del config["hp_ics" if key == "hp_all" else "hp_all"]
    (corpus / "config.json").write_text(json.dumps(config))
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, "error: hp_all and hp_ics must be configured together\n")
    assert not (tmp_path / "r").exists()


def _short_row(corpus, sidecar) -> str:
    """Append a row without its second column to a CSV table of the corpus;
    returns the message a load of it fails with."""
    config = json.loads((corpus / "config.json").read_text())
    with open(corpus / config[sidecar], "a") as fh:
        fh.write("10.0.0.1\n")
    lines = (corpus / config[sidecar]).read_text().count("\n")
    expected = {"rdns": "ip,name", "geo": "prefix,country"}[sidecar]
    return f"error: {corpus / config[sidecar]} line {lines}: expected '{expected}'\n"


def _analyze_with_short_row(tmp_path, capsys, monkeypatch, sidecar):
    corpus = _gen(tmp_path)
    message = _short_row(corpus, sidecar)
    return (*_at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path)), message)


def test_analyze_short_rdns_row_exit_2(tmp_path, capsys, monkeypatch):
    code, err, message = _analyze_with_short_row(tmp_path, capsys, monkeypatch, "rdns")
    assert code == 2
    assert err == message


def test_analyze_short_geo_row_exit_2(tmp_path, capsys, monkeypatch):
    code, err, message = _analyze_with_short_row(tmp_path, capsys, monkeypatch, "geo")
    assert code == 2
    assert err == message


def test_analyze_bad_country_code_names_the_geo_line(tmp_path, capsys, monkeypatch):
    corpus = _gen(tmp_path)
    geo = corpus / "geo.csv"
    with open(geo, "a") as fh:
        fh.write("10.0.0.0/8,ZZZ\n")
    lines = geo.read_text().count("\n")
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, f"error: {geo} line {lines}: "
                              f"invalid country code 'ZZZ' for prefix 10.0.0.0/8\n")
    assert not (tmp_path / "r").exists()


def test_analyze_non_ascii_country_code_names_the_geo_line(tmp_path, capsys, monkeypatch):
    corpus = _gen(tmp_path)
    geo = corpus / "geo.csv"
    with open(geo, "a", encoding="utf-8") as fh:
        fh.write("10.0.0.0/8,\u00df\n")  # 'ß'.upper() is 'SS'
    lines = geo.read_text().count("\n")
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, f"error: {geo} line {lines}: "
                              f"invalid country code '\u00df' for prefix 10.0.0.0/8\n")
    assert not (tmp_path / "r").exists()


def test_analyze_honeypot_subset_error_names_both_files(tmp_path, capsys, monkeypatch):
    corpus = _gen(tmp_path)
    (corpus / "hp_all.txt").write_text("10.0.0.1\n")
    (corpus / "hp_ics.txt").write_text("10.0.0.1\n10.0.0.9\n")
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, f"error: hp_ics "
                              f"{corpus / 'hp_ics.txt'} must be a subset of hp_all "
                              f"{corpus / 'hp_all.txt'}, offending entries: ['10.0.0.9']\n")
    assert not (tmp_path / "r").exists()


def _append(path, line: str) -> str:
    """Append line to the line table at path; returns its 'FILE line N' name."""
    with open(path, "a") as fh:
        fh.write(line + "\n")
    return f"{path} line {path.read_text().count(chr(10))}"


@pytest.mark.parametrize("name, value", [
    ("asn.txt", 4294967296),
    ("cone.json", -5),
    ("cone.json", 1099511627776),
    ("config.json", -1),
    ("config.json", 4294967296),
])
def test_analyze_refuses_an_as_number_out_of_range(tmp_path, capsys, monkeypatch, name, value):
    corpus = _gen(tmp_path)
    path = corpus / name
    if name == "asn.txt":
        where = _append(path, f"10.0.0.0/8 {value}")
        message = f"error: {where}: AS number must be at most 4294967295, got {value}\n"
    elif name == "cone.json":
        cone = json.loads(path.read_text())
        member = min(cone)
        cone[member] = [*cone[member], value]
        path.write_text(json.dumps(cone))
        message = (f"error: {path}: {member} must be a list of AS numbers (0 to 4294967295), "
                   f"got {sorted(cone[member])!r}\n")
    else:
        config = json.loads(path.read_text())
        path.write_text(json.dumps({**config, "tag_members": {"ixp0:in": value}}))
        message = (f"error: config {path}: tag_members['ixp0:in'] must be an AS number "
                   f"(0 to 4294967295), got {value}\n")
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, message)
    assert not (tmp_path / "r").exists()


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects usage errors this way
        return exc.code


def _capture(config, **changes):
    return {**config, "captures": [{**config["captures"][0], **changes}]}


_FAULTS = [
    pytest.param("analyze", lambda c: {k: v for k, v in c.items() if k != "captures"},
                 "captures must list at least one capture", id="captures-missing"),
    pytest.param("analyze", lambda c: {**c, "captures": []},
                 "captures must list at least one capture", id="captures-empty"),
    pytest.param("analyze", lambda c: {**c, "captures": [{"vantage": "ixp0"}]},
                 "captures[0].path must be a string, got None", id="capture-without-path"),
    pytest.param("analyze", lambda c: _capture(c, sample_interval=0),
                 "captures[0].sample_interval must be >= 1", id="sample-interval-0"),
    pytest.param("analyze", lambda c: _capture(c, sample_interval="abc"),
                 "captures[0].sample_interval must be an integer", id="sample-interval-text"),
    pytest.param("analyze", lambda c: _capture(c, snap_len=10),
                 "captures[0].snap_len below 46 bytes", id="snap-len-10"),
    pytest.param("analyze", lambda c: [c], "bad_config.json must be an object, got [{",
                 id="top-level-list"),
    pytest.param("analyze", lambda c: {**c, "tag_members": {"ixp0:in": "x"}},
                 "tag_members['ixp0:in'] must be an integer", id="tag-member-text"),
    pytest.param("analyze", lambda c: _capture(c, path=5),
                 "captures[0].path must be a string, got 5", id="capture-path-number"),
    pytest.param("analyze", lambda c: {**c, "rdns": 7}, "rdns must be a string, got 7",
                 id="rdns-number"),
    pytest.param("analyze", lambda c: {**c, "tag_members": []},
                 "tag_members must be an object, got []", id="tag-members-list"),
    pytest.param("analyze", lambda c: {**c, "tag_members": {"ixp0:in": 1, "ixp1:out": 2}},
                 "config: tag_members: ixp1:out is not a capture tag key "
                 "(one of ixp0:in, ixp0:out)", id="tag-of-no-capture"),
    pytest.param("analyze", lambda c: {**c, "tag_members": {"ixp0": 1}},
                 "config: tag_members: ixp0 is not a capture tag key", id="tag-without-side"),
    pytest.param("analyze", lambda c: {**c, "filters": ["all"]},
                 "filters must be one of all, hp-all, hp-ics, scanners, got ['all']",
                 id="filters-list"),
    pytest.param("analyze", lambda c: _capture(c, vantage=["ixp0"]),
                 "captures[0].vantage must be a string, got ['ixp0']", id="vantage-list"),
    pytest.param("analyze", lambda c: _capture(c, sample_interval=2.7),
                 "captures[0].sample_interval must be an integer, got 2.7",
                 id="sample-interval-fraction"),
    pytest.param("analyze", lambda c: _capture(c, snap_len=128.5),
                 "captures[0].snap_len must be an integer, got 128.5", id="snap-len-fraction"),
    pytest.param("analyze", lambda c: json.dumps(c).encode().replace(b"ixp0", b"ixp\xff"),
                 "bad_config.json is not valid JSON: 'utf-8' codec can't decode byte 0xff",
                 id="config-not-utf8"),
    pytest.param("analyze", lambda c: {**c, "captures": c["captures"] * 2},
                 "captures[0].path and captures[1].path name the same file",
                 id="capture-listed-twice"),
    pytest.param("analyze", lambda c: {**c, "captures": [*c["captures"], {
                     **c["captures"][0], "path": "./" + c["captures"][0]["path"],
                     "vantage": "other"}]},
                 "captures[0].path and captures[1].path name the same file",
                 id="capture-listed-twice-by-another-path"),
    pytest.param("dissect", None, "snap_len below 46 bytes", id="dissect-snap-len-10"),
    pytest.param("sanitize", None, "snap_len below 46 bytes", id="sanitize-snap-len-10"),
]


@pytest.mark.parametrize("command, edit, message", _FAULTS)
def test_config_and_usage_faults_exit_2(tmp_path, capsys, command, edit, message):
    corpus = _gen(tmp_path)
    if edit is None:
        argv = [command, str(corpus / "corpus.pcap"), "--snap-len", "10"]
    else:
        bad = corpus / "bad_config.json"
        content = edit(json.loads((corpus / "config.json").read_text()))
        bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "r")]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _first_flow(scenario, **changes):
    return {**scenario, "flows": [{**scenario["flows"][0], **changes}, *scenario["flows"][1:]]}


@pytest.mark.parametrize("name, edit, message", [
    pytest.param("config.json", lambda c: {**c, "stabilty_label": "all"},
                 "stabilty_label is not a config key (one of captures, scanner_registry,",
                 id="config"),
    pytest.param("config.json", lambda c: _capture(c, sample_intervall=16384),
                 "captures[0]: sample_intervall is not a capture key "
                 "(one of path, vantage, sample_interval, snap_len)", id="capture"),
    pytest.param("registry.json", lambda r: [{**r[0], "prefix": []}, *r[1:]],
                 "registry.json entry 0: prefix is not a scanner registry key "
                 "(one of project, prefixes, rdns_patterns)", id="scanner-registry"),
    pytest.param("scan_snapshot.json", lambda s: {"bacnet": {**s["bacnet"], "aplication": []}},
                 "scan_snapshot.json: bacnet: aplication is not a scan snapshot key "
                 "(one of transport, application)", id="scan-snapshot"),
    pytest.param("scan_snapshot.json", lambda s: {**s, "modbsu": {"transport": ["1.2.3.4"]}},
                 "scan_snapshot.json: modbsu is not a scan snapshot protocol key "
                 "(one of modbus, s7comm, ethernetip, bacnet, dnp3, hartip, iec104)",
                 id="scan-snapshot-protocol"),
])
def test_analyze_refuses_an_unknown_key(tmp_path, capsys, name, edit, message):
    corpus = _gen(tmp_path)
    path = corpus / name
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    argv = ["analyze", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "r")]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_analyze_refuses_an_empty_rdns_pattern(tmp_path, capsys):
    corpus = _gen(tmp_path)
    path = corpus / "registry.json"
    registry = json.loads(path.read_text())
    path.write_text(json.dumps([{**registry[0], "rdns_patterns": [""]}, *registry[1:]]))
    argv = ["analyze", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "r")]
    assert _exit_code(argv) == 2
    assert ("registry.json entry 0: rdns_patterns must be a list of non-empty strings, "
            "got ['']") in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda s: {**s, "sample_intervall": 16384},
                 "scenario: sample_intervall is not a scenario key (one of seed, vantage,",
                 id="scenario"),
    pytest.param(lambda s: _first_flow(s, request_ratoi=0.5),
                 "flow 0 (industrial/bacnet): request_ratoi is not a flow key (one of kind,",
                 id="flow"),
    pytest.param(lambda s: _first_flow(s, schedule={**s["flows"][0]["schedule"],
                                                    "packets_per_dya": 3}),
                 "flow 0 (industrial/bacnet): schedule: packets_per_dya is not a schedule key "
                 "(one of start_day, end_day, active_days, packets_per_day)", id="schedule"),
])
def test_gen_refuses_an_unknown_key(tmp_path, capsys, edit, message):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(edit(SCENARIO)))
    out = tmp_path / "corpus"
    assert _exit_code(["gen", str(spec), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, out, reason", [
    pytest.param("analyze", "taken", "File exists", id="analyze-out-a-file"),
    pytest.param("analyze", "taken/bundle", "Not a directory", id="analyze-out-under-a-file"),
    pytest.param("gen", "taken", "File exists", id="gen-out-a-file"),
    pytest.param("dissect", "empty", "Is a directory", id="dissect-out-a-directory"),
])
def test_an_out_that_cannot_be_written_is_a_usage_error(tmp_path, capsys, command, out, reason):
    corpus = _gen(tmp_path)
    (tmp_path / "taken").write_text("kept\n")
    (tmp_path / "empty").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = {"analyze": ["analyze", "--config", str(corpus / "config.json")],
            "gen": ["gen", str(tmp_path / "scenario.json")],
            "dissect": ["dissect", str(corpus / "corpus.pcap")]}[command]
    capsys.readouterr()
    assert _exit_code([*argv, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize("command, name", [
    pytest.param("analyze", "sanitize.csv", id="analyze-sanitize.csv"),
    pytest.param("analyze", "daily.tsv", id="analyze-daily.tsv"),
    pytest.param("analyze", "run_summary.json", id="analyze-run_summary.json"),
    pytest.param("gen", "corpus.pcap", id="gen-corpus.pcap"),
    pytest.param("gen", "ground_truth.jsonl", id="gen-ground_truth.jsonl"),
    pytest.param("gen", "asn.txt", id="gen-sidecar"),
    pytest.param("gen", "config.json", id="gen-config.json"),
])
def test_an_output_file_that_cannot_be_written_is_a_usage_error(tmp_path, command, name):
    corpus = _gen(tmp_path)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    argv = {"analyze": ["analyze", "--config", str(corpus / "config.json")],
            "gen": ["gen", str(tmp_path / "scenario.json")]}[command]
    env = {**os.environ, "PYTHONPATH": str(Path(ics_scope.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "ics_scope", *argv, "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr == f"error: cannot write {out / name}: Is a directory\n"
    assert "Traceback" not in result.stderr


# A member of the generated cone named twice, or a key of a JSON object
# repeated, names the file and exits 2.
@pytest.mark.parametrize("name, key, message", [
    ("cone.json", "064501", "{path}: member 64501 is listed twice"),
    ("cone.json", "64501", "{path} is not valid JSON: repeated key '64501'"),
    ("config.json", "captures", "{path} is not valid JSON: repeated key 'captures'"),
])
def test_analyze_refuses_a_key_named_twice(tmp_path, capsys, monkeypatch, name, key, message):
    corpus = _gen(tmp_path)
    path = corpus / name
    path.write_text(f'{{"{key}": [], {path.read_text().lstrip()[1:]}')
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert (code, err) == (2, f"error: {message.format(path=path)}\n")
    assert not (tmp_path / "r").exists()


# A sidecar table of the wrong shape names the file and the key and exits 2.
_SIDECAR_FAULTS = [
    pytest.param("cone", [64500], "bad_table.json must be an object, got [64500]",
                 id="cone-list"),
    pytest.param("scanner_registry", [{"prefixes": ["192.0.2.0/24"]}],
                 "entry 0: project must be a non-empty string, got None",
                 id="registry-entry-without-project"),
    pytest.param("scanner_registry", {"Shodan": {"prefixes": ["192.0.2.0/24"]}},
                 "bad_table.json must be a list, got {'Shodan'", id="registry-object"),
    pytest.param("scan_snapshot", {"modbus": ["100.64.0.1"]},
                 "modbus must be an object, got ['100.64.0.1']", id="snapshot-protocol-list"),
    pytest.param("scan_snapshot", {"modbus": {"transport": "100.64.0.1"}},
                 "modbus.transport must be a list of strings, got '100.64.0.1'",
                 id="snapshot-hosts-string"),
    pytest.param("scan_snapshot", {"modbus": {"transport": ["100.64.0.1", "scanner-a"],
                                              "application": []}},
                 "modbus.transport: invalid IPv4 address 'scanner-a'",
                 id="snapshot-non-address"),
    pytest.param("scan_snapshot", {"modbus": {"transport": ["\ud800"]}},
                 "modbus.transport: invalid IPv4 address '\\ud800'", id="snapshot-lone-surrogate"),
    pytest.param("cone", b'{"64500": [64501], "\xff": []}',
                 "bad_table.json is not valid JSON: 'utf-8' codec can't decode byte 0xff",
                 id="cone-not-utf8"),
]


@pytest.mark.parametrize("key, table, message", _SIDECAR_FAULTS)
def test_malformed_sidecar_exit_2(tmp_path, capsys, monkeypatch, key, table, message):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    (corpus / "bad_table.json").write_bytes(table if isinstance(table, bytes)
                                           else json.dumps(table).encode())
    (corpus / "config.json").write_text(json.dumps({**config, key: "bad_table.json"}))
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert code == 2
    assert message in err
    assert "bad_table.json" in err
    assert not (tmp_path / "r").exists()


def _not_utf8_row(corpus, sidecar) -> str:
    """Append a row that is not UTF-8 to a line table of the corpus; returns
    the message a load of it fails with."""
    config = json.loads((corpus / "config.json").read_text())
    with open(corpus / config[sidecar], "ab") as fh:
        fh.write(b"10.0.0.1,caf\xe9\n" if sidecar == "rdns" else b"10.0.0.0/8 6450\xff\n")
    lines = (corpus / config[sidecar]).read_bytes().count(b"\n")
    return f"error: {corpus / config[sidecar]} line {lines}: not UTF-8 text\n"


def _bad_registry(corpus):
    (corpus / "registry.json").write_text(json.dumps({"Shodan": {"prefixes": []}}))
    return "registry.json must be a list, got {'Shodan': {'prefixes': []}}"


def _bad_cone(corpus):
    (corpus / "cone.json").write_text(json.dumps([64500]))
    return "cone.json must be an object, got [64500]"


def _bad_snapshot(corpus):
    (corpus / "scan_snapshot.json").write_text(json.dumps({"modbus": ["100.64.0.1"]}))
    return "modbus must be an object, got ['100.64.0.1']"


# Two broken tables, the first in the order a one-CPU load reads them first;
# JSON sidecars load in the analyzing process, line tables in children.
@pytest.mark.parametrize("first, second", [
    pytest.param(_bad_registry, lambda corpus: _short_row(corpus, "rdns"),
                 id="registry-then-rdns"),
    pytest.param(lambda corpus: _short_row(corpus, "rdns"),
                 lambda corpus: _short_row(corpus, "geo"), id="rdns-then-geo"),
    pytest.param(_bad_cone, lambda corpus: _short_row(corpus, "geo"), id="cone-then-geo"),
    pytest.param(lambda corpus: _short_row(corpus, "geo"), _bad_snapshot,
                 id="geo-then-snapshot"),
    pytest.param(lambda corpus: _not_utf8_row(corpus, "rdns"),
                 lambda corpus: _short_row(corpus, "geo"), id="rdns-not-utf8-then-geo"),
    pytest.param(lambda corpus: _not_utf8_row(corpus, "asn_table"), _bad_snapshot,
                 id="asn-not-utf8-then-snapshot"),
])
def test_analyze_reports_the_first_bad_table_at_any_cpu_count(tmp_path, capsys, monkeypatch,
                                                              first, second):
    corpus = _gen(tmp_path)
    message = first(corpus)
    second(corpus)
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "r").exists()


# ics-scope analyze as if on 2 CPUs, so that the line tables load in children.
_ANALYZE_AT_TWO_CPUS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from ics_scope.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_analyze_logs_table_warnings_from_load_children(tmp_path, capfd, monkeypatch):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    first = (corpus / config["asn_table"]).read_text().split("\n", 1)[0]
    prefix, asn = first.split()
    with open(corpus / config["asn_table"], "a") as fh:
        fh.write(f"{prefix} {int(asn) + 1000}\n")
    cone = json.loads((corpus / config["cone"]).read_text())
    member = min(cone)
    cone[member].append(int(member))
    (corpus / config["cone"]).write_text(json.dumps(cone))

    env = {**os.environ, "ICS_SCOPE_LOG": "WARNING",
           "PYTHONPATH": str(Path(ics_scope.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-c", _ANALYZE_AT_TWO_CPUS,
                             *_analyze(corpus, tmp_path)], env=env)
    assert result.returncode == 0
    err = capfd.readouterr().err
    assert (f"WARNING ics_scope.enrich: duplicate prefix {prefix}: {int(asn) + 1000} "
            f"overrides {asn}") in err
    assert f"WARNING ics_scope.enrich: member AS {member} listed in its own cone" in err
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    inputs = load_inputs(PipelineConfig.from_json(corpus / "config.json"))
    assert inputs.asn_table.lookup(ip_to_int(prefix.split("/")[0])) == int(asn) + 1000


@pytest.mark.parametrize("label, code", [("industrial", 0), ("non_industrial", 0), ("all", 0),
                                         ("industral", 2)])
def test_analyze_stability_label(tmp_path, capsys, label, code):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    (corpus / "config.json").write_text(json.dumps({**config, "stability_label": label}))
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(corpus / "config.json"),
                 "--out", str(reports)]) == code
    if code:
        assert ("stability_label must be one of all, industrial, non_industrial, "
                "got 'industral'") in capsys.readouterr().err
        assert not reports.exists()
    else:
        assert len((reports / "stability.csv").read_text().splitlines()) > 1


def test_analyze_unknown_dpi_transport_exit_2(tmp_path, capsys, monkeypatch):
    corpus = _gen(tmp_path)
    (corpus / "dpi.json").write_text(json.dumps(
        [{"name": "http", "transport": "TCP", "prefix_bytes": "47455420"}]))
    config = json.loads((corpus / "config.json").read_text())
    config["dpi_catalog"] = "dpi.json"
    (corpus / "config.json").write_text(json.dumps(config))
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert code == 2
    assert "signature http: transport must be one of tcp, udp, got 'TCP'" in err


@pytest.mark.parametrize("entry, message", [
    pytest.param({"name": "http", "transport": "tcp", "prefix": "47455420"},
                 "signature http: prefix is not a signature key", id="key-misspelt"),
    pytest.param({"name": "http", "transport": "tcp"},
                 "signature http: prefix_bytes or check must be given", id="no-prefix-no-check"),
])
def test_analyze_dpi_signature_that_never_matches_exit_2(tmp_path, capsys, monkeypatch, entry,
                                                          message):
    corpus = _gen(tmp_path)
    (corpus / "dpi.json").write_text(json.dumps([entry]))
    config = json.loads((corpus / "config.json").read_text())
    config["dpi_catalog"] = "dpi.json"
    (corpus / "config.json").write_text(json.dumps(config))
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert code == 2
    assert message in err
    assert not (tmp_path / "r").exists()


def test_truncated_record_fails_analyze_and_sanitize(tmp_path, capsys):
    corpus = _gen(tmp_path)
    pcap = corpus / "corpus.pcap"
    data = bytearray(pcap.read_bytes())
    offset = 24
    for _ in range(11):
        offset += 16 + struct.unpack_from("<I", data, offset + 8)[0]
    struct.pack_into("<I", data, offset + 8, 200_000_000)
    pcap.write_bytes(bytes(data))
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(corpus / "config.json"), "--out", str(reports)]) == 2
    assert "record 11: runs past the end of the file" in capsys.readouterr().err
    assert not (reports / "run_summary.json").exists()
    assert main(["sanitize", str(pcap)]) == 2
    assert capsys.readouterr().out == ""


def test_analyze_empty_pcap_all_zero(tmp_path):
    empty = tmp_path / "empty.pcap"
    write_pcap(empty, [])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "captures": [{"path": "empty.pcap", "vantage": "vp0"}],
    }))
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(config), "--out", str(reports)]) == 0
    summary = json.loads((reports / "run_summary.json").read_text())
    assert summary["records"] == 0
    assert summary["candidates"] == 0
    sanitize_lines = (reports / "sanitize.csv").read_text().splitlines()
    assert sanitize_lines[1] == "candidates,0,"
    # A vantage without candidates or port-only records lists no counts.
    assert json.loads((reports / "sanitize.json").read_text())["per_vantage"] == {}


def test_dissect_golden_modbus(tmp_path, capsys, golden_dir):
    code = main(["dissect", str(golden_dir / "modbus_wellformed.pcap")])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["protocol"] == "modbus"
    assert lines[0]["function_code"] == 3
    assert lines[0]["action"] == "read_holding_registers"
    assert lines[0]["direction"] == "request"
    assert lines[0]["via_icmp_quote"] is False


ARP_FRAME = b"\xff" * 6 + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x06" + b"\x00" * 28


def test_dissect_arp_only_pcap_empty(tmp_path, capsys):
    path = tmp_path / "arp.pcap"
    write_pcap(path, [(0, ARP_FRAME)])
    assert main(["dissect", str(path)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_dissect_index_is_the_frame_position(tmp_path, capsys):
    modbus = next(p for p in golden_packets() if p.name == "modbus_wellformed")
    path = tmp_path / "arp_then_modbus.pcap"
    write_pcap(path, [(0, ARP_FRAME), (1, modbus.frame)])
    assert main(["dissect", str(path)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert [(l["index"], l["protocol"]) for l in lines] == [(1, "modbus")]


def test_dissect_reports_malformed(tmp_path, capsys, golden_dir):
    assert main(["dissect", str(golden_dir / "iec104_malformed.pcap")]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines and all(l["verdict"] == "malformed" for l in lines)


def test_dissect_unreadable_exit_2(tmp_path, capsys):
    assert main(["dissect", str(tmp_path / "missing.pcap")]) == 2


def test_dissect_out_is_left_as_it_was_on_a_bad_pcap(tmp_path, capsys, golden_dir):
    out = tmp_path / "lines.jsonl"
    not_pcap = tmp_path / "not.pcap"
    not_pcap.write_bytes(b"this is not a pcap file at all")  # fails at the header
    cut = tmp_path / "cut.pcap"
    modbus = next(p for p in golden_packets() if p.name == "modbus_wellformed")
    write_pcap(cut, [(0, modbus.frame), (1, modbus.frame)])
    cut.write_bytes(cut.read_bytes()[:-3])  # fails after the first line
    for bad in (not_pcap, cut):
        out.write_text("kept\n")
        assert main(["dissect", str(bad), "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"
        out.unlink()
        assert main(["dissect", str(bad), "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["dissect", str(cut.with_name("whole.pcap")), "--out", str(out)]) == 2
    write_pcap(cut, [(0, modbus.frame)])
    assert main(["dissect", str(cut), "--out", str(out)]) == 0
    assert [json.loads(line)["protocol"] for line in out.read_text().splitlines()] == ["modbus"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cut.pcap", "lines.jsonl", "not.pcap"]


def test_gen_malformed_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2


def _flow(index, **changes):
    def edit(raw):
        raw["flows"][index] = {**raw["flows"][index], **changes}
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_flow(0, src="10.0.0.1/24"), "flow 0 (industrial/bacnet): src must be an IPv4",
                 id="src-host-bits"),
    pytest.param(_flow(0, src=5), "flow 0 (industrial/bacnet): src must be an IPv4",
                 id="src-number"),
    pytest.param(lambda raw: raw["flows"].append("x"), "flow 2 must be an object, got 'x'",
                 id="flow-text"),
    pytest.param(_flow(1, schedule="x"), "flow 1: schedule must be an object, got 'x'",
                 id="schedule-text"),
    pytest.param(lambda raw: raw["flows"].append(
        {**raw["flows"][1], "kind": "backscatter", "dst": "100.64.0.1/8"}),
        "flow 2 (backscatter/modbus): dst must be an IPv4", id="backscatter-dst-host-bits"),
    pytest.param(_flow(0, src="198.18.0.0/255.255.255.0"),
                 "flow 0 (industrial/bacnet): src must be an IPv4", id="src-netmask"),
    pytest.param(_flow(1, project="Foo"),
                 "flow 1 (scanner_sweep/modbus): project must be one of", id="project-unknown"),
    pytest.param(_flow(0, rdns_project="Shodan"),
                 "flow 0 (industrial/bacnet): rdns_project needs rdns_name", id="rdns-no-name"),
    pytest.param(_flow(0, rdns_name="host{i}.example.net", rdns_project="Shodan"),
                 "matches rdns_name 'host0.example.net' to no project, not Shodan",
                 id="rdns-name-unmatched"),
    pytest.param(_flow(0, rdns_name="scanner{i}.labs.rapid7.com", rdns_project="Shodan"),
                 "matches rdns_name 'scanner0.labs.rapid7.com' to Rapid7, not Shodan",
                 id="rdns-name-other-project"),
    pytest.param(_flow(0, src="198.18.0.0/28", rdns_name="host{i}.census.rapid{i}.net",
                       rdns_project="Censys"),
                 "matches rdns_name 'host7.census.rapid7.net' to Rapid7, not Censys",
                 id="rdns-eighth-name-other-project"),
    pytest.param(_flow(0, rdns_name="host{j}.shodan.io", rdns_project="Shodan"),
                 "rdns_name must be a name pattern with {i}, got 'host{j}.shodan.io'",
                 id="rdns-name-format"),
    pytest.param(lambda raw: raw.update(seed="7"), "seed must be an integer, got '7'",
                 id="seed-text"),
    pytest.param(_flow(0, heuristic="false"),
                 "flow 0 (industrial/bacnet): heuristic must be a boolean, got 'false'",
                 id="heuristic-text"),
    pytest.param(_flow(0, schedule={**SCENARIO["flows"][0]["schedule"], "packets_per_day": 2.7}),
                 "flow 0 (industrial/bacnet): packets_per_day must be an integer, got 2.7",
                 id="packets-per-day-fraction"),
    pytest.param(_flow(0, request_ratio="0.5"),
                 "flow 0 (industrial/bacnet): request_ratio must be a number, got '0.5'",
                 id="request-ratio-text"),
    pytest.param(lambda raw: raw.update(flows={}), "scenario: flows must be a list, got {}",
                 id="flows-object"),
    pytest.param(lambda raw: raw.update(flows=[]),
                 "scenario: flows must list at least one flow", id="flows-empty"),
    pytest.param(_flow(0, schedule={"active_days": {"2018-01-01": 0}}),
                 "flow 0 (industrial/bacnet): active_days must be a list, got {'2018-01-01': 0}",
                 id="active-days-object"),
    pytest.param(_flow(0, schedule={"active_days": "2018-01-01"}),
                 "flow 0 (industrial/bacnet): active_days must be a list, got '2018-01-01'",
                 id="active-days-text"),
    pytest.param(_flow(0, schedule={"active_days": []}),
                 "flow 0 (industrial/bacnet): active_days must list at least one day",
                 id="active-days-empty"),
    pytest.param(lambda raw: raw["flows"][0].pop("dst"),
                 "flow 0 (industrial/bacnet): dst must be an IPv4 address or network, got None",
                 id="dst-missing"),
    pytest.param(_flow(0, protocol=["bacnet"]), "flow 0: protocol must be one of bacnet, dnp3, "
                 "ethernetip, hartip, iec104, modbus, s7comm, got ['bacnet']",
                 id="protocol-list"),
    pytest.param(_flow(0, project=["x"]),
                 "flow 0 (industrial/bacnet): project must be a string, got ['x']",
                 id="industrial-project-list"),
    pytest.param(lambda raw: json.dumps(raw).encode().replace(b"ixp0", b"ixp\xff"),
                 "bad.json is not valid JSON: 'utf-8' codec can't decode byte 0xff",
                 id="scenario-not-utf8"),
])
def test_gen_malformed_flow_exit_2(tmp_path, capsys, edit, message):
    raw = json.loads(json.dumps(SCENARIO))
    content = edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_bytes(content if isinstance(content, bytes) else json.dumps(raw).encode())
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value, message", [
    pytest.param("vantage", 5, "vantage must be a string, got 5", id="vantage-number"),
    pytest.param("sample_interval", 0, "sample_interval must be >= 1", id="sample-interval-0"),
    pytest.param("sample_interval", "16384", "sample_interval must be an integer, got '16384'",
                 id="sample-interval-text"),
    pytest.param("snap_len", 20, "snap_len below 46 bytes", id="snap-len-20"),
])
def test_gen_refuses_a_capture_setup_analyze_refuses(tmp_path, capsys, key, value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SCENARIO, key: value}))
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_gen_out_of_range_schedule_exit_2(tmp_path, capsys):
    raw = json.loads(json.dumps(SCENARIO))
    raw["flows"][0]["schedule"]["end_day"] = "2019-01-01"
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps(raw))
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "outside corpus range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dissect", "sanitize"])
def test_vantage_option_is_a_usage_error(capsys, golden_dir, command):
    # The vantage is a fact of a capture in an analyze config; these two
    # commands read one capture and print no vantage.
    pcap = str(golden_dir / "modbus_wellformed.pcap")
    assert _exit_code([command, pcap, "--vantage", "ixp0"]) == 2
    assert "unrecognized arguments: --vantage ixp0" in capsys.readouterr().err


def test_sanitize_subcommand(tmp_path, capsys, golden_dir):
    assert main(["sanitize", str(golden_dir / "bacnet_wellformed.pcap")]) == 0
    out = capsys.readouterr().out
    assert "candidates,1,100.0" in out
    assert "dpi_removal,1,100.0" in out


# Every sanitize step drops packets: tunnel (backscatter), malformed and DPI.
_SANITIZE_SCENARIO = {
    **SCENARIO,
    "flows": SCENARIO["flows"] + [
        {"kind": kind, "protocol": protocol, "src": src, "dst": dst,
         "schedule": {"start_day": "2018-01-02", "end_day": "2018-01-02",
                      "packets_per_day": 3}}
        for kind, protocol, src, dst in [
            ("backscatter", "bacnet", "100.71.9.1", "100.72.9.1"),
            ("malformed", "modbus", "100.73.40.1", "100.74.40.1"),
            ("malformed", "dnp3", "100.73.41.1", "100.74.41.1"),
            ("dpi_decoy", "bacnet", "100.127.9.1", "100.127.9.2"),
        ]
    ],
}


def test_dissect_gives_the_direction_of_the_ground_truth(tmp_path, capsys):
    heuristic = {"kind": "industrial", "protocol": "s7comm", "src": "198.18.2.10",
                 "dst": "198.19.2.20", "heuristic": True, "request_ratio": 0.5,
                 "schedule": {"start_day": "2018-01-01", "end_day": "2018-01-02",
                              "packets_per_day": 4}}
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps({**_SANITIZE_SCENARIO, "snap_len": 65535,
                                "flows": _SANITIZE_SCENARIO["flows"] + [heuristic]}))
    corpus = tmp_path / "corpus"
    assert main(["gen", str(spec), "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["dissect", str(corpus / "corpus.pcap")]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    truth = [json.loads(line) for line in (corpus / "ground_truth.jsonl").read_text().splitlines()]
    # Every field the stream decides, as the ground truth has it.
    decided = ("protocol", "kind", "verdict", "role", "function_code", "direction", "sanitize")
    assert [(l["index"], *(l[k] for k in decided), l["via_icmp_quote"]) for l in lines] == [
        (t["index"], *(t[k] for k in decided), t["sanitize"] == "dropped_tunnel") for t in truth]
    assert {t["direction"] for t in truth} == {"request", "reply", "unrelated"}


@pytest.mark.parametrize("cpus", [1, 2])
def test_sanitize_prints_the_sanitize_csv_of_analyze(tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_SANITIZE_SCENARIO))
    corpus = tmp_path / "corpus"
    assert main(["gen", str(spec), "--out", str(corpus)]) == 0
    assert main(_analyze(corpus, tmp_path)) == 0
    capsys.readouterr()
    snap_len = str(_SANITIZE_SCENARIO["snap_len"])
    assert main(["sanitize", str(corpus / "corpus.pcap"), "--snap-len", snap_len]) == 0
    printed = capsys.readouterr().out
    assert printed == (tmp_path / "r" / "sanitize.csv").read_text()
    assert [line.split(",")[1] for line in printed.splitlines()[1:]] == [
        "52", "49", "43", "40", "49"]


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(ics_scope.__file__).resolve().parents[1])}
    result = subprocess.run([sys.executable, "-m", "ics_scope", "version"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout.strip()) == (0, __version__)


def _analyze_with_a_nul_path(tmp_path, capsys, monkeypatch, edit, key):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    edit(config)
    (corpus / "config.json").write_text(json.dumps(config))
    code, err = _at_any_cpu_count(monkeypatch, capsys, _analyze(corpus, tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{key} must be a path without a NUL byte" in err and "line 0" not in err
    assert "\x00" not in err and "file not found" not in err
    assert not (tmp_path / "r").exists()


def test_analyze_table_path_with_a_nul_exit_2(tmp_path, capsys, monkeypatch):
    _analyze_with_a_nul_path(tmp_path, capsys, monkeypatch,
                             lambda config: config.update(asn_table="asn\u0000.txt"), "asn_table")


def test_analyze_capture_path_with_a_nul_exit_2(tmp_path, capsys, monkeypatch):
    _analyze_with_a_nul_path(tmp_path, capsys, monkeypatch,
                             lambda config: config["captures"][0].update(path="corpus\u0000.pcap"),
                             "captures[0].path")


@pytest.mark.parametrize("link", [os.symlink, os.link], ids=["symlink", "hard-link"])
def test_analyze_refuses_a_capture_linked_twice(tmp_path, capsys, link):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    link(corpus / config["captures"][0]["path"], corpus / "again.pcap")
    config["captures"].append({**config["captures"][0], "path": "again.pcap"})
    (corpus / "twice.json").write_text(json.dumps(config))
    argv = ["analyze", "--config", str(corpus / "twice.json"), "--out", str(tmp_path / "r")]
    assert _exit_code(argv) == 2
    assert ("captures[0].path and captures[1].path name the same file"
            in capsys.readouterr().err)
    assert not (tmp_path / "r").exists()


def test_analyze_filters_override(tmp_path):
    corpus = _gen(tmp_path)
    reports = tmp_path / "scanner_reports"
    code = main(["analyze", "--config", str(corpus / "config.json"),
                 "--out", str(reports), "--filters", "scanners"])
    assert code == 0
    summary = json.loads((reports / "run_summary.json").read_text())
    assert summary["filters"] == "scanners"


@pytest.mark.parametrize("level, code", [("verbose", 2), ("5", 2), ("", 2), ("debug", 0),
                                         ("Info", 0), ("WARNING", 0), ("critical", 0)])
def test_the_log_level_is_one_of_the_five_in_any_case(capsys, monkeypatch, level, code):
    monkeypatch.setenv("ICS_SCOPE_LOG", level)
    assert main(["version"]) == code
    captured = capsys.readouterr()
    if code:
        assert (captured.out, captured.err) == (
            "", "error: ICS_SCOPE_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, "
                f"got {level!r}\n")
    else:
        assert captured.out == f"{__version__}\n"
