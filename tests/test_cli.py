import json
import struct

import pytest

from ics_scope import __version__
from ics_scope.cli import main
from ics_scope.trafficgen import golden_packets, write_pcap

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


def test_analyze_missing_honeypot_file_exit_2(tmp_path, capsys):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    config["hp_all"] = "does_not_exist.txt"
    bad = corpus / "bad_config.json"
    bad.write_text(json.dumps(config))
    code = main(["analyze", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "does_not_exist.txt" in err


def _analyze_with_short_row(tmp_path, capsys, sidecar):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    with open(corpus / config[sidecar], "a") as fh:
        fh.write("10.0.0.1\n")
    lines = (corpus / config[sidecar]).read_text().count("\n")
    code = main(["analyze", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "r")])
    return code, capsys.readouterr().err, f"{config[sidecar]} line {lines}"


def test_analyze_short_rdns_row_exit_2(tmp_path, capsys):
    code, err, where = _analyze_with_short_row(tmp_path, capsys, "rdns")
    assert code == 2
    assert where in err


def test_analyze_short_geo_row_exit_2(tmp_path, capsys):
    code, err, where = _analyze_with_short_row(tmp_path, capsys, "geo")
    assert code == 2
    assert where in err


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects usage errors this way
        return exc.code


def _capture(config, **changes):
    return {**config, "captures": [{**config["captures"][0], **changes}]}


_FAULTS = [
    pytest.param("analyze", lambda c: {**c, "captures": [{"vantage": "ixp0"}]},
                 "captures[0] has no 'path'", id="capture-without-path"),
    pytest.param("analyze", lambda c: _capture(c, sample_interval=0),
                 "captures[0]: sample_interval must be >= 1", id="sample-interval-0"),
    pytest.param("analyze", lambda c: _capture(c, sample_interval="abc"),
                 "captures[0].sample_interval must be an integer", id="sample-interval-text"),
    pytest.param("analyze", lambda c: _capture(c, snap_len=10),
                 "captures[0]: snap_len below 46 bytes", id="snap-len-10"),
    pytest.param("analyze", lambda c: [c], "expected a JSON object, got list",
                 id="top-level-list"),
    pytest.param("analyze", lambda c: {**c, "tag_members": {"ixp0:in": "x"}},
                 "tag_members['ixp0:in'] must be an integer", id="tag-member-text"),
    pytest.param("analyze", lambda c: _capture(c, path=5),
                 "captures[0].path must be a string, got 5", id="capture-path-number"),
    pytest.param("analyze", lambda c: {**c, "rdns": 7}, "rdns must be a string, got 7",
                 id="rdns-number"),
    pytest.param("analyze", lambda c: {**c, "tag_members": []},
                 "tag_members must be an object, got []", id="tag-members-list"),
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
        bad.write_text(json.dumps(edit(json.loads((corpus / "config.json").read_text()))))
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "r")]
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err


# A sidecar table of the wrong shape names the file and the key and exits 2.
_SIDECAR_FAULTS = [
    pytest.param("cone", [64500],
                 "expected an object mapping member AS to its cone, got list", id="cone-list"),
    pytest.param("scanner_registry", [{"prefixes": ["192.0.2.0/24"]}],
                 "entry 0: 'project' must be a string, got None",
                 id="registry-entry-without-project"),
    pytest.param("scanner_registry", {"Shodan": {"prefixes": ["192.0.2.0/24"]}},
                 "expected a list of project entries, got dict", id="registry-object"),
    pytest.param("scan_snapshot", {"modbus": ["100.64.0.1"]},
                 "'modbus' must map to an object, got list", id="snapshot-protocol-list"),
    pytest.param("scan_snapshot", {"modbus": {"transport": "100.64.0.1"}},
                 "'modbus' 'transport' must be a list of address strings",
                 id="snapshot-hosts-string"),
    pytest.param("scan_snapshot", {"modbus": {"transport": ["100.64.0.1", "scanner-a"],
                                              "application": []}},
                 "'modbus' 'transport': invalid IPv4 address 'scanner-a'",
                 id="snapshot-non-address"),
]


@pytest.mark.parametrize("key, table, message", _SIDECAR_FAULTS)
def test_malformed_sidecar_exit_2(tmp_path, capsys, key, table, message):
    corpus = _gen(tmp_path)
    config = json.loads((corpus / "config.json").read_text())
    (corpus / "bad_table.json").write_text(json.dumps(table))
    (corpus / "config.json").write_text(json.dumps({**config, key: "bad_table.json"}))
    reports = tmp_path / "reports"
    assert main(["analyze", "--config", str(corpus / "config.json"),
                 "--out", str(reports)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "bad_table.json" in err
    assert not reports.exists()


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


def test_analyze_unknown_dpi_transport_exit_2(tmp_path, capsys):
    corpus = _gen(tmp_path)
    (corpus / "dpi.json").write_text(json.dumps(
        [{"name": "http", "transport": "TCP", "prefix_bytes": "47455420"}]))
    config = json.loads((corpus / "config.json").read_text())
    config["dpi_catalog"] = "dpi.json"
    (corpus / "config.json").write_text(json.dumps(config))
    code = main(["analyze", "--config", str(corpus / "config.json"), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "signature http: unknown transport 'TCP'" in capsys.readouterr().err


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
    pytest.param(lambda raw: raw["flows"].append("x"), "flow 2: expected an object, got 'x'",
                 id="flow-text"),
    pytest.param(_flow(1, schedule="x"), "flow 1: schedule must be an object, got 'x'",
                 id="schedule-text"),
    pytest.param(lambda raw: raw["flows"].append(
        {**raw["flows"][1], "kind": "backscatter", "dst": "100.64.0.1/8"}),
        "flow 2 (backscatter/modbus): dst must be an IPv4", id="backscatter-dst-host-bits"),
])
def test_gen_malformed_flow_exit_2(tmp_path, capsys, edit, message):
    raw = json.loads(json.dumps(SCENARIO))
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


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


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_analyze_filters_override(tmp_path):
    corpus = _gen(tmp_path)
    reports = tmp_path / "scanner_reports"
    code = main(["analyze", "--config", str(corpus / "config.json"),
                 "--out", str(reports), "--filters", "scanners"])
    assert code == 0
    summary = json.loads((reports / "run_summary.json").read_text())
    assert summary["filters"] == "scanners"
