import json

from ics_scope import __version__
from ics_scope.cli import main
from ics_scope.pipeline import REPORT_FILES
from ics_scope.trafficgen import write_pcap

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


def test_gen_and_analyze_roundtrip(tmp_path, capsys):
    corpus = _gen(tmp_path)
    reports = tmp_path / "reports"
    code = main(["analyze", "--config", str(corpus / "config.json"), "--out", str(reports)])
    assert code == 0
    for name in REPORT_FILES:
        assert (reports / name).exists(), name
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


def test_dissect_golden_modbus(tmp_path, capsys, golden_dir):
    code = main(["dissect", str(golden_dir / "modbus_wellformed.pcap")])
    assert code == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 1
    assert lines[0]["protocol"] == "modbus"
    assert lines[0]["function_code"] == 3
    assert lines[0]["action"] == "read_holding_registers"


def test_dissect_arp_only_pcap_empty(tmp_path, capsys):
    arp = (b"\xff" * 6 + b"\x02\x00\x00\x00\x00\x02" + b"\x08\x06" + b"\x00" * 28)
    path = tmp_path / "arp.pcap"
    write_pcap(path, [(0, arp)])
    assert main(["dissect", str(path)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_dissect_reports_malformed(tmp_path, capsys, golden_dir):
    assert main(["dissect", str(golden_dir / "iec104_malformed.pcap")]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines and all(l["verdict"] == "malformed" for l in lines)


def test_dissect_unreadable_exit_2(tmp_path, capsys):
    assert main(["dissect", str(tmp_path / "missing.pcap")]) == 2


def test_gen_malformed_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_gen_out_of_range_schedule_exit_2(tmp_path, capsys):
    raw = json.loads(json.dumps(SCENARIO))
    raw["flows"][0]["schedule"]["end_day"] = "2019-01-01"
    bad = tmp_path / "range.json"
    bad.write_text(json.dumps(raw))
    assert main(["gen", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "outside corpus range" in capsys.readouterr().err


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
