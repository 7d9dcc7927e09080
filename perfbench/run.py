"""Oracle-checked benchmark of ics_scope.pipeline.run_analyze.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all       # every workload, both modes, as a table

One driver process (this one) builds the workload's inputs from the seed,
recomputes the expected bundle with checker.py, then starts one fresh child
process after another (child.py), never two at once, until the run length
is used up. Each child is one operation: one timed ``run_analyze`` call. Its
bundle is checked against the reference and must be byte-identical to the
first bundle of the run; a bundle that fails either check is a failed
operation.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced children alternate and the per-layer metrics are
printed. The last line of standard output is one JSON object.

Every time in a metric is rescaled to a reference host speed (probe.py): a
child's wall time times ``probe.REF_US`` over the harmonic mean of the
host-speed probe's samples taken during that same call. The raw wall times
are printed per operation, and the raw throughput is a per-layer metric.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import probe
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEFAULT_SECONDS = 30
CHILD_TIMEOUT_S = 150
MIN_ROUNDS = {0: 3, 1: 1}

END_TO_END = {"records_per_s": "records/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _rescaled(seconds: float, probe_us: float) -> float:
    """A wall time as it would read on a host where the probe takes probe.REF_US."""
    return seconds * probe.REF_US / probe_us


def _records_per_s(r) -> float:
    return r["records"] / _rescaled(r["run_s"], r["run_probe_us"])


def _self(name):
    return lambda r: _rescaled(r["self_s"].get(name, 0.0), r["run_probe_us"])


def _per(count_of, base):
    return lambda r: count_of(r) / r[base] if r[base] else 0.0


PER_LAYER = {
    "capture.read_s": ("s", _self("capture.read")),
    "capture.ipv4_view_per_record": ("calls/record", _per(
        lambda r: r["counts"].get("ipv4_view", 0), "records")),
    "dissectors.dissect_s": ("s", _self("dissectors.dissect")),
    "dissectors.dissect_per_record": ("calls/record", _per(
        lambda r: r["span_counts"].get("dissectors.dissect", 0), "records")),
    "sanitize.sanitize_s": ("s", _self("sanitize.sanitize")),
    "sanitize.dpi_s": ("s", _self("sanitize.dpi")),
    "sanitize.port_only_s": ("s", _self("sanitize.port_only")),
    "classify.classify_s": ("s", _self("classify.classify")),
    "classify.filter_report_s": ("s", _self("classify.filter_report")),
    "classify.label_under_per_kept": ("calls/kept", _per(
        lambda r: r["counts"].get("label_under", 0), "kept")),
    "classify.load_s": ("s", _self("classify.load")),
    "enrich.load_s": ("s", _self("enrich.load")),
    "enrich.lpm_lookup_s": ("s", _self("enrich.lpm_lookup")),
    "enrich.lpm_lookups_per_kept": ("calls/kept", _per(
        lambda r: r["span_counts"].get("enrich.lpm_lookup", 0), "kept")),
    "enrich.topology_s": ("s", _self("enrich.topology")),
    "metrics.aggregate_s": ("s", _self("metrics.aggregate")),
    "pipeline.inputs_rss_mb": ("MB", lambda r: r["inputs_rss_mb"]),
    "pipeline.self_s": ("s", _self("pipeline.run_analyze")),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _run_child(config: Path, out: Path, traced: bool, spans: Path) -> tuple[dict | None, str]:
    if out.exists():
        shutil.rmtree(out)
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), "--config", str(config),
           "--out", str(out), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def _same_bundle(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (SRC / "ics_scope" / "pipeline.py").is_file():
        raise BenchError(f"no ics_scope sources under {SRC}")
    sys.path.insert(0, str(SRC))
    corpus = workloads.prepare(workload, seed, WORK)
    manifest = json.loads((corpus / "corpus.json").read_text())
    config = corpus / "input" / "config.json"
    reference = checker.expected_bundle(config, corpus / "gen" / "ground_truth.jsonl",
                                        corpus / "gen")
    print(f"workload={workload} seed={seed} generator_seed={manifest['seed']} trace={trace} "
          f"pcap_sha256={manifest['pcap_sha256'][:16]} "
          f"truth_sha256={manifest['ground_truth_sha256'][:16]}")

    bundles = WORK / "bundles" / f"{workload}-s{seed}"
    if bundles.exists():
        shutil.rmtree(bundles)
    bundles.mkdir(parents=True)
    spans_path = WORK / f"spans-{workload}.tsv"
    first_bundle = None
    attempted = failed = 0
    correct = True
    results: dict[bool, list[dict]] = {False: [], True: []}
    round_kinds = (False, True) if trace else (False,)
    started = time.monotonic()
    rounds = 0
    while True:
        round_started = time.monotonic()
        for traced in round_kinds:
            out = bundles / f"op{attempted}"
            attempted += 1
            result, error = _run_child(config, out, traced, spans_path)
            if result is None:
                failed += 1
                print(f"  op {attempted}: FAILED {error}")
                continue
            errors = checker.check_bundle(out, reference)
            if first_bundle is None and not errors:
                first_bundle = out
            elif first_bundle is not None and not _same_bundle(first_bundle, out):
                errors.append(f"bundle differs from {first_bundle.name}")
            if errors:
                failed += 1
                correct = False
                print(f"  op {attempted}: WRONG " + "; ".join(errors[:5]))
                continue
            results[traced].append(result)
            print(f"  op {attempted}: {'traced ' if traced else ''}run_s={result['run_s']:.4f} "
                  f"run_cpu_s={result['run_cpu_s']:.4f} "
                  f"probe_us={result['run_probe_us']:.1f} setup_s={result['setup_s']:.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f}")
            if out != first_bundle:
                shutil.rmtree(out)
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS[trace] and now - started + (now - round_started) > seconds:
            break

    metrics: dict[str, dict] = {}
    plain = results[False]
    if not plain or (trace and not results[True]):
        raise BenchError(f"no operation of {workload} succeeded")
    if trace:
        traced_runs = results[True]
        for name, (unit, value) in PER_LAYER.items():
            metrics[name] = {"value": statistics.median(value(r) for r in traced_runs),
                             "unit": unit}
        run_s = {kind: statistics.median(_rescaled(r["run_s"], r["run_probe_us"]) for r in runs)
                 for kind, runs in results.items()}
        metrics["trace.overhead_s"] = {"value": run_s[True] - run_s[False], "unit": "s"}
        metrics["pipeline.wall_records_per_s"] = {
            "value": statistics.median(r["records"] / r["run_s"] for r in plain),
            "unit": "records/s"}
        metrics["host.probe_us"] = {
            "value": statistics.median(r["run_probe_us"] for r in plain), "unit": "us"}
        missing = sorted({m for r in traced_runs for m in r["missing_targets"]})
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}")
    else:
        per_op = {
            "records_per_s": [_records_per_s(r) for r in plain],
            "setup_s": [_rescaled(r["setup_s"], r["run_probe_us"]) for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        for name, values in per_op.items():
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END[name]}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  operations attempted={attempted} failed={failed} "
          f"records={plain[0]['records']} kept={plain[0]['kept']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _table(seconds: float) -> int:
    for workload in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEEDS[workload]
        for trace in (0, 1):
            result = measure(workload, seed, seconds, trace)
            if not result["correct"] or result["failed"]:
                print(f"{workload}: {result['failed']} of {result['attempted']} "
                      f"operations failed", file=sys.stderr)
                return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, help="workload seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return _table(args.seconds)
        seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        result = measure(args.workload, seed, args.seconds, args.trace)
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
