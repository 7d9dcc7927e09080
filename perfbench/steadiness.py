"""Run the benchmark repeatedly and print each end-to-end metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1000] [--sets 1] [--workloads a,b]

For every workload, run.py is started ``--runs`` times, one after another,
each with its own seed (``--first-seed`` upwards). For each metric the
spread is the distance between the first and third quartile of the runs'
values (``statistics.quantiles(values, n=4)``) as a share of their median,
printed next to the metric's bound in BENCHMARK.json. With ``--sets 2`` the
same seeds run twice and the drift between the two sets' medians is
printed too. Raw results go to perfbench/.work/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            runs = []
            for i in range(args.runs):
                started = time.monotonic()
                result = _run(workload, args.first_seed + i)
                runs.append(result)
                print(f"{workload} set {set_index} seed {args.first_seed + i}: "
                      f"{time.monotonic() - started:.0f} s, attempted {result['attempted']}, "
                      f"failed {result['failed']}, correct {result['correct']}", flush=True)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload}")
        print(f"  {'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            medians = []
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                s = (q3 - q1) / medians[-1]
                if name != "setup_s":
                    worst = max(worst, s / bound)
                print(f"  {name:16s} {set_index:3d} {medians[-1]:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{s:7.2%} {bound:6.0%}")
            if len(medians) > 1:
                drift = (medians[-1] - medians[0]) / medians[0]
                print(f"  {name:16s} drift between sets {drift:+.2%}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"  failed share per run: {sorted(shares)}")
    (HERE / ".work").mkdir(exist_ok=True)
    (HERE / ".work" / "steadiness.json").write_text(json.dumps(raw, indent=1) + "\n")
    print(f"\nlargest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
