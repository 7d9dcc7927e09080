"""One measured analysis, run in a fresh process by run.py.

    python3 child.py --src SRC --config CONFIG --out BUNDLE_DIR --trace 0|1 [--spans FILE]

One ``run_analyze`` call is timed from config in to every bundle file
written. Set-up is ``PipelineConfig.from_json``, timed just before the call,
plus the ``load_inputs`` call that ``run_analyze`` makes, timed by a thin
wrapper around ``pipeline.load_inputs``: the table loading a run cannot
avoid, measured where the run pays it. Should a later ``run_analyze`` no
longer call ``pipeline.load_inputs``, set-up is timed after the run by a
call of its own. With ``--trace 1`` the program's layers are wrapped by
``spans.install`` before the call. A ``probe.Probe`` samples the host's
speed during the call; the harmonic mean of its samples goes out with the raw wall times, so that
run.py can rescale them. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from probe import Probe

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def peak_rss_mb() -> float:
    # VmHWM belongs to this process image alone; getrusage's maxrss can carry
    # the parent's peak across fork and exec.
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    from ics_scope import pipeline

    load: dict[str, float] = {}
    real_load = pipeline.load_inputs

    def timed_load(config):
        rss_before, started = rss_mb(), time.perf_counter()
        inputs = real_load(config)
        load.setdefault("s", time.perf_counter() - started)
        load.setdefault("rss_mb", rss_mb() - rss_before)
        return inputs

    pipeline.load_inputs = timed_load

    run = pipeline.run_analyze
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
        run = tracer.wrap("pipeline.run_analyze", run)

    run_probe = Probe()
    with run_probe:
        started, cpu_started = time.perf_counter(), time.process_time()
        config = pipeline.PipelineConfig.from_json(args.config)
        config_s = time.perf_counter() - started
        summary = run(config, Path(args.out))
        run_s = time.perf_counter() - started
        run_cpu_s = time.process_time() - cpu_started
        if not load:
            timed_load(config)

    result = {
        "setup_s": config_s + load["s"],
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "run_probe_us": run_probe.mean_us(),
        "records": summary["records"],
        "kept": summary["kept"],
        "peak_rss_mb": peak_rss_mb(),
        "inputs_rss_mb": load["rss_mb"],
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["span_counts"] = dict(tracer.span_counts())
        result["counts"] = dict(tracer.counts)
        result["missing_targets"] = missing
        if args.spans:
            tracer.write(Path(args.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
