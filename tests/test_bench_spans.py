"""Every function the benchmark's tracer wraps is called through the
attribute it wraps.

tests/test_bench_targets.py shows that each target of perfbench/spans.py
resolves; a function the program calls through a local name would still
resolve, and its metric would read zero without any error. Here a child
process installs the tracer, with each target under a span or count name of
its own, and runs the analysis of the mixed acceptance scenario on one CPU,
so that no record is counted in a forked child.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ics_scope

from test_bench_targets import KNOWN_MISSING

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Resolvable targets the mixed scenario cannot reach, each with the reason;
# the scenario reaches every one today.
UNREACHED: dict[str, str] = {}

_SCRIPT = """
import json, os, sys
os.sched_getaffinity = lambda pid: {0}
sys.path.insert(0, sys.argv[1])
import spans
own = lambda targets: tuple((m, a, f"{m}.{a}") for m, a, _ in targets)
spans.SPAN_TARGETS, spans.COUNT_TARGETS = own(spans.SPAN_TARGETS), own(spans.COUNT_TARGETS)
spans.READER_TARGET, = own((spans.READER_TARGET,))
tracer = spans.Tracer()
missing = spans.install(tracer)
from ics_scope.pipeline import PipelineConfig, run_analyze
run_analyze(PipelineConfig.from_json(sys.argv[2]), sys.argv[3])
fired = [name for name, n in {**tracer.span_counts(), **tracer.counts}.items() if n]
targets = [*spans.SPAN_TARGETS, *spans.COUNT_TARGETS, spans.READER_TARGET]
print(json.dumps({"targets": [name for _, _, name in targets], "missing": missing,
                  "fired": fired}))
"""


def test_every_resolvable_tracer_target_records(oracle_corpora, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(ics_scope.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(PERFBENCH), str(oracle_corpora["mixed"].config),
         str(tmp_path / "bundle")],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert set(report["missing"]) == KNOWN_MISSING
    resolvable = set(report["targets"]) - KNOWN_MISSING
    assert resolvable - set(report["fired"]) == set(UNREACHED)
