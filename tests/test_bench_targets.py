"""Every function the benchmark's tracer wraps still exists under its name.

perfbench/spans.py names its targets as (module, attribute) pairs and
silently skips a missing one, so a rename in the program would turn a
per-layer metric into zero. The targets are resolved here without calling
spans.install, which would replace the program's functions for the rest of
the session.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Targets the program no longer has; their metrics read zero.
KNOWN_MISSING = {
    "ics_scope.pipeline.classify",  # the pipeline classifies per address: endpoint_reasons
    "ics_scope.pipeline.count_port_only_by_vantage",
    "ics_scope.pipeline.sanitize",
    "ics_scope.sanitize.dissect",
}


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, attr_path: str) -> bool:
    owner = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        owner = getattr(owner, attr, None)
        if owner is None:
            return False
    return True


def test_every_tracer_target_resolves():
    spans = _spans()
    targets = [*spans.SPAN_TARGETS, *spans.COUNT_TARGETS, spans.READER_TARGET]
    missing = {f"{module}.{attr}" for module, attr, _ in targets if not _resolves(module, attr)}
    assert missing == KNOWN_MISSING
