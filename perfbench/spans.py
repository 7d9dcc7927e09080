"""Spans recorded from outside the program, around the calls into each layer.

``install`` replaces the public functions ``run_analyze`` reaches through a
module or class attribute looked up at call time (``pipeline.dissect``,
``sanitize.dpi_cross_check``, ``LpmTable.lookup`` and so on) with wrappers
that record one span per call: a name, a start, an end and the span open
when it began. Spans stay in memory; ``Tracer.write`` writes them out and
``Tracer.self_times`` turns them into per-name self time, a span's duration
minus the time its child spans cover.

Two hot helpers are only counted, not timed: ``ipv4_view`` and
``label_under``. A target a later version of the program no longer has is
skipped, and its metric reads zero.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name); an attribute path "Class.method" wraps a
# method or classmethod on the class.
SPAN_TARGETS = (
    ("ics_scope.pipeline", "load_inputs", "pipeline.load_inputs"),
    ("ics_scope.classify", "ScannerRegistry.from_json", "classify.load"),
    ("ics_scope.classify", "HoneypotSets.from_files", "classify.load"),
    ("ics_scope.classify", "RdnsTable.from_csv", "classify.load"),
    ("ics_scope.pipeline", "load_asn_table", "enrich.load"),
    ("ics_scope.pipeline", "load_geo_table", "enrich.load"),
    ("ics_scope.enrich", "IxpTopology.from_json", "enrich.load"),
    ("ics_scope.pipeline", "load_scan_snapshot", "enrich.load"),
    ("ics_scope.pipeline", "dissect", "dissectors.dissect"),
    ("ics_scope.sanitize", "dissect", "dissectors.dissect"),
    ("ics_scope.pipeline", "sanitize", "sanitize.sanitize"),
    ("ics_scope.sanitize", "dpi_cross_check", "sanitize.dpi"),
    ("ics_scope.pipeline", "count_port_only_by_vantage", "sanitize.port_only"),
    ("ics_scope.pipeline", "classify", "classify.classify"),
    ("ics_scope.pipeline", "filter_report", "classify.filter_report"),
    ("ics_scope.enrich", "LpmTable.lookup", "enrich.lpm_lookup"),
    ("ics_scope.enrich", "IxpTopology.resolve_member", "enrich.topology"),
    ("ics_scope.pipeline", "transition", "enrich.topology"),
    ("ics_scope.metrics", "daily_series", "metrics.aggregate"),
    ("ics_scope.metrics", "host_stability", "metrics.aggregate"),
    ("ics_scope.metrics", "protocol_rank", "metrics.aggregate"),
)
COUNT_TARGETS = (
    ("ics_scope.capture", "ipv4_view", "ipv4_view"),
    ("ics_scope.dissectors", "ipv4_view", "ipv4_view"),
    ("ics_scope.classify", "label_under", "label_under"),
    ("ics_scope.pipeline", "label_under", "label_under"),
)
READER_TARGET = ("ics_scope.pipeline", "read_capture", "capture.read")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            index = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    def count(self, name: str, fn):
        counts = self.counts
        counts[name] += 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def traced_reader(self, name: str, read_capture):
        """Wrap a reader factory so that every record it yields is one span."""
        name_id = self._name_id(name)
        tracer = self

        class TracedReader:
            def __init__(self, reader):
                self._reader = reader

            def __getattr__(self, attr):
                return getattr(self._reader, attr)

            def __iter__(self):
                records = iter(self._reader)
                while True:
                    index = tracer.open(name_id)
                    try:
                        record = next(records)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(index)
                    yield record

        return lambda *args, **kwargs: TracedReader(read_capture(*args, **kwargs))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: durations minus the time child spans cover."""
        child = [0] * len(self.span_start)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[index] - self.span_start[index]
        out: dict[str, float] = {name: 0.0 for name in self.names}
        for index, name_id in enumerate(self.span_name):
            duration = self.span_end[index] - self.span_start[index]
            out[self.names[name_id]] += (duration - child[index]) / 1e9
        return out

    def span_counts(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def write(self, path: Path) -> None:
        """One line per span: name, start_ns, end_ns, parent index (-1 for a root)."""
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\n")
            for index, name_id in enumerate(self.span_name):
                fh.write(f"{self.names[name_id]}\t{self.span_start[index]}\t"
                         f"{self.span_end[index]}\t{self.span_parent[index]}\n")


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
        if owner is None:
            return None, attr
    return owner, attr


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the targets that were missing."""
    missing = []
    for targets, make in ((SPAN_TARGETS, tracer.wrap), (COUNT_TARGETS, tracer.count),
                          ((READER_TARGET,), tracer.traced_reader)):
        for module_name, attr_path, name in targets:
            owner, attr = _resolve(module_name, attr_path)
            if isinstance(owner, type):
                raw = owner.__dict__.get(attr)
            else:
                raw = getattr(owner, attr, None)
            if raw is None:
                missing.append(f"{module_name}.{attr_path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(name, raw.__func__)))
            else:
                setattr(owner, attr, make(name, raw))
    return missing
