"""End-to-end analysis: ingest, dissect, sanitize, classify, enrich, report.

Report writing is deterministic: identical inputs and configuration produce
byte-identical output bundles, which the test suite relies on.
"""

from __future__ import annotations

import csv
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import metrics
from .capture import REQUEST, CaptureMeta, direction, int_to_ip, read_capture
from .classify import (
    FAMILIES,
    FILTER_FAMILIES,
    INDUSTRIAL,
    NON_INDUSTRIAL,
    HoneypotSets,
    RdnsTable,
    ScannerRegistry,
    classify,
    default_scanner_registry,
    filter_report,
    label_under,
)
from .dissectors import dissect
from .enrich import (
    IxpTopology,
    LpmTable,
    UNKNOWN_TRANSITION,
    TRANSITIONS,
    is_domestic,
    load_asn_table,
    load_geo_table,
    load_scan_snapshot,
    protocols_per_asn,
    scan_overlap,
    transition,
)
from .sanitize import (
    KEPT,
    PORT_ONLY,
    DpiCatalog,
    default_catalog,
    is_port_only,
    pct,
    retention,
    sanitize_candidate,
    sanitize_rows,
)

log = logging.getLogger(__name__)

# Which kept packets' destinations stability.csv covers.
STABILITY_LABELS = (INDUSTRIAL, NON_INDUSTRIAL, "all")

# What a config value of each Python type is called in an error message.
_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}

class ConfigError(ValueError):
    """Configuration file missing, unreadable or referencing missing inputs."""


@dataclass
class CaptureSource:
    path: Path
    meta: CaptureMeta


@dataclass
class PipelineConfig:
    captures: list[CaptureSource]
    scanner_registry: Path | None = None
    hp_all: Path | None = None
    hp_ics: Path | None = None
    rdns: Path | None = None
    asn_table: Path | None = None
    cone: Path | None = None
    geo: Path | None = None
    scan_snapshot: Path | None = None
    dpi_catalog: Path | None = None
    filters: str = "all"
    stability_label: str = INDUSTRIAL
    tag_members: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path}: expected a JSON object, got {type(raw).__name__}")
        base = path.parent

        def fault(key: str, expected: str, value) -> ConfigError:
            return ConfigError(f"config {path}: {key} must be {expected}, got {value!r}")

        def typed(value, kind: type, key: str):
            if type(value) is not kind:
                raise fault(key, _JSON_TYPES[kind], value)
            return value

        def choice(key: str, default: str, allowed) -> str:
            value = raw.get(key, default)
            if type(value) is not str or value not in allowed:
                raise fault(key, f"one of {', '.join(sorted(allowed))}", value)
            return value

        def existing(value, key: str) -> Path:
            resolved = base / typed(value, str, key)
            try:
                found = resolved.exists()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"config {path}: {key}: {exc}") from None
            if not found:
                raise ConfigError(f"config {path}: {key} file not found: {resolved}")
            return resolved

        def resolve(key: str) -> Path | None:
            value = raw.get(key)
            return None if value is None else existing(value, key)

        captures = []
        for index, entry in enumerate(typed(raw.get("captures", []), list, "captures")):
            key = f"captures[{index}]"
            if not isinstance(entry, dict) or "path" not in entry:
                raise ConfigError(f"config {path}: {key} has no 'path'")
            pcap = existing(entry["path"], f"{key}.path")
            vantage = typed(entry.get("vantage", "vp0"), str, f"{key}.vantage")
            sample_interval = typed(entry.get("sample_interval", 1), int, f"{key}.sample_interval")
            snap_len = typed(entry.get("snap_len", 65535), int, f"{key}.snap_len")
            try:
                meta = CaptureMeta(vantage, sample_interval, snap_len)
            except ValueError as exc:
                raise ConfigError(f"config {path}: {key}: {exc}") from exc
            captures.append(CaptureSource(path=pcap, meta=meta))
        tag_members = typed(raw.get("tag_members", {}), dict, "tag_members")
        return cls(
            captures=captures,
            scanner_registry=resolve("scanner_registry"),
            hp_all=resolve("hp_all"),
            hp_ics=resolve("hp_ics"),
            rdns=resolve("rdns"),
            asn_table=resolve("asn_table"),
            cone=resolve("cone"),
            geo=resolve("geo"),
            scan_snapshot=resolve("scan_snapshot"),
            dpi_catalog=resolve("dpi_catalog"),
            filters=choice("filters", "all", FILTER_FAMILIES),
            stability_label=choice("stability_label", INDUSTRIAL, STABILITY_LABELS),
            tag_members={k: typed(v, int, f"tag_members[{k!r}]") for k, v in tag_members.items()},
        )


@dataclass
class LoadedInputs:
    scanner_registry: ScannerRegistry
    honeypots: HoneypotSets
    rdns: RdnsTable
    asn_table: LpmTable | None
    topology: IxpTopology
    geo: LpmTable | None
    scan_snapshot: dict
    dpi_catalog: DpiCatalog


def load_inputs(config: PipelineConfig) -> LoadedInputs:
    try:
        scanner_registry = (
            ScannerRegistry.from_json(config.scanner_registry)
            if config.scanner_registry
            else default_scanner_registry()
        )
        if config.hp_all and config.hp_ics:
            honeypots = HoneypotSets.from_files(config.hp_all, config.hp_ics)
        elif config.hp_all or config.hp_ics:
            raise ConfigError("hp_all and hp_ics must be configured together")
        else:
            honeypots = HoneypotSets.empty()
        rdns = RdnsTable.from_csv(config.rdns) if config.rdns else RdnsTable.empty()
        asn_table = load_asn_table(config.asn_table) if config.asn_table else None
        topology = (
            IxpTopology.from_json(config.cone, config.tag_members)
            if config.cone
            else IxpTopology.empty()
        )
        geo = load_geo_table(config.geo) if config.geo else None
        snapshot = load_scan_snapshot(config.scan_snapshot) if config.scan_snapshot else {}
        catalog = DpiCatalog.from_json(config.dpi_catalog) if config.dpi_catalog else default_catalog()
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError(f"failed to load pipeline inputs: {exc}") from exc
    return LoadedInputs(
        scanner_registry=scanner_registry,
        honeypots=honeypots,
        rdns=rdns,
        asn_table=asn_table,
        topology=topology,
        geo=geo,
        scan_snapshot=snapshot,
        dpi_catalog=catalog,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _write(path: Path, content) -> None:
    """A JSON payload, or a CSV (tab-separated for .tsv) from (header, rows)."""
    if path.suffix == ".json":
        path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n")
        return
    header, rows = content
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t" if path.suffix == ".tsv" else ",",
                            lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _columns(rows: list[dict], header: list[str], **convert) -> tuple[list[str], list[list]]:
    """A CSV twin of JSON rows: each row's values in header order, passed
    through convert[column] where the CSV shows a value differently."""
    return header, [[convert[c](row[c]) if c in convert else row[c] for c in header]
                    for row in rows]


def _share_pct(share: float | None) -> float | None:
    return None if share is None else round(100 * share, 1)


class CandidateStream:
    """One pass over captures from pcap record to sanitize verdict.

    Iterating yields (source, record, dissection) for each kept candidate, in
    capture and file order. Every record is read once, checked once by the
    port-only predicate and dissected once; every candidate gets one verdict.
    The counts are complete once iteration ends: events holds one
    (vantage, verdict) per candidate and one (vantage, PORT_ONLY) per
    port-only record, a capture's vantage coming from its CaptureMeta;
    candidates holds the candidates per protocol, notes the dissector notes
    and readers one summary per capture.
    """

    def __init__(self, captures: list[CaptureSource], catalog: DpiCatalog):
        self.captures = captures
        self.catalog = catalog
        self.events: Counter[tuple[str, str]] = Counter()
        self.candidates: Counter[str] = Counter()
        self.notes: Counter[str] = Counter()
        self.readers: list[dict] = []

    def __iter__(self):
        events = self.events
        for source in self.captures:
            vantage = source.meta.vantage
            port_only = (vantage, PORT_ONLY)
            reader = read_capture(source.path, source.meta)
            for record in reader:
                if is_port_only(record):
                    events[port_only] += 1
                dissection = dissect(record, self.notes)
                if dissection is None:
                    continue
                self.candidates[dissection.protocol] += 1
                verdict = sanitize_candidate(record, dissection, self.catalog)
                events[(vantage, verdict)] += 1
                if verdict == KEPT:
                    yield source, record, dissection
            self.readers.append(
                {
                    "path": str(source.path),
                    "vantage": vantage,
                    "frames_read": reader.frames_read,
                    "records": reader.records_yielded,
                    "skipped": dict(sorted(reader.skipped.items())),
                }
            )


def run_analyze(config: PipelineConfig, out_dir) -> dict:
    """Run the whole pipeline and write the report bundle; returns a summary."""
    inputs = load_inputs(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    active = FILTER_FAMILIES[config.filters]

    # Every report is a function of a kept packet's key, so the stream only
    # counts keys; classification and enrichment run once per distinct key.
    stream = CandidateStream(config.captures, inputs.dpi_catalog)
    keys: Counter[tuple] = Counter()
    for source, record, dissection in stream:
        keys[(source.meta.vantage, source.meta.sample_interval, dissection.protocol,
              direction(record), record.src_ip, record.dst_ip, record.day)] += 1

    filter_counts: Counter[tuple] = Counter()
    daily_counts: Counter[tuple] = Counter()
    stable_days: dict[int, set] = {}
    request_protocols: dict[int, set[str]] = {}
    # Per (protocol, label): packets per transition and per domestic status,
    # two disjoint sets of names in one Counter.
    groups: dict[tuple[str, str], Counter[str]] = {}
    passive_hosts: dict[str, dict[str, set[int]]] = {}
    for key, n in keys.items():
        vantage, sample_interval, protocol, packet_direction, src_ip, dst_ip, day = key
        reasons = classify(src_ip, dst_ip, inputs.scanner_registry, inputs.rdns, inputs.honeypots)
        label = label_under(reasons, active)
        filter_counts[(protocol, packet_direction, reasons)] += n
        daily_counts[(vantage, protocol, day, label == INDUSTRIAL, sample_interval)] += n
        if config.stability_label == "all" or label == config.stability_label:
            stable_days.setdefault(dst_ip, set()).add(day)
        hosts = passive_hosts.setdefault(protocol, {"source": set(), "destination": set()})
        hosts["source"].add(src_ip)
        hosts["destination"].add(dst_ip)

        src_asn = inputs.asn_table.lookup(src_ip) if inputs.asn_table else None
        dst_asn = inputs.asn_table.lookup(dst_ip) if inputs.asn_table else None
        if packet_direction == REQUEST and src_asn is not None:
            request_protocols.setdefault(src_asn, set()).add(protocol)
        ingress = inputs.topology.resolve_member(src_asn, tag=f"{vantage}:in")
        egress = inputs.topology.resolve_member(dst_asn, tag=f"{vantage}:out")
        counts = groups.setdefault((protocol, label), Counter())
        counts[transition(src_asn, dst_asn, ingress, egress, inputs.topology)] += n
        domestic = is_domestic(src_ip, dst_ip, inputs.geo) if inputs.geo is not None else None
        status = "domestic" if domestic else ("foreign" if domestic is False else "unresolved")
        counts[status] += n

    # --- report bundle -----------------------------------------------------

    transition_rows = []
    domestic_rows = []
    for (protocol, label), counts in sorted(groups.items()):
        known = sum(counts[t] for t in TRANSITIONS)
        transition_rows.append([protocol, label, *(pct(counts[t], known) for t in TRANSITIONS),
                                known, counts[UNKNOWN_TRANSITION]])
        resolved = counts["domestic"] + counts["foreign"]
        domestic_rows.append([protocol, label, pct(counts["domestic"], resolved),
                              counts["domestic"], resolved, counts["unresolved"]])

    daily_rows = []
    for (vantage, protocol), rows in metrics.daily_series(daily_counts).items():
        for row in rows:
            daily_rows.append([row.day, row.total, row.extrapolated_total,
                               f"{vantage}:{protocol}:total"])
            daily_rows.append([row.day, row.industrial, row.extrapolated_industrial,
                               f"{vantage}:{protocol}:industrial"])

    # Formatted before sorting: the report orders hosts by address string.
    stability = metrics.host_stability({int_to_ip(ip): days for ip, days in stable_days.items()})
    total, per_vantage = retention(stream.events)
    steps = sanitize_rows(total)
    family_rows = filter_report(filter_counts)
    share_columns = ["request_share"] + [column for _, column, _ in FAMILIES]
    overlap_rows = scan_overlap(passive_hosts, inputs.scan_snapshot)
    summary = {
        "captures": stream.readers,
        "frames_read": sum(r["frames_read"] for r in stream.readers),
        "records": sum(r["records"] for r in stream.readers),
        "candidates": total["candidates_in"],
        "kept": total["after_dpi"],
        "filters": config.filters,
        "stability_label": config.stability_label,
        "stability_window": "inclusive of first and last day",
        "dissect_notes": dict(sorted(stream.notes.items())),
    }
    bundle = {
        "sanitize.csv": _columns(steps, ["step", "remaining_count", "remaining_pct"]),
        "sanitize.json": {"steps": steps, "per_vantage": per_vantage},
        "filters.csv": _columns(family_rows, ["protocol", "total_packets", *share_columns],
                                **dict.fromkeys(share_columns, _share_pct)),
        "filters.json": family_rows,
        "transitions.csv": (
            ["protocol", "label", "member_to_member_pct", "member_to_cone_pct",
             "cone_to_member_pct", "cone_to_cone_pct", "packets", "unknown_packets"],
            transition_rows,
        ),
        "domestic.csv": (
            ["protocol", "label", "domestic_pct", "domestic_count", "resolved_count",
             "indeterminate_count"],
            domestic_rows,
        ),
        "daily.tsv": (["day", "count", "extrapolated", "label"], daily_rows),
        "stability.csv": (
            ["ip", "first_day", "last_day", "window_days", "active_days", "stability"],
            [[h.ip, h.first_day, h.last_day, h.window_days, h.active_day_count,
              round(h.stability, 4)] for h in stability],
        ),
        "asn_protocols.csv": (
            ["asn", "distinct_protocols", "protocols", "suspicious"],
            [[asn, info["distinct"], ";".join(info["protocols"]), info["suspicious"]]
             for asn, info in protocols_per_asn(request_protocols).items()],
        ),
        "scan_overlap.csv": _columns(
            overlap_rows,
            ["protocol", "role", "passive_hosts", "transport_overlap_pct",
             "application_overlap_pct", "transport_only_senders"],
            transport_only_senders=len,
        ),
        "scan_overlap.json": overlap_rows,
        "protocol_rank.csv": (
            ["rank", "protocol", "packets"],
            [[i + 1, protocol, count]
             for i, (protocol, count) in enumerate(metrics.protocol_rank(stream.candidates))],
        ),
        "run_summary.json": summary,
    }
    for name, content in bundle.items():
        _write(out / name, content)
    return summary
