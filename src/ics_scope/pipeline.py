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
from .capture import REQUEST, CaptureMeta, direction, read_capture
from .classify import (
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
    DpiCatalog,
    SanitizeReport,
    default_catalog,
    is_port_only,
    sanitize_candidate,
)

log = logging.getLogger(__name__)

# Which kept packets' destinations stability.csv covers.
STABILITY_LABELS = (INDUSTRIAL, NON_INDUSTRIAL, "all")

# What a config value of each Python type is called in an error message.
_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}

REPORT_FILES = (
    "sanitize.csv",
    "filters.csv",
    "transitions.csv",
    "domestic.csv",
    "daily.tsv",
    "stability.csv",
    "asn_protocols.csv",
    "scan_overlap.csv",
)


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


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Comma-separated rows, or tab-separated for a .tsv path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t" if path.suffix == ".tsv" else ",",
                            lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _pct(numerator: int, denominator: int) -> float | None:
    if denominator == 0:
        return None
    return round(100.0 * numerator / denominator, 1)


class CandidateStream:
    """One pass over captures from pcap record to sanitize verdict.

    Iterating yields (source, record, dissection) for each kept candidate, in
    capture and file order. Every record is read once, checked once by the
    port-only predicate and dissected once; every candidate gets one verdict.
    The counts are complete once iteration ends: report holds the retention
    and port-only counts per vantage, candidates the candidates per protocol,
    notes the dissector notes and readers one summary per capture.
    """

    def __init__(self, captures: list[CaptureSource], catalog: DpiCatalog):
        self.captures = captures
        self.catalog = catalog
        self.report = SanitizeReport()
        self.candidates: Counter[str] = Counter()
        self.notes: Counter[str] = Counter()
        self.readers: list[dict] = []

    def __iter__(self):
        for source in self.captures:
            reader = read_capture(source.path, source.meta)
            for record in reader:
                if is_port_only(record):
                    self.report.vantage(record.vantage).port_only += 1
                dissection = dissect(record, self.notes)
                if dissection is None:
                    continue
                self.candidates[dissection.protocol] += 1
                if sanitize_candidate(record, dissection, self.catalog, self.report) == KEPT:
                    yield source, record, dissection
            self.readers.append(
                {
                    "path": str(source.path),
                    "vantage": source.meta.vantage,
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
        keys[(record.vantage, source.meta.sample_interval, dissection.protocol,
              direction(record), record.src_ip, record.dst_ip, record.day)] += 1

    filter_counts: Counter[tuple] = Counter()
    daily_counts: Counter[tuple] = Counter()
    stable_days: dict[str, set] = {}
    request_protocols: dict[int, set[str]] = {}
    transition_counts: Counter[tuple[str, str, str]] = Counter()
    domestic_counts: Counter[tuple[str, str, str]] = Counter()
    passive_hosts: dict[str, dict[str, set[str]]] = {}
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
        transition_counts[(protocol, label, transition(src_asn, dst_asn, ingress, egress,
                                                       inputs.topology))] += n
        domestic = is_domestic(src_ip, dst_ip, inputs.geo) if inputs.geo is not None else None
        status = "domestic" if domestic else ("foreign" if domestic is False else "unresolved")
        domestic_counts[(protocol, label, status)] += n

    # --- report bundle -----------------------------------------------------

    sanitize_rows = stream.report.rows()
    _write_csv(
        out / "sanitize.csv",
        ["step", "remaining_count", "remaining_pct"],
        [[r["step"], r["remaining_count"], r["remaining_pct"]] for r in sanitize_rows],
    )
    _write_json(
        out / "sanitize.json",
        {
            "steps": sanitize_rows,
            "per_vantage": {
                vantage: vars(counts)
                for vantage, counts in sorted(stream.report.per_vantage.items())
            },
        },
    )

    family_rows = filter_report(filter_counts)
    _write_csv(
        out / "filters.csv",
        ["protocol", "total_packets", "request_share", "excl_scanners", "excl_hp_ics",
         "excl_hp_all", "excl_both"],
        [
            [row["protocol"], row["total_packets"]]
            + [None if row[column] is None else round(100 * row[column], 1)
               for column in ("request_share", "excl_scanners", "excl_hp_ics", "excl_hp_all",
                              "excl_both")]
            for row in family_rows
        ],
    )
    _write_json(out / "filters.json", family_rows)

    transition_rows = []
    for protocol, label in sorted({(p, l) for p, l, _ in transition_counts}):
        known = sum(transition_counts[(protocol, label, t)] for t in TRANSITIONS)
        transition_rows.append(
            [protocol, label]
            + [_pct(transition_counts[(protocol, label, t)], known) for t in TRANSITIONS]
            + [known, transition_counts[(protocol, label, UNKNOWN_TRANSITION)]]
        )
    _write_csv(
        out / "transitions.csv",
        ["protocol", "label", "member_to_member_pct", "member_to_cone_pct",
         "cone_to_member_pct", "cone_to_cone_pct", "packets", "unknown_packets"],
        transition_rows,
    )

    domestic_rows = []
    for protocol, label in sorted({(p, l) for p, l, _ in domestic_counts}):
        domestic = domestic_counts[(protocol, label, "domestic")]
        foreign = domestic_counts[(protocol, label, "foreign")]
        unresolved = domestic_counts[(protocol, label, "unresolved")]
        resolved = domestic + foreign
        domestic_rows.append(
            [protocol, label, _pct(domestic, resolved), domestic, resolved, unresolved]
        )
    _write_csv(
        out / "domestic.csv",
        ["protocol", "label", "domestic_pct", "domestic_count", "resolved_count",
         "indeterminate_count"],
        domestic_rows,
    )

    daily_rows = []
    for (vantage, protocol), rows in metrics.daily_series(daily_counts).items():
        for row in rows:
            daily_rows.append([row.day, row.total, row.extrapolated_total,
                               f"{vantage}:{protocol}:total"])
            daily_rows.append([row.day, row.industrial, row.extrapolated_industrial,
                               f"{vantage}:{protocol}:industrial"])
    _write_csv(out / "daily.tsv", ["day", "count", "extrapolated", "label"], daily_rows)

    stability = metrics.host_stability(stable_days)
    _write_csv(
        out / "stability.csv",
        ["ip", "first_day", "last_day", "window_days", "active_days", "stability"],
        [
            [h.ip, h.first_day, h.last_day, h.window_days, h.active_day_count,
             round(h.stability, 4)]
            for h in stability
        ],
    )

    per_asn = protocols_per_asn(request_protocols)
    _write_csv(
        out / "asn_protocols.csv",
        ["asn", "distinct_protocols", "protocols", "suspicious"],
        [
            [asn, info["distinct"], ";".join(info["protocols"]), info["suspicious"]]
            for asn, info in per_asn.items()
        ],
    )

    overlap_rows = scan_overlap(passive_hosts, inputs.scan_snapshot)
    _write_csv(
        out / "scan_overlap.csv",
        ["protocol", "role", "passive_hosts", "transport_overlap_pct",
         "application_overlap_pct", "transport_only_senders"],
        [
            [r["protocol"], r["role"], r["passive_hosts"], r["transport_overlap_pct"],
             r["application_overlap_pct"], len(r["transport_only_senders"])]
            for r in overlap_rows
        ],
    )
    _write_json(out / "scan_overlap.json", overlap_rows)

    _write_csv(
        out / "protocol_rank.csv",
        ["rank", "protocol", "packets"],
        [[i + 1, protocol, count]
         for i, (protocol, count) in enumerate(metrics.protocol_rank(stream.candidates))],
    )

    summary = {
        "captures": stream.readers,
        "frames_read": sum(r["frames_read"] for r in stream.readers),
        "records": sum(r["records"] for r in stream.readers),
        "candidates": stream.report.candidates_in,
        "kept": stream.report.after_dpi,
        "filters": config.filters,
        "stability_label": config.stability_label,
        "stability_window": "inclusive of first and last day",
        "dissect_notes": dict(sorted(stream.notes.items())),
    }
    _write_json(out / "run_summary.json", summary)
    return summary
