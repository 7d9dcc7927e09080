"""End-to-end analysis: ingest, dissect, sanitize, classify, enrich, report.

Report writing is deterministic: identical inputs and configuration produce
byte-identical output bundles, which the test suite relies on.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import pickle
import select
import signal
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import metrics
from .capture import (
    PCAP_HEADER_LEN,
    REQUEST,
    CaptureError,
    CaptureMeta,
    direction,
    int_to_ip,
    read_capture,
)
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
    """One pass over one capture, or a byte range of it, from pcap record to
    sanitize verdict.

    Iterating yields (record, dissection) for each kept candidate, in file
    order. Every record is read once, checked once by the port-only
    predicate and dissected once; every candidate gets one verdict. The
    counts are complete once iteration ends: events holds one
    (vantage, verdict) per candidate and one (vantage, PORT_ONLY) per
    port-only record, the vantage coming from the capture's CaptureMeta;
    candidates holds the candidates per protocol, notes the dissector notes
    and reader the PcapReader with its frame counts.
    """

    def __init__(self, source: CaptureSource, catalog: DpiCatalog,
                 start: int = PCAP_HEADER_LEN, stop: int | None = None):
        self.source = source
        self.catalog = catalog
        self.range = (start, stop)
        self.events: Counter[tuple[str, str]] = Counter()
        self.candidates: Counter[str] = Counter()
        self.notes: Counter[str] = Counter()
        self.reader = None

    def __iter__(self):
        events = self.events
        vantage = self.source.meta.vantage
        port_only = (vantage, PORT_ONLY)
        self.reader = read_capture(self.source.path, self.source.meta, *self.range)
        for record in self.reader:
            if is_port_only(record):
                events[port_only] += 1
            dissection = dissect(record, self.notes)
            if dissection is None:
                continue
            self.candidates[dissection.protocol] += 1
            verdict = sanitize_candidate(record, dissection, self.catalog)
            events[(vantage, verdict)] += 1
            if verdict == KEPT:
                yield record, dissection


# The outcome a frame the reader yields counts under in CaptureState.frames;
# a skipped frame counts under its skip reason.
RECORD = "record"


@dataclass
class CaptureState:
    """What the report bundle needs of a byte range of one capture, or of
    several ranges and captures combined.

    Every field is a Counter or a set, so the state of several ranges is
    theirs combined by Counter addition and set union (_combine). Every
    report sorts what it derives from a state, so how the captures were cut
    and the order of combining never show in the bundle.
    """

    events: Counter = field(default_factory=Counter)  # CandidateStream.events
    candidates: Counter = field(default_factory=Counter)  # candidates per protocol
    notes: Counter = field(default_factory=Counter)  # dissector notes
    # Frames read per (capture index in the config, RECORD or skip reason).
    frames: Counter = field(default_factory=Counter)
    # Kept packets per (protocol, direction, classify reasons).
    filter_counts: Counter = field(default_factory=Counter)
    # Kept packets per (vantage, protocol, day, industrial, sample_interval).
    daily_counts: Counter = field(default_factory=Counter)
    # Kept packets per (protocol, label, name), the name a transition or a
    # domestic status: two disjoint sets of names.
    groups: Counter = field(default_factory=Counter)
    # (destination, day) of kept packets under the configured stability label.
    stable_days: set = field(default_factory=set)
    # (source AS, protocol) of kept requests from a resolved source AS.
    request_protocols: set = field(default_factory=set)
    # (protocol, "source" or "destination", address) of kept packets.
    passive_hosts: set = field(default_factory=set)


def capture_state(config: PipelineConfig, inputs: LoadedInputs, index: int,
                  start: int = PCAP_HEADER_LEN, stop: int | None = None) -> CaptureState:
    """Stream the byte range [start, stop) of the capture config.captures[index]
    and derive its complete run state.

    Every report is a function of a kept packet's key, so the stream only
    counts keys; classification and enrichment run once per distinct key.
    """
    source = config.captures[index]
    stream = CandidateStream(source, inputs.dpi_catalog, start, stop)
    keys: Counter[tuple] = Counter()
    for record, dissection in stream:
        keys[(dissection.protocol, direction(record), record.src_ip, record.dst_ip,
              record.day)] += 1
    frames = Counter({(index, reason): n for reason, n in stream.reader.skipped.items()})
    frames[(index, RECORD)] = stream.reader.records_yielded

    vantage, sample_interval = source.meta.vantage, source.meta.sample_interval
    active = FILTER_FAMILIES[config.filters]
    filter_counts: Counter[tuple] = Counter()
    daily_counts: Counter[tuple] = Counter()
    groups: Counter[tuple[str, str, str]] = Counter()
    stable_days: set[tuple] = set()
    request_protocols: set[tuple[int, str]] = set()
    passive_hosts: set[tuple[str, str, int]] = set()
    for key, n in keys.items():
        protocol, packet_direction, src_ip, dst_ip, day = key
        reasons = classify(src_ip, dst_ip, inputs.scanner_registry, inputs.rdns, inputs.honeypots)
        label = label_under(reasons, active)
        filter_counts[(protocol, packet_direction, reasons)] += n
        daily_counts[(vantage, protocol, day, label == INDUSTRIAL, sample_interval)] += n
        if config.stability_label == "all" or label == config.stability_label:
            stable_days.add((dst_ip, day))
        passive_hosts.add((protocol, "source", src_ip))
        passive_hosts.add((protocol, "destination", dst_ip))

        src_asn = inputs.asn_table.lookup(src_ip) if inputs.asn_table else None
        dst_asn = inputs.asn_table.lookup(dst_ip) if inputs.asn_table else None
        if packet_direction == REQUEST and src_asn is not None:
            request_protocols.add((src_asn, protocol))
        ingress = inputs.topology.resolve_member(src_asn, tag=f"{vantage}:in")
        egress = inputs.topology.resolve_member(dst_asn, tag=f"{vantage}:out")
        groups[(protocol, label, transition(src_asn, dst_asn, ingress, egress,
                                            inputs.topology))] += n
        domestic = is_domestic(src_ip, dst_ip, inputs.geo) if inputs.geo is not None else None
        status = "domestic" if domestic else ("foreign" if domestic is False else "unresolved")
        groups[(protocol, label, status)] += n
    return CaptureState(
        events=stream.events, candidates=stream.candidates, notes=stream.notes,
        frames=frames, filter_counts=filter_counts, daily_counts=daily_counts,
        groups=groups, stable_days=stable_days, request_protocols=request_protocols,
        passive_hosts=passive_hosts,
    )


def _combine(states) -> CaptureState:
    """The run state of several ranges: Counters add, sets unite."""
    total = CaptureState()
    for state in states:
        for f in fields(CaptureState):
            combined = getattr(total, f.name)
            if isinstance(combined, set):
                combined |= getattr(state, f.name)
            else:
                combined += getattr(state, f.name)
    return total


def _pieces(captures: list[CaptureSource], count: int) -> list[list[tuple[int, int, int]]]:
    """Cut the record bytes of all captures into count equal pieces.

    The record bytes are every capture's file after its header, end to end
    in config order. Each piece is a list of (capture index, start, stop):
    the file offsets of its part of that capture, for capture_state. A
    capture without record bytes joins the piece its bytes would start in,
    so that every capture is opened and counted. Pieces with no part are
    left out.
    """
    sizes = []
    for source in captures:
        try:
            sizes.append(max(source.path.stat().st_size - PCAP_HEADER_LEN, 0))
        except OSError as exc:
            raise CaptureError(f"cannot open capture {source.path}: {exc}") from exc
    total = sum(sizes)
    # The last piece also holds offset total, where an empty last capture starts.
    bounds = [total * k // count for k in range(count)] + [total + 1]
    pieces: list[list[tuple[int, int, int]]] = [[] for _ in range(count)]
    base = 0
    for index, size in enumerate(sizes):
        for lo, hi, piece in zip(bounds, bounds[1:], pieces):
            if max(lo, base) < min(hi, base + max(size, 1)):
                piece.append((index, PCAP_HEADER_LEN + max(lo - base, 0),
                              PCAP_HEADER_LEN + min(hi - base, size)))
        base += size
    return [piece for piece in pieces if piece]


def _piece_state(piece, config: PipelineConfig, inputs: LoadedInputs) -> CaptureState:
    return _combine(capture_state(config, inputs, *part) for part in piece)


class ChildError(RuntimeError):
    """An analysis child died, or failed other than on a capture, before
    handing back its state."""


def _run_child(piece, config: PipelineConfig, inputs: LoadedInputs, write_fd: int) -> None:
    """The body of a forked child: its piece's state, or the error that
    stopped it, pickled to its pipe. Never returns."""
    status = 1
    try:
        try:
            result = _piece_state(piece, config, inputs)
        except CaptureError as exc:
            result = exc
        except Exception as exc:  # the traceback stays in this process; log it here
            log.exception("analysis child %d failed", os.getpid())
            result = ChildError(f"analysis child {os.getpid()} failed: "
                                f"{type(exc).__name__}: {exc}")
        with open(write_fd, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _fork_pieces(pieces, config: PipelineConfig, inputs: LoadedInputs) -> CaptureState:
    """Each piece's state from a forked child of its own, combined in piece order.

    The children inherit the config and the loaded inputs through fork, so
    the calling process must run no other thread. Each pickles its state to
    its own pipe, whose write end only it holds, and leaves by os._exit;
    this process only waits. A capture error is raised here as the child
    met it, once the pieces before that child's have ended without one; a
    child that dies (killed for memory, say) ends its pipe short, which
    raises ChildError at once. Either way the other children are killed,
    and every child is reaped and every pipe closed before this returns or
    raises.
    """
    pids: dict[int, int] = {}  # piece number -> its child's pid, until reaped
    reads: dict[int, int] = {}  # read end of a child's pipe -> piece number
    states: list[CaptureState | None] = [None] * len(pieces)
    try:
        for number, piece in enumerate(pieces):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                for fd in (read_fd, *reads):
                    os.close(fd)
                _run_child(piece, config, inputs, write_fd)
            os.close(write_fd)
            reads[read_fd] = number
            pids[number] = pid
        chunks: dict[int, list[bytes]] = {fd: [] for fd in reads}
        poller = select.poll()
        for fd in reads:
            poller.register(fd, select.POLLIN)
        # Once a piece has met a capture error only the pieces before it
        # still count, so that the error raised is the one a one-process run
        # meets first.
        error: CaptureError | None = None
        first_error = len(pieces)
        while any(reads[fd] < first_error for fd in chunks):
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 20)
                if chunk:
                    chunks[fd].append(chunk)
                    continue
                poller.unregister(fd)
                number = reads[fd]
                try:
                    result = pickle.loads(b"".join(chunks.pop(fd)))
                except Exception:
                    code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(number), 0)[1])
                    how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                    result = ChildError(f"the analysis child of piece {number} died before "
                                        f"handing back its state ({how})")
                if number > first_error:
                    continue
                if isinstance(result, CaptureError):
                    error, first_error = result, number
                elif isinstance(result, Exception):
                    raise result
                else:
                    states[number] = result
        if error is not None:
            raise error
        return _combine(states)
    except BaseException:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids.values():
            os.waitpid(pid, 0)


def _run_captures(config: PipelineConfig, inputs: LoadedInputs) -> CaptureState:
    """The combined state of every capture.

    The record bytes of all captures are cut into one piece per CPU this
    process may use, each run in a forked child (_fork_pieces); with one
    CPU, or one piece, everything runs in this process.
    """
    pieces = _pieces(config.captures, len(os.sched_getaffinity(0)))
    if len(pieces) <= 1:
        return _combine(_piece_state(piece, config, inputs) for piece in pieces)
    return _fork_pieces(pieces, config, inputs)


def _by_first(pairs) -> dict:
    """{a: {b, ...}} from a set of (a, b) pairs."""
    grouped: dict = {}
    for a, b in pairs:
        grouped.setdefault(a, set()).add(b)
    return grouped


def run_analyze(config: PipelineConfig, out_dir) -> dict:
    """Run the whole pipeline and write the report bundle; returns a summary."""
    inputs = load_inputs(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = _run_captures(config, inputs)

    # --- report bundle -----------------------------------------------------

    groups: dict[tuple[str, str], Counter[str]] = {}
    for (protocol, label, name), n in state.groups.items():
        groups.setdefault((protocol, label), Counter())[name] = n
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
    for (vantage, protocol), rows in metrics.daily_series(state.daily_counts).items():
        for row in rows:
            daily_rows.append([row.day, row.total, row.extrapolated_total,
                               f"{vantage}:{protocol}:total"])
            daily_rows.append([row.day, row.industrial, row.extrapolated_industrial,
                               f"{vantage}:{protocol}:industrial"])

    # Formatted before sorting: the report orders hosts by address string.
    stability = metrics.host_stability(
        {int_to_ip(ip): days for ip, days in _by_first(state.stable_days).items()})
    total, per_vantage = retention(state.events)
    steps = sanitize_rows(total)
    family_rows = filter_report(state.filter_counts)
    share_columns = ["request_share"] + [column for _, column, _ in FAMILIES]
    passive: dict[str, dict[str, set[int]]] = {}
    for protocol, role, ip in state.passive_hosts:
        passive.setdefault(protocol, {}).setdefault(role, set()).add(ip)
    overlap_rows = scan_overlap(passive, inputs.scan_snapshot)
    readers = []
    for index, source in enumerate(config.captures):
        skipped = {reason: n for (i, reason), n in sorted(state.frames.items())
                   if i == index and reason != RECORD}
        records = state.frames[(index, RECORD)]
        readers.append({"path": str(source.path), "vantage": source.meta.vantage,
                        "frames_read": records + sum(skipped.values()), "records": records,
                        "skipped": skipped})
    summary = {
        "captures": readers,
        "frames_read": sum(r["frames_read"] for r in readers),
        "records": sum(r["records"] for r in readers),
        "candidates": total["candidates_in"],
        "kept": total["after_dpi"],
        "filters": config.filters,
        "stability_label": config.stability_label,
        "stability_window": "inclusive of first and last day",
        "dissect_notes": dict(sorted(state.notes.items())),
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
             for asn, info in protocols_per_asn(_by_first(state.request_protocols)).items()],
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
             for i, (protocol, count) in enumerate(metrics.protocol_rank(state.candidates))],
        ),
        "run_summary.json": summary,
    }
    for name, content in bundle.items():
        _write(out / name, content)
    return summary
