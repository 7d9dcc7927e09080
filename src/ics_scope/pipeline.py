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
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from . import metrics
from .capture import (
    _US_PER_DAY,
    META_KEYS,
    PCAP_HEADER_LEN,
    RECORD,
    CaptureError,
    CaptureMeta,
    read_capture,
    utc_day,
)
from .classify import (
    FAMILIES,
    FILTER_FAMILIES,
    INDUSTRIAL,
    NON_INDUSTRIAL,
    HoneypotSets,
    RdnsTable,
    ScannerRegistry,
    default_scanner_registry,
    endpoint_reasons,
    filter_report,
    label_under,
)
from .dissectors import REQUEST, dissect
from .enrich import (
    IxpTopology,
    LpmTable,
    UNKNOWN_TRANSITION,
    TRANSITIONS,
    fabric_side,
    is_domestic,
    load_asn_table,
    load_geo_table,
    load_scan_snapshot,
    protocols_per_asn,
    scan_overlap,
    transition,
)
from .inputs import ConfigError, as_number, choice, fault, known, read_json, typed, writable
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

# The PipelineConfig fields that name an input table.
_TABLE_KEYS = ("scanner_registry", "hp_all", "hp_ics", "rdns", "asn_table", "cone", "geo",
               "scan_snapshot", "dpi_catalog")
_CONFIG_KEYS = ("captures", *_TABLE_KEYS, "filters", "stability_label", "tag_members")
_CAPTURE_KEYS = ("path", *META_KEYS)


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
        where = f"config {path}"
        raw = known(typed(read_json(path), dict, where), _CONFIG_KEYS, where, "config")

        def existing(value, key: str) -> Path:
            if "\x00" in typed(value, str, where, key):
                raise fault(where, key, "a path without a NUL byte", value)
            resolved = path.parent / value
            try:
                found = resolved.exists()
            except OSError as exc:
                raise ConfigError(f"{where}: {key}: {exc}") from None
            if not found:
                raise ConfigError(f"{where}: {key} file not found: {resolved}")
            return resolved

        entries = typed(raw.get("captures", []), list, where, "captures")
        if not entries:
            raise ConfigError(f"{where}: captures must list at least one capture")
        captures = []
        files: dict[tuple[int, int], str] = {}  # (st_dev, st_ino) -> the first key naming it
        for index, entry in enumerate(entries):
            key = f"captures[{index}]"
            entry = known(typed(entry, dict, where, key), _CAPTURE_KEYS, f"{where}: {key}",
                          "capture")
            captures.append(CaptureSource(existing(entry.get("path"), f"{key}.path"),
                                          CaptureMeta.from_entry(entry, where, f"{key}.")))
            found = captures[-1].path.stat()
            if (first := files.setdefault((found.st_dev, found.st_ino), key)) != key:
                raise ConfigError(f"{where}: {first}.path and {key}.path name the same file")
        tag_members = typed(raw.get("tag_members", {}), dict, where, "tag_members")
        return cls(
            captures=captures,
            **{key: None if raw.get(key) is None else existing(raw[key], key)
               for key in _TABLE_KEYS},
            filters=choice(raw.get("filters", "all"), FILTER_FAMILIES, where, "filters"),
            stability_label=choice(raw.get("stability_label", INDUSTRIAL), STABILITY_LABELS,
                                   where, "stability_label"),
            tag_members={k: as_number(v, where, f"tag_members[{k!r}]")
                         for k, v in tag_members.items()},
        )


@dataclass
class LoadedInputs:
    scanner_registry: ScannerRegistry
    honeypots: HoneypotSets
    rdns: RdnsTable
    asn_table: LpmTable
    topology: IxpTopology
    geo: LpmTable
    scan_snapshot: dict
    dpi_catalog: DpiCatalog


class _Step(NamedTuple):
    """How load_inputs fills one LoadedInputs field: loader(*arguments)."""

    name: str
    loader: Callable
    arguments: tuple = ()  # the files it reads first; none for an empty stand-in


# The LoadedInputs fields read from line tables: text files of up to
# millions of rows, each worth a forked child of its own. The JSON sidecars
# are C-parsed and small, and load in the calling process meanwhile.
_LINE_TABLES = frozenset({"honeypots", "rdns", "asn_table", "geo"})


def _unpaired_honeypots():
    raise ConfigError("hp_all and hp_ics must be configured together")


def load_inputs(config: PipelineConfig) -> LoadedInputs:
    """Every input table the config names, or its empty stand-in.

    With more than one CPU each configured line table loads in a forked
    child of its own (_fork_map) while this process loads the JSON sidecars;
    with one CPU everything loads here. Either way a bad table raises the
    ConfigError a one-CPU load meets first: the scanner registry's, then
    those of the steps below, in their order.
    """

    def step(name: str, path: Path | None, loader, empty, *more) -> _Step:
        return _Step(name, loader, (path, *more)) if path else _Step(name, empty)

    # A packet side reads the tag VANTAGE:in or VANTAGE:out of its capture;
    # another tag would resolve nothing.
    tags = [f"{c.meta.vantage}:{side}" for c in config.captures for side in ("in", "out")]
    known(config.tag_members, list(dict.fromkeys(tags)), "config: tag_members", "capture tag")
    # The rDNS loader keeps the projects the registry finds in the names, so
    # the registry, small, loads first and here, before any child forks.
    registry = (ScannerRegistry.from_json(config.scanner_registry) if config.scanner_registry
                else default_scanner_registry())
    if config.hp_all and config.hp_ics:
        honeypots = _Step("honeypots", HoneypotSets.from_files, (config.hp_all, config.hp_ics))
    elif config.hp_all or config.hp_ics:
        honeypots = _Step("honeypots", _unpaired_honeypots)
    else:
        honeypots = _Step("honeypots", HoneypotSets.empty)
    steps = [
        honeypots,
        step("rdns", config.rdns, RdnsTable.from_csv, RdnsTable.empty, registry),
        step("asn_table", config.asn_table, load_asn_table, empty=LpmTable),
        step("topology", config.cone, IxpTopology.from_json, empty=IxpTopology.empty),
        step("geo", config.geo, load_geo_table, empty=LpmTable),
        step("scan_snapshot", config.scan_snapshot, load_scan_snapshot, empty=dict),
        step("dpi_catalog", config.dpi_catalog, DpiCatalog.from_json, empty=default_catalog),
    ]
    fork = len(os.sched_getaffinity(0)) > 1
    tables = _fork_map(lambda s: s.loader(*s.arguments), steps,
                       lambda s: fork and s.name in _LINE_TABLES and bool(s.arguments))
    return LoadedInputs(scanner_registry=registry,
                        **{s.name: table for s, table in zip(steps, tables)})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def write_csv(fh, content, delimiter: str = ",") -> None:
    """A report CSV from (header, rows) to an open text stream."""
    header, rows = content
    writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write(path: Path, content) -> None:
    """A JSON payload, or a CSV (tab-separated for .tsv) from (header, rows)."""
    if path.suffix == ".json":
        text = json.dumps(content, indent=2, sort_keys=True) + "\n"
        writable(path, lambda: path.write_text(text))
        return
    with writable(path, lambda: open(path, "w", newline="")) as fh:
        write_csv(fh, content, "\t" if path.suffix == ".tsv" else ",")


def _columns(rows: list[dict], header: list[str], **convert) -> tuple[list[str], list[list]]:
    """A CSV twin of JSON rows: each row's values in header order, passed
    through convert[column] where the CSV shows a value differently."""
    return header, [[convert[c](row[c]) if c in convert else row[c] for c in header]
                    for row in rows]


def sanitize_table(steps: list[dict]) -> tuple[list[str], list[list]]:
    """sanitize.csv's (header, rows) from sanitize_rows' steps."""
    return _columns(steps, ["step", "remaining_count", "remaining_pct"])


def _share_pct(share: float | None) -> float | None:
    return None if share is None else round(100 * share, 1)


@dataclass
class CaptureState:
    """What the report bundle needs of a byte range of one capture, or of
    several ranges and captures combined.

    Every field is a Counter, or a defaultdict of sets or Counters (factories
    a forked child pickles back) under the key its report reads, so the state
    of several ranges is theirs combined key by key (_combine). Every report
    sorts what it derives from a state, so how the captures were cut and the
    order of combining never show in the bundle.
    """

    # Candidates per (vantage, verdict), port-only records per (vantage, PORT_ONLY).
    events: Counter = field(default_factory=Counter)
    candidates: Counter = field(default_factory=Counter)  # candidates per protocol
    notes: Counter = field(default_factory=Counter)  # dissector notes
    # Frames read per (capture index in the config, RECORD or skip reason).
    frames: Counter = field(default_factory=Counter)
    # Kept packets per (protocol, direction, classify reasons).
    filter_counts: Counter = field(default_factory=Counter)
    # Kept packets per (vantage, protocol, day, industrial, sample_interval).
    daily_counts: Counter = field(default_factory=Counter)
    # Per (protocol, label), kept packets per name, the name a transition or
    # a domestic status: two disjoint sets of names.
    groups: defaultdict = field(default_factory=lambda: defaultdict(Counter))
    # Per day, the destinations of kept packets under the configured
    # stability label: per day, not per address, as most appear on one day.
    stable_days: defaultdict = field(default_factory=lambda: defaultdict(set))
    # Per resolved source AS, the protocols of its kept requests.
    request_protocols: defaultdict = field(default_factory=lambda: defaultdict(set))
    # Per (protocol, "source" or "destination"), the addresses of kept packets.
    passive_hosts: defaultdict = field(default_factory=lambda: defaultdict(set))


def candidate_verdicts(state: CaptureState, source: CaptureSource, index: int,
                       catalog: DpiCatalog, start: int = PCAP_HEADER_LEN, stop: int | None = None):
    """One pass over one capture, or the byte range [start, stop) of it, from
    pcap record to sanitize verdict, counted into state: the one stream every
    reader of a capture drains.

    Yields (position, record, dissection, verdict) for each candidate in file
    order, position being the frame's place in the range, skipped frames
    included. Every record is read once, checked once by the port-only
    predicate and dissected once; every candidate gets one verdict.
    state.notes counts the dissector notes as they happen. The rest is
    counted in locals and added once the reader stops: state.frames counts
    the frames under index, the capture's place in the config, state.events
    each candidate's verdict and each port-only record under the capture's
    vantage, and state.candidates the candidates per protocol.
    """
    notes = state.notes
    vantage = source.meta.vantage
    frames: Counter[str] = Counter()
    verdicts: Counter[tuple[str, str]] = Counter()  # candidates per (protocol, verdict)
    port_only = 0
    for position, (record, outcome) in enumerate(read_capture(source.path, source.meta,
                                                              start, stop)):
        frames[outcome] += 1
        if record is None:
            continue
        if is_port_only(record):
            port_only += 1
        dissection = dissect(record, notes)
        if dissection is None:
            continue
        verdict = sanitize_candidate(record, dissection, catalog)
        verdicts[(dissection.protocol, verdict)] += 1
        yield position, record, dissection, verdict
    for outcome, n in frames.items():
        state.frames[(index, outcome)] += n
    for (protocol, verdict), n in verdicts.items():
        state.candidates[protocol] += n
        state.events[(vantage, verdict)] += n
    if port_only:  # a vantage without a counted event has no figures (retention)
        state.events[(vantage, PORT_ONLY)] += port_only


KEY_BATCH = 65_536  # the distinct keys capture_state holds at most before counting them


def capture_state(config: PipelineConfig, inputs: LoadedInputs, index: int,
                  start: int = PCAP_HEADER_LEN, stop: int | None = None) -> CaptureState:
    """Stream the byte range [start, stop) of the capture config.captures[index]
    and derive its complete run state.

    Every report is a function of a kept packet's key, so the stream only
    counts keys, KEY_BATCH distinct ones at most, and count_keys, which adds
    up over batches, derives the rest from them.
    """
    source = config.captures[index]
    state = CaptureState()
    keys: Counter[tuple] = Counter()
    for _, record, dissection, verdict in candidate_verdicts(state, source, index,
                                                             inputs.dpi_catalog, start, stop):
        if verdict == KEPT:
            key = (dissection.protocol, dissection.direction, record.src_ip, record.dst_ip,
                   record.ts // _US_PER_DAY)
            if key in keys:  # no call per record: Counter's __missing__ is one
                keys[key] += 1
                continue
            if len(keys) == KEY_BATCH:
                count_keys(state, keys, source.meta, config, inputs)
                keys.clear()
            keys[key] = 1
    count_keys(state, keys, source.meta, config, inputs)
    return state


def _address_facts(ip: int, member: int | None, inputs: LoadedInputs) -> tuple:
    """What the reports need of one address on one side of a packet:
    (classify reasons, AS, fabric side, country). member is the member AS
    that side's capture tag names, or None when the tag names none; then the
    topology resolves the member from the address's AS."""
    asn = inputs.asn_table.lookup(ip)
    topology = inputs.topology
    if member is None:
        member = topology.resolve_member(asn)
    return (endpoint_reasons(ip, inputs.scanner_registry, inputs.rdns, inputs.honeypots), asn,
            fabric_side(asn, member, topology), inputs.geo.lookup(ip))


def count_keys(state: CaptureState, keys: Counter, meta: CaptureMeta, config: PipelineConfig,
               inputs: LoadedInputs) -> None:
    """Count a capture's kept packets into state from their keys: packets
    per (protocol, direction, source, destination, UTC day number).

    Two levels, each fact computed once per distinct value it depends on.
    Per side, once: the member AS that its capture tag, vantage:in or
    vantage:out, names in config.tag_members, if any. Per block and side:
    _address_facts (classify reasons, AS, fabric side, country; the side's
    member, or without one the member the topology resolves from the AS),
    each distinct facts tuple interned to an id with one flag, whether its
    reasons label a packet non-industrial. A block is the addresses that
    share their top L bits, L the longest prefix length of the AS table,
    the geo table and the scanner registry: every address of a block has
    the same three longest-prefix matches, so the same facts, unless an
    exact table (rDNS, hp_all, hp_ics) holds it; such an address is a
    block of its own. A /32 prefix in any of the three tables makes every
    block one address. A key is non-industrial exactly when either side's
    flag is set, as label_under asks whether any reason of the union is
    active. Per key only the stability decision and the key's count remain,
    added to its join (protocol, direction, source facts id, destination
    facts id, day); the passive hosts are added per protocol. Per distinct
    join: the reason-set union, the date, the transition and the domestic
    status.
    """
    ids: dict[tuple, int] = {}  # facts tuple -> its id, in order of first sight
    shift = 32 - max(inputs.asn_table.longest, inputs.geo.longest,
                     inputs.scanner_registry.longest)
    rdns, hp_all, hp_ics = inputs.rdns.mapping, inputs.honeypots.hp_all, inputs.honeypots.hp_ics

    def side_ids(position: int, side: str) -> dict[int, int]:
        member = config.tag_members.get(f"{meta.vantage}:{side}")
        by_block: dict[int, int] = {}  # block -> facts id
        out = dict.fromkeys(map(itemgetter(position), keys))  # the side's addresses -> ids
        for ip in out:
            # An exact table's address is the block ~ip, below every ip >> shift.
            block = ~ip if ip in rdns or ip in hp_all or ip in hp_ics else ip >> shift
            if block not in by_block:
                by_block[block] = ids.setdefault(_address_facts(ip, member, inputs), len(ids))
            out[ip] = by_block[block]
        return out

    sources = side_ids(2, "in")
    destinations = side_ids(3, "out")
    facts = list(ids)
    active = FILTER_FAMILIES[config.filters]
    flagged = [label_under(reasons, active) == NON_INDUSTRIAL for reasons, *_ in facts]
    dates = {day: utc_day(day * _US_PER_DAY) for day in {key[4] for key in keys}}

    stable_all = config.stability_label == "all"
    stable_flag = config.stability_label == NON_INDUSTRIAL
    stable_days, passive_hosts = state.stable_days, state.passive_hosts
    joined: dict[tuple, int] = {}
    for (protocol, packet_direction, src_ip, dst_ip, day_number), n in keys.items():
        src, dst = sources[src_ip], destinations[dst_ip]
        join = (protocol, packet_direction, src, dst, day_number)
        joined[join] = joined.get(join, 0) + n
        if stable_all or (flagged[src] or flagged[dst]) == stable_flag:
            stable_days[dates[day_number]].add(dst_ip)
    for protocol in {key[0] for key in keys}:
        passive_hosts[(protocol, "source")].update(key[2] for key in keys if key[0] == protocol)
        passive_hosts[(protocol, "destination")].update(key[3] for key in keys
                                                        if key[0] == protocol)

    vantage, sample_interval = meta.vantage, meta.sample_interval
    filter_counts, daily_counts, groups = state.filter_counts, state.daily_counts, state.groups
    request_protocols = state.request_protocols
    for (protocol, packet_direction, src, dst, day_number), n in joined.items():
        src_reasons, src_asn, src_side, src_country = facts[src]
        dst_reasons, _, dst_side, dst_country = facts[dst]
        industrial = not (flagged[src] or flagged[dst])
        label = INDUSTRIAL if industrial else NON_INDUSTRIAL
        filter_counts[(protocol, packet_direction, src_reasons | dst_reasons)] += n
        daily_counts[(vantage, protocol, dates[day_number], industrial, sample_interval)] += n
        if packet_direction == REQUEST and src_asn is not None:
            request_protocols[src_asn].add(protocol)
        names = groups[(protocol, label)]
        names[transition(src_side, dst_side)] += n
        domestic = is_domestic(src_country, dst_country)
        names["domestic" if domestic else ("foreign" if domestic is False else "unresolved")] += n


def _combine(states) -> CaptureState:
    """The run state of several ranges: Counters add; per key, sets unite, Counters add."""
    total = CaptureState()
    for state in states:
        for f in fields(CaptureState):
            combined, part = getattr(total, f.name), getattr(state, f.name)
            if isinstance(combined, defaultdict):
                for key, value in part.items():
                    combined[key].update(value)
            else:
                combined.update(part)
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


class ChildError(RuntimeError):
    """A forked child died, or failed other than on its input, before
    handing back its result."""


# The errors a forked child hands back for the calling process to raise:
# a bad input, named as a one-process run names it.
_INPUT_ERRORS = (CaptureError, ConfigError)


def _run_child(function, job, write_fd: int) -> None:
    """The body of a forked child: function(job), the input error that
    stopped it or a ChildError naming any other failure, pickling the result
    included, pickled to its pipe. Never returns."""
    status = 1
    try:
        try:
            result = pickle.dumps(function(job), pickle.HIGHEST_PROTOCOL)
        except _INPUT_ERRORS as exc:
            result = pickle.dumps(exc)
        except Exception as exc:  # the traceback stays in this process; log it here
            log.exception("forked child %d failed", os.getpid())
            result = pickle.dumps(ChildError(f"forked child {os.getpid()} failed: "
                                             f"{type(exc).__name__}: {exc}"))
        with open(write_fd, "wb") as pipe:
            pipe.write(result)
        status = 0
    finally:
        os._exit(status)


def _fork_map(function, jobs, in_child) -> list:
    """[function(job) for job in jobs], each job for which in_child(job)
    holds run in a forked child of its own, the others in this process, in
    order, while the children run.

    The children inherit function and their jobs through fork, so the
    calling process must run no other thread. Each pickles its result to
    its own pipe, whose write end only it holds, and leaves by os._exit;
    this process polls the pipes. An input error (CaptureError,
    ConfigError) is raised here as its job met it, once every earlier job
    has ended without one, so it is the error a one-process run meets first;
    a child that dies (killed for memory, say) ends its pipe short, which
    raises ChildError at once. Either way the other children are killed,
    and every child is reaped and every pipe closed before this returns or
    raises.
    """
    pids: dict[int, int] = {}  # job number -> its child's pid, until reaped
    reads: dict[int, int] = {}  # read end of a child's pipe -> job number
    results: list = [None] * len(jobs)
    try:
        for number, job in enumerate(jobs):
            if not in_child(job):
                continue
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
                _run_child(function, job, write_fd)
            os.close(write_fd)
            reads[read_fd] = number
            pids[number] = pid
        # Once a job has met an input error only the jobs before it still
        # count, so that the error raised is the one a one-process run
        # meets first.
        error: Exception | None = None
        first_error = len(jobs)
        for number, job in enumerate(jobs):
            if number not in pids:
                try:
                    results[number] = function(job)
                except _INPUT_ERRORS as exc:
                    error, first_error = exc, number
                    break
        chunks: dict[int, list[bytes]] = {fd: [] for fd in reads}
        poller = select.poll()
        for fd in reads:
            poller.register(fd, select.POLLIN)
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
                    result = ChildError(f"the forked child of job {number} died before "
                                        f"handing back its result ({how})")
                if number > first_error:
                    continue
                if isinstance(result, _INPUT_ERRORS):
                    error, first_error = result, number
                elif isinstance(result, Exception):
                    raise result
                else:
                    results[number] = result
        if error is not None:
            raise error
        return results
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
    process may use, each run in a forked child (_fork_map); with one CPU,
    or one piece, everything runs in this process.
    """
    pieces = _pieces(config.captures, len(os.sched_getaffinity(0)))

    def piece_state(piece) -> CaptureState:
        return _combine(capture_state(config, inputs, *part) for part in piece)

    return _combine(_fork_map(piece_state, pieces, lambda piece: len(pieces) > 1))


def run_analyze(config: PipelineConfig, out_dir) -> dict:
    """Run the whole pipeline and write the report bundle; returns a summary."""
    inputs = load_inputs(config)
    out = Path(out_dir)
    writable(out, lambda: out.mkdir(parents=True, exist_ok=True))
    state = _run_captures(config, inputs)

    # --- report bundle -----------------------------------------------------

    transition_rows = []
    domestic_rows = []
    for (protocol, label), counts in sorted(state.groups.items()):
        known = sum(counts[t] for t in TRANSITIONS)
        transition_rows.append([protocol, label, *(pct(counts[t], known) for t in TRANSITIONS),
                                known, counts[UNKNOWN_TRANSITION]])
        resolved = counts["domestic"] + counts["foreign"]
        domestic_rows.append([protocol, label, pct(counts["domestic"], resolved),
                              counts["domestic"], resolved, counts["unresolved"]])

    total, per_vantage = retention(state.events)
    steps = sanitize_rows(total)
    family_rows = filter_report(state.filter_counts)
    share_columns = ["request_share"] + [column for _, column, _ in FAMILIES]
    overlap_rows = scan_overlap(state.passive_hosts, inputs.scan_snapshot)
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
        "sanitize.csv": sanitize_table(steps),
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
        "daily.tsv": (["day", "count", "extrapolated", "label"],
                      metrics.daily_series(state.daily_counts)),
        "stability.csv": (
            ["ip", "first_day", "last_day", "window_days", "active_days", "stability"],
            metrics.host_stability(state.stable_days),
        ),
        "asn_protocols.csv": (["asn", "distinct_protocols", "protocols", "suspicious"],
                              protocols_per_asn(state.request_protocols)),
        "scan_overlap.csv": _columns(
            overlap_rows,
            ["protocol", "role", "passive_hosts", "transport_overlap_pct",
             "application_overlap_pct", "transport_only_senders"],
            transport_only_senders=len,
        ),
        "scan_overlap.json": overlap_rows,
        "protocol_rank.csv": (["rank", "protocol", "packets"],
                              metrics.protocol_rank(state.candidates)),
        "run_summary.json": summary,
    }
    for name, content in bundle.items():
        _write(out / name, content)
    return summary
