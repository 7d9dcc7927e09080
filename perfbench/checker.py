"""Independent check of an ics-scope report bundle.

Nothing here imports ics_scope. The expected bundle is recomputed from
three sources only:

* the capture files named in the analysed config, walked record by record
  (pcap record headers, Ethernet, IPv4 addresses, transport ports);
* the generator's ``ground_truth.jsonl``, one row per captured packet with
  its protocol, direction, sanitize verdict, label and filter reasons;
* the generator's unpadded sidecar tables. Every endpoint /24 is present
  in them, so an exact /24 match is the reference for AS and country.

``expected_bundle`` builds every table of the bundle; ``check_bundle``
compares a bundle with it cell by cell and also checks properties that
must hold whatever the numbers are: extrapolation is linear in the count,
sanitize counts never grow from one step to the next, and the transition
shares of the known packets sum to 100 within rounding.
"""

from __future__ import annotations

import csv
import json
import struct
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

ICMP, TCP, UDP = 1, 6, 17
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()

# Registered ICS ports (IANA); the naive port-only detector matches any of
# them on either side, whatever the transport.
ICS_PORTS = frozenset({102, 502, 2221, 2222, 2404, 5094, 20000, 44818, *range(47808, 47824)})

FILTER_FAMILIES = {
    "scanners": {"scanner_prefix", "scanner_rdns"},
    "hp-ics": {"hp_ics"},
    "hp-all": {"hp_all"},
    "all": {"scanner_prefix", "scanner_rdns", "hp_all", "hp_ics"},
}
REPORT_FAMILIES = (
    ("excl_scanners", {"scanner_prefix", "scanner_rdns"}),
    ("excl_hp_ics", {"hp_ics"}),
    ("excl_hp_all", {"hp_all"}),
    ("excl_both", FILTER_FAMILIES["all"]),
)
RETENTION = ("candidates_in", "after_tunnel", "after_malformed", "after_dpi", "port_only")
TRANSITIONS = ("member_to_member", "member_to_cone", "cone_to_member", "cone_to_cone")


@dataclass
class Reference:
    """Expected content of each bundle file, and each vantage's sample intervals."""

    files: dict
    intervals: dict[str, set[int]]


@dataclass(frozen=True)
class Packet:
    ts: int
    src: str
    dst: str
    proto: int
    sport: int
    dport: int
    vantage: str
    interval: int


def _ip(raw: bytes) -> str:
    return f"{raw[0]}.{raw[1]}.{raw[2]}.{raw[3]}"


def pcap_records(data: bytes):
    """(record bytes with header, seconds, fraction in microseconds, frame) per record."""
    magic = data[:4]
    if magic in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1"):
        header = struct.Struct("<IIII")
    elif magic in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d"):
        header = struct.Struct(">IIII")
    else:
        raise ValueError("not a classic pcap")
    nanos = magic in (b"\x4d\x3c\xb2\xa1", b"\xa1\xb2\x3c\x4d")
    offset = 24
    while offset < len(data):
        sec, frac, incl_len, _ = header.unpack_from(data, offset)
        end = offset + 16 + incl_len
        if end > len(data):
            raise ValueError(f"record at byte {offset} runs past the end of the file")
        yield data[offset:end], sec, frac // 1000 if nanos else frac, data[offset + 16:end]
        offset = end


def walk_pcap(path: Path, vantage: str, interval: int) -> list[Packet]:
    """Every record of a classic Ethernet/IPv4 pcap, in file order."""
    packets = []
    for _, sec, micros, frame in pcap_records(Path(path).read_bytes()):
        if frame[12:14] != b"\x08\x00":
            raise ValueError(f"{path}: record {len(packets)} is not an IPv4 frame")
        ip = frame[14:]
        proto = ip[9]
        sport = dport = 0
        if proto in (TCP, UDP):
            sport, dport = struct.unpack_from(">HH", ip, (ip[0] & 0x0F) * 4)
        packets.append(Packet(sec * 1_000_000 + micros, _ip(ip[12:16]), _ip(ip[16:20]), proto,
                              sport, dport, vantage, interval))
    return packets


def _day(ts_us: int) -> date:
    return date.fromordinal(_EPOCH_ORDINAL + ts_us // 86_400_000_000)


def _slash24(ip: str) -> str:
    return ip.rsplit(".", 1)[0]


def _pct(numerator: int, denominator: int):
    return None if denominator == 0 else round(100.0 * numerator / denominator, 1)


def _cell(value) -> str:
    """Bundle cell rendering: blank for none, one decimal for fractions."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _rows(rows) -> list[list[str]]:
    return [[_cell(v) for v in row] for row in rows]


def _read_tables(tables: Path):
    asn = {}
    for line in (tables / "asn.txt").read_text().splitlines():
        prefix, value = line.split()
        net, plen = prefix.split("/")
        if plen != "24":
            raise ValueError("reference prefix table must hold /24 prefixes only")
        asn[_slash24(net)] = int(value)
    geo = {}
    with open(tables / "geo.csv", newline="") as fh:
        for prefix, country in csv.reader(fh):
            geo[_slash24(prefix.split("/")[0])] = country.strip().upper()
    cone = {int(m): set(ases) for m, ases in json.loads((tables / "cone.json").read_text()).items()}
    snapshot = json.loads((tables / "scan_snapshot.json").read_text())
    return asn, geo, cone, snapshot


def expected_bundle(config_path: Path, truth_path: Path, tables: Path) -> Reference:
    """Recompute every table of the bundle ``run_analyze`` writes for a config."""
    config_path = Path(config_path)
    config = json.loads(config_path.read_text())
    packets: list[Packet] = []
    captures = []
    for entry in config["captures"]:
        walked = walk_pcap(config_path.parent / entry["path"], entry.get("vantage", "vp0"),
                           int(entry.get("sample_interval", 1)))
        captures.append(len(walked))
        packets.extend(walked)
    with open(truth_path) as fh:
        truth = [json.loads(line) for line in fh]
    if len(truth) != len(packets):
        raise ValueError(f"{len(packets)} captured packets but {len(truth)} truth rows")

    asn, geo, cone, snapshot = _read_tables(Path(tables))
    active = FILTER_FAMILIES[config.get("filters", "all")]
    stability_label = config.get("stability_label", "industrial")
    tag_members = {k: int(v) for k, v in config.get("tag_members", {}).items()}
    members = set(cone)

    candidates = [(p, t) for p, t in zip(packets, truth) if t["protocol"] is not None]
    kept = [(p, t) for p, t in candidates if t["sanitize"] == "kept"]

    # Sanitize retention, overall and per vantage.
    per_vantage: dict[str, dict[str, int]] = defaultdict(lambda: dict.fromkeys(RETENTION, 0))
    for p, t in candidates:
        counts = per_vantage[p.vantage]
        counts["candidates_in"] += 1
        verdict = t["sanitize"]
        counts["after_tunnel"] += verdict != "dropped_tunnel"
        counts["after_malformed"] += verdict not in ("dropped_tunnel", "dropped_malformed")
        counts["after_dpi"] += verdict == "kept"
    for p in packets:
        if p.proto in (TCP, UDP) and (p.sport in ICS_PORTS or p.dport in ICS_PORTS):
            per_vantage[p.vantage]["port_only"] += 1
    total = {k: sum(v[k] for v in per_vantage.values()) for k in RETENTION}
    cand = total["candidates_in"]
    steps = [
        {"step": "candidates", "remaining_count": cand, "remaining_pct": _pct(cand, cand)},
        {"step": "tunnel_removal", "remaining_count": total["after_tunnel"],
         "remaining_pct": _pct(total["after_tunnel"], cand)},
        {"step": "malformed_removal", "remaining_count": total["after_malformed"],
         "remaining_pct": _pct(total["after_malformed"], cand)},
        {"step": "dpi_removal", "remaining_count": total["after_dpi"],
         "remaining_pct": _pct(total["after_dpi"], cand)},
        {"step": "port_only_baseline", "remaining_count": total["port_only"],
         "remaining_pct": _pct(total["port_only"], total["after_dpi"])},
    ]

    def kinds(t) -> set[str]:
        return {tag.split(":", 1)[0] for tag in (t["reasons"] or [])}

    def label(t, family) -> str:
        return "non_industrial" if kinds(t) & family else "industrial"

    # Filter families per protocol, total row first.
    filter_rows = []
    protocols = sorted({t["protocol"] for _, t in kept})
    for protocol in ["total"] + protocols:
        subset = [t for _, t in kept if protocol == "total" or t["protocol"] == protocol]
        requests = sum(t["direction"] == "request" for t in subset)
        replies = sum(t["direction"] == "reply" for t in subset)
        row = {"protocol": protocol, "total_packets": len(subset), "requests": requests,
               "replies": replies,
               "request_share": requests / (requests + replies) if requests + replies else None}
        for column, family in REPORT_FAMILIES:
            industrial = sum(label(t, family) == "industrial" for t in subset)
            row[column] = industrial / len(subset) if subset else None
            row[column + "_count"] = industrial
        filter_rows.append(row)

    def share(value):
        return None if value is None else round(100 * value, 1)

    # Enrichment: exact /24 lookups in the unpadded tables.
    def owner(asn_value, tag):
        if tag in tag_members:
            return tag_members[tag]
        if asn_value is None:
            return None
        if asn_value in members:
            return asn_value
        owners = sorted(m for m, c in cone.items() if asn_value in c)
        return owners[0] if owners else None

    def side(asn_value, member):
        if asn_value is None or member is None:
            return None
        if asn_value == member:
            return "member"
        if asn_value in cone.get(member, ()):
            return "cone"
        return None

    transitions: Counter = Counter()
    domestic: Counter = Counter()
    daily: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
    stability: dict[str, set[date]] = defaultdict(set)
    asn_protocols: dict[int, set[str]] = defaultdict(set)
    passive: dict[str, dict[str, set[str]]] = {}
    for p, t in kept:
        protocol, lab = t["protocol"], label(t, active)
        src_asn, dst_asn = asn.get(_slash24(p.src)), asn.get(_slash24(p.dst))
        src_side = side(src_asn, owner(src_asn, f"{p.vantage}:in"))
        dst_side = side(dst_asn, owner(dst_asn, f"{p.vantage}:out"))
        kind = "unknown" if src_side is None or dst_side is None else f"{src_side}_to_{dst_side}"
        transitions[(protocol, lab, kind)] += 1
        src_cc, dst_cc = geo.get(_slash24(p.src)), geo.get(_slash24(p.dst))
        status = ("unresolved" if src_cc is None or dst_cc is None
                  else "domestic" if src_cc == dst_cc else "foreign")
        domestic[(protocol, lab, status)] += 1
        cell = daily[(p.vantage, protocol)][_day(p.ts)]
        cell[0] += 1
        cell[1] += p.interval
        if lab == "industrial":
            cell[2] += 1
            cell[3] += p.interval
        if stability_label == "all" or lab == stability_label:
            stability[p.dst].add(_day(p.ts))
        if t["direction"] == "request" and src_asn is not None:
            asn_protocols[src_asn].add(protocol)
        hosts = passive.setdefault(protocol, {"source": set(), "destination": set()})
        hosts["source"].add(p.src)
        hosts["destination"].add(p.dst)

    transition_rows = []
    for protocol, lab in sorted({(p, l) for p, l, _ in transitions}):
        known = sum(transitions[(protocol, lab, k)] for k in TRANSITIONS)
        transition_rows.append(
            [protocol, lab, *[_pct(transitions[(protocol, lab, k)], known) for k in TRANSITIONS],
             known, transitions[(protocol, lab, "unknown")]])

    domestic_rows = []
    for protocol, lab in sorted({(p, l) for p, l, _ in domestic}):
        dom, foreign = domestic[(protocol, lab, "domestic")], domestic[(protocol, lab, "foreign")]
        domestic_rows.append([protocol, lab, _pct(dom, dom + foreign), dom, dom + foreign,
                              domestic[(protocol, lab, "unresolved")]])

    daily_lines = ["day\tcount\textrapolated\tlabel"]
    for vantage, protocol in sorted(daily):
        series = daily[(vantage, protocol)]
        day, last = min(series), max(series)
        while day <= last:
            n, n_x, ind, ind_x = series.get(day, (0, 0, 0, 0))
            daily_lines.append(f"{day}\t{n}\t{n_x}\t{vantage}:{protocol}:total")
            daily_lines.append(f"{day}\t{ind}\t{ind_x}\t{vantage}:{protocol}:industrial")
            day += timedelta(days=1)

    stability_rows = []
    for ip, days in sorted(stability.items(), key=lambda item: (-len(item[1]), item[0])):
        window = (max(days) - min(days)).days + 1
        stability_rows.append([ip, min(days), max(days), window, len(days),
                               round(len(days) / window, 4)])

    overlap = []
    for protocol in sorted(passive):
        scan = snapshot.get(protocol, {})
        transport, application = set(scan.get("transport", [])), set(scan.get("application", []))
        for role in ("source", "destination"):
            hosts = passive[protocol][role]
            t_hits, a_hits = hosts & transport, hosts & application
            overlap.append({
                "protocol": protocol, "role": role, "passive_hosts": len(hosts),
                "transport_overlap_pct": round(100.0 * len(t_hits) / len(hosts), 1),
                "application_overlap_pct": round(100.0 * len(a_hits) / len(hosts), 1),
                "transport_only_senders":
                    sorted(t_hits - application) if role == "source" else [],
            })

    rank = Counter(t["protocol"] for _, t in candidates)
    notes = sum(
        1 for p, t in zip(packets, truth)
        if t["protocol"] is None and p.proto == TCP and 102 in (p.sport, p.dport)
    )

    intervals: dict[str, set[int]] = defaultdict(set)
    for p in packets:
        intervals[p.vantage].add(p.interval)
    return Reference(intervals=dict(intervals), files={
        "sanitize.csv": [["step", "remaining_count", "remaining_pct"]] + _rows(
            [r["step"], r["remaining_count"], r["remaining_pct"]] for r in steps),
        "sanitize.json": {"steps": steps,
                          "per_vantage": dict(sorted(per_vantage.items()))},
        "filters.csv": [["protocol", "total_packets", "request_share", "excl_scanners",
                         "excl_hp_ics", "excl_hp_all", "excl_both"]] + _rows(
            [r["protocol"], r["total_packets"], share(r["request_share"]),
             share(r["excl_scanners"]), share(r["excl_hp_ics"]), share(r["excl_hp_all"]),
             share(r["excl_both"])] for r in filter_rows),
        "filters.json": filter_rows,
        "transitions.csv": [["protocol", "label", "member_to_member_pct", "member_to_cone_pct",
                             "cone_to_member_pct", "cone_to_cone_pct", "packets",
                             "unknown_packets"]] + _rows(transition_rows),
        "domestic.csv": [["protocol", "label", "domestic_pct", "domestic_count",
                          "resolved_count", "indeterminate_count"]] + _rows(domestic_rows),
        "daily.tsv": daily_lines,
        "stability.csv": [["ip", "first_day", "last_day", "window_days", "active_days",
                           "stability"]] + _rows(stability_rows),
        "asn_protocols.csv": [["asn", "distinct_protocols", "protocols", "suspicious"]] + _rows(
            [a, len(p), ";".join(sorted(p)), len(p) > 4] for a, p in sorted(asn_protocols.items())),
        "scan_overlap.csv": [["protocol", "role", "passive_hosts", "transport_overlap_pct",
                              "application_overlap_pct", "transport_only_senders"]] + _rows(
            [r["protocol"], r["role"], r["passive_hosts"], r["transport_overlap_pct"],
             r["application_overlap_pct"], len(r["transport_only_senders"])] for r in overlap),
        "scan_overlap.json": overlap,
        "protocol_rank.csv": [["rank", "protocol", "packets"]] + _rows(
            [i + 1, protocol, count] for i, (protocol, count) in
            enumerate(sorted(rank.items(), key=lambda item: (-item[1], item[0])))),
        "run_summary.json": {
            "frames_read": len(packets), "records": len(packets), "candidates": cand,
            "kept": len(kept), "filters": config.get("filters", "all"),
            "stability_label": stability_label,
            "capture_records": captures,
            "dissect_notes": {"non_s7comm_tpkt_on_102": notes} if notes else {},
        },
    })


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _diff_rows(name: str, got: list, want: list) -> list[str]:
    errors = []
    if len(got) != len(want):
        errors.append(f"{name}: {len(got)} rows, expected {len(want)}")
    for index, (g, w) in enumerate(zip(got, want)):
        if g != w:
            errors.append(f"{name} row {index}: {g} != expected {w}")
    return errors


def check_properties(bundle: Path, intervals: dict[str, set[int]]) -> list[str]:
    """Invariants of any correct bundle, whatever its numbers."""
    errors = []
    sanitize = json.loads((bundle / "sanitize.json").read_text())
    chains = {"all": [s["remaining_count"] for s in sanitize["steps"][:4]]}
    for vantage, v in sanitize["per_vantage"].items():
        chains[vantage] = [v["candidates_in"], v["after_tunnel"], v["after_malformed"],
                           v["after_dpi"]]
    for where, chain in chains.items():
        if chain != sorted(chain, reverse=True):
            errors.append(f"sanitize counts grow across steps ({where}): {chain}")
    for line in (bundle / "daily.tsv").read_text().splitlines()[1:]:
        day, count, extrapolated, label = line.split("\t")
        vantage_intervals = intervals.get(label.split(":", 1)[0], set())
        if len(vantage_intervals) == 1 and int(extrapolated) != int(count) * min(vantage_intervals):
            errors.append(f"daily.tsv {day} {label}: {extrapolated} != {count} x "
                          f"{min(vantage_intervals)}")
    for row in _read_csv(bundle / "transitions.csv")[1:]:
        if int(row[6]):
            total = sum(float(v) for v in row[2:6])
            if abs(total - 100.0) > 0.2 + 1e-9:
                errors.append(f"transitions.csv {row[:2]}: known shares sum to {total}")
    return errors


def check_bundle(bundle: Path, expected: Reference) -> list[str]:
    """All differences between a bundle and the reference, plus broken properties."""
    bundle = Path(bundle)
    errors: list[str] = []
    for name, want in expected.files.items():
        path = bundle / name
        if not path.exists():
            errors.append(f"{name}: missing")
            continue
        if name == "daily.tsv":
            errors += _diff_rows(name, path.read_text().splitlines(), want)
        elif name.endswith(".csv"):
            errors += _diff_rows(name, _read_csv(path), want)
        elif name == "run_summary.json":
            got = json.loads(path.read_text())
            view = {k: got.get(k) for k in want if k != "capture_records"}
            view["capture_records"] = [c.get("records") for c in got.get("captures", [])]
            frames = [c.get("frames_read") for c in got.get("captures", [])]
            if view != want or frames != want["capture_records"]:
                errors.append(f"run_summary.json: {view} (frames {frames}) != expected {want}")
        else:
            got = json.loads(path.read_text())
            if got != json.loads(json.dumps(want, default=str)):
                errors.append(f"{name}: differs from the reference")
    if not errors:
        errors += check_properties(bundle, expected.intervals)
    return errors
