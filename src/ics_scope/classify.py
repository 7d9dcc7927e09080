"""Industrial vs. non-industrial labeling of sanitized ICS packets.

A packet is non-industrial when either endpoint address belongs to a known
scan project (by documented prefix or by reverse-DNS name) or was observed
at a honeypot. All matching reasons are recorded, so one classification
pass supports every filter-family report column.
"""

from __future__ import annotations

import csv
import ipaddress
import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .capture import ip_to_int
from .ports import load_packaged_json

INDUSTRIAL = "industrial"
NON_INDUSTRIAL = "non_industrial"

SCANNER_PREFIX = "scanner_prefix"
SCANNER_RDNS = "scanner_rdns"
HP_ALL = "hp_all"
HP_ICS = "hp_ics"

ALL_FILTERS = frozenset({SCANNER_PREFIX, SCANNER_RDNS, HP_ALL, HP_ICS})

# Selectable filter families, one per report column family.
FILTER_FAMILIES = {
    "scanners": frozenset({SCANNER_PREFIX, SCANNER_RDNS}),
    "hp-ics": frozenset({HP_ICS}),
    "hp-all": frozenset({HP_ALL}),
    "all": ALL_FILTERS,
}


@dataclass(frozen=True, order=True)
class Reason:
    kind: str
    project: str | None = None

    def tag(self) -> str:
        return f"{self.kind}:{self.project}" if self.project else self.kind


@dataclass(frozen=True)
class ScannerProject:
    name: str
    prefixes: tuple[tuple[int, int], ...]  # (network address as int, prefix length)
    rdns_patterns: tuple[str, ...]


class ScannerRegistry:
    """Ordered scan-project registry; file order decides rDNS precedence."""

    def __init__(self, projects: list[ScannerProject]):
        self.projects = list(projects)
        # Flattened (prefix_len, network_key, project) sorted longest first,
        # stable on registry order for equal-length collisions.
        flat = []
        for index, project in enumerate(self.projects):
            for network, plen in project.prefixes:
                key = network >> (32 - plen) if plen else 0
                flat.append((-plen, index, key, plen, project.name))
        flat.sort()
        self._prefixes = [(plen, key, name) for _, _, key, plen, name in flat]

    @classmethod
    def from_entries(cls, entries: list[dict]) -> "ScannerRegistry":
        projects = []
        for entry in entries:
            name = entry["project"]
            if not name:
                raise ValueError("scanner registry entry with empty project name")
            prefixes = []
            for prefix in entry.get("prefixes", []):
                net = ipaddress.IPv4Network(prefix)
                prefixes.append((int(net.network_address), net.prefixlen))
            patterns = tuple(p.lower() for p in entry.get("rdns_patterns", []))
            projects.append(ScannerProject(name, tuple(prefixes), patterns))
        return cls(projects)

    @classmethod
    def from_json(cls, path) -> "ScannerRegistry":
        with open(path) as fh:
            return cls.from_entries(json.load(fh))

    def match_prefix(self, ip: str) -> str | None:
        """Project of the most specific covering prefix, if any."""
        value = ip_to_int(ip)
        for plen, key, name in self._prefixes:
            if (value >> (32 - plen) if plen else 0) == key:
                return name
        return None

    def match_rdns(self, name: str | None) -> str | None:
        """First project whose patterns match the resolved name, registry order."""
        if not name:
            return None
        lowered = name.lower()
        for project in self.projects:
            for pattern in project.rdns_patterns:
                if pattern in lowered:
                    return project.name
        return None


@lru_cache(maxsize=1)
def default_scanner_registry() -> ScannerRegistry:
    return ScannerRegistry.from_entries(load_packaged_json("scanner_registry.json"))


class HoneypotSets:
    """IP addresses observed at honeypots: all ports vs. ICS-port requesters."""

    def __init__(self, hp_all: frozenset[str], hp_ics: frozenset[str]):
        if not hp_ics <= hp_all:
            extra = sorted(hp_ics - hp_all)[:3]
            raise ValueError(f"hp_ics must be a subset of hp_all, offending entries: {extra}")
        self.hp_all = hp_all
        self.hp_ics = hp_ics

    @classmethod
    def from_files(cls, all_path, ics_path) -> "HoneypotSets":
        return cls(_read_ip_set(all_path), _read_ip_set(ics_path))

    @classmethod
    def empty(cls) -> "HoneypotSets":
        return cls(frozenset(), frozenset())


def _read_ip_set(path) -> frozenset[str]:
    out = set()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            ipaddress.IPv4Address(line)  # validates
            out.add(line)
    return frozenset(out)


class RdnsTable:
    """Offline reverse-DNS snapshot; missing entries are normal."""

    def __init__(self, mapping: dict[str, str]):
        self.mapping = mapping

    @classmethod
    def from_csv(cls, path) -> "RdnsTable":
        mapping: dict[str, str] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path} line {reader.line_num}: expected 'ip,name'")
                ip, name = row[0].strip(), row[1].strip()
                ipaddress.IPv4Address(ip)
                mapping[ip] = name
        return cls(mapping)

    @classmethod
    def empty(cls) -> "RdnsTable":
        return cls({})

    def lookup(self, ip: str) -> str | None:
        return self.mapping.get(ip)


def classify(
    src_ip: str,
    dst_ip: str,
    registry: ScannerRegistry,
    rdns: RdnsTable,
    honeypots: HoneypotSets,
) -> frozenset[Reason]:
    """Every filter's reasons for calling traffic between two endpoints non-industrial.

    label_under turns the reason set into a label for a filter family.
    """
    reasons: set[Reason] = set()
    for ip in (src_ip, dst_ip):
        project = registry.match_prefix(ip)
        if project:
            reasons.add(Reason(SCANNER_PREFIX, project))
        project = registry.match_rdns(rdns.lookup(ip))
        if project:
            reasons.add(Reason(SCANNER_RDNS, project))
        if ip in honeypots.hp_all:
            reasons.add(Reason(HP_ALL))
        if ip in honeypots.hp_ics:
            reasons.add(Reason(HP_ICS))
    return frozenset(reasons)


def label_under(reasons: frozenset[Reason], active: frozenset[str]) -> str:
    """Label a full reason set as if only the given filters were active."""
    return NON_INDUSTRIAL if any(r.kind in active for r in reasons) else INDUSTRIAL


_REPORT_FAMILIES = (
    ("excl_scanners", frozenset({SCANNER_PREFIX, SCANNER_RDNS})),
    ("excl_hp_ics", frozenset({HP_ICS})),
    ("excl_hp_all", frozenset({HP_ALL})),
    ("excl_both", ALL_FILTERS),
)


def filter_report(counts) -> list[dict]:
    """Industrial share per protocol under each filter family.

    counts: mapping of (protocol, direction, reasons) to packet count.
    Returns one dict per protocol plus a leading total row; shares carry raw
    numerators so machine output never loses precision to rounding. Each
    reason set is labelled once per family, into counts per (protocol,
    direction, industrial flag per family).
    """
    groups: Counter[tuple[str, str, tuple[bool, ...]]] = Counter()
    for (protocol, packet_direction, reasons), n in counts.items():
        industrial = tuple(label_under(reasons, family) == INDUSTRIAL
                           for _, family in _REPORT_FAMILIES)
        groups[(protocol, packet_direction, industrial)] += n
    protocols = sorted({protocol for protocol, _, _ in groups})
    out = []
    for protocol in ["total"] + protocols:
        subset = [(d, flags, n) for (p, d, flags), n in groups.items()
                  if protocol == "total" or p == protocol]
        total = sum(n for _, _, n in subset)
        requests = sum(n for d, _, n in subset if d == "request")
        replies = sum(n for d, _, n in subset if d == "reply")
        row: dict = {
            "protocol": protocol,
            "total_packets": total,
            "requests": requests,
            "replies": replies,
            "request_share": (requests / (requests + replies)) if requests + replies else None,
        }
        for index, (column, _) in enumerate(_REPORT_FAMILIES):
            industrial = sum(n for _, flags, n in subset if flags[index])
            row[column] = (industrial / total) if total else None
            row[column + "_count"] = industrial
        out.append(row)
    return out
