"""Industrial vs. non-industrial labeling of sanitized ICS packets.

A packet is non-industrial when either endpoint address belongs to a known
scan project (by documented prefix or by reverse-DNS name) or was observed
at a honeypot. All matching reasons are recorded, so one classification
pass supports every filter-family report column.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import contains
from typing import NamedTuple

from .capture import int_to_ip, ip_column, ip_to_int, parse_cidr
from .enrich import LpmTable
from .inputs import ConfigError, fault, known, line_table, load_packaged_json, read_json, typed

INDUSTRIAL = "industrial"
NON_INDUSTRIAL = "non_industrial"

SCANNER_PREFIX = "scanner_prefix"
SCANNER_RDNS = "scanner_rdns"
HP_ALL = "hp_all"
HP_ICS = "hp_ics"

ALL_FILTERS = frozenset({SCANNER_PREFIX, SCANNER_RDNS, HP_ALL, HP_ICS})

# The four filter families: (name in configs and on the command line,
# filters.csv column of the industrial share under the family, its filters),
# in report column order.
FAMILIES = (
    ("scanners", "excl_scanners", frozenset({SCANNER_PREFIX, SCANNER_RDNS})),
    ("hp-ics", "excl_hp_ics", frozenset({HP_ICS})),
    ("hp-all", "excl_hp_all", frozenset({HP_ALL})),
    ("all", "excl_both", ALL_FILTERS),
)
FILTER_FAMILIES = {name: filters for name, _, filters in FAMILIES}


class Reason(NamedTuple):
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
    """Ordered scan-project registry; file order decides rDNS and same-prefix precedence."""

    def __init__(self, projects: list[ScannerProject]):
        self.projects = list(projects)
        # Last project first, so that the first project's value stands.
        self._prefixes = LpmTable(*zip(*[(plen, network >> (32 - plen), project.name)
                                         for project in reversed(self.projects)
                                         for network, plen in project.prefixes]))

    @classmethod
    def from_entries(cls, entries, source: str = "scanner registry") -> "ScannerRegistry":
        """Projects from a JSON list of {project, prefixes, rdns_patterns} objects.

        Prefixes are parsed strictly: host bits set below the prefix length
        are an error. Any other shape raises ConfigError naming the source,
        the entry and the key.
        """
        projects = []
        for index, entry in enumerate(typed(entries, list, source)):
            where = f"{source} entry {index}"
            entry = known(typed(entry, dict, where), ("project", "prefixes", "rdns_patterns"),
                          where, "scanner registry")
            name = entry.get("project")
            if type(name) is not str or not name:
                raise fault(where, "project", "a non-empty string", name)
            prefixes = typed(entry.get("prefixes", []), list, where, "prefixes", items=str)
            patterns = typed(entry.get("rdns_patterns", []), list, where, "rdns_patterns",
                             items=str)
            if not all(patterns):  # "" is in every name
                raise fault(where, "rdns_patterns", "a list of non-empty strings", patterns)
            try:
                networks = tuple(parse_cidr(prefix, strict=True) for prefix in prefixes)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            projects.append(ScannerProject(name, networks, tuple(p.lower() for p in patterns)))
        return cls(projects)

    @classmethod
    def from_json(cls, path) -> "ScannerRegistry":
        return cls.from_entries(read_json(path), str(path))

    def match_prefix(self, ip: int) -> str | None:
        """Project of the most specific covering prefix, if any."""
        return self._prefixes.lookup(ip)

    @property
    def longest(self) -> int:
        """The longest length of any project's prefixes, 0 with none: two
        addresses whose top longest bits agree match the same project."""
        return self._prefixes.longest

    def match_rdns(self, name: str) -> str | None:
        """First project whose patterns match the resolved name, registry order."""
        lowered = name.lower()
        for project in self.projects:
            for pattern in project.rdns_patterns:
                if pattern in lowered:
                    return project.name
        return None


@lru_cache(maxsize=1)
def default_scanner_registry() -> ScannerRegistry:
    return ScannerRegistry.from_entries(load_packaged_json("scanner_registry.json"))


# The canonical lines of the address lists and of the rDNS table, any number of them.
_ADDRESS_LINES = re.compile(rb"(?:[0-9.]{7,15}+\n)*+")
_RDNS_LINES = re.compile(rb"(?:[0-9.]{7,15}+,[!#-+\--~]++\n)*+")  # names: no space, '"' or ','


class HoneypotSets:
    """IPv4 addresses (as integers) observed at honeypots: all ports vs.
    ICS-port requesters."""

    def __init__(self, hp_all: frozenset[int], hp_ics: frozenset[int]):
        self.hp_all = hp_all
        self.hp_ics = hp_ics

    @classmethod
    def from_files(cls, all_path, ics_path) -> "HoneypotSets":
        hp_all, hp_ics = (frozenset(*line_table(path, _ADDRESS_LINES,
                                                lambda text: (ip_column(text.split()),),
                                                lambda line: (ip_to_int(line),)))
                          for path in (all_path, ics_path))
        if not hp_ics <= hp_all:
            extra = sorted(map(int_to_ip, hp_ics - hp_all))[:3]
            raise ConfigError(f"hp_ics {ics_path} must be a subset of hp_all {all_path}, "
                              f"offending entries: {extra}")
        return cls(hp_all, hp_ics)

    @classmethod
    def empty(cls) -> "HoneypotSets":
        return cls(frozenset(), frozenset())


class RdnsTable:
    """The scanner project that each address's offline reverse-DNS name
    names, for the addresses whose name names one: of a name a run asks
    only that, so names themselves are not kept. Missing entries are normal."""

    def __init__(self, mapping: dict[int, str]):
        self.mapping = mapping

    @classmethod
    def from_csv(cls, path, registry: ScannerRegistry) -> "RdnsTable":
        """The table of the 'ip,name' rows of path: per address, the project
        registry.match_rdns finds in the name of its last row, if any."""

        def by_column(text: str) -> tuple:
            # One lower-cased copy of the text: match_rdns lower-cases each name.
            fields = text.lower().replace("\n", ",").split(",")  # one "" after the last
            return ip_column(fields[:-1:2]), fields[1::2]

        def by_row(row: list) -> tuple:
            if len(row) < 2:
                raise ValueError("expected 'ip,name'")
            return ip_to_int(row[0].strip()), row[1].strip().lower()

        columns = line_table(path, _RDNS_LINES, by_column, by_row, ",")
        return cls.from_names(dict(zip(*columns)), registry)  # a later row wins

    @classmethod
    def from_names(cls, names: dict[int, str], registry: ScannerRegistry) -> "RdnsTable":
        """The table of names, which maps addresses to their lower-cased
        reverse-DNS names: per address, the project registry.match_rdns finds."""
        joined = "\n".join(names.values())
        mapping: dict[int, str] = {}
        # Last project first, so that the first project to match a name stands.
        for project in reversed(registry.projects):
            for pattern in project.rdns_patterns:
                if pattern in joined:
                    named = compress(names, map(contains, names.values(), repeat(pattern)))
                    mapping.update(zip(named, repeat(project.name)))
        return cls(mapping)

    @classmethod
    def empty(cls) -> "RdnsTable":
        return cls({})

    def lookup(self, ip: int) -> str | None:
        """The scanner project ip's reverse-DNS name names, if any."""
        return self.mapping.get(ip)


def endpoint_reasons(
    ip: int,
    registry: ScannerRegistry,
    rdns: RdnsTable,
    honeypots: HoneypotSets,
) -> frozenset[Reason]:
    """Every filter's reasons for calling traffic to or from one address non-industrial."""
    reasons = []
    project = registry.match_prefix(ip)
    if project:
        reasons.append(Reason(SCANNER_PREFIX, project))
    project = rdns.lookup(ip)
    if project:
        reasons.append(Reason(SCANNER_RDNS, project))
    if ip in honeypots.hp_all:
        reasons.append(Reason(HP_ALL))
    if ip in honeypots.hp_ics:
        reasons.append(Reason(HP_ICS))
    return frozenset(reasons)


def label_under(reasons: frozenset[Reason], active: frozenset[str]) -> str:
    """Label a full reason set as if only the given filters were active."""
    return NON_INDUSTRIAL if any(r.kind in active for r in reasons) else INDUSTRIAL


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
                           for _, _, family in FAMILIES)
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
        for index, (_, column, _) in enumerate(FAMILIES):
            industrial = sum(n for _, flags, n in subset if flags[index])
            row[column] = (industrial / total) if total else None
            row[column + "_count"] = industrial
        out.append(row)
    return out
