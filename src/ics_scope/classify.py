"""Industrial vs. non-industrial labeling of sanitized ICS packets.

A packet is non-industrial when either endpoint address belongs to a known
scan project (by documented prefix, or by reverse-DNS name through the one
rule of RdnsTable.from_names, which gen's scenario check shares) or was
observed at a honeypot. All of an address's matching reasons are recorded,
each as the tag the ground truth writes (reason_tags), and family_flags
labels them once under every filter family, so one classification pass
supports every filter-family report column.
"""

from __future__ import annotations

import re
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


def reason_tags(prefix: str | None, rdns: str | None, hp_all: bool,
                hp_ics: bool) -> tuple[str, ...]:
    """The filter reasons of one address, sorted, each the tag the ground
    truth writes: HP_ALL and HP_ICS when the honeypot lists hold it,
    KIND:PROJECT for the scanner project its prefix (prefix) and its
    reverse-DNS name (rdns) name, if any."""
    return tuple(compress((HP_ALL, HP_ICS, f"{SCANNER_PREFIX}:{prefix}", f"{SCANNER_RDNS}:{rdns}"),
                          (hp_all, hp_ics, prefix, rdns)))


@dataclass(frozen=True)
class ScannerProject:
    name: str
    prefixes: tuple[tuple[int, int], ...]  # (network address as int, prefix length)
    rdns_patterns: tuple[str, ...]


class ScannerRegistry:
    """Ordered scan-project registry; file order decides rDNS and same-prefix precedence."""

    def __init__(self, projects: list[ScannerProject]):
        self.projects = list(projects)
        # Each prefix's project. Last project first, so that the first
        # project's value stands.
        self.prefixes = LpmTable(*zip(*[(plen, network >> (32 - plen), project.name)
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


@lru_cache(maxsize=1)
def default_scanner_registry() -> ScannerRegistry:
    return ScannerRegistry.from_entries(load_packaged_json("scanner_registry.json"))


# The canonical lines of the address lists and of the rDNS table, any number of them.
_ADDRESS_LINES = re.compile(rb"(?:[0-9.]{7,15}+\n)*+")
_RDNS_LINES = re.compile(rb"(?:[0-9.]{7,15}+,[!#-+\--~]++\n)*+")  # names: no space, '"' or ','


class HoneypotSets(NamedTuple):
    """IPv4 addresses (as integers) observed at honeypots: all ports vs.
    ICS-port requesters."""

    hp_all: frozenset[int] = frozenset()
    hp_ics: frozenset[int] = frozenset()

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


class RdnsTable(dict):
    """The scanner project that each address's offline reverse-DNS name
    names, for the addresses whose name names one: of a name a run asks
    only that, so names themselves are not kept. Missing entries are normal."""

    @classmethod
    def from_csv(cls, path, registry: ScannerRegistry) -> "RdnsTable":
        """The table of the 'ip,name' rows of path: per address, the project
        from_names finds in the name of its last row, if any."""

        def by_column(text: str) -> tuple:
            # One lower-cased copy of the text: from_names takes lower-cased names.
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
        reverse-DNS names: per address, the first project in registry order
        that has a pattern the name contains."""
        joined = "\n".join(names.values())
        table = cls()
        # Last project first, so that the first project to match a name stands.
        for project in reversed(registry.projects):
            for pattern in project.rdns_patterns:
                if pattern in joined:
                    named = compress(names, map(contains, names.values(), repeat(pattern)))
                    table.update(zip(named, repeat(project.name)))
        return table


def endpoint_reasons(
    ip: int,
    registry: ScannerRegistry,
    rdns: RdnsTable,
    honeypots: HoneypotSets,
) -> frozenset[str]:
    """Every filter's reasons, as tags, for calling traffic to or from one
    address non-industrial."""
    return frozenset(reason_tags(registry.prefixes.lookup(ip), rdns.get(ip),
                                 ip in honeypots.hp_all, ip in honeypots.hp_ics))


def label_under(reasons: frozenset[str], active: frozenset[str]) -> str:
    """Label a full reason set as if only the given filters were active: a
    reason's filter is its tag's kind, before any ':'."""
    return (NON_INDUSTRIAL if any(reason.partition(":")[0] in active for reason in reasons)
            else INDUSTRIAL)


def family_flags(reasons: frozenset[str]) -> tuple[bool, ...]:
    """Whether reasons label a packet non-industrial under each filter
    family, in FAMILIES order: one label_under per family."""
    return tuple(label_under(reasons, filters) == NON_INDUSTRIAL for _, _, filters in FAMILIES)


def filter_report(counts) -> list[dict]:
    """Industrial share per protocol under each filter family.

    counts: mapping of (protocol, direction, flags) to packet count, flags
    a packet's family_flags: whether it is non-industrial under each family.
    Returns one dict per protocol plus a leading total row; shares carry raw
    numerators so machine output never loses precision to rounding.
    """
    protocols = sorted({protocol for protocol, _, _ in counts})
    out = []
    for protocol in ["total"] + protocols:
        subset = [(d, flags, n) for (p, d, flags), n in counts.items()
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
            industrial = sum(n for _, flags, n in subset if not flags[index])
            row[column] = (industrial / total) if total else None
            row[column + "_count"] = industrial
        out.append(row)
    return out
