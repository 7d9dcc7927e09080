"""Prefix-to-AS and country enrichment, peering transitions, scan overlap.

Lookup tables are longest-prefix-match structures shared between the AS and
country views; the exchange-point topology types packets by whether their
source and destination ASes are fabric members or sit in a member's
customer cone.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress

from .capture import int_to_ip, ip_column, parse_cidr, prefix_columns
from .dissectors import PROTOCOLS
from .inputs import AS_MAX, ConfigError, as_number, fault, known, line_table, read_json, typed
from .sanitize import pct

log = logging.getLogger(__name__)

MEMBER_TO_MEMBER = "member_to_member"
MEMBER_TO_CONE = "member_to_cone"
CONE_TO_MEMBER = "cone_to_member"
CONE_TO_CONE = "cone_to_cone"
UNKNOWN_TRANSITION = "unknown"

TRANSITIONS = (MEMBER_TO_MEMBER, MEMBER_TO_CONE, CONE_TO_MEMBER, CONE_TO_CONE)

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")

# The canonical lines of the prefix tables, any number of them; an AS table
# line reads 'a.b.c.d/N asn' or, as CAIDA publishes it, 'a.b.c.d<TAB>N<TAB>asn'.
_ASN_LINES = re.compile(rb"(?:[0-9.]{7,15}+(?:/[0-9]{1,2}+ |\t[0-9]{1,2}+\t)[0-9]{1,10}+\n)*+")
_GEO_LINES = re.compile(rb"(?:[0-9.]{7,15}+/[0-9]{1,2}+,[A-Z]{2}\n)*+")


class LpmTable:
    """Longest-prefix-match table over parsed IPv4 prefixes with arbitrary values.

    One dict per populated prefix length maps the network's top plen bits to
    its value; lookup probes the populated lengths only, longest first.
    longest is the longest populated length, 0 when the table is empty: two
    addresses whose top longest bits agree look up the same value.
    """

    def __init__(self, lengths=(), keys=(), values=()):
        """The table of the prefixes prefix_columns gives, with their values.
        For a repeated prefix the later value wins; overridden counts the
        rows that changed a value, and the first of them is logged."""
        self._by_len = {plen: {} for plen in sorted(set(lengths), reverse=True)}
        any(map(dict.__setitem__, map(self._by_len.__getitem__, lengths), keys, values))
        self._probes = tuple((32 - plen, bucket) for plen, bucket in self._by_len.items())
        self.longest = max(self._by_len, default=0)
        self.overridden = 0
        if sum(map(len, self._by_len.values())) < len(values):
            # A prefix repeats: walk the rows of the lengths whose dict has
            # fewer keys than rows.
            rows = Counter(lengths)
            short = {plen for plen, bucket in self._by_len.items() if len(bucket) < rows[plen]}
            current = {}
            for plen, key, value in compress(zip(lengths, keys, values),
                                             map(short.__contains__, lengths)):
                if (old := current.get((plen, key), value)) != value:
                    if not self.overridden:
                        log.warning("duplicate prefix %s/%d: %r overrides %r",
                                    int_to_ip(key << (32 - plen)), plen, value, old)
                    self.overridden += 1
                current[plen, key] = value

    def lookup(self, ip: int):
        for shift, bucket in self._probes:
            key = ip >> shift
            if key in bucket:
                return bucket[key]
        return None


def _prefix_table(columns, path) -> LpmTable:
    """The table of the columns of lengths, keys and values that path's
    lines give, after logging how many overrides its warning left unnamed."""
    table = LpmTable(*columns)
    if table.overridden > 1:
        log.warning("%d more duplicate prefixes overridden in %s", table.overridden - 1, path)
    return table


def load_asn_table(path) -> LpmTable:
    """Prefix-to-origin table from 'prefix asn' or 'address length asn' lines."""

    def by_column(text: str) -> tuple:
        fields = text.replace("/", " ").split()
        asns = list(map(int, fields[2::3]))
        if max(asns, default=0) > AS_MAX:
            raise ValueError("an AS number above AS_MAX")
        return *prefix_columns(fields[::3], fields[1::3]), asns

    def by_line(line: str) -> tuple:
        parts = line.split()
        if len(parts) == 2:
            prefix, asn = parts
        elif len(parts) == 3:
            prefix, asn = f"{parts[0]}/{parts[1]}", parts[2]
        else:
            raise ValueError(f"unparseable prefix line: {line!r}")
        if not (asn.isascii() and asn.isdigit()):
            raise ValueError(f"AS number must be ASCII decimal digits, got {asn!r}")
        number = int(asn)
        if number > AS_MAX:
            raise ValueError(f"AS number must be at most {AS_MAX}, got {asn}")
        network, plen = parse_cidr(prefix, strict=False)
        return plen, network >> (32 - plen), number

    return _prefix_table(line_table(path, _ASN_LINES, by_column, by_line), path)


def load_geo_table(path) -> LpmTable:
    """Prefix-to-country table from CSV 'prefix,country' rows."""

    def by_column(text: str) -> tuple:
        fields = text.replace("/", ",").replace("\n", ",").split(",")  # one "" after the last
        return *prefix_columns(fields[:-1:3], fields[1::3]), fields[2::3]

    def by_row(row: list) -> tuple:
        if len(row) < 2:
            raise ValueError("expected 'prefix,country'")
        prefix, country = row[0].strip(), row[1].strip()
        country = country.upper() if country.isascii() else country  # 'ß'.upper() == 'SS'
        if not _COUNTRY_RE.match(country):
            raise ValueError(f"invalid country code {country!r} for prefix {prefix}")
        network, plen = parse_cidr(prefix, strict=False)
        return plen, network >> (32 - plen), country

    lengths, keys, countries = line_table(path, _GEO_LINES, by_column, by_row, ",") or ((),) * 3
    # One str object per country; pickle keeps the sharing across a pipe.
    shared = dict(zip(countries, countries))
    return _prefix_table((lengths, keys, list(map(shared.__getitem__, countries))), path)


@dataclass
class IxpTopology:
    """The exchange fabric's customer cones: each member AS of the fabric,
    the members being exactly the keys, with the ASes of its cone. Without
    members only a packet side's tag resolves a member."""

    cone: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        for member, cone in self.cone.items():
            if member in cone:
                log.warning("member AS %d listed in its own cone, removing", member)
                self.cone[member] = cone - {member}
        self._owners: dict[int, int | None] = {}  # non-member AS -> its member, filled on use

    @classmethod
    def from_json(cls, path) -> "IxpTopology":
        where = str(path)
        cone = {}
        for member, ases in typed(read_json(path), dict, where).items():
            if not (member.isascii() and member.isdigit()):
                raise fault(where, "member", "an AS number", member)
            ases = frozenset(typed(ases, list, where, member, items=int))
            if ases and not (0 <= min(ases) and max(ases) <= AS_MAX):
                raise fault(where, member, f"a list of AS numbers (0 to {AS_MAX})", sorted(ases))
            number = as_number(int(member), where, "member")
            if number in cone:
                raise ConfigError(f"{where}: member {number} is listed twice")
            cone[number] = ases
        return cls(cone)

    def resolve_member(self, asn: int | None) -> int | None:
        """Member AS responsible for a packet side without a tag: the AS
        itself when it is a member, otherwise the lowest-numbered member
        whose cone holds it."""
        if asn is None or asn in self.cone:
            return asn
        if asn not in self._owners:
            self._owners[asn] = min((m for m, cone in self.cone.items() if asn in cone),
                                    default=None)
        return self._owners[asn]


def fabric_side(asn: int | None, member: int | None, topo: IxpTopology) -> str | None:
    """One side of a packet's path across the fabric: "member" when its AS
    is the member that handled it, "cone" when the AS sits in that member's
    customer cone, None when either is unresolved or neither holds."""
    if asn is None or member is None:
        return None
    if asn == member:
        return "member"
    if asn in topo.cone.get(member, frozenset()):
        return "cone"
    return None


def transition(src_side: str | None, dst_side: str | None) -> str:
    """Type a packet's path across the fabric from its two fabric_side
    values; an unresolvable side makes it unknown."""
    if src_side is None or dst_side is None:
        return UNKNOWN_TRANSITION
    return f"{src_side}_to_{dst_side}"


def is_domestic(src_country: str | None, dst_country: str | None) -> bool | None:
    """Same-country endpoints, from each side's geo lookup; None when either
    side is unresolved."""
    if src_country is None or dst_country is None:
        return None
    return src_country == dst_country


# A source AS requesting more distinct protocols than this is suspicious.
SUSPICIOUS_ABOVE = 4


def protocols_per_asn(request_protocols) -> list[list]:
    """asn_protocols.csv's rows: [AS, distinct protocols, the protocols joined
    by ";", suspicious] per source AS in order, from request_protocols: per
    source AS, the set of protocols it requested."""
    return [[asn, len(protocols), ";".join(sorted(protocols)), len(protocols) > SUSPICIOUS_ABOVE]
            for asn, protocols in sorted(request_protocols.items())]


_SNAPSHOT_LAYERS = ("transport", "application")


def load_scan_snapshot(path) -> dict[str, dict[str, frozenset[int]]]:
    """Active-scan snapshot per protocol: {protocol: {"transport": [ip, ...],
    "application": [ip, ...]}}, protocol one of the seven dissected ones.
    Addresses are parsed strictly; application hosts must be a subset of
    transport hosts or the file is rejected."""
    where = str(path)
    snapshot = {}
    raw = known(typed(read_json(path), dict, where), PROTOCOLS, where, "scan snapshot protocol")
    for protocol, sets in raw.items():
        sets = known(typed(sets, dict, where, protocol), _SNAPSHOT_LAYERS, f"{where}: {protocol}",
                     "scan snapshot")
        parsed = {}
        for layer in _SNAPSHOT_LAYERS:
            key = f"{protocol}.{layer}"
            hosts = typed(sets.get(layer, []), list, where, key, items=str)
            try:
                parsed[layer] = frozenset(ip_column(hosts))
            except ValueError as exc:
                raise ConfigError(f"{where}: {key}: {exc}") from None
        if not parsed["application"] <= parsed["transport"]:
            extra = sorted(map(int_to_ip, parsed["application"] - parsed["transport"]))[:3]
            raise ConfigError(f"{where}: {protocol}: application hosts not in transport scan: "
                              f"{extra}")
        snapshot[protocol] = parsed
    return snapshot


def scan_overlap(
    passive: dict[tuple[str, str], set[int]],
    snapshot: dict[str, dict[str, frozenset[int]]],
) -> list[dict]:
    """Overlap of passively observed hosts with active-scan results.

    passive maps (protocol, "source" or "destination") to a set of integer
    addresses. Emits one row per (protocol, role) with transport- and
    application-layer overlap percentages, plus the hosts that answered the
    transport scan only yet send traffic (unprotected-but-firewalled
    services), as address strings in string order.
    """
    rows = []
    for protocol in sorted({protocol for protocol, _ in passive}):
        scan = snapshot.get(protocol, {"transport": frozenset(), "application": frozenset()})
        for role in ("source", "destination"):
            hosts = passive.get((protocol, role), set())
            transport_hits = hosts & scan["transport"]
            app_hits = hosts & scan["application"]
            unprotected = (sorted(map(int_to_ip, transport_hits - scan["application"]))
                           if role == "source" else [])
            rows.append(
                {
                    "protocol": protocol,
                    "role": role,
                    "passive_hosts": len(hosts),
                    "transport_overlap_pct": pct(len(transport_hits), len(hosts)) or 0.0,
                    "application_overlap_pct": pct(len(app_hits), len(hosts)) or 0.0,
                    "transport_only_senders": unprotected,
                }
            )
    return rows
