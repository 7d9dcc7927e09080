"""Prefix-to-AS and country enrichment, peering transitions, scan overlap.

Lookup tables are longest-prefix-match structures shared between the AS and
country views; the exchange-point topology types packets by whether their
source and destination ASes are fabric members or sit in a member's
customer cone.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import logging
import re
from dataclasses import dataclass, field

from .capture import ip_to_int

log = logging.getLogger(__name__)

MEMBER_TO_MEMBER = "member_to_member"
MEMBER_TO_CONE = "member_to_cone"
CONE_TO_MEMBER = "cone_to_member"
CONE_TO_CONE = "cone_to_cone"
UNKNOWN_TRANSITION = "unknown"

TRANSITIONS = (MEMBER_TO_MEMBER, MEMBER_TO_CONE, CONE_TO_MEMBER, CONE_TO_CONE)

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")


class LpmTable:
    """Longest-prefix-match table over IPv4 CIDRs with arbitrary values."""

    def __init__(self):
        self._by_len: list[dict[int, object] | None] = [None] * 33
        self.entries = 0

    def add(self, prefix: str, value) -> None:
        net = ipaddress.IPv4Network(prefix, strict=False)
        plen = net.prefixlen
        key = int(net.network_address) >> (32 - plen) if plen else 0
        bucket = self._by_len[plen]
        if bucket is None:
            bucket = self._by_len[plen] = {}
        if key in bucket and bucket[key] != value:
            log.warning("duplicate prefix %s: %r overrides %r", prefix, value, bucket[key])
        else:
            self.entries += key not in bucket
        bucket[key] = value

    def lookup(self, ip: str):
        value = ip_to_int(ip)
        for plen in range(32, -1, -1):
            bucket = self._by_len[plen]
            if bucket is None:
                continue
            hit = bucket.get(value >> (32 - plen) if plen else 0)
            if hit is not None:
                return hit
        return None


def load_asn_table(path) -> LpmTable:
    """Prefix-to-origin table from 'prefix asn' or 'address length asn' lines."""
    table = LpmTable()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2:
                prefix, asn = parts
            elif len(parts) == 3:
                prefix, asn = f"{parts[0]}/{parts[1]}", parts[2]
            else:
                raise ValueError(f"unparseable prefix line: {line!r}")
            table.add(prefix, int(asn))
    return table


def load_geo_table(path) -> LpmTable:
    """Prefix-to-country table from CSV 'prefix,country' rows."""
    table = LpmTable()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path} line {reader.line_num}: expected 'prefix,country'")
            prefix, country = row[0].strip(), row[1].strip().upper()
            if not _COUNTRY_RE.match(country):
                raise ValueError(f"invalid country code {country!r} for prefix {prefix}")
            table.add(prefix, country)
    return table


@dataclass
class IxpTopology:
    """Members of the exchange fabric, their customer cones and tag mapping.

    tag_members maps capture metadata tags (vantage or interface names) to
    the member AS that injected or extracted the packet. Without a tag, a
    side's member is approximated as the AS itself when it is a member, or
    the member whose cone contains it.
    """

    members: frozenset[int]
    cone: dict[int, frozenset[int]]
    tag_members: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for member, cone in self.cone.items():
            if member not in self.members:
                raise ValueError(f"cone entry for non-member AS {member}")
            if member in cone:
                log.warning("member AS %d listed in its own cone, removing", member)
                self.cone[member] = cone - {member}
        self._owner_cache: dict[int, int | None] = {}

    @classmethod
    def from_json(cls, path, tag_members: dict[str, int] | None = None) -> "IxpTopology":
        with open(path) as fh:
            raw = json.load(fh)
        cone = {int(member): frozenset(int(a) for a in ases) for member, ases in raw.items()}
        return cls(
            members=frozenset(cone),
            cone=cone,
            tag_members=dict(tag_members or {}),
        )

    @classmethod
    def empty(cls) -> "IxpTopology":
        return cls(members=frozenset(), cone={})

    def resolve_member(self, asn: int | None, tag: str | None = None) -> int | None:
        """Member AS responsible for a packet side."""
        if tag is not None and tag in self.tag_members:
            return self.tag_members[tag]
        if asn is None:
            return None
        if asn in self.members:
            return asn
        cached = self._owner_cache.get(asn, -1)
        if cached != -1:
            return cached
        owners = sorted(m for m, cone in self.cone.items() if asn in cone)
        owner = owners[0] if owners else None
        self._owner_cache[asn] = owner
        return owner


def transition(
    src_asn: int | None,
    dst_asn: int | None,
    ingress_member: int | None,
    egress_member: int | None,
    topo: IxpTopology,
) -> str:
    """Type a packet's path across the fabric; unresolvable sides are unknown."""

    def side(asn: int | None, member: int | None) -> str | None:
        if asn is None or member is None:
            return None
        if asn == member:
            return "member"
        if asn in topo.cone.get(member, frozenset()):
            return "cone"
        return None

    src_side = side(src_asn, ingress_member)
    dst_side = side(dst_asn, egress_member)
    if src_side is None or dst_side is None:
        return UNKNOWN_TRANSITION
    return f"{src_side}_to_{dst_side}"


def is_local(
    src_asn: int | None,
    ingress_member: int | None,
    egress_member: int | None,
    dst_asn: int | None,
) -> bool | None:
    """Fabric-local traffic: source is the ingress member and destination the
    egress member. None when any AS is unresolved (excluded from ratios)."""
    if None in (src_asn, ingress_member, egress_member, dst_asn):
        return None
    return src_asn == ingress_member and dst_asn == egress_member


def is_domestic(src_ip: str, dst_ip: str, geo: LpmTable) -> bool | None:
    """Same-country endpoints; None when either side is unresolved."""
    src_country = geo.lookup(src_ip)
    dst_country = geo.lookup(dst_ip)
    if src_country is None or dst_country is None:
        return None
    return src_country == dst_country


def protocols_per_asn(protocols_by_asn) -> dict[int, dict]:
    """Distinct protocols requested per source AS; more than 4 is suspicious.

    protocols_by_asn: mapping of source AS to the set of protocols it
    requested.
    """
    return {
        asn: {
            "protocols": sorted(protocols),
            "distinct": len(protocols),
            "suspicious": len(protocols) > 4,
        }
        for asn, protocols in sorted(protocols_by_asn.items())
    }


def load_scan_snapshot(path) -> dict[str, dict[str, frozenset[str]]]:
    """Active-scan snapshot per protocol; application hosts must be a subset
    of transport hosts or the file is rejected."""
    with open(path) as fh:
        raw = json.load(fh)
    snapshot = {}
    for protocol, sets in raw.items():
        transport = frozenset(sets.get("transport", []))
        application = frozenset(sets.get("application", []))
        if not application <= transport:
            extra = sorted(application - transport)[:3]
            raise ValueError(
                f"scan snapshot for {protocol}: application hosts not in transport scan: {extra}"
            )
        snapshot[protocol] = {"transport": transport, "application": application}
    return snapshot


def scan_overlap(
    passive: dict[str, dict[str, set[str]]],
    snapshot: dict[str, dict[str, frozenset[str]]],
) -> list[dict]:
    """Overlap of passively observed hosts with active-scan results.

    passive maps protocol -> {"source": set, "destination": set}. Emits one
    row per (protocol, role) with transport- and application-layer overlap
    percentages, plus the hosts that answered the transport scan only yet
    send traffic (unprotected-but-firewalled services).
    """
    rows = []
    for protocol in sorted(passive):
        scan = snapshot.get(protocol, {"transport": frozenset(), "application": frozenset()})
        for role in ("source", "destination"):
            hosts = passive[protocol].get(role, set())
            transport_hits = hosts & scan["transport"]
            app_hits = hosts & scan["application"]
            unprotected = sorted(transport_hits - scan["application"]) if role == "source" else []
            rows.append(
                {
                    "protocol": protocol,
                    "role": role,
                    "passive_hosts": len(hosts),
                    "transport_overlap_pct": round(100.0 * len(transport_hits) / len(hosts), 1)
                    if hosts
                    else 0.0,
                    "application_overlap_pct": round(100.0 * len(app_hits) / len(hosts), 1)
                    if hosts
                    else 0.0,
                    "transport_only_senders": unprotected,
                }
            )
    return rows
