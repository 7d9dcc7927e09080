"""Pad a corpus's sidecar tables to a realistic size without changing answers.

Real prefix-to-AS and geo tables hold hundreds of thousands of prefixes and
honeypot and reverse-DNS lists hold far more addresses than a capture ever
touches. The generator writes only what its corpus needs, so table loading
costs almost nothing. Padding adds rows that can never decide a lookup:

* prefix tables (AS, geo): prefixes of length /8 to /24 only, and no /24
  that holds an endpoint. Every endpoint /24 is already in the unpadded
  table, so the longest match for every endpoint stays that /24;
* rDNS, honeypot and scan-snapshot addresses: none inside any flow's
  address pool nor in any endpoint /24, so no endpoint lookup changes;
  padded ``hp_ics`` addresses are drawn from the padded ``hp_all`` ones;
* topology: new members whose cones hold only new ASes, so no generated AS
  gains an owner.

The scanner registry is left alone: real registries are small.
"""

from __future__ import annotations

import csv
import ipaddress
import json
import random
from dataclasses import dataclass
from pathlib import Path

COUNTRIES = ("AT", "BR", "CN", "DE", "FR", "GB", "IN", "IT", "JP", "NL", "PL", "RU", "SE",
             "US", "ZA")
RDNS_NAMES = ("host-{n}.dyn.isp{k}.example", "mail{n}.corp{k}.example",
              "static-{n}.cust.net{k}.example", "scan-{n}.shodan.io",
              "census{n}.scanner.example", "research{n}.sonar.rapid7.com")
# Weighted toward the long prefixes that dominate real routing tables.
PREFIX_LENGTHS = (8, 12, 14, 16, 16, 18, 19, 20, 20, 21, 22, 22, 22, 23, 23, 24, 24, 24, 24,
                  24, 24, 24, 24)
# Generated ASes are 64500 + n (RFC 5398 private-use range); padding avoids it.
GENERATED_ASN_RANGE = range(64_496, 131_072)


@dataclass(frozen=True)
class PadSizes:
    asn: int
    geo: int
    rdns: int
    hp_all: int
    hp_ics: int
    cone_members: int
    scan_hosts: int


def _ip(value: int) -> str:
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


def _key(ip: str) -> int:
    a, b, c, d = ip.split(".")
    return (int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)


class _Forbidden:
    """Address space padding must stay out of: flow pools and endpoint /24s."""

    def __init__(self, scenario: dict, endpoint_slash24: set[int]):
        self.slash24 = endpoint_slash24
        self.pools = []
        for flow in scenario["flows"]:
            for spec in (flow["src"], flow["dst"]):
                net = ipaddress.IPv4Network(spec if "/" in spec else spec + "/32")
                self.pools.append((int(net.network_address), int(net.broadcast_address)))
        # Backscatter frames come from routers in 100.80.0.0/20.
        self.pools.append((_key("100.80.0.0"), _key("100.80.15.255")))

    def address_ok(self, value: int) -> bool:
        if value >> 8 in self.slash24:
            return False
        return not any(lo <= value <= hi for lo, hi in self.pools)

    def slash24_ok(self, network: int) -> bool:
        if network >> 8 in self.slash24:
            return False
        return not any(lo <= network + 255 and network <= hi for lo, hi in self.pools)


def _unicast(rng: random.Random) -> int:
    return rng.randrange(_key("1.0.0.0"), _key("224.0.0.0"))


def _addresses(rng: random.Random, count: int, forbidden: _Forbidden, taken: set[int]) -> list[int]:
    out = []
    while len(out) < count:
        value = _unicast(rng)
        if value in taken or not forbidden.address_ok(value):
            continue
        taken.add(value)
        out.append(value)
    return out


def _prefixes(rng: random.Random, count: int, forbidden: _Forbidden, taken: set) -> list:
    out = []
    while len(out) < count:
        plen = rng.choice(PREFIX_LENGTHS)
        network = _unicast(rng) & (0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF
        if (network, plen) in taken:
            continue
        if plen == 24 and not forbidden.slash24_ok(network):
            continue
        taken.add((network, plen))
        out.append((network, plen))
    return out


def _padded_asns(rng: random.Random, count: int, generated: set[int]) -> list[int]:
    out: set[int] = set()
    while len(out) < count:
        asn = rng.randrange(1, 400_000)
        if asn in GENERATED_ASN_RANGE or asn in generated:
            continue
        out.add(asn)
    return sorted(out)


def _read_prefix_lines(path: Path) -> list[tuple[int, int, str]]:
    rows = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        prefix, asn = line.split()
        net, plen = prefix.split("/")
        rows.append((_key(net), int(plen), asn))
    return rows


def pad_tables(gen_dir: Path, out_dir: Path, scenario: dict, sizes: PadSizes, seed: int) -> None:
    """Write padded copies of the sidecar tables in ``gen_dir`` to ``out_dir``."""
    rng = random.Random(f"padding-{seed}")
    gen_dir, out_dir = Path(gen_dir), Path(out_dir)

    asn_rows = _read_prefix_lines(gen_dir / "asn.txt")
    endpoint_slash24 = {net >> 8 for net, plen, _ in asn_rows}
    if any(plen != 24 for _, plen, _ in asn_rows):
        raise ValueError("generated prefix table is expected to hold /24 prefixes only")
    forbidden = _Forbidden(scenario, endpoint_slash24)
    cone = {int(k): v for k, v in json.loads((gen_dir / "cone.json").read_text()).items()}
    generated_asns = {int(a) for _, _, a in asn_rows} | set(cone)
    for ases in cone.values():
        generated_asns.update(ases)

    # Topology: padded members own cones of padded ASes only.
    pool = _padded_asns(rng, sizes.cone_members * 20, generated_asns)
    rng.shuffle(pool)
    members, customers = pool[:sizes.cone_members], pool[sizes.cone_members:]
    padded_cone = {m: [] for m in members}
    for asn in customers:
        padded_cone[rng.choice(members)].append(asn)
    cone_out = {str(m): sorted(c) for m, c in cone.items()}
    cone_out.update({str(m): sorted(c) for m, c in padded_cone.items()})
    (out_dir / "cone.json").write_text(json.dumps(cone_out, indent=2, sort_keys=True) + "\n")

    taken: set = {(net, 24) for net, _, _ in asn_rows}
    rows = [(net, plen, asn) for net, plen, asn in asn_rows]
    rows += [(net, plen, str(rng.choice(pool))) for net, plen in
             _prefixes(rng, sizes.asn, forbidden, taken)]
    rows.sort()
    (out_dir / "asn.txt").write_text("".join(f"{_ip(n)}/{p} {a}\n" for n, p, a in rows))

    geo_rows = []
    with open(gen_dir / "geo.csv", newline="") as fh:
        for prefix, country in csv.reader(fh):
            net, plen = prefix.split("/")
            geo_rows.append((_key(net), int(plen), country))
    taken = {(net, plen) for net, plen, _ in geo_rows}
    geo_rows += [(net, plen, rng.choice(COUNTRIES)) for net, plen in
                 _prefixes(rng, sizes.geo, forbidden, taken)]
    geo_rows.sort()
    (out_dir / "geo.csv").write_text("".join(f"{_ip(n)}/{p},{c}\n" for n, p, c in geo_rows))

    used: set[int] = set()
    with open(gen_dir / "rdns.csv", newline="") as fh:
        rdns_rows = [tuple(row) for row in csv.reader(fh)]
    for value in _addresses(rng, sizes.rdns, forbidden, used):
        name = rng.choice(RDNS_NAMES).format(n=value & 0xFFFF, k=rng.randrange(1, 50))
        rdns_rows.append((_ip(value), name))
    rdns_rows.sort()
    (out_dir / "rdns.csv").write_text("".join(f"{ip},{name}\n" for ip, name in rdns_rows))

    hp_all = _addresses(rng, sizes.hp_all, forbidden, used)
    hp_ics = rng.sample(hp_all, sizes.hp_ics)
    for name, extra in (("hp_all.txt", hp_all), ("hp_ics.txt", hp_ics)):
        original = [_key(line) for line in (gen_dir / name).read_text().split()]
        lines = sorted(set(original) | set(extra))
        (out_dir / name).write_text("".join(_ip(v) + "\n" for v in lines))

    snapshot = json.loads((gen_dir / "scan_snapshot.json").read_text())
    hosts = _addresses(rng, sizes.scan_hosts, forbidden, used)
    protocols = ("bacnet", "dnp3", "ethernetip", "hartip", "iec104", "modbus", "s7comm")
    for index, protocol in enumerate(protocols):
        share = sorted(hosts[index::len(protocols)])
        entry = snapshot.setdefault(protocol, {"transport": [], "application": []})
        entry["transport"] = sorted(set(entry["transport"]) | {_ip(v) for v in share},
                                    key=_key)
        entry["application"] = sorted(set(entry["application"]) |
                                      {_ip(v) for v in share[::3]}, key=_key)
    (out_dir / "scan_snapshot.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    (out_dir / "registry.json").write_bytes((gen_dir / "registry.json").read_bytes())
