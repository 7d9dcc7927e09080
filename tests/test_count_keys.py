"""count_keys, which computes each fact once per distinct address, reason
set and day and joins them per key, against the loop it replaced, which
classified and enriched every key from scratch and labelled its reasons
under each filter family."""

from collections import Counter
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ics_scope.capture import CaptureMeta, int_to_ip, ip_to_int, parse_cidr
from ics_scope.classify import (
    FAMILIES,
    FILTER_FAMILIES,
    HP_ALL,
    HP_ICS,
    INDUSTRIAL,
    SCANNER_PREFIX,
    SCANNER_RDNS,
    HoneypotSets,
    RdnsTable,
    ScannerRegistry,
    label_under,
)
from ics_scope.dissectors import REQUEST
from ics_scope.enrich import UNKNOWN_TRANSITION, IxpTopology, LpmTable
from ics_scope.pipeline import (
    STABILITY_LABELS,
    CaptureSource,
    CaptureState,
    LoadedInputs,
    PipelineConfig,
    count_keys,
)
from ics_scope.sanitize import default_catalog


def _reference_classify(src_ip, dst_ip, registry, rdns, honeypots):
    reasons = set()
    for ip in (src_ip, dst_ip):
        project = registry.prefixes.lookup(ip)
        if project:
            reasons.add(f"{SCANNER_PREFIX}:{project}")
        project = rdns.get(ip)
        if project:
            reasons.add(f"{SCANNER_RDNS}:{project}")
        if ip in honeypots.hp_all:
            reasons.add(HP_ALL)
        if ip in honeypots.hp_ics:
            reasons.add(HP_ICS)
    return frozenset(reasons)


def _reference_transition(src_asn, dst_asn, ingress_member, egress_member, topo):
    def side(asn, member):
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


def _reference_is_domestic(src_ip, dst_ip, geo):
    src_country = geo.lookup(src_ip)
    dst_country = geo.lookup(dst_ip)
    if src_country is None or dst_country is None:
        return None
    return src_country == dst_country


def _reference_state(keys, source, config, inputs) -> CaptureState:
    """The per-key loop count_keys replaced, over keys whose day is a date."""
    state = CaptureState()
    vantage, sample_interval = source.meta.vantage, source.meta.sample_interval
    ingress_tag, egress_tag = f"{vantage}:in", f"{vantage}:out"
    active = FILTER_FAMILIES[config.filters]
    for key, n in keys.items():
        protocol, packet_direction, src_ip, dst_ip, day = key
        reasons = _reference_classify(src_ip, dst_ip, inputs.scanner_registry, inputs.rdns,
                                      inputs.honeypots)
        label = label_under(reasons, active)
        flags = tuple(label_under(reasons, family) != INDUSTRIAL for _, _, family in FAMILIES)
        state.filter_counts[(protocol, packet_direction, flags)] += n
        state.daily_counts[(vantage, protocol, day, label == INDUSTRIAL, sample_interval)] += n
        if config.stability_label == "all" or label == config.stability_label:
            state.stable_days[day].add(dst_ip)
        state.passive_hosts[(protocol, "source")].add(src_ip)
        state.passive_hosts[(protocol, "destination")].add(dst_ip)

        src_asn = inputs.asn_table.lookup(src_ip)
        dst_asn = inputs.asn_table.lookup(dst_ip)
        if packet_direction == REQUEST and src_asn is not None:
            state.request_protocols[src_asn].add(protocol)
        ingress = config.tag_members.get(ingress_tag, inputs.topology.resolve_member(src_asn))
        egress = config.tag_members.get(egress_tag, inputs.topology.resolve_member(dst_asn))
        state.groups[(protocol, label)][_reference_transition(src_asn, dst_asn, ingress, egress,
                                                              inputs.topology)] += n
        domestic = _reference_is_domestic(src_ip, dst_ip, inputs.geo)
        status = "domestic" if domestic else ("foreign" if domestic is False else "unresolved")
        state.groups[(protocol, label)][status] += n
    return state


def _table(rows) -> LpmTable:
    """The table of (prefix, value) rows; a later row wins for a repeated prefix."""
    return LpmTable(*zip(*[(plen, network >> (32 - plen), value) for prefix, value in rows
                           for network, plen in [parse_cidr(prefix, strict=False)]]))


# Members 64500 and 64501 with cones; 64999 is an AS no member's cone holds.
# A capture of vantage "tagged" reads the tags of TAGS; one of vantage
# "plain" has none.
TAGS = {"tagged:in": 64500, "tagged:out": 64501}
_REGISTRY = ScannerRegistry.from_entries([
    {"project": "Shodan", "prefixes": ["203.0.113.0/24"], "rdns_patterns": ["shodan"]},
    {"project": "Censys", "prefixes": ["203.0.113.128/25", "198.51.100.0/24"],
     "rdns_patterns": ["censys"]},
])
_INPUTS = LoadedInputs(
    scanner_registry=_REGISTRY,
    honeypots=HoneypotSets(hp_all=frozenset(map(ip_to_int, ["10.2.0.70", "10.3.0.80"])),
                           hp_ics=frozenset([ip_to_int("10.3.0.80")])),
    rdns=RdnsTable.from_names({ip_to_int("10.1.0.50"): "scan-7.shodan.io",
                               ip_to_int("10.4.0.60"): "worker.censys-scanner.com",
                               ip_to_int("10.2.0.1"): "plc.example.net"}, _REGISTRY),
    asn_table=_table([("10.1.0.0/16", 64500), ("10.2.0.0/16", 64501), ("10.3.0.0/16", 64600),
                      ("10.4.0.0/16", 64700), ("10.5.0.0/16", 64999),
                      ("203.0.113.0/24", 64800)]),
    topology=IxpTopology({64500: frozenset({64600}), 64501: frozenset({64700, 64800})}),
    geo=_table([("10.1.0.0/16", "DE"), ("10.2.0.0/16", "DE"), ("10.3.0.0/16", "FR"),
                ("10.4.0.0/16", "FR"), ("203.0.113.0/24", "US")]),
    scan_snapshot={},
    dpi_catalog=default_catalog(),
)

# Members, cones, an AS outside every cone, no AS and no country, scanner
# prefixes (the /25 inside the /24), scanner rDNS names and honeypots.
_ADDRESSES = [ip_to_int(ip) for ip in (
    "10.1.0.1", "10.1.0.2", "10.2.0.1", "10.3.0.1", "10.4.0.1", "10.5.0.1", "10.6.0.1",
    "203.0.113.5", "203.0.113.200", "198.51.100.7", "10.1.0.50", "10.4.0.60",
    "10.2.0.70", "10.3.0.80")]

_KEYS = st.dictionaries(
    st.tuples(st.sampled_from(["modbus", "bacnet"]), st.sampled_from([REQUEST, "reply"]),
              st.sampled_from(_ADDRESSES), st.sampled_from(_ADDRESSES),
              st.integers(17532, 17536)),
    st.integers(1, 5), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(keys=_KEYS, vantage=st.sampled_from(["tagged", "plain"]),
       sample_interval=st.sampled_from([1, 16384]),
       filters=st.sampled_from(sorted(FILTER_FAMILIES)),
       stability_label=st.sampled_from(STABILITY_LABELS))
def test_count_keys_equals_the_per_key_loop(keys, vantage, sample_interval, filters,
                                            stability_label):
    source = CaptureSource(Path("unused.pcap"), CaptureMeta(vantage, sample_interval))
    config = PipelineConfig(captures=[source], filters=filters, stability_label=stability_label,
                            tag_members=TAGS)
    state = CaptureState()
    count_keys(state, Counter(keys), source.meta, config, _INPUTS)
    epoch = date(1970, 1, 1)
    dated = Counter({(*key[:4], epoch + timedelta(days=key[4])): n for key, n in keys.items()})
    expected = _reference_state(dated, source, config, _INPUTS)
    for f in fields(CaptureState):
        assert getattr(state, f.name) == getattr(expected, f.name), f.name


# Addresses of four /24s, so that drawn prefixes and exact-table hosts meet.
_NEAR = st.builds(lambda net, host: ip_to_int("10.0.0.0") + (net << 8) + host,
                  st.integers(0, 3), st.integers(0, 255))


@st.composite
def _random_inputs(draw) -> tuple[LoadedInputs, tuple[list[int], list[int]]]:
    """Inputs of drawn prefix tables, /8 to /32 (any of them empty, the
    registry holding a /32 now and then), and of exact tables: rDNS names,
    and honeypot lists built directly, hp_ics not always within hp_all.
    Also the anchors: the network addresses of the prefixes, and the exact
    hosts. The tables are small, so that their longest prefix is often
    short and blocks hold many addresses."""
    networks, hosts_drawn = [], []

    def prefixes(size: int, lengths=st.integers(8, 32)) -> list[str]:
        out = []
        for _ in range(draw(st.integers(0, size))):
            plen = draw(lengths)
            networks.append(draw(_NEAR) >> (32 - plen) << (32 - plen))
            out.append(f"{int_to_ip(networks[-1])}/{plen}")
        return out

    def prefix_table(values) -> LpmTable:
        return _table([(prefix, draw(st.sampled_from(values))) for prefix in prefixes(3)])

    def hosts(size: int) -> list[int]:
        drawn = draw(st.lists(_NEAR, max_size=size))
        hosts_drawn.extend(drawn)
        return drawn

    projects = [{"project": name, "prefixes": prefixes(2, st.integers(8, 24)),
                 "rdns_patterns": [name.lower()]} for name in ("Shodan", "Censys")]
    projects[1]["prefixes"] += prefixes(1, st.just(32))
    names = st.sampled_from(["scan-1.shodan.io", "censys-worker.example", "plc.example.net"])
    registry = ScannerRegistry.from_entries(projects)
    inputs = LoadedInputs(
        scanner_registry=registry,
        honeypots=HoneypotSets(hp_all=frozenset(hosts(4)), hp_ics=frozenset(hosts(3))),
        rdns=RdnsTable.from_names({ip: draw(names) for ip in hosts(4)}, registry),
        asn_table=prefix_table([64500, 64501, 64600, 64700, 64999]),
        topology=_INPUTS.topology,
        geo=prefix_table(["DE", "FR"]),
        scan_snapshot={},
        dpi_catalog=default_catalog(),
    )
    return inputs, (networks, hosts_drawn)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), drawn=_random_inputs(), vantage=st.sampled_from(["tagged", "plain"]),
       filters=st.sampled_from(sorted(FILTER_FAMILIES)),
       stability_label=st.sampled_from(STABILITY_LABELS))
def test_count_keys_equals_the_per_key_loop_on_any_tables(data, drawn, vantage, filters,
                                                          stability_label):
    inputs, anchors = drawn
    # Any address, or one that differs from a network address or an exact
    # host in a few low bits: in its block or prefix, or just outside it.
    addresses = st.one_of(_NEAR, *(
        st.builds(int.__xor__, st.sampled_from(some), st.sampled_from([0, 1, 2, 7, 8, 63, 255]))
        for some in anchors if some))
    keys = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(["modbus", "bacnet"]), st.sampled_from([REQUEST, "reply"]),
                  addresses, addresses, st.integers(17532, 17533)),
        st.integers(1, 5), min_size=1, max_size=30))
    source = CaptureSource(Path("unused.pcap"), CaptureMeta(vantage))
    config = PipelineConfig(captures=[source], filters=filters, stability_label=stability_label,
                            tag_members=TAGS)
    state = CaptureState()
    count_keys(state, Counter(keys), source.meta, config, inputs)
    epoch = date(1970, 1, 1)
    dated = Counter({(*key[:4], epoch + timedelta(days=key[4])): n for key, n in keys.items()})
    expected = _reference_state(dated, source, config, inputs)
    for f in fields(CaptureState):
        assert getattr(state, f.name) == getattr(expected, f.name), f.name
