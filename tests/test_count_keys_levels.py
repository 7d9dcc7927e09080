"""count_keys' two levels on scan-shaped keys: the facts of each address an
exact table (rDNS, honeypots) holds once per side it appears on, of every
other address once per block and side, each transition and domestic status
once per distinct (protocol, direction, source facts, destination facts,
day), each date once per day, and every field as the per-key loop it
replaced counts it."""

from collections import Counter
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path

import pytest

from ics_scope import pipeline
from ics_scope.capture import _US_PER_DAY, CaptureMeta, ip_to_int
from ics_scope.dissectors import REQUEST
from ics_scope.pipeline import (
    STABILITY_LABELS,
    CaptureSource,
    CaptureState,
    PipelineConfig,
    count_keys,
)

from test_count_keys import _INPUTS, TAGS, _reference_state

_DAYS = (17532, 17533)
# A Shodan prefix, a Censys prefix outside every AS and a scanner rDNS name
# inside member 64500; the destinations fill most of a /21 of member 64501,
# a honeypot (10.2.0.70) among them, and a name no project matches
# (10.2.0.1), which leaves its address out of the rDNS table.
_SCANNERS = [ip_to_int(ip) for ip in ("203.0.113.5", "198.51.100.7", "10.1.0.50")]
_TARGETS = [ip_to_int("10.2.0.0") + i for i in range(2000)]
# Censys' 203.0.113.128/25 is the longest prefix of _INPUTS' three prefix
# tables, so a block is 128 addresses.
_BLOCK_BITS = 7
# _address_facts evaluations on _scan_keys: the 13 sources and 2,001
# destinations fall in 4 and 18 blocks and exact addresses.
_EVALUATIONS = 22


def _scan_keys() -> Counter:
    """3 scanners x 2,000 destinations x 2 days of requests, and the first
    ten destinations replying to the first scanner on the second day, so
    that some addresses appear on both sides."""
    keys = Counter({("modbus", REQUEST, src, dst, day): 1 + dst % 3
                    for src in _SCANNERS for dst in _TARGETS for day in _DAYS})
    for dst in _TARGETS[:10]:
        keys[("modbus", "reply", dst, _SCANNERS[0], _DAYS[1])] += 2
    return keys


def _counted(monkeypatch, name: str, calls: dict[str, Counter]) -> None:
    """Count each call of pipeline.name under its first two arguments."""
    real = getattr(pipeline, name)
    calls[name] = Counter()

    def wrapper(*args):
        calls[name][args[:2]] += 1
        return real(*args)

    monkeypatch.setattr(pipeline, name, wrapper)


@pytest.mark.parametrize("stability_label", STABILITY_LABELS)
def test_count_keys_joins_once_per_distinct_facts_and_day(monkeypatch, stability_label):
    keys = _scan_keys()
    source = CaptureSource(Path("unused.pcap"), CaptureMeta("tagged", 16384))
    config = PipelineConfig(captures=[source], stability_label=stability_label,
                            tag_members=TAGS)
    calls: dict[str, Counter] = {}
    for name in ("_address_facts", "transition", "is_domestic", "utc_day"):
        _counted(monkeypatch, name, calls)
    state = CaptureState()
    count_keys(state, keys, source.meta, config, _INPUTS)
    monkeypatch.undo()

    ingress, egress = TAGS["tagged:in"], TAGS["tagged:out"]  # the sides' members
    sides = {(ip, ingress) for _, _, ip, _, _ in keys}
    sides |= {(ip, egress) for _, _, _, ip, _ in keys}
    facts = {side: pipeline._address_facts(*side, _INPUTS) for side in sides}
    joins = {(protocol, direction, facts[(src, ingress)], facts[(dst, egress)], day)
             for protocol, direction, src, dst, day in keys}
    assert len(keys) == 12_010 and len(joins) == 13

    exact = _INPUTS.rdns.mapping.keys() | _INPUTS.honeypots.hp_all | _INPUTS.honeypots.hp_ics

    def block(ip):
        return ("address", ip) if ip in exact else ("block", ip >> _BLOCK_BITS)

    evaluated = calls["_address_facts"]
    assert set(evaluated) <= sides
    assert (Counter((block(ip), member) for ip, member in evaluated.elements())
            == Counter({(block(ip), member) for ip, member in sides}))
    assert evaluated.total() == _EVALUATIONS
    assert calls["transition"].total() == calls["is_domestic"].total() == len(joins)
    assert calls["utc_day"] == Counter({(day * _US_PER_DAY,): 1 for day in _DAYS})

    epoch = date(1970, 1, 1)
    dated = Counter({(*key[:4], epoch + timedelta(days=key[4])): n for key, n in keys.items()})
    expected = _reference_state(dated, source, config, _INPUTS)
    for f in fields(CaptureState):
        assert getattr(state, f.name) == getattr(expected, f.name), f.name
