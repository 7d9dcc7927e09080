"""The value types built per record and per candidate are immutable values:
a field cannot be assigned, a pickle round trip gives an equal value, and
_replace changes the named field alone. An address's classify reasons are
immutable strings, the tags the ground truth writes."""

import pickle

import pytest

from ics_scope.capture import TCP, PacketRecord, ip_to_int
from ics_scope.classify import (HoneypotSets, RdnsTable, ScannerRegistry, endpoint_reasons,
                                reason_tags)
from ics_scope.dissectors import MODBUS, NORMAL, REQUEST, UNRELATED, WELL_FORMED, Dissection

VALUES = {
    "record": (PacketRecord(1_515_023_999_123_456, 0x0A000001, 0x0A000002, TCP, 49152, 502,
                            b"\x00\x01\x00\x00\x00\x06\x01\x03", 12), "dst_port", 503),
    "dissection": (Dissection(MODBUS, NORMAL, REQUEST, 3, WELL_FORMED, REQUEST), "direction",
                   UNRELATED),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_is_frozen_and_pickles(name):
    value, field, other = VALUES[name]
    for attr in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, attr, getattr(value, attr))
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and type(copy) is type(value)
    changed = value._replace(**{field: other})
    assert getattr(changed, field) == other
    assert [getattr(changed, f) for f in value._fields if f != field] == \
        [getattr(value, f) for f in value._fields if f != field]


def test_reasons_sort_by_kind_then_project_and_tag():
    ip = ip_to_int("203.0.113.5")
    registry = ScannerRegistry.from_entries([{"project": "Censys", "prefixes": ["203.0.113.0/24"]},
                                             {"project": "Shodan", "rdns_patterns": ["shodan"]}])
    reasons = endpoint_reasons(ip, registry, RdnsTable({ip: "Shodan"}),
                               HoneypotSets(frozenset({ip}), frozenset({ip})))
    assert type(reasons) is frozenset and {type(reason) for reason in reasons} == {str}
    assert pickle.loads(pickle.dumps(reasons)) == reasons
    assert sorted(reasons) == ["hp_all", "hp_ics", "scanner_prefix:Censys", "scanner_rdns:Shodan"]
    assert reason_tags("Censys", "Shodan", True, True) == tuple(sorted(reasons))
