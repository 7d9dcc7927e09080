"""The value types built per record, per candidate and per key are immutable
values: a field cannot be assigned, a pickle round trip gives an equal value,
and _replace changes the named field alone."""

import pickle

import pytest

from ics_scope.capture import TCP, PacketRecord
from ics_scope.classify import HP_ALL, HP_ICS, SCANNER_PREFIX, SCANNER_RDNS, Reason
from ics_scope.dissectors import MODBUS, NORMAL, REQUEST, UNRELATED, WELL_FORMED, Dissection

VALUES = {
    "record": (PacketRecord(1_515_023_999_123_456, 0x0A000001, 0x0A000002, TCP, 49152, 502,
                            b"\x00\x01\x00\x00\x00\x06\x01\x03", 12), "dst_port", 503),
    "dissection": (Dissection(MODBUS, NORMAL, REQUEST, 3, WELL_FORMED, REQUEST), "direction",
                   UNRELATED),
    "reason": (Reason(SCANNER_PREFIX, "Shodan"), "project", "Censys"),
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
    reasons = [Reason(SCANNER_RDNS, "Shodan"), Reason(HP_ICS), Reason(SCANNER_PREFIX, "Shodan"),
               Reason(HP_ALL), Reason(SCANNER_PREFIX, "Censys")]
    assert sorted(reasons) == [Reason(HP_ALL), Reason(HP_ICS), Reason(SCANNER_PREFIX, "Censys"),
                               Reason(SCANNER_PREFIX, "Shodan"), Reason(SCANNER_RDNS, "Shodan")]
    assert [reason.tag() for reason in sorted(reasons)] == [
        "hp_all", "hp_ics", "scanner_prefix:Censys", "scanner_prefix:Shodan",
        "scanner_rdns:Shodan"]
