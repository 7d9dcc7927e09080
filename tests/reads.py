"""A whole read of a capture, as the tests look at it."""

from __future__ import annotations

from collections import Counter

from ics_scope.capture import PCAP_HEADER_LEN, read_capture


def read_all(path, meta, start: int = PCAP_HEADER_LEN, stop: int | None = None):
    """The records a read of [start, stop) of path yields, in file order, and
    the Counter of its outcomes: RECORD or a skip reason, one per frame."""
    records, outcomes = [], Counter()
    for record, outcome in read_capture(path, meta, start, stop):
        outcomes[outcome] += 1
        if record is not None:
            records.append(record)
    return records, outcomes
