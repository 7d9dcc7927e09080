"""A whole read of a capture, and the record of one frame, as the tests look at them."""

from __future__ import annotations

from collections import Counter

from ics_scope.capture import PCAP_HEADER_LEN, PacketRecord, _decode_frame, read_capture


def read_all(path, meta, start: int = PCAP_HEADER_LEN, stop: int | None = None):
    """The records a read of [start, stop) of path yields, in file order, and
    the Counter of its outcomes: RECORD or a skip reason, one per frame."""
    records, outcomes = [], Counter()
    for record, outcome in read_capture(path, meta, start, stop):
        outcomes[outcome] += 1
        if record is not None:
            records.append(record)
    return records, outcomes


def record_from_frame(frame: bytes, ts: int = 0,
                      captured_len: int | None = None) -> PacketRecord | None:
    """The record the reader yields for a frame captured up to captured_len bytes.

    None exactly where the reader skips the frame. It reuses the reader's
    decode, so that fixtures cannot drift from what the reader yields.
    """
    return _decode_frame(frame[:captured_len], ts)[0]
