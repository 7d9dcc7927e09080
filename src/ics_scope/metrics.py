"""Aggregate reports: daily series with extrapolation, host stability, protocol rank.

Each function returns the rows its report file prints, from the run-state
field (pipeline.CaptureState) it reads.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from datetime import timedelta

from .capture import int_to_ip


def host_stability(stable_days) -> list[list]:
    """stability.csv's rows: per host, [address, first day, last day, window
    days (inclusive of both), active days, active / window to 4 places].

    stable_days: mapping of day to the set of addresses seen that day.
    Sorted by active days descending, then by address text for determinism.
    """
    days_by_ip: defaultdict[int, list] = defaultdict(list)
    for day, ips in stable_days.items():
        for ip in ips:
            days_by_ip[ip].append(day)
    rows = []
    for ip, days in days_by_ip.items():
        first, last, active = min(days), max(days), len(days)
        window = (last - first).days + 1
        rows.append([int_to_ip(ip), first, last, window, active, round(active / window, 4)])
    rows.sort(key=lambda row: (-row[4], row[0]))
    return rows


def protocol_rank(counts) -> list[list]:
    """protocol_rank.csv's rows: [rank from 1, protocol, packets] by packet
    count, ties broken lexicographically.

    counts: mapping of protocol to packet count.
    """
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [[rank, protocol, n] for rank, (protocol, n) in enumerate(ranked, 1)]


def daily_series(counts) -> list[list]:
    """daily.tsv's rows: per (vantage, protocol) in order, every day from its
    first to its last, gap days zero-filled, as a total and an industrial
    row of [day, packets, on-wire estimate, "vantage:protocol:kind"].

    counts: mapping of (vantage, protocol, day, industrial: bool,
    sample_interval) to packet count, the interval being that of the
    packets' capture, so captures of one vantage with different intervals
    extrapolate each packet by its own. The total and industrial series sit
    side by side so filtered and unfiltered views stay comparable.
    """
    packets: Counter = Counter()  # per (vantage, protocol, day, kind)
    on_wire: Counter = Counter()
    days: defaultdict = defaultdict(set)  # per (vantage, protocol)
    for (vantage, protocol, day, industrial, sample_interval), n in counts.items():
        days[(vantage, protocol)].add(day)
        for kind in ("total", "industrial") if industrial else ("total",):
            packets[(vantage, protocol, day, kind)] += n
            on_wire[(vantage, protocol, day, kind)] += n * sample_interval
    rows = []
    for (vantage, protocol), seen in sorted(days.items()):
        day, last = min(seen), max(seen)
        while day <= last:
            for kind in ("total", "industrial"):
                key = (vantage, protocol, day, kind)
                rows.append([day, packets[key], on_wire[key], f"{vantage}:{protocol}:{kind}"])
            day += timedelta(days=1)
    return rows
