"""Aggregate metrics: daily series, extrapolation, rankings, host stability."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta


def extrapolate(count: int, sample_interval: int) -> int:
    """On-wire estimate for a sampled count; exact integer arithmetic."""
    if sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    return count * sample_interval


@dataclass(frozen=True)
class HostActivity:
    """Activity window and active-day count for one destination host."""

    ip: str
    first_day: date
    last_day: date
    window_days: int  # inclusive of both endpoints
    active_day_count: int

    @property
    def stability(self) -> float:
        return self.active_day_count / self.window_days


def host_stability(days_by_ip) -> list[HostActivity]:
    """Per-host (window, active days) from a mapping of ip to its set of days.

    Sorted by active-day count descending, then by address for determinism.
    """
    out = []
    for ip, days in days_by_ip.items():
        first, last = min(days), max(days)
        out.append(
            HostActivity(
                ip=ip,
                first_day=first,
                last_day=last,
                window_days=(last - first).days + 1,
                active_day_count=len(days),
            )
        )
    out.sort(key=lambda h: (-h.active_day_count, h.ip))
    return out


def protocol_rank(counts) -> list[tuple[str, int]]:
    """Protocols by packet count, ties broken lexicographically.

    counts: mapping of protocol to packet count.
    """
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))


@dataclass
class DayRow:
    """Sampled counts of one day and their on-wire estimates."""

    day: date
    total: int = 0
    industrial: int = 0
    extrapolated_total: int = 0
    extrapolated_industrial: int = 0


def daily_series(counts) -> dict[tuple[str, str], list[DayRow]]:
    """Daily totals per (vantage, protocol) with gap days zero-filled.

    counts: mapping of (vantage, protocol, day, industrial: bool,
    sample_interval) to packet count, the interval being that of the
    packets' capture, so captures of one vantage with different intervals
    extrapolate each packet by its own. The total and industrial series sit
    side by side in each row so filtered and unfiltered views stay
    comparable.
    """
    buckets: dict[tuple[str, str], dict[date, DayRow]] = {}
    for (vantage, protocol, day, industrial, sample_interval), n in counts.items():
        series = buckets.setdefault((vantage, protocol), {})
        row = series.get(day)
        if row is None:
            row = series[day] = DayRow(day=day)
        weight = extrapolate(n, sample_interval)
        row.total += n
        row.extrapolated_total += weight
        if industrial:
            row.industrial += n
            row.extrapolated_industrial += weight
    out: dict[tuple[str, str], list[DayRow]] = {}
    for key in sorted(buckets):
        series = buckets[key]
        first, last = min(series), max(series)
        rows = []
        day = first
        while day <= last:
            rows.append(series.get(day) or DayRow(day=day))
            day += timedelta(days=1)
        out[key] = rows
    return out
