"""The report row builders (daily_series, host_stability, protocol_rank and
protocols_per_asn), which return the rows daily.tsv, stability.csv,
protocol_rank.csv and asn_protocols.csv print, against the intermediate
shapes they replaced (DayRow, HostActivity, a per-AS dict, rank-less pairs)
flattened into rows the way the analysis used to flatten them."""

from collections import defaultdict
from dataclasses import dataclass
from datetime import date, timedelta

from hypothesis import example, given, strategies as st

from ics_scope.capture import int_to_ip, ip_to_int
from ics_scope.dissectors import PROTOCOLS
from ics_scope.enrich import protocols_per_asn
from ics_scope.metrics import daily_series, host_stability, protocol_rank

_START = date(2018, 1, 1)


def _extrapolate(count: int, sample_interval: int) -> int:
    if sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    return count * sample_interval


@dataclass
class _DayRow:
    day: date
    total: int = 0
    industrial: int = 0
    extrapolated_total: int = 0
    extrapolated_industrial: int = 0


def _reference_daily_series(counts) -> dict[tuple[str, str], list[_DayRow]]:
    buckets: dict[tuple[str, str], dict[date, _DayRow]] = {}
    for (vantage, protocol, day, industrial, sample_interval), n in counts.items():
        series = buckets.setdefault((vantage, protocol), {})
        row = series.get(day)
        if row is None:
            row = series[day] = _DayRow(day=day)
        weight = _extrapolate(n, sample_interval)
        row.total += n
        row.extrapolated_total += weight
        if industrial:
            row.industrial += n
            row.extrapolated_industrial += weight
    out: dict[tuple[str, str], list[_DayRow]] = {}
    for key in sorted(buckets):
        series = buckets[key]
        first, last = min(series), max(series)
        rows = []
        day = first
        while day <= last:
            rows.append(series.get(day) or _DayRow(day=day))
            day += timedelta(days=1)
        out[key] = rows
    return out


def _reference_daily_rows(counts) -> list[list]:
    daily_rows = []
    for (vantage, protocol), rows in _reference_daily_series(counts).items():
        for row in rows:
            daily_rows.append([row.day, row.total, row.extrapolated_total,
                               f"{vantage}:{protocol}:total"])
            daily_rows.append([row.day, row.industrial, row.extrapolated_industrial,
                               f"{vantage}:{protocol}:industrial"])
    return daily_rows


@dataclass(frozen=True)
class _HostActivity:
    ip: str
    first_day: date
    last_day: date
    window_days: int
    active_day_count: int

    @property
    def stability(self) -> float:
        return self.active_day_count / self.window_days


def _reference_host_stability(days_by_ip) -> list[_HostActivity]:
    out = []
    for ip, days in days_by_ip.items():
        first, last = min(days), max(days)
        out.append(_HostActivity(ip=ip, first_day=first, last_day=last,
                                 window_days=(last - first).days + 1,
                                 active_day_count=len(days)))
    out.sort(key=lambda h: (-h.active_day_count, h.ip))
    return out


def _reference_stability_rows(stable_days) -> list[list]:
    days_by_ip: defaultdict[str, set] = defaultdict(set)
    for day, ips in stable_days.items():
        for ip in ips:
            days_by_ip[int_to_ip(ip)].add(day)
    return [[h.ip, h.first_day, h.last_day, h.window_days, h.active_day_count,
             round(h.stability, 4)] for h in _reference_host_stability(days_by_ip)]


def _reference_rank_rows(counts) -> list[list]:
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return [[i + 1, protocol, count] for i, (protocol, count) in enumerate(ranked)]


def _reference_asn_rows(request_protocols) -> list[list]:
    per_asn = {
        asn: {"protocols": sorted(protocols), "distinct": len(protocols),
              "suspicious": len(protocols) > 4}
        for asn, protocols in sorted(request_protocols.items())
    }
    return [[asn, info["distinct"], ";".join(info["protocols"]), info["suspicious"]]
            for asn, info in per_asn.items()]


# daily_counts keys: two vantages, each with several sample intervals, days
# with gaps between them, industrial and not.
_DAILY_KEYS = st.tuples(
    st.sampled_from(["ixp0", "ixp1"]),
    st.sampled_from(["bacnet", "modbus", "s7comm"]),
    st.integers(0, 40).map(lambda offset: _START + timedelta(days=offset)),
    st.booleans(),
    st.sampled_from([1, 2, 16, 16384]),
)
_DAILY_COUNTS = st.dictionaries(_DAILY_KEYS, st.integers(0, 10**6), max_size=40)

# A few addresses whose numeric and text orders differ, so that hosts tie in
# activity and their order is the address text's.
_HOSTS = [ip_to_int(ip) for ip in ("9.0.0.1", "10.0.0.9", "10.0.0.10", "100.64.0.2",
                                   "198.19.10.1", "255.255.255.255")]
_STABLE_DAYS = st.dictionaries(
    st.integers(0, 400).map(lambda offset: _START + timedelta(days=offset)),
    st.sets(st.sampled_from(_HOSTS), min_size=1),
    max_size=30,
)


@example(counts={
    ("ixp0", "bacnet", _START, True, 16384): 3,
    ("ixp0", "bacnet", _START, False, 1): 5,
    ("ixp0", "bacnet", _START + timedelta(days=3), True, 2): 1,
    ("ixp1", "bacnet", _START + timedelta(days=1), False, 16): 7,
})
@given(counts=_DAILY_COUNTS)
def test_daily_rows_are_the_reference_rows(counts):
    assert daily_series(counts) == _reference_daily_rows(counts)


@example(stable_days={
    _START: {_HOSTS[0], _HOSTS[1], _HOSTS[2]},
    _START + timedelta(days=5): {_HOSTS[1], _HOSTS[2]},
    _START + timedelta(days=9): {_HOSTS[3]},
})
@given(stable_days=_STABLE_DAYS)
def test_stability_rows_are_the_reference_rows(stable_days):
    assert host_stability(stable_days) == _reference_stability_rows(stable_days)


@given(counts=st.dictionaries(st.sampled_from(PROTOCOLS), st.integers(0, 50)))
def test_rank_rows_are_the_reference_rows(counts):
    assert protocol_rank(counts) == _reference_rank_rows(counts)


@given(request_protocols=st.dictionaries(
    st.integers(0, 2**32 - 1), st.sets(st.sampled_from(PROTOCOLS), min_size=1)))
def test_asn_rows_are_the_reference_rows(request_protocols):
    assert protocols_per_asn(request_protocols) == _reference_asn_rows(request_protocols)
