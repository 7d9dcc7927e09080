import random
from collections import Counter
from datetime import date, timedelta

import pytest
from hypothesis import given, strategies as st

from ics_scope.capture import utc_day
from ics_scope.classify import filter_report
from ics_scope.dissectors import Dissection
from ics_scope.metrics import (
    daily_series,
    extrapolate,
    host_stability,
    protocol_rank,
)

_DAY_US = 86_400_000_000


def _ts(day: date, offset_us: int = 0) -> int:
    return (day.toordinal() - date(1970, 1, 1).toordinal()) * _DAY_US + offset_us


def _daily(entries) -> Counter:
    """daily_series input from (vantage, protocol, ts_us, industrial, interval) packets."""
    return Counter((vantage, protocol, utc_day(ts), industrial, interval)
                   for vantage, protocol, ts, industrial, interval in entries)


def _by_ip(rows) -> dict:
    """host_stability input from (ip, day) observations."""
    days: dict = {}
    for ip, day in rows:
        days.setdefault(ip, set()).add(day)
    return days


def test_extrapolate_values():
    assert extrapolate(5, 16384) == 81920
    assert extrapolate(7, 1) == 7
    assert extrapolate(0, 123) == 0
    with pytest.raises(ValueError):
        extrapolate(1, 0)


@given(a=st.integers(min_value=0, max_value=10**9),
       b=st.integers(min_value=0, max_value=10**9),
       s=st.integers(min_value=1, max_value=2**20))
def test_extrapolate_linear(a, b, s):
    assert extrapolate(a + b, s) == extrapolate(a, s) + extrapolate(b, s)


def _request_shares(rows):
    report = filter_report(Counter((p, d, frozenset()) for p, d in rows))
    return {row["protocol"]: row["request_share"] for row in report}


def test_request_share_planted():
    rows = [("bacnet", "request")] * 99 + [("bacnet", "reply")]
    shares = _request_shares(rows)
    assert shares["bacnet"] == pytest.approx(0.99)


def test_request_share_balanced_and_null():
    rows = [("modbus", "request")] * 5 + [("modbus", "reply")] * 5
    rows += [("s7comm", "unrelated")] * 4
    shares = _request_shares(rows)
    assert shares["modbus"] == pytest.approx(0.5)
    assert shares["s7comm"] is None
    assert Counter(rows)[("s7comm", "unrelated")] == 4


def test_host_stability_inclusive_window():
    start = date(2018, 1, 1)
    rows = [("10.0.0.1", start), ("10.0.0.1", start + timedelta(days=9))]
    activity = host_stability(_by_ip(rows))[0]
    assert (activity.window_days, activity.active_day_count) == (10, 2)


def test_host_stability_single_day():
    activity = host_stability({"10.0.0.1": {date(2018, 3, 3)}})[0]
    assert (activity.window_days, activity.active_day_count) == (1, 1)
    assert activity.stability == 1.0


def test_host_stability_replicates_stable_host_tuple():
    start = date(2017, 10, 5)
    rng = random.Random(8)
    offsets = {0, 178} | set(rng.sample(range(1, 178), 144))
    assert len(offsets) == 146
    rows = [("10.1.1.1", start + timedelta(days=o)) for o in sorted(offsets)]
    activity = host_stability(_by_ip(rows))[0]
    assert (activity.window_days, activity.active_day_count) == (179, 146)


def test_host_stability_sorted_by_activity():
    start = date(2018, 1, 1)
    rows = [("10.0.0.2", start + timedelta(days=i)) for i in range(3)]
    rows += [("10.0.0.1", start)]
    result = host_stability(_by_ip(rows))
    assert [h.ip for h in result] == ["10.0.0.2", "10.0.0.1"]


@given(
    st.dictionaries(
        st.ip_addresses(v=4).map(str),
        st.sets(st.integers(min_value=0, max_value=400), min_size=1, max_size=40),
        min_size=1,
        max_size=10,
    )
)
def test_host_stability_bruteforce(host_days):
    start = date(2017, 1, 1)
    rows = [
        (ip, start + timedelta(days=offset))
        for ip, offsets in host_days.items()
        for offset in offsets
    ]
    for activity in host_stability(_by_ip(rows)):
        offsets = host_days[activity.ip]
        days = sorted(start + timedelta(days=o) for o in offsets)
        # Brute force: walk every day in the window and count.
        window = 0
        active = 0
        day = days[0]
        while day <= days[-1]:
            window += 1
            if day in set(days):
                active += 1
            day += timedelta(days=1)
        assert activity.window_days == window
        assert activity.active_day_count == active
        assert activity.first_day in activity.active_days
        assert activity.last_day in activity.active_days
        assert 1 <= activity.active_day_count <= activity.window_days


def _dissection(protocol):
    return Dissection(protocol, "normal", "request", None, "well_formed")


def _counts(dissections):
    return Counter(d.protocol for d in dissections)


def test_protocol_rank_order_and_ties():
    stream = [_dissection("modbus")] * 10 + [_dissection("bacnet")] * 5
    assert protocol_rank(_counts(stream)) == [("modbus", 10), ("bacnet", 5)]
    tied = [_dissection("dnp3")] * 3 + [_dissection("bacnet")] * 3
    assert protocol_rank(_counts(tied)) == [("bacnet", 3), ("dnp3", 3)]


def test_protocol_rank_conserves_counts():
    rng = random.Random(2)
    stream = [_dissection(rng.choice(["a", "b", "c"])) for _ in range(500)]
    ranked = protocol_rank(_counts(stream))
    assert sum(count for _, count in ranked) == 500


def test_daily_series_utc_bucketing_and_gaps():
    d1 = date(2018, 1, 3)
    entries = [
        ("vp", "bacnet", _ts(d1, _DAY_US - 1), True, 1),  # 23:59:59.999999 stays on day 1
        ("vp", "bacnet", _ts(d1 + timedelta(days=3)), False, 1),
    ]
    series = daily_series(_daily(entries))[("vp", "bacnet")]
    assert [row.day for row in series] == [d1 + timedelta(days=i) for i in range(4)]
    assert series[0].total == 1 and series[0].industrial == 1
    assert series[1].total == 0 and series[2].total == 0
    assert series[3].total == 1 and series[3].industrial == 0


def test_daily_series_scanner_spike_only_in_total():
    base = date(2018, 1, 1)
    entries = [("vp", "bacnet", _ts(base + timedelta(days=i)), True, 1) for i in range(5)]
    entries += [("vp", "bacnet", _ts(base + timedelta(days=2), 50), False, 1)
                for _ in range(100)]
    series = daily_series(_daily(entries))[("vp", "bacnet")]
    spike = series[2]
    assert spike.total == 101
    assert spike.industrial == 1


def test_daily_series_conservation():
    rng = random.Random(9)
    base = date(2018, 2, 1)
    entries = []
    for _ in range(800):
        entries.append(
            ("vp", rng.choice(["modbus", "bacnet"]),
             _ts(base + timedelta(days=rng.randrange(20)), rng.randrange(_DAY_US)),
             rng.random() < 0.5, 1)
        )
    series = daily_series(_daily(entries))
    total = sum(row.total for rows in series.values() for row in rows)
    assert total == 800


def test_day_row_extrapolation():
    day = _ts(date(2018, 1, 1))
    entries = [("vp", "bacnet", day, i < 2, 16384) for i in range(5)]
    row = daily_series(_daily(entries))[("vp", "bacnet")][0]
    assert (row.extrapolated_total, row.extrapolated_industrial) == (81920, 32768)


def test_daily_series_empty():
    assert daily_series({}) == {}
