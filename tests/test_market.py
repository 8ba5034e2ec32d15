from __future__ import annotations

import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from senticast.errors import CalendarError, DomainError, ParseError, ValidationError
from senticast.market import (
    BusinessCalendar,
    OhlcvBar,
    PriceSeries,
    atr,
    daily_returns_sigma,
    min_max_scale,
    parse_ohlcv_csv,
    smooth,
)

CAL = BusinessCalendar()


def write_csv(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join(["date,open,high,low,close,adj_close,volume"] + rows) + "\n")
    return path


def _next(day: date) -> date:
    from datetime import timedelta

    return CAL.next_business_day(day + timedelta(days=1))


def make_bars(hlc: list[tuple[float, float, float]]) -> PriceSeries:
    day = date(2021, 1, 4)  # Monday
    bars = []
    for high, low, close in hlc:
        bars.append(OhlcvBar(day, low, high, low, close, close, 1000.0))
        day = _next(day)
    return PriceSeries("TST", bars)


class TestParseOhlcv:
    def test_well_formed_file_parses_in_date_order(self, tmp_path):
        path = write_csv(
            tmp_path / "aaa.csv",
            [
                "2021-01-06,10,11,9,10.5,10.5,1000",
                "2021-01-04,10,11,9,10.2,10.2,900",
                "2021-01-05,10,11,9,10.4,10.4,800",
            ],
        )
        series = parse_ohlcv_csv(path, CAL, "AAA")
        assert series.ticker == "AAA"
        assert [b.date.day for b in series.bars] == [4, 5, 6]

    def test_low_above_high_is_rejected(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["2021-01-04,10,9,11,10,10,1000"])
        with pytest.raises(ValidationError, match="low|high"):
            parse_ohlcv_csv(path, CAL)

    def test_saturday_row_raises_calendar_error(self, tmp_path):
        path = write_csv(tmp_path / "sat.csv", ["2021-01-09,10,11,9,10,10,1000"])
        with pytest.raises(CalendarError, match="2021-01-09"):
            parse_ohlcv_csv(path, CAL)

    def test_holiday_row_raises_calendar_error(self, tmp_path):
        cal = BusinessCalendar([date(2021, 1, 5)])
        path = write_csv(tmp_path / "hol.csv", ["2021-01-05,10,11,9,10,10,1000"])
        with pytest.raises(CalendarError):
            parse_ohlcv_csv(path, cal)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["2021-01-04,10,11,9,ten,10,1000"])
        with pytest.raises(ParseError, match=":2"):
            parse_ohlcv_csv(path, CAL)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("date,open,high,low,close,volume\n")
        with pytest.raises(ParseError):
            parse_ohlcv_csv(path, CAL)


class TestSmooth:
    def test_ewma_constant_series_is_fixed_point(self):
        assert smooth([3.0, 3.0, 3.0], "ewma", 7) == [3.0, 3.0, 3.0]

    def test_ewma_span_15_hand_case(self):
        # alpha = 2/16 = 0.125; s_2 = 0.125*1 + 0.875*0
        assert smooth([0.0, 1.0], "ewma", 15) == [0.0, 0.125]

    def test_rolling_mean_skips_incomplete_windows(self):
        assert smooth([1.0, 2.0, 3.0, 4.0], "rolling_mean", 3) == [2.0, 3.0]

    def test_zero_span_rejected(self):
        with pytest.raises(ValidationError):
            smooth([1.0], "ewma", 0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            smooth([], "ewma", 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            smooth([1.0], "median", 3)

    def test_ewma_is_shift_equivariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            series = rng.normal(size=30).tolist()
            shift = float(rng.normal())
            base = smooth(series, "ewma", 15)
            shifted = smooth([x + shift for x in series], "ewma", 15)
            assert np.allclose(shifted, [s + shift for s in base], atol=1e-12)

    def test_ewma_tracks_step_down_faster_than_rolling_mean(self):
        # Unit step down; after k steps the ewma error is 0.875^k versus
        # (15-k)/15 for the trailing mean.
        span = 15
        series = [1.0] * 40 + [0.0] * 15
        ewma = smooth(series, "ewma", span)
        rolling = smooth(series, "rolling_mean", span)
        offset = len(series) - len(rolling)
        for k in range(1, 11):
            idx = 40 + k - 1
            assert abs(ewma[idx]) < abs(rolling[idx - offset])
            assert math.isclose(abs(ewma[idx]), 0.875**k, rel_tol=1e-12)
            assert math.isclose(abs(rolling[idx - offset]), (span - k) / span, rel_tol=1e-12)


def columns(series: PriceSeries) -> tuple[list[float], list[float], list[float]]:
    """The high, low and close columns that `atr` reads."""
    return [b.high for b in series.bars], [b.low for b in series.bars], [b.close for b in series.bars]


def atr_oracle(series: PriceSeries, n: int) -> list[float]:
    """Independent route: true range as the max of the three candidate gaps."""
    first = series.bars[0]
    values = [first.high - first.low]
    for prev, bar in zip(series.bars, series.bars[1:]):
        tr = max(bar.high - bar.low, bar.high - prev.close, prev.close - bar.low)
        values.append(values[-1] * ((n - 1.0) / n) + tr * (1.0 / n))
    return values


class TestHolidayFile:
    def test_byte_order_mark_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_bytes(b"\xef\xbb\xbf2020-07-03\r\n# comment\r\n\r\n2020-12-25\r\n")
        calendar = BusinessCalendar.from_holiday_file(path)
        assert calendar.holidays == {date(2020, 7, 3), date(2020, 12, 25)}


class TestAtr:
    def test_constant_bars_yield_zero(self):
        series = make_bars([(5.0, 5.0, 5.0)] * 10)
        assert atr(*columns(series), 14) == [0.0] * 10

    def test_two_day_hand_case(self):
        series = make_bars([(10.0, 8.0, 9.0), (11.0, 9.0, 10.0)])
        # TR_2 = max(11, 9) - min(9, 9) = 2; ATR = 0.5*2 + 0.5*2
        assert atr(*columns(series), 2) == [2.0, 2.0]

    @pytest.mark.parametrize("n", [2, 14])
    def test_geometric_decay_from_single_nonzero_start(self, n):
        # First bar has range a, every later bar collapses to the previous
        # close, so TR vanishes and ATR decays by (n-1)/n per step.
        a = 1.75  # dyadic so high - low reproduces it exactly
        bars = [OhlcvBar(date(2021, 1, 4), 5.0, 5.0 + a, 5.0, 5.0, 5.0, 1.0)]
        day = date(2021, 1, 5)
        for _ in range(49):
            bars.append(OhlcvBar(day, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0))
            day = _next(day)
        values = atr(*columns(PriceSeries("TST", bars)), n)
        expected = a
        for t in range(50):
            assert values[t] == expected
            expected = expected * ((n - 1.0) / n)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 5, 14):
            for _ in range(20):
                hlc = []
                close = 50.0
                for _ in range(30):
                    low = close * (1 - abs(rng.normal(0, 0.02)))
                    high = close * (1 + abs(rng.normal(0, 0.02)))
                    close = rng.uniform(low, high)
                    hlc.append((high, low, close))
                series = make_bars(hlc)
                assert atr(*columns(series), n) == atr_oracle(series, n)

    def test_nonnegative_on_valid_bars(self):
        rng = np.random.default_rng(3)
        hlc = []
        close = 20.0
        for _ in range(60):
            low = close * (1 - abs(rng.normal(0, 0.05)))
            high = close * (1 + abs(rng.normal(0, 0.05)))
            close = rng.uniform(low, high)
            hlc.append((high, low, close))
        assert all(v >= 0 for v in atr(*columns(make_bars(hlc)), 7))

    def test_takes_any_float_sequences(self):
        series = make_bars([(10.0, 8.0, 9.0), (11.0, 9.0, 10.0), (12.5, 9.5, 12.0)])
        as_tuples = [tuple(column) for column in columns(series)]
        assert atr(*as_tuples, 2) == atr(*columns(series), 2) == atr_oracle(series, 2)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            atr(*columns(PriceSeries("TST", [])), 14)

    def test_columns_of_unequal_length_rejected(self):
        high, low, close = columns(make_bars([(10.0, 8.0, 9.0), (11.0, 9.0, 10.0)]))
        with pytest.raises(ValidationError, match="differ in length: 2, 2, 1"):
            atr(high, low, close[:1], 2)


class TestDailyReturns:
    def test_constant_closes(self):
        returns, sigma = daily_returns_sigma([10.0, 10.0, 10.0])
        assert returns == [0.0, 0.0] and sigma == 0.0

    def test_hand_case(self):
        returns, sigma = daily_returns_sigma([100.0, 110.0, 99.0])
        assert np.allclose(returns, [0.10, -0.10])
        assert math.isclose(sigma, math.sqrt(0.02), rel_tol=1e-12)

    def test_single_doubling(self):
        returns, sigma = daily_returns_sigma([1.0, 2.0])
        assert returns == [1.0] and sigma == 1.0

    def test_nonpositive_close_rejected(self):
        with pytest.raises(DomainError):
            daily_returns_sigma([1.0, -2.0])

    def test_too_short(self):
        with pytest.raises(ValidationError):
            daily_returns_sigma([1.0])


class TestMinMaxScale:
    def test_affine_map(self):
        assert min_max_scale([2.0, 4.0, 6.0]) == [0.0, 0.5, 1.0]

    def test_constant_maps_to_zeros(self):
        assert min_max_scale([5.0, 5.0, 5.0]) == [0.0, 0.0, 0.0]

    def test_endpoints(self):
        assert min_max_scale([-1.0, 1.0]) == [0.0, 1.0]

    def test_range_and_extrema_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            series = rng.normal(size=25).tolist()
            scaled = min_max_scale(series)
            assert all(0.0 <= v <= 1.0 for v in scaled)
            assert int(np.argmax(scaled)) == int(np.argmax(series))
            assert int(np.argmin(scaled)) == int(np.argmin(series))
