"""OHLCV ingestion, the business-day calendar, and price-derived series.

Covers the smoothing, true-range volatility, daily-return, and scaling
primitives the rest of the pipeline builds on.  All functions are pure
and operate on plain sequences or the small dataclasses below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CalendarError, DomainError, ParseError, ValidationError
from .fileio import read_csv

OHLCV_HEADER = ("date", "open", "high", "low", "close", "adj_close", "volume")


class BusinessCalendar:
    """Weekday calendar minus an optional set of exchange holidays."""

    def __init__(self, holidays: Iterable[date] = ()) -> None:
        self.holidays = frozenset(holidays)
        for day in self.holidays:
            if day.weekday() >= 5:
                raise ValidationError(f"holiday {day.isoformat()} falls on a weekend")

    @classmethod
    def from_holiday_file(cls, path: Path | str) -> "BusinessCalendar":
        """One ISO date per line; blank lines and # comments ignored; a UTF-8 byte-order mark is allowed."""
        days = []
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                days.append(date.fromisoformat(line))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: invalid holiday date {line!r}") from exc
        return cls(days)

    def is_business_day(self, day: date) -> bool:
        return day.weekday() < 5 and day not in self.holidays

    def next_business_day(self, day: date) -> date:
        """The given day if it trades, else the first trading day after it."""
        out = day
        while not self.is_business_day(out):
            out += timedelta(days=1)
        return out

    def days_between(self, start: date, end: date) -> list[date]:
        """All business days in [start, end]."""
        out = []
        day = start
        while day <= end:
            if self.is_business_day(day):
                out.append(day)
            day += timedelta(days=1)
        return out

    def follows_holiday(self, day: date) -> bool:
        """True when a listed holiday sits between this day and the previous trading day."""
        probe = day - timedelta(days=1)
        while not self.is_business_day(probe):
            if probe in self.holidays:
                return True
            probe -= timedelta(days=1)
        return False


@dataclass(frozen=True)
class OhlcvBar:
    date: date
    open: float
    high: float
    low: float
    close: float
    adj_close: float
    volume: float

    def validate(self) -> None:
        prices = (self.open, self.high, self.low, self.close, self.adj_close)
        for name, value in zip(("open", "high", "low", "close", "adj_close"), prices):
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{self.date.isoformat()}: {name} must be a positive finite price, got {value}")
        if self.volume < 0 or not math.isfinite(self.volume):
            raise ValidationError(f"{self.date.isoformat()}: volume must be >= 0, got {self.volume}")
        if self.low > min(self.open, self.close):
            raise ValidationError(f"{self.date.isoformat()}: low exceeds min(open, close)")
        if self.high < max(self.open, self.close):
            raise ValidationError(f"{self.date.isoformat()}: high is below max(open, close)")


@dataclass
class PriceSeries:
    ticker: str
    bars: list[OhlcvBar] = field(default_factory=list)


def parse_ohlcv_csv(path: Path | str, calendar: BusinessCalendar, ticker: str = "") -> PriceSeries:
    """Load one ticker's daily bars, enforcing schema, OHLC sanity, and the calendar.

    Rows dated on weekends or listed holidays are rejected with a
    CalendarError naming the offending line.
    """
    path = Path(path)
    bars: list[OhlcvBar] = []
    rows = read_csv(path)
    _, header = next(rows)
    if tuple(h.strip() for h in header) != OHLCV_HEADER:
        raise ParseError(f"{path}:1: expected header {','.join(OHLCV_HEADER)}")
    for lineno, row in rows:
        try:
            day = date.fromisoformat(row[0])
            values = [float(cell) for cell in row[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not calendar.is_business_day(day):
            raise CalendarError(f"{path}:{lineno}: {day.isoformat()} is not a business day")
        bar = OhlcvBar(day, values[0], values[1], values[2], values[3], values[4], values[5])
        try:
            bar.validate()
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        bars.append(bar)
    bars.sort(key=lambda bar: bar.date)
    for prev, cur in zip(bars, bars[1:]):
        if prev.date == cur.date:
            raise ValidationError(f"{path}: duplicate date {cur.date.isoformat()}")
    return PriceSeries(ticker=ticker or path.stem, bars=bars)


def smooth(series: Sequence[float], method: str, span: int) -> list[float]:
    """EWMA or trailing rolling mean.

    ewma uses s_t = alpha * x_t + (1 - alpha) * s_{t-1} with
    alpha = 2 / (span + 1) and s_1 = x_1, returning one value per input.
    rolling_mean emits nothing for the first span - 1 positions, so its
    output is shorter by span - 1.
    """
    if span < 1:
        raise ValidationError(f"span must be >= 1, got {span}")
    if len(series) == 0:
        raise ValidationError("cannot smooth an empty series")
    if method == "ewma":
        alpha = 2.0 / (span + 1)
        out = [float(series[0])]
        for x in series[1:]:
            out.append(alpha * float(x) + (1.0 - alpha) * out[-1])
        return out
    if method == "rolling_mean":
        out = []
        for t in range(span - 1, len(series)):
            window = series[t - span + 1 : t + 1]
            out.append(sum(float(x) for x in window) / span)
        return out
    raise ValidationError(f"unknown smoothing method {method!r}")


def atr(high: Sequence[float], low: Sequence[float], close: Sequence[float], n: int) -> list[float]:
    """Average True Range with Wilder smoothing over equal-length high, low and close columns.

    ATR_1 is the first bar's high-low range (no previous close exists);
    afterwards ATR_t = ((n-1)/n) * ATR_{t-1} + (1/n) * TR_t, where
    TR_t = max(high_t, close_{t-1}) - min(low_t, close_{t-1}).
    """
    if n < 1:
        raise ValidationError(f"atr period must be >= 1, got {n}")
    if not len(high):
        raise ValidationError("atr requires at least one bar")
    if not len(high) == len(low) == len(close):
        raise ValidationError(f"atr columns differ in length: {len(high)}, {len(low)}, {len(close)}")
    decay = (n - 1.0) / n
    gain = 1.0 / n
    out = [high[0] - low[0]]
    for c, h, lo in zip(close, high[1:], low[1:]):
        # TR by conditionals that pick what max() and min() pick, without the two calls
        out.append(out[-1] * decay + ((c if c > h else h) - (c if c < lo else lo)) * gain)
    return out


def daily_returns_sigma(close: Sequence[float]) -> tuple[list[float], float]:
    """Simple daily returns and the root of their squared sum.

    The dispersion measure treats zero (not the sample mean) as the
    reference return.
    """
    if len(close) < 2:
        raise ValidationError("need at least two closes for returns")
    returns = []
    for prev, cur in zip(close, close[1:]):
        if prev <= 0 or cur <= 0:
            raise DomainError(f"close prices must be positive, got {prev} -> {cur}")
        returns.append((cur - prev) / prev)
    return returns, math.sqrt(sum(r * r for r in returns))


def min_max_scale(series: Sequence[float]) -> list[float]:
    """Map to [0, 1]; a constant series maps to all zeros."""
    if len(series) == 0:
        raise ValidationError("cannot scale an empty series")
    lo = min(series)
    hi = max(series)
    if hi == lo:
        return [0.0] * len(series)
    return [(float(x) - lo) / (hi - lo) for x in series]
