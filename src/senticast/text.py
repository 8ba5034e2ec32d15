"""Tweet corpus cleaning, daily aggregation, and panel alignment.

Per-tweet sentiment labels and embedding vectors arrive precomputed; this
module turns them into business-day features and joins them with market
data into gap-free per-ticker panels.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AlignmentError, NoObservations, ParseError, ValidationError
from .fileio import read_csv, read_table, write_atomic
from .market import BusinessCalendar, PriceSeries, smooth

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_CASHTAG_RE = re.compile(r"\$[A-Za-z][A-Za-z0-9]*")
_NON_ALNUM_RE = re.compile(r"[^A-Za-z0-9\s]+")

PANEL_HEADER = ("date", "high", "low", "open", "volume", "close", "score", "score_raw", "holiday", "dow")
PANEL_VALUES = PANEL_HEADER[1:8]  # the float columns of AlignedPanel.values ahead of the embedding
SIDECAR_TAG = b"senticast-panel1"  # the format of the `<panel>.csv.npy` files `write_panel_csv` writes


@dataclass
class TweetRecord:
    tweet_id: str
    writer: str
    post_date: datetime
    ticker: str
    body: str
    sentiment: int | None = None
    embedding: Sequence[float] | np.ndarray | None = None

    def calendar_day(self) -> date:
        return self.post_date.date()


@dataclass
class DailyTextFeatures:
    business_day: date
    ticker: str
    n_pos: int
    n_neg: int
    score1: float
    score2: float
    mean_embedding: list[float] | None = None


@dataclass
class PanelRow:
    day: date
    high: float
    low: float
    open: float
    volume: float
    close: float
    score: float  # EWMA-smoothed score2
    score_raw: float  # forward-filled score2 before smoothing
    embedding: list[float] | None
    holiday: int
    day_of_week: int


class AlignedPanel:
    """One ticker's gap-free panel, held as columns.

    `days` lists its business days in order.  `values` is one read-only
    (T, 7 + embedding_dim) float64 matrix: the PANEL_VALUES columns high,
    low, open, volume, close, score (the EWMA of score_raw) and score_raw
    (the carried daily score2), then e0.. (the carried mean embedding).
    `calendar` is a read-only (T, 2) int64 array of the holiday flag and
    the day of the week.

    `AlignedPanel(ticker, rows, embedding_dim)` builds the columns from
    PanelRow objects, and `rows` makes such objects again on each read.
    """

    def __init__(self, ticker: str, rows: Sequence[PanelRow] = (), embedding_dim: int = 0) -> None:
        values = []
        for row in rows:
            values.append([row.high, row.low, row.open, row.volume, row.close, row.score, row.score_raw])
            if embedding_dim:
                if row.embedding is None or len(row.embedding) != embedding_dim:
                    raise ValidationError(f"{ticker}: row {row.day} lacks a {embedding_dim}-value embedding")
                values[-1].extend(row.embedding)
        self.ticker = ticker
        self.days = [row.day for row in rows]
        width = len(PANEL_VALUES) + embedding_dim
        self.values = _read_only(np.array(values, dtype=np.float64).reshape(len(rows), width))
        self.calendar = _read_only(np.array([(r.holiday, r.day_of_week) for r in rows], dtype=np.int64).reshape(-1, 2))

    @classmethod
    def from_columns(cls, ticker: str, days: list[date], values: np.ndarray, calendar: np.ndarray) -> "AlignedPanel":
        panel = cls.__new__(cls)
        panel.ticker, panel.days, panel.values, panel.calendar = ticker, days, _read_only(values), _read_only(calendar)
        return panel

    def __len__(self) -> int:
        return len(self.days)

    @property
    def embedding_dim(self) -> int:
        return self.values.shape[1] - len(PANEL_VALUES)

    @property
    def rows(self) -> list[PanelRow]:
        dim = self.embedding_dim
        return [
            PanelRow(day, *values[: len(PANEL_VALUES)], values[len(PANEL_VALUES) :] if dim else None, *flags)
            for day, values, flags in zip(self.days, self.values.tolist(), self.calendar.tolist())
        ]

    def column(self, name: str) -> list[float]:
        """One of the PANEL_VALUES columns as Python floats."""
        return self.values[:, PANEL_VALUES.index(name)].tolist()


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


def clean_tweet(body: str) -> str:
    """Strip links, mentions, cashtags, and punctuation; lowercase and collapse.

    A link, mention or cashtag match holds `://` or `www.` (in any case),
    `@` or `$`, so a failed substring test skips its regex.  `str.split`
    splits on the whitespace that `\\s` matches.
    """
    text = body
    if "://" in text or "www." in text.lower():
        text = _URL_RE.sub(" ", text)
    if "@" in text:
        text = _MENTION_RE.sub(" ", text)
    if "$" in text:
        text = _CASHTAG_RE.sub(" ", text)
    return " ".join(_NON_ALNUM_RE.sub("", text).split()).lower()


def filter_corpus(
    tweets: Sequence[TweetRecord], known_tickers: Iterable[str]
) -> tuple[list[TweetRecord], dict[str, int]]:
    """Drop unusable records in four stages and report counts per stage.

    Stages: missing writer, multi-ticker bodies, intra-day raw-body
    duplicates, intra-day cleaned-body duplicates.  Duplicates keep the
    earliest post.
    """
    tickers = sorted({t.upper() for t in known_tickers})
    if not tickers:
        raise ValidationError("known_tickers must be nonempty")
    scans = [
        (t if t.isascii() else None, re.compile(rf"(?<![A-Za-z0-9])\$?{re.escape(t)}(?![A-Za-z0-9])", re.IGNORECASE))
        for t in tickers
    ]
    stats = {
        "input": len(tweets),
        "missing_writer": 0,
        "multi_ticker": 0,
        "raw_duplicate": 0,
        "clean_duplicate": 0,
    }

    staged = []
    for tweet in tweets:
        if not tweet.writer or not tweet.writer.strip():
            stats["missing_writer"] += 1
        elif _mentions_several(tweet.body, scans):
            stats["multi_ticker"] += 1
        else:
            staged.append(tweet)

    # Earliest-first ordering; the sort is stable, so ties keep input order.
    staged.sort(key=lambda t: t.post_date)

    # A raw-unique tweet keeps its raw key even when it is dropped as a clean duplicate.
    seen_raw: set[tuple[str, date, str]] = set()
    seen_clean: set[tuple[str, date, str]] = set()
    kept = []
    for tweet in staged:
        raw = (tweet.ticker, tweet.calendar_day(), tweet.body)
        if raw in seen_raw:
            stats["raw_duplicate"] += 1
            continue
        seen_raw.add(raw)
        clean = (raw[0], raw[1], clean_tweet(tweet.body))
        if clean in seen_clean:
            stats["clean_duplicate"] += 1
            continue
        seen_clean.add(clean)
        kept.append(tweet)

    stats["kept"] = len(kept)
    return kept, stats


def _mentions_several(body: str, scans: list[tuple[str | None, re.Pattern]]) -> bool:
    """Whether two or more of the `(gate, pattern)` scans match `body`.

    A pattern can match an ASCII body only where its ASCII ticker (the
    gate) occurs in the upper-cased body, so a failed substring test skips
    the regex.  Under IGNORECASE a non-ASCII character can match an ASCII
    one (the Kelvin sign matches `k`), so a non-ASCII body or ticker (gate
    None) always runs the regex.
    """
    if body.isascii():
        upper = body.upper()
        candidates = [p for gate, p in scans if gate is None or gate in upper]
    else:
        candidates = [p for _, p in scans]
    return len(candidates) >= 2 and sum(1 for p in candidates if p.search(body)) >= 2


def sentiment_scores(n_neg: int, n_pos: int) -> tuple[float, float]:
    """Share of negatives and the neg/pos ratio (guarded at zero positives)."""
    total = n_neg + n_pos
    if total <= 0:
        raise NoObservations("no labeled tweets in this bucket")
    score1 = n_neg / total
    score2 = n_neg / max(n_pos, 1)
    return score1, score2


def aggregate_daily_text(
    tweets: Sequence[TweetRecord], calendar: BusinessCalendar
) -> list[DailyTextFeatures]:
    """Pool tweets onto business days and compute per-day scores and mean embeddings.

    Weekend and holiday posts roll forward to the next trading day; their
    embeddings pool into that day's mean.
    """
    dim: int | None = None
    buckets: dict[tuple[str, date], list[TweetRecord]] = {}
    pooled_day: dict[date, date] = {}  # calendar day -> the business day its tweets pool onto
    for tweet in tweets:
        if tweet.sentiment not in (0, 1):
            raise ValidationError(f"tweet {tweet.tweet_id}: sentiment label required for aggregation")
        if tweet.embedding is not None:
            if dim is None:
                dim = len(tweet.embedding)
            elif len(tweet.embedding) != dim:
                raise ValidationError(
                    f"tweet {tweet.tweet_id}: embedding dimension {len(tweet.embedding)} != {dim}"
                )
        posted = tweet.calendar_day()
        day = pooled_day.get(posted)
        if day is None:
            day = pooled_day[posted] = calendar.next_business_day(posted)
        buckets.setdefault((tweet.ticker, day), []).append(tweet)

    out = []
    pooled: list[DailyTextFeatures] = []
    groups = []
    for (ticker, day), group in sorted(buckets.items()):  # keys are unique, so groups are never compared
        n_pos = sum(1 for t in group if t.sentiment == 1)
        n_neg = sum(1 for t in group if t.sentiment == 0)
        score1, score2 = sentiment_scores(n_neg, n_pos)
        out.append(DailyTextFeatures(day, ticker, n_pos, n_neg, score1, score2))
        vectors = [t.embedding for t in group if t.embedding is not None]
        if vectors:
            pooled.append(out[-1])
            groups.append(vectors)
    if groups:
        for feats, mean in zip(pooled, _running_means(groups)):
            feats.mean_embedding = mean.tolist()
    return out


def _running_means(groups: Sequence[Sequence[Sequence[float]]]) -> np.ndarray:
    """Welford mean of each nonempty group of equal-length vectors, one row per group.

    Every element sees `m += (v - m) / count` for the group's vectors in
    order, so the result is exact when all vectors coincide.  Step k
    updates every group longer than k at once: with the groups sorted
    longest first, those are a prefix.
    """
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    starts = np.cumsum(sizes) - sizes
    flat = np.array([v for i in order for v in groups[i]], dtype=np.float64)
    means = flat[starts]
    for k in range(1, int(sizes[0])):
        active = int(np.count_nonzero(sizes > k))
        means[:active] += (flat[starts[:active] + k] - means[:active]) / (k + 1)
    out = np.empty_like(means)
    out[order] = means
    return out


def align_panel(
    prices: PriceSeries,
    text: Sequence[DailyTextFeatures],
    calendar: BusinessCalendar,
    smoothing_span: int = 15,
) -> AlignedPanel:
    """Join one ticker's prices and daily text features on the trading calendar.

    Each row carries the score, and the embedding, of the latest text day
    on or before it, which may lie before the first bar; nothing is ever
    filled from a later day.  So the panel starts at the first bar day
    that has a score on or before it (and an embedding, if any text day
    has one), and it ends at the last day that both spans cover.  The
    score column is the EWMA of the carried raw score.
    """
    if smoothing_span < 1:
        raise ValidationError(f"smoothing_span must be >= 1, got {smoothing_span}")
    if not prices.bars or not text:
        raise AlignmentError(f"{prices.ticker}: nothing to align")
    mismatched = {f.ticker for f in text} - {prices.ticker}
    if mismatched:
        raise AlignmentError(f"text features for {sorted(mismatched)} joined against {prices.ticker}")

    text_by_day = {f.business_day: f for f in text}
    text_days = sorted(text_by_day)
    embedded_days = [d for d in text_days if text_by_day[d].mean_embedding is not None]
    start = max(prices.bars[0].date, text_days[0])
    end = min(prices.bars[-1].date, text_days[-1])
    if start > end:
        raise AlignmentError(f"{prices.ticker}: price and text date ranges do not overlap")
    if embedded_days:
        start = max(start, embedded_days[0])
    days = calendar.days_between(start, end)
    if not days:
        raise AlignmentError(f"{prices.ticker}: aligned panel is empty: no business day from {start} to {end}")
    if not any(d in text_by_day for d in days):
        raise AlignmentError(f"{prices.ticker}: no text features inside the aligned range")

    # The carry starts from the latest text day on or before the first row.
    score = text_by_day[text_days[bisect_right(text_days, days[0]) - 1]].score2
    embedding = []
    if embedded_days:
        embedding = text_by_day[embedded_days[bisect_right(embedded_days, days[0]) - 1]].mean_embedding
    bars_by_day = {bar.date: bar for bar in prices.bars}
    bars, raw_scores, embeddings = [], [], []
    for d in days:
        bar = bars_by_day.get(d)
        if bar is None:
            raise AlignmentError(f"{prices.ticker}: missing price bar on business day {d.isoformat()}")
        feats = text_by_day.get(d)
        if feats is not None:
            score = feats.score2
            if feats.mean_embedding is not None:
                embedding = feats.mean_embedding
        bars.append((bar.high, bar.low, bar.open, bar.volume, bar.close))
        raw_scores.append(score)
        embeddings.append(embedding)
    values = np.empty((len(days), len(PANEL_VALUES) + len(embedding)))
    values[:, :5] = bars
    values[:, 5] = smooth(raw_scores, "ewma", smoothing_span)
    values[:, 6] = raw_scores
    values[:, len(PANEL_VALUES) :] = embeddings
    flags = np.array([(int(calendar.follows_holiday(d)), d.weekday()) for d in days], dtype=np.int64)
    return AlignedPanel.from_columns(prices.ticker, days, values, flags)


# ---------------------------------------------------------------------------
# File formats


def load_tweets_csv(path: Path | str) -> list[TweetRecord]:
    """Read `tweet_id,writer,post_date,ticker,body,sentiment` rows; tickers are stripped and upper-cased.

    Either every `post_date` carries a UTC offset or none does, so that they can be ordered.
    """
    path = Path(path)
    expected = ("tweet_id", "writer", "post_date", "ticker", "body", "sentiment")
    out = []
    rows = read_csv(path)
    _, header = next(rows)
    if tuple(h.strip() for h in header) != expected:
        raise ParseError(f"{path}:1: expected header {','.join(expected)}")
    for lineno, row in rows:
        try:
            post_date = datetime.fromisoformat(row[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad post_date {row[2]!r}") from exc
        if out and (post_date.tzinfo is None) != (out[0].post_date.tzinfo is None):
            raise ParseError(f"{path}:{lineno}: post_date {row[2]!r} and the first row's differ in having a UTC offset")
        raw_sentiment = row[5].strip()
        sentiment: int | None = None
        if raw_sentiment:
            if raw_sentiment not in ("0", "1"):
                raise ParseError(f"{path}:{lineno}: sentiment must be blank, 0, or 1")
            sentiment = int(raw_sentiment)
        ticker = row[3].strip().upper()
        if not ticker:
            raise ParseError(f"{path}:{lineno}: blank ticker")
        out.append(TweetRecord(row[0], row[1], post_date, ticker, row[4], sentiment))
    return out


def load_embeddings_csv(path: Path | str) -> dict[str, np.ndarray]:
    """Read `tweet_id,v0,...,v{d-1}`; the column count declares d.

    Each id maps to a read-only row of one float64 matrix.  A `tweet_id`
    may appear once only, and every value must be finite.  One numpy pass
    reads a well-formed file; any other file goes line by line, and its
    first faulty line raises.
    """
    path = Path(path)
    rows = read_csv(path)
    _, header = next(rows)
    if not header or header[0].strip() != "tweet_id" or len(header) < 2:
        raise ParseError(f"{path}:1: expected header tweet_id,v0,...")
    dim = len(header) - 1
    table = read_table(path, [("id", object), ("values", np.float64, (dim,))])
    if table is not None:
        keys = table["id"].tolist()
        if len(set(keys)) == len(keys) and np.isfinite(table["values"]).all():
            rows.close()
            return dict(zip(keys, _read_only(np.ascontiguousarray(table["values"]))))
    ids: dict[str, None] = {}
    values = array("d")
    for lineno, row in rows:
        if row[0] in ids:
            raise ParseError(f"{path}:{lineno}: duplicate tweet_id {row[0]!r}")
        try:
            vector = list(map(float, row[1:]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        # A finite sum proves every value finite; a sum that overflows checks them one by one.
        if not math.isfinite(sum(vector)) and not all(map(math.isfinite, vector)):
            raise ValidationError(f"{path}:{lineno}: non-finite embedding value")
        ids[row[0]] = None
        values.extend(vector)
    return dict(zip(ids, _read_only(np.frombuffer(values, dtype=np.float64).reshape(-1, dim))))


def attach_embeddings(tweets: Sequence[TweetRecord], vectors: dict[str, np.ndarray]) -> None:
    """Point each tweet's embedding at its row of the lookup, without copying it."""
    for tweet in tweets:
        vec = vectors.get(tweet.tweet_id)
        if vec is not None:
            tweet.embedding = vec


def write_panel_csv(path: Path | str, panel: AlignedPanel) -> None:
    """Write the panel as CSV, then its sidecar beside it (see `read_panel_csv`), each file atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([*PANEL_HEADER, *(f"e{i}" for i in range(panel.embedding_dim))])
    for day, values, flags in zip(panel.days, panel.values.tolist(), panel.calendar.tolist()):
        floats = list(map(repr, values))
        writer.writerow([day.isoformat(), *floats[: len(PANEL_VALUES)], *map(str, flags), *floats[len(PANEL_VALUES) :]])
    data = buffer.getvalue().encode("utf-8")
    write_atomic(path, data)
    record = np.zeros((), _sidecar_dtype(*panel.values.shape))
    record["tag"], record["sha256"] = SIDECAR_TAG, hashlib.sha256(data).hexdigest().encode()
    record["days"] = [day.toordinal() for day in panel.days]
    record["values"] = panel.values
    record["values"][np.isnan(panel.values)] = np.nan  # `repr` writes each NaN as `nan`, whatever its sign and payload
    record["calendar"] = panel.calendar
    sidecar = io.BytesIO()
    np.save(sidecar, record)
    write_atomic(_sidecar_path(path), sidecar.getvalue())


def read_panel_csv(path: Path | str, ticker: str) -> AlignedPanel:
    """Read a `write_panel_csv` file into columns.

    The columns come from the CSV's sidecar when it is a `.npy` record of
    `_sidecar_dtype` tagged SIDECAR_TAG that holds the sha256 of the CSV's
    bytes and a calendar in range; the CSV stays the artifact of record, so
    an edited or rewritten CSV is read from its text.  One numpy pass reads
    a well-formed file.  Any other file goes line by line, where a row's
    fields are checked in this order and the first fault names its file
    line: high..score_raw, the embedding, the date, holiday, dow, then the
    calendar's range (holiday 0 or 1, dow 0..4 for Mon..Fri).
    """
    path = Path(path)
    columns = _sidecar_columns(path)
    if columns is not None:
        return AlignedPanel.from_columns(ticker, *columns)
    rows = read_csv(path)
    _, header = next(rows)
    if tuple(header[: len(PANEL_HEADER)]) != PANEL_HEADER:
        raise ParseError(f"{path}:1: unexpected panel header")
    dim = len(header) - len(PANEL_HEADER)
    fields = [("date", object), ("values", np.float64, (len(PANEL_VALUES),)), ("holiday", object), ("dow", object)]
    table = read_table(path, fields + [("embedding", np.float64, (dim,))] if dim else fields)
    columns = None if table is None else _panel_columns(table, dim)
    if columns is not None:
        rows.close()
        return AlignedPanel.from_columns(ticker, *columns)
    days: list[date] = []
    values = array("d")
    flags = array("q")
    for lineno, row in rows:
        try:
            values.extend(map(float, row[1:8] + row[len(PANEL_HEADER) :]))
            days.append(date.fromisoformat(row[0]))
            holiday, dow = int(row[8]), int(row[9])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if holiday not in (0, 1) or not 0 <= dow <= 4:
            raise ParseError(f"{path}:{lineno}: holiday must be 0 or 1 and dow 0..4, got {holiday} and {dow}")
        flags.extend((holiday, dow))
    return AlignedPanel.from_columns(
        ticker, days,
        np.frombuffer(values, dtype=np.float64).reshape(-1, len(PANEL_VALUES) + dim),
        np.frombuffer(flags, dtype=np.int64).reshape(-1, 2),
    )


def _panel_columns(table: np.ndarray, dim: int) -> tuple[list[date], np.ndarray, np.ndarray] | None:
    """The days, values and calendar of a `read_table` panel, or None where a row needs the line-by-line read."""
    try:
        days = list(map(date.fromisoformat, table["date"].tolist()))
    except ValueError:
        return None
    # Each flag must be one ASCII digit; `int` also reads ' 1', '+1', '01' and '١'.
    flags = np.stack([table["holiday"], table["dow"]], axis=1).astype(str)
    if flags.dtype.itemsize != 4:
        return None
    calendar = flags.view(np.uint32).astype(np.int64) - ord("0")
    if not _calendar_in_range(calendar):
        return None
    values = np.concatenate([table["values"], table["embedding"]] if dim else [table["values"]], axis=1)
    return days, values, calendar


def _sidecar_path(path: Path | str) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".npy")


def _sidecar_dtype(rows: int, width: int) -> np.dtype:
    """One record: the tag, the CSV's sha256 in hex, the days as ordinals, the values and the calendar."""
    return np.dtype([
        ("tag", "S16"), ("sha256", "S64"), ("days", np.int64, (rows,)),
        ("values", np.float64, (rows, width)), ("calendar", np.int64, (rows, 2)),
    ])


def _sidecar_columns(path: Path) -> tuple[list[date], np.ndarray, np.ndarray] | None:
    """The days, values and calendar in the sidecar of the CSV at `path`, or None where the CSV must be read.

    The header and the file size are checked before any data is read, and
    the dtype holds no objects, so nothing is unpickled.
    """
    try:
        with open(_sidecar_path(path), "rb") as handle:
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, _, dtype = np.lib.format.read_array_header_1_0(handle)
            rows, width = dtype["values"].shape
            size = handle.tell() + dtype.itemsize
            if shape != () or dtype != _sidecar_dtype(rows, width) or os.fstat(handle.fileno()).st_size != size:
                return None
            record = np.fromfile(handle, dtype, count=1)[0]
        digest = hashlib.sha256(path.read_bytes()).hexdigest().encode()
        if record["tag"] != SIDECAR_TAG or record["sha256"] != digest or not _calendar_in_range(record["calendar"]):
            return None
        return list(map(date.fromordinal, record["days"].tolist())), record["values"], record["calendar"]
    except (OSError, KeyError, ValueError, OverflowError):
        return None


def _calendar_in_range(calendar: np.ndarray) -> bool:
    """Holiday 0 or 1 and dow 0..4 in every row."""
    return bool(((calendar >= 0) & (calendar <= (1, 4))).all())
