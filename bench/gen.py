"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the standard library, so the
generated inputs are independent of the package under test.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Latent-mood panels (the c09 process)

def latent_panel_rows(
    seed: int,
    n_companies: int = 2,
    length: int = 240,
    embed_dim: int = 16,
    drive: float = 0.04,
    return_noise: float = 0.003,
    score_noise: float = 0.05,
    embed_noise: float = 2.5,
    persistence: float = 0.8,
    innovation: float = 0.35,
    reversion: float = 0.05,
) -> list[list[tuple]]:
    """Rows of the latent-mood panels, one list per company.

    Draws the same random stream, in the same order, as
    `tests/conftest.py::latent_sentiment_panels`, so seed s gives the panels
    the acceptance test c09 trains on.  Each row is
    (day, high, low, open, volume, close, score, embedding).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
    companies = []
    for c in range(n_companies):
        direction = rng.normal(size=embed_dim)
        direction /= np.linalg.norm(direction)
        state = 0.0
        base = 100.0 * (1 + c)
        close = base
        day = date(2021, 1, 4)
        rows = []
        for _ in range(length):
            while day.weekday() >= 5:
                day += timedelta(days=1)
            score = state + rng.normal(0, score_noise)
            embedding = (state * direction + embed_noise * rng.normal(size=embed_dim)).tolist()
            high = close * (1 + abs(rng.normal(0, 0.004)))
            low = close * (1 - abs(rng.normal(0, 0.004)))
            open_px = close * (1 + rng.normal(0, 0.002))
            volume = 1e6 * (1 + 0.3 * abs(state) + 0.05 * rng.random())
            # Plain floats: the package writes panel cells with repr(), and
            # numpy 2 spells a numpy scalar's repr as "np.float64(...)".
            rows.append((day, float(high), float(low), float(open_px), float(volume), float(close), float(score), embedding))
            state = persistence * state + rng.normal(0, innovation)
            ret = drive * state + reversion * np.log(base / close) + rng.normal(0, return_noise)
            close *= 1.0 + ret
            day += timedelta(days=1)
        companies.append(rows)
    return companies


def to_panels(companies: list[list[tuple]], prefix: str = "C", embed_dim: int = 16):
    """Wrap generated rows as the package's AlignedPanel objects."""
    from senticast.text import AlignedPanel, PanelRow

    panels = []
    for c, rows in enumerate(companies):
        panel_rows = [
            PanelRow(day, high, low, open_px, volume, close, score, score, embedding, 0, day.weekday())
            for day, high, low, open_px, volume, close, score, embedding in rows
        ]
        panels.append(AlignedPanel(f"{prefix}{c}", panel_rows, embed_dim))
    return panels


# ---------------------------------------------------------------------------
# Tweet corpus with known noise


PHRASES = {
    1: (
        "earnings beat expectations big time",
        "strong quarter ahead for this one",
        "loving the momentum here",
        "solid guidance from management today",
        "breakout looks real to me",
        "adding more on this dip",
    ),
    0: (
        "guidance cut again this quarter",
        "weak demand showing up in numbers",
        "trimming my position here",
        "this selloff has more room",
        "margins getting squeezed hard",
        "chart looks broken to me",
    ),
}
DECORATIONS = ("", " https://t.co/x{}", " @trader{}", " check www.chart.example/{}")
CORPUS_HEADER = ("tweet_id", "writer", "post_date", "ticker", "body", "sentiment")
OHLCV_HEADER = ("date", "open", "high", "low", "close", "adj_close", "volume")


@dataclass
class CorpusSpec:
    """Size and make-up of a generated corpus."""

    tickers: tuple[str, ...]
    start: date  # a Monday
    end: date  # a Friday
    tweets_per_day: tuple[int, int]  # inclusive range per ticker and calendar day
    embed_dim: int
    blank_writers: int
    multi_ticker: int
    raw_duplicates: int
    clean_duplicates: int
    unlabeled: int
    embedding_share: float = 0.9


@dataclass
class CorpusTruth:
    """What the generator put into the corpus, for the correctness checks."""

    business_days: list[date]
    noise: dict[str, int]
    weekend_or_holiday_posts: int


INGEST_SPEC = CorpusSpec(
    tickers=("QXA", "QXB", "QXC", "QXD", "QXE", "QXF"),
    start=date(2019, 1, 7),
    end=date(2021, 12, 31),
    tweets_per_day=(2, 6),
    embed_dim=16,
    blank_writers=37,
    multi_ticker=53,
    raw_duplicates=61,
    clean_duplicates=47,
    unlabeled=89,
)

def holidays_between(start: date, end: date) -> list[date]:
    """New Year's Day, Independence Day and Christmas, when they fall on a weekday."""
    out = []
    for year in range(start.year, end.year + 1):
        for month, day in ((1, 1), (7, 4), (12, 25)):
            d = date(year, month, day)
            if start <= d <= end and d.weekday() < 5:
                out.append(d)
    return out


def business_days(start: date, end: date, holidays: list[date]) -> list[date]:
    """Weekdays in [start, end] that are not holidays, counted without the package."""
    skip = set(holidays)
    n = (end - start).days + 1
    return [d for d in (start + timedelta(days=i) for i in range(n)) if d.weekday() < 5 and d not in skip]


def write_corpus(directory: Path, spec: CorpusSpec, seed: int) -> CorpusTruth:
    """Write ohlcv/, tweets.csv, embeddings.csv, holidays.txt and config.cfg."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4242]))
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "ohlcv").mkdir(exist_ok=True)
    holidays = holidays_between(spec.start, spec.end)
    trading = business_days(spec.start, spec.end, holidays)
    trading_set = set(trading)
    calendar_days = [spec.start + timedelta(days=i) for i in range((spec.end - spec.start).days + 1)]

    moods: dict[str, np.ndarray] = {}
    for ticker in spec.tickers:
        shocks = rng.normal(0.0, 0.25, size=len(calendar_days))
        mood = np.empty(len(calendar_days))
        level = 0.0
        for i, shock in enumerate(shocks):
            level = 0.9 * level + shock
            mood[i] = level
        moods[ticker] = mood
    day_index = {d: i for i, d in enumerate(calendar_days)}

    truth = CorpusTruth(trading, {}, 0)
    for t_idx, ticker in enumerate(spec.tickers):
        close = 60.0 + 25.0 * t_idx
        rows = []
        for day in trading:
            ret = 0.012 * np.tanh(moods[ticker][day_index[day]]) + rng.normal(0, 0.006)
            close = round(float(close * (1.0 + ret)), 4)
            open_px = round(float(close * (1.0 + rng.normal(0, 0.003))), 4)
            high = round(float(max(open_px, close) * (1.0 + abs(rng.normal(0, 0.006)))), 4)
            low = round(float(min(open_px, close) * (1.0 - abs(rng.normal(0, 0.006)))), 4)
            volume = float(np.round(1e6 * (1.0 + 0.5 * abs(moods[ticker][day_index[day]]) + 0.1 * rng.random())))
            rows.append((day.isoformat(), repr(open_px), repr(high), repr(low), repr(close), repr(close), f"{volume:.0f}"))
        with (directory / "ohlcv" / f"{ticker}.csv").open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(OHLCV_HEADER)
            writer.writerows(rows)

    directions = {}
    for ticker in spec.tickers:
        v = rng.normal(size=spec.embed_dim)
        directions[ticker] = v / np.linalg.norm(v)

    # Every ordinary post carries a unique word, so no two ordinary posts
    # collide as raw or cleaned duplicates; only injected noise does.
    tweets: list[list] = []
    embeddings: list[tuple] = []
    next_id = 0
    for ticker in spec.tickers:
        for day in calendar_days:
            mood = moods[ticker][day_index[day]]
            p_positive = 1.0 / (1.0 + np.exp(-2.0 * mood))
            for _ in range(int(rng.integers(spec.tweets_per_day[0], spec.tweets_per_day[1] + 1))):
                next_id += 1
                label = int(rng.random() < p_positive)
                phrase = PHRASES[label][int(rng.integers(len(PHRASES[label])))]
                deco = DECORATIONS[int(rng.integers(len(DECORATIONS)))].format(next_id)
                body = f"${ticker} {phrase} w{next_id}{deco}"
                stamp = datetime(day.year, day.month, day.day, int(rng.integers(8, 20)), int(rng.integers(0, 60)))
                tweets.append([str(next_id), f"user{int(rng.integers(1, 900))}", stamp, ticker, body, str(label)])
                if day not in trading_set:
                    truth.weekend_or_holiday_posts += 1
                if rng.random() < spec.embedding_share:
                    vector = directions[ticker] * (2.0 * label - 1.0) * 0.9 + rng.normal(0, 0.45, spec.embed_dim)
                    embeddings.append((str(next_id), *(f"{v:.6f}" for v in vector)))
    ordinary = len(tweets)

    # Unlabeled posts pass the filter and are dropped by the features stage.
    for i in rng.choice(ordinary, size=spec.unlabeled, replace=False):
        tweets[i][5] = ""

    def pick_distinct(count: int, taken: set[int]) -> list[int]:
        out = []
        while len(out) < count:
            i = int(rng.integers(ordinary))
            if i not in taken and tweets[i][5] != "":
                taken.add(i)
                out.append(i)
        return out

    taken: set[int] = set()
    noise = []
    for i in pick_distinct(spec.blank_writers, taken):
        src = tweets[i]
        next_id += 1
        writer = "" if next_id % 2 else "   "
        noise.append([str(next_id), writer, src[2] + timedelta(minutes=1), src[3], f"{src[4]} again", src[5]])
    for i in pick_distinct(spec.multi_ticker, taken):
        src = tweets[i]
        other = spec.tickers[(spec.tickers.index(src[3]) + 1) % len(spec.tickers)]
        next_id += 1
        noise.append([str(next_id), "pairs", src[2] + timedelta(minutes=2), src[3], f"${src[3]} and ${other} both moving m{next_id}", src[5]])
    late = timedelta(hours=3)  # still the same calendar day: posts are stamped before 20:00
    for i in pick_distinct(spec.raw_duplicates, taken):
        src = tweets[i]
        next_id += 1
        noise.append([str(next_id), "copier", src[2] + late, src[3], src[4], src[5]])
    for i in pick_distinct(spec.clean_duplicates, taken):
        src = tweets[i]
        next_id += 1
        words = src[4].split(" ")
        variant = " ".join([words[0]] + [w.upper() for w in words[1:3]] + words[3:]) + "!!"
        noise.append([str(next_id), "shouter", src[2] + late, src[3], variant, src[5]])
    tweets += noise
    truth.noise = {
        "input": len(tweets),
        "missing_writer": spec.blank_writers,
        "multi_ticker": spec.multi_ticker,
        "raw_duplicate": spec.raw_duplicates,
        "clean_duplicate": spec.clean_duplicates,
        "kept": len(tweets) - spec.blank_writers - spec.multi_ticker - spec.raw_duplicates - spec.clean_duplicates,
        "unlabeled": spec.unlabeled,
    }

    order = sorted(range(len(tweets)), key=lambda i: (tweets[i][2], int(tweets[i][0])))
    with (directory / "tweets.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CORPUS_HEADER)
        for i in order:
            row = tweets[i]
            writer.writerow((row[0], row[1], row[2].isoformat(sep=" "), row[3], row[4], row[5]))
    with (directory / "embeddings.csv").open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("tweet_id", *(f"v{i}" for i in range(spec.embed_dim))))
        writer.writerows(embeddings)
    (directory / "holidays.txt").write_text("".join(f"{d.isoformat()}\n" for d in holidays))
    (directory / "config.cfg").write_text(
        "paths.ohlcv_dir = ohlcv\n"
        "paths.tweets = tweets.csv\n"
        "paths.embeddings = embeddings.csv\n"
        "paths.holidays = holidays.txt\n"
        "paths.output = out\n"
        f"tickers = {','.join(spec.tickers)}\n"
        "feature_set = HLOVE\n"
        f"seed = {seed}\n"
        "smoothing_span = 15\n"
        "analysis.atr_period = 14\n"
    )
    return truth
