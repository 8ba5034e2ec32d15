"""Property tests over random inputs; skipped where hypothesis is not installed."""

from __future__ import annotations

import csv
import math
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (
    average_ranks_loop,
    clean_tweet_oracle,
    dmse_oracle,
    load_embeddings_loop,
    mentions_several_oracle,
    read_panel_loop,
    read_predictions_loop,
    spearman_oracle,
    welford_mean_loop,
)
from senticast.analysis import average_ranks, spearman
from senticast.checkpoint import load_checkpoint, restore_model, save_checkpoint
from senticast.cli import _read_predictions, main
from senticast.errors import AlignmentError
from senticast.losses import dmse_loss_batch
from senticast.market import BusinessCalendar, OhlcvBar, PriceSeries, smooth
from senticast.metrics import METRIC_NAMES, MetricsRecord, composite_rank
from senticast.models import TftLite, TrainConfig
from senticast.text import (
    AlignedPanel,
    DailyTextFeatures,
    PanelRow,
    TweetColumns,
    TweetRecord,
    aggregate_daily_text,
    align_panel,
    clean_tweet,
    filter_corpus,
    load_embeddings_csv,
    load_tweets_csv,
    read_panel_csv,
    read_tweet_columns,
    write_panel_csv,
)
from senticast.nn import Tensor
from senticast.training import build_model, predict_windows
from senticast.windows import FeatureSetSpec, Normalizer, Windows, build_windows

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def checkpoint_parts(draw):
    n_heads = draw(st.sampled_from([1, 2, 4]))
    cfg = TrainConfig(
        lookback=draw(st.integers(1, 8)),
        horizon=draw(st.integers(1, 3)),
        hidden_size=n_heads * draw(st.integers(1, 4)),
        n_heads=n_heads,
        lstm_layers=draw(st.integers(1, 2)),
        norm_type=draw(st.sampled_from(["rmsnorm", "layernorm"])),
        feed_forward=draw(st.sampled_from(["swiglu", "relu"])),
        hidden_continuous_size=draw(st.integers(1, 4)),
        nlinear_const_init=draw(st.booleans()),
    )
    kind = draw(st.sampled_from(["HLOV", "HLOVS", "HLOVE"]))
    spec = FeatureSetSpec(kind, draw(st.integers(1, 4)) if kind == "HLOVE" else 0)
    n_companies = draw(st.integers(1, 3))
    n_features = len(spec.columns)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    normalizer = Normalizer(
        tickers=[f"T{i}" for i in range(n_companies)],
        means=rng.normal(size=(n_companies, n_features)),
        stds=rng.uniform(0.5, 2.0, size=(n_companies, n_features)),
        train_rows=[40] * n_companies,
    )
    model_kind = draw(st.sampled_from(["nlinear", "tft_lite"]))
    model = build_model(model_kind, cfg, n_features, n_companies, rng)
    for p in model.parameters():  # move weights off their init values
        p.data = p.data + rng.normal(0.0, 0.01, p.data.shape)
    return model, cfg, spec, normalizer, n_companies


@settings(max_examples=50, deadline=None)
@given(checkpoint_parts())
def test_checkpoint_round_trip(parts):
    model, cfg, spec, normalizer, n_companies = parts
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_checkpoint(first, model, cfg, spec, normalizer, n_companies)
        checkpoint = load_checkpoint(first)
        restored = restore_model(checkpoint)
        save_checkpoint(second, restored, checkpoint.config, checkpoint.feature_spec, checkpoint.normalizer, n_companies)
        assert first.read_bytes() == second.read_bytes()
    original, loaded = model.parameters(), restored.parameters()
    assert [p.name for p in loaded] == [p.name for p in original]
    for a, b in zip(original, loaded):
        assert a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
MONDAY = date(2021, 1, 4)
CAL = BusinessCalendar([date(2021, 1, 13), date(2021, 1, 20)])


# NaN with its sign bit set, NaN with a payload, and a signalling NaN, beside the infinities and -0.0.
SPECIAL = st.sampled_from(
    np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF4000000000000], dtype=np.uint64).view(np.float64).tolist()
    + [math.nan, math.inf, -math.inf, -0.0]
)


@st.composite
def panels(draw, floats=FINITE):
    dim = draw(st.integers(0, 3))
    as_numpy = draw(st.booleans())  # numpy-scalar floats must be written as plain floats
    days = CAL.days_between(MONDAY, MONDAY + timedelta(days=draw(st.integers(0, 20))))
    rows = []
    for day in days:
        values = [draw(floats) for _ in range(7)]
        if as_numpy:
            values = [np.float64(v) for v in values]
        embedding = [draw(floats) for _ in range(dim)] if dim else None
        rows.append(PanelRow(day, *values, embedding, draw(st.integers(0, 1)), day.weekday()))
    return AlignedPanel("TST", rows, dim)


@settings(max_examples=50, deadline=None)
@given(panels())
def test_panel_csv_round_trip_is_exact(panel):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_panel_csv(first, panel)
        loaded = read_panel_csv(first, panel.ticker)
        write_panel_csv(second, loaded)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.embedding_dim == panel.embedding_dim
    assert len(loaded.rows) == len(panel.rows)
    for a, b in zip(panel.rows, loaded.rows):
        floats = (a.high, a.low, a.open, a.volume, a.close, a.score, a.score_raw)
        embedding = [float(v) for v in a.embedding] if a.embedding is not None else None
        assert b == PanelRow(a.day, *(float(v) for v in floats), embedding, a.holiday, a.day_of_week)
        assert all(type(v) is float for v in (b.high, b.close, b.score, *(b.embedding or [])))


@st.composite
def alignments(draw, any_day=False):
    """Bars on every business day of one span; text on a random subset of a shifted span.

    With `any_day`, text days may also fall on weekends and holidays and
    arrive in any order.
    """
    all_days = CAL.days_between(MONDAY, MONDAY + timedelta(days=40))
    lo, hi = sorted(draw(st.lists(st.integers(0, len(all_days) - 1), min_size=2, max_size=2)))
    bars = [
        OhlcvBar(d, 10.0 + i, 11.0 + i, 9.0 + i, 10.5 + i, 10.5 + i, 100.0 * i)
        for i, d in enumerate(all_days[lo : hi + 1])
    ]
    dim = draw(st.integers(0, 2))
    pool = [MONDAY + timedelta(days=i) for i in range(41)] if any_day else all_days
    text_days = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20, unique=True))
    features = [
        DailyTextFeatures(
            day, "TST", 1, 1, 0.5, draw(st.floats(0, 5)),
            [draw(st.floats(-1, 1)) for _ in range(dim)] if dim and draw(st.booleans()) else None,
        )
        for day in (draw(st.permutations(text_days)) if any_day else sorted(text_days))
    ]
    return PriceSeries("TST", bars), features, draw(st.integers(1, 20))


@settings(max_examples=100, deadline=None)
@given(alignments())
def test_align_panel_fills_from_latest_observed_day(case):
    prices, features, span = case

    def latest(day, candidates):
        earlier = [f for f in candidates if f.business_day <= day]
        return earlier[-1] if earlier else None

    # A row exists where the score, and the embedding if any day has one,
    # can come from a day on or before it; nothing is filled from later.
    with_embedding = [f for f in features if f.mean_embedding is not None]
    overlap = CAL.days_between(
        max(prices.bars[0].date, features[0].business_day), min(prices.bars[-1].date, features[-1].business_day)
    )
    days = [d for d in overlap if latest(d, features) and (not with_embedding or latest(d, with_embedding))]
    if not any(f.business_day in days for f in features):
        with pytest.raises(AlignmentError):  # an empty panel, or a range of gaps only
            align_panel(prices, features, CAL, span)
        return
    panel = align_panel(prices, features, CAL, span)
    assert [row.day for row in panel.rows] == days

    for row in panel.rows:
        assert row.score_raw == latest(row.day, features).score2
        expected = latest(row.day, with_embedding).mean_embedding if with_embedding else None
        assert row.embedding == expected
    assert [row.score for row in panel.rows] == smooth([row.score_raw for row in panel.rows], "ewma", span)
    embeddings = [row.embedding for row in panel.rows if row.embedding is not None]
    assert len({id(e) for e in embeddings}) == len(embeddings)  # no row shares another's list


@settings(max_examples=100, deadline=None)
@given(alignments(any_day=True))
def test_align_panel_rows_hold_only_text_from_on_or_before_their_day(case):
    prices, features, span = case
    try:
        panel = align_panel(prices, features, CAL, span)
    except AlignmentError:
        return
    for row in panel.rows:
        earlier = [f for f in features if f.business_day <= row.day]
        assert any(f.score2 == row.score_raw for f in earlier)
        if panel.embedding_dim:
            assert any(f.mean_embedding == row.embedding for f in earlier)


TICKERS = ["AAA", "BBB"]
BODIES = ["up", "Up!", "up @x", "$AAA up", "down", "down https://t.co/q", "AAA and BBB", "$bbb"]


@st.composite
def corpora(draw):
    n = draw(st.integers(0, 30))
    start = datetime(2021, 1, 4, 9)
    return [
        TweetRecord(
            str(i),
            draw(st.sampled_from(["w", "v", "", "  "])),
            start + timedelta(hours=draw(st.integers(0, 40))),  # repeats give post_date ties
            draw(st.sampled_from(TICKERS)),
            draw(st.sampled_from(BODIES)),
        )
        for i in range(n)
    ]


def filter_two_pass(tweets, known):
    """Independent route: the raw-body dedupe over the whole corpus, then the clean-body one."""
    stats = {"input": len(tweets), "missing_writer": 0, "multi_ticker": 0, "raw_duplicate": 0, "clean_duplicate": 0}
    staged = []
    for t in tweets:
        if not t.writer.strip():
            stats["missing_writer"] += 1
        elif mentions_several_oracle(t.body, known):
            stats["multi_ticker"] += 1
        else:
            staged.append(t)
    staged = sorted(staged, key=lambda t: t.post_date)
    for stage, key in (("raw_duplicate", lambda t: t.body), ("clean_duplicate", lambda t: clean_tweet(t.body))):
        seen, survivors = set(), []
        for t in staged:
            k = (t.ticker, t.post_date.date(), key(t))
            if k in seen:
                stats[stage] += 1
            else:
                seen.add(k)
                survivors.append(t)
        staged = survivors
    stats["kept"] = len(staged)
    return staged, stats


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_filter_corpus_partitions_the_input(tweets):
    kept, stats = filter_corpus(tweets, TICKERS)
    assert stats["input"] == len(tweets)
    assert sum(v for k, v in stats.items() if k != "input") == len(tweets)
    assert stats["kept"] == len(kept)
    raw = [(t.ticker, t.calendar_day(), t.body) for t in kept]
    clean = [(t.ticker, t.calendar_day(), clean_tweet(t.body)) for t in kept]
    assert len(set(raw)) == len(raw) and len(set(clean)) == len(clean)
    position = {id(t): i for i, t in enumerate(tweets)}
    order = [(t.post_date, position[id(t)]) for t in kept]
    assert order == sorted(order)
    assert (kept, stats) == filter_two_pass(tweets, TICKERS)


# Half-integers in a narrow range: ties, flat moves and repeated values are common.
tied_values = st.integers(-4, 4).map(lambda v: v * 0.5)


# Tickers with regex metacharacters, and ones that upper-case to ASCII
# (`ſT`) or stay non-ASCII (Kelvin sign); bodies mix them, in any case,
# with characters that IGNORECASE matches across the ASCII boundary.
TICKER_POOL = ["AAA", "BRK.B", "BF-B", "K", "S", "I", "C++", "A(B)", "X*", "\u017fT", "\u212aO"]
BODY_PIECES = [" ", "$", ".", "-", "1", "x", "k", "s", "i", "\u0130", "\u212a", "\u017f", "\u0131"]


@st.composite
def ticker_bodies(draw):
    tickers = draw(st.lists(st.sampled_from(TICKER_POOL), min_size=1, max_size=4, unique=True))
    mention = st.sampled_from(tickers).flatmap(lambda t: st.sampled_from([t, t.lower(), t.swapcase()]))
    return "".join(draw(st.lists(mention | st.sampled_from(BODY_PIECES), max_size=10))), tickers


@settings(max_examples=300, deadline=None)
@given(ticker_bodies())
@example(("\u212a and AAA", ["K", "AAA"]))
@example(("ko and AAA", ["\u212aO", "AAA"]))
def test_multi_ticker_drop_matches_every_regex_run(case):
    body, tickers = case
    _, stats = filter_corpus([TweetRecord("1", "w", datetime(2021, 1, 4, 9), "AAA", body)], tickers)
    assert stats["multi_ticker"] == int(mentions_several_oracle(body, tickers))


BODY_CHARS = st.sampled_from(list("ab Z,;\"'\n\r$#\u00e9"))


@st.composite
def tweet_records(draw):
    """Quoted, comma- and newline-laden fields; every post_date has the same UTC offset, or none."""
    offset = draw(st.none() | st.integers(-12, 14).map(lambda h: timezone(timedelta(hours=h))))
    start = datetime(2021, 1, 4, 9, tzinfo=offset)
    return [
        TweetRecord(
            draw(st.text(BODY_CHARS, max_size=4)),
            draw(st.text(BODY_CHARS, max_size=4)),
            start + timedelta(seconds=draw(st.integers(0, 10**6)), microseconds=draw(st.sampled_from([0, 250]))),
            draw(st.sampled_from(TICKERS)),
            draw(st.text(BODY_CHARS, max_size=12)),
            draw(st.sampled_from([None, 0, 1])),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


@settings(max_examples=100, deadline=None)
@given(tweet_records())
def test_preprocess_writes_tweets_that_read_back_equal(records):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "tweets.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tweet_id", "writer", "post_date", "ticker", "body", "sentiment"])
            for t in records:
                sentiment = "" if t.sentiment is None else str(t.sentiment)
                writer.writerow([t.tweet_id, t.writer, t.post_date.isoformat(sep=" "), t.ticker, t.body, sentiment])
        (tmp / "run.cfg").write_text(
            "paths.ohlcv_dir = ohlcv\npaths.tweets = tweets.csv\npaths.output = out\ntickers = AAA,BBB\n"
        )
        assert main(["preprocess", "--config", str(tmp / "run.cfg")]) == 0
        path = tmp / "out" / "preprocess" / "tweets_clean.csv"
        assert load_tweets_csv(path) == filter_corpus(records, TICKERS)[0]
        with mock.patch("senticast.text.load_tweets_csv", side_effect=AssertionError("the CSV was parsed")):
            from_sidecar = read_tweet_columns(path)
        from_text = TweetColumns.from_records(load_tweets_csv(path))
    for a, b in zip(from_sidecar, from_text):
        assert (len(a), a.tolist()) == (len(b), b.tolist())
    assert (from_sidecar.days.dtype, from_sidecar.sentiment.dtype) == (np.int64, np.int8)


@st.composite
def embedded_tweets(draw):
    """Labeled tweets over two weeks from a Friday, and embeddings of one width for some of their ids."""
    dim = draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 1e300])
    tweets = [
        TweetRecord(
            str(i),
            "w",
            datetime(2021, 1, 1, 9) + timedelta(hours=draw(st.integers(0, 24 * 14))),
            draw(st.sampled_from(TICKERS)),
            "b",
            draw(st.integers(0, 1)),
        )
        for i in range(draw(st.integers(1, 40)))
    ]
    vectors = {
        t.tweet_id: vector
        for t in tweets
        if (vector := draw(st.none() | st.lists(values, min_size=dim, max_size=dim))) is not None
    }
    if draw(st.booleans()):  # as `load_embeddings_csv` gives them: read-only rows of one matrix
        matrix = np.array(list(vectors.values()), dtype=np.float64).reshape(len(vectors), dim)
        matrix.flags.writeable = False
        vectors = dict(zip(vectors, matrix))
    return tweets, vectors


@settings(max_examples=200, deadline=None)
@given(embedded_tweets())
def test_daily_mean_embeddings_are_bit_equal_to_the_loop(case):
    tweets, vectors = case
    buckets: dict = {}
    for t in tweets:
        if t.tweet_id in vectors:
            buckets.setdefault((t.ticker, CAL.next_business_day(t.calendar_day())), []).append(vectors[t.tweet_id])
    daily = aggregate_daily_text(TweetColumns.from_records(tweets), CAL, vectors)
    means = {(f.ticker, f.business_day): f.mean_embedding for f in daily if f.mean_embedding is not None}
    assert means.keys() == buckets.keys()
    for key, rows in buckets.items():
        assert all(type(v) is float for v in means[key])
        assert np.array(means[key]).tobytes() == np.array(welford_mean_loop(rows)).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(tied_values | st.sampled_from([math.nan, math.inf, -0.0]), max_size=25))
@example([])
@example([1.5])
@example([math.nan])
@example([math.nan, 0.0, math.nan, 0.0])
def test_average_ranks_match_the_loop(values):
    assert average_ranks(values).tolist() == average_ranks_loop(values).tolist()


@st.composite
def dmse_batches(draw):
    batch, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    grid = st.lists(tied_values, min_size=batch * horizon, max_size=batch * horizon)
    pred = np.asarray(draw(grid)).reshape(batch, horizon)
    truth = np.asarray(draw(grid)).reshape(batch, horizon)
    anchor = np.asarray(draw(st.lists(tied_values, min_size=batch, max_size=batch)))
    return pred, truth, anchor, draw(st.sampled_from([1.0, 10.0, 1e3]))


@settings(max_examples=200, deadline=None)
@given(dmse_batches())
def test_dmse_matches_oracle_with_ties(case):
    pred, truth, anchor, alpha = case
    loss = dmse_loss_batch(Tensor(pred), truth, anchor, alpha).item()
    expected = np.mean([dmse_oracle(p, t, a, alpha) for p, t, a in zip(pred, truth, anchor)])
    assert loss == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 25).flatmap(lambda n: st.tuples(*[st.lists(tied_values, min_size=n, max_size=n)] * 2)))
def test_spearman_matches_oracle_with_ties(pair):
    x, y = pair
    assume(len(set(x)) > 1 and len(set(y)) > 1)
    assert spearman(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)


@st.composite
def metric_records(draw):
    records = []
    for ticker in draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC"]), min_size=1, max_size=3, unique=True)):
        for m in range(draw(st.integers(2, 5))):
            values = {name: draw(tied_values) for name in METRIC_NAMES}
            records.append(MetricsRecord(ticker=ticker, model=f"m{m}", feature_set="HLOV", **values))
    return records


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_composite_rank_ignores_record_order(data):
    records = data.draw(metric_records())
    shuffled = data.draw(st.permutations(records))
    before, after = composite_rank(records), composite_rank(shuffled)
    assert before.keys() == after.keys()
    for ticker in before:
        by_model = {entry.record.model: entry for entry in after[ticker]}
        # A record keeps its ranks; only records tied on (composite, MAPE rank)
        # may trade positions, since input order breaks those ties.
        for entry in before[ticker]:
            moved = by_model[entry.record.model]
            assert moved.metric_ranks == entry.metric_ranks
            assert moved.composite == entry.composite
        keys = [(e.composite, e.metric_ranks["mape"]) for e in before[ticker]]
        assert keys == [(e.composite, e.metric_ranks["mape"]) for e in after[ticker]]
        for entry in before[ticker]:
            key = (entry.composite, entry.metric_ranks["mape"])
            if keys.count(key) == 1:
                assert by_model[entry.record.model].position == entry.position


WINDOW_DAYS = BusinessCalendar().days_between(MONDAY, MONDAY + timedelta(days=70))


def random_rows(rng: np.random.Generator, days: list[date], dim: int) -> list[PanelRow]:
    rows = []
    for day in days:
        close = float(rng.uniform(10.0, 100.0))
        values = [close * 1.01, close * 0.99, float(rng.uniform(10.0, 100.0)), float(rng.uniform(1e3, 1e4)), close]
        embedding = rng.normal(size=dim).tolist() if dim else None
        rows.append(PanelRow(day, *values, *rng.normal(size=2).tolist(), embedding, int(rng.integers(2)),
                             day.weekday()))
    return rows


@st.composite
def window_cases(draw):
    lookback, horizon = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["HLOV", "HLOVS", "HLOVE"]))
    dim = 2 if kind == "HLOVE" else 0
    lengths = draw(st.lists(st.integers(max(lookback + horizon, 8), len(WINDOW_DAYS)), min_size=1, max_size=3))
    split = draw(st.one_of(st.just(1.0), st.floats(0.25, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panels = [AlignedPanel(f"T{c}", random_rows(rng, WINDOW_DAYS[:n], dim), dim) for c, n in enumerate(lengths)]
    return panels, FeatureSetSpec(kind, dim), lookback, horizon, split, rng


@settings(max_examples=100, deadline=None)
@given(window_cases())
def test_windows_never_read_past_the_split(case):
    panels, spec, lookback, horizon, split, rng = case
    train, test, norm = build_windows(panels, spec, lookback, horizon, split)
    for company, panel in enumerate(panels):
        T, split_at = len(panel.rows), norm.train_rows[company]
        assert split_at == (T if split == 1.0 else int(split * T))
        split_day = panel.rows[split_at].day if split_at < T else date.max
        ours = [w for w in train if w.company_index == company]
        assert len(ours) == max(0, split_at - horizon - lookback + 1)
        assert all(max(w.target_days) < split_day for w in ours)
        ours = [w for w in test if w.company_index == company]
        assert len(ours) == max(0, T - horizon - max(lookback, split_at) + 1)
        assert all(min(w.target_days) >= split_day for w in ours)

    # Rewrite every row at or after each company's split: nothing that
    # training sees may change.
    changed = [
        AlignedPanel(p.ticker, p.rows[:n] + random_rows(rng, [r.day for r in p.rows[n:]], p.embedding_dim),
                     p.embedding_dim)
        for p, n in zip(panels, norm.train_rows)
    ]
    train2, _, norm2 = build_windows(changed, spec, lookback, horizon, split)
    assert norm2.train_rows == norm.train_rows
    assert norm2.means.tobytes() == norm.means.tobytes()
    assert norm2.stds.tobytes() == norm.stds.tobytes()
    assert len(train2) == len(train)
    for field in ("past", "known", "target", "anchor", "company"):
        assert getattr(train2, field).tobytes() == getattr(train, field).tobytes(), field
    assert list(train2.target_days.ravel()) == list(train.target_days.ravel())


JAN_TO_MAR = [MONDAY + timedelta(days=i) for i in range(90)]
WEEKDAY_HOLIDAYS = st.frozensets(st.sampled_from([d for d in JAN_TO_MAR if d.weekday() < 5]), max_size=30)


def trades(day: date, holidays: frozenset) -> bool:
    return day.weekday() < 5 and day not in holidays


@settings(max_examples=200, deadline=None)
@given(WEEKDAY_HOLIDAYS, st.sampled_from(JAN_TO_MAR), st.sampled_from(JAN_TO_MAR))
def test_calendar_matches_day_by_day_oracle(holidays, start, end):
    cal = BusinessCalendar(holidays)
    # next_business_day: the first trading day on or after the start
    nxt = cal.next_business_day(start)
    assert nxt >= start and trades(nxt, holidays)
    assert not any(trades(start + timedelta(days=i), holidays) for i in range((nxt - start).days))
    # days_between: exactly the trading days in [start, end]
    span = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    assert cal.days_between(start, end) == [d for d in span if trades(d, holidays)]
    # follows_holiday: a listed holiday lies strictly between the previous trading day and this one
    prev = end - timedelta(days=1)
    while not trades(prev, holidays):
        prev -= timedelta(days=1)
    assert cal.follows_holiday(end) == any(prev < h < end for h in holidays)


@st.composite
def repeated_windows(draw):
    """Windows drawn with repeats over 1-3 companies' stacked rows, and a chunk size to batch them by."""
    lookback, horizon = 4, 2
    lengths = draw(st.lists(st.integers(lookback + horizon, lookback + horizon + 6), min_size=1, max_size=3))
    offsets = np.cumsum([0] + lengths)
    company = draw(st.lists(st.integers(0, len(lengths) - 1), min_size=1, max_size=24))
    ends = [offsets[c] + lookback - 1 + draw(st.integers(0, lengths[c] - lookback - horizon)) for c in company]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Rows drawn from a small pool repeat their bytes at other indices, also in other companies.
    pool = rng.normal(size=(draw(st.integers(1, offsets[-1])), 3))
    windows = Windows(
        pool[rng.integers(0, len(pool), offsets[-1])], rng.normal(size=(offsets[-1], 6)), np.arange(offsets[-1]),
        np.array(ends), np.array(company), lookback, horizon,
    )
    return windows, len(lengths), draw(st.integers(1, len(ends))), rng


@settings(max_examples=50, deadline=None)
@given(repeated_windows())
def test_windows_sharing_rows_match_the_every_row_forward(case):
    # An index repeats within a chunk where windows overlap or one is drawn
    # twice, and across chunks; each chunk runs its distinct indices once.
    windows, n_companies, chunk, rng = case
    cfg = TrainConfig(lookback=4, horizon=2, hidden_size=8, n_heads=2, hidden_continuous_size=4, dropout=0.0)
    model = TftLite(cfg, n_features=3, n_companies=n_companies, rng=rng)
    oracle = model.forward_batch(windows.past, windows.known, windows.company).data
    shared = predict_windows(model, windows, chunk=chunk)
    assert np.max(np.abs(shared - oracle)) <= 1e-12 * np.max(np.abs(oracle))


# Characters where `\s`, IGNORECASE and `str.lower` could part ways: the
# long s and the Kelvin sign match `s` and `k` under IGNORECASE, NBSP and
# \x1c-\x1f are Unicode whitespace, and links come in mixed case.
CLEAN_PIECES = [
    "http://a.b", "HTTPS://x", "httpſ://y", "ftp://z", "://", "www.", "WwW.", "wWw.x/y", "ww.w", "w",
    "@", "@user", "@ü", "$", "$AAPL", "$1", "$ſ", "\u212a", "\u017f", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f",
    "\u2028", "\x85", " ", "\t", "\n", "\r", ".", "/", "!", "é", "A", "z", "0",
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(CLEAN_PIECES) | st.text(max_size=3), max_size=12).map("".join))
@example("Check $AAPL https://t.co/x @user!!")
@example("see wWw.example.com/page\xa0now\x1c\x1f")
def test_clean_tweet_matches_the_regex_chain(body):
    assert clean_tweet(body) == clean_tweet_oracle(body)


# The numpy readers against their line-by-line oracles.  Files come from
# generated rows with up to three edits; each reader must return the
# oracle's bits or raise the oracle's error with its message.

ODD_FIELDS = [
    "1_0", "\u0661", "+1", " 1", "1 ", "\xa01", "1.0", "01", "99999999999999999999", "-99999999999999999999",
    "nan", "-nan", "inf", "-inf", "1e999", "2021-01-050", "2021-01-05", "", " ", "#", "1#", '"', "0", "1", "4", "5",
]


@st.composite
def edited_csv(draw, lines, hot=()):
    """`lines` (a header first) as file text after up to three edits, with LF or CRLF ends and maybe a BOM.

    Half of the edits that pick a field pick one of the `hot` columns.
    """
    lines = [line.split(",") for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(
            ["blank", "spaces", "quote", "quoted-newline", "hash", "missing", "extra", "field", "duplicate", "header-only"]
        ))
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        if hot and draw(st.booleans()):
            j = min(draw(st.sampled_from(hot)), len(lines[i]) - 1)
        if edit == "blank":
            lines.insert(draw(st.integers(1, len(lines))), [""])
        elif edit == "spaces":
            lines.insert(draw(st.integers(1, len(lines))), ["  "])
        elif edit == "quote":
            lines[i][j] = f'"{lines[i][j]}"'
        elif edit == "quoted-newline":
            lines[i][j] = f'"{lines[i][j][:1]}\n{lines[i][j][1:]}"'
        elif edit == "hash":
            k = draw(st.integers(0, len(lines[i][j])))
            lines[i][j] = lines[i][j][:k] + "#" + lines[i][j][k:]
        elif edit == "missing" and len(lines[i]) > 1:
            lines[i].pop()
        elif edit == "extra":
            lines[i].append("0")
        elif edit == "field":
            lines[i][j] = draw(st.sampled_from(ODD_FIELDS))
        elif edit == "duplicate" and len(lines) > 2:
            lines[i][0] = lines[draw(st.integers(1, len(lines) - 1))][0]
        elif edit == "header-only":
            lines = lines[:1]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(fields) for fields in lines) + draw(st.sampled_from(["", end]))
    return "\ufeff" + text if draw(st.booleans()) else text


@settings(max_examples=50, deadline=None)
@given(panels(FINITE | SPECIAL))
@example(AlignedPanel("TST", [], 2))  # a header-only CSV
def test_panel_sidecar_read_equals_the_csv_read(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path, text_only = Path(tmp) / "a.csv", Path(tmp) / "text" / "a.csv"
        write_panel_csv(path, panel)
        text_only.parent.mkdir()
        text_only.write_bytes(path.read_bytes())
        with mock.patch("senticast.text.read_csv", side_effect=AssertionError("the CSV was parsed")):
            from_sidecar = read_panel_csv(path, panel.ticker)
        from_text = read_panel_csv(text_only, panel.ticker)
    assert from_sidecar.days == from_text.days
    for a, b in ((from_sidecar.values, from_text.values), (from_sidecar.calendar, from_text.calendar)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def read_outcome(read, text: str):
    """What `read` makes of a file holding `text`: its result, or the type and message of its error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            return read(path)
        except Exception as exc:  # the error itself is the outcome compared
            return type(exc), str(exc).replace(str(path), "data.csv")


def float_bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def panel_lines(panel: AlignedPanel) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        write_panel_csv(Path(tmp) / "p.csv", panel)
        return (Path(tmp) / "p.csv").read_text(encoding="utf-8").splitlines()


PANEL_TEXT = "date,high,low,open,volume,close,score,score_raw,holiday,dow\n"


def panel_bits(outcome):
    if not isinstance(outcome, AlignedPanel):
        return outcome
    return (
        outcome.ticker, outcome.days, outcome.values.shape, float_bits(outcome.values),
        outcome.calendar.dtype, outcome.calendar.tolist(),
    )


@settings(max_examples=300, deadline=None)
@given(panels().flatmap(lambda panel: edited_csv(panel_lines(panel), hot=(0, 8, 9))))
@example(PANEL_TEXT)
@example(PANEL_TEXT + "2021-01-05,1,1,1,1,1,1,1_0,0,\u0661\n")
@example(PANEL_TEXT + "2021-01-050,1,1,1,1,1,1,1,0,1\n")
@example(PANEL_TEXT + "2021-01-05,1,1,1,1,1,1,1,0,5\n")
@example(PANEL_TEXT + "2021-01-05,1,1,1,1,1,1,1,1.0,1\n")
@example(PANEL_TEXT + "2021-01-05,1,1,1,1,1,1,1, 1,01\n")
def test_panel_reader_matches_the_row_loop(text):
    expected = panel_bits(read_outcome(lambda path: read_panel_loop(path, "TST"), text))
    assert panel_bits(read_outcome(lambda path: read_panel_csv(path, "TST"), text)) == expected


EMBEDDING_VALUES = FINITE.map(repr) | st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "0.5", "-0.0"])


@st.composite
def embedding_lines(draw):
    dim = draw(st.integers(1, 3))
    ids = st.text(st.sampled_from(list("ab1 #\u00e9")), min_size=1, max_size=3)
    rows = [
        ",".join([draw(ids), *(draw(EMBEDDING_VALUES) for _ in range(dim))])
        for _ in range(draw(st.integers(0, 6)))
    ]
    return ["tweet_id," + ",".join(f"v{i}" for i in range(dim)), *rows]


def embedding_bits(outcome):
    if not isinstance(outcome, dict):
        return outcome
    return [(key, row.shape, float_bits(row)) for key, row in outcome.items()]


@settings(max_examples=300, deadline=None)
@given(embedding_lines().flatmap(edited_csv))
@example("tweet_id,v0\n")
@example("tweet_id,v0\n1,0.5\n1,0.7\n")
@example('tweet_id,v0\n"1",0.5\n1,0.7\n')
def test_embedding_reader_matches_the_row_loop(text):
    assert embedding_bits(read_outcome(load_embeddings_csv, text)) == embedding_bits(read_outcome(load_embeddings_loop, text))


@st.composite
def prediction_lines(draw):
    extra = draw(st.integers(0, 1))
    rows = [
        ",".join([
            "2021-01-05", draw(st.sampled_from(["AAA", "BBB", "c c", "\u00e9"])), str(draw(st.integers(1, 3))),
            draw(EMBEDDING_VALUES), draw(EMBEDDING_VALUES), *(["x"] * extra),
        ])
        for _ in range(draw(st.integers(0, 8)))
    ]
    return [",".join(["date", "ticker", "step", "truth", "pred", *(["note"] * extra)]), *rows]


def prediction_bits(outcome):
    if not isinstance(outcome, dict):
        return outcome
    return [(key, float_bits(truths), float_bits(preds)) for key, (truths, preds) in outcome.items()]


@settings(max_examples=300, deadline=None)
@given(prediction_lines().flatmap(edited_csv))
@example("date,ticker,step,truth,pred\n")
@example("date,ticker,step,truth,pred\n2021-01-05,AAA,1,1_0,+1\n2021-01-05,\"AAA\",1,1,1\n")
@example('date,ticker,step,truth,"\n2021-01-05,AAA,1,0.0,0.0')  # a quoted header field holds the next line
@example("date,ticker,step,truth\n2021-01-05,AAA,1,10.5\n")  # no pred column
def test_prediction_reader_matches_the_row_loop(text):
    assert prediction_bits(read_outcome(_read_predictions, text)) == prediction_bits(read_outcome(read_predictions_loop, text))
