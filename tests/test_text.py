from __future__ import annotations

import csv
import io
import pickle
import re
import shutil
import time
import tracemalloc
import warnings
from dataclasses import replace
from datetime import date, datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import latent_sentiment_panels
from senticast import text
from senticast.cli import EXIT_OK, main
from senticast.errors import AlignmentError, NoObservations, ParseError, ValidationError
from senticast.market import BusinessCalendar, OhlcvBar, PriceSeries
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
    load_tweets_csv,
    read_panel_csv,
    read_tweet_columns,
    sentiment_scores,
    write_panel_csv,
    write_tweets_csv,
)

CAL = BusinessCalendar()


def tweet(tid, day, hour=12, ticker="AAPL", body="hello", writer="w", sentiment=1):
    return TweetRecord(
        tweet_id=tid,
        writer=writer,
        post_date=datetime(day.year, day.month, day.day, hour),
        ticker=ticker,
        body=body,
        sentiment=sentiment,
    )


def pooled(tweets, calendar=CAL, vectors=None):
    """`aggregate_daily_text` over the columns of `tweets`, with `vectors` mapping their ids to embeddings."""
    return aggregate_daily_text(TweetColumns.from_records(tweets), calendar, vectors)


class TestCleanTweet:
    def test_strips_cashtags_urls_mentions_and_punctuation(self):
        assert clean_tweet("Check $AAPL https://t.co/x @user!!") == "check"

    def test_plain_text_only_lowercases(self):
        assert clean_tweet("Big news today") == "big news today"

    def test_repeated_cashtags_collapse(self):
        assert clean_tweet("$TSLA $TSLA up up") == "up up"

    def test_www_links_removed(self):
        assert clean_tweet("see www.example.com/page now") == "see now"

    def test_empty_output_allowed(self):
        assert clean_tweet("$AAPL @user") == ""


class TestFilterCorpus:
    def test_multi_ticker_body_dropped(self):
        tweets = [tweet("1", date(2021, 1, 4), body="$AAPL and $TSLA moving")]
        kept, stats = filter_corpus(tweets, {"AAPL", "TSLA"})
        assert kept == [] and stats["multi_ticker"] == 1

    def test_bare_word_ticker_mentions_count(self):
        tweets = [tweet("1", date(2021, 1, 4), body="aapl beats tsla today")]
        kept, stats = filter_corpus(tweets, {"AAPL", "TSLA"})
        assert stats["multi_ticker"] == 1

    def test_duplicate_same_day_keeps_earliest(self):
        early = tweet("1", date(2021, 1, 4), hour=9, body="same words")
        late = tweet("2", date(2021, 1, 4), hour=15, body="same words")
        kept, stats = filter_corpus([late, early], {"AAPL"})
        assert [t.tweet_id for t in kept] == ["1"]
        assert stats["raw_duplicate"] == 1

    def test_cleaned_duplicates_also_dropped(self):
        first = tweet("1", date(2021, 1, 4), hour=9, body="Great day!!")
        second = tweet("2", date(2021, 1, 4), hour=10, body="great DAY")
        kept, stats = filter_corpus([first, second], {"AAPL"})
        assert [t.tweet_id for t in kept] == ["1"]
        assert stats["clean_duplicate"] == 1

    def test_missing_writer_dropped(self):
        bad = tweet("1", date(2021, 1, 4), writer="  ")
        kept, stats = filter_corpus([bad], {"AAPL"})
        assert kept == [] and stats["missing_writer"] == 1

    def test_deterministic_over_reruns(self):
        tweets = [
            tweet("1", date(2021, 1, 4), hour=9, body="alpha"),
            tweet("2", date(2021, 1, 4), hour=9, body="alpha"),
            tweet("3", date(2021, 1, 5), body="beta $AAPL"),
        ]
        first = filter_corpus(list(tweets), {"AAPL"})
        second = filter_corpus(list(tweets), {"AAPL"})
        assert [t.tweet_id for t in first[0]] == [t.tweet_id for t in second[0]]
        assert first[1] == second[1]

    def test_empty_ticker_set_rejected(self):
        with pytest.raises(ValidationError):
            filter_corpus([], set())


class TestSentimentScores:
    def test_direct_formula(self):
        assert sentiment_scores(2, 8) == (0.2, 0.25)

    def test_zero_negatives(self):
        assert sentiment_scores(0, 5) == (0.0, 0.0)

    def test_zero_positive_guard(self):
        assert sentiment_scores(3, 0) == (1.0, 3.0)

    def test_empty_bucket_signals(self):
        with pytest.raises(NoObservations):
            sentiment_scores(0, 0)

    def test_score1_score2_identity_when_positives_exist(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_neg = int(rng.integers(0, 50))
            n_pos = int(rng.integers(1, 50))
            score1, score2 = sentiment_scores(n_neg, n_pos)
            assert 0.0 <= score1 <= 1.0
            assert np.isclose(score1, score2 / (1.0 + score2))


class TestAggregateDailyText:
    def test_weekend_tweets_roll_to_monday(self):
        sat, sun, mon = date(2021, 1, 9), date(2021, 1, 10), date(2021, 1, 11)
        tweets = (
            [tweet(f"s{i}", sat, sentiment=1) for i in range(3)]
            + [tweet(f"u{i}", sun, sentiment=0) for i in range(2)]
            + [tweet("m", mon, sentiment=1)]
        )
        daily = pooled(tweets)
        assert len(daily) == 1
        assert daily[0].business_day == mon
        assert daily[0].n_pos == 4 and daily[0].n_neg == 2

    def test_single_embedding_is_its_own_mean(self):
        tue = date(2021, 1, 5)
        daily = pooled([tweet("1", tue)], vectors={"1": [0.5, 1.5]})
        assert daily[0].mean_embedding == [0.5, 1.5]

    def test_two_embeddings_average(self):
        tue = date(2021, 1, 5)
        tweets = [tweet("1", tue, hour=9), tweet("2", tue, hour=10)]
        daily = pooled(tweets, vectors={"1": [1.0, 0.0], "2": [0.0, 1.0]})
        assert daily[0].mean_embedding == [0.5, 0.5]

    def test_mixed_embedding_dims_rejected(self):
        tue = date(2021, 1, 5)
        tweets = [tweet("1", tue, hour=9), tweet("2", tue, hour=10)]
        with pytest.raises(ValidationError, match="dimension"):
            pooled(tweets, vectors={"1": [1.0, 0.0], "2": [1.0]})

    def test_missing_sentiment_rejected(self):
        with pytest.raises(ValidationError):
            pooled([tweet("1", date(2021, 1, 5), sentiment=None)])

    def test_tweet_conservation_and_no_backward_mapping(self):
        rng = np.random.default_rng(9)
        tweets = []
        for i in range(300):
            day = date(2021, 1, 1) + np.timedelta64(int(rng.integers(0, 60)), "D").astype(
                "timedelta64[D]"
            ).item()
            tweets.append(tweet(str(i), day, ticker=rng.choice(["A", "B"]), sentiment=int(rng.integers(0, 2))))
        daily = pooled(tweets)
        assert sum(f.n_pos + f.n_neg for f in daily) == len(tweets)
        mapped = {}
        for f in daily:
            mapped[(f.ticker, f.business_day)] = f
        for t in tweets:
            day = CAL.next_business_day(t.calendar_day())
            assert day >= t.calendar_day()

    def test_identical_vectors_average_exactly(self):
        tue = date(2021, 1, 5)
        v = [0.123, -0.456, 0.789]
        tweets = [tweet(str(i), tue, hour=9 + i) for i in range(5)]
        daily = pooled(tweets, vectors={str(i): list(v) for i in range(5)})
        assert daily[0].mean_embedding == v


def price_series(days: list[date], closes: list[float]) -> PriceSeries:
    bars = [
        OhlcvBar(d, c, c * 1.01, c * 0.99, c, c, 1000.0 + i)
        for i, (d, c) in enumerate(zip(days, closes))
    ]
    return PriceSeries("AAPL", bars)


class TestAlignPanel:
    def setup_method(self):
        self.days = CAL.days_between(date(2021, 1, 4), date(2021, 1, 8))  # Mon..Fri

    def test_full_overlap_no_fills(self):
        prices = price_series(self.days, [10.0, 11.0, 12.0, 13.0, 14.0])
        feats = pooled([tweet(str(i), d, sentiment=i % 2) for i, d in enumerate(self.days)])
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        assert len(panel.rows) == 5
        assert [r.day for r in panel.rows] == self.days

    def test_gap_day_carries_previous_raw_score(self):
        prices = price_series(self.days, [10.0] * 5)
        tweets = []
        for i, d in enumerate(self.days):
            if d.weekday() == 2:  # no tweets on Wednesday
                continue
            tweets += [tweet(f"p{i}", d, hour=9, sentiment=1), tweet(f"n{i}", d, hour=10, sentiment=0)]
        tweets.append(tweet("extra", self.days[1], hour=11, sentiment=0, body="more"))
        feats = pooled(tweets)
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        tue, wed = panel.rows[1], panel.rows[2]
        assert wed.score_raw == tue.score_raw

    def test_disjoint_ranges_raise(self):
        prices = price_series(self.days, [10.0] * 5)
        later = CAL.days_between(date(2021, 2, 1), date(2021, 2, 5))
        feats = pooled([tweet("1", later[0])])
        with pytest.raises(AlignmentError):
            align_panel(prices, feats, CAL, smoothing_span=3)

    def test_one_row_per_business_day_no_duplicates(self):
        days = CAL.days_between(date(2021, 1, 4), date(2021, 2, 26))
        rng = np.random.default_rng(4)
        prices = price_series(days, (100 + rng.normal(0, 1, len(days)).cumsum()).tolist())
        tweets = []
        for i, d in enumerate(days):
            if rng.random() < 0.7:
                tweets.append(tweet(str(i), d, sentiment=int(rng.integers(0, 2))))
        feats = pooled(tweets)
        panel = align_panel(prices, feats, CAL, smoothing_span=15)
        covered = CAL.days_between(panel.rows[0].day, panel.rows[-1].day)
        assert [r.day for r in panel.rows] == covered

    def test_embedding_forward_fill(self):
        prices = price_series(self.days, [10.0] * 5)
        tweets = [tweet("1", self.days[0]), tweet("2", self.days[3])]
        feats = pooled(tweets, vectors={"1": [1.0, 2.0], "2": [3.0, 4.0]})
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        assert panel.rows[1].embedding == [1.0, 2.0]
        assert panel.rows[2].embedding == [1.0, 2.0]
        assert panel.rows[3].embedding == [3.0, 4.0]

    def test_carry_starts_from_text_before_the_first_bar(self):
        # Text on Mon 01-04 (score 1.0) and Mon 01-11 (9.0); bars from Wed
        # 01-06.  Rows before 01-11 carry 01-04's score, never 01-11's.
        prices = price_series(CAL.days_between(date(2021, 1, 6), date(2021, 1, 12)), [10.0] * 5)
        feats = [
            DailyTextFeatures(date(2021, 1, 4), "AAPL", 1, 1, 0.5, 1.0),
            DailyTextFeatures(date(2021, 1, 11), "AAPL", 1, 9, 0.9, 9.0),
        ]
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        assert [r.day for r in panel.rows] == CAL.days_between(date(2021, 1, 6), date(2021, 1, 11))
        assert [r.score_raw for r in panel.rows] == [1.0, 1.0, 1.0, 9.0]

    def test_panel_starts_at_the_first_embedding(self):
        # Scores from 01-04, the first embedding on 01-06: no row before 01-06
        # may hold that embedding, so the panel starts there.
        prices = price_series(self.days, [10.0] * 5)
        feats = [
            DailyTextFeatures(date(2021, 1, 4), "AAPL", 1, 1, 0.5, 1.0),
            DailyTextFeatures(date(2021, 1, 6), "AAPL", 1, 1, 0.5, 2.0, [1.0, 2.0]),
            DailyTextFeatures(date(2021, 1, 8), "AAPL", 1, 1, 0.5, 3.0),
        ]
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        assert [r.day for r in panel.rows] == self.days[2:]
        assert [r.embedding for r in panel.rows] == [[1.0, 2.0]] * 3
        assert [r.score_raw for r in panel.rows] == [2.0, 2.0, 3.0]

    def test_embedding_carries_from_before_the_first_bar(self):
        prices = price_series(self.days[2:], [10.0] * 3)
        feats = [
            DailyTextFeatures(date(2021, 1, 4), "AAPL", 1, 1, 0.5, 1.0, [1.0, 2.0]),
            DailyTextFeatures(date(2021, 1, 7), "AAPL", 1, 1, 0.5, 2.0, [3.0, 4.0]),
            DailyTextFeatures(date(2021, 1, 8), "AAPL", 1, 1, 0.5, 3.0),
        ]
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        assert [r.embedding for r in panel.rows] == [[1.0, 2.0], [3.0, 4.0], [3.0, 4.0]]

    def test_panel_left_empty_raises(self):
        # Every embedding comes after the last bar, so no row can carry one.
        prices = price_series(self.days, [10.0] * 5)
        feats = [
            DailyTextFeatures(date(2021, 1, 4), "AAPL", 1, 1, 0.5, 1.0),
            DailyTextFeatures(date(2021, 1, 11), "AAPL", 1, 1, 0.5, 2.0, [1.0, 2.0]),
        ]
        with pytest.raises(AlignmentError, match="aligned panel is empty"):
            align_panel(prices, feats, CAL, smoothing_span=3)

    def test_holiday_flag_marks_day_after_holiday(self):
        cal = BusinessCalendar([date(2021, 1, 6)])  # Wednesday holiday
        days = cal.days_between(date(2021, 1, 4), date(2021, 1, 8))
        prices = PriceSeries(
            "AAPL", [OhlcvBar(d, 10.0, 10.1, 9.9, 10.0, 10.0, 1.0) for d in days]
        )
        feats = pooled([tweet(str(i), d) for i, d in enumerate(days)], cal)
        panel = align_panel(prices, feats, cal, smoothing_span=3)
        flags = {r.day: r.holiday for r in panel.rows}
        assert flags[date(2021, 1, 7)] == 1  # Thursday follows the holiday
        assert flags[date(2021, 1, 5)] == 0


class TestPanelRoundTrip:
    def test_csv_round_trip_preserves_values(self, tmp_path):
        days = CAL.days_between(date(2021, 1, 4), date(2021, 1, 8))
        prices = price_series(days, [10.0, 11.5, 12.25, 13.0, 14.125])
        feats = pooled(
            [tweet(str(i), d, sentiment=i % 2) for i, d in enumerate(days)],
            vectors={str(i): [0.1 * i, -0.2 * i] for i in range(len(days))},
        )
        panel = align_panel(prices, feats, CAL, smoothing_span=3)
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        loaded = read_panel_csv(path, "AAPL")
        assert loaded.embedding_dim == panel.embedding_dim
        for a, b in zip(panel.rows, loaded.rows):
            assert a == b

    def test_numpy_scalars_round_trip_as_plain_floats(self, tmp_path):
        source = latent_sentiment_panels(0, n_companies=1, length=20, embed_dim=3)[0]
        rows = [replace(r, close=np.float64(r.close), embedding=np.asarray(r.embedding)) for r in source.rows]
        assert isinstance(rows[-1].close, np.floating)
        panel = AlignedPanel(source.ticker, rows, source.embedding_dim)
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        assert "np." not in path.read_text()
        loaded = read_panel_csv(path, panel.ticker)
        for a, b in zip(panel.rows, loaded.rows):
            assert b == PanelRow(
                a.day, *(float(v) for v in (a.high, a.low, a.open, a.volume, a.close, a.score, a.score_raw)),
                [float(v) for v in a.embedding], a.holiday, a.day_of_week,
            )

    def test_embedding_text_is_each_value_repr_made_once_per_distinct_bytes(self):
        rows = np.array([[0.0, 0.1], [-0.0, 0.1], [0.0, 0.1], [np.nan, 1e300], [-np.inf, 5e-324]])
        known = {}
        assert text.embedding_csv_text(rows, known) == [",".join(map(repr, row)) for row in rows.tolist()]
        assert len(known) == 4
        known[rows[0].tobytes()] = "seen"
        assert text.embedding_csv_text(rows[:2], known) == ["seen", "-0.0,0.1"]

    def test_crash_mid_write_leaves_old_panel_intact(self, tmp_path):
        class Unwritable(date):
            def isoformat(self):
                raise RuntimeError("disk went away")

        panel = latent_sentiment_panels(0, n_companies=1, length=50, embed_dim=3)[0]
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        before = path.read_bytes()
        rows = list(panel.rows)
        day = rows[30].day
        rows[30] = replace(rows[30], day=Unwritable(day.year, day.month, day.day))
        broken = AlignedPanel(panel.ticker, rows, panel.embedding_dim)
        with pytest.raises(RuntimeError, match="disk went away"):
            write_panel_csv(path, broken)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["panel.csv", "panel.csv.npy"]
        assert panel_bits(read_panel_csv(path, panel.ticker)) == panel_bits(panel)


class TestPanelFootprint:
    # The forecast benchmark's inputs: 8 tickers x 1,000 days with 16
    # embedding columns, 1.5 MB of float64.  Read as columns, 2.3 MiB of
    # traced allocations from the sidecars and 1.94 MiB from the text; as
    # one object per row, 7.2 MiB.
    def peak_reading_eight_long_hlove_panels(self, tmp_path, sidecars: bool) -> int:
        panels = latent_sentiment_panels(0, n_companies=8, length=1000, embed_dim=16)
        for panel in panels:
            write_panel_csv(tmp_path / f"{panel.ticker}.csv", panel)
            if not sidecars:
                sidecar(tmp_path / f"{panel.ticker}.csv").unlink()
        read_panel_csv(tmp_path / f"{panels[0].ticker}.csv", panels[0].ticker)  # first-call allocations stay out
        tracemalloc.start()
        try:
            loaded = [read_panel_csv(tmp_path / f"{p.ticker}.csv", p.ticker) for p in panels]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [panel_bits(p) for p in loaded] == [panel_bits(p) for p in panels]
        return peak

    def test_reading_eight_long_hlove_panels_peak_memory(self, tmp_path):
        peak = self.peak_reading_eight_long_hlove_panels(tmp_path, sidecars=True)
        assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MiB against 3 MiB"

    def test_reading_eight_long_hlove_panels_from_text_peak_memory(self, tmp_path):
        peak = self.peak_reading_eight_long_hlove_panels(tmp_path, sidecars=False)
        assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MiB against 3 MiB"


def sidecar(path):
    return path.with_name(path.name + ".npy")


def panel_bits(panel: AlignedPanel):
    """Everything a panel holds, bit for bit."""
    return (
        panel.ticker, panel.days, panel.values.dtype, panel.values.shape, panel.values.tobytes(),
        panel.calendar.dtype, panel.calendar.shape, panel.calendar.tobytes(),
    )


def read_text_only(path, ticker):
    """`read_panel_csv` of a copy of the CSV without its sidecar."""
    copy = path.parent / "text-only" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(path.read_bytes())
    return read_panel_csv(copy, ticker)


def edit_sidecar(path, **fields):
    """Rewrite the sidecar beside `path` with some of its fields replaced."""
    record = np.load(sidecar(path))
    for name, value in fields.items():
        record[name] = value
    np.save(sidecar(path), record)


def _tripped():
    raise AssertionError("the sidecar was unpickled")


class Tripwire:
    def __reduce__(self):
        return _tripped, ()


class TestPanelSidecar:
    @pytest.fixture
    def written(self, tmp_path):
        panel = latent_sentiment_panels(3, n_companies=1, length=40, embed_dim=4)[0]
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel)
        return path, panel

    def test_written_panel_is_read_from_its_sidecar_alone(self, written, monkeypatch):
        path, panel = written
        expected = panel_bits(read_text_only(path, panel.ticker))
        for name in ("read_csv", "read_table"):
            monkeypatch.setattr(text, name, lambda *args, **kwargs: pytest.fail("the CSV was parsed"))
        loaded = read_panel_csv(path, panel.ticker)
        assert panel_bits(loaded) == expected == panel_bits(panel)
        assert not loaded.values.flags.writeable and not loaded.calendar.flags.writeable

    def test_csv_with_one_digit_changed_is_read_from_its_text(self, written):
        path, panel = written
        data = path.read_bytes()
        at = data.index(b",", data.index(b"\n") + 1) + 1  # the first digit of the first row's high
        assert data[at : at + 1].isdigit()
        path.write_bytes(data[:at] + str((int(data[at : at + 1]) + 1) % 10).encode() + data[at + 1 :])
        loaded = read_panel_csv(path, panel.ticker)
        assert loaded.values[0, 0] != panel.values[0, 0]
        assert panel_bits(loaded) == panel_bits(read_text_only(path, panel.ticker))

    def test_sidecar_with_a_calendar_out_of_range_is_not_used(self, written):
        path, panel = written
        calendar = np.array(panel.calendar)
        calendar[5] = (0, 5)
        edit_sidecar(path, calendar=calendar)
        assert panel_bits(read_panel_csv(path, panel.ticker)) == panel_bits(panel)

    @pytest.mark.parametrize("flags, message", [
        ((7, 0), "holiday must be 0 or 1 and dow 0..4, got 7 and 0"),
        ((0, 5), "holiday must be 0 or 1 and dow 0..4, got 0 and 5"),
    ], ids=["holiday-7", "dow-5"])
    def test_panel_with_a_calendar_out_of_range_is_still_refused(self, tmp_path, flags, message):
        source = latent_sentiment_panels(0, n_companies=1, length=10, embed_dim=2)[0]
        rows = source.rows
        rows[3] = replace(rows[3], holiday=flags[0], day_of_week=flags[1])
        path = tmp_path / "panel.csv"
        write_panel_csv(path, AlignedPanel(source.ticker, rows, source.embedding_dim))
        assert sidecar(path).exists()
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: {message}") + "$"):
            read_panel_csv(path, source.ticker)

    def test_sidecar_holds_what_the_csv_reads_back(self, tmp_path):
        # `repr` writes each NaN as `nan`: a negative or payload-carrying NaN reads back as the plain one.
        nans = np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF4000000000000], dtype=np.uint64).view(np.float64)
        source = latent_sentiment_panels(0, n_companies=1, length=3, embed_dim=1)[0]
        values = np.array(source.values)
        values[0, :3] = nans
        values[1, :4] = (np.inf, -np.inf, -0.0, 0.0)
        path = tmp_path / "panel.csv"
        write_panel_csv(path, AlignedPanel.from_columns(source.ticker, source.days, values, source.calendar))
        loaded = read_panel_csv(path, source.ticker)
        assert loaded.values[0, :3].view(np.uint64).tolist() == [np.float64(np.nan).view(np.uint64)] * 3
        assert panel_bits(loaded) == panel_bits(read_text_only(path, source.ticker))

    def test_two_writes_give_identical_sidecar_bytes(self, tmp_path):
        # Across more than the 2 s resolution of a zip member's timestamp.
        panel = latent_sentiment_panels(0, n_companies=1, length=30, embed_dim=3)[0]
        write_panel_csv(tmp_path / "a.csv", panel)
        first = sidecar(tmp_path / "a.csv").read_bytes()
        time.sleep(2.1)
        write_panel_csv(tmp_path / "a.csv", panel)
        write_panel_csv(tmp_path / "b.csv", panel)
        assert sidecar(tmp_path / "a.csv").read_bytes() == first
        assert sidecar(tmp_path / "b.csv").read_bytes() == first


FIXTURE_CONFIG = str(Path(__file__).parent / "fixtures" / "pipeline" / "config.cfg")


class PanelFile:
    """A panel CSV and its sidecar; `outcome` is what `read_panel_csv` makes of a panel file."""

    def __init__(self, tmp_path):
        self.root = tmp_path
        self.panel = latent_sentiment_panels(3, n_companies=1, length=40, embed_dim=4)[0]
        self.path = tmp_path / "panel.csv"
        write_panel_csv(self.path, self.panel)

    def write_other(self, path):
        write_panel_csv(path, latent_sentiment_panels(4, n_companies=1, length=40, embed_dim=4)[0])

    def outcome(self, path):
        return panel_bits(read_panel_csv(path, self.panel.ticker))

    @staticmethod
    def moved(record):
        """Fields that a wrongly used sidecar would show."""
        return {"values": record["values"] + 1.0}


class TweetFile:
    """The cleaned tweets of the pipeline fixture; `outcome` is what `features` writes from a tweet file."""

    def __init__(self, tmp_path):
        self.root = tmp_path
        assert main(["preprocess", "--config", FIXTURE_CONFIG, "--output", str(tmp_path / "out")]) == EXIT_OK
        self.path = tmp_path / "out" / "preprocess" / "tweets_clean.csv"

    def write_other(self, path):
        write_tweets_csv(path, load_tweets_csv(self.path)[1:])

    def outcome(self, path):
        """Every file that `features` writes from the `tweets_clean.csv` at `path`, by name."""
        out = path.parent.parent
        assert main(["features", "--config", FIXTURE_CONFIG, "--output", str(out)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted((out / "features").iterdir())}

    @staticmethod
    def moved(record):
        labels = record["sentiment"]
        return {"sentiment": np.where(labels >= 0, 1 - labels, labels), "days": record["days"] + 3}


SIDECAR_FILES = {"panel": PanelFile, "tweets": TweetFile}


def outcome_without_sidecar(written, path):
    """`written.outcome` of a copy of the CSV at `path` without its sidecar."""
    copy = written.root / "text-only" / path.relative_to(written.root)
    copy.parent.mkdir(parents=True, exist_ok=True)
    copy.write_bytes(path.read_bytes())
    return written.outcome(copy)


@pytest.mark.parametrize("kind", SIDECAR_FILES)
class TestSidecarFallback:
    def test_rewritten_csv_beside_an_old_sidecar_is_read_from_its_text(self, tmp_path, kind):
        # A write that died between the CSV and its sidecar leaves the old sidecar.
        written = SIDECAR_FILES[kind](tmp_path)
        path = written.path
        old = sidecar(path).read_bytes()
        before = written.outcome(path)
        written.write_other(path)
        sidecar(path).write_bytes(old)
        after = written.outcome(path)
        assert after != before
        assert after == outcome_without_sidecar(written, path)

    @pytest.mark.parametrize("breakage", [
        "empty", "truncated-header", "truncated-data", "trailing-byte", "wrong-tag", "wrong-shape",
        "other-file", "object-array", "pickle", "npz",
    ])
    def test_broken_or_foreign_sidecar_falls_back_without_a_warning(self, tmp_path, kind, breakage):
        written = SIDECAR_FILES[kind](tmp_path)
        path = written.path
        data = sidecar(path).read_bytes()
        record = np.load(sidecar(path))
        moved = written.moved(record)
        if breakage == "empty":
            sidecar(path).write_bytes(b"")
        elif breakage == "truncated-header":
            sidecar(path).write_bytes(data[:100])
        elif breakage == "truncated-data":
            sidecar(path).write_bytes(data[:-8])
        elif breakage == "trailing-byte":
            sidecar(path).write_bytes(data + b"\x00")
        elif breakage == "wrong-tag":
            edit_sidecar(path, tag=record["tag"].item()[:-1] + b"0", **moved)
        elif breakage == "wrong-shape":  # the days of one row fewer than the other columns
            shapes = {name: record.dtype[name].shape for name in record.dtype.names}
            shapes["days"] = (shapes["days"][0] - 1,)
            foreign = np.zeros((), [(name, record.dtype[name].base, shapes[name]) for name in record.dtype.names])
            for name in record.dtype.names:
                foreign[name] = record["days"][1:] if name == "days" else moved.get(name, record[name])
            np.save(sidecar(path), foreign)
        elif breakage == "other-file":
            written.write_other(path.parent / "other.csv")
            sidecar(path).write_bytes(sidecar(path.parent / "other.csv").read_bytes())
        elif breakage == "object-array":
            np.save(sidecar(path), np.array([Tripwire(), record], dtype=object), allow_pickle=True)
        elif breakage == "pickle":
            sidecar(path).write_bytes(pickle.dumps(Tripwire()))
        else:
            buffer = io.BytesIO()
            np.savez(buffer, record=record)
            sidecar(path).write_bytes(buffer.getvalue())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = written.outcome(path)
        assert caught == []
        assert outcome == outcome_without_sidecar(written, path)


class TestTweetSidecar:
    def test_written_tweets_are_read_from_their_sidecar_alone(self, tmp_path, monkeypatch):
        written = TweetFile(tmp_path)
        expected = outcome_without_sidecar(written, written.path)
        monkeypatch.setattr(text, "load_tweets_csv", lambda *args, **kwargs: pytest.fail("the CSV was parsed"))
        assert written.outcome(written.path) == expected

    @pytest.mark.parametrize("field, value", [("sentiment", 2), ("sentiment", -2), ("days", 0)])
    def test_sidecar_with_a_value_out_of_range_is_not_used(self, tmp_path, field, value):
        written = TweetFile(tmp_path)
        column = np.array(np.load(sidecar(written.path))[field])
        column[3] = value
        edit_sidecar(written.path, **{field: column})
        assert written.outcome(written.path) == outcome_without_sidecar(written, written.path)

    def test_two_writes_give_identical_sidecar_bytes(self, tmp_path):
        tweets = load_tweets_csv(TweetFile(tmp_path).path)
        write_tweets_csv(tmp_path / "a.csv", tweets)
        write_tweets_csv(tmp_path / "b.csv", tweets)
        assert sidecar(tmp_path / "a.csv").read_bytes() == sidecar(tmp_path / "b.csv").read_bytes()

    def test_nul_in_an_id_or_ticker_is_read_from_the_text(self, tmp_path):
        # numpy's fixed-width `U` drops trailing NULs: from a sidecar, "7\x00"
        # would read back as "7" and take tweet 7's embedding.
        mon, tue = date(2021, 1, 4), date(2021, 1, 5)
        path = tmp_path / "tweets.csv"
        write_tweets_csv(path, [tweet("7", mon), tweet("8", mon, body="other")])
        assert sidecar(path).exists()
        tweets = [tweet("7", mon), tweet("7\x00", tue), tweet("9", tue, ticker="AAPL\x00", sentiment=0)]
        write_tweets_csv(path, tweets)
        assert not sidecar(path).exists()
        columns = read_tweet_columns(path)
        assert columns.ids.tolist() == ["7", "7\x00", "9"]
        assert columns.tickers.tolist() == ["AAPL", "AAPL", "AAPL\x00"]
        daily = aggregate_daily_text(columns, CAL, {"7": [1.0, 0.0], "7\x00": [0.0, 1.0]})
        assert [(f.ticker, f.business_day, f.n_neg, f.mean_embedding) for f in daily] == [
            ("AAPL", mon, 0, [1.0, 0.0]), ("AAPL", tue, 0, [0.0, 1.0]), ("AAPL\x00", tue, 1, None),
        ]

    def test_one_long_id_leaves_the_sidecar_out(self, tmp_path):
        # A fixed-width `U` column is as wide as its longest value, for every row.
        tweets = [tweet(str(i), date(2021, 1, 4), body=f"b{i}") for i in range(200)]
        tweets.append(tweet("x" * 20000, date(2021, 1, 5)))
        path = tmp_path / "tweets.csv"
        write_tweets_csv(path, tweets)
        assert not sidecar(path).exists()
        assert read_tweet_columns(path).ids.tolist() == [t.tweet_id for t in tweets]
        write_tweets_csv(path, tweets[:-1])
        assert sidecar(path).exists()

    def test_features_on_nul_names_matches_features_on_plain_ones(self, tmp_path):
        # A tweet id "<id>\x00" beside tweet <id>, and a ticker "AAA\x00" outside the config.
        fixture = Path(FIXTURE_CONFIG).parent
        outcomes = []
        for name, suffix, ticker in (("nul", "\x00", "AAA\x00"), ("plain", "-x", "ZZZ")):
            corpus = tmp_path / name
            shutil.copytree(fixture, corpus)
            first = load_tweets_csv(corpus / "tweets.csv")[0]
            with open(corpus / "tweets.csv", "a", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow([first.tweet_id + suffix, "w", "2020-01-07 10:00:00", "AAA", "fresh words", "1"])
                writer.writerow(["nul-ticker", "w", "2020-01-07 11:00:00", ticker, "more words", "0"])
            with open(corpus / "embeddings.csv", "a", encoding="utf-8") as handle:
                handle.write(first.tweet_id + suffix + "," + ",".join(["0.5"] * 8) + "\n")
            for stage in ("preprocess", "features"):
                assert main([stage, "--config", str(corpus / "config.cfg")]) == EXIT_OK
            assert sidecar(corpus / "out" / "preprocess" / "tweets_clean.csv").exists() == (name == "plain")
            outcomes.append({p.name: p.read_bytes() for p in sorted((corpus / "out" / "features").iterdir())})
        assert outcomes[0] == outcomes[1]


class TestTweetsCsv:
    def test_load_tweets_csv_parses_sentiment_and_dates(self, tmp_path):
        path = tmp_path / "tweets.csv"
        path.write_text(
            "tweet_id,writer,post_date,ticker,body,sentiment\n"
            '1,alice,2021-01-04 09:30:00,aapl,"hello, world",1\n'
            "2,bob,2021-01-04 10:00:00,AAPL,bye,\n"
        )
        tweets = load_tweets_csv(path)
        assert tweets[0].sentiment == 1 and tweets[1].sentiment is None
        assert tweets[0].ticker == "AAPL"
        assert tweets[0].body == "hello, world"

    def test_padded_and_lowercase_tickers_read_as_one_ticker(self, tmp_path):
        path = tmp_path / "tweets.csv"
        path.write_text(
            "tweet_id,writer,post_date,ticker,body,sentiment\n"
            "1,alice,2021-01-04 09:30:00, aapl,up,1\n"
            "2,bob,2021-01-04 10:00:00,AAPL ,down,0\n"
        )
        tweets = load_tweets_csv(path)
        assert [t.ticker for t in tweets] == ["AAPL", "AAPL"]
        kept, stats = filter_corpus(tweets, ["aapl"])
        assert stats["kept"] == 2 and {t.ticker for t in kept} == {"AAPL"}

    @pytest.mark.parametrize("ticker", ["", "   "], ids=["empty", "whitespace"])
    def test_blank_ticker_names_its_line(self, tmp_path, ticker):
        path = tmp_path / "tweets.csv"
        path.write_text(
            "tweet_id,writer,post_date,ticker,body,sentiment\n"
            "1,alice,2021-01-04 09:30:00,AAPL,up,1\n"
            f"2,bob,2021-01-04 10:00:00,{ticker},down,0\n"
        )
        with pytest.raises(ParseError, match=r"tweets\.csv:3: blank ticker"):
            load_tweets_csv(path)

    def test_all_offset_aware_post_dates_load(self, tmp_path):
        path = tmp_path / "tweets.csv"
        path.write_text(
            "tweet_id,writer,post_date,ticker,body,sentiment\n"
            "1,alice,2021-01-04 09:30:00+00:00,AAPL,up,1\n"
            "2,bob,2021-01-04 10:00:00-05:00,AAPL,down,0\n"
        )
        kept, _ = filter_corpus(load_tweets_csv(path), ["AAPL"])
        assert [t.tweet_id for t in kept] == ["1", "2"]

    @pytest.mark.parametrize(
        "first, second",
        [("2021-01-04 09:30:00", "2021-01-04 10:00:00+00:00"), ("2021-01-04 09:30:00+01:00", "2021-01-04 10:00:00")],
        ids=["naive-then-aware", "aware-then-naive"],
    )
    def test_mixed_utc_offsets_name_the_line(self, tmp_path, first, second):
        path = tmp_path / "tweets.csv"
        path.write_text(
            "tweet_id,writer,post_date,ticker,body,sentiment\n"
            f"1,alice,{first},AAPL,up,1\n"
            f"2,bob,{second},AAPL,down,0\n"
        )
        message = f"tweets.csv:3: post_date '{second}' and the first row's differ in having a UTC offset"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_tweets_csv(path)

    def test_ticker_holding_a_cr_reads_back(self, tmp_path):
        path = tmp_path / "tweets.csv"
        tweets = [tweet("1", date(2021, 1, 4), ticker="A\rB"), tweet("2", date(2021, 1, 4), body="a\nb")]
        write_tweets_csv(path, tweets)
        assert load_tweets_csv(path) == tweets
