"""The `predict` stage's two forecast files, against the row-by-row writer."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from conftest import read_predictions_loop, write_predictions_loop
from senticast.cli import write_predictions
from senticast.windows import KNOWN_DIM, Windows

LOOKBACK = 4


def business_days(n: int) -> list[date]:
    days, day = [], date(2021, 1, 4)
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def stride1_case(closes: list[np.ndarray], horizon: int):
    """Every stride-1 window over each company's closes, stacked end to end, and a forecast for each."""
    ends, company, start = [], [], 0
    for c, series in enumerate(closes):
        last = np.arange(LOOKBACK - 1, len(series) - horizon)
        ends.append(start + last)
        company.append(np.full(len(last), c))
        start += len(series)
    total = sum(len(series) for series in closes)
    days = np.asarray([day for series in closes for day in business_days(len(series))], dtype=object)
    test = Windows(
        np.zeros((total, 1)), np.zeros((total, KNOWN_DIM)), days,
        np.concatenate(ends), np.concatenate(company), LOOKBACK, horizon,
    )
    pred = np.random.default_rng(0).normal(100.0, 30.0, size=(len(test), horizon))
    return test, np.concatenate(closes), pred


def random_closes(n_companies: int, length: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.lognormal(4.0, 1.5, size=length) for _ in range(n_companies)]


def write_both(tmp_path, test, closes, pred, tickers):
    """Both writers' files, as (model bytes, naive bytes) for the writer and for the loop."""
    out = []
    for name, writer in (("arrays", write_predictions), ("loop", write_predictions_loop)):
        model, naive = tmp_path / f"{name}.csv", tmp_path / f"{name}_naive.csv"
        rows = writer(model, naive, test, closes, pred, tickers)
        assert rows == len(test) * test.horizon
        out.append((model.read_bytes(), naive.read_bytes()))
    return out


TICKERS = ["AAA", 'B"Q', "C,D"]


class TestWritePredictions:
    @pytest.mark.parametrize("n_tickers", [1, 2, 3])
    @pytest.mark.parametrize("horizon", [1, 5])
    def test_matches_row_loop(self, tmp_path, n_tickers, horizon):
        # Stride-1 windows: at horizon 5 each target day is forecast by up
        # to five windows.
        test, closes, pred = stride1_case(random_closes(n_tickers, 30, n_tickers), horizon)
        ours, oracle = write_both(tmp_path, test, closes, pred, TICKERS[:n_tickers])
        assert ours == oracle

    @pytest.mark.parametrize(
        "key", [[0], [-1], slice(None, None, 3), [7, 2, 7]], ids=["first", "last", "every-third", "repeated"]
    )
    def test_subsets_match_row_loop(self, tmp_path, key):
        test, closes, pred = stride1_case(random_closes(3, 25, 9), 5)
        ours, oracle = write_both(tmp_path, test[key], closes, pred[key], TICKERS)
        assert ours == oracle

    def test_quotes_ticker_and_writes_special_floats(self, tmp_path):
        closes = [np.array([1.0, 2.5, 2.0, 3.0, 0.1, 7.0, 1e16, -1.5, 1e-05])]
        test, closes, _ = stride1_case(closes, 2)
        pred = np.array([[np.nan, 1.0], [2.0, np.inf], [-0.0, 1e-07], [3.0, -np.inf]])
        (model, naive), oracle = write_both(tmp_path, test, closes, pred, ['B"Q'])
        assert (model, naive) == oracle
        assert model.decode().splitlines()[:3] == [
            "date,ticker,step,truth,pred", '2021-01-08,"B""Q",1,0.1,nan', '2021-01-11,"B""Q",2,7.0,1.0'
        ]
        assert naive.decode().splitlines()[-2:] == ['2021-01-13,"B""Q",1,-1.5,1e+16', '2021-01-14,"B""Q",2,1e-05,1e+16']


class TestNaiveFile:
    def test_every_step_repeats_last_observed_close(self, tmp_path):
        test, closes, pred = stride1_case(random_closes(2, 20, 4), 3)
        write_predictions(tmp_path / "p.csv", tmp_path / "n.csv", test, closes, pred, ["AAA", "BBB"])
        grouped = read_predictions_loop(tmp_path / "n.csv")
        naive = np.concatenate([grouped["AAA"][1], grouped["BBB"][1]]).reshape(len(test), 3)
        assert np.array_equal(naive, np.repeat(closes[test.ends, None], 3, axis=1))

    def test_single_step(self, tmp_path):
        test, closes, pred = stride1_case([np.array([5.0, 6.0, 2.0, 4.0, 9.0])], 1)
        write_predictions(tmp_path / "p.csv", tmp_path / "n.csv", test, closes, pred, ["AAA"])
        truths, naive = read_predictions_loop(tmp_path / "n.csv")["AAA"]
        assert (truths, naive) == ([9.0], [4.0])

    def test_constant_history_has_zero_error(self, tmp_path):
        test, closes, pred = stride1_case([np.full(12, 4.0)], 5)
        write_predictions(tmp_path / "p.csv", tmp_path / "n.csv", test, closes, pred, ["AAA"])
        truths, naive = read_predictions_loop(tmp_path / "n.csv")["AAA"]
        assert naive == truths == [4.0] * (len(test) * 5)
