"""Correctness checks on the program's outputs.

Each check recomputes a result from the generated inputs with its own
formula (numpy, scipy or a plain loop) and raises CheckFailure when the
program's output disagrees.  None of them compares against a stored copy of
an earlier run.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


class CheckFailure(AssertionError):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close_enough(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def arrays_close(a, b, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.isfinite(a))) and bool(
        np.all(np.abs(a - b) <= np.maximum(abs_, rel * np.maximum(np.abs(a), np.abs(b))))
    )


# ---------------------------------------------------------------------------
# compare


def mape(truth, pred) -> float:
    truth = np.asarray(truth, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    return 100.0 * float(np.mean(np.abs(truth - pred) / np.abs(truth)))


def check_mape(truth: Sequence[float], pred: Sequence[float], reported: float) -> None:
    """MAPE of de-normalized predictions against the generated closes."""
    expect(len(truth) == len(pred) and len(truth) > 0, f"{len(truth)} truths for {len(pred)} predictions")
    ours = mape(truth, pred)
    expect(close_enough(ours, reported), f"MAPE {reported!r} reported, {ours!r} recomputed")


def dmse_loop(pred, truth, anchor, alpha: float) -> float:
    """Directional MSE of a batch by an explicit loop over windows and steps."""
    total = 0.0
    count = 0
    for p_row, t_row, a in zip(pred, truth, anchor):
        t_prev = p_prev = float(a)
        for p, t in zip(p_row, t_row):
            weight = 1.0 if (t - t_prev) * (p - p_prev) >= 0 else alpha
            total += weight * (t - p) ** 2
            t_prev, p_prev = t, p
            count += 1
    return total / count


def check_dmse(pred, truth, anchor, alpha: float, reported: float) -> None:
    ours = dmse_loop(pred, truth, anchor, alpha)
    expect(close_enough(ours, reported), f"DMSE {reported!r} reported, {ours!r} by loop")


def check_gradient(name: str, analytic: float, numeric: float, tol: float = 1e-4) -> None:
    """Central difference against backward(), relative with a unit floor."""
    expect(
        math.isfinite(analytic) and abs(analytic - numeric) <= tol * max(1.0, abs(analytic), abs(numeric)),
        f"gradient of {name}: backward {analytic!r}, central difference {numeric!r}",
    )


def check_loss_curve(name: str, curve: Sequence[float]) -> None:
    expect(len(curve) >= 2, f"{name}: loss curve has {len(curve)} epochs")
    expect(all(math.isfinite(v) for v in curve), f"{name}: non-finite loss in {list(curve)}")
    expect(curve[-1] < curve[0], f"{name}: last epoch loss {curve[-1]!r} not below first {curve[0]!r}")


# ---------------------------------------------------------------------------
# ingest

FILTER_KEYS = ("input", "missing_writer", "multi_ticker", "raw_duplicate", "clean_duplicate", "kept")


def check_filter_stats(stats: dict, injected: dict) -> None:
    for key in FILTER_KEYS:
        expect(stats.get(key) == injected[key], f"filter_stats {key} = {stats.get(key)!r}, generator injected {injected[key]}")


def check_count(name: str, got: int, want: int) -> None:
    expect(got == want, f"{name}: {got} in the output, {want} expected")


def daily_features(tweets: list[tuple], vectors: dict[str, list[float]], business_days: list) -> dict:
    """Per (ticker, business day): (n_pos, n_neg, score2, mean embedding or None).

    `tweets` holds (tweet_id, ticker, calendar day, label) for labeled posts;
    a post on a non-trading day counts for the next trading day.
    """
    import bisect

    buckets: dict[tuple, list] = {}
    for tweet_id, ticker, day, label in tweets:
        bday = business_days[bisect.bisect_left(business_days, day)]
        buckets.setdefault((ticker, bday), []).append((tweet_id, label))
    out = {}
    for key, group in buckets.items():
        labels = np.array([label for _, label in group])
        n_pos = int(labels.sum())
        n_neg = int(len(labels) - n_pos)
        embedded = [vectors[t] for t, _ in group if t in vectors]
        mean = np.mean(np.asarray(embedded), axis=0) if embedded else None
        out[key] = (n_pos, n_neg, n_neg / max(n_pos, 1), mean)
    return out


def check_daily_text(ticker: str, rows: list[list[str]], expected: dict) -> None:
    """rows: the daily_text CSV body, business_day,n_pos,n_neg,score1,score2,e0.."""
    got_days = {row[0] for row in rows}
    want_days = {day.isoformat() for (t, day) in expected if t == ticker}
    expect(got_days == want_days, f"{ticker}: daily_text covers {len(got_days)} days, {len(want_days)} expected")
    by_day = {day.isoformat(): value for (t, day), value in expected.items() if t == ticker}
    for row in rows:
        n_pos, n_neg, score2, mean = by_day[row[0]]
        expect((int(row[1]), int(row[2])) == (n_pos, n_neg), f"{ticker} {row[0]}: counts {row[1:3]} != {(n_pos, n_neg)}")
        expect(close_enough(float(row[4]), score2), f"{ticker} {row[0]}: score2 {row[4]} != {score2!r}")
        if mean is None:
            expect(all(not v for v in row[5:]), f"{ticker} {row[0]}: embedding without embedded posts")
        else:
            expect(arrays_close([float(v) for v in row[5:]], mean, rel=1e-10, abs_=1e-12),
                   f"{ticker} {row[0]}: mean embedding differs from numpy mean")


def check_spearman(name: str, matrix: list[list[float]], columns: list[Sequence[float]]) -> None:
    from scipy.stats import spearmanr

    rho = spearmanr(np.column_stack(columns)).statistic
    expect(arrays_close(matrix, rho, rel=1e-9, abs_=1e-12), f"{name}: Spearman matrix differs from scipy.stats.spearmanr")


def lstsq_r2(X: np.ndarray, y: np.ndarray) -> float:
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    weights, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ weights
    return 1.0 - float(residual @ residual) / float(np.sum((y - y.mean()) ** 2))


def check_probe(name: str, reported: float, X: np.ndarray, y: np.ndarray) -> None:
    ours = lstsq_r2(X, y)
    expect(close_enough(reported, ours, rel=1e-6, abs_=1e-9), f"{name}: probe R2 {reported!r}, lstsq {ours!r}")


# ---------------------------------------------------------------------------
# forecast


def check_truth_column(rows: list[list[str]], closes: dict) -> None:
    """rows: predictions.csv body, date,ticker,step,truth,pred."""
    expect(len(rows) > 0, "no prediction rows")
    for row in rows:
        want = closes[row[1]][row[0]]
        expect(float(row[3]) == want, f"{row[1]} {row[0]}: truth {row[3]} != generated close {want!r}")


def check_naive(rows: list[list[str]], closes: dict, day_order: dict) -> None:
    """Each naive prediction repeats the close `step` trading days before its date."""
    for row in rows:
        days = day_order[row[1]]
        anchor = days[days.index(row[0]) - int(row[2])]
        want = closes[row[1]][anchor]
        expect(float(row[4]) == want, f"{row[1]} {row[0]} step {row[2]}: naive {row[4]} != anchor close {want!r}")


def metric_values(truth, pred) -> dict[str, float]:
    t = np.asarray(truth, dtype=np.float64)
    p = np.asarray(pred, dtype=np.float64)
    err = t - p
    mse = float(np.mean(err**2))
    return {
        "mape": 100.0 * float(np.mean(np.abs(err) / np.abs(t))),
        "mae": float(np.mean(np.abs(err))),
        "mse": mse,
        "rmse": math.sqrt(mse),
        "r2": 1.0 - float(np.sum(err**2)) / float(np.sum((t - t.mean()) ** 2)),
        "smape": 100.0 * float(np.mean(np.abs(err) / ((np.abs(t) + np.abs(p)) / 2.0))),
    }


def check_metrics(records: list[dict], predictions: dict[tuple[str, str], tuple[list, list]]) -> None:
    """records: metrics.json; predictions: (ticker, model) -> (truths, preds)."""
    seen = set()
    for record in records:
        key = (record["ticker"], record["model"])
        expect(key in predictions, f"metrics.json has {key} with no predictions")
        seen.add(key)
        for name, value in metric_values(*predictions[key]).items():
            expect(close_enough(record[name], value), f"{key} {name}: {record[name]!r} reported, {value!r} recomputed")
    expect(seen == set(predictions), f"metrics.json covers {sorted(seen)}, predictions {sorted(predictions)}")


def check_chunking(a: np.ndarray, b: np.ndarray) -> None:
    expect(arrays_close(a, b, rel=1e-12, abs_=1e-12), "eval predictions change with the chunk size")


def check_identical(name: str, a: bytes, b: bytes) -> None:
    expect(a == b, f"{name}: {len(a)} and {len(b)} bytes differ")
