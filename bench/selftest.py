#!/usr/bin/env python3
"""Self-test of the benchmark: every checker rejects a wrong value, and a
one-second run of every workload finishes.

    python3 bench/selftest.py          # about 50 s

Run from the repository root.  Exits 0 when every case passes.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

FAILURES: list[str] = []


def case(name: str, fn, *args, should_fail: bool) -> None:
    try:
        fn(*args)
        raised = False
    except checks.CheckFailure:
        raised = True
    if raised != should_fail:
        FAILURES.append(f"{name}: {'accepted a wrong value' if should_fail else 'rejected a right value'}")


def pair(name: str, fn, good: tuple, bad: tuple) -> None:
    case(f"{name} (right)", fn, *good, should_fail=False)
    case(f"{name} (wrong)", fn, *bad, should_fail=True)


def checker_cases() -> None:
    from senticast import analysis, losses, metrics
    from senticast.nn.autograd import Tensor

    rng = np.random.default_rng(3)
    truth = [100.0, 102.0, 98.5, 101.0]
    pred = [101.0, 101.5, 99.0, 100.0]
    reported = metrics.compute_metrics(truth, pred).mape
    pair("mape", checks.check_mape, (truth, pred, reported), (truth, pred, reported * (1 + 1e-6)))

    p = rng.normal(size=(4, 3))
    t = rng.normal(size=(4, 3))
    a = rng.normal(size=4)
    value = losses.dmse_loss_batch(Tensor(p), t, a, 1e3).item()
    pair("dmse", checks.check_dmse, (p, t, a, 1e3, value), (p, t, a, 1e3, value + 1e-3))

    pair("gradient", checks.check_gradient, ("w", 2.5, 2.5 + 1e-6), ("w", 2.5, 2.6))
    pair("loss curve", checks.check_loss_curve, ("c", [3.0, 2.0, 1.0]), ("c", [1.0, 2.0]))
    case("loss curve (non-finite)", checks.check_loss_curve, "c", [3.0, math.nan, 1.0], should_fail=True)

    injected = {"input": 10, "missing_writer": 1, "multi_ticker": 2, "raw_duplicate": 1, "clean_duplicate": 1, "kept": 5}
    pair("filter stats", checks.check_filter_stats, (dict(injected), injected), ({**injected, "raw_duplicate": 2}, injected))
    pair("count", checks.check_count, ("rows", 7, 7), ("rows", 6, 7))

    bdays = [date(2020, 1, 3), date(2020, 1, 6)]
    tweets = [("1", "QXA", date(2020, 1, 3), 1), ("2", "QXA", date(2020, 1, 4), 0), ("3", "QXA", date(2020, 1, 5), 0)]
    vectors = {"2": [1.0, 2.0], "3": [3.0, 4.0]}
    expected = checks.daily_features(tweets, vectors, bdays)
    good = [["2020-01-03", "1", "0", "0.0", "0.0", "", ""], ["2020-01-06", "0", "2", "1.0", "2.0", "2.0", "3.0"]]
    bad_score = [good[0], ["2020-01-06", "0", "2", "1.0", "1.5", "2.0", "3.0"]]
    bad_vector = [good[0], ["2020-01-06", "0", "2", "1.0", "2.0", "2.0", "3.5"]]
    pair("daily text score2", checks.check_daily_text, ("QXA", good, expected), ("QXA", bad_score, expected))
    case("daily text embedding", checks.check_daily_text, "QXA", bad_vector, expected, should_fail=True)

    columns = [list(rng.normal(size=30)) for _ in range(3)]
    table = analysis.correlation_table({f"c{i}": col for i, col in enumerate(columns)}).matrix
    wrong = [row[:] for row in table]
    wrong[0][1] += 1e-6
    pair("spearman", checks.check_spearman, ("t", table, columns), ("t", wrong, columns))

    X = rng.normal(size=(40, 4))
    y = X @ rng.normal(size=4) + rng.normal(size=40)
    r2 = analysis.ols_r2_probe(X, y)
    pair("probe", checks.check_probe, ("t", r2, X, y), ("t", r2 + 1e-3, X, y))

    closes = {"F0": {"2020-01-02": 10.0, "2020-01-03": 11.0, "2020-01-06": 12.0}}
    order = {"F0": ["2020-01-02", "2020-01-03", "2020-01-06"]}
    rows = [["2020-01-03", "F0", "1", "11.0", "10.0"], ["2020-01-06", "F0", "2", "12.0", "10.0"]]
    pair("truth column", checks.check_truth_column, (rows, closes), ([["2020-01-03", "F0", "1", "11.5", "10.0"]], closes))
    pair("naive", checks.check_naive, (rows, closes, order), ([["2020-01-06", "F0", "1", "12.0", "10.0"]], closes, order))

    truths, preds = [10.0, 11.0, 12.5], [10.5, 10.8, 12.0]
    record = metrics.compute_metrics(truths, preds, "F0", "tft_lite", "HLOVE").to_dict()
    grouped = {("F0", "tft_lite"): (truths, preds)}
    pair("metrics", checks.check_metrics, ([record], grouped), ([{**record, "smape": record["smape"] * 1.001}], grouped))

    a = rng.normal(size=(5, 3))
    b = a.copy()
    b[2, 1] += 1e-9
    pair("chunking", checks.check_chunking, (a, a.copy()), (a, b))
    pair("identical", checks.check_identical, ("f", b"abc", b"abc"), ("f", b"abc", b"abd"))


def generator_matches_conftest() -> None:
    """The compare panels are the c09 panels of tests/conftest.py."""
    conftest = ROOT / "tests" / "conftest.py"
    if not conftest.exists():
        return
    sys.path.insert(0, str(conftest.parent))
    from conftest import latent_sentiment_panels

    for seed in (0, 5):
        ours = gen.to_panels(gen.latent_panel_rows(seed))
        theirs = latent_sentiment_panels(seed)
        for p, q in zip(ours, theirs):
            same = [
                (r.day, r.high, r.low, r.open, r.volume, r.close, r.score, r.embedding)
                == (s.day, s.high, s.low, s.open, s.volume, s.close, s.score, s.embedding)
                for r, s in zip(p.rows, q.rows)
            ]
            if len(p.rows) != len(q.rows) or not all(same):
                FAILURES.append(f"latent panels for seed {seed} differ from conftest.latent_sentiment_panels")


def short_runs() -> None:
    """The benchmark's own workloads, one round each (--seconds 1)."""
    for workload in ("compare", "ingest", "forecast"):
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "2",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            name = f"one-round {workload} run (trace {trace})"
            if proc.returncode != 0:
                FAILURES.append(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = set(run.per_layer_units() if trace else run.END_TO_END)
            if not result["correct"] or result["failed"] or result["attempted"] < 1 or set(result["metrics"]) != want:
                FAILURES.append(f"{name}: {json.dumps(result)[:500]}\n{proc.stderr[-2000:]}")


def bare_directory() -> None:
    """Without the package sources the benchmark must fail without a result."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        cmd = [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "compare", "--seed", "1",
               "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            FAILURES.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            bare.parent.rmdir()


def main() -> int:
    checker_cases()
    generator_matches_conftest()
    bare_directory()
    short_runs()
    for failure in FAILURES:
        print(f"FAIL {failure}")
    print("selftest: ok" if not FAILURES else f"selftest: {len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
