"""Batch command-line pipeline: ingest, features, analyze, train, evaluate, report.

Every command reads a config file, consumes artifacts written by earlier
commands, and writes its own outputs atomically under the configured
output directory.  Exit codes: 0 success, 1 internal error, 2 missing
prerequisite, 3 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import analysis, market, text
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import OVERRIDES, RunConfig, apply_overrides, load_run_config
from .errors import (
    ConfigError,
    MissingArtifactError,
    ParseError,
    SenticastError,
    ValidationError,
)
from .fileio import read_csv, read_table, write_atomic
from .metrics import compute_metrics, composite_rank
from .training import grid_search, predict_windows, train_model
from .windows import FeatureSetSpec, Windows, build_windows, windows_from_normalizer

log = logging.getLogger("senticast")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISSING = 2
EXIT_VALIDATION = 3

class Artifacts:
    """Canonical layout of pipeline outputs under the run's output directory."""

    def __init__(self, root: Path):
        self.root = root
        self.tweets_clean = root / "preprocess" / "tweets_clean.csv"
        self.filter_stats = root / "preprocess" / "filter_stats.json"
        self.features_meta = root / "features" / "meta.json"
        self.correlations = root / "analyze" / "correlations.json"
        self.probe = root / "analyze" / "probe.json"
        self.returns_csv = root / "analyze" / "returns.csv"
        self.returns_sigma = root / "analyze" / "returns_sigma.json"
        self.checkpoint = root / "train" / "checkpoint.json"
        self.loss_curve = root / "train" / "loss_curve.csv"
        self.predictions = root / "predict" / "predictions.csv"
        self.predictions_naive = root / "predict" / "predictions_naive.csv"
        self.predict_meta = root / "predict" / "meta.json"
        self.metrics = root / "evaluate" / "metrics.json"
        self.grouped_report = root / "evaluate" / "grouped_report.json"
        self.leaderboard = root / "gridsearch" / "leaderboard.csv"
        self.report_json = root / "report" / "report.json"
        self.price_sentiment = root / "report" / "price_sentiment.csv"
        self.sentiment_volatility = root / "report" / "sentiment_volatility.csv"

    def panel(self, ticker: str) -> Path:
        return self.root / "features" / f"panel_{ticker}.csv"

    def daily_text(self, ticker: str) -> Path:
        return self.root / "features" / f"daily_text_{ticker}.csv"


def require(path: Path) -> Path:
    if not path.exists():
        raise MissingArtifactError(path)
    return path


def write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]], line_end: str = "\n") -> None:
    # The writer quotes a field only for the characters of `line_end`, and an
    # unquoted CR reads back as a line end: a field holding a CR needs "\r\n".
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows(rows)
    write_atomic(path, buffer.getvalue())


def load_calendar(config: RunConfig) -> market.BusinessCalendar:
    if config.holidays_file is not None:
        require(config.holidays_file)
        return market.BusinessCalendar.from_holiday_file(config.holidays_file)
    return market.BusinessCalendar()


# ---------------------------------------------------------------------------
# Commands


def cmd_preprocess(config: RunConfig, artifacts: Artifacts) -> None:
    require(config.tweets_file)
    tweets = text.load_tweets_csv(config.tweets_file)
    kept, stats = text.filter_corpus(tweets, config.tickers)
    header = ("tweet_id", "writer", "post_date", "ticker", "body", "sentiment")
    rows = (
        (t.tweet_id, t.writer, t.post_date.isoformat(sep=" "), t.ticker, t.body,
         "" if t.sentiment is None else str(t.sentiment))
        for t in kept
    )
    has_cr = any("\r" in t.tweet_id or "\r" in t.writer or "\r" in t.body for t in kept)
    write_csv(artifacts.tweets_clean, header, rows, "\r\n" if has_cr else "\n")
    write_json(artifacts.filter_stats, stats)
    log.info("preprocess: kept %d of %d tweets", stats["kept"], stats["input"])


def cmd_features(config: RunConfig, artifacts: Artifacts) -> None:
    require(artifacts.tweets_clean)
    calendar = load_calendar(config)
    tweets = [t for t in text.load_tweets_csv(artifacts.tweets_clean) if t.ticker in config.tickers]

    embedding_dim = 0
    if config.embeddings_file is not None:
        require(config.embeddings_file)
        vectors = text.load_embeddings_csv(config.embeddings_file)
        text.attach_embeddings(tweets, vectors)
        if vectors:
            embedding_dim = len(next(iter(vectors.values())))

    unlabeled = sum(1 for t in tweets if t.sentiment is None)
    labeled = [t for t in tweets if t.sentiment is not None]
    daily = text.aggregate_daily_text(labeled, calendar)
    by_ticker: dict[str, list[text.DailyTextFeatures]] = {}
    for feature in daily:
        by_ticker.setdefault(feature.ticker, []).append(feature)

    panel_rows = {}
    for ticker in config.tickers:
        prices = market.parse_ohlcv_csv(
            require(config.ohlcv_dir / f"{ticker}.csv"), calendar, ticker
        )
        features = by_ticker.get(ticker)
        if not features:
            raise ValidationError(f"{ticker}: no labeled tweets to align")
        panel = text.align_panel(prices, features, calendar, config.smoothing_span)
        text.write_panel_csv(artifacts.panel(ticker), panel)
        _write_daily_text(artifacts.daily_text(ticker), features, embedding_dim)
        panel_rows[ticker] = len(panel)

    meta = {
        "tickers": config.tickers,
        "embedding_dim": embedding_dim,
        "smoothing_span": config.smoothing_span,
        "unlabeled_dropped": unlabeled,
        "panel_rows": panel_rows,
    }
    write_json(artifacts.features_meta, meta)
    log.info("features: %d panels written", len(config.tickers))


def _write_daily_text(path: Path, features: list[text.DailyTextFeatures], dim: int) -> None:
    header = ["business_day", "n_pos", "n_neg", "score1", "score2"]
    header += [f"e{i}" for i in range(dim)]
    rows = []
    for f in features:
        row = [
            f.business_day.isoformat(), str(f.n_pos), str(f.n_neg),
            repr(float(f.score1)), repr(float(f.score2)),
        ]
        if dim:
            if f.mean_embedding is not None:
                row += [repr(float(v)) for v in f.mean_embedding]
            else:
                row += [""] * dim
        rows.append(row)
    write_csv(path, header, rows)


def _load_panels(config: RunConfig, artifacts: Artifacts) -> list[text.AlignedPanel]:
    return [
        text.read_panel_csv(require(artifacts.panel(ticker)), ticker) for ticker in config.tickers
    ]


def _feature_spec(config: RunConfig, artifacts: Artifacts) -> FeatureSetSpec:
    embedding_dim = 0
    if config.feature_set == "HLOVE":
        meta = json.loads(require(artifacts.features_meta).read_text(encoding="utf-8"))
        embedding_dim = int(meta.get("embedding_dim", 0))
        if embedding_dim < 1:
            raise ValidationError("HLOVE requested but the features stage saw no embeddings")
    return FeatureSetSpec(config.feature_set, embedding_dim)


def cmd_analyze(config: RunConfig, artifacts: Artifacts) -> None:
    panels = _load_panels(config, artifacts)
    correlations: dict[str, dict] = {}
    sigmas: dict[str, dict] = {}
    probes: dict[str, dict | None] = {}
    return_rows: list[list[str]] = []

    for idx, panel in enumerate(panels):
        ticker = panel.ticker
        closes = panel.column("close")
        returns, sigma = market.daily_returns_sigma(closes)
        sigmas[ticker] = {"sigma": sigma, "sum_squares": sigma * sigma}
        for day, value in zip(panel.days[1:], returns):
            return_rows.append([ticker, day.isoformat(), repr(value)])

        volume = panel.column("volume")
        volatility = market.atr(panel.column("high"), panel.column("low"), closes, config.atr_period)
        base = {"close": closes, "volume": volume, "volatility": volatility}
        smoothed = analysis.correlation_table(
            {
                **base,
                "volume": market.smooth(volume, "ewma", config.smoothing_span),
                "sentiment_score": panel.column("score"),
            }
        )
        raw = analysis.correlation_table({**base, "sentiment_score": panel.column("score_raw")})
        correlations[ticker] = {
            "names": smoothed.names,
            "smoothed": smoothed.matrix,
            "raw": raw.matrix,
        }

        probes[ticker] = _probe_from_daily_text(
            require(artifacts.daily_text(ticker)), ticker, config.seed + idx
        )

    write_json(artifacts.correlations, correlations)
    write_json(artifacts.probe, probes)
    write_json(artifacts.returns_sigma, sigmas)
    write_csv(artifacts.returns_csv, ["ticker", "date", "return"], return_rows)
    log.info("analyze: %d tickers", len(panels))


def _probe_from_daily_text(path: Path, ticker: str, seed: int) -> dict | None:
    embeddings: list[list[float]] = []
    scores: list[float] = []
    rows = read_csv(path)
    _, header = next(rows)
    if len(header) <= 5:
        return None
    for lineno, row in rows:
        if row[5].strip():
            try:
                embeddings.append([float(v) for v in row[5:]])
                scores.append(float(row[4]))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if len(embeddings) < 2 or len(set(scores)) < 2:
        return None
    result = analysis.probe_ticker(ticker, np.asarray(embeddings), scores, seed)
    return {
        "r2_embeddings": result.r2_embeddings,
        "r2_random": result.r2_random,
        "n_samples": result.n_samples,
        "dim": result.dim,
        "well_posed": result.well_posed,
    }


def cmd_train(config: RunConfig, artifacts: Artifacts) -> None:
    panels = _load_panels(config, artifacts)
    spec = _feature_spec(config, artifacts)
    train, _, normalizer = build_windows(
        panels, spec, config.train.lookback, config.train.horizon, config.split
    )
    model, curve = train_model(
        config.model, train, config.train, loss=config.loss, n_companies=len(panels)
    )
    save_checkpoint(artifacts.checkpoint, model, config.train, spec, normalizer, len(panels))
    write_csv(
        artifacts.loss_curve,
        ["epoch", "loss"],
        [[str(i), repr(v)] for i, v in enumerate(curve)],
    )
    log.info("train: %s on %d windows, %d epochs", config.model, len(train), config.train.epochs)


def write_predictions(
    model_path: Path, naive_path: Path, test: Windows, closes: np.ndarray, pred: np.ndarray, tickers: Sequence[str]
) -> int:
    """Write the model's and the naive baseline's forecast files; returns the rows in each.

    One row per (window, step): the target day, the ticker, the step, the raw
    close on that day and the forecast.  The naive forecast repeats the
    window's last observed close (`closes[test.ends]`) over the horizon.
    Each target row's day and close are formatted once, however many windows
    forecast it.
    """
    target, inverse = np.unique(test.ahead.ravel(), return_inverse=True)
    days = [day.isoformat() for day in test.days[target].tolist()]
    truths = list(map(repr, closes[target].tolist()))
    ticker_fields = [_csv_field(ticker) for ticker in tickers]
    steps = [str(step) for step in range(1, test.horizon + 1)] * len(test)
    companies = np.repeat(test.company, test.horizon).tolist()
    heads = [
        f"{days[r]},{ticker_fields[c]},{step},{truths[r]},"
        for r, c, step in zip(inverse.tolist(), companies, steps)
    ]
    anchors = [anchor for anchor in map(repr, closes[test.ends].tolist()) for _ in range(test.horizon)]
    header = "date,ticker,step,truth,pred\n"
    write_atomic(model_path, header + "".join([f"{head}{p!r}\n" for head, p in zip(heads, pred.ravel().tolist())]))
    write_atomic(naive_path, header + "".join([f"{head}{a}\n" for head, a in zip(heads, anchors)]))
    return len(heads)


def _csv_field(value: str) -> str:
    """`value` as `write_csv` writes it inside a row, quoted where it needs to be."""
    buffer = io.StringIO()
    # A lone empty field is written as "", so a second field follows it.
    csv.writer(buffer, lineterminator="\n").writerow([value, ""])
    return buffer.getvalue()[:-2]


def cmd_predict(config: RunConfig, artifacts: Artifacts) -> None:
    checkpoint = load_checkpoint(require(artifacts.checkpoint))
    model = restore_model(checkpoint)
    panels = _load_panels(config, artifacts)
    _, test = windows_from_normalizer(
        panels,
        checkpoint.feature_spec,
        checkpoint.normalizer,
        checkpoint.config.lookback,
        checkpoint.config.horizon,
    )
    if not test:
        raise ValidationError("no test windows; was the model trained with split=1.0?")
    predictions = predict_windows(model, test)
    # Raw closes in the windows' row order: the panels stacked end to end.
    closes = np.concatenate([panel.values[:, text.PANEL_VALUES.index("close")] for panel in panels])
    pred = checkpoint.normalizer.denormalize_close(test.company, predictions)
    rows = write_predictions(
        artifacts.predictions, artifacts.predictions_naive, test, closes, pred, checkpoint.normalizer.tickers
    )
    write_json(
        artifacts.predict_meta,
        {
            "model": checkpoint.model_type,
            "feature_set": checkpoint.feature_spec.kind,
            "horizon": checkpoint.config.horizon,
        },
    )
    log.info("predict: %d rows over %d windows", rows, len(test))


def _read_predictions(path: Path) -> dict[str, tuple[list[float], list[float]]]:
    """Truths and predictions per ticker, in file order.

    One numpy pass reads a well-formed file; any other goes line by line,
    and its first faulty line raises.
    """
    rows = read_csv(path)
    _, header = next(rows)
    if len(header) >= 5:
        table = read_table(
            path,
            [("date", object), ("ticker", object), ("step", object), ("truth", np.float64), ("pred", np.float64)]
            + [(f"extra{i}", object) for i in range(5, len(header))],
        )
        if table is not None:
            rows.close()
            names, first, inverse = np.unique(table["ticker"], return_index=True, return_inverse=True)
            order = np.argsort(inverse, kind="stable")  # grouped by ticker, file order within a group
            bounds = np.cumsum(np.bincount(inverse))[:-1]
            truths = np.split(table["truth"][order], bounds)
            preds = np.split(table["pred"][order], bounds)
            return {names[k]: (truths[k].tolist(), preds[k].tolist()) for k in np.argsort(first).tolist()}
    grouped: dict[str, tuple[list[float], list[float]]] = {}
    for lineno, row in rows:
        truths, preds = grouped.setdefault(row[1], ([], []))
        try:
            truths.append(float(row[3]))
            preds.append(float(row[4]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return grouped


def cmd_evaluate(config: RunConfig, artifacts: Artifacts) -> None:
    require(artifacts.checkpoint)  # evaluation is meaningless without a trained model
    meta = json.loads(require(artifacts.predict_meta).read_text(encoding="utf-8"))
    records = [
        compute_metrics(truths, preds, ticker, label, feature_set)
        for path, label, feature_set in (
            (artifacts.predictions, meta["model"], meta["feature_set"]),
            (artifacts.predictions_naive, "baseline", "close"),
        )
        for ticker, (truths, preds) in sorted(_read_predictions(require(path)).items())
    ]

    write_json(artifacts.metrics, [r.to_dict() for r in records])
    grouped = composite_rank(records)
    report = {
        ticker: [
            {
                "model": entry.record.model,
                "feature_set": entry.record.feature_set,
                "position": entry.position,
                "composite": entry.composite,
                "metric_ranks": entry.metric_ranks,
                "metrics": entry.record.to_dict(),
            }
            for entry in entries
        ]
        for ticker, entries in grouped.items()
    }
    write_json(artifacts.grouped_report, report)
    log.info("evaluate: %d records", len(records))


def cmd_gridsearch(config: RunConfig, artifacts: Artifacts) -> None:
    if not config.grid:
        raise ConfigError("gridsearch requires at least one grid.* key in the config")
    panels = _load_panels(config, artifacts)
    spec = _feature_spec(config, artifacts)
    result = grid_search(
        config.grid,
        panels,
        spec,
        config.validation_fraction,
        base_config=config.train,
        model_kind=config.model,
        split=config.split,
        loss=config.loss,
    )
    keys = [k for k in config.grid if k != "model"]
    header = ["rank", "grid_index", "model"] + keys + ["status", "val_mape", "val_rmse"]
    rows = []
    for rank, point in enumerate(result.leaderboard, start=1):
        rows.append(
            [str(rank), str(point.index), point.model_kind]
            + [str(point.overrides.get(k, "")) for k in keys]
            + [
                point.status,
                "" if point.status != "ok" else repr(point.val_mape),
                "" if point.status != "ok" else repr(point.val_rmse),
            ]
        )
    write_csv(artifacts.leaderboard, header, rows)
    log.info(
        "gridsearch: best point %d (%s) mape=%.4f",
        result.best.index,
        result.best.overrides,
        result.best.val_mape,
    )


def cmd_report(config: RunConfig, artifacts: Artifacts) -> None:
    panels = _load_panels(config, artifacts)
    consolidated = {
        "correlations": json.loads(require(artifacts.correlations).read_text(encoding="utf-8")),
        "probe": json.loads(require(artifacts.probe).read_text(encoding="utf-8")),
        "returns_sigma": json.loads(require(artifacts.returns_sigma).read_text(encoding="utf-8")),
        "metrics": json.loads(require(artifacts.metrics).read_text(encoding="utf-8")),
        "grouped": json.loads(require(artifacts.grouped_report).read_text(encoding="utf-8")),
    }
    write_json(artifacts.report_json, consolidated)

    price_rows, vol_rows = [], []
    for panel in panels:
        closes = panel.column("close")
        volatility = market.atr(panel.column("high"), panel.column("low"), closes, config.atr_period)
        scores = market.min_max_scale(panel.column("score"))
        for day, close_s, score_s, vol_s in zip(
            panel.days, market.min_max_scale(closes), scores, market.min_max_scale(volatility)
        ):
            price_rows.append([panel.ticker, day.isoformat(), repr(close_s), repr(score_s)])
            vol_rows.append([panel.ticker, day.isoformat(), repr(vol_s), repr(score_s)])
    write_csv(
        artifacts.price_sentiment,
        ["ticker", "date", "close_scaled", "score_scaled"],
        price_rows,
    )
    write_csv(
        artifacts.sentiment_volatility,
        ["ticker", "date", "volatility_scaled", "score_scaled"],
        vol_rows,
    )
    log.info("report: consolidated %d tickers", len(panels))


# ---------------------------------------------------------------------------
# Entry point

_DISPATCH = {
    "preprocess": cmd_preprocess,
    "features": cmd_features,
    "analyze": cmd_analyze,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "gridsearch": cmd_gridsearch,
    "report": cmd_report,
}

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (`main` runs once per stage); callers share it unchanged."""
    parser = argparse.ArgumentParser(
        prog="senticast",
        description="Batch experiments comparing sentiment and embedding features for close-price forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _DISPATCH:
        cmd = sub.add_parser(command, help=f"run the {command} stage")
        cmd.add_argument("--config", required=True, help="path to the run config file")
        for name, setting in OVERRIDES.items():
            # Values stay strings here; apply_overrides parses them as the config file's are.
            cmd.add_argument(
                f"--{name.replace('_', '-')}", dest=name, type=str, default=None,
                help=f"override {setting.file_key}",
            )
        cmd.add_argument(
            "--set",
            dest="extra",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="generic override, e.g. --set dropout=0.1",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("SENTICAST_LOG", "INFO").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO), format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    try:
        config = load_run_config(args.config)
        overrides = {name: getattr(args, name) for name in OVERRIDES}
        for pair in args.extra:
            if "=" not in pair:
                raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
            key, _, value = pair.partition("=")
            overrides[key.strip()] = value.strip()
        config = apply_overrides(config, overrides)
        _DISPATCH[args.command](config, Artifacts(config.output_dir))
    except MissingArtifactError as exc:
        log.error("%s", exc)
        return EXIT_MISSING
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except SenticastError as exc:
        log.error("%s", exc)
        return EXIT_INTERNAL
    except Exception:  # pragma: no cover - unexpected bugs
        log.exception("internal error")
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
