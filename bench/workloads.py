"""The three workloads: set-up, one timed round, and the correctness checks.

A workload's `setup` runs in a child process and writes everything the
timed phase reads under one directory.  `prepare` loads what the parent
needs before timing starts, `run_round` is the timed unit (a list of
operations, each True when it succeeded), and `check` verifies the outputs
of the last round after timing has ended.  `LAYERS` names, as fnmatch
patterns, the per-layer metrics a workload's rounds reach; a traced run
reports the others as 0.
"""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import json
import traceback
from datetime import date
from pathlib import Path

import numpy as np

import checks
import gen

FEATURE_SETS = ("HLOV", "HLOVS", "HLOVE")


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    return rows[0], rows[1:]


def digest(directory: Path) -> str:
    """sha256 over every file under a directory, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def tft_config(seed: int, epochs: int):
    """The c09 model: TFT-lite, hidden 16, 4 heads, hcs 8, dropout 0, batch 32."""
    from senticast.models import TrainConfig

    return TrainConfig(
        hidden_size=16, n_heads=4, hidden_continuous_size=8, dropout=0.0,
        epochs=epochs, seed=seed, batch_size=32,
    )


class Workload:
    LAYERS: tuple[str, ...] = ()

    def reaches(self, metric: str) -> bool:
        return any(fnmatch.fnmatchcase(metric, pattern) for pattern in self.LAYERS)

    def op_metrics(self) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------


class Compare(Workload):
    """Fit TFT-lite on HLOV, HLOVS and HLOVE in turn; predict; MAPE; rank."""

    name = "compare"
    ops_per_round = len(FEATURE_SETS)
    LAYERS = ("training.*", "windows.*", "nn.*", "losses.*", "metrics.*", "gc.*", "trace.*")
    OP_STEPS = 7

    def __init__(self):
        self.epochs = 3

    def setup(self, directory: Path, seed: int) -> None:
        from senticast import text

        for panel in gen.to_panels(gen.latent_panel_rows(seed)):
            text.write_panel_csv(directory / f"{panel.ticker}.csv", panel)

    def prepare(self, directory: Path, seed: int) -> None:
        from senticast import text

        self.seed = seed
        self.panels = [text.read_panel_csv(directory / f"C{c}.csv", f"C{c}") for c in range(2)]
        self.mapes: list[tuple[float, ...]] = []

    def fit(self, kind: str) -> tuple:
        from senticast import metrics, training, windows

        spec = windows.FeatureSetSpec(kind, self.panels[0].embedding_dim if kind == "HLOVE" else 0)
        train, test, norm = windows.build_windows(self.panels, spec, 15, 3, 0.8)
        model, curve = training.train_model(
            "tft_lite", train, tft_config(self.seed, self.epochs), loss="dmse", n_companies=len(self.panels)
        )
        pred = training.predict_windows(model, test)
        truth = np.concatenate([norm.denormalize_close(w.company_index, w.target) for w in test])
        denorm = np.concatenate([norm.denormalize_close(w.company_index, p) for w, p in zip(test, pred)])
        record = metrics.compute_metrics(truth, denorm, "ALL", "tft_lite", kind)
        return model, curve, train, test, norm, pred, record

    def run_round(self) -> list[bool]:
        """One operation per feature-set fit; a fit that raises is a failed one."""
        from senticast import metrics

        self.fits = {}
        for kind in FEATURE_SETS:
            try:
                self.fits[kind] = self.fit(kind)
            except Exception:
                traceback.print_exc()
        self.ranking = metrics.composite_rank([fit[6] for fit in self.fits.values()])
        return [kind in self.fits for kind in FEATURE_SETS]

    def after_round(self) -> None:
        self.mapes.append(tuple(self.fits[k][6].mape if k in self.fits else None for k in FEATURE_SETS))

    def op_metrics(self) -> dict[str, float]:
        """Count and self time of each autograd op over the first HLOVS steps.

        Wrapping every op slows a step several-fold, so these steps run
        apart from the timed rounds, on the same panels and settings.
        """
        import tracing
        from senticast import training, windows

        tracer = tracing.Tracer()
        tracer.round = 0
        train, _, _ = windows.build_windows(self.panels, windows.FeatureSetSpec("HLOVS"), 15, 3, 0.8)
        config = tft_config(self.seed, 1)
        with tracing.instrument(tracer, ops=True):
            training.train_model("tft_lite", train[: config.batch_size * self.OP_STEPS], config,
                                 loss="dmse", n_companies=len(self.panels))
        return tracing.op_metrics(tracer, self.OP_STEPS)

    def check(self) -> None:
        from senticast import losses, training
        from senticast.nn.autograd import zero_grads

        closes = {(f"C{c}", row[0]): row[5] for c, rows in enumerate(gen.latent_panel_rows(self.seed)) for row in rows}
        checks.expect(len(set(self.mapes)) == 1, f"MAPEs differ between rounds of one seed: {self.mapes}")
        checks.expect(len(self.ranking["ALL"]) == len(self.fits), "composite ranking does not cover every fit")
        for kind, (model, curve, train, test, norm, pred, record) in self.fits.items():
            checks.check_loss_curve(kind, curve)
            close_idx = norm.close_index
            truth, ours = [], []
            for w, p in zip(test, pred):
                ticker = norm.tickers[w.company_index]
                truth += [closes[(ticker, day)] for day in w.target_days]
                ours += list(p * norm.stds[w.company_index][close_idx] + norm.means[w.company_index][close_idx])
            checks.check_mape(truth, ours, record.mape)

            batch = training.stack_windows(train[:32])
            alpha = tft_config(self.seed, self.epochs).dmse_alpha

            def loss():
                out = model.forward_batch(batch.past, batch.known, batch.company, training=False)
                return out, losses.dmse_loss_batch(out, batch.target, batch.anchor, alpha)

            out, value = loss()
            checks.check_dmse(out.data, batch.target, batch.anchor, alpha, value.item())
            params = model.parameters()
            zero_grads(params)
            value.backward()
            base_weights = losses.directional_weights(batch.target, out.data, batch.anchor, alpha)
            checked = 0
            for p in (params[1], params[len(params) // 2], params[-3], params[-1]):
                for i in range(p.data.size):
                    h = 1e-6
                    saved = float(p.data.flat[i])
                    values = []
                    for x in (saved + h, saved - h):
                        p.data.flat[i] = x
                        o, v = loss()
                        same = np.array_equal(
                            losses.directional_weights(batch.target, o.data, batch.anchor, alpha), base_weights
                        )
                        values.append((v.item(), same))
                    p.data.flat[i] = saved
                    if all(same for _, same in values):  # no sign flip within +-h
                        numeric = (values[0][0] - values[1][0]) / (2 * h)
                        checks.check_gradient(f"{kind} {p.name}[{i}]", float(p.grad.flat[i]), numeric)
                        checked += 1
                        break
            checks.expect(checked >= 3, f"{kind}: only {checked} coordinates away from a direction flip")


# ---------------------------------------------------------------------------


class Ingest(Workload):
    """The CLI stages preprocess, features and analyze on a generated corpus."""

    name = "ingest"
    STAGES = ("preprocess", "features", "analyze")
    ops_per_round = len(STAGES)
    LAYERS = ("cli.preprocess_s", "cli.features_s", "cli.analyze_s", "text.*", "market.*", "analysis.*",
              "gc.*", "trace.*")
    spec = gen.INGEST_SPEC

    def setup(self, directory: Path, seed: int) -> None:
        truth = gen.write_corpus(directory, self.spec, seed)
        (directory / "truth.json").write_text(json.dumps({
            "noise": truth.noise,
            "weekend_or_holiday_posts": truth.weekend_or_holiday_posts,
            "business_days": [d.isoformat() for d in truth.business_days],
        }))

    def prepare(self, directory: Path, seed: int) -> None:
        self.dir = directory
        self.seed = seed
        self.config = str(directory / "config.cfg")
        self.digests: list[str] = []

    def run_round(self) -> list[bool]:
        from senticast import cli

        return [cli.main([stage, "--config", self.config]) == 0 for stage in self.STAGES]

    def after_round(self) -> None:
        self.digests.append(digest(self.dir / "out"))

    def check(self) -> None:
        out = self.dir / "out"
        truth = json.loads((self.dir / "truth.json").read_text())
        bdays = [date.fromisoformat(d) for d in truth["business_days"]]
        bday_set = set(bdays)
        checks.expect(len(set(self.digests)) == 1, "outputs differ between rounds")
        stats = json.loads((out / "preprocess" / "filter_stats.json").read_text())
        checks.check_filter_stats(stats, truth["noise"])
        meta = json.loads((out / "features" / "meta.json").read_text())
        checks.check_count("unlabeled tweets dropped", meta["unlabeled_dropped"], truth["noise"]["unlabeled"])

        _, kept = read_rows(out / "preprocess" / "tweets_clean.csv")
        off_days = sum(1 for row in kept if date.fromisoformat(row[2][:10]) not in bday_set)
        checks.check_count("weekend and holiday posts", off_days, truth["weekend_or_holiday_posts"])
        _, emb_rows = read_rows(self.dir / "embeddings.csv")
        vectors = {row[0]: [float(v) for v in row[1:]] for row in emb_rows}
        labeled = [(row[0], row[3], date.fromisoformat(row[2][:10]), int(row[5])) for row in kept if row[5]]
        expected = checks.daily_features(labeled, vectors, bdays)

        correlations = json.loads((out / "analyze" / "correlations.json").read_text())
        probes = json.loads((out / "analyze" / "probe.json").read_text())
        for idx, ticker in enumerate(self.spec.tickers):
            header, panel = read_rows(out / "features" / f"panel_{ticker}.csv")
            checks.check_count(f"{ticker} panel rows", len(panel), len(bdays))
            _, daily = read_rows(out / "features" / f"daily_text_{ticker}.csv")
            checks.check_daily_text(ticker, daily, expected)

            col = {name: np.array([float(r[i]) for r in panel]) for i, name in enumerate(header) if name != "date"}
            volatility = atr(col["high"], col["low"], col["close"], 14)
            names = correlations[ticker]["names"]
            checks.expect(names == ["close", "volume", "volatility", "sentiment_score"], f"{ticker}: columns {names}")
            checks.check_spearman(f"{ticker} smoothed", correlations[ticker]["smoothed"],
                                  [col["close"], ewma(col["volume"], 15), volatility, col["score"]])
            checks.check_spearman(f"{ticker} raw", correlations[ticker]["raw"],
                                  [col["close"], col["volume"], volatility, col["score_raw"]])

            with_vec = [r for r in daily if r[5]]
            X = np.array([[float(v) for v in r[5:]] for r in with_vec])
            y = np.array([float(r[4]) for r in with_vec])
            probe = probes[ticker]
            checks.check_probe(f"{ticker} embeddings", probe["r2_embeddings"], X, y)
            random = np.random.default_rng(self.seed + idx).standard_normal(X.shape)
            checks.check_probe(f"{ticker} random baseline", probe["r2_random"], random, y)


def ewma(x: np.ndarray, span: int) -> np.ndarray:
    alpha = 2.0 / (span + 1)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def atr(high: np.ndarray, low: np.ndarray, close: np.ndarray, n: int) -> np.ndarray:
    """Wilder ATR; the first value is the first bar's range."""
    prev = close[:-1]
    tr = np.maximum(high[1:], prev) - np.minimum(low[1:], prev)
    out = np.empty_like(high)
    out[0] = high[0] - low[0]
    for t in range(1, len(high)):
        out[t] = out[t - 1] * ((n - 1.0) / n) + tr[t - 1] * (1.0 / n)
    return out


# ---------------------------------------------------------------------------


class Forecast(Workload):
    """The CLI stages predict and evaluate for an HLOVE checkpoint."""

    name = "forecast"
    STAGES = ("predict", "evaluate")
    ops_per_round = len(STAGES)
    LAYERS = ("cli.predict_s", "cli.evaluate_s", "text.read_panel_s", "windows.*", "training.stack_windows_s",
              "training.predict_s", "nn.blocks.*.HLOVE", "nn.layers.*.HLOVE", "checkpoint.*", "metrics.*",
              "gc.*", "trace.*")

    def rows(self, seed: int):
        return gen.latent_panel_rows(seed, n_companies=8, length=1000)

    def setup(self, directory: Path, seed: int) -> None:
        from senticast import checkpoint, text, training, windows

        panels = gen.to_panels(self.rows(seed), "F")
        out = directory / "out"
        (out / "features").mkdir(parents=True)
        for panel in panels:
            text.write_panel_csv(out / "features" / f"panel_{panel.ticker}.csv", panel)
        tickers = [p.ticker for p in panels]
        (out / "features" / "meta.json").write_text(json.dumps({"tickers": tickers, "embedding_dim": 16}))
        (directory / "config.cfg").write_text(
            "paths.ohlcv_dir = ohlcv\npaths.tweets = tweets.csv\npaths.output = out\n"
            f"tickers = {','.join(tickers)}\nfeature_set = HLOVE\nseed = {seed}\n"
        )
        # A short fit on every 20th training window: enough to move the
        # weights off their initial values without a long set-up.
        spec = windows.FeatureSetSpec("HLOVE", 16)
        config = tft_config(seed, 1)
        train, _, norm = windows.build_windows(panels, spec, config.lookback, config.horizon, 0.8)
        model, _ = training.train_model("tft_lite", train[::20], config, loss="dmse", n_companies=len(panels))
        checkpoint.save_checkpoint(out / "train" / "checkpoint.json", model, config, spec, norm, len(panels))

    def prepare(self, directory: Path, seed: int) -> None:
        self.dir = directory
        self.seed = seed
        self.config = str(directory / "config.cfg")
        self.digests: list[str] = []

    def run_round(self) -> list[bool]:
        from senticast import cli

        return [cli.main([stage, "--config", self.config]) == 0 for stage in self.STAGES]

    def after_round(self) -> None:
        self.digests.append(digest(self.dir / "out" / "predict") + digest(self.dir / "out" / "evaluate"))

    def check(self) -> None:
        from senticast import checkpoint, text, training, windows

        out = self.dir / "out"
        checks.expect(len(set(self.digests)) == 1, "outputs differ between rounds")
        rows = self.rows(self.seed)
        closes = {f"F{c}": {r[0].isoformat(): r[5] for r in rs} for c, rs in enumerate(rows)}
        day_order = {f"F{c}": [r[0].isoformat() for r in rs] for c, rs in enumerate(rows)}
        _, model_rows = read_rows(out / "predict" / "predictions.csv")
        _, naive_rows = read_rows(out / "predict" / "predictions_naive.csv")
        checks.check_truth_column(model_rows, closes)
        checks.check_truth_column(naive_rows, closes)
        checks.check_naive(naive_rows, closes, day_order)

        grouped: dict[tuple[str, str], tuple[list, list]] = {}
        for label, body in (("tft_lite", model_rows), ("baseline", naive_rows)):
            for row in body:
                truths, preds = grouped.setdefault((row[1], label), ([], []))
                truths.append(float(row[3]))
                preds.append(float(row[4]))
        checks.check_metrics(json.loads((out / "evaluate" / "metrics.json").read_text()), grouped)

        ckpt_path = out / "train" / "checkpoint.json"
        ckpt = checkpoint.load_checkpoint(ckpt_path)
        model = checkpoint.restore_model(ckpt)
        resaved = self.dir / "resaved.json"
        checkpoint.save_checkpoint(resaved, model, ckpt.config, ckpt.feature_spec, ckpt.normalizer, ckpt.n_companies)
        checks.check_identical("restored checkpoint", resaved.read_bytes(), ckpt_path.read_bytes())

        panels = [text.read_panel_csv(out / "features" / f"panel_{t}.csv", t) for t in ckpt.normalizer.tickers]
        _, test = windows.windows_from_normalizer(
            panels, ckpt.feature_spec, ckpt.normalizer, ckpt.config.lookback, ckpt.config.horizon
        )
        whole = training.predict_windows(model, test, chunk=len(test))
        checks.check_chunking(training.predict_windows(model, test), whole)
        checks.check_chunking(training.predict_windows(model, test, chunk=97), whole)
        close_idx = ckpt.normalizer.close_index
        ours = np.concatenate([
            p * ckpt.normalizer.stds[w.company_index][close_idx] + ckpt.normalizer.means[w.company_index][close_idx]
            for w, p in zip(test, whole)
        ])
        checks.expect(
            checks.arrays_close([float(r[4]) for r in model_rows], ours, rel=1e-12),
            "predictions.csv differs from a single-chunk prediction",
        )


WORKLOADS = {w.name: w for w in (Compare, Ingest, Forecast)}
