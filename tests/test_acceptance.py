"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with plain pytest; the summary lines bypass output capture so they are
visible in normal runs.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    causal_mask,
    dmse_loss,
    dmse_oracle,
    latent_sentiment_panels,
    rmsnorm,
    spearman_oracle,
    tft_gradcheck_fixture,
)
from gradcheck import gradcheck

from senticast.analysis import ols_r2_probe, random_vector_baseline, spearman
from senticast.checkpoint import load_checkpoint, restore_model, save_checkpoint
from senticast.cli import EXIT_OK, main
from senticast.losses import dmse_loss_batch, directional_weights
from senticast.market import OhlcvBar, atr, smooth
from senticast.metrics import compute_metrics
from senticast.models import NLinear, TrainConfig
from senticast.nn import (
    GatedResidualNetwork,
    LstmEncoder,
    MultiHeadAttention,
    Parameter,
    SwigluFF,
    Tensor,
    VariableSelection,
)
from senticast.nn.autograd import attention
from senticast.nn.layers import Linear
from senticast.training import predict_windows, train_model
from senticast.windows import FeatureSetSpec, build_windows

FIXTURE_CONFIG = str(Path(__file__).parent / "fixtures" / "pipeline" / "config.cfg")


def finish(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_c01_metric_oracle(capsys):
    started = time.monotonic()
    rec = compute_metrics([100.0, 200.0], [110.0, 180.0])
    checks = {
        "mape": (rec.mape, 10.0),
        "mae": (rec.mae, 15.0),
        "mse": (rec.mse, 250.0),
        "rmse": (rec.rmse, 15.811388),
        "r2": (rec.r2, 0.9),
        "smape": (rec.smape, 10.025063),
    }
    bad = {k: got for k, (got, want) in checks.items() if abs(got - want) > 1e-6}
    elapsed = time.monotonic() - started
    finish(capsys, 1, "metric-oracle", not bad and elapsed < 1.0, f"{elapsed:.2f}s, deviations={bad}")


def test_c02_dmse_oracle_equivalence(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    alphas_seen = set()
    for _ in range(1000):
        h = int(rng.integers(1, 6))
        truth = rng.normal(size=h)
        pred = rng.normal(size=h)
        anchor = float(rng.normal())
        got = dmse_loss(pred, truth, anchor)
        want = dmse_oracle(pred, truth, anchor)
        worst = max(worst, abs(got - want))
        alphas_seen |= set(
            np.unique(directional_weights(truth, pred, np.asarray(anchor), 1e3)).tolist()
        )
    hand1 = dmse_loss([0.0], [2.0], anchor=1.0)
    hand2 = dmse_loss([1.5, 2.5], [1.0, 2.0], anchor=1.0)
    elapsed = time.monotonic() - started
    ok = worst <= 1e-12 and hand1 == 4000.0 and hand2 == 0.25 and alphas_seen == {1.0, 1e3}
    finish(
        capsys,
        2,
        "dmse-oracle",
        ok and elapsed < 5.0,
        f"max dev {worst:.1e}, hand=({hand1}, {hand2}), alphas={sorted(alphas_seen)}, {elapsed:.1f}s",
    )


def test_c03_gradient_checks(capsys):
    # CPU time of this process, so that a loaded machine cannot fail the bound.
    started = time.process_time()
    failures: list[str] = []
    worst = 0.0

    def run(name, fn, params):
        nonlocal worst
        report = gradcheck(fn, params, delta=1e-5, tol=1e-4)
        worst = max(worst, report.max_rel_err)
        if not report.passed:
            failures.append(f"{name}: {report.summary()}")

    for seed in range(10):
        rng = np.random.default_rng(seed)

        x = Parameter(rng.normal(size=6), "x")
        gain = Parameter(rng.normal(size=6), "gain")
        run(f"rmsnorm[{seed}]", lambda: (rmsnorm(x, gain) ** 2).sum(), [x, gain])

        for variant in ("swiglu", "relu"):
            ff = SwigluFF(4, 6, 3, variant, "ff", rng)
            xin = Parameter(rng.normal(size=(2, 4)), "xin")
            run(f"swiglu_{variant}[{seed}]", lambda: (ff(xin) ** 2).sum(), [xin] + ff.parameters())

        grn = GatedResidualNetwork(4, 6, 4, "grn", rng, d_context=3)
        gx = Parameter(rng.normal(size=(2, 4)), "gx")
        gctx = Parameter(rng.normal(size=(2, 3)), "gctx")
        coeff = Tensor(rng.normal(size=(2, 4)))
        run(f"grn[{seed}]", lambda: (grn(gx, gctx) * coeff).sum(), [gx, gctx] + grn.parameters())

        lstm = LstmEncoder(3, 4, 1, "lstm", rng)
        lx = Parameter(rng.normal(size=(2, 4, 3)), "lx")
        lcoeff = Tensor(rng.normal(size=(2, 4, 4)))
        run(f"lstm_encoder[{seed}]", lambda: (lstm(lx) * lcoeff).sum(), [lx] + lstm.parameters())

        mha = MultiHeadAttention(8, 2, "mha", rng)
        ax = Parameter(rng.normal(size=(2, 4, 8)), "ax")
        run(
            f"attention[{seed}]",
            lambda: (mha(ax, ax, ax, mask=causal_mask(4)) ** 2).sum(),
            [ax] + mha.parameters(),
        )

        q, k, v = (Parameter(rng.normal(size=(2, 4, 8)), name) for name in "qkv")
        qcoeff = Tensor(rng.normal(size=(2, 4, 8)))
        for mask in (None, causal_mask(4)):
            run(
                f"attention_op[{seed}, mask={mask is not None}]",
                lambda: (attention(q, k, v, mask, 2) * qcoeff).sum(),
                [q, k, v],
            )

        vsn = VariableSelection(3, 3, 4, "vsn", rng, d_context=4)
        vx = Parameter(rng.normal(size=(2, 3)), "vx")
        vproj = [Linear(1, 3, f"vproj{i}", rng) for i in range(3)]
        vctx = Parameter(rng.normal(size=(2, 4)), "vctx")

        def vsn_loss():
            combined, _ = vsn(vx, vproj, vctx)
            return (combined * combined).sum()

        run(f"vsn[{seed}]", vsn_loss, [vx, vctx] + [p for proj in vproj for p in proj.parameters()] + vsn.parameters())

        nlin = NLinear(6, 2, rng=rng, const_init=False)
        nx = Parameter(rng.normal(size=(2, 6)), "nx")
        ncoeff = Tensor(rng.normal(size=(2, 2)))
        run(
            f"nlinear[{seed}]",
            lambda: (nlin.forward(nx) * ncoeff).sum(),
            [nx] + nlin.parameters(),
        )

        model, past, known, company, truth, anchor = tft_gradcheck_fixture(seed)

        def tft_loss():
            pred = model.forward_batch(past, known, company, training=False)
            return dmse_loss_batch(pred, truth, anchor)

        report = gradcheck(
            tft_loss, model.parameters(), delta=1e-5, tol=1e-4, max_coords_per_param=48
        )
        worst = max(worst, report.max_rel_err)
        if not report.passed:
            failures.append(f"tft_dmse[{seed}]: {report.summary()}")

    elapsed = time.process_time() - started
    finish(
        capsys,
        3,
        "gradient-checks",
        not failures and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s CPU, failures={failures}",
    )


def test_c04_atr_closed_form(capsys):
    from datetime import date, timedelta

    first_range = 1.75
    day = date(2021, 1, 4)
    bars = [OhlcvBar(day, 5.0, 5.0 + first_range, 5.0, 5.0, 5.0, 1.0)]
    for _ in range(49):
        day += timedelta(days=1)
        while day.weekday() >= 5:
            day += timedelta(days=1)
        bars.append(OhlcvBar(day, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0))

    ok = True
    detail = ""
    for n in (2, 14):
        values = atr([b.high for b in bars], [b.low for b in bars], [b.close for b in bars], n)
        expected = first_range
        for t in range(50):
            if values[t] != expected:
                ok = False
                detail = f"n={n}, t={t}: {values[t]} != {expected}"
                break
            expected = expected * ((n - 1.0) / n)
        if not ok:
            break
    finish(capsys, 4, "atr-closed-form", ok, detail or "exact for n in {2, 14}, t <= 50")


def test_c05_ewma_vs_rolling_step_response(capsys):
    span = 15
    series = [1.0] * 40 + [0.0] * 15
    ewma = smooth(series, "ewma", span)
    rolling = smooth(series, "rolling_mean", span)
    offset = len(series) - len(rolling)
    ok = True
    for k in range(1, 11):
        idx = 40 + k - 1
        if not abs(ewma[idx]) < abs(rolling[idx - offset]):
            ok = False
            break
    finish(capsys, 5, "ewma-responsiveness", ok, "ewma error < rolling error for k=1..10")


def test_c06_spearman_oracle(capsys):
    rng = np.random.default_rng(13)
    worst = 0.0
    count = 0
    while count < 1000:
        n = int(rng.integers(3, 30))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.normal(size=n)
        y[rng.random(n) < 0.3] = 0.0
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        count += 1
        worst = max(worst, abs(spearman(x, y) - spearman_oracle(x, y)))
    fixture = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    fixture_ok = abs(fixture - 0.948683) <= 1e-6
    finish(
        capsys,
        6,
        "spearman-oracle",
        worst <= 1e-12 and fixture_ok,
        f"max dev {worst:.1e}, tied fixture {fixture:.6f}",
    )


def test_c07_probe_replication(capsys):
    started = time.monotonic()
    d, n = 32, 500
    chance = d / (n - 1)
    embed_r2 = []
    random_r2 = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = rng.normal(size=n)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        X = np.outer(s, u) + 0.3 * rng.normal(size=(n, d))
        embed_r2.append(ols_r2_probe(X, s))
        random_r2.append(ols_r2_probe(random_vector_baseline(n, d, seed=1000 + seed), s))
    elapsed = time.monotonic() - started
    min_embed = min(embed_r2)
    mean_random = float(np.mean(random_r2))
    ok = min_embed > 0.8 and abs(mean_random - chance) < 0.05 and elapsed < 30.0
    finish(
        capsys,
        7,
        "probe-replication",
        ok,
        f"embeddings R2 >= {min_embed:.3f}, random mean {mean_random:.4f} vs chance {chance:.4f}, {elapsed:.1f}s",
    )


def test_c08_nlinear_convergence(capsys):
    from datetime import date, timedelta

    from senticast.text import AlignedPanel, PanelRow

    started = time.monotonic()
    rng = np.random.default_rng(0)
    T = 200
    closes = 2.0 * np.arange(1, T + 1) + rng.normal(0, 0.01, T)
    day = date(2020, 1, 6)
    rows = []
    for c in closes:
        while day.weekday() >= 5:
            day += timedelta(days=1)
        rows.append(PanelRow(day, c * 1.01, c * 0.99, c, 1000.0, c, 0.0, 0.0, None, 0, day.weekday()))
        day += timedelta(days=1)
    panel = AlignedPanel("LIN", rows, 0)

    train, test, norm = build_windows([panel], FeatureSetSpec("HLOV"), 15, 3, 0.8)
    model, _ = train_model("nlinear", train, TrainConfig(epochs=200, seed=0), loss="dmse")
    pred = predict_windows(model, test)
    truths = np.concatenate([norm.denormalize_close(0, w.target) for w in test])
    preds = np.concatenate([norm.denormalize_close(0, p) for p in pred])
    mape = 100.0 * float(np.mean(np.abs((truths - preds) / truths)))
    elapsed = time.monotonic() - started
    finish(capsys, 8, "nlinear-convergence", mape < 1.0 and elapsed < 30.0, f"test MAPE {mape:.3f}%, {elapsed:.1f}s")


def run_feature_set(panels, kind: str, seed: int) -> float:
    spec = FeatureSetSpec(kind, embedding_dim=panels[0].embedding_dim if kind == "HLOVE" else 0)
    cfg = TrainConfig(
        hidden_size=16,
        n_heads=4,
        hidden_continuous_size=8,
        dropout=0.0,
        epochs=30,
        seed=seed,
        batch_size=32,
    )
    train, test, norm = build_windows(panels, spec, 15, 3, 0.8)
    model, _ = train_model("tft_lite", train, cfg, loss="dmse", n_companies=len(panels))
    pred = predict_windows(model, test)
    truths = np.concatenate([norm.denormalize_close(w.company_index, w.target) for w in test])
    preds = np.concatenate(
        [norm.denormalize_close(w.company_index, p) for w, p in zip(test, pred)]
    )
    return 100.0 * float(np.mean(np.abs((truths - preds) / truths)))


def test_c09_sentiment_features_beat_market_only(capsys):
    started = time.monotonic()
    sentiment_wins = 0
    embedding_not_better = 0
    rows = []
    for seed in range(10):
        panels = latent_sentiment_panels(seed)
        mapes = {kind: run_feature_set(panels, kind, seed) for kind in ("HLOV", "HLOVS", "HLOVE")}
        sentiment_wins += mapes["HLOVS"] < mapes["HLOV"]
        embedding_not_better += mapes["HLOVS"] <= mapes["HLOVE"]
        rows.append(f"seed {seed}: " + " ".join(f"{k}={v:.2f}" for k, v in mapes.items()))
    elapsed = time.monotonic() - started
    ok = sentiment_wins >= 7 and embedding_not_better >= 6 and elapsed < 900.0
    finish(
        capsys,
        9,
        "sentiment-vs-embeddings",
        ok,
        f"HLOVS<HLOV on {sentiment_wins}/10, HLOVS<=HLOVE on {embedding_not_better}/10, {elapsed:.0f}s",
    )


def test_c10_end_to_end_determinism(tmp_path, capsys):
    def pipeline(out: Path) -> None:
        for command in ("preprocess", "features", "analyze", "train", "predict", "evaluate", "report"):
            code = main([command, "--config", FIXTURE_CONFIG, "--output", str(out)])
            assert code == EXIT_OK, command

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    pipeline(out_a)
    pipeline(out_b)

    metrics_identical = (out_a / "evaluate" / "metrics.json").read_bytes() == (
        out_b / "evaluate" / "metrics.json"
    ).read_bytes()

    ckpt_path = out_a / "train" / "checkpoint.json"
    checkpoint = load_checkpoint(ckpt_path)
    model = restore_model(checkpoint)
    resaved = tmp_path / "resaved.json"
    save_checkpoint(
        resaved,
        model,
        checkpoint.config,
        checkpoint.feature_spec,
        checkpoint.normalizer,
        checkpoint.n_companies,
    )
    round_trip_exact = resaved.read_bytes() == ckpt_path.read_bytes()

    finish(
        capsys,
        10,
        "end-to-end-determinism",
        metrics_identical and round_trip_exact,
        f"metrics identical={metrics_identical}, checkpoint round-trip exact={round_trip_exact}",
    )
