from __future__ import annotations

import os
import platform
import subprocess
import sys
import tracemalloc
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import latent_sentiment_panels
from senticast import training
from senticast.checkpoint import load_checkpoint, restore_model, save_checkpoint
from senticast.errors import ConfigError, ValidationError
from senticast.losses import dmse_loss_batch
from senticast.models import TrainConfig
from senticast.nn import zero_grads
from senticast.text import AlignedPanel, PanelRow
from senticast.training import (
    _validation_split,
    build_model,
    grid_search,
    predict_windows,
    stack_windows,
    train_model,
)
from senticast.windows import FeatureSetSpec, build_windows


def panel_from_closes(ticker: str, closes, score=None) -> AlignedPanel:
    day = date(2020, 1, 6)
    rows = []
    for i, c in enumerate(closes):
        while day.weekday() >= 5:
            day += timedelta(days=1)
        s = 0.0 if score is None else float(score[i])
        rows.append(
            PanelRow(day, c * 1.01, c * 0.99, c, 1000.0, c, s, s, None, 0, day.weekday())
        )
        day += timedelta(days=1)
    return AlignedPanel(ticker, rows, 0)


def linear_panel(T=120, seed=0) -> AlignedPanel:
    rng = np.random.default_rng(seed)
    closes = 2.0 * np.arange(1, T + 1) + rng.normal(0, 0.01, T)
    return panel_from_closes("LIN", closes.tolist())


class TestTrainModel:
    def test_zero_epochs_returns_initialization(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        cfg = TrainConfig(epochs=0, seed=3)
        model, curve = train_model("nlinear", train, cfg)
        assert curve == []
        assert np.allclose(model.weight.data, 1.0 / 15)  # const_init untouched
        assert np.array_equal(model.bias.data, np.zeros(3))

    def test_identical_seeds_give_bitwise_identical_curves(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        cfg = TrainConfig(
            epochs=3, seed=11, hidden_size=8, n_heads=2, hidden_continuous_size=4, dropout=0.1
        )
        _, curve_a = train_model("tft_lite", train, cfg)
        _, curve_b = train_model("tft_lite", train, cfg)
        assert curve_a == curve_b

    def test_different_seeds_differ(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        a = train_model("nlinear", train, TrainConfig(epochs=2, seed=1, nlinear_const_init=False))[1]
        b = train_model("nlinear", train, TrainConfig(epochs=2, seed=2, nlinear_const_init=False))[1]
        assert a != b

    def test_training_reduces_loss_tenfold(self):
        train, _, _ = build_windows([linear_panel(T=200)], FeatureSetSpec("HLOV"), 15, 3, 0.8)
        model, curve = train_model("nlinear", train, TrainConfig(epochs=200, seed=0))
        assert curve[-1] * 10 <= curve[0]

    def test_unknown_loss_rejected(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        with pytest.raises(ConfigError):
            train_model("nlinear", train, TrainConfig(epochs=1), loss="huber")

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValidationError):
            train_model("nlinear", [], TrainConfig(epochs=1))

    def test_unknown_model_kind_rejected(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        with pytest.raises(ConfigError):
            train_model("transformer", train, TrainConfig(epochs=1))

    def test_stack_windows_shapes(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOVS"), 15, 3, 1.0)
        arrays = stack_windows(train)
        assert arrays.past.shape == (len(train), 15, 6)
        assert arrays.known.shape == (len(train), 3, 6)
        assert arrays.target.shape == (len(train), 3)
        assert arrays.anchor.shape == (len(train),)

    def test_predict_windows_chunks_consistently(self):
        train, test, _ = build_windows([linear_panel(T=200)], FeatureSetSpec("HLOV"), 15, 3, 0.8)
        model, _ = train_model("nlinear", train, TrainConfig(epochs=5, seed=0))
        small = predict_windows(model, test, chunk=7)
        large = predict_windows(model, test, chunk=512)
        assert np.array_equal(small, large)

    def test_trained_model_gradients_match_its_restored_checkpoint(self, tmp_path):
        # The benchmark's gradient check clears and recomputes a trained model's gradients.
        closes = 50.0 + np.cumsum(np.random.default_rng(4).normal(0, 1.0, 120))
        panels = [linear_panel(), panel_from_closes("WLK", closes.tolist(), score=np.sin(closes))]
        spec = FeatureSetSpec("HLOVS")
        train, _, normalizer = build_windows(panels, spec, 15, 3, 1.0)
        cfg = TrainConfig(epochs=2, seed=5, hidden_size=8, n_heads=2, hidden_continuous_size=4, dropout=0.1)
        model, _ = train_model("tft_lite", train, cfg, n_companies=2)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model, cfg, spec, normalizer, n_companies=2)
        restored = restore_model(load_checkpoint(path))
        batch = train[:32]
        grads = []
        for m in (model, restored):
            params = m.parameters()
            zero_grads(params)
            out = m.forward_batch(batch.past, batch.known, batch.company, training=False)
            dmse_loss_batch(out, batch.target, batch.anchor, cfg.dmse_alpha).backward()
            grads.append([p.grad for p in params])
        assert len(grads[0]) == len(grads[1])
        for a, b in zip(*grads):
            assert np.array_equal(a, b)


def c09_hlove():
    """The benchmark's c09 HLOVE fit: its training windows and its model settings, at one epoch."""
    train, _, _ = build_windows(latent_sentiment_panels(0), FeatureSetSpec("HLOVE", 16), 15, 3, 0.8)
    cfg = TrainConfig(hidden_size=16, n_heads=4, hidden_continuous_size=8, dropout=0.0, epochs=1, seed=0, batch_size=32)
    return train, cfg


def graph_nodes(root) -> int:
    """Tensors reachable from root through the engine's parent links, leaves included."""
    seen, stack = {id(root)}, [root]
    while stack:
        for child in stack.pop()._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


class TestTrainingStepFootprint:
    def test_hlove_fit_peak_memory(self):
        # One step's graph at a time: 9.7 MiB of traced allocations over
        # the fit.  Keeping the previous step's graph alive while the next
        # is built measured 14.3 MiB; with a graph node per variable GRN
        # as well, 23.0 MiB.
        train, cfg = c09_hlove()
        train_model("tft_lite", train[:64], cfg)  # first-call allocations stay out of the figure
        tracemalloc.start()
        try:
            train_model("tft_lite", train, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"{peak / 2**20:.2f} MiB against 12 MiB"

    def test_hlove_step_graph_nodes(self):
        # Variable selection is three ops (embedding, flat GRN, mixture of
        # the per-variable GRNs) whatever the number of inputs.
        train, cfg = c09_hlove()
        model = build_model("tft_lite", cfg, train.rows.shape[1], 2, np.random.default_rng(0))
        batch = train[np.arange(cfg.batch_size)]
        pred = model.forward_batch(
            batch.past, batch.known, batch.company, training=True, rng=np.random.default_rng(1),
            past_rows=batch.past_rows,
        )
        assert graph_nodes(dmse_loss_batch(pred, batch.target, batch.anchor, cfg.dmse_alpha)) <= 242


def second_call_minor_faults(setup: str, call: str) -> int:
    """Minor page faults of the second of two `call`s after `setup`, in a fresh interpreter.

    A fresh process, so that the allocator's state owes nothing to the tests run before.
    """
    tests = Path(__file__).resolve().parent
    code = "\n".join([
        "import resource", setup, call,
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt", call,
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return int(out.stdout)


FORECAST_CHUNK = """
import numpy as np
from senticast.models import TftLite, TrainConfig
from senticast.training import predict_windows
from senticast.windows import Windows
rng = np.random.default_rng(0)
company = np.repeat(np.arange(8), 64)
ends = company * 81 + np.tile(np.arange(14, 78), 8)
windows = Windows(rng.normal(size=(648, 21)), np.zeros((648, 6)), np.zeros(648), ends, company, 15, 3)
model = TftLite(TrainConfig(hidden_size=16, n_heads=4, hidden_continuous_size=8, dropout=0.0), 21, 8, rng)
"""

C09_FIT = """
from dataclasses import replace
from test_training import c09_hlove
from senticast.training import train_model
train, cfg = c09_hlove()
cfg = replace(cfg, epochs=3)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting is glibc's mallopt")
class TestFreedMemoryStaysMapped:
    # Without the allocator setting, glibc unmaps or trims what a chunk or a
    # step frees and the next one faults it back in: 999 faults for the
    # forecast chunk and 8.6k-11.8k for the fit, against 11 and 0-7.
    def test_forecast_chunk(self):
        faults = second_call_minor_faults(FORECAST_CHUNK, "predict_windows(model, windows)")
        assert faults <= 200, f"{faults} minor faults in a 512-window forecast"

    def test_c09_hlove_fit(self):
        faults = second_call_minor_faults(C09_FIT, 'train_model("tft_lite", train, cfg)')
        assert faults <= 2000, f"{faults} minor faults in a 3-epoch HLOVE fit"


class TestAllocatorSetting:
    @pytest.fixture
    def libc(self, monkeypatch):
        """Stands in for the C library; the setting is made again on the first call after the test."""
        def load(**symbols):
            monkeypatch.setattr(training.ctypes, "CDLL", lambda name: SimpleNamespace(**symbols))
            training._keep_freed_memory_mapped.cache_clear()
        yield load
        training._keep_freed_memory_mapped.cache_clear()

    def fit(self):
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        return train_model("nlinear", train, TrainConfig(epochs=1, seed=0))

    def test_runs_without_mallopt(self, libc):
        libc()
        model, curve = self.fit()
        assert len(curve) == 1 and np.isfinite(curve[0])

    @pytest.mark.parametrize("accepted, calls", [(1, 2), (0, 1)])
    def test_set_once_per_process(self, libc, accepted, calls):
        made = []

        def mallopt(param, value):
            made.append((param, value))
            return accepted

        libc(mallopt=mallopt)
        model, _ = self.fit()
        self.fit()
        train, _, _ = build_windows([linear_panel()], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        predict_windows(model, train)
        assert made == [(training.M_MMAP_THRESHOLD, 32 * 2**20), (training.M_TRIM_THRESHOLD, 64 * 2**20)][:calls]


class TestGridSearch:
    def make_seasonal_panel(self):
        rng = np.random.default_rng(3)
        pattern = rng.uniform(-1, 1, 12)
        T = 160
        series = 50 + 10 * np.tile(pattern, T // 12 + 2)[:T] + rng.normal(0, 0.02, T)
        return panel_from_closes("SEAS", series.tolist())

    def test_singleton_grid_returns_that_config(self):
        panel = linear_panel(T=100)
        result = grid_search(
            {"lookback": [10]},
            [panel],
            FeatureSetSpec("HLOV"),
            0.25,
            base_config=TrainConfig(epochs=5, seed=0),
            model_kind="nlinear",
        )
        assert result.best.overrides == {"lookback": 10}
        assert len(result.leaderboard) == 1

    def test_two_by_one_grid_has_two_rows(self):
        panel = linear_panel(T=100)
        result = grid_search(
            {"lookback": [5, 10], "batch_size": [16]},
            [panel],
            FeatureSetSpec("HLOV"),
            0.25,
            base_config=TrainConfig(epochs=3, seed=0),
            model_kind="nlinear",
        )
        assert len(result.leaderboard) == 2
        assert all(p.status == "ok" for p in result.leaderboard)

    def test_periodic_series_requires_long_lookback(self):
        # A 12-day repeating pattern admits an exact linear predictor only
        # when the window reaches the value twelve steps back.
        panel = self.make_seasonal_panel()
        base = TrainConfig(epochs=150, seed=1, learning_rate=3e-3)
        result = grid_search(
            {"lookback": [5, 15]},
            [panel],
            FeatureSetSpec("HLOV"),
            0.25,
            base_config=base,
            model_kind="nlinear",
            split=0.9,
            loss="mse",
        )
        assert result.best.overrides == {"lookback": 15}
        by_lookback = {p.overrides["lookback"]: p.val_mape for p in result.leaderboard}
        assert by_lookback[15] < by_lookback[5]

    def test_invalid_grid_point_marked_failed_not_fatal(self):
        panel = linear_panel(T=100)
        result = grid_search(
            {"lookback": [10, 95]},  # 95 leaves no room for windows
            [panel],
            FeatureSetSpec("HLOV"),
            0.25,
            base_config=TrainConfig(epochs=2, seed=0),
            model_kind="nlinear",
        )
        statuses = {p.overrides["lookback"]: p.status for p in result.leaderboard}
        assert statuses[10] == "ok"
        assert statuses[95].startswith("failed")
        assert result.best.overrides == {"lookback": 10}

    def test_model_key_varies_model_kind(self):
        panel = linear_panel(T=100)
        result = grid_search(
            {"model": ["nlinear"], "lookback": [10]},
            [panel],
            FeatureSetSpec("HLOV"),
            0.25,
            base_config=TrainConfig(epochs=2, seed=0),
        )
        assert result.best.model_kind == "nlinear"

    def test_empty_space_rejected(self):
        with pytest.raises(ValidationError):
            grid_search({}, [linear_panel()], FeatureSetSpec("HLOV"), 0.25)


class TestValidationSplit:
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_per_company_tail_split(self, shuffled):
        panels = [linear_panel(T=90, seed=1), panel_from_closes("TWO", (5.0 + np.arange(70)).tolist())]
        train, _, _ = build_windows(panels, FeatureSetSpec("HLOV"), 15, 3, 0.8)
        if shuffled:
            train = train[np.random.default_rng(0).permutation(len(train))]
        fit, val = _validation_split(train, 0.25)

        # Reference: group window positions by company, cut each group's tail.
        by_company: dict[int, list[int]] = {}
        for k, company in enumerate(train.company.tolist()):
            by_company.setdefault(company, []).append(k)
        want_fit, want_val = [], []
        for company in sorted(by_company):
            group = by_company[company]
            n_val = max(1, int(round(0.25 * len(group))))
            want_fit += group[: len(group) - n_val]
            want_val += group[len(group) - n_val :]
        assert np.array_equal(fit.ends, train.ends[want_fit])
        assert np.array_equal(val.ends, train.ends[want_val])
        assert np.array_equal(val.company, train.company[want_val])

    def test_fraction_leaving_no_fit_windows_rejected(self):
        train, _, _ = build_windows([linear_panel(T=30)], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        with pytest.raises(ValidationError, match="company 0"):
            _validation_split(train[:1], 0.25)

    def test_empty_set_rejected(self):
        train, _, _ = build_windows([linear_panel(T=30)], FeatureSetSpec("HLOV"), 15, 3, 1.0)
        with pytest.raises(ValidationError):
            _validation_split(train[:0], 0.25)
