from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import INVALID_TRAIN_CASES, INVALID_TRAIN_IDS, causal_mask, vsn_composed
from gradcheck import gradcheck
from senticast.errors import ConfigError, ShapeError
from senticast.models import NLinear, TftLite, TrainConfig
from senticast.nn import Tensor, no_grad
from senticast.windows import CLOSE_COLUMN


class TestTrainConfig:
    def test_defaults_follow_tuned_grid(self):
        cfg = TrainConfig()
        assert cfg.lookback == 15
        assert cfg.hidden_size == 64
        assert cfg.lstm_layers == 1
        assert cfg.n_heads == 4
        assert cfg.feed_forward == "swiglu"
        assert cfg.dropout == 0.25
        assert cfg.hidden_continuous_size == 32
        assert cfg.norm_type == "rmsnorm"
        assert cfg.batch_size == 32
        cfg.validate()

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            TrainConfig(hidden_size=30, n_heads=4).validate()

    def test_optimizer_field_is_gone(self):
        # Adam is the only optimizer, so a train config that names one is refused.
        with pytest.raises(ConfigError, match="optimizer"):
            TrainConfig.from_dict({"optimizer": "adam"})

    def test_round_trip(self):
        cfg = TrainConfig(hidden_size=16, n_heads=2, dropout=0.1)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"hidden": 4})

    @pytest.mark.parametrize("name, raw", INVALID_TRAIN_CASES, ids=INVALID_TRAIN_IDS)
    def test_out_of_range_value_rejected(self, name, raw):
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: float(raw)}).validate()


class TestNLinear:
    def test_const_init_on_constant_window_is_identity(self):
        model = NLinear(5, 3, rng=np.random.default_rng(0), const_init=True)
        out = model.forward(Tensor(np.full((2, 5), 7.0)))
        assert np.allclose(out.data, 7.0, atol=1e-12)

    def test_const_init_hand_case(self):
        # (x - x_L) averaged + x_L: mean([-2,-1,0]) + 3 = 2
        model = NLinear(3, 1, rng=np.random.default_rng(0), const_init=True)
        assert model.forward(Tensor([[1.0, 2.0, 3.0]])).data[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(1)
        model = NLinear(8, 3, rng=rng, const_init=False)
        x = rng.normal(size=(4, 8))
        base = model.forward(Tensor(x)).data
        for _ in range(5):
            c = float(rng.normal() * 10)
            shifted = model.forward(Tensor(x + c)).data
            assert np.allclose(shifted, base + c, rtol=1e-12, atol=1e-10)

    def test_wrong_window_length(self):
        model = NLinear(5, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            model.forward(Tensor(np.ones((1, 4))))

    def test_forward_batch_uses_close_channel_only(self):
        model = NLinear(5, 2, rng=np.random.default_rng(0))
        past = np.zeros((3, 5, CLOSE_COLUMN + 2))
        past[:, :, CLOSE_COLUMN] = 9.0
        out = model.forward_batch(past, np.zeros((3, 2, 6)), np.zeros(3, dtype=int))
        assert np.allclose(out.data, 9.0, atol=1e-12)


def tiny_config(**kwargs) -> TrainConfig:
    base = dict(
        lookback=6,
        horizon=2,
        hidden_size=8,
        n_heads=2,
        hidden_continuous_size=4,
        dropout=0.25,
        epochs=1,
        seed=0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


def tiny_batch(rng, batch=3, lookback=6, features=4, horizon=2):
    past = rng.normal(size=(batch, lookback, features))
    known = np.zeros((batch, horizon, 6))
    known[:, :, 1] = 1.0
    company = rng.integers(0, 2, size=batch)
    return past, known, company


class TestTftLite:
    def test_output_length_matches_horizon(self):
        for horizon in (1, 3, 5):
            cfg = tiny_config(horizon=horizon)
            model = TftLite(cfg, n_features=4, n_companies=2, rng=np.random.default_rng(0))
            past, known, company = tiny_batch(np.random.default_rng(1), horizon=horizon)
            out = model.forward_batch(past, known, company)
            assert out.shape == (3, horizon)

    def test_all_zero_parameters_output_head_bias(self):
        cfg = tiny_config(dropout=0.0)
        model = TftLite(cfg, n_features=4, n_companies=2, rng=np.random.default_rng(0))
        for p in model.parameters():
            p.data[...] = 0.0
        past, known, company = tiny_batch(np.random.default_rng(2))
        out = model.forward_batch(past, known, company)
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_parameter_names_and_order(self):
        # Checkpoints store parameters by these names, in this order.
        cfg = TrainConfig(lookback=6, horizon=2, hidden_size=8, n_heads=2, hidden_continuous_size=4, lstm_layers=2)
        model = TftLite(cfg, n_features=2, n_companies=2, rng=np.random.default_rng(0))
        grn = ["fc1.weight", "fc1.bias", "gate.weight", "gate.bias", "skip.weight", "norm.gain"]
        expected = (
            ["tft.static.embedding"]
            + [f"tft.varproj{i}.{p}" for i in range(2) for p in ("weight", "bias")]
            + ["tft.vsn.flat.fc1.weight", "tft.vsn.flat.fc1.bias", "tft.vsn.flat.ctx.weight"]
            + ["tft.vsn.flat.gate.weight", "tft.vsn.flat.gate.bias", "tft.vsn.flat.skip.weight", "tft.vsn.flat.norm.gain"]
            + [f"tft.vsn.var{i}.{p}" for i in range(2) for p in grn]
            + [f"tft.lstm.layer{i}.{p}" for i in range(2) for p in ("wx.weight", "wx.bias", "wh.weight")]
            + ["tft.enrich.fc1.weight", "tft.enrich.fc1.bias", "tft.enrich.ctx.weight"]
            + ["tft.enrich.gate.weight", "tft.enrich.gate.bias", "tft.enrich.norm.gain"]
            + ["tft.attn.q.weight", "tft.attn.q.bias", "tft.attn.k.weight", "tft.attn.v.weight", "tft.attn.v.bias"]
            + ["tft.attn.out.weight", "tft.attn.out.bias"]
            + ["tft.posff.ff.w1", "tft.posff.ff.w2", "tft.posff.ff.w3"]
            + ["tft.posff.gate.weight", "tft.posff.gate.bias", "tft.posff.norm.gain"]
            + ["tft.head.weight", "tft.head.bias"]
        )
        assert [p.name for p in model.parameters()] == expected

    def test_eval_forward_is_deterministic(self):
        cfg = tiny_config()
        model = TftLite(cfg, n_features=4, n_companies=2, rng=np.random.default_rng(0))
        past, known, company = tiny_batch(np.random.default_rng(3))
        a = model.forward_batch(past, known, company).data
        b = model.forward_batch(past, known, company).data
        assert np.array_equal(a, b)

    def test_train_mode_dropout_is_seed_deterministic(self):
        cfg = tiny_config()
        model = TftLite(cfg, n_features=4, n_companies=2, rng=np.random.default_rng(0))
        past, known, company = tiny_batch(np.random.default_rng(4))
        a = model.forward_batch(past, known, company, training=True, rng=np.random.default_rng(9)).data
        b = model.forward_batch(past, known, company, training=True, rng=np.random.default_rng(9)).data
        c = model.forward_batch(past, known, company, training=True, rng=np.random.default_rng(10)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_feature_count_mismatch_rejected(self):
        cfg = tiny_config()
        model = TftLite(cfg, n_features=4, n_companies=2, rng=np.random.default_rng(0))
        past, known, company = tiny_batch(np.random.default_rng(6), features=5)
        with pytest.raises(ShapeError):
            model.forward_batch(past, known, company)

    def test_layernorm_variant_runs(self):
        cfg = tiny_config(norm_type="layernorm", feed_forward="relu")
        model = TftLite(cfg, n_features=3, n_companies=1, rng=np.random.default_rng(0))
        past = np.random.default_rng(7).normal(size=(2, 6, 3))
        known = np.zeros((2, 2, 6))
        out = model.forward_batch(past, known, np.zeros(2, dtype=int))
        assert np.isfinite(out.data).all()


class FullCausalAttention:
    """Attends from every position under the causal mask and keeps the last row: the full-sequence oracle."""

    def __init__(self, mha):
        self.mha = mha

    def __call__(self, queries, keys, values):
        steps = keys.shape[1]
        return self.mha(keys, keys, values, mask=causal_mask(steps))[:, steps - 1 : steps, :]


FEATURE_COUNTS = {"HLOV": 5, "HLOVS": 6, "HLOVE": 21}


class TestTftLiteAttention:
    @pytest.mark.parametrize("kind", FEATURE_COUNTS)
    @pytest.mark.parametrize(
        "overrides", [{}, {"lstm_layers": 2}, {"norm_type": "layernorm"}], ids=["defaults", "lstm2", "layernorm"]
    )
    def test_last_query_matches_full_causal_forward(self, kind, overrides):
        cfg = TrainConfig(**overrides)
        rng = np.random.default_rng(31)
        model = TftLite(cfg, n_features=FEATURE_COUNTS[kind], n_companies=3, rng=rng)
        past = rng.normal(size=(8, cfg.lookback, FEATURE_COUNTS[kind]))
        known = rng.normal(size=(8, cfg.horizon, 6))
        company = np.arange(8) % 3
        last = model.forward_batch(past, known, company).data
        model.attention = FullCausalAttention(model.attention)
        full = model.forward_batch(past, known, company).data
        assert np.max(np.abs(last - full)) <= 1e-12 * np.max(np.abs(full))

    def test_no_grad_forward_peak_memory(self):
        # One forecast chunk: 512 HLOVE windows (7,680 rows) under no_grad,
        # at the benchmark's model size.  With every row distinct, 27 MiB of
        # traced allocations.  Stride-1 windows over 8 companies share their
        # rows (624 distinct), so the selector runs on 8% of the rows: about
        # 10 MiB, and 13 MiB at most.
        cfg = TrainConfig(hidden_size=16, n_heads=4, hidden_continuous_size=8, dropout=0.0)
        rng = np.random.default_rng(0)
        model = TftLite(cfg, n_features=21, n_companies=8, rng=rng)
        cases = [
            (rng.normal(size=(512, 15, 21)), np.arange(512) % 8, None, 27),
            (*stride1_windows(rng.normal(size=(8, 78, 21)), 15), 13),
        ]
        known = np.zeros((512, 3, 6))
        for past, company, past_rows, bound in cases:
            with no_grad():
                # first-call allocations stay out of the figure
                model.forward_batch(past, known, company, past_rows=past_rows)
                tracemalloc.start()
                try:
                    model.forward_batch(past, known, company, past_rows=past_rows)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= bound * 2**20, f"{peak / 2**20:.2f} MiB against {bound} MiB"


def stride1_windows(series: np.ndarray, lookback: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stride-1 window over each company's (days, features) rows; neighbours share lookback - 1 rows.

    Returns the (windows, lookback, features) past arrays, each window's
    company, and the (windows, lookback) index of each step's row in the
    companies' rows stacked end to end.
    """
    n_companies, days, features = series.shape
    company = np.repeat(np.arange(n_companies), days - lookback + 1)
    ends = np.tile(np.arange(lookback - 1, days), n_companies)
    past_rows = (company * days + ends)[:, None] + np.arange(1 - lookback, 1)
    return series.reshape(-1, features)[past_rows], company, past_rows


class Recorder:
    """Stands in for a block: keeps the array of each first argument, then runs `forward`."""

    def __init__(self, forward):
        self.forward = forward
        self.inputs: list[np.ndarray] = []

    def __call__(self, x, *args, **kwargs):
        self.inputs.append(x.data)
        return self.forward(x, *args, **kwargs)

    @property
    def rows(self) -> list[int]:
        return [len(x) for x in self.inputs]


class TestTftLiteRowSharing:
    """Windows that hold the same panel row run its variable selection once."""

    @staticmethod
    def shared_rows_batch():
        # Three companies; company 1 repeats one of company 0's rows, and
        # company 2 holds one row twice, at days 2 and 7.
        rng = np.random.default_rng(41)
        series = rng.normal(size=(3, 10, 4))
        series[1, 3] = series[0, 3]
        series[2, 7] = series[2, 2]
        past, company, past_rows = stride1_windows(series, 6)
        return past, rng.normal(size=(15, 2, 6)), company, past_rows

    def test_matches_the_per_row_oracle(self):
        past, known, company, past_rows = self.shared_rows_batch()
        model = TftLite(tiny_config(), n_features=4, n_companies=3, rng=np.random.default_rng(0))
        distinct = len(np.unique(past_rows))
        assert distinct == 30 < past.shape[0] * past.shape[1]  # each company's 10 days, once each
        selector, encoder = model.selector, model.encoder

        model.selector, model.encoder = Recorder(selector), Recorder(encoder)
        shared = model.forward_batch(past, known, company, past_rows=past_rows).data
        assert model.selector.rows == [distinct]
        shared_rows = model.encoder.inputs[0]

        def per_row(x, projections, context, training=False, rng=None):
            return vsn_composed(selector, x, projections, context, training=training, rng=rng)

        model.selector, model.encoder = Recorder(per_row), Recorder(encoder)
        oracle = model.forward_batch(past, known, company).data
        assert model.selector.rows == [past.shape[0] * past.shape[1]]
        oracle_rows = model.encoder.inputs[0]

        row_err = np.abs(shared_rows - oracle_rows).max(axis=-1) / np.abs(oracle_rows).max(axis=-1)
        assert row_err.max() <= 1e-12
        assert np.max(np.abs(shared - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_byte_equal_rows_at_two_indices_each_run_once(self):
        # Company 2's days 2 and 7 hold the same bytes, and company 1's day 3
        # those of company 0: they are four rows, each run once.
        past, known, company, past_rows = self.shared_rows_batch()
        model = TftLite(tiny_config(), n_features=4, n_companies=3, rng=np.random.default_rng(0))
        model.selector = Recorder(model.selector)
        model.forward_batch(past, known, company, past_rows=past_rows)
        assert len(np.unique(past.reshape(-1, 4), axis=0)) == 28
        assert model.selector.rows == [len(np.unique(past_rows))] == [30]

    def test_all_distinct_rows_run_in_batch_order(self):
        rng = np.random.default_rng(42)
        past, known, company = tiny_batch(rng, batch=4, features=5)
        past_rows = np.arange(4 * 6).reshape(4, 6)
        model = TftLite(tiny_config(), n_features=5, n_companies=2, rng=np.random.default_rng(0))
        model.selector = Recorder(model.selector)
        keyed = model.forward_batch(past, known, company, past_rows=past_rows).data
        unkeyed = model.forward_batch(past, known, company).data
        assert model.selector.rows == [24, 24]
        assert np.array_equal(model.selector.inputs[0], past.reshape(24, 5))
        assert np.array_equal(keyed, unkeyed)

    def test_past_rows_must_match_the_batch(self):
        past, known, company, past_rows = self.shared_rows_batch()
        model = TftLite(tiny_config(), n_features=4, n_companies=3, rng=np.random.default_rng(0))
        for bad in (past_rows[:-1], past_rows[:, 1:], past_rows.ravel()):
            with pytest.raises(ShapeError, match="past_rows"):
                model.forward_batch(past, known, company, past_rows=bad)

    def test_dropout_training_runs_every_row_with_the_same_bits(self):
        past, known, company, past_rows = self.shared_rows_batch()
        model = TftLite(tiny_config(dropout=0.25), n_features=4, n_companies=3, rng=np.random.default_rng(0))
        model.selector = Recorder(model.selector)
        out = model.forward_batch(
            past, known, company, training=True, rng=np.random.default_rng(5), past_rows=past_rows
        ).data
        unshared = model.forward_batch(past, known, company, training=True, rng=np.random.default_rng(5)).data
        assert model.selector.rows == [past.shape[0] * past.shape[1]] * 2
        assert np.array_equal(out, unshared)

    def test_gradcheck_through_shared_rows(self):
        # The gather back to every window step must add the gradients of a
        # row's repeats; at 1e-4, as the acceptance gradient checks.
        cfg = TrainConfig(lookback=6, horizon=2, hidden_size=8, n_heads=2, hidden_continuous_size=4, dropout=0.0)
        rng = np.random.default_rng(43)
        model = TftLite(cfg, n_features=3, n_companies=3, rng=rng)
        past, company, past_rows = stride1_windows(rng.normal(size=(3, 9, 3)), 6)
        known = rng.normal(size=(12, 2, 6))
        coeff = Tensor(rng.normal(size=(12, 2)))
        selector = Recorder(model.selector)
        model.selector = selector
        model.forward_batch(past, known, company, past_rows=past_rows)
        model.selector = selector.forward
        assert selector.rows == [len(np.unique(past_rows))] == [27]
        report = gradcheck(
            lambda: (model.forward_batch(past, known, company, training=True, past_rows=past_rows) * coeff).sum(),
            model.parameters(), delta=1e-5, tol=1e-4, max_coords_per_param=48,
        )
        assert report.passed, report.summary()
