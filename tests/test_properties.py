"""Property tests over random inputs; skipped where hypothesis is not installed."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from senticast.checkpoint import load_checkpoint, restore_model, save_checkpoint
from senticast.models import TrainConfig
from senticast.training import build_model
from senticast.windows import FeatureSetSpec, Normalizer

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
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
        columns=spec.columns,
        means=rng.normal(size=(n_companies, n_features)),
        stds=rng.uniform(0.5, 2.0, size=(n_companies, n_features)),
        train_rows=[40] * n_companies,
    )
    model_kind = draw(st.sampled_from(["nlinear", "tft_lite"]))
    model = build_model(model_kind, cfg, n_features, n_companies, rng, close_col=normalizer.close_index)
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
