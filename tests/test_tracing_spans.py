"""The benchmark's tracer must find every call site it wraps and keep every model parameter."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from senticast.models import TftLite, TrainConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_attribute_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.SPANS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"bench/tracing.py SPANS names attributes that do not exist: {missing}"


def test_instrumented_model_keeps_its_parameters():
    # The tracer swaps blocks for timing proxies; training must still see every parameter.
    tracing = load_tracing()
    cfg = TrainConfig(hidden_size=8, n_heads=2, hidden_continuous_size=4)
    model = TftLite(cfg, n_features=21, n_companies=2, rng=np.random.default_rng(0))
    before = model.parameters()
    tracing.instrument_model(tracing.Tracer(), model)
    after = model.parameters()
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))
