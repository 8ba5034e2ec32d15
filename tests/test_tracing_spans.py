"""Every call site that the benchmark's tracer wraps must still exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.SPANS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing, f"bench/tracing.py SPANS names attributes that do not exist: {missing}"
