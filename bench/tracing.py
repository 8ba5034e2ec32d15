"""Spans and counters recorded around the package's public calls.

Nothing under src/ knows about tracing.  `instrument()` swaps module
attributes (and a few block attributes of each model the package builds)
for thin wrappers that record a span around the original call, and puts
the originals back on exit.  Spans are kept in memory; per-layer metrics
are computed from them when the run ends.

A layer's self time is its span's duration minus the time covered by the
traced spans it called.  Times are reported per round (median over
rounds); per-call figures (`*_ms`) are medians over calls.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
from collections import defaultdict

import numpy as np

BLOCKS = ("vsn", "lstm", "enrich", "attn", "posff", "head")
OPS = ("matmul", "add", "mul", "getitem", "sigmoid", "tanh", "concat")

# (module, attribute) -> span name.  A name listed for several attributes
# is the same layer reached through another import path.
SPANS = {
    ("senticast.text", "load_tweets_csv"): "text.load_tweets",
    ("senticast.text", "filter_corpus"): "text.filter_corpus",
    ("senticast.text", "aggregate_daily_text"): "text.aggregate_daily",
    ("senticast.text", "align_panel"): "text.align_panel",
    ("senticast.text", "write_panel_csv"): "text.write_panel",
    ("senticast.text", "read_panel_csv"): "text.read_panel",
    ("senticast.market", "parse_ohlcv_csv"): "market.parse_ohlcv",
    ("senticast.market", "smooth"): "market.smooth",
    ("senticast.text", "smooth"): "market.smooth",
    ("senticast.market", "atr"): "market.atr",
    ("senticast.analysis", "correlation_table"): "analysis.correlation",
    ("senticast.analysis", "probe_ticker"): "analysis.probe",
    ("senticast.windows", "build_windows"): "windows.build",
    ("senticast.windows", "windows_from_normalizer"): "windows.build",
    ("senticast.cli", "build_windows"): "windows.build",
    ("senticast.cli", "windows_from_normalizer"): "windows.build",
    ("senticast.training", "build_windows"): "windows.build",
    ("senticast.training", "stack_windows"): "training.stack_windows",
    ("senticast.training", "train_model"): "training.fit",
    ("senticast.training", "predict_windows"): "training.predict",
    ("senticast.cli", "predict_windows"): "training.predict",
    ("senticast.cli", "load_checkpoint"): "checkpoint.load",
    ("senticast.cli", "restore_model"): "checkpoint.restore",
    ("senticast.checkpoint", "load_checkpoint"): "checkpoint.load",
    ("senticast.checkpoint", "restore_model"): "checkpoint.restore",
    ("senticast.metrics", "compute_metrics"): "metrics.compute",
    ("senticast.cli", "compute_metrics"): "metrics.compute",
    ("senticast.metrics", "composite_rank"): "metrics.composite_rank",
    ("senticast.cli", "composite_rank"): "metrics.composite_rank",
}

# Span names reported as per-round self seconds, `<name>_s`.
REPORTED_SPANS = (
    "text.load_tweets", "text.filter_corpus", "text.aggregate_daily", "text.align_panel",
    "text.write_panel", "text.read_panel", "market.parse_ohlcv", "market.smooth", "market.atr",
    "analysis.correlation", "analysis.probe", "windows.build", "training.stack_windows",
    "training.fit", "training.predict", "checkpoint.load", "checkpoint.restore", "metrics.compute",
    "metrics.composite_rank",
)


def feature_set_of(model) -> str:
    """HLOV has 5 inputs, HLOVS 6, HLOVE 5 plus the embedding width."""
    return {5: "HLOV", 6: "HLOVS"}.get(model.n_features, "HLOVE")


class Tracer:
    """In-memory spans, per-call samples and per-round counters."""

    UNTIMED = -1  # `round` between timed rounds; the GC is not counted then

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, round, start, end, parent]
        self.stack: list[int] = []
        self.round = self.UNTIMED
        self.round_walls: list[float] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.eval_samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.fs = "HLOV"
        self.step_start: float | None = None
        self.gc_start: float | None = None
        self.nodes_seen: set[str] = set()

    # -- spans ----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        self.spans.append([name, self.round, time.perf_counter(), None, parent])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.round)] += value

    def self_times(self) -> dict[tuple[str, int], float]:
        child_time = defaultdict(float)
        for name, rnd, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, int], float] = defaultdict(float)
        for i, (name, rnd, start, end, parent) in enumerate(self.spans):
            out[(name, rnd)] += (end - start) - child_time[i]
        return out

    def top_level(self) -> dict[int, float]:
        out: dict[int, float] = defaultdict(float)
        for name, rnd, start, end, parent in self.spans:
            if parent < 0:
                out[rnd] += end - start
        return out

    # -- gc -------------------------------------------------------------------

    def on_gc(self, phase: str, info: dict) -> None:
        if self.round == self.UNTIMED:
            self.gc_start = None
        elif phase == "start":
            self.gc_start = time.perf_counter()
            if info.get("generation") == 2:
                self.count("gc.gen2_collections")
        elif self.gc_start is not None:
            self.count("gc.pause_s", time.perf_counter() - self.gc_start)
            self.gc_start = None

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics this tracer saw, by reported name."""
        rounds = sorted(r for r in {s[1] for s in self.spans} | {r for _, r in self.counts} if r != self.UNTIMED)
        out: dict[str, float] = {}
        selfs = self.self_times()
        names = {name for name, _ in selfs}

        def per_round(key_fn, name):
            return statistics.median(key_fn(name, r) for r in rounds)

        for name in names:
            if name in REPORTED_SPANS or name.startswith("cli."):
                out[f"{name}_s"] = per_round(lambda n, r: selfs.get((n, r), 0.0), name)
        for name in {n for n, _ in self.counts}:
            out[name] = per_round(lambda n, r: self.counts.get((n, r), 0.0), name)
        # Block timings come from training forwards when there were any,
        # otherwise from eval forwards (the forecast workload's batches).
        samples = {**self.eval_samples, **self.samples}
        for name, values in samples.items():
            if name.startswith("training.step_ms."):
                out[f"{name}.p50"] = statistics.median(values)
                out[f"{name}.p90"] = float(np.percentile(values, 90))
            else:
                out[name] = statistics.median(values)
        if self.round_walls:
            tops = self.top_level()
            out["trace.round_s"] = statistics.median(self.round_walls)
            out["trace.top_level_share"] = statistics.median(
                tops.get(r, 0.0) / wall for r, wall in enumerate(self.round_walls)
            )
        return out


class _TimedBlock:
    """Callable proxy that adds its call time to the tracer's current forward."""

    def __init__(self, inner, block: str, acc: dict):
        self._inner = inner
        self._block = block
        self._acc = acc

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        out = self._inner(*args, **kwargs)
        self._acc[self._block] = self._acc.get(self._block, 0.0) + time.perf_counter() - start
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


def instrument_model(tracer: Tracer, model):
    """Time each TFT-lite block per forward call and mark training-step starts."""
    if getattr(model, "kind", "") != "tft_lite":
        return model
    fs = feature_set_of(model)
    acc: dict[str, float] = {}
    model.var_proj = [_TimedBlock(p, "vsn", acc) for p in model.var_proj]
    for attr, block in (
        ("selector", "vsn"), ("encoder", "lstm"), ("enrichment", "enrich"),
        ("attention", "attn"), ("position_ff", "posff"), ("head", "head"),
    ):
        setattr(model, attr, _TimedBlock(getattr(model, attr), block, acc))
    forward = model.forward_batch

    def forward_batch(*args, **kwargs):
        tracer.fs = fs
        training = bool(kwargs.get("training"))
        if training:
            tracer.step_start = time.perf_counter()
        acc.clear()
        out = forward(*args, **kwargs)
        samples = tracer.samples if training else tracer.eval_samples
        for block in BLOCKS:
            layer = "nn.layers" if block == "head" else "nn.blocks"
            samples[f"{layer}.{block}_fwd_ms.{fs}"].append(1e3 * acc.get(block, 0.0))
        return out

    model.forward_batch = forward_batch
    return model


def graph_nodes(root) -> int:
    """Nodes reachable from a loss through the engine's parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node._prev:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


@contextlib.contextmanager
def instrument(tracer: Tracer, ops: bool = False):
    """Install every wrapper; with ops=True also count and time autograd ops."""
    import importlib

    from senticast.nn import autograd

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def count_windows(result):
        tracer.count("windows.count", len(result[0]) + len(result[1]))

    def count_tweets(result):
        _, stats = result
        tracer.count("text.tweets_in", stats["input"])
        tracer.count("text.tweets_kept", stats["kept"])

    on_result = {
        ("senticast.windows", "windows_from_normalizer"): count_windows,
        ("senticast.cli", "windows_from_normalizer"): count_windows,
        ("senticast.text", "filter_corpus"): count_tweets,
    }
    # Import every module before patching any, so that no module binds a
    # wrapper through `from ... import` and gets wrapped twice.
    modules = {name: importlib.import_module(name) for name, _ in SPANS}
    for (module_name, attr), name in SPANS.items():
        module = modules[module_name]
        patch(module, attr, tracer.wrap(getattr(module, attr), name, on_result.get((module_name, attr))))

    cli = modules["senticast.cli"]
    main = cli.main

    def traced_main(argv):
        with tracer.span(f"cli.{argv[0]}"):
            return main(argv)

    patch(cli, "main", traced_main)
    training = modules["senticast.training"]
    for owner in (training, modules["senticast.checkpoint"]):
        build = getattr(owner, "build_model")
        patch(owner, "build_model", lambda *a, _build=build, **k: instrument_model(tracer, _build(*a, **k)))

    dmse = training.dmse_loss_batch

    def dmse_loss_batch(*args, **kwargs):
        start = time.perf_counter()
        out = dmse(*args, **kwargs)
        tracer.samples["losses.dmse_ms"].append(1e3 * (time.perf_counter() - start))
        return out

    patch(training, "dmse_loss_batch", dmse_loss_batch)
    adam = training.adam_step

    def adam_step(*args, **kwargs):
        start = time.perf_counter()
        adam(*args, **kwargs)
        end = time.perf_counter()
        tracer.samples["nn.optim.adam_ms"].append(1e3 * (end - start))
        if tracer.step_start is not None:
            tracer.samples[f"training.step_ms.{tracer.fs}"].append(1e3 * (end - tracer.step_start))
            tracer.step_start = None
        tracer.count("training.steps")
        if ops:  # op figures are per step: each step is its own round
            tracer.round += 1

    patch(training, "adam_step", adam_step)
    backward = autograd.Tensor.backward

    def traced_backward(self):
        if tracer.fs not in tracer.nodes_seen:
            tracer.nodes_seen.add(tracer.fs)
            tracer.samples[f"nn.autograd.graph_nodes.{tracer.fs}"].append(graph_nodes(self))
        start = time.perf_counter()
        backward(self)
        tracer.samples[f"nn.autograd.backward_ms.{tracer.fs}"].append(1e3 * (time.perf_counter() - start))

    patch(autograd.Tensor, "backward", traced_backward)

    if ops:
        for attr, op in (
            ("__matmul__", "matmul"), ("__add__", "add"), ("__radd__", "add"),
            ("__mul__", "mul"), ("__rmul__", "mul"), ("__getitem__", "getitem"),
            ("sigmoid", "sigmoid"), ("tanh", "tanh"),
        ):
            fn = getattr(autograd.Tensor, attr)
            patch(autograd.Tensor, attr, tracer.wrap(fn, f"op.{op}", lambda _r, op=op: tracer.count(f"op.{op}")))
        concat = autograd.concat
        traced_concat = tracer.wrap(concat, "op.concat", lambda _r: tracer.count("op.concat"))
        for module_name in ("senticast.nn.autograd", "senticast.nn.blocks", "senticast.models"):
            module = importlib.import_module(module_name)
            if getattr(module, "concat", None) is concat:
                patch(module, "concat", traced_concat)

    gc.callbacks.append(tracer.on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def op_metrics(tracer: Tracer, steps: int) -> dict[str, float]:
    """Count and self milliseconds of each traced op type, median over steps.

    A cyclic-GC pause lands in the self time of the op that triggered it;
    the median keeps one such step from setting the figure.
    """
    selfs = tracer.self_times()
    out = {}
    for op in OPS:
        name = f"op.{op}"
        out[f"nn.autograd.op.{op}.count.HLOVS"] = statistics.median(tracer.counts.get((name, r), 0.0) for r in range(steps))
        out[f"nn.autograd.op.{op}.self_ms.HLOVS"] = 1e3 * statistics.median(selfs.get((name, r), 0.0) for r in range(steps))
    return out
