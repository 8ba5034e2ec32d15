#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload compare --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src).  The
inputs are generated from --seed in a child process (the set-up), then the
workload's round is repeated in this process until --seconds have passed.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
FEATURE_SETS = ("HLOV", "HLOVS", "HLOVE")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [f"cli.{stage}_s" for stage in ("preprocess", "features", "analyze", "predict", "evaluate")]
    names += [f"text.{n}_s" for n in ("load_tweets", "filter_corpus", "aggregate_daily", "align_panel", "write_panel", "read_panel")]
    names += ["text.tweets_in", "text.tweets_kept"]
    names += ["market.parse_ohlcv_s", "market.smooth_s", "market.atr_s", "analysis.correlation_s", "analysis.probe_s"]
    names += ["windows.build_s", "windows.count"]
    names += ["training.stack_windows_s", "training.fit_s", "training.predict_s", "training.steps"]
    names += [f"training.step_ms.{fs}.{q}" for fs in FEATURE_SETS for q in ("p50", "p90")]
    for fs in ("HLOVS", "HLOVE"):
        names += [f"nn.blocks.{b}_fwd_ms.{fs}" for b in ("vsn", "lstm", "enrich", "attn", "posff")]
        names.append(f"nn.layers.head_fwd_ms.{fs}")
    names += [f"nn.autograd.backward_ms.{fs}" for fs in FEATURE_SETS]
    names += [f"nn.autograd.graph_nodes.{fs}" for fs in FEATURE_SETS]
    for op in ("matmul", "add", "mul", "getitem", "sigmoid", "tanh", "concat"):
        names += [f"nn.autograd.op.{op}.count.HLOVS", f"nn.autograd.op.{op}.self_ms.HLOVS"]
    names += ["nn.optim.adam_ms", "losses.dmse_ms", "gc.gen2_collections", "gc.pause_s"]
    names += ["checkpoint.load_s", "checkpoint.restore_s", "metrics.compute_s", "metrics.composite_rank_s"]
    names += ["trace.round_s", "trace.top_level_share"]

    def unit(name: str) -> str:
        if name.endswith("_ms") or "_ms." in name:
            return "ms"
        if name.endswith("_s"):
            return "s"
        return "ratio" if name.endswith("_share") else "count"

    return {name: unit(name) for name in names}


def environment() -> dict:
    import numpy as np

    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    return info


def cpu_ticks():
    """(steal, total) CPU ticks of this machine from /proc/stat; None elsewhere."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, ValueError, IndexError):
        return None


def run_setup(args) -> int:
    """Child-process entry: generate one workload's inputs under --dir."""
    import workloads

    directory = Path(args.dir)
    directory.mkdir(parents=True)
    workloads.WORKLOADS[args.workload]().setup(directory, args.seed)
    return 0


def timed_setups(args, work: Path, repeats: int) -> tuple[Path, float]:
    """Run the set-up `repeats` times in fresh processes; keep the last output."""
    times = []
    for i in range(repeats):
        directory = work / f"setup{i}"
        cmd = [sys.executable, str(Path(__file__)), "--setup", "--workload", args.workload,
               "--seed", str(args.seed), "--dir", str(directory)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if i:
            shutil.rmtree(work / f"setup{i - 1}")
    return directory, statistics.median(times)


def timed_rounds(workload, seconds: float, tracer=None):
    """Repeat whole rounds until `seconds` have passed; per-round wall and CPU."""
    walls, cpus = [], []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        gc.collect()  # each round starts from a collected heap; untimed, so not traced
        if tracer is not None:
            tracer.round = len(walls)
            tracer.count("gc.gen2_collections", 0)
            tracer.count("gc.pause_s", 0)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            results = workload.run_round()
        except Exception:
            traceback.print_exc()
            results = []
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        if tracer is not None:
            tracer.round_walls.append(walls[-1])
            tracer.round = tracer.UNTIMED
        attempted += workload.ops_per_round
        failed += workload.ops_per_round - sum(1 for ok in results if ok)
        workload.after_round()
        if time.perf_counter() - began >= seconds:
            return walls, cpus, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("compare", "ingest", "forecast"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "senticast" / "__init__.py").is_file():
        print(f"bench: package sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup:
        return run_setup(args)

    import checks
    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        directory, setup_s = timed_setups(args, work, 1 if args.trace else SETUP_REPEATS)
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(directory, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        ticks_before = cpu_ticks()
        with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
            walls, cpus, attempted, failed = timed_rounds(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ticks_after = cpu_ticks()

        correct = True
        try:
            workload.check()
        except checks.CheckFailure as exc:
            correct = False
            print(f"bench: check failed: {exc}", file=sys.stderr)
        except Exception:
            correct = False
            traceback.print_exc()

        if tracer is None:
            values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                      "cpu_s": statistics.median(cpus), "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
        else:
            values = {**tracer.metrics(), **workload.op_metrics()}
            units = per_layer_units()
            # A layer the workload's rounds do not reach reads 0; one they
            # should reach but did not is a fault of the trace.
            missing = sorted(name for name in units if name not in values and workload.reaches(name))
            if missing:
                print(f"bench: per-layer metrics not measured: {missing}", file=sys.stderr)
                correct = False
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()}
        print(f"bench: {args.workload} seed {args.seed}: {len(walls)} rounds, wall per round "
              + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
        env = environment()
        # Share of CPU time the hypervisor took while timing; it explains a
        # slow run, the benchmark does not correct for it.
        if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
            steal = ticks_after[0] - ticks_before[0]
            env["steal_share"] = round(steal / (ticks_after[1] - ticks_before[1]), 4)
        print("bench-env " + json.dumps(env, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
