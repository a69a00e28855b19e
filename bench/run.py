"""boostlab benchmark: one seeded workload per process, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports boostlab from ./src and writes
its scratch files under ./.bench_work/. One caller drives boostlab's public
API as a closed loop: each call starts after the previous one returns.

Workloads (see BENCHMARK.json for why each was chosen):
  recipe-mexican  run_recipe on a seeded 100k-row mexican-covid CSV with the
                  bench copy of the recipe (bench/mexican-covid.json)
  train-dense     100k x 20 table: level_wise, leaf_wise + GOSS and oblivious
                  training, a 100k-row holdout predict, model JSON round trip
  train-ordered   20k x 10 table: oblivious with 16 ordered-boosting blocks

A run sets the workload up several times (setup_s is the import time plus
the median set-up), then repeats passes until S seconds have gone, after one
warm-up pass. Every pass's outputs are checked; a failed check or an
exception is a failed operation, and the process exits 1.

With --trace 0 the final line's metrics are BENCHMARK.json's end_to_end set,
taken from untraced passes. With --trace 1 passes alternate between untraced
and traced (per-layer spans installed), and the metrics are the per_layer
set: span times are medians over traced passes, counts must repeat exactly
in every traced pass, and trace.overhead is the traced over the untraced
median pass time. Lines before the final JSON line give the environment and
every workload-specific metric with its unit, median, tail percentile and
sample count.
"""

from __future__ import annotations

import argparse
import ctypes
import fcntl
import json
import math
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
MIN_PASSES = 2  # model/report bytes are compared across passes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

UNITS = {"setup_s": "s", "pass_s": "s", "recipe_s": "s", "train_s": "s",
         "train_s.level_wise": "s", "train_s.leaf_wise_goss": "s", "train_s.oblivious": "s",
         "predict_rows_per_s": "rows/s", "model_io_s": "s", "holdout_loss": "log-loss",
         "peak_rss_mb": "MB", "error_rate": "ratio"}
HIGHER_IS_BETTER = {"predict_rows_per_s"}


def cap_threads(nproc: int) -> dict[str, str]:
    """Limit BLAS/OpenMP pools to nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cache_sizes() -> str:
    """CPU cache sizes from glibc's sysconf, which os.sysconf does not expose."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes = [ctypes.c_int]
        libc.sysconf.restype = ctypes.c_long
    except (OSError, AttributeError):
        return "caches unknown"
    parts = []
    # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE in glibc
    for label, key in (("L1d", 188), ("L2", 191), ("L3", 194)):
        size = libc.sysconf(key)
        parts.append(f"{label}={size // 1024}KiB" if size > 0 else f"{label}=unknown")
    return " ".join(parts)


def import_boostlab() -> float | None:
    """Import boostlab from this checkout's src/; the import time, or None
    when the sources are absent."""
    src = ROOT / "src"
    if not (src / "boostlab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import boostlab
    elapsed = perf_counter() - t0
    if Path(boostlab.__file__).resolve().parent != (src / "boostlab").resolve():
        return None
    return elapsed


def tail(values: list[float], higher_is_better: bool) -> str:
    """Highest percentile with at least 10 samples beyond it, on the bad side."""
    n = len(values)
    best = None
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= 10:
            best = p
            break
    if best is None:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values, reverse=higher_is_better)
    label = f"p{100 - best}" if higher_is_better else f"p{best}"
    return f"{label}={ordered[math.ceil(best * n / 100) - 1]:.6g} (n={n})"


def report_line(name: str, values: list[float]) -> str:
    unit = UNITS[name]
    samples = ", ".join(f"{v:.6g}" for v in values)
    return (f"# {name}: median {statistics.median(values):.6g} {unit}; "
            f"{tail(values, name in HIGHER_IS_BETTER)}; samples [{samples}]")


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    import_s = import_boostlab()
    if import_s is None:
        print(f"boostlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy as np
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"# env: python {platform.python_version()}, numpy {np.__version__}, "
          f"nproc {nproc}, {cache_sizes()}, commit {git_commit()}")
    print(f"# run: workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}, threads " + " ".join(f"{k}={v}" for k, v in threads.items()))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    with open(work_root / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one workload process at a time
        try:
            workdir.mkdir()
            return measure(args, spec, import_s, workloads, tracing, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, import_s, workloads, tracing, workdir) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl.setup(args.seed, workdir)
        setups.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = tracing.Tracer() if args.trace else None
    series: dict[str, list[float]] = {}       # untraced per-pass metrics
    traced_pass_s: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    failures: list[str] = []

    def one_pass(traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        if traced:
            tracer.install()
            try:
                out = wl.run_pass()
            finally:
                tracer.uninstall()
            agg = tracer.reduce()
        else:
            out = wl.run_pass()
        wl.check(out)
        attempted += len(out.ops)
        failed += len(out.failed)
        failures.extend(f"{op}: {why}" for op, why in out.failed.items())
        if not timed or "pass_s" not in out.metrics:
            return
        if traced:
            traced_pass_s.append(out.metrics["pass_s"])
            layers.append(tracing.layer_metrics(agg, [m["name"] for m in spec["per_layer"]
                                                      if m["name"] != "trace.overhead"]))
        else:
            for name, value in out.metrics.items():
                series.setdefault(name, []).append(value)

    one_pass(traced=False, timed=False)  # warm-up
    deadline = perf_counter() + args.seconds
    n = 0
    while True:
        one_pass(traced=bool(args.trace) and n % 2 == 1, timed=True)
        n += 1
        done_untraced = len(series.get("pass_s", ()))
        enough = (done_untraced >= MIN_PASSES if not args.trace
                  else done_untraced >= 1 and len(traced_pass_s) >= MIN_PASSES)
        if (perf_counter() >= deadline and enough) or (failed and n >= 2 * MIN_PASSES):
            break

    for name in sorted(series):
        print(report_line(name, series[name]))
    rss = peak_rss_mb()
    print(report_line("setup_s", [setup_s]) + f" (import {import_s:.4f} s + median of "
          f"{SETUP_REPEATS} set-ups: " + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(report_line("peak_rss_mb", [rss]))
    print(report_line("error_rate", [failed / attempted]) +
          f" ({failed} failed of {attempted} operations)")
    for line in failures[:20]:
        print(f"# FAILED {line}", file=sys.stderr)

    if args.trace:
        if not layers:
            raise RuntimeError("no traced pass completed")
        metrics = {}
        counts_differ = []
        for name in layers[0]:
            values = [layer[name] for layer in layers]
            if tracing.is_count(name):
                if len(set(values)) != 1:
                    counts_differ.append(f"{name} {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        attempted += 1  # the repeat check on count metrics is one operation
        if counts_differ:
            failed += 1
            print("# FAILED count metrics differ between traced passes: "
                  + "; ".join(counts_differ), file=sys.stderr)
        metrics["trace.overhead"] = (statistics.median(traced_pass_s)
                                     / statistics.median(series["pass_s"]))
        print(f"# trace.overhead: {metrics['trace.overhead']:.4f} "
              f"({len(traced_pass_s)} traced, {len(series['pass_s'])} untraced passes)")
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss,
                   "pass_s": statistics.median(series.get("pass_s", [math.nan]))}
        wanted = spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
