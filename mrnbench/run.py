"""Benchmark for the mrn package: three workloads, end-to-end and per-layer.

One workload run (the form BENCHMARK.json names):

    python3 mrnbench/run.py --workload train-pinned --seed 1 --seconds 35 --trace 0

prints a human-readable block, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (setup_s, peak_rss_mb, items_per_s),
measured with no instrumentation; the block above also gives the op
latency p50/p90 under the workload's own names (train_step_ms_p50, ...).
With ``--trace 1`` they are the per-layer ones, from a run whose first half
is untraced and whose second half runs with spans around every layer (the
difference between the halves is the tracing overhead).

All workloads, one process each, with tables and a check of every metric
name and unit against BENCHMARK.json:

    python3 mrnbench/run.py --all --trace 0      # end-to-end table
    python3 mrnbench/run.py --all --trace 1      # per-layer table
    python3 mrnbench/run.py --smoke              # both, one second each

Run from the root of a checkout; the program is imported from ``src``.
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time


def _pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported.

    numpy's bundled OpenBLAS may start up to 64 threads. The workloads are
    one caller in a closed loop; on a 2-CPU VM a second BLAS thread bought
    ~3% on a train step but made every workload's timings swing with
    whatever else ran on the other CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


_pin_threads()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPS = 3
RUN_TIMEOUT_S = 180


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mrn", "__init__.py")):
        sys.exit(f"mrnbench: no mrn package under {src}; run from the root "
                 "of a checkout of the repository")
    sys.path.insert(0, src)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy as np

    from mrn import kernels
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "conv_backend": "numba" if kernels.HAVE_NUMBA else "numpy",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(name, seed, seconds, trace):
    """Set up, time, check; returns (checks, metrics, extra report lines)."""
    import numpy as np

    from spans import Tracer, instrument, layer_metrics
    from workloads import WORKLOADS, Checks

    checks = Checks()
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-",
                               dir=os.path.join(BENCH_DIR, ".work"))
    setup_tracer = Tracer()
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            # Each set-up, and the timed phase after them, starts from a
            # fresh workload and a collected heap. The tape's closures make
            # each step's graph a reference cycle, so the heap grows until
            # the first full collection, which CPython triggers once the
            # objects promoted since the last one exceed a quarter of those
            # that survived it. Left alone, the earlier set-ups' leftovers
            # fixed that point, and peak_rss_mb swung by up to 70 MB from
            # one seed to the next.
            wl = None
            gc.collect()
            wl = WORKLOADS[name]()
            with instrument(setup_tracer) if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                wl.setup(seed, workdir)
                setup_s.append(time.perf_counter() - t0)
        gc.collect()
        if trace:
            base_s, _ = wl.run(seconds / 2, checks)
            tracer = Tracer()
            with instrument(tracer):
                op_s, items = wl.run(seconds / 2, checks, tracer)
        else:
            op_s, items = wl.run(seconds, checks)
        wl.verify(checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p50 = 1e3 * statistics.median(op_s)
    p90 = 1e3 * float(np.percentile(op_s, 90))
    rate = items / sum(op_s)
    lines = [
        f"{wl.op_label}_p50 {p50:.4f} ms (n={len(op_s)})",
        f"{wl.op_label}_p90 {p90:.4f} ms (n={len(op_s)})",
        f"{wl.items_label} {rate:.3f} 1/s",
        f"failed_ops_ratio {checks.failed / checks.attempted:.6f} ratio "
        f"(base: {checks.attempted} checks attempted)",
    ]
    lines += [f"check failed: {m}" for m in checks.messages]
    if trace:
        base = 1e3 * statistics.median(base_s)
        metrics = layer_metrics(setup_tracer, tracer, wl.step_span,
                                wl.tape_counter)
        metrics["tracing.overhead_ms_p50"] = (p50 - base, "ms")
        metrics["tracing.overhead_ratio"] = ((p50 - base) / base, "ratio")
        c = tracer.counts
        lines += [
            f"tracing overhead: {wl.op_label}_p50 {p50:.4f} ms traced "
            f"- {base:.4f} ms untraced (n={len(base_s)}); "
            "tracing.overhead_ratio base: untraced p50",
            f"autodiff.tape_nodes_per_step base: {wl.step_span} calls "
            f"(n={len(tracer.durations().get(wl.step_span, []))})",
            f"encoders.gru_useful_ratio base: {c['gru_row_steps']} GRU "
            f"row-steps computed, {c['gru_useful_row_steps']} needed",
        ]
    else:
        setup = statistics.median(setup_s)
        # p50 and p90 are printed above but not gated: on a shared 2-CPU
        # host their run-to-run spread reached the largest bound allowed
        metrics = {"setup_s": (setup, "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB"),
                   "items_per_s": (rate, "1/s")}
        lines[:0] = [f"setup_s {setup:.4f} s (median of {SETUP_REPS} set-ups: "
                     + ", ".join(f"{x:.4f}" for x in setup_s) + ")",
                     f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB"]
    return checks, {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}, lines


def single(args):
    # a terminated run still removes its scratch directory (run_one's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"mrnbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    checks, metrics, lines = run_one(args.workload, args.seed, args.seconds,
                                     args.trace)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("facts " + json.dumps(machine_facts(), sort_keys=True))
    for line in lines:
        print(line)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_all(seed, seconds, traces):
    """Each workload in its own process; tables plus a contract check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace in traces:
        rows = {}
        for w in spec["workloads"]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   w["name"], "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S, cwd=ROOT)
            out = proc.stdout.strip().splitlines()
            print(f"== {w['name']} trace {trace}: exit {proc.returncode}")
            print("\n".join(out[1:-1]))
            if proc.returncode != 0 or not out:
                problems.append(f"{w['name']} trace {trace}: exit "
                                f"{proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(out[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{w['name']} trace {trace}: metric names or "
                                f"units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expect[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace {trace}: "
                                f"{result['failed']} of {result['attempted']} "
                                "checks failed")
            rows[w["name"]] = result["metrics"]
        if rows:
            names = list(rows)
            print(f"\n{'metric':34}" + "".join(f"{n:>18}" for n in names)
                  + "  unit")
            for metric, unit in expect[trace].items():
                cells = "".join(
                    f"{rows[n][metric]['value']:>18.6g}" if metric in rows[n]
                    else f"{'-':>18}" for n in names)
                print(f"{metric:34}{cells}  {unit}")
            print()
    for p in problems:
        print("PROBLEM: " + p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, one process each")
    p.add_argument("--smoke", action="store_true",
                   help="--all for one second each, traced and untraced")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.smoke:
        return run_all(args.seed, 1.0, (0, 1))
    if args.all:
        return run_all(args.seed, args.seconds, (args.trace,))
    if args.workload is None:
        p.error("--workload is required without --all or --smoke")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
