"""Smoke test of the benchmark: every workload for one second, traced and not.

Run from the repository root:

    python3 -m pytest mrnbench/test_smoke.py

It checks that every metric BENCHMARK.json names comes out with its unit,
that every workload's output checks pass, that the human-readable block
names each metric the way the workload calls it, and that the benchmark
fails cleanly where the program is missing.
"""

import os
import re
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

NAMED = {
    "train-pinned": ["train_step_ms_p50 {} ms", "train_step_ms_p90 {} ms",
                     "train_samples_per_s {} 1/s"],
    "eval-protocols": ["eval_call_ms_p50 {} ms", "eval_call_ms_p90 {} ms",
                       "eval_examples_per_s {} 1/s"],
    "viz-saliency": ["viz_example_ms_p50 {} ms", "viz_example_ms_p90 {} ms",
                     "viz_examples_per_s {} 1/s"],
}
EVERY_WORKLOAD = ["setup_s {} s", "peak_rss_mb {} MB", "failed_ops_ratio {} ratio"]
NUMBER = r"-?[0-9][0-9.e+-]*"


def test_smoke_every_metric_and_check():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=900, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sections = re.split(r"^== ", proc.stdout, flags=re.M)[1:]
    untraced = {s.split()[0]: s for s in sections if " trace 0:" in s}
    assert sorted(untraced) == sorted(NAMED)
    for workload, section in untraced.items():
        for pattern in NAMED[workload] + EVERY_WORKLOAD:
            line = "^" + re.escape(pattern).replace(r"\{\}", NUMBER)
            assert re.search(line, section, flags=re.M), (workload, pattern)
        assert re.search(r"^failed_ops_ratio 0\.0+ ratio", section, flags=re.M)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "mrnbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "mrnbench/run.py", "--workload",
                           "train-pinned", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
