"""The benchmark's tracer still finds the spans it reads.

`perfbench/tracer.py` wraps package functions by name and labels spans from
their positional arguments: the descent by the row count of its fourth
argument, the weights, and the experiment by `cli._experiment_trial`. Each
case drives the CLI through the tracer in a fresh process, as
`perfbench/run.py --trace 1` does, so a renamed function or a moved
argument shows here rather than as a per-layer metric that reads 0.

`perfbench/probe.py` reaches into the package by name too (the problem
resolver, the kernels and the basis's exponent table); a probe that fails
fails every benchmark run, so its cases run it as `run.py` does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
PROBE = ROOT / "perfbench" / "probe.py"

# Each case: CLI arguments, and the (name, label) of a span it must report.
# The baseline descends its 30 population and 60 validation weights in one
# call. The engine draws every trial's weight batches through the stack
# sampler, whose span stands for the weight-sampling layer. With only the
# diagnostics columns no metric draw goes through it, so the span counts the
# engine's draws alone.
EXPERIMENT = ["experiment", "--problem", "scaled-med", "--k", "20", "--n", "30",
              "--trials", "3", "--threads", "1"]
CASES = {
    "baseline": (["baseline", "--problem", "skew-3mmd", "--degree", "2", "--metrics", "gd,igd",
                  "--population", "30", "--validation-count", "60"],
                 ("_kernels.descent_sweep", "90w")),
    "experiment": (EXPERIMENT, ("cli._experiment_trial", "")),
    "experiment-draws": (EXPERIMENT + ["--metrics", "diagnostics"],
                         ("simplex.sample_uniform_simplex_stack", "")),
}


# Each probe: its arguments, and the keys of its JSON line that `run.py` reads.
PROBES = {
    "setup": (["setup", "scaled-med"], {"numba_enabled", "python", "numpy", "scipy"}),
    "kernels": (["kernels"], {"kernels.design.10000x10.us_per_call",
                              "kernels.design.30x10.us_per_call",
                              "kernels.min_distances.1000x1000.ms_per_call"}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_run_reports_the_span_the_benchmark_reads(case, tmp_path):
    args, span = CASES[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), "--", *args, "--out-dir", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans = {(s["name"], s["label"]): s for s in json.loads(out.read_text())["spans"]}
    assert span in spans, sorted(spans)
    assert spans[span]["calls"] > 0 and spans[span]["errors"] == 0


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_prints_the_keys_the_benchmark_reads(probe):
    args, keys = PROBES[probe]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(PROBE), *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert keys <= set(json.loads(proc.stdout.strip().splitlines()[-1])), proc.stdout
