"""The benchmark's tracer still finds the spans it reads.

`perfbench/tracer.py` wraps package functions by name and labels spans from
their positional arguments: the descent by the row count of its fourth
argument, the weights, and the experiment by `cli._experiment_trial`. Each
case drives the CLI through the tracer in a fresh process, as
`perfbench/run.py --trace 1` does, so a renamed function or a moved
argument shows here rather than as a per-layer metric that reads 0.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

# Each case: CLI arguments, and the (name, label) of a span it must report.
# The baseline descends its 30 population and 60 validation weights in one
# call.
CASES = {
    "baseline": (["baseline", "--problem", "skew-3mmd", "--degree", "2", "--metrics", "gd,igd",
                  "--population", "30", "--validation-count", "60"],
                 ("_kernels.descent_sweep", "90w")),
    "experiment": (["experiment", "--problem", "scaled-med", "--k", "20", "--n", "30",
                    "--trials", "3", "--threads", "1"],
                   ("cli._experiment_trial", "")),
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
