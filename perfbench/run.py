"""The bezier-mopt benchmark: end-to-end and per-layer figures for the CLI.

    python3 perfbench/run.py --workload cell-serial --seed 1 --seconds 55 --trace 0

Every measured run is a fresh Python process that drives
`bezier_mopt.cli.main`, which is how users run experiment cells, fed
inputs made from --seed (the experiment root seed, or the baseline's
metric-sampling seed). Runs repeat, one at a time (a closed loop with one
client), while the next one still fits in --seconds; at least one always
runs. The benchmark sets no BLAS or OpenMP thread variables: the user's
default threading is part of what is measured. It removes
BEZIER_MOPT_THREADS, which would override the workload's pool size.

With --trace 0 it prints the end-to-end metrics (medians over the runs);
with --trace 1 it alternates plain and traced runs (perfbench/tracer.py)
and prints the per-layer metrics of the traced ones, the tracing overhead
(traced minus plain wall time) and kernel timings at fixed shapes. The last
line of output is one JSON object: correct, attempted, failed, metrics.
Workloads, gates and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LEDGER = BENCH_DIR / ".ledger"
# Every run of the benchmark must end within this many seconds.
HARD_LIMIT_S = 170.0
SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "BEZIER_MOPT_THREADS", "BEZIER_MOPT_NUMBA")
CLI_MAIN = "import sys; from bezier_mopt.cli import main; sys.exit(main(sys.argv[1:]))"

# Experiment cell: the paper's cell, 20 seeded trials of K=1000 at each n.
CELL_ITERATIONS = 1000
CELL_N = (30, 100)
CELL_TRIALS = 20
MSE_BAND = (1e-5, 4e-4)
# Baseline pipeline: population lattice plus validation lattice.
BASELINE_POPULATION = 100
BASELINE_VALIDATION = 1000
INDICATOR_LIMIT = 0.15


@dataclasses.dataclass
class Workload:
    name: str
    problem: str
    threads: int | None  # pool size for cells, None for the baseline

    @property
    def is_cell(self) -> bool:
        return self.threads is not None

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        """The bezier-mopt arguments of one run, minus --out-dir."""
        if self.is_cell:
            return ["experiment", "--problem", self.problem, "--degree", "3",
                    "--k", str(CELL_ITERATIONS), "--schedule", "1/k",
                    "--n", ",".join(map(str, CELL_N)), "--metrics", "mse",
                    "--trials", str(CELL_TRIALS), "--threads", str(self.threads),
                    "--seed", str(seed), "--out-dir", out_dir]
        return ["baseline", "--problem", self.problem, "--degree", "3",
                "--metrics", "gd,igd", "--population", str(BASELINE_POPULATION),
                "--validation-count", str(BASELINE_VALIDATION),
                "--seed", str(seed), "--out-dir", out_dir]

    def ledger_args(self, seed: int) -> list[str]:
        """Arguments that determine the output bytes. The pool size does
        not, so serial and pooled cells share ledger entries."""
        args = self.cli_args(seed, "")[:-2]
        if self.is_cell:
            at = args.index("--threads")
            del args[at:at + 2]
        return args

    @property
    def output_file(self) -> str:
        return "trials.csv" if self.is_cell else "baseline_report.json"

    @property
    def iterations(self) -> int:
        """Optimizer iterations per run: solver iterations of a cell, or
        lattice weights descended by the baseline."""
        if self.is_cell:
            return CELL_TRIALS * len(CELL_N) * CELL_ITERATIONS
        return BASELINE_POPULATION + BASELINE_VALIDATION

    @property
    def weights(self) -> int:
        """Weight vectors processed per run: every sampled weight is
        stepped and refit in a cell; each lattice weight is descended once
        in the baseline."""
        if self.is_cell:
            return CELL_TRIALS * sum(CELL_N) * CELL_ITERATIONS
        return BASELINE_POPULATION + BASELINE_VALIDATION


WORKLOADS = {w.name: w for w in (
    Workload("cell-serial", "scaled-med", 1),
    # os.cpu_count() is the pool size users get by default.
    Workload("cell-pool", "scaled-med", os.cpu_count() or 1),
    Workload("baseline-sweep", "skew-3mmd", None),
)}


@dataclasses.dataclass
class Run:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str = ""
    errors: list = dataclasses.field(default_factory=list)
    layers: dict = dataclasses.field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BEZIER_MOPT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(cmd: list[str], log_path: Path, deadline: float) -> tuple[int, float, os.struct_rusage]:
    """Run `cmd` in its own process group; return (exit code, wall seconds,
    rusage of the process and the children it reaped). The group is killed
    when the deadline (a time.monotonic value) passes."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Pool workers left behind by a killed run belong to the same group.
    _kill_group(proc.pid)
    return proc.returncode, wall, usage


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bezier_mopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# ---------------------------------------------------------------------------
# Correctness gates.
# ---------------------------------------------------------------------------

def cell_gates(out_dir: Path) -> list[str]:
    errors = []
    with open(out_dir / "trials.csv", newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if len(rows) != CELL_TRIALS * len(CELL_N):
        errors.append(f"trials.csv has {len(rows)} rows, expected {CELL_TRIALS * len(CELL_N)}")
    bad = [r for r in rows if r["status"] != "ok"]
    if bad:
        errors.append(f"{len(bad)} trials not ok, first: {bad[0]['error']!r}")
    aggregate = json.loads((out_dir / "aggregate.json").read_text())
    means = {s["n"]: s.get("mse", {}).get("mean") for s in aggregate["settings"]}
    for n in CELL_N:
        mean = means.get(n)
        if mean is None or not MSE_BAND[0] <= mean <= MSE_BAND[1]:
            errors.append(f"mean mse at n={n} is {mean}, outside {MSE_BAND}")
    if not errors and not means[CELL_N[1]] < means[CELL_N[0]]:
        errors.append(f"mean mse does not fall from n={CELL_N[0]} to n={CELL_N[1]}: {means}")
    return errors


def baseline_gates(out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "baseline_report.json").read_text())
    errors = []
    for name in ("gd", "igd"):
        value = report.get(name)
        if not isinstance(value, float) or not value < INDICATOR_LIMIT:
            errors.append(f"{name} is {value}, expected below {INDICATOR_LIMIT}")
    return errors


def ledger_check(workload: Workload, seed: int, src_digest: str, digest: str) -> list[str]:
    """Compare the output digest with the one any earlier run of the same
    source and arguments recorded in this checkout; record it if new."""
    key = hashlib.sha256(json.dumps([workload.ledger_args(seed), src_digest]).encode()).hexdigest()
    LEDGER.mkdir(exist_ok=True)
    entry = LEDGER / key[:32]
    if entry.exists():
        recorded = json.loads(entry.read_text())
        if recorded["digest"] != digest:
            return [f"{workload.output_file} digest {digest[:12]} differs from "
                    f"{recorded['digest'][:12]} recorded by {recorded['workload']}"]
        return []
    tmp = entry.with_suffix(".tmp")
    tmp.write_text(json.dumps({"digest": digest, "workload": workload.name}))
    os.replace(tmp, entry)
    return []


# ---------------------------------------------------------------------------
# Per-layer metrics from the tracer's totals.
# ---------------------------------------------------------------------------

class Spans:
    """Span totals merged over the main process and its pool workers."""

    def __init__(self, trace_files):
        self.entries = []
        self.module_busy = {}
        for path in trace_files:
            doc = json.loads(Path(path).read_text())
            self.entries += doc["spans"]
            for module, busy in doc["module_busy_s"].items():
                self.module_busy[module] = self.module_busy.get(module, 0.0) + busy

    def select(self, name, context=None, label=None):
        return [e for e in self.entries if e["name"] == name
                and (context is None or e["context"] == context)
                and (label is None or e["label"] == label)]

    def sum(self, name, field, context=None, label=None) -> float:
        return sum(e[field] for e in self.select(name, context, label))

    def qty(self, name, key, context=None) -> float:
        return sum(e["quantities"].get(key, 0) for e in self.select(name, context))

    def module_self(self, module) -> float:
        return sum(e["self_s"] for e in self.entries if e["name"].split(".", 1)[0] == module)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# Package module -> metric prefix. Metric names must start with a letter or
# digit, so `_kernels` is reported as `kernels`.
LAYERS = {"simplex": "simplex", "bezier": "bezier", "problems": "problems",
          "solver": "solver", "metrics": "metrics", "sweep": "sweep",
          "_kernels": "kernels", "cli": "cli"}


def layer_metrics(spans: Spans, workers: int) -> dict:
    m = {}
    for module, prefix in LAYERS.items():
        m[f"{prefix}.busy_s"] = spans.module_busy.get(module, 0.0)
        m[f"{prefix}.self_s"] = spans.module_self(module)

    m["simplex.sample.busy_s"] = spans.sum("simplex.sample_uniform_simplex", "busy_s")
    m["simplex.sample.calls"] = spans.sum("simplex.sample_uniform_simplex", "calls")

    design = "bezier.design_matrix"
    m["bezier.design.busy_s"] = spans.sum(design, "busy_s", "solver")
    m["bezier.design.rows"] = spans.qty(design, "rows", "solver")
    m["bezier.design.flops_computed"] = spans.qty(design, "flops", "solver")
    m["bezier.design.bytes_computed"] = spans.qty(design, "bytes", "solver")
    m["bezier.design.metrics.busy_s"] = spans.sum("_kernels.bernstein_design", "busy_s", "metrics")
    m["bezier.design.metrics.rows"] = spans.qty("_kernels.bernstein_design", "rows", "metrics")

    gate_calls = spans.sum("bezier.check_design", "calls", "solver")
    accepted = gate_calls - spans.sum("bezier.check_design", "errors", "solver")
    m["bezier.gate.busy_s"] = spans.sum("bezier.check_design", "busy_s", "solver")
    m["bezier.gate.calls"] = gate_calls
    m["bezier.gate.calls_per_accept"] = _ratio(gate_calls, accepted)
    m["bezier.solve.busy_s"] = spans.sum("bezier.solve_prepared", "busy_s", "solver")
    m["bezier.solve.flops_computed"] = spans.qty("bezier.solve_prepared", "flops", "solver")
    m["bezier.solve.bytes_computed"] = spans.qty("bezier.solve_prepared", "bytes", "solver")

    iterations = spans.qty("solver.run_surface_gd", "iterations")
    grad = "problems.gradient_batch_stats"
    m["problems.grad.busy_s"] = spans.sum(grad, "busy_s")
    m["problems.grad.calls_per_iter"] = _ratio(spans.sum(grad, "calls", "solver"), iterations)

    run_busy = spans.sum("solver.run_surface_gd", "busy_s")
    m["solver.iterations"] = iterations
    m["solver.us_per_iter"] = 1e6 * _ratio(run_busy, iterations)
    m["solver.accept_ratio"] = _ratio(accepted, spans.sum(design, "calls", "solver"))

    trial_busy = spans.sum("cli._experiment_trial", "busy_s")
    cell_wall = spans.sum("cli.run_experiment", "busy_s")
    m["cli.trial.busy_s"] = trial_busy
    m["cli.pool.efficiency"] = _ratio(trial_busy, cell_wall * workers)
    m["cli.io.busy_s"] = spans.sum("cli.write_csv", "busy_s") + spans.sum("cli.write_json", "busy_s")

    m["metrics.mse.busy_s"] = spans.sum("metrics.mse", "busy_s")
    m["metrics.nn.pairs"] = spans.qty("_kernels.min_distances", "pairs")
    m["kernels.min_distances.busy_s"] = spans.sum("_kernels.min_distances", "busy_s")
    m["kernels.descent.busy_s"] = spans.sum("_kernels.descent_sweep", "busy_s")
    m["kernels.descent.1000w.busy_s"] = spans.sum("_kernels.descent_sweep", "busy_s",
                                                  label=f"{BASELINE_VALIDATION}w")

    sweep = "sweep.minimize_scalarizations"
    steps = spans.qty(sweep, "steps")
    m["sweep.steps"] = steps
    m["sweep.converged_ratio"] = _ratio(spans.qty(sweep, "converged"), spans.qty(sweep, "weights"))
    m["sweep.wasted_steps_ratio"] = _ratio(spans.qty(sweep, "wasted_steps"), steps)
    return m


# ---------------------------------------------------------------------------
# The benchmark.
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        self.src_digest = source_digest()
        self.runs: list[Run] = []
        self.setup_walls: list[float] = []
        self.versions: dict = {}

    @property
    def deadline(self) -> float:
        return self.started + HARD_LIMIT_S

    def probe(self, args: list[str], tag: str) -> tuple[int, float, str]:
        log = self.work / f"probe-{tag}.log"
        code, wall, _ = run_process([sys.executable, str(BENCH_DIR / "probe.py"), *args],
                                    log, self.deadline)
        return code, wall, log.read_text()

    def measure_setup(self) -> list[str]:
        """Fresh-process import and problem resolution; the first probe
        only warms the file cache and bytecode cache and is not counted."""
        for i in range(SETUP_PROBES + 1):
            code, wall, out = self.probe(["setup", self.workload.problem], f"setup{i}")
            if code != 0:
                return [f"setup probe exited {code}: {out.strip()[-500:]}"]
            if i:
                self.setup_walls.append(wall)
        self.versions = json.loads(out.strip().splitlines()[-1])
        return []

    def one_run(self, traced: bool) -> Run:
        index = len(self.runs)
        out_dir = self.work / f"run{index}"
        out_dir.mkdir()
        args = self.workload.cli_args(self.seed, str(out_dir))
        trace_path = self.work / f"trace{index}.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_path), "--", *args]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *args]
        code, wall, usage = run_process(cmd, self.work / f"run{index}.log", self.deadline)
        run = Run(traced=traced, exit_code=code, wall_s=wall,
                  cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0)
        if code != 0:
            log = (self.work / f"run{index}.log").read_text(errors="replace")
            run.errors.append(f"exit code {code}: {log.strip()[-500:]}")
            return run
        gates = cell_gates if self.workload.is_cell else baseline_gates
        try:
            run.digest = sha256_file(out_dir / self.workload.output_file)
            run.errors += gates(out_dir)
        except (OSError, ValueError, KeyError, TypeError) as err:
            run.errors.append(f"unreadable output: {err!r}")
            return run
        first = next((r.digest for r in self.runs if r.digest), run.digest)
        if run.digest != first:
            run.errors.append(f"{self.workload.output_file} digest {run.digest[:12]} "
                              f"differs from this run's first, {first[:12]}")
        run.errors += ledger_check(self.workload, self.seed, self.src_digest, run.digest)
        if traced:
            files = [trace_path, *trace_path.parent.glob(trace_path.name + ".*[0-9]")]
            run.layers = layer_metrics(Spans(files), self.workload.threads or 1)
        return run

    def measure(self) -> None:
        plan = [False, True] if self.trace else [False]
        measure_start = time.monotonic()
        while True:
            traced = plan[len(self.runs) % len(plan)]
            if len(self.runs) >= len(plan):
                estimate = max(r.wall_s for r in self.runs if r.traced == traced)
                now = time.monotonic()
                if now - measure_start + estimate > self.seconds or now + estimate > self.deadline:
                    break
            run = self.one_run(traced)
            self.runs.append(run)
            print(f"run {len(self.runs)}{' (traced)' if traced else ''}: exit {run.exit_code}, "
                  f"wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, "
                  f"rss {run.peak_rss_mb:.1f} MB, digest {run.digest[:12] or '-'}"
                  + "".join(f"\n  FAILED: {e}" for e in run.errors), flush=True)

    def environment(self) -> dict:
        try:
            affinity = len(os.sched_getaffinity(0))
        except AttributeError:
            affinity = None
        return {"commit": git_commit(), "source_sha256": self.src_digest,
                "kernel_numba_enabled": self.versions.get("numba_enabled"),
                "python": self.versions.get("python"), "numpy": self.versions.get("numpy"),
                "scipy": self.versions.get("scipy"), "nproc": os.cpu_count(),
                "affinity_cpus": affinity,
                "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
                "workload": self.workload.name, "seed": self.seed,
                "seconds": self.seconds, "trace": int(self.trace)}

    def end_to_end(self) -> dict:
        runs = [r for r in self.runs if not r.traced]
        med = statistics.median
        return {
            "wall_s": (med([r.wall_s for r in runs]), "s"),
            "cpu_s": (med([r.cpu_s for r in runs]), "s"),
            "setup_s": (med(self.setup_walls), "s"),
            "peak_rss_mb": (med([r.peak_rss_mb for r in runs]), "MB"),
            "iters_per_s": (med([self.workload.iterations / r.wall_s for r in runs]), "1/s"),
            "weights_per_s": (med([self.workload.weights / r.wall_s for r in runs]), "1/s"),
        }

    def per_layer(self) -> dict:
        traced = [r for r in self.runs if r.traced and r.layers]
        plain = [r for r in self.runs if not r.traced and r.exit_code == 0]
        metrics = {}
        if traced:
            for name in traced[0].layers:
                metrics[name] = (statistics.median(r.layers[name] for r in traced),
                                 _unit(name))
        if traced and plain:
            traced_wall = statistics.median(r.wall_s for r in traced)
            plain_wall = statistics.median(r.wall_s for r in plain)
            metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
            metrics["trace.overhead_ratio"] = (_ratio(traced_wall - plain_wall, plain_wall), "ratio")
        code, _, out = self.probe(["kernels"], "kernels")
        if code == 0:
            for name, value in json.loads(out.strip().splitlines()[-1]).items():
                metrics[name] = (value, _unit(name))
        else:
            # Counted as one more failed run, so the result reads incorrect.
            self.runs.append(Run(False, code, 0.0, 0.0, 0.0,
                                 errors=[f"kernel probe exited {code}: {out.strip()[-500:]}"]))
        return metrics


def _unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), (".us_per_call", "us"), (".ms_per_call", "ms"),
                         (".us_per_iter", "us"), (".rows", "count"), (".calls", "count"),
                         (".pairs", "count"), (".steps", "count"), (".iterations", "count"),
                         ("flops_computed", "flop"), ("bytes_computed", "B")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the running child's process group
    # is killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "bezier_mopt" / "cli.py").is_file():
        print(f"perfbench: no bezier_mopt sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        setup_errors = bench.measure_setup()
        if setup_errors:
            print("perfbench: " + "; ".join(setup_errors), file=sys.stderr)
            return 3
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}: bezier-mopt "
              + " ".join(bench.workload.cli_args(args.seed, "OUT")), flush=True)
        bench.measure()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
        print("environment " + json.dumps(bench.environment(), sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    failed = sum(1 for r in bench.runs if r.errors)
    print(json.dumps({"correct": failed == 0, "attempted": len(bench.runs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
