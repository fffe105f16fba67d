"""Command-line front end.

Subcommands: solve (one optimizer run), experiment (multi-trial metric
sweeps), baseline (scalarization-sweep pipeline), sample (draw points from
a model file), metrics (indicators between files), diagnostics (stability
probes). Every option is declared once, in OPTIONS: its flag, its type,
its default, its lowest allowed value and the subcommands, or the modes of
a subcommand, that read it. The mode of diagnostics is its --mode, that of
metrics its --metric; an option of another mode is rejected. An argument
`@FILE` stands for the lines of FILE, one argument per line in flag
spelling, expanded before parsing; a later argument wins over an earlier
one, and an argument that begins with `@` is always read as a file. Exit
codes: 0 success, 2 configuration error, 3 runtime or numerical failure
(out of memory included); failures emit one JSON object on stderr.

The trials of each experiment sample count run as one lockstep stack. With
a worker pool the stack is split into one contiguous chunk per worker; the
pool size is --threads, else the hardware thread count, and never more
than the chunks to run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .bezier import BezierSimplex, SingularFitError, fit_least_squares, load_model
from .diagnostics import (TEST_GRID_VERSION, perturbation_experiment,
                          repeat_generalization_gap, stability_summary)
from .metrics import gd, igd, model_samples, mse
from .problems import get_problem
from .simplex import enumerate_multi_indices, sample_uniform_simplex
from .solver import (METRIC_STREAM, SolverAbort, SolverConfig, derive_seed,
                     run_surface_gd, run_surface_gd_trials, trial_seeds)
from .sweep import pareto_set_sweep, triangular_lattice, minimize_scalarizations

# Each metric an experiment can report, with the trials.csv columns it fills.
METRIC_COLUMNS = {"mse": ["mse"], "gd": ["gd"], "igd": ["igd"], "diagnostics": [
    "lambda_min_min", "ztg_norm_max", "ztg_bound_ok", "basis_norm_ok"]}


class ConfigError(ValueError):
    """Bad configuration: wrong names, invalid ranges, malformed files."""


class PipelineError(RuntimeError):
    """Runtime or numerical failure inside an otherwise valid run."""


# ---------------------------------------------------------------------------
# Small I/O helpers.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def write_csv(path, header, rows, preamble: dict) -> None:
    """CSV with LF endings, '.' decimals, 17 significant digits.

    The resolved configuration `preamble` is embedded as a single
    '#'-prefixed comment line above the header.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(preamble, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err


def _load_model_file(path) -> BezierSimplex:
    try:
        return load_model(path)
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"cannot load model {path}: {err}") from err


def _initial_control_points(path):
    """Control points of an --initial-model file; None for "zero"."""
    return None if path == "zero" else _load_model_file(path).control_points


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _parse_metrics(value, known=METRIC_COLUMNS) -> list[str]:
    """Metric names from a comma list or a sequence, each one of `known`."""
    parts = value.split(",") if isinstance(value, str) else value
    names = [str(part).strip().lower() for part in parts if str(part).strip()]
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown metric {name!r}; known: {', '.join(known)}")
    return names


def _resolve_problem(name, metric_names=()):
    """The registered problem `name`; mse in `metric_names` needs its analytical map."""
    if name is None:
        raise ConfigError("no problem given: set --problem")
    try:
        problem = get_problem(str(name))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    if "mse" in metric_names and problem.pareto_map is None:
        raise ConfigError(f"problem {problem.name} has no analytical map for mse")
    return problem


# ---------------------------------------------------------------------------
# The option table and its resolver.
# ---------------------------------------------------------------------------

SOLVERS = ("solve", "experiment", "diagnostics")
# One row per option: flag, argparse dest, type, default, lowest allowed
# value (None: unchecked), scopes, help. A scope is a subcommand, or a
# subcommand and a mode, the value of its choice option: "diagnostics
# perturb" reads the row only with --mode perturb. The int and float flags
# are typed by argparse; any other type converts the flag text after
# parsing, and a tuple type lists the choices. A default of ... marks a
# required flag.
OPTIONS = (
    ("--mode", "mode", ("perturb", "gengap"), ..., None, ("diagnostics",), "probe to run"),
    ("--metric", "metric", ("gd", "igd", "mse"), ..., None, ("metrics",), "indicator"),
    ("--problem", "problem", str, None, None, ("solve", "experiment", "baseline"),
     "problem registry name"),
    ("--problem", "problem", str, "scaled-med", None, ("diagnostics",), "problem registry name"),
    ("--problem", "problem", str, ..., None, ("metrics mse",), "problem registry name"),
    ("--n", "num_samples", int, 30, 1, ("solve", "diagnostics"), "samples per iteration"),
    ("--n", "num_samples", _int_list, [30], None, ("experiment",),
     "comma list of samples per iteration"),
    ("--n", "n", int, ..., 1, ("sample",), "rows to draw"),
    ("--k", "iterations", int, 1000, 1, SOLVERS, "iteration count"),
    ("--degree", "degree", int, 3, 1, SOLVERS + ("baseline",), "model degree"),
    ("--seed", "seed", int, 0, 0, SOLVERS + ("baseline", "sample", "metrics mse"), "root seed"),
    ("--schedule", "schedule", str, "1/k", None, SOLVERS, 'step schedule: "1/k" or "const:<v>"'),
    ("--resample-retries", "resample_retries", int, 5, 0, SOLVERS, "redraws of a singular sample"),
    ("--initial-model", "initial_model", str, "zero", None, SOLVERS, 'start model JSON or "zero"'),
    ("--trials", "trials", int, 20, 1, ("experiment", "diagnostics gengap"), "seeded trials"),
    ("--metrics", "metrics", _parse_metrics, ["mse"], None, ("experiment", "baseline"),
     "comma list of mse, gd, igd and (experiment only) diagnostics"),
    ("--mse-samples", "mse_samples", int, 10000, 1, ("experiment", "baseline"), "mse weights"),
    ("--validation-count", "validation_count", int, 1000, 1, ("experiment", "baseline"),
     "weights of the gd/igd validation sweep"),
    ("--threads", "threads", int, os.cpu_count() or 1, 1, ("experiment",), "worker processes"),
    ("--population", "population", int, 100, 1, ("baseline",), "lattice size"),
    ("--compare-with", "compare_with", str, None, None, ("baseline",), "aggregate JSON to embed"),
    ("--perturb-iteration", "perturb_iteration", int, None, 1, ("diagnostics perturb",),
     "iteration whose sample gets one weight replaced (default: k // 2)"),
    ("--repeats", "repeats", int, 10, 1, ("diagnostics perturb",), "perturbations"),
    ("--holdout", "holdout", int, 10000, 1, ("diagnostics gengap",), "held-out weights"),
    ("--model", "model", str, ..., None, ("sample", "metrics mse"), "model JSON"),
    ("--x-file", "x_file", str, ..., None, ("metrics gd", "metrics igd"), "points CSV"),
    ("--y-file", "y_file", str, ..., None, ("metrics gd", "metrics igd"), "reference points CSV"),
    ("--count", "count", int, 10000, 1, ("metrics mse",), "mse weights"),
    ("--out", "out", str, ..., None, ("solve", "sample"), "output path"),
    ("--out", "out", str, None, None, ("metrics",), "report JSON output path"),
    ("--trace", "trace", str, None, None, ("solve",), "trace JSON output path"),
    ("--out-dir", "out_dir", str, ".", None, ("experiment", "baseline", "diagnostics"),
     "output directory"),
)
# Table defaults by dest; run_experiment takes its defaults from here.
DEFAULTS = {dest: default for _, dest, _, default, *_ in OPTIONS}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Sets every option that `args.command` reads in its mode to its flag
    value if given, else its table default. A given value is converted by
    the row's type and checked against its lowest value. An option of
    another mode of the command and a required option of the mode left out
    are rejected."""
    command = args.command
    mode = " ".join([command] + [getattr(args, row[1]) for row in OPTIONS
                                 if command in row[5] and isinstance(row[2], tuple)])
    rows = [row for row in OPTIONS if {command, mode} & set(row[5])]
    for row in OPTIONS:
        flag, dest, *_, scopes, _ = row
        if (row not in rows and any(scope.split()[0] == command for scope in scopes)
                and getattr(args, dest) is not None):
            raise ConfigError(f"{mode} does not read {flag}")
    for flag, dest, kind, default, lowest, *_ in rows:
        value = getattr(args, dest)
        if isinstance(value, str) and "\0" in value:
            raise ConfigError(f"{dest} holds a NUL character")
        if value is None and default is ...:
            raise ConfigError(f"{mode} needs {flag}")
        if value is None:
            value = default
        elif not isinstance(kind, tuple):
            try:
                value = kind(value)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"{dest}: cannot read {value!r}: {err}") from err
            if lowest is not None and not lowest <= value < np.inf:
                raise ConfigError(f"{dest} must be a finite number >= {lowest}, got {value!r}")
        setattr(args, dest, value)
    return args


def _validated(config: SolverConfig, problem) -> SolverConfig:
    """`config`, once `SolverConfig.validate` accepts it for `problem`."""
    try:
        config.validate(problem)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return config


def _solver_config(ns, problem) -> SolverConfig:
    """The validated configuration of a single run (solve, diagnostics)."""
    return _validated(SolverConfig(
        num_samples=ns.num_samples, num_iterations=ns.iterations, degree=ns.degree,
        seed=ns.seed, step_schedule=ns.schedule, resample_retries=ns.resample_retries,
        initial_control_points=_initial_control_points(ns.initial_model)), problem)


def _model_payload(model: BezierSimplex, config_echo: dict) -> dict:
    payload = model.to_dict()
    payload["version"] = __version__
    payload["config"] = config_echo
    return payload


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(ns) -> int:
    problem = _resolve_problem(ns.problem)
    solver_cfg = _solver_config(ns, problem)
    try:
        model, record = run_surface_gd(problem, solver_cfg)
    except SolverAbort as err:
        raise PipelineError(json.dumps(err.payload)) from err

    echo = solver_cfg.echo()
    echo["problem"] = problem.name
    write_json(ns.out, _model_payload(model, echo))
    if ns.trace is not None:
        trace = record.to_dict()
        trace["version"] = __version__
        trace["footer"]["problem"] = problem.name
        write_json(ns.trace, trace)
    print(f"wrote model to {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _scores(model, problem, metric_names, seed, mse_samples, validation_count,
            reference) -> dict:
    """The requested mse, gd and igd of a fitted model under a run seed.

    mse averages over weights drawn from (seed, METRIC_STREAM, 0); gd and
    igd compare `validation_count` model samples, drawn from (seed,
    METRIC_STREAM, 1), with the `reference` points."""
    scores = {}
    if "mse" in metric_names:
        scores["mse"] = mse(model, problem.pareto_map, mse_samples,
                            seed=derive_seed(seed, METRIC_STREAM, 0))
    if "gd" in metric_names or "igd" in metric_names:
        samples = model_samples(model, validation_count,
                                seed=derive_seed(seed, METRIC_STREAM, 1))
        if "gd" in metric_names:
            scores["gd"] = gd(samples, reference)
        if "igd" in metric_names:
            scores["igd"] = igd(samples, reference)
    return scores


def _experiment_trial(problem_name, metric_names, mse_samples, validation_count,
                      validation_points, job) -> list[dict]:
    """A job of one cell, its configuration and a chunk of its trials as
    (trial, seed) pairs: one lockstep run of their seeds, then each trial's
    requested metrics. Returns one plain dict per trial so the worker pool
    can ship the rows across processes."""
    problem = get_problem(problem_name)
    solver_cfg, trials = job
    outcomes = run_surface_gd_trials(problem, solver_cfg, [seed for _, seed in trials])
    rows = []
    for (trial, seed), outcome in zip(trials, outcomes):
        row = {"problem": problem.name, "n": solver_cfg.num_samples,
               "trial": trial, "seed": seed, "status": "ok", "error": ""}
        rows.append(row)
        if isinstance(outcome, SolverAbort):
            row["status"] = "failed"
            row["error"] = str(outcome)
            continue
        model, record = outcome
        row.update(_scores(model, problem, metric_names, seed, mse_samples,
                           validation_count, validation_points))
        if "diagnostics" in metric_names:
            summary = stability_summary(record)
            row.update({column: summary[column] for column in METRIC_COLUMNS["diagnostics"]})
    return rows


def run_experiment(problem_name: str, n_values, trials: int, root_seed: int,
                   metric_names, iterations: int = DEFAULTS["iterations"],
                   degree: int = DEFAULTS["degree"], schedule: str = DEFAULTS["schedule"],
                   resample_retries: int = DEFAULTS["resample_retries"],
                   mse_samples: int = DEFAULTS["mse_samples"],
                   validation_count: int = DEFAULTS["validation_count"],
                   threads: int = 1, initial_control_points=None) -> dict:
    """Library entry point behind `experiment`: runs the full grid and
    returns {"rows": per-trial dicts, "aggregate": summary dict}.

    Every trial starts from `initial_control_points`, or from the zero
    model when it is None. The trials of each sample count run as one
    lockstep stack, or, with a worker pool, as one contiguous chunk of the
    stack per worker; the rows are the same either way."""
    metric_names = _parse_metrics(metric_names)
    problem = _resolve_problem(problem_name, metric_names)
    for name, count in (("trials", trials), ("sample counts", len(n_values)),
                        ("mse_samples", mse_samples), ("validation_count", validation_count)):
        if count < 1:
            raise ConfigError(f"{name} must be >= 1, got {count}")
    if len(set(map(int, n_values))) < len(n_values):
        raise ConfigError(f"sample counts repeat: {list(n_values)}")
    # One validated configuration per sample count; its seed is unused, as
    # each trial runs with its own.
    cell_configs = [_validated(SolverConfig(
        num_samples=int(n), num_iterations=iterations, degree=degree, seed=0,
        step_schedule=schedule, initial_control_points=initial_control_points,
        resample_retries=resample_retries), problem) for n in n_values]
    validation_points = None
    if "gd" in metric_names or "igd" in metric_names:
        validation_points = pareto_set_sweep(problem, validation_count).converged_points

    seeded = list(enumerate(trial_seeds(root_seed, trials)))
    chunks = np.array_split(np.arange(trials), min(max(threads, 1), trials))
    jobs = [(config, [seeded[trial] for trial in chunk])
            for config in cell_configs for chunk in chunks]
    run_chunk = functools.partial(_experiment_trial, str(problem_name), metric_names,
                                  mse_samples, validation_count, validation_points)

    if threads > 1 and len(jobs) > 1:
        # The pool forks all its workers at once, so it gets no more than jobs.
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            chunk_rows = list(pool.map(run_chunk, jobs))
    else:
        chunk_rows = [run_chunk(job) for job in jobs]
    rows = [row for chunk in chunk_rows for row in chunk]

    aggregate = {"problem": problem.name, "version": __version__,
                 "trials": trials, "root_seed": root_seed,
                 "metrics": metric_names, "settings": []}
    for n in n_values:
        group = [r for r in rows if r["n"] == int(n)]
        ok = [r for r in group if r["status"] == "ok"]
        entry = {"n": int(n), "completed": len(ok), "failed": len(group) - len(ok)}
        if len(ok) < len(group):
            entry["warning"] = "failed trials excluded from aggregates"
        for metric in ("mse", "gd", "igd"):
            if metric in metric_names and ok:
                values = np.array([r[metric] for r in ok])
                entry[metric] = {"mean": float(values.mean()),
                                 "std": float(values.std(ddof=0)),
                                 "degenerate_std": len(values) == 1,
                                 "values": [float(v) for v in values]}
        aggregate["settings"].append(entry)
    return {"rows": rows, "aggregate": aggregate}


def cmd_experiment(ns) -> int:
    initial_control_points = _initial_control_points(ns.initial_model)
    config_echo = {key: getattr(ns, key) for key in (
        "problem", "trials", "seed", "metrics", "iterations", "degree", "schedule",
        "mse_samples", "validation_count")}
    config_echo.update(command="experiment", version=__version__, n_values=ns.num_samples)
    if initial_control_points is not None:
        config_echo["initial_model"] = ns.initial_model
    result = run_experiment(
        ns.problem, ns.num_samples, ns.trials, ns.seed, ns.metrics,
        iterations=ns.iterations, degree=ns.degree, schedule=ns.schedule,
        resample_retries=ns.resample_retries, mse_samples=ns.mse_samples,
        validation_count=ns.validation_count, threads=ns.threads,
        initial_control_points=initial_control_points)

    os.makedirs(ns.out_dir, exist_ok=True)
    columns = ["problem", "n", "trial", "seed", "status"]
    columns += [column for name, names in METRIC_COLUMNS.items() if name in ns.metrics
                for column in names] + ["error"]
    csv_path = os.path.join(ns.out_dir, "trials.csv")
    write_csv(csv_path, columns,
              [[row.get(c, "") for c in columns] for row in result["rows"]],
              preamble=config_echo)
    agg_path = os.path.join(ns.out_dir, "aggregate.json")
    payload = result["aggregate"]
    payload["config"] = config_echo
    write_json(agg_path, payload)
    print(f"wrote {csv_path} and {agg_path}")
    return 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def cmd_baseline(ns) -> int:
    metric_names = _parse_metrics(ns.metrics, known=("mse", "gd", "igd"))
    problem = _resolve_problem(ns.problem, metric_names)
    validation_count = ns.validation_count if {"gd", "igd"} & set(metric_names) else None
    comparison = (None if ns.compare_with is None
                  else _read_json(ns.compare_with, "comparison file"))

    basis = enumerate_multi_indices(problem.num_objectives, ns.degree)
    if ns.population < basis.size:
        raise ConfigError(
            f"--population {ns.population} is below the basis size {basis.size} for "
            f"degree {ns.degree} with {problem.num_objectives} objectives")

    # Every weight descends on its own, so one call serves the population
    # lattice and, for gd/igd, the validation lattice stacked below it.
    lattices = [triangular_lattice(problem.num_objectives, count)
                for count in (ns.population, validation_count) if count is not None]
    sweep, reference_sweep = minimize_scalarizations(
        problem, np.vstack(lattices)).split(ns.population)

    n_ok = int(sweep.converged.sum())
    if n_ok < basis.size:
        raise PipelineError(
            f"only {n_ok} of {ns.population} sweep points converged; "
            f"fitting degree {ns.degree} needs at least {basis.size}")

    model = fit_least_squares(sweep.converged_weights, sweep.converged_points, basis)

    config_echo = {
        "command": "baseline", "version": __version__,
        "method": "scalarization-sweep baseline (deterministic substitute "
                  "for an evolutionary baseline)",
        "problem": problem.name, "population": ns.population, "degree": ns.degree,
        "seed": ns.seed, "metrics": metric_names,
    }
    report = {
        "config": config_echo,
        "converged": n_ok,
        "non_converged": ns.population - n_ok,
        "non_converged_lattice_indices":
            np.nonzero(~sweep.converged)[0].tolist(),
    }
    for status in ("cusp", "diverged", "stalled"):
        report[f"{status}_lattice_indices"] = np.nonzero(sweep.status == status)[0].tolist()
    reference = reference_sweep.converged_points
    report.update(_scores(model, problem, metric_names, ns.seed, ns.mse_samples,
                          validation_count, reference))

    if comparison is not None:
        report["proposed_comparison"] = comparison

    os.makedirs(ns.out_dir, exist_ok=True)
    model_path = os.path.join(ns.out_dir, "baseline_model.json")
    write_json(model_path, _model_payload(model, config_echo))
    report_path = os.path.join(ns.out_dir, "baseline_report.json")
    write_json(report_path, report)
    print(f"wrote {model_path} and {report_path}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(ns) -> int:
    model = _load_model_file(ns.model)
    weights = sample_uniform_simplex(model.num_objectives, ns.n, ns.seed)
    points = model.evaluate_batch(weights)
    header = [f"t_{i+1}" for i in range(model.num_objectives)] + \
             [f"x_{i+1}" for i in range(model.ambient_dim)]
    rows = [list(w) + list(x) for w, x in zip(weights, points)]
    write_csv(ns.out, header, rows,
              preamble={"command": "sample", "version": __version__,
                        "model": ns.model, "n": ns.n, "seed": ns.seed})
    print(f"wrote {ns.out}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _read_points_csv(path) -> np.ndarray:
    """Points from a CSV file with a header row: uses the x_* columns when
    present (sample output format), otherwise every column. Every data row
    has one cell per column, and every cell read holds a finite number."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"{path} holds no data")
    reader = csv.reader(lines)
    header = next(reader)
    try:
        list(map(float, header))
    except ValueError:
        pass  # a header row
    else:
        raise ConfigError(f"{path} has no header row: its first line is all numbers")
    cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    if not cols:
        cols = list(range(len(header)))
    rows = []
    for number, parsed in enumerate(reader, start=1):
        try:
            if len(parsed) != len(header):
                raise ValueError(f"{len(parsed)} cells under {len(header)} columns")
            rows.append([float(parsed[i]) for i in cols])
            if not np.isfinite(rows[-1]).all():
                raise ValueError("a cell is not finite")
        except ValueError as err:
            raise ConfigError(f"{path}: data row {number} is not {len(cols)} "
                              f"finite numbers: {err}") from err
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    return np.array(rows)


def cmd_metrics(ns) -> int:
    metric = ns.metric
    report = {"command": "metrics", "version": __version__, "metric": metric}
    if metric in ("gd", "igd"):
        x = _read_points_csv(ns.x_file)
        y = _read_points_csv(ns.y_file)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
                value = gd(x, y) if metric == "gd" else igd(x, y)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        report.update({"x_file": ns.x_file, "y_file": ns.y_file, "value": value})
    else:
        problem = _resolve_problem(ns.problem, [metric])
        model = _load_model_file(ns.model)
        if (model.num_objectives, model.ambient_dim) != (problem.num_objectives,
                                                         problem.num_vars):
            raise ConfigError(f"model {ns.model} does not fit problem {problem.name}")
        with np.errstate(over="ignore", invalid="ignore"):
            value = mse(model, problem.pareto_map, ns.count, seed=ns.seed)
        report.update({"model": ns.model, "problem": problem.name,
                       "count": ns.count, "seed": ns.seed, "value": value})
    if not np.isfinite(value):  # finite inputs can still overflow
        raise PipelineError(f"{metric} overflowed to {value}")
    text = json.dumps(report, indent=2, sort_keys=True)
    if ns.out is not None:
        write_json(ns.out, report)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cmd_diagnostics(ns) -> int:
    problem = _resolve_problem(ns.problem)
    solver_cfg = _solver_config(ns, problem)

    if ns.mode == "perturb":
        k = ns.perturb_iteration or max(1, solver_cfg.num_iterations // 2)
        try:
            reports = perturbation_experiment(problem, solver_cfg, k, ns.repeats)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        os.makedirs(ns.out_dir, exist_ok=True)
        echo = {"command": "diagnostics", "mode": "perturb", "version": __version__,
                "problem": problem.name, "perturb_iteration": k, "repeats": ns.repeats,
                "grid_version": TEST_GRID_VERSION, "config": solver_cfg.echo()}
        csv_path = os.path.join(ns.out_dir, "perturbation.csv")
        write_csv(csv_path, ["k", "n", "repeat", "sup_gap", "frob_gap", "bound_value"],
                  [(r.iteration, solver_cfg.num_samples, r.repeat, r.sup_gap, r.frob_gap,
                    r.bound_value) for r in reports],
                  preamble=echo)
        json_path = os.path.join(ns.out_dir, "perturbation.json")
        write_json(json_path, {"config": echo,
                               "reports": [r.to_dict() for r in reports]})
        print(f"wrote {csv_path} and {json_path}")
        return 0

    # gengap
    try:
        report = repeat_generalization_gap(problem, solver_cfg, ns.holdout, ns.trials)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    report["version"] = __version__
    os.makedirs(ns.out_dir, exist_ok=True)
    json_path = os.path.join(ns.out_dir, "generalization_gap.json")
    write_json(json_path, report)
    print(f"wrote {json_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line or unopenable @FILE as the JSON error, exit 2."""

    def error(self, message):
        self.exit(2, _error_json("config", message) + "\n")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand, holding the OPTIONS rows it reads."""
    parser = _Parser(
        prog="bezier-mopt", fromfile_prefix_chars="@", allow_abbrev=False,
        description="Multi-objective optimization via iterative Bezier-simplex fitting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, about in (
            ("solve", cmd_solve, "one optimizer run; writes a model file"),
            ("experiment", cmd_experiment, "multi-trial metric sweep"),
            ("baseline", cmd_baseline, "scalarization-sweep baseline pipeline"),
            ("sample", cmd_sample, "draw (weight, point) rows from a model file"),
            ("metrics", cmd_metrics, "indicators between existing files"),
            ("diagnostics", cmd_diagnostics, "stability probes")):
        p = sub.add_parser(name, help=about, allow_abbrev=False)
        p.set_defaults(func=func)
        for flag, dest, kind, default, _, scopes, text in OPTIONS:
            if name in {scope.split()[0] for scope in scopes}:
                p.add_argument(flag, dest=dest, help=text,
                               required=default is ... and name in scopes,
                               type=kind if kind in (int, float) else None,
                               choices=kind if isinstance(kind, tuple) else None)
    return parser


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message,
                                 "version": __version__}})


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except (ValueError, RecursionError) as err:  # an @FILE name with a NUL, bytes or a loop
        parser.error(f"cannot read an @FILE argument: {err}")
    try:
        return args.func(_resolve(args))
    except ConfigError as err:
        print(_error_json("config", str(err)), file=sys.stderr)
        return 2
    except (PipelineError, SolverAbort, SingularFitError, MemoryError) as err:
        print(_error_json("runtime", str(err) or repr(err)), file=sys.stderr)
        return 3
    except OSError as err:
        print(_error_json("io", str(err)), file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
