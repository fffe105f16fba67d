"""Command-line front end.

Subcommands: solve (one optimizer run), experiment (multi-trial metric
sweeps), baseline (scalarization-sweep pipeline), sample (draw points from
a model file), metrics (indicators between files), diagnostics (stability
probes). Batch-oriented: configuration comes from an optional JSON config
file plus flags, flags win. Exit codes: 0 success, 2 configuration error,
3 runtime or numerical failure; failures emit one JSON object on stderr.

The trials of each experiment sample count run as one lockstep stack. With
a worker pool the stack is split into one contiguous chunk per worker; the
pool size comes from the BEZIER_MOPT_THREADS environment variable when set,
else the --threads flag, else the hardware thread count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .bezier import BezierSimplex, SingularFitError, fit_least_squares, load_model
from .diagnostics import (perturbation_csv_rows, perturbation_experiment,
                          repeat_generalization_gap, stability_summary)
from .metrics import gd, igd, model_samples, mse
from .problems import get_problem
from .simplex import sample_uniform_simplex
from .solver import (METRIC_STREAM, TRIAL_STREAM, SolverAbort, SolverConfig,
                     derive_seed, run_surface_gd, run_surface_gd_trials)
from .sweep import (DEFAULT_GRAD_TOL, DEFAULT_MAX_STEPS, pareto_set_sweep,
                    triangular_lattice, minimize_scalarizations)

KNOWN_METRICS = ("mse", "gd", "igd", "diagnostics")


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


def write_csv(path, header, rows, preamble: dict | None = None) -> None:
    """CSV with LF endings, '.' decimals, 17 significant digits.

    When given, the resolved configuration is embedded as a single
    '#'-prefixed comment line above the header.
    """
    with open(path, "w", newline="") as fh:
        if preamble is not None:
            fh.write("# " + json.dumps(preamble, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _pick(args, cfg: dict, key: str, default=None, kind=None):
    """Flag value if given, else config-file value, else default; passed
    through `kind` when given, a value it rejects being a ConfigError."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    if kind is None or value is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from err


def _root_seed(args, cfg) -> int:
    seed = _pick(args, cfg, "seed", 0, int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _load_model_file(path) -> BezierSimplex:
    try:
        return load_model(path)
    except (OSError, ValueError, TypeError) as err:
        raise ConfigError(f"cannot load model {path}: {err}") from err


def _initial_control_points(args, cfg):
    """Control points of the --initial-model file, or None to start from
    the zero model."""
    initial = _pick(args, cfg, "initial_model")
    if initial in (None, "zero"):
        return None
    return _load_model_file(initial).control_points


def _thread_count(args, cfg) -> int:
    env = os.environ.get("BEZIER_MOPT_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"BEZIER_MOPT_THREADS={env!r} is not an integer")
    return max(1, _pick(args, cfg, "threads", os.cpu_count() or 1, int))


def _parse_int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _parse_metrics(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        names = [str(v).strip().lower() for v in value]
    else:
        names = [part.strip().lower() for part in str(value).split(",") if part.strip()]
    for name in names:
        if name not in KNOWN_METRICS:
            raise ConfigError(f"unknown metric {name!r}; known: {', '.join(KNOWN_METRICS)}")
    return names


def _resolve_problem(name):
    try:
        return get_problem(str(name))
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _solver_config(args, cfg, seed, num_samples) -> SolverConfig:
    return SolverConfig(
        num_samples=int(num_samples),
        num_iterations=_pick(args, cfg, "iterations", 1000, int),
        degree=_pick(args, cfg, "degree", 3, int),
        seed=int(seed),
        step_schedule=str(_pick(args, cfg, "schedule", "1/k")),
        initial_control_points=_initial_control_points(args, cfg),
        resample_retries=_pick(args, cfg, "resample_retries", 5, int),
    )


def _model_payload(model: BezierSimplex, config_echo: dict) -> dict:
    payload = model.to_dict()
    payload["version"] = __version__
    payload["config"] = config_echo
    return payload


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _load_config_file(args.config)
    problem = _resolve_problem(_pick(args, cfg, "problem"))
    seed = _pick(args, cfg, "seed", 0, int)
    num_samples = _pick(args, cfg, "num_samples", 30, int)
    solver_cfg = _solver_config(args, cfg, seed, num_samples)
    try:
        solver_cfg.validate(problem)
    except ValueError as err:
        raise ConfigError(str(err)) from err

    try:
        model, record = run_surface_gd(problem, solver_cfg)
    except SolverAbort as err:
        raise PipelineError(json.dumps(err.payload)) from err

    echo = solver_cfg.echo()
    echo["problem"] = problem.name
    write_json(args.out, _model_payload(model, echo))
    if args.trace is not None:
        trace = record.to_dict()
        trace["version"] = __version__
        trace["footer"]["problem"] = problem.name
        write_json(args.trace, trace)
    print(f"wrote model to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------

def _experiment_trial(job: dict) -> list[dict]:
    """A chunk of one cell's trials: one lockstep run of their seeds, then
    each trial's requested metrics. Returns one plain dict per trial so the
    worker pool can ship the rows across processes."""
    problem = get_problem(job["problem"])
    solver_cfg = job["config"]
    trials = job["trials"]
    outcomes = run_surface_gd_trials(problem, solver_cfg, [seed for _, seed in trials])
    rows = []
    for (trial, seed), outcome in zip(trials, outcomes):
        row = {"problem": job["problem"], "n": solver_cfg.num_samples,
               "trial": trial, "seed": seed, "status": "ok", "error": ""}
        rows.append(row)
        if isinstance(outcome, SolverAbort):
            row["status"] = "failed"
            row["error"] = str(outcome)
            continue
        model, record = outcome
        if "mse" in job["metrics"]:
            row["mse"] = mse(model, problem.pareto_map, job["mse_samples"],
                             seed=derive_seed(seed, METRIC_STREAM, 0))
        if "gd" in job["metrics"] or "igd" in job["metrics"]:
            reference = np.asarray(job["validation_points"])
            samples = model_samples(model, job["validation_count"],
                                    seed=derive_seed(seed, METRIC_STREAM, 1))
            if "gd" in job["metrics"]:
                row["gd"] = gd(samples, reference)
            if "igd" in job["metrics"]:
                row["igd"] = igd(samples, reference)
        if "diagnostics" in job["metrics"]:
            summary = stability_summary(record)
            row["lambda_min_min"] = summary["lambda_min_min"]
            row["ztg_norm_max"] = summary["ztg_norm_max"]
            row["ztg_bound_ok"] = summary["ztg_bound_ok"]
            row["basis_norm_ok"] = summary["basis_norm_ok"]
    return rows


def _metric_columns(metric_names) -> list[str]:
    cols = []
    if "mse" in metric_names:
        cols.append("mse")
    if "gd" in metric_names:
        cols.append("gd")
    if "igd" in metric_names:
        cols.append("igd")
    if "diagnostics" in metric_names:
        cols += ["lambda_min_min", "ztg_norm_max", "ztg_bound_ok", "basis_norm_ok"]
    return cols


def run_experiment(problem_name: str, n_values, trials: int, root_seed: int,
                   metric_names, iterations: int = 1000, degree: int = 3,
                   schedule: str = "1/k", resample_retries: int = 5,
                   mse_samples: int = 10000, validation_count: int = 1000,
                   threads: int = 1, initial_control_points=None,
                   sweep_grad_tol: float = DEFAULT_GRAD_TOL,
                   sweep_max_steps: int = DEFAULT_MAX_STEPS) -> dict:
    """Library entry point behind `experiment`: runs the full grid and
    returns {"rows": per-trial dicts, "aggregate": summary dict}.

    Every trial starts from `initial_control_points`, or from the zero
    model when it is None. The trials of each sample count run as one
    lockstep stack, or, with a worker pool, as one contiguous chunk of the
    stack per worker; the rows are the same either way."""
    problem = _resolve_problem(problem_name)
    metric_names = _parse_metrics(metric_names)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not n_values:
        raise ConfigError("at least one sample count is required")
    if mse_samples < 1:
        raise ConfigError("mse samples must be >= 1")
    if validation_count < 1:
        raise ConfigError("validation count must be >= 1")
    if "mse" in metric_names and problem.pareto_map is None:
        raise ConfigError(f"problem {problem.name} has no analytical map for mse")
    # One validated configuration per sample count; its seed is unused, as
    # each trial runs with its own.
    cell_configs = []
    for n in n_values:
        config = SolverConfig(num_samples=int(n), num_iterations=iterations,
                              degree=degree, seed=0, step_schedule=schedule,
                              initial_control_points=initial_control_points,
                              resample_retries=resample_retries)
        try:
            config.validate(problem)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        cell_configs.append(config)
    validation_points = None
    if "gd" in metric_names or "igd" in metric_names:
        sweep = pareto_set_sweep(problem, validation_count,
                                 grad_tol=sweep_grad_tol, max_steps=sweep_max_steps)
        validation_points = sweep.converged_points.tolist()

    trial_seeds = [(trial, derive_seed(root_seed, TRIAL_STREAM, trial))
                   for trial in range(trials)]
    chunks = np.array_split(np.arange(trials), min(max(threads, 1), trials))
    jobs = []
    for config in cell_configs:
        for chunk in chunks:
            jobs.append({
                "problem": problem.name,
                "config": config,
                "trials": [trial_seeds[trial] for trial in chunk],
                "metrics": metric_names,
                "mse_samples": mse_samples,
                "validation_count": validation_count,
                "validation_points": validation_points,
            })

    if threads > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            chunk_rows = list(pool.map(_experiment_trial, jobs))
    else:
        chunk_rows = [_experiment_trial(job) for job in jobs]
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


def cmd_experiment(args) -> int:
    cfg = _load_config_file(args.config)
    problem_name = str(_pick(args, cfg, "problem"))
    n_values = _parse_int_list(_pick(args, cfg, "num_samples", "30"))
    trials = _pick(args, cfg, "trials", 20, int)
    root_seed = _root_seed(args, cfg)
    metric_names = _parse_metrics(_pick(args, cfg, "metrics", "mse"))
    initial_control_points = _initial_control_points(args, cfg)
    out_dir = _pick(args, cfg, "out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    config_echo = {
        "command": "experiment", "version": __version__,
        "problem": problem_name, "n_values": n_values, "trials": trials,
        "seed": root_seed, "metrics": metric_names,
        "iterations": _pick(args, cfg, "iterations", 1000, int),
        "degree": _pick(args, cfg, "degree", 3, int),
        "schedule": str(_pick(args, cfg, "schedule", "1/k")),
        "mse_samples": _pick(args, cfg, "mse_samples", 10000, int),
        "validation_count": _pick(args, cfg, "validation_count", 1000, int),
    }
    if initial_control_points is not None:
        config_echo["initial_model"] = str(_pick(args, cfg, "initial_model"))
    try:
        result = run_experiment(
            problem_name, n_values, trials, root_seed, metric_names,
            iterations=config_echo["iterations"], degree=config_echo["degree"],
            schedule=config_echo["schedule"],
            resample_retries=_pick(args, cfg, "resample_retries", 5, int),
            mse_samples=config_echo["mse_samples"],
            validation_count=config_echo["validation_count"],
            threads=_thread_count(args, cfg),
            initial_control_points=initial_control_points)
    except (SolverAbort, ValueError) as err:
        if isinstance(err, (ConfigError,)):
            raise
        raise PipelineError(str(err)) from err

    columns = ["problem", "n", "trial", "seed", "status"] + _metric_columns(metric_names) + ["error"]
    csv_path = os.path.join(out_dir, "trials.csv")
    write_csv(csv_path, columns,
              [[row.get(c, "") for c in columns] for row in result["rows"]],
              preamble=config_echo)
    agg_path = os.path.join(out_dir, "aggregate.json")
    payload = result["aggregate"]
    payload["config"] = config_echo
    write_json(agg_path, payload)
    print(f"wrote {csv_path} and {agg_path}")
    return 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

def cmd_baseline(args) -> int:
    cfg = _load_config_file(args.config)
    problem = _resolve_problem(_pick(args, cfg, "problem"))
    population = _pick(args, cfg, "population", 100, int)
    degree = _pick(args, cfg, "degree", 3, int)
    seed = _root_seed(args, cfg)
    metric_names = _parse_metrics(_pick(args, cfg, "metrics", "mse"))
    out_dir = _pick(args, cfg, "out_dir", ".")
    if population < 1:
        raise ConfigError("population must be >= 1")
    settings = {"grad_tol": _pick(args, cfg, "grad_tol", DEFAULT_GRAD_TOL, float),
                "max_steps": _pick(args, cfg, "max_steps", DEFAULT_MAX_STEPS, int)}
    if not 0.0 < settings["grad_tol"] < np.inf:
        raise ConfigError(f"grad_tol must be positive and finite, got {settings['grad_tol']}")
    if settings["max_steps"] < 1:
        raise ConfigError(f"max_steps must be >= 1, got {settings['max_steps']}")
    validation_count = None
    if "gd" in metric_names or "igd" in metric_names:
        validation_count = _pick(args, cfg, "validation_count", 1000, int)
        if validation_count < 1:
            raise ConfigError("validation count must be >= 1")
    comparison = None
    compare_with = _pick(args, cfg, "compare_with")
    if compare_with is not None:
        with open(compare_with) as fh:
            try:
                comparison = json.load(fh)
            except ValueError as err:
                raise ConfigError(f"cannot read comparison file {compare_with}: {err}") from err
    os.makedirs(out_dir, exist_ok=True)

    lattice = triangular_lattice(problem.num_objectives, population)
    # The validation set is always swept with the default settings. When the
    # population lattice is too, both lattices descend in one call.
    if validation_count is not None and settings == {"grad_tol": DEFAULT_GRAD_TOL,
                                                     "max_steps": DEFAULT_MAX_STEPS}:
        validation = triangular_lattice(problem.num_objectives, validation_count)
        sweep, reference_sweep = minimize_scalarizations(
            problem, np.vstack([lattice, validation]), **settings).split(population)
    else:
        sweep = minimize_scalarizations(problem, lattice, **settings)
        if validation_count is not None:
            reference_sweep = pareto_set_sweep(problem, validation_count)

    from .simplex import enumerate_multi_indices
    basis = enumerate_multi_indices(problem.num_objectives, degree)
    n_ok = int(sweep.converged.sum())
    if n_ok < basis.size:
        raise PipelineError(
            f"only {n_ok} of {population} sweep points converged; "
            f"fitting degree {degree} needs at least {basis.size}")

    model = fit_least_squares(sweep.converged_weights, sweep.converged_points, basis)

    config_echo = {
        "command": "baseline", "version": __version__,
        "method": "scalarization-sweep baseline (deterministic substitute "
                  "for an evolutionary baseline)",
        "problem": problem.name, "population": population, "degree": degree,
        "seed": seed, "metrics": metric_names,
    }
    report = {
        "config": config_echo,
        "converged": n_ok,
        "non_converged": population - n_ok,
        "non_converged_lattice_indices":
            np.nonzero(~sweep.converged)[0].tolist(),
    }
    for status in ("cusp", "diverged", "stalled"):
        report[f"{status}_lattice_indices"] = np.nonzero(sweep.status == status)[0].tolist()
    if "mse" in metric_names:
        if problem.pareto_map is None:
            report["mse"] = None
            report["mse_note"] = "problem has no analytical map"
        else:
            report["mse"] = mse(model, problem.pareto_map,
                                _pick(args, cfg, "mse_samples", 10000, int),
                                seed=derive_seed(seed, METRIC_STREAM, 0))
    if validation_count is not None:
        reference = reference_sweep.converged_points
        samples = model_samples(model, validation_count,
                                seed=derive_seed(seed, METRIC_STREAM, 1))
        if "gd" in metric_names:
            report["gd"] = gd(samples, reference)
        if "igd" in metric_names:
            report["igd"] = igd(samples, reference)

    if comparison is not None:
        report["proposed_comparison"] = comparison

    model_path = os.path.join(out_dir, "baseline_model.json")
    write_json(model_path, _model_payload(model, config_echo))
    report_path = os.path.join(out_dir, "baseline_report.json")
    write_json(report_path, report)
    print(f"wrote {model_path} and {report_path}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    model = _load_model_file(args.model)
    count = int(args.n)
    if count < 1:
        raise ConfigError("sample count must be >= 1")
    seed = _root_seed(args, {})
    weights = sample_uniform_simplex(model.num_objectives, count, seed)
    points = model.evaluate_batch(weights)
    header = [f"t_{i+1}" for i in range(model.num_objectives)] + \
             [f"x_{i+1}" for i in range(model.ambient_dim)]
    rows = [list(w) + list(x) for w, x in zip(weights, points)]
    write_csv(args.out, header, rows,
              preamble={"command": "sample", "version": __version__,
                        "model": str(args.model), "n": count, "seed": seed})
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _read_points_csv(path) -> np.ndarray:
    """Points from a CSV file: uses the x_* columns when present (sample
    output format), otherwise every column."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"{path} holds no data")
    reader = csv.reader(lines)
    header = next(reader)
    cols = [i for i, name in enumerate(header) if name.startswith("x_")]
    if not cols:
        cols = list(range(len(header)))
    rows = []
    for number, parsed in enumerate(reader, start=1):
        try:
            rows.append([float(parsed[i]) for i in cols])
        except (IndexError, ValueError) as err:
            raise ConfigError(f"{path}: data row {number} is not {len(cols)} "
                              f"numbers: {err}") from err
    if not rows:
        raise ConfigError(f"{path} holds no data rows")
    return np.array(rows)


def cmd_metrics(args) -> int:
    metric = args.metric
    report = {"command": "metrics", "version": __version__, "metric": metric}
    if metric in ("gd", "igd"):
        if args.x_file is None or args.y_file is None:
            raise ConfigError(f"{metric} needs --x-file and --y-file")
        x = _read_points_csv(args.x_file)
        y = _read_points_csv(args.y_file)
        try:
            value = gd(x, y) if metric == "gd" else igd(x, y)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        report.update({"x_file": args.x_file, "y_file": args.y_file, "value": value})
    else:
        if args.model is None or args.problem is None:
            raise ConfigError("mse needs --model and --problem")
        problem = _resolve_problem(args.problem)
        if problem.pareto_map is None:
            raise ConfigError(f"problem {problem.name} has no analytical map for mse")
        if args.count < 1:
            raise ConfigError("mse sample count must be >= 1")
        model = _load_model_file(args.model)
        seed = _root_seed(args, {})
        value = mse(model, problem.pareto_map, args.count, seed=seed)
        report.update({"model": args.model, "problem": problem.name,
                       "count": args.count, "seed": seed,
                       "value": value})
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out is not None:
        write_json(args.out, report)
    print(text)
    return 0


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cmd_diagnostics(args) -> int:
    cfg = _load_config_file(args.config)
    problem = _resolve_problem(_pick(args, cfg, "problem", "scaled-med"))
    seed = _pick(args, cfg, "seed", 0, int)
    num_samples = _pick(args, cfg, "num_samples", 30, int)
    solver_cfg = _solver_config(args, cfg, seed, num_samples)
    try:
        solver_cfg.validate(problem)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    out_dir = _pick(args, cfg, "out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)

    if args.mode == "perturb":
        k = _pick(args, cfg, "perturb_iteration", max(1, solver_cfg.num_iterations // 2), int)
        repeats = _pick(args, cfg, "repeats", 10, int)
        grid_version = str(_pick(args, cfg, "grid_version", "v1"))
        try:
            reports = perturbation_experiment(problem, solver_cfg, k, repeats,
                                              grid_version=grid_version)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        echo = {"command": "diagnostics", "mode": "perturb", "version": __version__,
                "problem": problem.name, "perturb_iteration": k, "repeats": repeats,
                "grid_version": grid_version, "config": solver_cfg.echo()}
        csv_path = os.path.join(out_dir, "perturbation.csv")
        write_csv(csv_path,
                  ["k", "n", "repeat", "sup_gap", "frob_gap", "bound_value"],
                  perturbation_csv_rows(reports, solver_cfg.num_samples),
                  preamble=echo)
        json_path = os.path.join(out_dir, "perturbation.json")
        write_json(json_path, {"config": echo,
                               "reports": [r.to_dict() for r in reports]})
        print(f"wrote {csv_path} and {json_path}")
        return 0

    # gengap
    holdout = _pick(args, cfg, "holdout", 10000, int)
    trials = _pick(args, cfg, "trials", 20, int)
    try:
        report = repeat_generalization_gap(problem, solver_cfg, holdout, trials)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    report["version"] = __version__
    json_path = os.path.join(out_dir, "generalization_gap.json")
    write_json(json_path, report)
    print(f"wrote {json_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.
# ---------------------------------------------------------------------------

def _add_solver_flags(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--problem", help="problem registry name")
    parser.add_argument("--n", dest="num_samples", help="samples per iteration")
    parser.add_argument("--k", dest="iterations", type=int, help="iteration count")
    parser.add_argument("--degree", type=int, help="model degree")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--schedule", help='step schedule: "1/k" or "const:<v>"')
    parser.add_argument("--resample-retries", dest="resample_retries", type=int)
    parser.add_argument("--initial-model", dest="initial_model",
                        help='model JSON to start from, or "zero"')


class _Parser(argparse.ArgumentParser):
    """Reports a command line it rejects as the JSON error object, exit 2."""

    def error(self, message):
        self.exit(2, _error_json("config", message) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bezier-mopt",
        description="Multi-objective optimization via iterative Bezier-simplex fitting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one optimizer run; writes a model file")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--trace", help="trace JSON output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("experiment", help="multi-trial metric sweep")
    _add_solver_flags(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--metrics", help="comma list: mse,gd,igd,diagnostics")
    p.add_argument("--mse-samples", dest="mse_samples", type=int)
    p.add_argument("--validation-count", dest="validation_count", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("baseline", help="scalarization-sweep baseline pipeline")
    _add_solver_flags(p)
    p.add_argument("--population", type=int, help="lattice size")
    p.add_argument("--metrics", help="comma list: mse,gd,igd")
    p.add_argument("--mse-samples", dest="mse_samples", type=int)
    p.add_argument("--validation-count", dest="validation_count", type=int)
    p.add_argument("--grad-tol", dest="grad_tol", type=float)
    p.add_argument("--max-steps", dest="max_steps", type=int)
    p.add_argument("--compare-with", dest="compare_with",
                   help="experiment aggregate JSON to embed side by side")
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sample", help="draw (weight, point) rows from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metrics", help="indicators between existing files")
    p.add_argument("--metric", choices=("gd", "igd", "mse"), required=True)
    p.add_argument("--x-file", dest="x_file")
    p.add_argument("--y-file", dest="y_file")
    p.add_argument("--model")
    p.add_argument("--problem")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("diagnostics", help="stability probes")
    p.add_argument("--mode", choices=("perturb", "gengap"), required=True)
    _add_solver_flags(p)
    p.add_argument("--perturb-iteration", dest="perturb_iteration", type=int,
                   help="iteration whose sample gets one weight replaced")
    p.add_argument("--repeats", type=int)
    p.add_argument("--grid-version", dest="grid_version",
                   help="versioned sup-gap weight grid (default v1)")
    p.add_argument("--holdout", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.set_defaults(func=cmd_diagnostics)

    return parser


def _error_json(kind: str, message: str) -> str:
    return json.dumps({"error": {"type": kind, "message": message,
                                 "version": __version__}})


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(_error_json("config", str(err)), file=sys.stderr)
        return 2
    except (PipelineError, SolverAbort, SingularFitError) as err:
        print(_error_json("runtime", str(err)), file=sys.stderr)
        return 3
    except OSError as err:
        print(_error_json("io", str(err)), file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
