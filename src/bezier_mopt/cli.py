"""Command-line front end.

Subcommands: solve (one optimizer run), experiment (multi-trial metric
sweeps), baseline (scalarization-sweep pipeline), sample (draw points from
a model file), metrics (indicators between files), diagnostics (stability
probes). A subcommand resolves its options, calls the library and writes
its files; the experiment grid is `diagnostics.run_experiment`. Every
option is declared once, in OPTIONS: its flag, its type, its default, its
lowest allowed value and the subcommands, or the modes of a subcommand,
that read it. The mode of diagnostics is its --mode, that of metrics its
--metric; an option of another mode is rejected. An argument `@FILE` stands
for the lines of FILE, one argument per line in flag spelling, expanded
before parsing; a later argument wins over an earlier one, and an argument
that begins with `@` is always read as a file. Exit codes: 0 success, 2
configuration error (the library's ConfigError, and an output location that
no run could write, caught before any work), 3 runtime or numerical failure
(out of memory included); failures emit one JSON object on stderr, whose
message is the JSON payload of a run's SolverAbort in every command.
An experiment's worker pool has --threads workers, else the hardware thread
count, never more than the chunks of trials to run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .bezier import BezierSimplex, SingularFitError, load_model
# The benchmark's setup probe calls the problem resolver as cli._resolve_problem.
from .diagnostics import (METRIC_COLUMNS, TEST_GRID_VERSION, parse_metrics,
                          perturbation_experiment, repeat_generalization_gap,
                          resolve_problem as _resolve_problem, run_baseline, run_experiment)
from .metrics import gd, igd, mse
from .simplex import sample_uniform_simplex
from .solver import ConfigError, SolverAbort, SolverConfig, run_surface_gd


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


def _write(ns, *contents) -> str:
    """Writes `contents` under --out-dir, which it creates, to the run's
    OUT_DIR_FILES in order: a dict as JSON, a (header, rows, preamble) triple
    as CSV. Returns the line that names the written paths."""
    os.makedirs(ns.out_dir, exist_ok=True)
    paths = [os.path.join(ns.out_dir, name) for name in OUT_DIR_FILES[ns.scope]]
    for path, content in zip(paths, contents):
        if isinstance(content, dict):
            write_json(path, content)
        else:
            write_csv(path, *content)
    return "wrote " + " and ".join(paths)


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
    ("--metrics", "metrics", parse_metrics, ["mse"], None, ("experiment", "baseline"),
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
# The files each scope that reads --out-dir writes there, in writing order.
OUT_DIR_FILES = {"experiment": ("trials.csv", "aggregate.json"),
                 "baseline": ("baseline_model.json", "baseline_report.json"),
                 "diagnostics perturb": ("perturbation.csv", "perturbation.json"),
                 "diagnostics gengap": ("generalization_gap.json",)}


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Sets `args.scope` to the mode of `args.command`, and every option the
    mode reads to its flag value if given, else its table default. A given
    value is converted by the row's type and checked against its lowest
    value. An option of another mode of the command and a required option
    of the mode left out are rejected, and so is an output location that no
    run could write: an empty path, a missing directory, a directory named
    as a file (an --out-dir file included), a file as a directory, and an
    output file that another path option names too."""
    command = args.command
    mode = args.scope = " ".join([command] + [getattr(args, row[1]) for row in OPTIONS
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
        if dest in ("out", "trace", "out_dir") and value == "":
            raise ConfigError(f"{flag} is an empty path")
        if dest in ("out", "trace") and value is not None:
            folder = os.path.dirname(value)
            if folder and not os.path.isdir(folder):
                raise ConfigError(f"{flag} {value}: directory {folder} does not exist")
        if dest == "out_dir":
            ancestor = value
            while ancestor and not os.path.exists(ancestor):
                ancestor = os.path.dirname(ancestor)
            if ancestor and not os.path.isdir(ancestor):
                raise ConfigError(f"{flag} {value}: {ancestor} exists and is not a directory")
        setattr(args, dest, value)
    # Every output must be writable as a file, and no output may name the
    # file of another path option of the run.
    paths = [(flag, getattr(args, dest)) for flag, dest, *_ in rows if dest in (
        "out", "trace", "model", "initial_model", "x_file", "y_file", "compare_with")]
    paths = [(flag, path) for flag, path in paths
             if path is not None and (flag, path) != ("--initial-model", "zero")]
    outputs = [(flag, flag, path) for flag, path in paths if flag in ("--out", "--trace")]
    outputs += [(f"--out-dir {args.out_dir}:", "--out-dir", os.path.join(args.out_dir, name))
                for name in OUT_DIR_FILES.get(mode, ())]
    for where, flag, path in outputs:
        if os.path.isdir(path):
            raise ConfigError(f"{where} {path} is a directory, not a file")
        for other, value in paths:
            if other != flag and os.path.realpath(path) == os.path.realpath(value):
                raise ConfigError(f"{where} {path} names the same file as {other} {value}")
    return args


def _solver_config(ns, problem) -> SolverConfig:
    """The validated configuration of a single run (solve, diagnostics)."""
    config = SolverConfig(
        num_samples=ns.num_samples, num_iterations=ns.iterations, degree=ns.degree,
        seed=ns.seed, step_schedule=ns.schedule, resample_retries=ns.resample_retries,
        initial_control_points=_initial_control_points(ns.initial_model))
    config.validate(problem)
    return config


def _model_payload(model: BezierSimplex, config_echo: dict) -> dict:
    return {**model.to_dict(), "version": __version__, "config": config_echo}


# ---------------------------------------------------------------------------
# The subcommands: each reads its inputs, calls the library and writes its
# outputs.
# ---------------------------------------------------------------------------

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

    columns = ["problem", "n", "trial", "seed", "status"]
    columns += [column for name, names in METRIC_COLUMNS.items() if name in ns.metrics
                for column in names] + ["error"]
    result["aggregate"]["config"] = config_echo
    print(_write(ns, (columns, [[row.get(c, "") for c in columns] for row in result["rows"]],
                      config_echo), result["aggregate"]))
    return 0


def cmd_solve(ns) -> int:
    problem = _resolve_problem(ns.problem)
    solver_cfg = _solver_config(ns, problem)
    model, record = run_surface_gd(problem, solver_cfg)

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


def cmd_baseline(ns) -> int:
    metric_names = parse_metrics(ns.metrics, known=("mse", "gd", "igd"))
    problem = _resolve_problem(ns.problem, metric_names)
    comparison = (None if ns.compare_with is None
                  else _read_json(ns.compare_with, "comparison file"))
    model, report = run_baseline(problem, ns.population, ns.degree, metric_names, ns.seed,
                                 ns.mse_samples, ns.validation_count)
    report["config"] = {
        "command": "baseline", "version": __version__,
        "method": "scalarization-sweep baseline (deterministic substitute "
                  "for an evolutionary baseline)",
        "problem": problem.name, "population": ns.population, "degree": ns.degree,
        "seed": ns.seed, "metrics": metric_names,
    }
    if comparison is not None:
        report["proposed_comparison"] = comparison
    print(_write(ns, _model_payload(model, report["config"]), report))
    return 0


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


def _read_points_csv(path) -> np.ndarray:
    """Points from a CSV file with a header row: uses the x_* columns when
    present (sample output format), otherwise every column. Every data row
    has one cell per column, and every cell read holds a finite number. A
    file that cannot be read as text is a ConfigError naming its path."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read points {path}: {err}") from err
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
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
    cols = [i for i, name in enumerate(header) if name.startswith("x_")] or range(len(header))
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
        raise OverflowError(f"{metric} overflowed to {value}")
    if ns.out is not None:
        write_json(ns.out, report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_diagnostics(ns) -> int:
    problem = _resolve_problem(ns.problem)
    solver_cfg = _solver_config(ns, problem)

    if ns.mode == "perturb":
        k = ns.perturb_iteration or max(1, solver_cfg.num_iterations // 2)
        reports = perturbation_experiment(problem, solver_cfg, k, ns.repeats)
        echo = {"command": "diagnostics", "mode": "perturb", "version": __version__,
                "problem": problem.name, "perturb_iteration": k, "repeats": ns.repeats,
                "grid_version": TEST_GRID_VERSION, "config": solver_cfg.echo()}
        print(_write(ns, (["k", "n", "repeat", "sup_gap", "frob_gap", "bound_value"],
                          [(r.iteration, solver_cfg.num_samples, r.repeat, r.sup_gap,
                            r.frob_gap, r.bound_value) for r in reports], echo),
                     {"config": echo, "reports": [r.to_dict() for r in reports]}))
        return 0

    # gengap
    report = repeat_generalization_gap(problem, solver_cfg, ns.holdout, ns.trials)
    report["version"] = __version__
    print(_write(ns, report))
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
    except SolverAbort as err:
        print(_error_json("runtime", json.dumps(err.payload)), file=sys.stderr)
        return 3
    except (OverflowError, SingularFitError, MemoryError) as err:
        print(_error_json("runtime", str(err) or repr(err)), file=sys.stderr)
        return 3
    except OSError as err:
        print(_error_json("io", str(err)), file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
