import functools
import json
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bezier_mopt import cli, solver
from bezier_mopt.cli import main
from bezier_mopt.bezier import load_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_writes_model_and_trace(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "solve", "--problem", "scaled-med", "--n", "30", "--k", "25",
        "--degree", "3", "--seed", "1", "--out", str(model_path),
        "--trace", str(trace_path))
    assert code == 0
    model = load_model(model_path)
    assert model.control_points.shape == (10, 3)
    doc = json.loads(model_path.read_text())
    assert doc["version"] and doc["config"]["problem"] == "scaled-med"
    trace = json.loads(trace_path.read_text())
    assert len(trace["iterations"]) == 25
    assert trace["footer"]["seed"] == 1


def test_solve_rerun_is_byte_identical(tmp_path, capsys):
    runs = [(tmp_path / f"{r}.json", tmp_path / f"{r}-trace.json") for r in "ab"]
    for model_path, trace_path in runs:
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "scaled-med", "--n", "30", "--k",
            "20", "--degree", "3", "--seed", "9", "--out", str(model_path),
            "--trace", str(trace_path))
        assert code == 0
    (model_a, trace_a), (model_b, trace_b) = runs
    assert model_a.read_bytes() == model_b.read_bytes()
    assert trace_a.read_bytes() == trace_b.read_bytes()


def test_solve_undersampled_config_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "solve", "--problem", "scaled-med", "--n", "5", "--degree",
        "3", "--out", str(tmp_path / "m.json"))
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "config"
    assert "10" in payload["error"]["message"]


def test_solve_unknown_problem_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "solve", "--problem", "nope", "--out", str(tmp_path / "m.json"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"


def test_sample_rows_deterministic_and_normalized(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    run_cli(capsys, "solve", "--problem", "scaled-med", "--n", "30", "--k",
            "10", "--seed", "3", "--out", str(model_path))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        code, _, _ = run_cli(capsys, "sample", "--model", str(model_path),
                             "--n", "3", "--seed", "5", "--out", str(out))
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = [ln for ln in out_a.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "t_1,t_2,t_3,x_1,x_2,x_3"
    assert len(lines) == 4
    for row in lines[1:]:
        values = [float(v) for v in row.split(",")]
        assert abs(sum(values[:3]) - 1.0) < 1e-12


def test_sample_zero_model_gives_zero_points(tmp_path, capsys):
    from bezier_mopt.bezier import BezierSimplex, save_model
    from bezier_mopt.simplex import enumerate_multi_indices
    basis = enumerate_multi_indices(3, 3)
    save_model(BezierSimplex(basis=basis, control_points=np.zeros((10, 3))),
               tmp_path / "zero.json")
    code, _, _ = run_cli(capsys, "sample", "--model", str(tmp_path / "zero.json"),
                         "--n", "5", "--seed", "1", "--out", str(tmp_path / "s.csv"))
    assert code == 0
    lines = [ln for ln in (tmp_path / "s.csv").read_text().splitlines()
             if not ln.startswith("#")][1:]
    for row in lines:
        assert [float(v) for v in row.split(",")][3:] == [0.0, 0.0, 0.0]


def test_sample_bad_model_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"M": 3, "D": 3, "L": 3, "index_order": [[3,0,0]], "control_points": [[0,0,0]]}')
    code, _, err = run_cli(capsys, "sample", "--model", str(bad), "--n", "2",
                           "--seed", "0", "--out", str(tmp_path / "s.csv"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"


def test_experiment_trials_csv_and_aggregate(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code, _, _ = run_cli(
        capsys, "experiment", "--problem", "scaled-med", "--n", "15",
        "--k", "20", "--trials", "2", "--seed", "11", "--metrics",
        "mse,diagnostics", "--out-dir", str(out_dir))
    assert code == 0
    rows = (out_dir / "trials.csv").read_text().splitlines()
    assert rows[0].startswith("# ")
    header = rows[1].split(",")
    assert header[:5] == ["problem", "n", "trial", "seed", "status"]
    assert "mse" in header and "ztg_bound_ok" in header
    assert len(rows) == 4  # preamble + header + 2 trials
    agg = json.loads((out_dir / "aggregate.json").read_text())
    setting = agg["settings"][0]
    assert setting["completed"] == 2
    assert setting["mse"]["mean"] > 0.0
    assert setting["mse"]["degenerate_std"] is False


def test_experiment_single_trial_flags_degenerate_std(tmp_path, capsys):
    out_dir = tmp_path / "exp1"
    code, _, _ = run_cli(
        capsys, "experiment", "--problem", "scaled-med", "--n", "15", "--k",
        "10", "--trials", "1", "--seed", "2", "--metrics", "mse",
        "--out-dir", str(out_dir))
    assert code == 0
    agg = json.loads((out_dir / "aggregate.json").read_text())
    assert agg["settings"][0]["mse"]["std"] == 0.0
    assert agg["settings"][0]["mse"]["degenerate_std"] is True


def test_experiment_rerun_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        code, _, _ = run_cli(
            capsys, "experiment", "--problem", "scaled-med", "--n", "15,20",
            "--k", "15", "--trials", "2", "--seed", "5", "--metrics", "mse",
            "--out-dir", str(d))
        assert code == 0
    assert (dirs[0] / "trials.csv").read_bytes() == (dirs[1] / "trials.csv").read_bytes()


def test_experiment_worker_pool_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial"
    pooled = tmp_path / "pooled"
    base = ["experiment", "--problem", "scaled-med", "--n", "15", "--k", "10",
            "--trials", "3", "--seed", "6", "--metrics", "mse"]
    code, _, _ = run_cli(capsys, *base, "--threads", "1", "--out-dir", str(serial))
    assert code == 0
    code, _, _ = run_cli(capsys, *base, "--threads", "2", "--out-dir", str(pooled))
    assert code == 0
    assert (serial / "trials.csv").read_bytes() == (pooled / "trials.csv").read_bytes()


def test_trials_keep_their_seeds_across_trial_counts_and_commands(tmp_path, capsys):
    # Adding trials never reshuffles earlier ones, and experiment,
    # diagnostics perturb and diagnostics gengap give trial i one seed.
    common = ["--problem", "scaled-med", "--n", "15", "--k", "4", "--seed", "13"]

    def experiment_rows(trials):
        out_dir = tmp_path / f"experiment{trials}"
        code, _, _ = run_cli(capsys, "experiment", *common, "--trials", str(trials),
                             "--threads", "1", "--out-dir", str(out_dir))
        assert code == 0
        return (out_dir / "trials.csv").read_text().splitlines()[1:]  # header first

    two, four = experiment_rows(2), experiment_rows(4)
    assert len(four) == 5 and four[:3] == two
    seeds = [int(row.split(",")[3]) for row in four[1:]]
    assert len(set(seeds)) == 4
    code, _, _ = run_cli(capsys, "diagnostics", "--mode", "perturb", *common,
                         "--repeats", "4", "--out-dir", str(tmp_path / "perturb"))
    assert code == 0
    reports = json.loads((tmp_path / "perturb" / "perturbation.json").read_text())["reports"]
    assert [report["seed"] for report in reports] == seeds
    code, _, _ = run_cli(capsys, "diagnostics", "--mode", "gengap", *common, "--trials", "4",
                         "--holdout", "100", "--out-dir", str(tmp_path / "gengap"))
    assert code == 0
    gaps = json.loads((tmp_path / "gengap" / "generalization_gap.json").read_text())["trials"]
    assert [trial["seed"] for trial in gaps] == seeds


def test_solve_divergence_exits_3_with_json_error(tmp_path):
    model_path = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bezier_mopt.cli", "solve", "--problem",
         "scaled-med", "--schedule", "const:1", "--k", "2000", "--out",
         str(model_path)],
        capture_output=True, text=True)
    assert proc.returncode == 3
    error = json.loads(proc.stderr)["error"]
    assert error["type"] == "runtime"
    detail = json.loads(error["message"])
    assert detail["seed"] == 0
    assert 1 < detail["iteration"] < 2000
    assert isinstance(detail["control_delta"], float)
    assert not model_path.exists()


def test_experiment_fails_only_the_diverging_trial(tmp_path, capsys, monkeypatch):
    base = ["experiment", "--problem", "scaled-med", "--n", "15", "--k", "10",
            "--trials", "3", "--seed", "4", "--metrics", "mse,diagnostics",
            "--threads", "1"]
    code, _, _ = run_cli(capsys, *base, "--out-dir", str(tmp_path / "clean"))
    assert code == 0

    real = solver.gradient_batch_stats
    calls = []

    def poisoned(problem, points, weights):
        grads, norms = real(problem, points, weights)
        calls.append(len(points))
        if len(calls) == 5:
            grads[15:30] = np.inf  # trial 1's rows at iteration 5
        return grads, norms

    monkeypatch.setattr(solver, "gradient_batch_stats", poisoned)
    code, _, _ = run_cli(capsys, *base, "--out-dir", str(tmp_path / "poisoned"))
    assert code == 0
    assert calls[:5] == [45] * 5

    def rows(name):
        lines = (tmp_path / name / "trials.csv").read_text().splitlines()[1:]
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    clean, poisoned_rows = rows("clean"), rows("poisoned")
    assert [r["status"] for r in poisoned_rows] == ["ok", "failed", "ok"]
    assert poisoned_rows[1]["error"] == "non-finite values at iteration 5"
    assert poisoned_rows[0] == clean[0] and poisoned_rows[2] == clean[2]
    agg = json.loads((tmp_path / "poisoned" / "aggregate.json").read_text())
    assert agg["settings"][0]["completed"] == 2
    assert agg["settings"][0]["failed"] == 1


@pytest.mark.parametrize("flags", [
    ["--mse-samples", "0"],
    ["--metrics", "gd", "--validation-count", "0"],
    ["--problem", "skew-3med"],
    # Rows are grouped by n, so a repeated count would count its trials twice.
    ["--n", "15,15", "--metrics", "mse,gd"],
])
def test_experiment_bad_metric_config_exits_2_before_any_trial(flags, tmp_path, capsys,
                                                               monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "run_surface_gd_trials", no_trials)
    monkeypatch.setattr(cli, "pareto_set_sweep", no_trials)
    code, _, err = run_cli(
        capsys, "experiment", "--problem", "scaled-med", "--n", "15", "--k", "5",
        "--trials", "2", "--metrics", "mse", "--threads", "1", *flags,
        "--out-dir", str(tmp_path))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"
    assert not (tmp_path / "trials.csv").exists()


def test_experiment_bad_n_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--problem", "scaled-med", "--n", "5",
        "--trials", "1", "--metrics", "mse", "--out-dir", str(tmp_path))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"


@pytest.mark.parametrize("argv", [
    ["experiment", "--problem", "nope"],
    ["diagnostics", "--mode", "perturb", "--n", "12", "--k", "3", "--perturb-iteration", "9"],
    ["baseline", "--problem", "skew-3mmd", "--metrics", "mse,gd"],
], ids=["experiment-unknown-problem", "diagnostics-late-perturbation",
        "baseline-mse-without-map"])
def test_rejected_run_leaves_no_output_directory(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "minimize_scalarizations", None)  # no baseline sweep runs
    out_dir = tmp_path / "never"
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "config"
    assert not out_dir.exists()


def test_experiment_pool_has_no_more_workers_than_jobs(tmp_path, capsys, monkeypatch):
    # A pool forks all its workers at its first job, so --threads 1000 must
    # not ask for 1000. The stand-in pool runs the jobs in this process.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return map(func, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    base = ["experiment", "--problem", "scaled-med", "--n", "15,20", "--k", "5",
            "--trials", "3", "--seed", "6", "--metrics", "mse"]
    for threads in ("1", "1000"):
        code, _, _ = run_cli(capsys, *base, "--threads", threads, "--out-dir",
                             str(tmp_path / threads))
        assert code == 0
    assert sizes == [6]  # three one-trial chunks for each of two sample counts
    for name in ("trials.csv", "aggregate.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "1000" / name).read_bytes()


def test_experiment_aborts_trials_whose_trace_stops_being_finite(tmp_path):
    # Trials 0 and 2 keep finite control points near 1e300 while their
    # design-weighted gradient overflows; they fail instead of reporting
    # mse = inf, and no overflow warning reaches stderr.
    out_dir = tmp_path / "exp"
    proc = subprocess.run(
        [sys.executable, "-m", "bezier_mopt.cli", "experiment", "--problem",
         "scaled-med", "--n", "15", "--k", "960", "--schedule", "const:0.6",
         "--trials", "3", "--seed", "29", "--metrics", "mse,diagnostics",
         "--threads", "1", "--out-dir", str(out_dir)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = (out_dir / "trials.csv").read_text().splitlines()[1:]
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [r["status"] for r in rows] == ["failed"] * 3
    assert [r["error"] for r in rows] == [
        f"non-finite values at iteration {k}" for k in (478, 474, 483)]
    agg = json.loads((out_dir / "aggregate.json").read_text())
    assert agg["settings"][0]["failed"] == 3


def write_model(path, degree=3, fill=0.25):
    from bezier_mopt.bezier import BezierSimplex, save_model
    from bezier_mopt.simplex import enumerate_multi_indices
    basis = enumerate_multi_indices(3, degree)
    save_model(BezierSimplex(basis=basis, control_points=np.full((basis.size, 3), fill)), path)
    return path


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize("case", ["empty-model", "missing-model", "wrong-degree-model",
                                  "bad-n", "negative-seed"])
def test_bad_solver_input_exits_2_with_json_error(command, case, tmp_path, capsys,
                                                  monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_surface_gd", no_run)
    monkeypatch.setattr(cli, "run_surface_gd_trials", no_run)
    flags = {"n": "15", "seed": "1"}
    if case == "empty-model":
        (tmp_path / "bad.json").write_text("{}")
        flags["initial-model"] = str(tmp_path / "bad.json")
    elif case == "missing-model":
        flags["initial-model"] = str(tmp_path / "absent.json")
    elif case == "wrong-degree-model":
        flags["initial-model"] = str(write_model(tmp_path / "d2.json", degree=2))
    elif case == "bad-n":
        flags["n"] = "abc"
    else:
        flags["seed"] = "-1"
    argv = [command, "--problem", "scaled-med", "--k", "5"]
    argv += [item for key, value in flags.items() for item in (f"--{key}", value)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "m.json")]
    else:
        argv += ["--trials", "2", "--metrics", "mse", "--out-dir", str(tmp_path / "exp")]
    # solve types --n as one integer, so argparse rejects "abc" itself.
    assert exit_code(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "exp" / "trials.csv").exists()


def test_experiment_starts_every_trial_from_the_initial_model(tmp_path, capsys):
    from bezier_mopt.metrics import mse
    from bezier_mopt.problems import get_problem
    model_path = write_model(tmp_path / "start.json")
    out_dir = tmp_path / "exp"
    code, _, _ = run_cli(
        capsys, "experiment", "--problem", "scaled-med", "--n", "15", "--k", "5",
        "--trials", "2", "--seed", "8", "--metrics", "mse", "--threads", "1",
        "--initial-model", str(model_path), "--out-dir", str(out_dir))
    assert code == 0
    lines = (out_dir / "trials.csv").read_text().splitlines()
    assert json.loads(lines[0][2:])["initial_model"] == str(model_path)
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    problem = get_problem("scaled-med")
    start = load_model(model_path).control_points
    for row in rows:
        seed = int(row["seed"])
        model, _ = solver.run_surface_gd(problem, solver.SolverConfig(
            num_samples=15, num_iterations=5, degree=3, seed=seed,
            initial_control_points=start))
        expected = mse(model, problem.pareto_map, 10000,
                       seed=solver.derive_seed(seed, solver.METRIC_STREAM, 0))
        assert row["status"] == "ok"
        assert row["mse"] == format(expected, ".17g")


def test_baseline_small_population_exits_3(tmp_path, capsys):
    # Three of the twelve lattice weights stop at cusps, which leaves 9
    # converged points for the 10 degree-3 basis functions; the failed run
    # leaves no output directory.
    out_dir = tmp_path / "never"
    code, out, err = run_cli(
        capsys, "baseline", "--problem", "skew-3mmd", "--population", "12",
        "--degree", "3", "--metrics", "gd", "--validation-count", "10",
        "--out-dir", str(out_dir))
    assert code == 3 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "runtime"
    assert error["message"].startswith("only 9 of 12 sweep points converged")
    assert not out_dir.exists()


def test_baseline_population_below_the_basis_exits_2_before_the_sweep(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(cli, "minimize_scalarizations", None)  # no sweep runs
    out_dir = tmp_path / "never"
    code, out, err = run_cli(
        capsys, "baseline", "--problem", "scaled-med", "--population", "9",
        "--degree", "3", "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "config"
    assert all(part in error["message"] for part in ("--population 9", "basis size 10",
                                                     "degree 3"))
    assert not out_dir.exists()


def test_baseline_writes_model_and_report(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "baseline", "--problem", "scaled-med", "--population", "100",
        "--degree", "3", "--metrics", "mse", "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "baseline_report.json").read_text())
    assert report["mse"] > 0.0
    assert report["converged"] == 100
    assert "substitute" in report["config"]["method"]
    model = load_model(tmp_path / "baseline_model.json")
    assert model.control_points.shape == (10, 3)


@pytest.mark.parametrize("status", ["cusp", "stalled"])
def test_baseline_report_lists_weights_by_status(status, tmp_path, capsys, monkeypatch):
    # skew-3mmd's non-converged lattice weights sit at cusps; with fewer
    # steps than one stop check they run out of steps instead.
    if status == "stalled":
        monkeypatch.setattr(cli, "minimize_scalarizations",
                            functools.partial(cli.minimize_scalarizations, max_steps=300))
    code, _, _ = run_cli(
        capsys, "baseline", "--problem", "skew-3mmd", "--population", "100",
        "--degree", "3", "--metrics", "gd", "--validation-count", "10",
        "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "baseline_report.json").read_text())
    lists = {name: report[f"{name}_lattice_indices"] for name in ("cusp", "diverged", "stalled")}
    assert lists[status] == report["non_converged_lattice_indices"]
    assert len(lists[status]) == report["non_converged"] > 0
    assert sum(map(len, lists.values())) == report["non_converged"]


def test_baseline_non_json_comparison_file_exits_2_before_the_sweep(tmp_path, capsys,
                                                                     monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "minimize_scalarizations", no_sweep)
    (tmp_path / "aggregate.json").write_text("trials,mse\n")
    code, _, err = run_cli(
        capsys, "baseline", "--problem", "scaled-med", "--population", "100",
        "--compare-with", str(tmp_path / "aggregate.json"), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "config"
    assert not (tmp_path / "out" / "baseline_report.json").exists()


@pytest.mark.parametrize("flags", [
    # The descent's tolerance and step budget are fixed; their flags are gone,
    # so any value of them is an unrecognized argument.
    ["--grad-tol", "nan"], ["--grad-tol", "0"], ["--grad-tol=-1e-8"],
    ["--grad-tol", "inf"], ["--max-steps", "0"], ["--max-steps=-1"],
    ["--mse-samples", "0"], ["--metrics", "diagnostics"],
], ids=["tol-nan", "tol-0", "tol-negative", "tol-inf", "steps-0", "steps-negative",
        "mse-samples-0", "metrics-diagnostics"])
def test_baseline_bad_descent_settings_exit_2_before_the_sweep(flags, tmp_path, capsys,
                                                               monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "minimize_scalarizations", no_sweep)
    code = exit_code(["baseline", "--problem", "scaled-med", "--population", "100",
                      "--out-dir", str(tmp_path), *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config"
    if flags[0].startswith(("--grad-tol", "--max-steps")):
        assert "unrecognized arguments: " + " ".join(flags) in error["message"]


def test_baseline_stacked_lattices_match_separate_sweeps(tmp_path, capsys, monkeypatch):
    # The population and validation lattices descend in one call. The fit is
    # the one of the population lattice descended alone, and the validation
    # set is the default sweep's.
    from bezier_mopt.problems import get_problem
    from bezier_mopt.sweep import pareto_set_sweep
    references = []
    real_gd = cli.gd

    def recording_gd(samples, reference):
        references.append(reference)
        return real_gd(samples, reference)

    monkeypatch.setattr(cli, "gd", recording_gd)
    base = ["baseline", "--problem", "scaled-med", "--population", "60", "--degree", "3"]
    runs = {"stacked": ["--metrics", "mse,gd,igd", "--validation-count", "300"],
            "alone": ["--metrics", "mse"]}
    for name, flags in runs.items():
        code, _, _ = run_cli(capsys, *base, *flags, "--out-dir", str(tmp_path / name))
        assert code == 0
    stacked, alone = (json.loads((tmp_path / name / "baseline_report.json").read_text())
                      for name in runs)
    assert stacked["mse"] == alone["mse"]
    assert (load_model(tmp_path / "stacked" / "baseline_model.json").control_points.tobytes()
            == load_model(tmp_path / "alone" / "baseline_model.json").control_points.tobytes())
    expected = pareto_set_sweep(get_problem("scaled-med"), 300).converged_points
    assert len(references) == 1
    assert references[0].tobytes() == expected.tobytes()


def test_metrics_between_files(tmp_path, capsys):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text("x_1,x_2\n0.0,0.0\n3.0,0.0\n")
    y.write_text("x_1,x_2\n0.0,0.0\n")
    code, out, _ = run_cli(capsys, "metrics", "--metric", "gd", "--x-file",
                           str(x), "--y-file", str(y))
    assert code == 0
    assert json.loads(out)["value"] == 1.5
    code, out, _ = run_cli(capsys, "metrics", "--metric", "igd", "--x-file",
                           str(x), "--y-file", str(y))
    assert json.loads(out)["value"] == 0.0


@pytest.mark.parametrize("metric", ["gd", "igd"])
@pytest.mark.parametrize("text", [
    "x_1,x_2\n0.0,0.0\n1,abc\n", "x_1,x_2\n0.0,0.0\n1\n", "a,b\n0.0,\n",
    "x_1,x_2\n0.0,nan\n", "x_1,x_2\ninf,0.0\n", "0,0\n3,0\n", "a,b\n0,0,7\n3,0,9\n",
    "x_1,x_2,w_1\n0.0,0.0\n",
], ids=["non-numeric", "short-row", "empty-cell", "nan-cell", "inf-cell", "no-header",
        "long-row", "short-row-unread-cell"])
def test_metrics_malformed_csv_exits_2(metric, text, tmp_path, capsys):
    x = tmp_path / "x.csv"
    y = tmp_path / "y.csv"
    x.write_text(text)
    y.write_text("x_1,x_2\n0.0,0.0\n")
    code, out, err = run_cli(capsys, "metrics", "--metric", metric, "--x-file",
                             str(x), "--y-file", str(y))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "config"


@pytest.mark.parametrize("metric", ["gd", "mse"])
def test_metrics_overflow_exits_3_without_warnings(metric, tmp_path, capsys):
    x = tmp_path / "x.csv"
    x.write_text("x_1,x_2,x_3\n1e308,-1e308,1e308\n")
    (tmp_path / "y.csv").write_text("x_1,x_2,x_3\n-1e308,1e308,-1e308\n")
    files = {"gd": ["--x-file", str(x), "--y-file", str(tmp_path / "y.csv")],
             "mse": ["--model", str(write_model(tmp_path / "m.json", fill=1e200)),
                     "--problem", "scaled-med", "--count", "10"]}[metric]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "metrics", "--metric", metric, *files)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "runtime"


def test_metrics_mse_model_of_another_shape_exits_2(tmp_path, capsys):
    from bezier_mopt.bezier import BezierSimplex, save_model
    from bezier_mopt.simplex import enumerate_multi_indices
    basis = enumerate_multi_indices(2, 3)
    save_model(BezierSimplex(basis=basis, control_points=np.zeros((basis.size, 2))),
               tmp_path / "m2.json")
    code, out, err = run_cli(capsys, "metrics", "--metric", "mse", "--model",
                             str(tmp_path / "m2.json"), "--problem", "scaled-med")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "config"


def test_metrics_mse_against_model(tmp_path, capsys):
    model_path = tmp_path / "m.json"
    run_cli(capsys, "solve", "--problem", "scaled-med", "--n", "30", "--k",
            "50", "--seed", "4", "--out", str(model_path))
    code, out, _ = run_cli(capsys, "metrics", "--metric", "mse", "--model",
                           str(model_path), "--problem", "scaled-med",
                           "--count", "2000", "--seed", "3")
    assert code == 0
    assert json.loads(out)["value"] > 0.0


def test_metrics_mse_zero_count_exits_2(tmp_path, capsys):
    model_path = write_model(tmp_path / "m.json")
    code, out, err = run_cli(capsys, "metrics", "--metric", "mse", "--model",
                             str(model_path), "--problem", "scaled-med", "--count", "0")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "config"


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "scaled-med", "--k", "abc", "--out", "m.json"],
    ["experiment", "--trials", "1.5"],
    ["metrics", "--metric", "hv"],
    ["sample", "--model", "m.json", "--out", "s.csv"],
    ["no-such-command"],
    ["diagnostics", "--mode", "perturb", "--grid-version", "v1"],
])
def test_rejected_command_line_prints_json_error_and_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config" and error["message"]


def test_diagnostics_perturb_mode(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "diagnostics", "--mode", "perturb", "--problem", "scaled-med",
        "--n", "20", "--k", "10", "--perturb-iteration", "5", "--repeats",
        "2", "--seed", "7", "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "perturbation.csv").read_text().splitlines()
    assert lines[1] == "k,n,repeat,sup_gap,frob_gap,bound_value"
    assert len(lines) == 4
    reports = json.loads((tmp_path / "perturbation.json").read_text())
    assert len(reports["reports"]) == 2
    assert reports["config"]["grid_version"] == "v1"
    for line, rep in zip(lines[2:], reports["reports"]):
        assert line == ",".join(cli._fmt(v) for v in (
            rep["iteration"], 20, rep["repeat"], rep["sup_gap"], rep["frob_gap"],
            rep["bound_value"]))


def test_diagnostics_gengap_mode(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "diagnostics", "--mode", "gengap", "--problem", "scaled-med",
        "--n", "15", "--k", "10", "--holdout", "200", "--trials", "2",
        "--seed", "8", "--out-dir", str(tmp_path))
    assert code == 0
    report = json.loads((tmp_path / "generalization_gap.json").read_text())
    assert len(report["trials"]) == 2
    assert "gap_abs_mean" in report


def test_diagnostics_unknown_mode_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["diagnostics", "--mode", "bogus"])
    assert err.value.code == 2


def test_console_entry_point_subprocess(tmp_path):
    model_path = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bezier_mopt.cli", "solve", "--problem",
         "scaled-med", "--n", "15", "--k", "5", "--seed", "0", "--out",
         str(model_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert model_path.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    # An @FILE run writes the bytes of the same arguments typed out, and a
    # flag after the file wins over the file's value.
    args = ["experiment", "--problem", "scaled-med", "--n", "15", "--k", "10",
            "--trials", "1", "--metrics", "mse", "--seed", "3", "--threads", "1"]
    (tmp_path / "run.args").write_text("".join(arg + "\n" for arg in args))
    runs = {"file": [f"@{tmp_path / 'run.args'}"], "typed": args}
    for name, head in runs.items():
        code, _, _ = run_cli(capsys, *head, "--trials", "2", "--out-dir", str(tmp_path / name))
        assert code == 0
    agg = json.loads((tmp_path / "file" / "aggregate.json").read_text())
    assert agg["trials"] == 2  # the later flag wins
    assert agg["config"]["seed"] == 3  # the file's value is used
    for name in ("trials.csv", "aggregate.json"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "typed" / name).read_bytes()


def exit_code(argv):
    """main()'s exit code, whether returned or raised as SystemExit."""
    try:
        return main(argv)
    except SystemExit as err:
        return err.code


TINY = {"experiment": ["--problem=scaled-med", "--n=15", "--k=5", "--trials=1",
                       "--mse-samples=10", "--threads=1"],
        "baseline": ["--problem=scaled-med", "--population=100"]}


@pytest.mark.parametrize("command,flag,text,expected", [
    ("experiment", "--n", "30,x", 2),
    ("experiment", "--out-dir", "5", 0),
    ("experiment", "--out-dir", "a\0b", 2),
    ("baseline", "--compare-with", "5", 2),
    ("experiment", "--k", "1.5", 2),
    ("experiment", "--seed", "true", 2),
    ("experiment", "--metrics", "mse,hv", 2),
], ids=["n-list", "out-dir-number", "out-dir-nul", "compare-with-number", "k-float",
        "seed-bool", "metrics-list"])
def test_config_value_exits_like_the_same_flag_text(command, flag, text, expected, tmp_path,
                                                    capsys, monkeypatch):
    # The flag and its text as two lines of an @FILE, then on the command line.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "minimize_scalarizations", None)  # no baseline sweep runs
    base = [command] + [arg for arg in TINY[command] if not arg.startswith(flag + "=")]
    (tmp_path / "run.args").write_text(f"{flag}\n{text}\n")
    for argv in (base + ["@run.args"], base + [f"{flag}={text}"]):
        assert exit_code(argv) == expected, argv
        err = capsys.readouterr().err
        if expected:
            assert json.loads(err)["error"]["type"] == "config"
            assert err.count("\n") == 1


@pytest.mark.parametrize("name,content,reasons", [
    ("missing.args", None, ["No such file"]),
    (".", None, ["Is a directory"]),
    ("bytes.args", b"\xff\xfe--k\n", ["codec"]),
    ("loop.args", b"@loop.args\n", ["recursion", "Too many open files"]),
    ("a\0b.args", None, ["null byte"]),
], ids=["missing", "directory", "not-text", "names-itself", "nul-in-name"])
def test_unreadable_args_file_exits_2_with_one_json_error(name, content, reasons, tmp_path,
                                                          capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / name).write_bytes(content)
    code = exit_code(["solve", "--problem", "scaled-med", f"@{name}", "--out", "m.json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config"
    assert any(reason in error["message"] for reason in reasons), error["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("how", ["typed", "config"])
def test_abbreviated_option_exits_2(how, tmp_path, capsys, monkeypatch):
    # Each option has one spelling: a prefix of a flag is not that flag,
    # on the command line or in an @FILE.
    monkeypatch.chdir(tmp_path)
    head = ["--prob", "scaled-med"]
    if how == "config":
        (tmp_path / "run.args").write_text("--prob\nscaled-med\n")
        head = ["@run.args"]
    code = exit_code(["solve", *head, "--n", "12", "--k", "3", "--out", "m.json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config" and "--prob" in error["message"]
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["solve", "experiment", "baseline", "diagnostics"])
def test_config_flag_is_an_unrecognized_argument(command, tmp_path, capsys):
    (tmp_path / "cfg.json").write_text("{}")
    argv = {"solve": ["solve", "--out", str(tmp_path / "m.json")],
            "diagnostics": ["diagnostics", "--mode", "perturb"]}.get(command, [command])
    code = exit_code(argv + ["--config", str(tmp_path / "cfg.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config"
    assert "unrecognized arguments: --config" in error["message"]


@pytest.mark.parametrize("flag", ["--n=xyz", "--k=5", "--schedule=bogus",
                                  "--resample-retries=1", "--initial-model=/nonexistent.json"])
def test_baseline_rejects_solver_flags_it_never_reads(flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(["baseline", "--problem", "scaled-med", flag])
    assert err.value.code == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "config"


# A valid command line of every mode. Its input files are never read: the
# option of another mode is rejected first.
MODE_ARGV = {
    "diagnostics perturb": ["diagnostics", "--mode=perturb", "--n=12", "--k=3"],
    "diagnostics gengap": ["diagnostics", "--mode=gengap", "--n=12", "--k=3"],
    "metrics gd": ["metrics", "--metric=gd", "--x-file=x.csv", "--y-file=y.csv"],
    "metrics igd": ["metrics", "--metric=igd", "--x-file=x.csv", "--y-file=y.csv"],
    "metrics mse": ["metrics", "--metric=mse", "--model=m.json", "--problem=scaled-med"],
}


def other_mode_cases():
    """(mode, flag, given as) for every mode of a command and every option
    that only other modes of the command read: as a flag on the command
    line, and as a line of an @FILE ("config")."""
    cases = []
    for choice in (row for row in cli.OPTIONS if isinstance(row[2], tuple)):
        command = choice[5][0]
        for mode in (f"{command} {value}" for value in choice[2]):
            for flag, dest, *_, scopes, _ in cli.OPTIONS:
                if (command not in scopes and mode not in scopes
                        and any(scope.startswith(command + " ") for scope in scopes)):
                    cases += [(mode, flag, how) for how in ("flag", "config")]
    return cases


OTHER_MODE_CASES = other_mode_cases()


@pytest.mark.parametrize("mode,flag,how", OTHER_MODE_CASES,
                         ids=[f"{mode}-{flag}-{how}" for mode, flag, how in OTHER_MODE_CASES])
def test_option_of_another_mode_exits_2_before_any_run(mode, flag, how, tmp_path, capsys,
                                                       monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started or an input file was read")

    for name in ("perturbation_experiment", "repeat_generalization_gap", "_read_points_csv",
                 "_load_model_file"):
        monkeypatch.setattr(cli, name, no_run)
    argv = list(MODE_ARGV[mode])
    if how == "flag":
        argv.append(f"{flag}=1")
    else:
        (tmp_path / "run.args").write_text(f"{flag}=1\n")
        argv.append(f"@{tmp_path / 'run.args'}")
    code = exit_code(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error["type"] == "config"
    assert error["message"] == f"{mode} does not read {flag}"


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize("flags", [["--k", "4294967297"], ["--k", "10000000000000"],
                                   ["--resample-retries", "4294967296"]],
                         ids=["k-2^32+1", "k-10^13", "retries-2^32"])
def test_counts_beyond_32_bit_words_exit_2_before_any_run(command, flags, tmp_path, capsys,
                                                          monkeypatch):
    # The weight substreams key k and retry by 32-bit words; a run this long
    # would also fail to allocate its trace.
    monkeypatch.setattr(cli, "run_surface_gd", None)
    monkeypatch.setattr(cli, "run_surface_gd_trials", None)
    tail = ["--out", str(tmp_path / "m.json")] if command == "solve" else [
        "--threads", "1", "--out-dir", str(tmp_path / "exp")]
    code, out, err = run_cli(capsys, command, "--problem", "scaled-med", "--n", "30", *flags,
                             *tail)
    assert code == 2 and out == ""
    assert "is outside" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command", ["solve", "experiment"])
@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 224. GiB"), MemoryError()],
                         ids=["numpy", "bare"])
def test_out_of_memory_exits_3_with_one_json_error(command, error, tmp_path, capsys,
                                                   monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_surface_gd", out_of_memory)
    monkeypatch.setattr(cli, "run_surface_gd_trials", out_of_memory)
    tail = ["--out", str(tmp_path / "m.json")] if command == "solve" else [
        "--threads", "1", "--out-dir", str(tmp_path / "exp")]
    code, out, err = run_cli(capsys, command, "--problem", "scaled-med", "--n", "30", "--k", "5",
                             *tail)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == {"type": "runtime", "version": cli.__version__,
                                        "message": str(error) or "MemoryError()"}


@pytest.mark.parametrize("command", ["solve", "experiment", "baseline"])
def test_missing_problem_exits_2_naming_the_option(command, tmp_path, capsys):
    tail = ["--out", str(tmp_path / "m.json")] if command == "solve" else [
        "--out-dir", str(tmp_path / "never")]
    code, out, err = run_cli(capsys, command, *tail)
    assert code == 2 and out == ""
    assert "--problem" in json.loads(err)["error"]["message"]
    assert not (tmp_path / "never").exists()


def test_experiment_runs_a_parameterized_problem(tmp_path, capsys):
    # Trials look their problem up by the name given ("skew-med:2"), not by
    # the name the problem reports ("skew-2med"), which is no registry name.
    code, _, err = run_cli(
        capsys, "experiment", "--problem", "skew-med:2", "--n", "12", "--k", "3",
        "--trials", "1", "--threads", "1", "--metrics", "gd", "--validation-count", "5",
        "--out-dir", str(tmp_path))
    assert code == 0, err
    lines = (tmp_path / "trials.csv").read_text().splitlines()[1:]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert (row["problem"], row["status"]) == ("skew-2med", "ok")


def readme_commands():
    """The argv of every `bezier-mopt ...` line of README.md, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("bezier-mopt ")]


README_COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    shown = {argv[0] for argv in README_COMMANDS}
    assert shown == {"solve", "experiment", "baseline", "sample", "metrics", "diagnostics"}


@pytest.mark.parametrize("argv", README_COMMANDS,
                         ids=[f"{argv[0]}-{i}" for i, argv in enumerate(README_COMMANDS)])
def test_readme_example_parses_and_resolves(argv):
    # Parsing and resolving read no file (no example passes an @FILE) and
    # start no run.
    assert not any(arg.startswith("@") for arg in argv)
    args = cli._resolve(cli.build_parser().parse_args(argv))
    assert args.command == argv[0]
