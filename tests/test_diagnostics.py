from dataclasses import replace

import numpy as np
import pytest

from bezier_mopt import diagnostics
from bezier_mopt.bezier import SingularFitError
from bezier_mopt.diagnostics import (TEST_GRID_VERSION, generalization_gap_experiment,
                                     loss_gap, perturbation_experiment,
                                     repeat_generalization_gap, run_baseline, score_model,
                                     stability_summary, stability_test_grid)
from bezier_mopt.metrics import mse
from bezier_mopt.problems import get_problem, scaled_med, skew_mmed
from bezier_mopt.simplex import sample_uniform_simplex
from bezier_mopt.solver import (METRIC_STREAM, ConfigError, SolverConfig, completed, derive_seed,
                                run_surface_gd, run_surface_gd_trials, trial_seeds)
from bezier_mopt.sweep import pareto_set_sweep, triangular_lattice


def config(n=30, k=20, seed=0):
    return SolverConfig(num_samples=n, num_iterations=k, degree=3, seed=seed)


def test_stability_grid_fixed_and_versioned():
    grid = stability_test_grid(3)
    again = stability_test_grid(3)
    assert grid.shape == (2000, 3)
    assert np.array_equal(grid, again)
    assert np.abs(grid.sum(axis=1) - 1.0).max() < 1e-12
    # Grid "v1": the 1000-point lattice, then 1000 draws from seed 202409.
    assert TEST_GRID_VERSION == "v1"
    assert np.array_equal(grid[:1000], triangular_lattice(3, 1000))
    assert np.array_equal(grid[1000:], sample_uniform_simplex(3, 1000, 202409))


def test_null_perturbation_is_bitwise_identical():
    problem = scaled_med()
    cfg = config(k=10)

    def same_weights_hook(k, batch):
        if k == 5:
            copy = batch.copy()
            copy[-1] = batch[-1]
            return copy
        return batch

    base_model, base_rec = run_surface_gd(problem, cfg)
    ((null_model, null_rec),) = completed(
        run_surface_gd_trials(problem, cfg, [cfg.seed], [same_weights_hook]))
    assert np.array_equal(base_model.control_points, null_model.control_points)
    assert np.array_equal(base_rec.lambda_min, null_rec.lambda_min)


def test_perturbation_reports_fields():
    problem = scaled_med()
    cfg = config(n=30, k=12, seed=4)
    reports = perturbation_experiment(problem, cfg, k=6, repeats=3)
    assert len(reports) == 3
    for rep in reports:
        assert rep.iteration == 6
        assert rep.sup_gap >= 0.0
        assert rep.frob_gap >= 0.0
        assert np.isfinite(rep.sup_gap) and np.isfinite(rep.frob_gap)
        assert rep.eta_hat > 0.0
        assert rep.zeta_hat == pytest.approx(np.sqrt(10) / rep.eta_hat)
        assert rep.mu_hat > 0.0
        assert np.isfinite(rep.bound_value)
        assert rep.grid_version == "v1"
    seeds = {rep.seed for rep in reports}
    assert len(seeds) == 3


def test_perturbation_bound_holds_on_small_runs():
    # soft check by construction: reported, not asserted by the library, but
    # on these short well-conditioned runs the realized bound must dominate
    problem = scaled_med()
    cfg = config(n=30, k=12, seed=8)
    reports = perturbation_experiment(problem, cfg, k=4, repeats=5)
    assert all(rep.bound_holds for rep in reports)


def test_perturbation_bound_decays_with_later_k():
    # The K-step bound shrinks as the perturbed iteration moves toward the
    # horizon; realized gaps do not share that monotonicity (contraction
    # dominates early perturbations, the model-mismatch residual keeps late
    # ones alive), so only the bound's trend is asserted.
    problem = scaled_med()
    cfg = config(n=30, k=30, seed=1)
    bounds = []
    for k in (5, 15, 25):
        reports = perturbation_experiment(problem, cfg, k=k, repeats=3)
        assert all(r.sup_gap >= 0.0 and np.isfinite(r.sup_gap) for r in reports)
        bounds.append(np.median([r.bound_value / (2 * r.mu_hat * r.zeta_hat)
                                 for r in reports]))
    assert bounds[0] > bounds[1] > bounds[2]


def test_early_perturbations_vanish_for_quadratic_problems():
    # With quadratic objectives the stepped points of iteration k are degree
    # min(k + 1, ...) polynomials in the weights; until that exceeds the
    # model degree the refit interpolates exactly and swapping one weight
    # changes nothing.
    problem = scaled_med()
    cfg = config(n=30, k=12, seed=3)
    reports = perturbation_experiment(problem, cfg, k=2, repeats=3)
    assert max(r.frob_gap for r in reports) < 1e-10
    reports_late = perturbation_experiment(problem, cfg, k=10, repeats=3)
    assert min(r.frob_gap for r in reports_late) > 1e-10


def test_perturbation_validates_arguments():
    problem = scaled_med()
    with pytest.raises(ConfigError):
        perturbation_experiment(problem, config(k=10), k=11, repeats=2)
    with pytest.raises(ConfigError):
        perturbation_experiment(problem, config(k=10), k=5, repeats=0)
    with pytest.raises(ConfigError):
        perturbation_experiment(skew_mmed(3), config(k=10), k=5, repeats=2)


def test_loss_gap_zero_for_perfect_model():
    problem = scaled_med()
    cfg = config(k=10, seed=2)
    model, record = run_surface_gd(problem, cfg)
    holdout = sample_uniform_simplex(3, 100, 3)

    def perfect_map(t):
        t = np.asarray(t)
        return model.evaluate_batch(t) if t.ndim == 2 else model.evaluate(t)

    report = loss_gap(model, perfect_map, record.final_weights, holdout)
    assert report["empirical_error"] == 0.0
    assert report["holdout_error"] == 0.0
    assert report["gap"] == 0.0


def test_generalization_gap_report_echoes_config():
    problem = scaled_med()
    cfg = config(n=30, k=15, seed=6)
    report = generalization_gap_experiment(problem, cfg, holdout=500)
    assert report["holdout"] == 500
    assert report["seed"] == 6
    assert report["config"]["num_samples"] == 30
    assert report["gap"] == report["empirical_error"] - report["holdout_error"]
    again = generalization_gap_experiment(problem, cfg, holdout=500)
    assert report["gap"] == again["gap"]


def test_generalization_gap_requires_map():
    with pytest.raises(ConfigError):
        generalization_gap_experiment(skew_mmed(3), config(k=5), holdout=10)


@pytest.mark.parametrize("holdout,trials", [(0, 2), (10, 0)])
def test_repeat_generalization_gap_needs_a_holdout_and_a_trial(holdout, trials):
    with pytest.raises(ConfigError, match="must be >= 1"):
        repeat_generalization_gap(scaled_med(), config(k=5), holdout=holdout, trials=trials)


def test_repeat_generalization_gap_aggregates():
    problem = scaled_med()
    cfg = config(n=30, k=15, seed=11)
    report = repeat_generalization_gap(problem, cfg, holdout=500, trials=4)
    assert len(report["trials"]) == 4
    gaps = [t["gap"] for t in report["trials"]]
    assert report["gap_mean"] == pytest.approx(np.mean(gaps))
    assert report["gap_abs_mean"] == pytest.approx(np.mean(np.abs(gaps)))
    assert len({t["seed"] for t in report["trials"]}) == 4
    # Trial i is the single-run experiment under trial i's seed, bit for bit.
    for seed, trial in zip(trial_seeds(cfg.seed, 4), report["trials"]):
        assert generalization_gap_experiment(problem, replace(cfg, seed=seed), 500) == trial


def test_stability_summary_flags():
    problem = scaled_med()
    for seed in range(5):
        _, record = run_surface_gd(problem, config(n=30, k=25, seed=seed))
        summary = stability_summary(record)
        assert summary["ztg_bound_ok"]
        assert summary["basis_norm_ok"]
        assert summary["partition_of_unity_ok"]
        assert summary["lambda_min_min"] > 0.0
        assert summary["lambda_min_median"] >= summary["lambda_min_min"]
        assert np.isfinite(summary["ztg_norm_max"])


def test_run_baseline_population_below_the_basis_raises_before_any_descent(monkeypatch):
    monkeypatch.setattr(diagnostics, "minimize_scalarizations", None)  # no descent runs
    with pytest.raises(ConfigError, match="population 9 is below the basis size 10"):
        run_baseline(scaled_med(), 9, 3, ["mse"], seed=0, mse_samples=10, validation_count=10)


def test_run_baseline_with_too_few_converged_weights_raises_singular_fit():
    # Three of the twelve lattice weights stop at cusps, which leaves 9
    # converged points for the 10 degree-3 basis functions.
    with pytest.raises(SingularFitError, match="only 9 of 12 sweep points converged; "
                                               "fitting degree 3 needs at least 10"):
        run_baseline(get_problem("skew-3mmd"), 12, 3, ["gd"], seed=0, mse_samples=10,
                     validation_count=10)


def test_run_baseline_scores_its_fit_under_the_metric_seeds():
    problem = scaled_med()
    model, report = run_baseline(problem, 30, 3, ["mse", "gd"], seed=4, mse_samples=200,
                                 validation_count=60)
    assert report["converged"] == 30 and report["non_converged_lattice_indices"] == []
    reference = pareto_set_sweep(problem, 60).converged_points
    scores = score_model(model, problem, ["mse", "gd"], 4, 200, 60, reference)
    assert sorted(scores) == ["gd", "mse"] and "igd" not in report
    assert {name: report[name] for name in scores} == scores
    assert scores["mse"] == mse(model, problem.pareto_map, 200,
                                seed=derive_seed(4, METRIC_STREAM, 0))
