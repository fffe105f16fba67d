"""Scoring, the baseline, and empirical stability diagnostics.

`score_model` scores a fitted model under a run seed, for experiment trials
and the baseline alike; `run_baseline` fits and scores the scalarization-sweep
baseline. Rejected input raises `solver.ConfigError` before any run starts.

The stability probes measure, on real runs, the quantities that the
solver's stability analysis is built from: minimal eigenvalues of the design
Gram matrices, the design-weighted gradient-norm bound, one-sample
perturbation gaps between paired runs, and train-versus-holdout
generalization gaps.

The perturbation and generalization experiments report realized proxies of
analysis constants (they are not hypothesis tests): eta_hat is the smallest
Gram eigenvalue seen across a run pair, zeta_hat = sqrt(J) / eta_hat bounds
the Frobenius norm of the Gram inverse, and mu_hat is the largest
single-objective gradient norm met along the runs. The reported
`bound_value` evaluates the K-step perturbation bound

    2 * mu_hat * zeta_hat * (1 + (K - k + 1/sqrt(J)) * N)

with those proxies and basis-norm constant 1; `bound_holds` flags, but
never asserts, whether the realized control-point gap stayed below it.
The design-weighted gradient inequality (ztg_norm <= N * mu_k with mu_k
the batch's largest scalarized gradient norm) is deterministic given the
realized batch and is asserted by `stability_summary`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bezier import SingularFitError, fit_least_squares
from .metrics import gd, igd, loss_batch, model_samples, mse
from .problems import Problem
from .simplex import enumerate_multi_indices, sample_uniform_simplex
from .solver import (HOLDOUT_STREAM, METRIC_STREAM, PERTURB_STREAM, ConfigError, RunRecord,
                     SolverConfig, completed, derive_seed, run_surface_gd_trials, stream,
                     trial_seeds)
from .sweep import minimize_scalarizations, triangular_lattice

# The sup over weights in the perturbation gap is approximated on one fixed
# grid so reports stay comparable across runs and releases; reports name it
# by TEST_GRID_VERSION.
TEST_GRID_VERSION = "v1"
_GRID_SEED = 202409
_GRID_LATTICE = 1000
_GRID_RANDOM = 1000


def score_model(model, problem, metric_names, seed, mse_samples, validation_count,
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


def run_baseline(problem: Problem, population: int, degree: int, metric_names, seed: int,
                 mse_samples: int, validation_count: int):
    """The scalarization-sweep baseline, as (model, report): each weight of
    a `population`-weight triangular lattice descends alone, and the model
    is the degree-`degree` least-squares fit to the converged points. The
    report counts and lists the weights by status and holds `score_model`'s
    scores under `seed`; for gd/igd a `validation_count`-weight lattice gives
    the reference points. Raises ConfigError for a population below the
    basis size, before any descent, and SingularFitError when fewer weights
    converge than the basis has functions."""
    basis = enumerate_multi_indices(problem.num_objectives, degree)
    if population < basis.size:
        raise ConfigError(
            f"--population {population} is below the basis size {basis.size} for "
            f"degree {degree} with {problem.num_objectives} objectives")
    if not {"gd", "igd"} & set(metric_names):
        validation_count = None

    # Every weight descends on its own, so one call serves the population
    # lattice and, for gd/igd, the validation lattice stacked below it.
    lattices = [triangular_lattice(problem.num_objectives, count)
                for count in (population, validation_count) if count is not None]
    sweep, reference_sweep = minimize_scalarizations(
        problem, np.vstack(lattices)).split(population)

    n_ok = int(sweep.converged.sum())
    if n_ok < basis.size:
        raise SingularFitError(
            f"only {n_ok} of {population} sweep points converged; "
            f"fitting degree {degree} needs at least {basis.size}", smallest_singular_value=0.0)

    model = fit_least_squares(sweep.converged_weights, sweep.converged_points, basis)
    report = {"converged": n_ok, "non_converged": population - n_ok,
              "non_converged_lattice_indices": np.nonzero(~sweep.converged)[0].tolist()}
    for status in ("cusp", "diverged", "stalled"):
        report[f"{status}_lattice_indices"] = np.nonzero(sweep.status == status)[0].tolist()
    report.update(score_model(model, problem, metric_names, seed, mse_samples,
                              validation_count, reference_sweep.converged_points))
    return model, report


def stability_test_grid(num_objectives: int) -> np.ndarray:
    """The fixed weight grid behind sup-gap estimates: a 1000-point
    triangular lattice plus 1000 seeded uniform draws."""
    lattice = triangular_lattice(num_objectives, _GRID_LATTICE)
    random_part = sample_uniform_simplex(num_objectives, _GRID_RANDOM, _GRID_SEED)
    return np.vstack([lattice, random_part])


@dataclass
class PerturbationReport:
    """Gap measurements for one perturbed run pair."""

    iteration: int        # which iteration had one weight replaced
    repeat: int
    seed: int             # run seed shared by the pair
    sup_gap: float        # max |loss difference| over the test grid
    frob_gap: float       # control-point matrix gap after the final refit
    eta_hat: float        # min Gram eigenvalue across both runs
    zeta_hat: float       # sqrt(basis size) / eta_hat
    mu_hat: float         # max single-objective gradient norm encountered
    bound_value: float
    bound_holds: bool
    grid_version: str

    def to_dict(self) -> dict:
        return asdict(self)


def _replace_last_weight(seed: int, k: int, num_objectives: int):
    """Hook replacing the last weight of iteration k with a fresh draw."""
    replacement = sample_uniform_simplex(num_objectives, 1, stream(seed, PERTURB_STREAM, k))[0]

    def hook(iteration, batch):
        if iteration == k:
            batch = batch.copy()
            batch[-1] = replacement
        return batch

    return hook


def perturbation_experiment(problem: Problem, config: SolverConfig, k: int,
                            repeats: int) -> list[PerturbationReport]:
    """Run paired pipelines whose weight streams differ in one example.

    For each repeat, both runs share a derived seed; the perturbed run
    redraws the last weight vector of iteration k and everything else is
    bit-identical. Requires a problem with an analytical map because the
    sup gap is measured on losses.
    """
    if not (1 <= k <= config.num_iterations):
        raise ConfigError(f"perturbed iteration {k} outside 1..{config.num_iterations}")
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    if problem.pareto_map is None:
        raise ConfigError("the perturbation gap is defined on losses and "
                         "needs a problem with an analytical map")
    grid = stability_test_grid(problem.num_objectives)
    # All pairs run in one lockstep stack: repeat r's base run at position
    # 2r, its perturbed twin at 2r + 1.
    seeds = trial_seeds(config.seed, repeats)
    runs = completed(run_surface_gd_trials(
        problem, config, [seed for seed in seeds for _ in range(2)],
        [hook for seed in seeds
         for hook in (None, _replace_last_weight(seed, k, problem.num_objectives))]))
    reports = []
    for r, seed in enumerate(seeds):
        (base_model, base_rec), (pert_model, pert_rec) = runs[2 * r:2 * r + 2]
        basis_size = base_model.basis.size

        sup_gap = float(np.abs(
            loss_batch(base_model, grid, problem.pareto_map)
            - loss_batch(pert_model, grid, problem.pareto_map)).max())
        frob_gap = float(np.linalg.norm(
            base_model.control_points - pert_model.control_points))
        eta_hat = float(min(base_rec.lambda_min.min(), pert_rec.lambda_min.min()))
        zeta_hat = float(np.sqrt(basis_size) / eta_hat)
        mu_hat = float(max(base_rec.max_objective_grad.max(),
                           pert_rec.max_objective_grad.max()))
        horizon = config.num_iterations - k + 1.0 / np.sqrt(basis_size)
        bound_value = 2.0 * mu_hat * zeta_hat * (1.0 + horizon * config.num_samples)
        reports.append(PerturbationReport(
            iteration=k, repeat=r, seed=seed, sup_gap=sup_gap,
            frob_gap=frob_gap, eta_hat=eta_hat, zeta_hat=zeta_hat,
            mu_hat=mu_hat, bound_value=bound_value,
            bound_holds=bool(bound_value >= frob_gap),
            grid_version=TEST_GRID_VERSION,
        ))
    return reports


def loss_gap(model, pareto_map, train_weights, holdout_weights) -> dict:
    """Empirical-versus-holdout mean loss of a fitted model."""
    empirical = float(loss_batch(model, train_weights, pareto_map).mean())
    holdout = float(loss_batch(model, holdout_weights, pareto_map).mean())
    return {"empirical_error": empirical, "holdout_error": holdout,
            "gap": empirical - holdout}


def _gap_reports(problem: Problem, config: SolverConfig, holdout: int, seeds) -> list[dict]:
    """One generalization-gap report per seed, from one lockstep stack.

    Seed s's run trains under `config` with seed s. Its report sets the
    mean loss over the run's final training batch against that over
    `holdout` uniform weights drawn from (s, HOLDOUT_STREAM), and echoes
    the run's configuration. Raises the stack's aborts as `completed` does."""
    if holdout < 1:
        raise ConfigError("holdout must be >= 1")
    if problem.pareto_map is None:
        raise ConfigError("the generalization gap is defined on losses and "
                         "needs a problem with an analytical map")
    runs = completed(run_surface_gd_trials(problem, config, seeds))
    reports = []
    for seed, (model, record) in zip(seeds, runs):
        holdout_weights = sample_uniform_simplex(problem.num_objectives, holdout,
                                                 stream(seed, HOLDOUT_STREAM))
        report = loss_gap(model, problem.pareto_map, record.final_weights, holdout_weights)
        report.update({"problem": problem.name, "config": record.config, "seed": seed,
                       "holdout": holdout})
        reports.append(report)
    return reports


def generalization_gap_experiment(problem: Problem, config: SolverConfig,
                                  holdout: int) -> dict:
    """Train once with `config.seed`, then compare the final training
    batch's mean loss to the mean loss on fresh uniform weights."""
    return _gap_reports(problem, config, holdout, [config.seed])[0]


def repeat_generalization_gap(problem: Problem, config: SolverConfig,
                              holdout: int, trials: int) -> dict:
    """Independent repetitions of the generalization-gap experiment.

    Trial i uses seed i of `trial_seeds(config.seed, trials)`; the trials
    run as one lockstep stack, and each reports what
    `generalization_gap_experiment` would for its seed. Reports per-trial
    gaps plus mean, mean absolute gap, and standard deviation.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    per_trial = _gap_reports(problem, config, holdout, trial_seeds(config.seed, trials))
    gaps = np.array([t["gap"] for t in per_trial])
    return {
        "problem": problem.name,
        "root_seed": config.seed,
        "holdout": holdout,
        "trials": per_trial,
        "gap_mean": float(gaps.mean()),
        "gap_abs_mean": float(np.abs(gaps).mean()),
        "gap_std": float(gaps.std()),
    }


def stability_summary(record: RunRecord) -> dict:
    """Summaries and verification flags from one run's trace.

    `ztg_bound_ok` asserts the deterministic inequality
    ztg_norm <= N * max_scalarized_grad on every iteration; the basis flags
    check the partition of unity and the unit bound on basis-vector norms
    for every weight the run sampled.
    """
    n = int(record.config["num_samples"])
    ztg_ok = bool(np.all(record.ztg_norm <= n * record.max_scalarized_grad))
    basis_norm_ok = bool(np.all(record.max_basis_norm <= 1.0 + 1e-12))
    partition_ok = bool(np.all(record.max_basis_sum_err < 1e-12))
    return {
        "iterations": len(record),
        "lambda_min_min": float(record.lambda_min.min()),
        "lambda_min_median": float(np.median(record.lambda_min)),
        "ztg_norm_max": float(record.ztg_norm.max()),
        "mu_hat": float(record.max_objective_grad.max()),
        "ztg_bound_ok": ztg_ok,
        "basis_norm_ok": basis_norm_ok,
        "partition_of_unity_ok": partition_ok,
    }
