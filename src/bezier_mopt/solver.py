"""Iterative hypersurface optimizer.

The generic loop turns any single-objective step rule into a multi-objective
optimizer: each iteration samples fresh weights uniformly on the simplex,
evaluates the current model there, advances every sampled point with the
step rule applied to its weighted-sum scalarization, then refits the control
points to the stepped batch by least squares. The surface-wise gradient
descent specialization uses one plain gradient step per point; its
closed-form control update is kept as `closed_form_control_step` for
cross-checking, the production path shares the generic stepped-points code.

RNG discipline: every run owns a single integer seed. Iteration k draws its
weight batch from the substream (WEIGHT_STREAM, k, retry), so a resample
after a singular fit never perturbs later iterations, and runs that share a
seed share every iteration prefix regardless of the total iteration count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .bezier import (BezierSimplex, SingularFitError, check_design,
                     design_matrix, solve_prepared)
from .problems import Problem, gradient_batch_stats, scalarize
from .simplex import enumerate_multi_indices, sample_uniform_simplex

# Substream domains under a run seed. Keyed into SeedSequence spawn keys so
# the individual streams are independent and stable.
WEIGHT_STREAM = 0
HOLDOUT_STREAM = 1
PERTURB_STREAM = 2
METRIC_STREAM = 3
TRIAL_STREAM = 4


def derive_seed(root_seed: int, *key: int) -> int:
    """Stable 64-bit mix of a root seed and an integer key path.

    Used for trial seeds and metric seeds so that adding trials never
    reshuffles earlier ones.
    """
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def iteration_stream(seed: int, k: int, retry: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(WEIGHT_STREAM, int(k), int(retry)))


# ---------------------------------------------------------------------------
# Step schedules and rules.
# ---------------------------------------------------------------------------

def resolve_schedule(spec) -> Callable[[int], float]:
    """Turn a schedule spec into a callable k -> step size.

    Accepts a callable, the string "1/k", or "const:<value>".
    """
    if callable(spec):
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "1/k":
            return lambda k: 1.0 / k
        if text.startswith("const:"):
            value = float(text[len("const:"):])
            return lambda k: value
    raise ValueError(f"unknown step schedule {spec!r}")


StepRule = Callable[[np.ndarray, object, int], np.ndarray]


def gradient_step_rule(schedule="1/k") -> StepRule:
    """One plain gradient step on the scalarized objective.

    Returns a rule (x, scalarized, k) -> x - alpha(k) * grad, with no line
    search, momentum, or clipping.
    """
    alpha = resolve_schedule(schedule)

    def rule(x, scalarized, k):
        return x - alpha(k) * scalarized.gradient(x)

    return rule


def identity_step_rule() -> StepRule:
    """Leaves every point unchanged; useful for fixed-point checks."""
    return lambda x, scalarized, k: x


# ---------------------------------------------------------------------------
# Configuration and run records.
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Settings for one run.

    num_samples must cover the basis size; step sizes must stay in (0, 1]
    over the whole horizon. `initial_control_points=None` starts from the
    zero matrix. `resample_retries` bounds how many fresh weight batches an
    iteration may draw after a numerically singular fit before aborting.
    """

    num_samples: int
    num_iterations: int
    degree: int
    seed: int
    step_schedule: Union[str, Callable[[int], float]] = "1/k"
    initial_control_points: Optional[np.ndarray] = None
    resample_retries: int = 5
    record_weights: bool = False

    def validate(self, problem: Problem) -> None:
        basis = enumerate_multi_indices(problem.num_objectives, self.degree)
        if self.num_iterations < 1:
            raise ValueError("num_iterations must be >= 1")
        if self.num_samples < basis.size:
            raise ValueError(
                f"num_samples={self.num_samples} is below the basis size "
                f"{basis.size} for degree {self.degree} with "
                f"{problem.num_objectives} objectives")
        if self.resample_retries < 0:
            raise ValueError("resample_retries must be >= 0")
        alpha = resolve_schedule(self.step_schedule)
        for k in range(1, self.num_iterations + 1):
            a = alpha(k)
            if not (0.0 < a <= 1.0):
                raise ValueError(f"step size {a!r} at iteration {k} is outside (0, 1]")

    def echo(self) -> dict:
        """JSON-ready snapshot of the resolved configuration."""
        if callable(self.step_schedule):
            schedule = getattr(self.step_schedule, "__name__", "<callable>")
        else:
            schedule = self.step_schedule
        if self.initial_control_points is None:
            initial = "zero"
        else:
            initial = np.asarray(self.initial_control_points).tolist()
        return {
            "num_samples": self.num_samples,
            "num_iterations": self.num_iterations,
            "degree": self.degree,
            "seed": self.seed,
            "step_schedule": schedule,
            "initial_control_points": initial,
            "resample_retries": self.resample_retries,
        }


class SolverAbort(RuntimeError):
    """Run aborted after exhausting singular-fit resampling retries."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


@dataclass
class RunRecord:
    """Per-iteration trace of a run plus a footer.

    Arrays have one entry per iteration: the smallest eigenvalue of the
    design Gram matrix, the Frobenius norm of the design-weighted effective
    gradient matrix (computed from the realized steps as (B - X) / alpha),
    the control-point step size, the largest scalarized gradient norm and
    largest single-objective gradient norm over the batch, the largest
    basis-vector 2-norm, the worst partition-of-unity error, and how many
    resamples the iteration needed. `weights` holds every sampled batch
    only when requested; the final iteration's batch is always kept.
    `wall_clock` is left out of `to_dict` so that the traces of equal runs
    are byte-identical.
    """

    seed: int
    config: dict
    lambda_min: np.ndarray
    ztg_norm: np.ndarray
    control_delta: np.ndarray
    max_scalarized_grad: np.ndarray
    max_objective_grad: np.ndarray
    max_basis_norm: np.ndarray
    max_basis_sum_err: np.ndarray
    retries: np.ndarray
    final_weights: np.ndarray
    wall_clock: float
    weights: Optional[list] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.lambda_min)

    def to_dict(self) -> dict:
        iterations = []
        for k in range(len(self)):
            entry = {
                "iteration": k + 1,
                "lambda_min": float(self.lambda_min[k]),
                "ztg_norm": float(self.ztg_norm[k]),
                "control_delta": float(self.control_delta[k]),
                "max_scalarized_grad": float(self.max_scalarized_grad[k]),
                "max_objective_grad": float(self.max_objective_grad[k]),
                "max_basis_norm": float(self.max_basis_norm[k]),
                "max_basis_sum_err": float(self.max_basis_sum_err[k]),
                "retries": int(self.retries[k]),
            }
            if self.weights is not None:
                entry["weights"] = self.weights[k].tolist()
            iterations.append(entry)
        return {
            "iterations": iterations,
            "footer": {
                "seed": self.seed,
                "config": self.config,
                "final_weights": self.final_weights.tolist(),
            },
        }


# ---------------------------------------------------------------------------
# The iteration engine.
# ---------------------------------------------------------------------------

def _initial_control_points(config: SolverConfig, basis, num_vars: int) -> np.ndarray:
    if config.initial_control_points is None:
        return np.zeros((basis.size, num_vars))
    control = np.asarray(config.initial_control_points, dtype=np.float64)
    if control.shape != (basis.size, num_vars):
        raise ValueError(
            f"initial control points have shape {control.shape}, expected "
            f"({basis.size}, {num_vars})")
    return control.copy()


def _run_loop(problem: Problem, batch_step, config: SolverConfig,
              weight_hook=None) -> tuple[BezierSimplex, RunRecord]:
    """Shared engine: sample, evaluate, step, refit, K times.

    `batch_step(points, weights, k)` advances the whole sampled batch.
    `weight_hook(k, weights)` may replace the sampled batch and exists for
    the stability diagnostics; it must return an array of the same shape.
    """
    config.validate(problem)
    basis = enumerate_multi_indices(problem.num_objectives, config.degree)
    alpha = resolve_schedule(config.step_schedule)
    control = _initial_control_points(config, basis, problem.num_vars)

    kk = config.num_iterations
    trace = {name: np.empty(kk) for name in
             ("lambda_min", "ztg_norm", "control_delta", "max_scalarized_grad",
              "max_objective_grad", "max_basis_norm", "max_basis_sum_err")}
    retries_used = np.zeros(kk, dtype=np.int64)
    kept_weights = [] if config.record_weights else None
    batch = None

    started = time.perf_counter()
    for k in range(1, kk + 1):
        design = None
        last_singular = None
        for retry in range(config.resample_retries + 1):
            batch = sample_uniform_simplex(
                problem.num_objectives, config.num_samples,
                iteration_stream(config.seed, k, retry))
            if weight_hook is not None:
                batch = np.asarray(weight_hook(k, batch), dtype=np.float64)
            candidate = design_matrix(batch, basis)
            try:
                smallest, _ = check_design(candidate)
            except SingularFitError as err:
                last_singular = err
                continue
            design = candidate
            retries_used[k - 1] = retry
            break
        if design is None:
            raise SolverAbort(
                f"design matrix stayed singular after "
                f"{config.resample_retries} resamples at iteration {k}",
                payload={
                    "iteration": k,
                    "resample_retries": config.resample_retries,
                    "smallest_singular_value": last_singular.smallest_singular_value
                    if last_singular is not None else float("nan"),
                    "seed": config.seed,
                })

        surface_points = design @ control
        stepped = batch_step(surface_points, batch, k)
        a = alpha(k)
        effective_grads = (surface_points - stepped) / a
        new_control = solve_prepared(design, stepped)

        scalarized_grads, mu_batch = gradient_batch_stats(problem, surface_points, batch)
        trace["lambda_min"][k - 1] = smallest * smallest
        trace["ztg_norm"][k - 1] = np.linalg.norm(design.T @ effective_grads)
        trace["control_delta"][k - 1] = np.linalg.norm(new_control - control)
        trace["max_scalarized_grad"][k - 1] = np.sqrt(
            (scalarized_grads * scalarized_grads).sum(axis=1)).max()
        trace["max_objective_grad"][k - 1] = mu_batch
        basis_norms = np.sqrt((design * design).sum(axis=1))
        trace["max_basis_norm"][k - 1] = basis_norms.max()
        trace["max_basis_sum_err"][k - 1] = np.abs(design.sum(axis=1) - 1.0).max()
        if kept_weights is not None:
            kept_weights.append(batch.copy())
        control = new_control

    record = RunRecord(
        seed=config.seed,
        config=config.echo(),
        retries=retries_used,
        final_weights=batch.copy(),
        wall_clock=time.perf_counter() - started,
        weights=kept_weights,
        **trace,
    )
    return BezierSimplex(basis=basis, control_points=control), record


def run_generic(problem: Problem, rule: StepRule, config: SolverConfig,
                weight_hook=None) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with an arbitrary per-point step rule."""

    def batch_step(points, weights, k):
        out = np.empty_like(points)
        for n in range(points.shape[0]):
            out[n] = rule(points[n], scalarize(problem, weights[n]), k)
        return out

    return _run_loop(problem, batch_step, config, weight_hook)


def run_surface_gd(problem: Problem, config: SolverConfig,
                   weight_hook=None) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with one gradient step per sampled point.

    Observationally identical to `run_generic(problem,
    gradient_step_rule(config.step_schedule), config)` with the same seed;
    this path advances the whole batch vectorized.
    """
    alpha = resolve_schedule(config.step_schedule)

    def batch_step(points, weights, k):
        grads, _ = gradient_batch_stats(problem, points, weights)
        return points - alpha(k) * grads

    return _run_loop(problem, batch_step, config, weight_hook)


def closed_form_control_step(problem: Problem, control: np.ndarray, weights,
                             alpha: float, basis) -> np.ndarray:
    """One control update via the explicit normal-equation form.

    Computes P - alpha * (Z'Z)^(-1) Z'G for the given weight batch, where
    G stacks the scalarized gradients at the current surface points. Kept
    as an independent cross-check of the stepped-points-plus-refit path;
    the two agree up to solver round-off.
    """
    design = design_matrix(weights, basis)
    surface_points = design @ control
    grads, _ = gradient_batch_stats(problem, surface_points, np.asarray(weights, dtype=np.float64))
    gram = design.T @ design
    return control - alpha * np.linalg.solve(gram, design.T @ grads)
