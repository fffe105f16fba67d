"""Scalarization sweep: a deterministic stand-in for evolutionary baselines.

Enumerates a triangular lattice of weight vectors and minimizes each
weighted-sum scalarization by plain gradient descent with a diminishing
step. The converged minimizers approximate the Pareto set and serve two
purposes: the validation sets behind the GD/IGD indicators, and the
baseline pipeline (sweep, then a single all-at-once fit).

Scalarizations whose minimizer sits exactly at a non-smooth center (norm
powers below 2 have cusps there) can never meet a gradient-norm stopping
rule; such weights are reported as non-converged and excluded downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import descent_sweep
from .problems import Problem, gradient_batch_stats
from .simplex import _descending_lex_exponents

# Diminishing step schedule for the per-weight descents: effectively
# constant at DEFAULT_STEP0 for the first DEFAULT_DECAY_STEPS iterations,
# then decaying like 1/k. The benchmarks' scalarized curvature stays O(1)
# near their minimizers, so the constant phase contracts linearly.
DEFAULT_STEP0 = 0.2
DEFAULT_DECAY_STEPS = 2000.0
DEFAULT_GRAD_TOL = 1e-8
DEFAULT_MAX_STEPS = 100_000


def triangular_lattice(num_objectives: int, count: int) -> np.ndarray:
    """`count` deterministic weight vectors on a triangular lattice.

    Uses the smallest resolution H whose lattice (all degree-H multi-index
    vectors divided by H, canonical order) has at least `count` points, then
    thins to exactly `count` by taking evenly strided positions in that
    order. Counts that are exact lattice sizes, such as 10 points for three
    objectives, are returned without thinning.
    """
    if num_objectives < 1:
        raise ValueError("num_objectives must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if num_objectives == 1:
        return np.ones((count, 1))
    resolution = 1
    while math.comb(resolution + num_objectives - 1, num_objectives - 1) < count:
        resolution += 1
    rows = np.array(_descending_lex_exponents(num_objectives, resolution),
                    dtype=np.float64) / resolution
    if len(rows) > count:
        keep = np.round(np.linspace(0, len(rows) - 1, count)).astype(np.int64)
        rows = rows[keep]
    return rows


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of one scalarization sweep."""

    weights: np.ndarray      # (n, M) the swept weight vectors
    points: np.ndarray       # (n, L) final iterates
    grad_norms: np.ndarray   # (n,) final scalarized gradient norms
    steps: np.ndarray        # (n,) descent steps consumed
    converged: np.ndarray    # (n,) bool, gradient norm below tolerance

    @property
    def converged_points(self) -> np.ndarray:
        return self.points[self.converged]

    @property
    def converged_weights(self) -> np.ndarray:
        return self.weights[self.converged]

    def split(self, count: int) -> tuple["SweepResult", "SweepResult"]:
        """The results of the first `count` weights and of the rest. Every
        weight descends on its own, so a sweep of stacked lattices splits
        into the sweeps of the lattices, bit for bit."""
        head, tail = slice(None, count), slice(count, None)
        return tuple(SweepResult(weights=self.weights[part], points=self.points[part],
                                 grad_norms=self.grad_norms[part], steps=self.steps[part],
                                 converged=self.converged[part])
                     for part in (head, tail))


def _generic_descent(problem: Problem, weights, start, step0, decay_steps,
                     grad_tol, max_steps):
    """Fallback descent through the per-point Jacobian interface."""
    points = start.copy()
    n = len(weights)
    grad_norms = np.full(n, np.inf)
    steps = np.zeros(n, dtype=np.int64)
    converged = np.zeros(n, dtype=bool)
    for i in range(n):
        x = points[i]
        for k in range(1, max_steps + 1):
            g, _ = gradient_batch_stats(problem, x[None, :], weights[i][None, :])
            g = g[0]
            grad_norms[i] = float(np.linalg.norm(g))
            if grad_norms[i] < grad_tol:
                converged[i] = True
                steps[i] = k - 1
                break
            x -= step0 / (1.0 + k / decay_steps) * g
            steps[i] = k
        points[i] = x
    return points, grad_norms, steps, converged


def minimize_scalarizations(problem: Problem, weights, start=None,
                            step0: float = DEFAULT_STEP0,
                            decay_steps: float = DEFAULT_DECAY_STEPS,
                            grad_tol: float = DEFAULT_GRAD_TOL,
                            max_steps: int = DEFAULT_MAX_STEPS) -> SweepResult:
    """Descend every weighted-sum scalarization in `weights`.

    Starts each descent from `start` (default: the weight-convex
    combination of the objective centers for norm-power problems, the
    origin otherwise), a point already close to the target hypersurface.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if start is None:
        if problem.norm_power is not None:
            start = weights @ problem.norm_power.centers
        else:
            start = np.zeros((len(weights), problem.num_vars))
    start = np.asarray(start, dtype=np.float64)
    if problem.norm_power is not None:
        spec = problem.norm_power
        points, grad_norms, steps, converged = descent_sweep(
            spec.scales_sq, spec.centers, spec.powers, weights, start,
            float(step0), float(decay_steps), float(grad_tol), int(max_steps))
    else:
        points, grad_norms, steps, converged = _generic_descent(
            problem, weights, start, step0, decay_steps, grad_tol, max_steps)
    return SweepResult(weights=weights, points=points, grad_norms=grad_norms,
                       steps=steps, converged=converged)


def pareto_set_sweep(problem: Problem, count: int = 1000,
                     **descent_kwargs) -> SweepResult:
    """Sweep a `count`-point triangular lattice of weights.

    The converged subset is the package's deterministic validation set.
    """
    lattice = triangular_lattice(problem.num_objectives, count)
    return minimize_scalarizations(problem, lattice, **descent_kwargs)
