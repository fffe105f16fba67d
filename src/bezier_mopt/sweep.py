"""Scalarization sweep: a deterministic stand-in for evolutionary baselines.

Enumerates a triangular lattice of weight vectors (`simplex.triangular_lattice`)
and minimizes each weighted-sum scalarization by gradient descent with the
safeguarded Barzilai-Borwein step of `_kernels.descent_sweep`, which owns the
step; a sweep sets only its gradient tolerance and step budget. The converged
minimizers approximate the Pareto set and serve two purposes: the validation
sets behind the GD/IGD indicators, and the baseline pipeline (sweep, then a
single all-at-once fit).

Scalarizations whose minimizer sits exactly at a non-smooth center (norm
powers q_m <= 1 have cusps there) can never meet a gradient-norm stopping
rule. Instead of running to `max_steps`, such a weight stops early as `cusp`
once its iterate is near a center certified as a local minimizer of its
scalarization. The problem supplies the gradient, the certificate and the
default start (`problems.descent_terms`); the descent reads nearness off the
squared scaled radii that the gradient returns beside it. A weight whose
gradient becomes non-finite stops as `diverged`, and one that runs out of
steps otherwise is `stalled`. None of these count as converged; they are
excluded downstream, and `SweepResult.status` tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import CONVERGED, STATUSES, descent_sweep
from .problems import Problem, descent_terms
from .simplex import check_weight_rows, triangular_lattice


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Outcome of one scalarization sweep."""

    weights: np.ndarray      # (n, M) the swept weight vectors
    points: np.ndarray       # (n, L) final iterates
    grad_norms: np.ndarray   # (n,) final scalarized gradient norms
    steps: np.ndarray        # (n,) descent steps consumed
    status: np.ndarray       # (n,) str: converged, cusp, diverged or stalled

    @property
    def converged(self) -> np.ndarray:
        """(n,) bool, gradient norm below tolerance."""
        return self.status == STATUSES[CONVERGED]

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
                                 status=self.status[part])
                     for part in (head, tail))


def minimize_scalarizations(problem: Problem, weights, start=None,
                            grad_tol: float = 1e-8, max_steps: int = 100_000) -> SweepResult:
    """Descend every weighted-sum scalarization in `weights`.

    Starts each descent from `start` (default: that of
    `problems.descent_terms`, the weight-convex combination of the centers
    for norm-power problems and the origin otherwise).
    Each weight's `status` says how its descent ended (module docstring).
    Raises ValueError unless `weights` is (n, M) of weight vectors, `start`
    (n, L), `grad_tol` finite and positive, and `max_steps` nonnegative.
    """
    weights = check_weight_rows(weights)
    if weights.ndim != 2 or weights.shape[1] != problem.num_objectives:
        raise ValueError(f"weights must be (n, {problem.num_objectives}), "
                         f"got shape {weights.shape}")
    gradient, certified, default_start = descent_terms(problem, weights)
    start = np.asarray(default_start if start is None else start, dtype=np.float64)
    if start.shape != (len(weights), problem.num_vars):
        raise ValueError(f"start must be ({len(weights)}, {problem.num_vars}), "
                         f"got shape {start.shape}")
    grad_tol, max_steps = float(grad_tol), int(max_steps)
    if not (math.isfinite(grad_tol) and grad_tol > 0.0):
        raise ValueError(f"grad_tol must be finite and > 0, got {grad_tol!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    points, grad_norms, steps, status = descent_sweep(
        gradient, certified, start, weights, grad_tol, max_steps)
    return SweepResult(weights=weights, points=points, grad_norms=grad_norms,
                       steps=steps, status=np.array(STATUSES)[status])


def pareto_set_sweep(problem: Problem, count: int = 1000,
                     **descent_kwargs) -> SweepResult:
    """Sweep a `count`-point triangular lattice of weights.

    The converged subset is the package's deterministic validation set.
    """
    lattice = triangular_lattice(problem.num_objectives, count)
    return minimize_scalarizations(problem, lattice, **descent_kwargs)
