"""Scalarization sweep: a deterministic stand-in for evolutionary baselines.

Enumerates a triangular lattice of weight vectors and minimizes each
weighted-sum scalarization by gradient descent with the safeguarded
Barzilai-Borwein step of `_kernels.descent_sweep`. Its schedule is
STEP0 / (1 + k / DECAY_STEPS), times a per-weight multiplier that halves
whenever the weight's gradient reverses (a negative inner product with the
previous one); a reversing step takes the schedule's length, any other the
BB2 length clipped to between the schedule and BB_CAP times it. A sweep sets
only its gradient tolerance and step budget. The converged minimizers approximate
the Pareto set and serve two purposes: the validation sets behind the
GD/IGD indicators, and the baseline pipeline (sweep, then a single
all-at-once fit).

Scalarizations whose minimizer sits exactly at a non-smooth center (norm
powers q_m <= 1 have cusps there) can never meet a gradient-norm stopping
rule. Instead of running to `max_steps`, such a weight stops early as
`cusp` once its iterate is near a center that `cusp_certificate` certifies
as a local minimizer of its scalarization. The descent reads nearness off
the squared scaled radii that the norm-power gradient
(`_kernels.norm_power_descent`) returns beside the gradient; a problem
without norm-power parameters has no centers. A weight whose gradient
becomes non-finite stops as `diverged`, and one that runs out of steps
otherwise is `stalled`. None of these count as converged; they are excluded
downstream, and `SweepResult.status` tells them apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import CONVERGED, STATUSES, descent_sweep, norm_power_descent
from .problems import (NormPowerSpec, Problem, _norm_power_jacobian,
                       gradient_batch_stats)
from .simplex import _descending_lex_exponents

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


def cusp_certificate(spec: NormPowerSpec, weights) -> np.ndarray:
    """(M, n) mask: center m is a certified local minimizer of the
    scalarization sum_j t_ij f_j of weight row i.

    With g_rest the gradient at c_m of the other weighted objectives,
    sum_{j != m} t_ij grad f_j(c_m), the nonsmooth first-order condition
    -g_rest in t_im A_m'(unit ball) (Clarke, Optimization and Nonsmooth
    Analysis, 1983) holds for q_m < 1 whenever t_im > 0, since
    ||A_m (x - c_m)||^q_m outgrows any linear term, and for q_m = 1 exactly
    when ||A_m^{-1} g_rest|| <= t_im. Centers with q_m > 1 are smooth
    points, left to the gradient-norm rule; a singular A_m certifies none.
    """
    weights = np.asarray(weights, dtype=np.float64)
    # jac[m, j] is grad f_j(c_m), zero for j == m (the center convention).
    jac = np.stack([_norm_power_jacobian(spec, c) for c in spec.centers])
    g_rest = weights @ jac                                        # (M, n, L)
    with np.errstate(divide="ignore", invalid="ignore"):
        dual = np.sqrt((g_rest * g_rest / spec.scales_sq[:, None, :]).sum(axis=2))
    t = weights.T
    powers = spec.powers[:, None]
    regular = (spec.scales_sq > 0.0).all(axis=1)[:, None]
    return regular & (((powers < 1.0) & (t > 0.0)) | ((powers == 1.0) & (dual <= t)))


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
                            grad_tol: float = DEFAULT_GRAD_TOL,
                            max_steps: int = DEFAULT_MAX_STEPS) -> SweepResult:
    """Descend every weighted-sum scalarization in `weights`.

    Starts each descent from `start` (default: the weight-convex
    combination of the objective centers for norm-power problems, the
    origin otherwise), a point already close to the target hypersurface.
    Each weight's `status` says how its descent ended (module docstring).
    Raises ValueError unless `weights` is (n, M), `start` (n, L), `grad_tol`
    finite and positive, and `max_steps` nonnegative.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] != problem.num_objectives:
        raise ValueError(f"weights must be (n, {problem.num_objectives}), "
                         f"got shape {weights.shape}")
    spec = problem.norm_power
    if start is None:
        start = (weights @ spec.centers if spec is not None
                 else np.zeros((len(weights), problem.num_vars)))
    start = np.asarray(start, dtype=np.float64)
    if start.shape != (len(weights), problem.num_vars):
        raise ValueError(f"start must be ({len(weights)}, {problem.num_vars}), "
                         f"got shape {start.shape}")
    grad_tol, max_steps = float(grad_tol), int(max_steps)
    if not (math.isfinite(grad_tol) and grad_tol > 0.0):
        raise ValueError(f"grad_tol must be finite and > 0, got {grad_tol!r}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
    if spec is not None:
        gradient = norm_power_descent(spec.scales_sq, spec.centers, spec.powers)
        certified = cusp_certificate(spec, weights)
    else:
        # No centers, so no radii and no cusps.
        def gradient(x, t):
            return gradient_batch_stats(problem, x.T, t.T)[0].T, np.empty((0, x.shape[1]))
        certified = np.zeros((0, len(weights)), dtype=np.bool_)
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
