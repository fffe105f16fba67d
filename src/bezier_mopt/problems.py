"""Benchmark problems, Jacobians, weighted-sum scalarization.

All three built-in benchmarks are diagonal norm-power problems,

    f_m(x) = (sum_l s2[m,l] * (x_l - c[m,l])^2) ** (q_m / 2),

i.e. powers of axis-scaled distances to per-objective centers:

* scaled-med: three quadratics (q_m = 2) with integer scale patterns; its
  minimizer of every weighted scalarization has a closed form, exposed as
  `scaled_med_pareto`.
* skew-Mmed: f_m(x) = (||x - e_m||^2 / sqrt(2)) ** p_m with skewed powers
  p_m = exp(2(m-1)/(M-1) - 1), so s2 = 1/sqrt(2) and q_m = 2 p_m.
* skew-Mmmd: f_m(x) = ||A_m (x - c_m)|| ** p_m with diagonal A_m, so
  s2[m] = diag(A_m)^2 and q_m = p_m.

For q_m < 2 the gradient of f_m is singular at its center; the gradient is
defined as exactly zero there (the correct "no move" update for the
minimizer) and analytically elsewhere. Lipschitz continuity then holds on
compact sets excluding centers, which is what the empirical Lipschitz
estimates recorded by the solver reflect. A weighted sum minimized at a
center with q_m <= 1 never meets a gradient-norm stopping rule; the
scalarization sweep (`sweep.py`) certifies such centers and stops those
weights there as `cusp` rather than running them to `max_steps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import _sum_rows
from .simplex import weight_vector


@dataclass(frozen=True, eq=False)
class NormPowerSpec:
    """Parameters of a diagonal norm-power problem (see module docstring)."""

    scales_sq: np.ndarray  # (M, L) squared diagonal scales
    centers: np.ndarray    # (M, L)
    powers: np.ndarray     # (M,) norm exponents q_m > 0

    def __post_init__(self):
        object.__setattr__(self, "scales_sq", np.asarray(self.scales_sq, dtype=np.float64))
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=np.float64))
        if self.scales_sq.shape != self.centers.shape:
            raise ValueError("scales_sq and centers must have matching shapes")
        if self.powers.shape != (self.scales_sq.shape[0],):
            raise ValueError("powers must have one entry per objective")
        if np.any(self.powers <= 0.0):
            raise ValueError("norm exponents must be positive")


@dataclass(frozen=True, eq=False)
class Problem:
    """A differentiable multi-objective problem on R^L.

    `evaluate` maps an (L,) point to its (M,) objective values; `jacobian`
    returns the (M, L) matrix whose row m is the gradient of objective m.
    `pareto_map`, when present, sends a weight vector to the minimizer of
    the corresponding weighted-sum scalarization; it accepts a single
    weight (M,) or a batch (n, M). `norm_power` carries the family
    parameters that enable the vectorized fast paths.
    """

    name: str
    num_objectives: int
    num_vars: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    pareto_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    norm_power: Optional[NormPowerSpec] = None


@dataclass(frozen=True, eq=False)
class ScalarizedObjective:
    """Weighted sum of a problem's objectives for a fixed weight vector."""

    problem: Problem
    weights: np.ndarray

    def value(self, x) -> float:
        return float(self.weights @ self.problem.evaluate(np.asarray(x, dtype=np.float64)))

    def gradient(self, x) -> np.ndarray:
        return self.problem.jacobian(np.asarray(x, dtype=np.float64)).T @ self.weights


def scalarize(problem: Problem, t) -> ScalarizedObjective:
    """Collapse the objectives into sum_m t_m f_m for a weight vector t."""
    return ScalarizedObjective(problem=problem, weights=weight_vector(t, dim=problem.num_objectives))


# ---------------------------------------------------------------------------
# Norm-power family evaluation.
# ---------------------------------------------------------------------------

def _norm_power_values(spec: NormPowerSpec, points: np.ndarray) -> np.ndarray:
    """Objective values for a batch; (N, M)."""
    diff = points[:, None, :] - spec.centers[None, :, :]
    r2 = np.einsum("ml,nml->nm", spec.scales_sq, diff * diff)
    return r2 ** (spec.powers / 2.0)


def _norm_power_jacobian(spec: NormPowerSpec, x: np.ndarray) -> np.ndarray:
    """Per-point (M, L) Jacobian with the zero-at-center convention."""
    diff = x[None, :] - spec.centers
    r2 = (spec.scales_sq * diff * diff).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(r2 > 0.0, spec.powers * r2 ** ((spec.powers - 2.0) / 2.0), 0.0)
    return factor[:, None] * spec.scales_sq * diff


def norm_power_gradient_batch(spec: NormPowerSpec, points: np.ndarray,
                              weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalarized gradients for a batch, plus each row's Lipschitz proxy.

    Returns (G, mu) where row n of G is J_f(points[n])' weights[n] and
    mu[n] is the largest single-objective gradient norm at points[n].

    Arrays are coordinate-major, as in `_kernels.norm_power_descent`: the row
    index is innermost, so every numpy call runs over all N rows at once.
    Differences and per-objective gradients are (L, M, N), radii (M, N).
    Sums over L and over M run in index order from +0.0. mu is the square
    root of the largest squared norm, which has the same bits as the
    largest norm. Against a row-major formulation that sums r2 with einsum,
    which rounds about a quarter of those sums differently, the results are
    bitwise equal where every power is 2, as in scaled-med, since r2 then
    enters only through its sign; elsewhere they differ by about 1e-16
    relative per term.
    """
    n_obj, dim = spec.scales_sq.shape
    scales = spec.scales_sq.T[:, :, None]
    diff = np.ascontiguousarray(points.T)[:, None, :] - spec.centers.T[:, :, None]
    scaled = scales * diff
    prod = scales * (diff * diff)
    r2 = _sum_rows(prod)
    factor = spec.powers[:, None]
    expo = (spec.powers - 2.0) / 2.0
    if expo.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = factor * r2 ** expo[:, None]
    # Where every power is 2, r2 ** 0 is 1 and the pow is skipped. The
    # gradient is zero exactly at a center (r2 == 0); a NaN radius gets the
    # same treatment, which the mask keeps even though NaN ** 0 is 1.
    factor = np.where(r2 > 0.0, factor, 0.0)
    grads = factor * scaled
    # The sum over M starts from +0.0, so terms that are all -0.0 (a NaN
    # radius makes every gradient +-0.0 off the NaN coordinate) sum to +0.0.
    wt = np.ascontiguousarray(weights.T)
    g = np.zeros((dim, points.shape[0]))
    for m in range(n_obj):
        g += wt[m] * grads[:, m]
    return g.T, np.sqrt(_sum_rows(grads * grads).max(axis=0))


def gradient_batch_stats(problem: Problem, points: np.ndarray,
                         weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalarized gradients of a batch and each row's largest
    single-objective gradient norm; (N, L) and (N,).

    Uses the norm-power fast path when available, otherwise one Jacobian
    call per point. Every row is computed on its own, so a row's values do
    not depend on the other rows of the batch.
    """
    points = np.asarray(points, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if problem.norm_power is not None:
        return norm_power_gradient_batch(problem.norm_power, points, weights)
    g = np.empty((points.shape[0], problem.num_vars))
    mu = np.empty(points.shape[0])
    for n in range(points.shape[0]):
        jac = problem.jacobian(points[n])
        g[n] = jac.T @ weights[n]
        mu[n] = np.sqrt((jac * jac).sum(axis=1)).max()
    return g, mu


def _norm_power_problem(name: str, spec: NormPowerSpec,
                        pareto_map=None) -> Problem:
    def evaluate(x):
        return _norm_power_values(spec, np.asarray(x, dtype=np.float64)[None, :])[0]

    def jacobian(x):
        return _norm_power_jacobian(spec, np.asarray(x, dtype=np.float64))

    return Problem(
        name=name,
        num_objectives=spec.scales_sq.shape[0],
        num_vars=spec.scales_sq.shape[1],
        evaluate=evaluate,
        jacobian=jacobian,
        pareto_map=pareto_map,
        norm_power=spec,
    )


# ---------------------------------------------------------------------------
# Built-in benchmarks.
# ---------------------------------------------------------------------------

def scaled_med_pareto(t) -> np.ndarray:
    """Closed-form minimizer of the scaled-med scalarization.

    Solves the three per-coordinate stationarity conditions of the weighted
    sum of the scaled-med quadratics. Accepts one weight vector (3,) or a
    batch (n, 3), returning matching shape.
    """
    arr = np.asarray(t, dtype=np.float64)
    single = arr.ndim == 1
    batch = np.atleast_2d(arr)
    t1, t2, t3 = batch[:, 0], batch[:, 1], batch[:, 2]
    x = np.stack([
        (2.0 * t2 + 3.0 * t3) / (t1 + 2.0 * t2 + 3.0 * t3),
        (3.0 * t1 + 2.0 * t3) / (3.0 * t1 + t2 + 2.0 * t3),
        (2.0 * t1 + 3.0 * t2 - t3) / (2.0 * t1 + 3.0 * t2 + t3),
    ], axis=1)
    return x[0] if single else x


def scaled_med() -> Problem:
    """Three-variable, three-objective quadratic benchmark with an
    analytical weight-to-minimizer map."""
    spec = NormPowerSpec(
        scales_sq=np.array([[1.0, 3.0, 2.0],
                            [2.0, 1.0, 3.0],
                            [3.0, 2.0, 1.0]]),
        centers=np.array([[0.0, 1.0, 1.0],
                          [1.0, 0.0, 1.0],
                          [1.0, 1.0, -1.0]]),
        powers=np.array([2.0, 2.0, 2.0]),
    )
    return _norm_power_problem("scaled-med", spec, pareto_map=scaled_med_pareto)


def skewed_powers(num_objectives: int) -> np.ndarray:
    """p_m = exp(2(m-1)/(M-1) - 1) for m = 1..M."""
    m = np.arange(num_objectives, dtype=np.float64)
    return np.exp(2.0 * m / (num_objectives - 1) - 1.0)


def skew_mmed(num_objectives: int) -> Problem:
    """M-variable M-objective benchmark with skewed power curvature.

    f_m(x) = (||x - e_m||^2 / sqrt(2)) ** p_m. Requires at least two
    objectives (the power schedule divides by M - 1).
    """
    if num_objectives < 2:
        raise ValueError("skew-med needs at least 2 objectives")
    p = skewed_powers(num_objectives)
    spec = NormPowerSpec(
        scales_sq=np.full((num_objectives, num_objectives), 2.0 ** -0.5),
        centers=np.eye(num_objectives),
        powers=2.0 * p,
    )
    return _norm_power_problem(f"skew-{num_objectives}med", spec)


def skew_mmmd(scales, centers, powers) -> Problem:
    """Norm-power benchmark f_m(x) = ||A_m (x - c_m)|| ** p_m.

    `scales` holds the diagonals of the A_m, one row per objective.
    """
    scales = np.asarray(scales, dtype=np.float64)
    spec = NormPowerSpec(scales_sq=scales * scales,
                         centers=np.asarray(centers, dtype=np.float64),
                         powers=np.asarray(powers, dtype=np.float64))
    return _norm_power_problem(f"skew-{spec.scales_sq.shape[0]}mmd", spec)


def skew_mmmd_default(num_objectives: int) -> Problem:
    """Default skew-mmd instance: diagonal scales 3/5 on the matching axis
    and 4/5 elsewhere, centers at the standard basis vectors, skewed powers."""
    if num_objectives < 2:
        raise ValueError("skew-mmd needs at least 2 objectives")
    scales = np.full((num_objectives, num_objectives), 0.8)
    np.fill_diagonal(scales, 0.6)
    return skew_mmmd(scales, np.eye(num_objectives), skewed_powers(num_objectives))


def get_problem(name: str) -> Problem:
    """Look up a benchmark by registry name.

    Fixed names: `scaled-med`, `skew-3med`, `skew-3mmd`. Parameterized:
    `skew-med:M` and `skew-mmd:M` for integer M >= 2.
    """
    key = name.strip().lower()
    if key == "scaled-med":
        return scaled_med()
    if key == "skew-3med":
        return skew_mmed(3)
    if key == "skew-3mmd":
        return skew_mmmd_default(3)
    for prefix, factory in (("skew-med:", skew_mmed), ("skew-mmd:", skew_mmmd_default)):
        if key.startswith(prefix):
            try:
                m = int(key[len(prefix):])
            except ValueError:
                raise ValueError(f"bad objective count in problem name {name!r}") from None
            return factory(m)
    raise ValueError(f"unknown problem {name!r}")
