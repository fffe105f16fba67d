"""Bezier simplex model: evaluation, design matrices, least-squares fitting.

A Bezier simplex of degree D maps the probability simplex into R^L as a
convex-weighted combination of control points: b(t) = P' z(t) where z(t) is
the Bernstein basis vector and P stacks one control point per multi-index,
in canonical order. Fitting a batch of (weight, point) pairs is an ordinary
linear least-squares problem in P, solved from the normal equations of each
design matrix Z. Only the eigenvalues of Z'Z are computed; the smallest is
the stability quantity of the method. The few designs whose Gram matrix is
too ill-conditioned fall back to a thin SVD, which also serves as the
singularity gate, and to its pseudo-inverse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._kernels import bernstein_design
from .simplex import (MultiIndexSet, basis_size, check_weight_rows,
                      enumerate_multi_indices, weight_vector)

# A design matrix is declared numerically singular when its smallest
# singular value falls below this fraction of the largest. Random weight
# batches are nonsingular with probability one, but finite precision needs
# a concrete threshold; the solver reacts to this error by resampling.
SINGULARITY_RTOL = 1e-10

# A design is factored through its Gram matrix only when the Gram matrix's
# smallest eigenvalue exceeds this fraction of its largest, i.e. cond(Z) is
# below about 1e3. The Gram solve's relative error grows like cond(Z)^2 *
# eps, so above the threshold it stays under about 1e-10; every other design
# is refactored by SVD. A design the singularity gate rejects has
# s_min/s_max < SINGULARITY_RTOL, far below this threshold, so the gate only
# ever sees SVD-factored designs.
GRAM_RTOL = 1e-6


class SingularFitError(ValueError):
    """Raised when the design matrix is rank-deficient to working precision."""

    def __init__(self, message: str, smallest_singular_value: float):
        super().__init__(message)
        self.smallest_singular_value = float(smallest_singular_value)


@dataclass(eq=False)
class BezierSimplex:
    """Degree-D Bezier simplex with control points stacked in canonical order.

    `control_points` has one row per multi-index of `basis` and L columns.
    Instances are immutable by convention; evaluation is pure.
    """

    basis: MultiIndexSet
    control_points: np.ndarray

    def __post_init__(self):
        self.control_points = np.asarray(self.control_points, dtype=np.float64)
        if self.control_points.ndim != 2:
            raise ValueError("control_points must be a 2-D array")
        if self.control_points.shape[0] != self.basis.size:
            raise ValueError(
                f"control_points has {self.control_points.shape[0]} rows, "
                f"basis needs {self.basis.size}")
        if not np.all(np.isfinite(self.control_points)):
            raise ValueError("control_points must be finite")

    @property
    def num_objectives(self) -> int:
        return self.basis.num_objectives

    @property
    def degree(self) -> int:
        return self.basis.degree

    @property
    def ambient_dim(self) -> int:
        return self.control_points.shape[1]

    def evaluate(self, t) -> np.ndarray:
        """Point on the hypersurface at weight t, an (L,) vector."""
        return self.evaluate_batch(weight_vector(t, dim=self.num_objectives)[None, :])[0]

    def evaluate_batch(self, weights) -> np.ndarray:
        """Evaluate at every row, a weight vector, of a nonempty (N, M) `weights`; (N, L)."""
        return design_matrix(check_weight_rows(weights), self.basis) @ self.control_points

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "M": self.basis.num_objectives,
            "D": self.basis.degree,
            "L": self.ambient_dim,
            "index_order": self.basis.exponents.tolist(),
            "control_points": self.control_points.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BezierSimplex":
        for key in ("M", "D", "L", "index_order", "control_points"):
            if key not in doc:
                raise ValueError(f"model document is missing field {key!r}")
        num_objectives, degree = int(doc["M"]), int(doc["D"])
        size = basis_size(num_objectives, degree)
        order = np.asarray(doc["index_order"], dtype=np.int64)
        # The basis is enumerated only for an index_order of its shape, a
        # document as large as the basis.
        basis = (enumerate_multi_indices(num_objectives, degree)
                 if order.shape == (size, num_objectives) else None)
        if basis is None or not np.array_equal(order, basis.exponents):
            raise ValueError("index_order does not match the canonical enumeration")
        control = np.asarray(doc["control_points"], dtype=np.float64)
        if control.ndim != 2 or control.shape != (basis.size, int(doc["L"])):
            raise ValueError(
                f"control_points shape {control.shape} does not match "
                f"({basis.size}, {doc['L']})")
        return cls(basis=basis, control_points=control)


def save_model(model: BezierSimplex, path) -> None:
    """Write the model JSON document. Floats are written in Python's
    shortest round-trip representation, so reloading is bit-exact."""
    with open(path, "w", newline="\n") as fh:
        json.dump(model.to_dict(), fh, indent=2)
        fh.write("\n")


def load_model(path) -> BezierSimplex:
    with open(path) as fh:
        return BezierSimplex.from_dict(json.load(fh))


def design_matrix(weights, basis: MultiIndexSet) -> np.ndarray:
    """Stack Bernstein basis vectors for a batch of simplex rows; (N, J),
    C-contiguous.

    Checks only the batch's shape. For weight-vector rows, every row of the
    result sums to one and all entries lie in [0, 1]. Row-major because
    products with the design round by layout, and library results keep
    their row-major bits; the kernel builds it coordinate-major.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("weights must be a nonempty (N, M) array")
    if arr.shape[1] != basis.num_objectives:
        raise ValueError(
            f"weights have dimension {arr.shape[1]}, basis expects "
            f"{basis.num_objectives}")
    return np.ascontiguousarray(bernstein_design(arr, basis._exponents_f64, basis.coefficients))


def factor_designs(designs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor a stack (T, N, J) of design matrices for least squares.

    Returns (grams, lambda_min, singular, fallback): each design's Gram
    matrix Z'Z and its smallest eigenvalue (only eigenvalues are computed),
    a flag set when its smallest singular value falls below
    SINGULARITY_RTOL times its largest, and a flag set when lambda_min <=
    GRAM_RTOL * lambda_max, for a design that falls back to a thin SVD and
    takes the squared smallest singular value as lambda_min. Each design
    is factored on its own, independently of the rest of the stack.
    """
    grams = np.swapaxes(designs, 1, 2) @ designs
    eigvals = np.linalg.eigvalsh(grams)
    lambda_min = eigvals[:, 0].copy()
    singular = np.zeros(len(designs), dtype=bool)
    fallback = ~(lambda_min > GRAM_RTOL * eigvals[:, -1])
    if fallback.any():
        s = np.linalg.svd(designs[fallback], full_matrices=False)[1]
        lambda_min[fallback] = s[:, -1] * s[:, -1]
        singular[fallback] = s[:, -1] < SINGULARITY_RTOL * s[:, 0]
    return grams, lambda_min, singular, fallback


def solve_factored(designs: np.ndarray, grams: np.ndarray, fallback: np.ndarray,
                   targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares solutions, each design's on its own, of nonsingular
    designs factored by `factor_designs` for their (N, L) targets X.

    Returns (solutions, rhs), rhs the products Z'X: a design solves the
    normal equations (Z'Z) P = Z'X by LU, or, for fallback designs, rare
    enough to redo their thin SVD here, takes the pseudo-inverse
    V diag(1/s) U' X. When no design falls back, the whole stack is one LU
    solve.
    """
    rhs = np.swapaxes(designs, 1, 2) @ targets
    if not fallback.any():
        return np.linalg.solve(grams, rhs), rhs
    solution = np.empty_like(rhs)
    solution[~fallback] = np.linalg.solve(grams[~fallback], rhs[~fallback])
    u, s, vt = np.linalg.svd(designs[fallback], full_matrices=False)
    pinv = (np.swapaxes(vt, 1, 2) / s[:, None, :]) @ np.swapaxes(u, 1, 2)
    solution[fallback] = pinv @ targets[fallback]
    return solution, rhs


def fit_least_squares(weights, points, basis: MultiIndexSet) -> BezierSimplex:
    """Fit control points minimizing the mean squared residual over the batch.

    `weights` is (N, M) with weight-vector rows, `points` is (N, L), and N
    must be at least the basis size. Raises SingularFitError for
    rank-deficient designs, carrying the offending smallest singular value.
    """
    pts = np.asarray(points, dtype=np.float64)
    arr = check_weight_rows(weights)
    if pts.ndim != 2 or arr.ndim != 2 or pts.shape[0] != arr.shape[0]:
        raise ValueError("weights and points must be 2-D with matching row counts")
    design = design_matrix(arr, basis)
    n_rows, n_basis = design.shape
    if n_rows < n_basis:
        raise SingularFitError(
            f"{n_rows} samples cannot determine {n_basis} control points",
            smallest_singular_value=0.0)
    grams, (lambda_min,), (singular,), fallback = factor_designs(design[None])
    if singular:
        smallest = np.sqrt(lambda_min)
        raise SingularFitError(
            f"design matrix is numerically singular "
            f"(smallest singular value {smallest:.3e})",
            smallest_singular_value=smallest)
    (solution,), _ = solve_factored(design[None], grams, fallback, pts[None])
    return BezierSimplex(basis, solution)
