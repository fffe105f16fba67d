"""Approximation-quality metrics in decision space.

`loss` and `mse` measure a fitted model against an analytical
weight-to-minimizer map; `gd` and `igd` are the generational-distance
indicators between finite point sets (mean nearest-neighbour distance, and
the same with the roles of the two sets swapped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import min_distances
from .bezier import BezierSimplex
from .simplex import sample_uniform_simplex, weight_vector


class UnsupportedMetricError(ValueError):
    """Requested a map-based metric for a problem without an analytical map."""


@dataclass(frozen=True, eq=False)
class PointSet:
    """A labeled finite set of points with uniform dimension."""

    points: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=np.float64))
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise ValueError("a point set must be a nonempty (n, d) array")


def _as_points(value) -> np.ndarray:
    pts = value.points if isinstance(value, PointSet) else np.asarray(value, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("point sets must be nonempty 2-D arrays")
    return pts


def _squared_errors(model: BezierSimplex, weights, pareto_map) -> np.ndarray:
    """Per-row squared model-to-map distances for a weight batch; (n,)."""
    if pareto_map is None:
        raise UnsupportedMetricError("loss and mse need an analytical weight-to-minimizer map")
    diff = model.evaluate_batch(weights) - np.asarray(pareto_map(weights), dtype=np.float64)
    return (diff * diff).sum(axis=1)


def loss(model: BezierSimplex, t, pareto_map) -> float:
    """Model-to-map distance at one weight: `loss_batch` of the validated `t`."""
    arr = weight_vector(t, dim=model.num_objectives)
    return float(loss_batch(model, arr[None], pareto_map)[0])


def loss_batch(model: BezierSimplex, weights, pareto_map) -> np.ndarray:
    """Per-row losses for a weight batch; (n,)."""
    return np.sqrt(_squared_errors(model, np.asarray(weights, dtype=np.float64), pareto_map))


def mse(model: BezierSimplex, pareto_map, count: int = 10000, seed: int = 0) -> float:
    """Mean squared model-to-map distance over uniform random weights.

    Deterministic for a fixed seed; `count` defaults to the 10000-sample
    estimate used in the reference experiments.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    weights = sample_uniform_simplex(model.num_objectives, count, seed)
    return float(_squared_errors(model, weights, pareto_map).mean())


def gd(approximation, reference) -> float:
    """Mean distance from each approximation point to its nearest reference
    point. Zero iff every approximation point lies in the reference set."""
    a = _as_points(approximation)
    b = _as_points(reference)
    if a.shape[1] != b.shape[1]:
        raise ValueError("point sets must share a dimension")
    return float(min_distances(a, b).mean())


def igd(approximation, reference) -> float:
    """`gd` with the roles swapped: mean distance from each reference point
    to the approximation, measuring coverage of the reference set."""
    return gd(reference, approximation)


def model_samples(model: BezierSimplex, count: int = 1000, seed: int = 0) -> np.ndarray:
    """Push `count` uniform random weights through the model; (count, L)."""
    weights = sample_uniform_simplex(model.num_objectives, count, seed)
    return model.evaluate_batch(weights)
