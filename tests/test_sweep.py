import numpy as np
import pytest

from bezier_mopt.problems import (get_problem, scaled_med, scaled_med_pareto,
                                  skew_mmed)
from bezier_mopt.sweep import (minimize_scalarizations, pareto_set_sweep,
                               triangular_lattice)


def test_lattice_exact_size_without_thinning():
    pts = triangular_lattice(3, 10)
    # resolution 3 has exactly C(5, 2) = 10 points
    assert pts.shape == (10, 3)
    scaled = [tuple(row) for row in np.round(pts * 3).astype(int).tolist()]
    assert sorted(scaled, reverse=True) == scaled
    assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-15)


def test_lattice_thins_to_requested_count():
    pts = triangular_lattice(3, 1000)
    assert pts.shape == (1000, 3)
    assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(pts >= 0.0)
    # includes the extreme corners of the enumeration
    assert np.array_equal(pts[0], [1.0, 0.0, 0.0])
    assert np.array_equal(pts[-1], [0.0, 0.0, 1.0])


def test_lattice_deterministic():
    assert np.array_equal(triangular_lattice(4, 321), triangular_lattice(4, 321))


def test_lattice_validates_arguments():
    with pytest.raises(ValueError):
        triangular_lattice(0, 5)
    with pytest.raises(ValueError):
        triangular_lattice(3, 0)


def test_scaled_med_sweep_converges_to_analytic_map():
    problem = scaled_med()
    result = pareto_set_sweep(problem, 100)
    assert result.converged.all()
    expected = scaled_med_pareto(result.weights)
    assert np.abs(result.points - expected).max() < 1e-7
    assert result.grad_norms.max() < 1e-8


def test_sweep_tightened_tolerance_matches_closed_form():
    problem = scaled_med()
    weights = np.array([[1.0, 1.0, 1.0]]) / 3.0
    result = minimize_scalarizations(problem, weights, grad_tol=1e-12)
    assert result.converged.all()
    assert np.abs(result.points[0] - np.array([5.0, 5.0, 4.0]) / 6.0).max() < 1e-10


def test_skew_sweep_reports_cusp_weights_unconverged():
    problem = skew_mmed(3)
    result = pareto_set_sweep(problem, 200, max_steps=3000)
    # the first objective has norm power 2*exp(-1) < 2, so weights dominated
    # by it descend toward a cusp the gradient criterion cannot certify
    assert 0 < int(result.converged.sum()) < 200
    unconverged_w = result.weights[~result.converged]
    assert unconverged_w[:, 0].min() > 0.5


def test_sweep_converged_points_are_stationary():
    problem = get_problem("skew-3mmd")
    result = pareto_set_sweep(problem, 150)
    pts = result.converged_points
    ws = result.converged_weights
    for x, t in zip(pts[:20], ws[:20]):
        grad = problem.jacobian(x).T @ t
        assert np.linalg.norm(grad) < 1e-8


def test_generic_descent_path_matches_family_kernel():
    problem = scaled_med()
    stripped = problem.__class__(
        name=problem.name, num_objectives=3, num_vars=3,
        evaluate=problem.evaluate, jacobian=problem.jacobian,
        pareto_map=problem.pareto_map, norm_power=None)
    weights = triangular_lattice(3, 10)
    start = weights @ problem.norm_power.centers
    fast = minimize_scalarizations(problem, weights, start=start.copy(), max_steps=2000)
    slow = minimize_scalarizations(stripped, weights, start=start.copy(), max_steps=2000)
    assert np.array_equal(fast.converged, slow.converged)
    assert np.abs(fast.points - slow.points).max() < 1e-10


@pytest.mark.parametrize("name", ["skew-3mmd", "scaled-med"])
def test_stacked_lattices_split_into_their_own_sweeps_bitwise(name):
    # The baseline descends its population and validation lattices in one
    # call; each weight descends on its own, so the split results are those
    # of separate calls, cusp weights that never converge included.
    problem = get_problem(name)
    population = triangular_lattice(problem.num_objectives, 100)
    stacked = minimize_scalarizations(
        problem, np.vstack([population, triangular_lattice(problem.num_objectives, 300)]),
        max_steps=3000)
    head, tail = stacked.split(100)
    for part, alone in ((head, minimize_scalarizations(problem, population, max_steps=3000)),
                        (tail, pareto_set_sweep(problem, 300, max_steps=3000))):
        for field in ("weights", "points", "grad_norms", "steps", "converged"):
            value, expected = getattr(part, field), getattr(alone, field)
            assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), field
    if name == "skew-3mmd":
        assert not stacked.converged.all()
