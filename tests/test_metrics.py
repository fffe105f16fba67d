import warnings

import numpy as np
import pytest

from bezier_mopt.bezier import BezierSimplex, fit_least_squares
from bezier_mopt.metrics import (PointSet, UnsupportedMetricError, gd, igd,
                                 loss, loss_batch, model_samples, mse)
from bezier_mopt.problems import scaled_med, scaled_med_pareto
from bezier_mopt.simplex import MultiIndexSet, enumerate_multi_indices, \
    sample_uniform_simplex
from bezier_mopt.solver import SolverConfig, run_surface_gd

# Monte Carlo estimate (4e6 draws) of the mean squared norm of the analytic
# minimizer over uniform weights; the zero model's mse must concentrate here.
ZERO_MODEL_MSE = 1.8455


def zero_model(m=3, d=3, ambient=3):
    basis = enumerate_multi_indices(m, d)
    return BezierSimplex(basis=basis, control_points=np.zeros((basis.size, ambient)))


def fitted_to_map(n=60, seed=0):
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, n, seed)
    return fit_least_squares(weights, scaled_med_pareto(weights), basis)


def test_loss_zero_model_at_vertex():
    value = loss(zero_model(), [1.0, 0.0, 0.0], scaled_med_pareto)
    assert np.isclose(value, np.sqrt(2.0), rtol=1e-15)


def test_loss_zero_for_interpolating_model():
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, 10, 3)
    target = np.array([0.5, -1.0, 2.0])
    model = BezierSimplex(basis=basis,
                          control_points=np.tile(target, (basis.size, 1)))
    value = loss(model, weights[0], lambda t: target)
    assert value == 0.0


def test_loss_requires_map():
    with pytest.raises(UnsupportedMetricError):
        loss(zero_model(), [1.0, 0.0, 0.0], None)
    with pytest.raises(UnsupportedMetricError):
        mse(zero_model(), None)


def test_mse_needs_a_weight():
    with pytest.raises(ValueError, match="count"):
        mse(zero_model(), scaled_med_pareto, count=0)


def test_loss_invariant_under_joint_row_permutation():
    rng = np.random.default_rng(4)
    basis = enumerate_multi_indices(3, 3)
    control = rng.normal(size=(basis.size, 3))
    model = BezierSimplex(basis=basis, control_points=control)
    perm = rng.permutation(basis.size)
    permuted_basis = MultiIndexSet(
        num_objectives=3, degree=3,
        exponents=basis.exponents[perm],
        coefficients=basis.coefficients[perm])
    permuted = BezierSimplex(basis=permuted_basis, control_points=control[perm])
    for t in sample_uniform_simplex(3, 25, 5):
        a = loss(model, t, scaled_med_pareto)
        b = loss(permuted, t, scaled_med_pareto)
        assert np.isclose(a, b, rtol=1e-12)


def test_mse_exact_model_is_zero():
    model = fitted_to_map()
    # the analytic map is not polynomial, but a model has zero mse against
    # itself as the map (maps take (n, M) batches)
    value = mse(model, model.evaluate_batch, count=500, seed=1)
    assert value < 1e-28


def test_mse_zero_model_concentrates_across_seeds():
    model = zero_model()
    values = [mse(model, scaled_med_pareto, count=10000, seed=s) for s in range(5)]
    values = np.array(values)
    assert np.all(values > 0.0)
    assert np.abs(values - ZERO_MODEL_MSE).max() < 0.02 * ZERO_MODEL_MSE
    assert mse(model, scaled_med_pareto, count=10000, seed=0) == values[0]


def test_mse_low_variation_for_trained_model():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=30, num_iterations=200, degree=3, seed=21)
    model, _ = run_surface_gd(problem, cfg)
    values = np.array([mse(model, problem.pareto_map, count=10000, seed=s)
                       for s in range(10)])
    assert values.std() / values.mean() < 0.05


def test_gd_igd_trivial_cases():
    x = np.array([[0.0, 0.0], [3.0, 0.0]])
    y = np.array([[0.0, 0.0]])
    assert gd(x, x) == 0.0
    assert igd(x, x) == 0.0
    assert gd(x, y) == 1.5
    assert igd(x, y) == 0.0


def test_gd_igd_definitional_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=(rng.integers(1, 8), 3))
        y = rng.normal(size=(rng.integers(1, 8), 3))
        assert gd(x, y) == igd(y, x)


def test_gd_igd_match_bruteforce_reference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.normal(size=(int(rng.integers(1, 9)), 3))
        y = rng.normal(size=(int(rng.integers(1, 9)), 3))
        ref_gd = np.mean([min(np.linalg.norm(p - q) for q in y) for p in x])
        ref_igd = np.mean([min(np.linalg.norm(p - q) for p in x) for q in y])
        assert gd(x, y) == pytest.approx(ref_gd, rel=1e-14)
        assert igd(x, y) == pytest.approx(ref_igd, rel=1e-14)


def test_gd_igd_rigid_motion_invariance_and_scale_equivariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(12, 3))
    y = rng.normal(size=(9, 3))
    raw_q = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(raw_q)
    shift = rng.normal(size=3)
    moved_gd = gd(x @ q.T + shift, y @ q.T + shift)
    assert np.isclose(moved_gd, gd(x, y), rtol=1e-10)
    assert np.isclose(gd(3.0 * x, 3.0 * y), 3.0 * gd(x, y), rtol=1e-12)
    assert np.isclose(igd(3.0 * x, 3.0 * y), 3.0 * igd(x, y), rtol=1e-12)


def test_point_set_wrapper_and_errors():
    x = PointSet(np.zeros((2, 2)), label="model")
    y = PointSet(np.ones((3, 2)), label="reference")
    assert gd(x, y) == np.sqrt(2.0)
    with pytest.raises(ValueError):
        PointSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        gd(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        gd(np.zeros((0, 2)), np.zeros((2, 2)))


def test_model_samples_deterministic():
    model = fitted_to_map()
    a = model_samples(model, 50, seed=9)
    b = model_samples(model, 50, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (50, 3)


def test_loss_batch_matches_scalar_loss():
    model = fitted_to_map()
    weights = sample_uniform_simplex(3, 20, 6)
    batch = loss_batch(model, weights, scaled_med_pareto)
    for i in range(20):
        assert np.isclose(batch[i], loss(model, weights[i], scaled_med_pareto),
                          rtol=1e-12)
    # Both reject a weight off the simplex before the map sees it: loss_batch
    # returned inf, with a RuntimeWarning from the map, and nan.
    for bad in ([2.0, -1.0, 0.0], [np.nan, 0.5, 0.5], [5.0, 5.0, 5.0]):
        for call in (lambda: loss(model, bad, scaled_med_pareto),
                     lambda: loss_batch(model, [bad], scaled_med_pareto)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="weight vector"):
                    call()
