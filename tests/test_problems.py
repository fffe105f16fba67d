import numpy as np
import pytest

from bezier_mopt.problems import (_norm_power_values, get_problem,
                                  gradient_batch_stats, norm_power_gradient_batch,
                                  scalarize, scaled_med, scaled_med_pareto,
                                  skew_mmed, skew_mmmd, skew_mmmd_default,
                                  skewed_powers)
from bezier_mopt.simplex import sample_uniform_simplex

SQRT2 = np.sqrt(2.0)


def central_differences(f, x, h=1e-6):
    """Finite-difference Jacobian oracle, independent of the analytic path."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for l in range(x.size):
        e = np.zeros_like(x)
        e[l] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def jacobian_matches_fd(problem, points, rtol=1e-5):
    for x in points:
        analytic = problem.jacobian(x)
        numeric = central_differences(problem.evaluate, x)
        scale = max(1.0, np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() < rtol * scale


def away_from_centers(problem, count, seed, radius=0.1):
    rng = np.random.default_rng(seed)
    centers = problem.norm_power.centers
    points = []
    while len(points) < count:
        x = rng.uniform(-2.0, 2.0, size=problem.num_vars)
        if np.linalg.norm(x - centers, axis=1).min() > radius:
            points.append(x)
    return np.array(points)


# -- scaled-med -------------------------------------------------------------

def test_scaled_med_values():
    problem = scaled_med()
    assert np.array_equal(problem.evaluate(np.array([0.0, 1.0, 1.0])), [0.0, 3.0, 7.0])


def test_scaled_med_jacobian_row_vanishes_at_own_center():
    problem = scaled_med()
    jac = problem.jacobian(np.array([0.0, 1.0, 1.0]))
    assert np.array_equal(jac[0], np.zeros(3))


def test_scaled_med_pareto_vertices():
    assert np.allclose(scaled_med_pareto([1.0, 0.0, 0.0]), [0.0, 1.0, 1.0], atol=1e-15)
    assert np.allclose(scaled_med_pareto([0.0, 1.0, 0.0]), [1.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(scaled_med_pareto([0.0, 0.0, 1.0]), [1.0, 1.0, -1.0], atol=1e-15)


def test_scaled_med_pareto_centroid():
    x = scaled_med_pareto(np.full(3, 1.0 / 3.0))
    assert np.allclose(x, [5.0 / 6.0, 5.0 / 6.0, 2.0 / 3.0], atol=1e-15)


def test_scaled_med_pareto_stationarity():
    problem = scaled_med()
    for t in sample_uniform_simplex(3, 100, 77):
        x = scaled_med_pareto(t)
        grad = problem.jacobian(x).T @ t
        assert np.linalg.norm(grad) < 1e-9


def test_scaled_med_jacobian_fd():
    problem = scaled_med()
    rng = np.random.default_rng(5)
    jacobian_matches_fd(problem, rng.uniform(-2, 2, size=(20, 3)))


# -- skew-med ---------------------------------------------------------------

def test_skewed_powers_m3():
    assert np.allclose(skewed_powers(3), [np.exp(-1.0), 1.0, np.e], rtol=1e-15)


def test_skew_mmed_vertex_values():
    problem = skew_mmed(3)
    values = problem.evaluate(np.array([1.0, 0.0, 0.0]))
    assert values[0] == 0.0
    assert np.isclose(values[1], SQRT2, rtol=1e-15)
    assert np.isclose(values[2], SQRT2 ** np.e, rtol=1e-14)


def test_skew_mmed_rejects_single_objective():
    with pytest.raises(ValueError):
        skew_mmed(1)


def test_skew_mmed_jacobian_fd():
    problem = skew_mmed(3)
    jacobian_matches_fd(problem, away_from_centers(problem, 20, 6))


# -- skew-mmd ---------------------------------------------------------------

def test_skew_mmmd_default_vertex_values():
    problem = skew_mmmd_default(3)
    values = problem.evaluate(np.array([1.0, 0.0, 0.0]))
    assert values[0] == 0.0
    # second objective: ||diag(4/5,3/5,4/5)(e1-e2)|| = sqrt(16/25+9/25) = 1
    assert np.isclose(values[1], 1.0, rtol=1e-15)
    assert values[2] > 0.0


def test_skew_mmmd_gradient_zero_at_centers():
    problem = skew_mmmd_default(3)
    for m in range(3):
        jac = problem.jacobian(problem.norm_power.centers[m])
        assert np.array_equal(jac[m], np.zeros(3))


def test_skew_mmmd_rejects_nonpositive_exponent():
    with pytest.raises(ValueError):
        skew_mmmd(np.ones((2, 2)), np.eye(2), [1.0, 0.0])
    # ... and scales, centers and powers of mismatched shapes.
    with pytest.raises(ValueError, match="matching shapes"):
        skew_mmmd(np.ones((2, 2)), np.eye(3), [1.0, 1.0])
    with pytest.raises(ValueError, match="one entry per objective"):
        skew_mmmd(np.ones((2, 2)), np.eye(2), [1.0, 1.0, 1.0])


def test_skew_mmmd_jacobian_fd():
    problem = skew_mmmd_default(3)
    jacobian_matches_fd(problem, away_from_centers(problem, 20, 7))


# -- scalarization ----------------------------------------------------------

def test_scalarize_one_hot_gradient_is_objective_gradient():
    problem = scaled_med()
    x = np.array([0.3, -0.2, 0.9])
    for m in range(3):
        t = np.zeros(3)
        t[m] = 1.0
        s = scalarize(problem, t)
        assert np.allclose(s.gradient(x), problem.jacobian(x)[m], atol=1e-15)


def test_scalarize_gradient_vanishes_at_analytic_minimizer():
    problem = scaled_med()
    t = np.full(3, 1.0 / 3.0)
    s = scalarize(problem, t)
    assert np.linalg.norm(s.gradient(scaled_med_pareto(t))) < 1e-12


def test_scalarize_value_linear_in_weights():
    problem = skew_mmed(3)
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    t_a = sample_uniform_simplex(3, 1, 1)[0]
    t_b = sample_uniform_simplex(3, 1, 2)[0]
    mid = scalarize(problem, (t_a + t_b) / 2.0).value(x)
    mean = (scalarize(problem, t_a).value(x) + scalarize(problem, t_b).value(x)) / 2.0
    assert np.isclose(mid, mean, rtol=1e-12)


def test_scalarize_dimension_mismatch():
    with pytest.raises(ValueError):
        scalarize(scaled_med(), [0.5, 0.5])


# -- shared machinery -------------------------------------------------------

def test_registry_names():
    assert get_problem("scaled-med").name == "scaled-med"
    assert get_problem("skew-3med").name == "skew-3med"
    assert get_problem("skew-3mmd").name == "skew-3mmd"
    assert get_problem("skew-med:4").num_objectives == 4
    assert get_problem("skew-mmd:5").num_vars == 5
    with pytest.raises(ValueError):
        get_problem("nope")
    with pytest.raises(ValueError):
        get_problem("skew-med:x")
    with pytest.raises(ValueError):
        get_problem("skew-mmd:1")


def test_objectives_nonnegative_everywhere_sampled():
    rng = np.random.default_rng(9)
    for name in ("scaled-med", "skew-3med", "skew-3mmd"):
        problem = get_problem(name)
        values = _norm_power_values(problem.norm_power, rng.uniform(-3, 3, size=(200, 3)))
        assert values.min() >= 0.0


def test_gradient_batch_stats_matches_per_point():
    problem = skew_mmmd_default(3)
    points = away_from_centers(problem, 10, 11)
    weights = sample_uniform_simplex(3, 10, 12)
    grads, mu = gradient_batch_stats(problem, points, weights)
    for n in range(10):
        jac = problem.jacobian(points[n])
        assert np.allclose(grads[n], jac.T @ weights[n], rtol=1e-12)
        assert np.isclose(mu[n], np.linalg.norm(jac, axis=1).max(), rtol=1e-12)


def einsum_gradient_batch(spec, points, weights):
    """Reference `norm_power_gradient_batch` on row-major (N, M, L) arrays,
    with the sums over L and M taken by einsum."""
    diff = points[:, None, :] - spec.centers[None, :, :]
    r2 = np.einsum("ml,nml->nm", spec.scales_sq, diff * diff)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(r2 > 0.0, spec.powers * r2 ** ((spec.powers - 2.0) / 2.0), 0.0)
    scaled = spec.scales_sq[None, :, :] * diff
    grads = factor[:, :, None] * scaled
    g = np.einsum("nm,nml->nl", weights, grads)
    mu = np.sqrt((grads * grads).sum(axis=2)).max(axis=1)
    return g, mu


def oracle_batch(problem, seed):
    """Rows around the centers, one row exactly at each center and one NaN
    row, with weights drawn on the simplex."""
    spec = problem.norm_power
    rng = np.random.default_rng(seed)
    points = rng.uniform(-0.5, 1.5, size=(500, problem.num_vars))
    points[:problem.num_objectives] = spec.centers
    points[problem.num_objectives, 0] = np.nan
    return points, sample_uniform_simplex(problem.num_objectives, 500, seed)


def test_gradient_batch_is_bitwise_the_einsum_reference_on_scaled_med():
    problem = scaled_med()
    points, weights = oracle_batch(problem, 21)
    grads, mu = norm_power_gradient_batch(problem.norm_power, points, weights)
    ref_grads, ref_mu = einsum_gradient_batch(problem.norm_power, points, weights)
    assert np.ascontiguousarray(grads).tobytes() == ref_grads.tobytes()
    assert mu.tobytes() == ref_mu.tobytes()


@pytest.mark.parametrize("name", ["skew-3med", "skew-3mmd", "skew-mmd:4"])
def test_gradient_batch_matches_the_einsum_reference_on_skew_problems(name):
    # einsum rounds some of the radii r2 differently and the powers carry
    # that into G, so the results are not bitwise. Each entry of G agrees
    # to 1e-13 of the summed magnitudes of its terms, which bounds the
    # rounding of a cancelling sum.
    problem = get_problem(name)
    points, weights = oracle_batch(problem, 22)
    grads, mu = norm_power_gradient_batch(problem.norm_power, points, weights)
    ref_grads, ref_mu = einsum_gradient_batch(problem.norm_power, points, weights)
    assert np.array_equal(np.isnan(grads), np.isnan(ref_grads))
    assert np.array_equal(np.isnan(mu), np.isnan(ref_mu))
    # At a center its objective's gradient is zero, not 0 * inf.
    assert np.all(np.isfinite(grads[:problem.num_objectives]))
    finite = np.isfinite(ref_mu)
    magnitudes = np.stack([np.abs(problem.jacobian(x)).T @ w
                           for x, w in zip(points[finite], weights[finite])])
    assert np.all(np.abs(grads[finite] - ref_grads[finite]) <= 1e-13 * magnitudes)
    np.testing.assert_allclose(mu[finite], ref_mu[finite], rtol=1e-13, atol=0.0)


def test_evaluate_batch_matches_per_point():
    problem = scaled_med()
    rng = np.random.default_rng(13)
    points = rng.normal(size=(10, 3))
    batch = _norm_power_values(problem.norm_power, points)
    for n in range(10):
        assert np.allclose(batch[n], problem.evaluate(points[n]), rtol=1e-14)
