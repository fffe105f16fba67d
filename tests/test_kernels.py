"""Cross-checks between the numba kernels and their numpy fallbacks, and
between the coordinate-major numpy descent and its row-major reference.

The numba and numpy paths share per-element arithmetic but SIMD pow can
differ from libm pow in the last ulps, so agreement is asserted at rtol
1e-12 rather than bitwise. Distance kernels involve no transcendentals
beyond sqrt and agree exactly on low dimensions. The two numpy descents
perform the same operations per element in the same order, so they must
agree bit for bit.
"""

import warnings

import numpy as np
import pytest

from bezier_mopt import _kernels as kern
from bezier_mopt.problems import (PROBLEM_NAMES, get_problem, scaled_med,
                                  scaled_med_pareto, skew_mmmd_default)
from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex
from bezier_mopt.sweep import triangular_lattice

needs_numba = pytest.mark.skipif(not kern.NUMBA_ENABLED,
                                 reason="numba path not enabled")


def _basis_arrays(m, d):
    basis = enumerate_multi_indices(m, d)
    return basis.exponents.astype(np.float64), basis.coefficients


@needs_numba
def test_bernstein_design_paths_agree():
    for m, d in [(2, 2), (3, 3), (4, 5)]:
        expf, coeff = _basis_arrays(m, d)
        weights = np.vstack([sample_uniform_simplex(m, 500, 42 + m), np.eye(m)])
        a = kern.bernstein_design_numpy(weights, expf, coeff)
        b = kern.bernstein_design_numba(weights, expf, coeff)
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-300)


@needs_numba
def test_min_distances_paths_agree_exactly():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    y = rng.normal(size=(150, 3))
    a = kern.min_distances_numpy(x, y)
    b = kern.min_distances_numba(x, y)
    assert np.array_equal(a, b)


@needs_numba
def test_descent_sweep_paths_agree():
    # Non-converged iterates bounce around cusp minimizers, so ulp-level pow
    # differences amplify there; downstream consumers only use converged
    # points, which the two paths must agree on.
    for problem in (scaled_med(), skew_mmmd_default(3)):
        spec = problem.norm_power
        weights = sample_uniform_simplex(3, 64, 3)
        start = weights @ spec.centers
        args = (spec.scales_sq, spec.centers, spec.powers, weights, start,
                0.2, 2000.0, 1e-8, 5000)
        pa, ga, sa, ca = kern.descent_sweep_numpy(*args)
        pb, gb, sb, cb = kern.descent_sweep_numba(*args)
        assert np.array_equal(ca, cb)
        assert np.array_equal(sa[ca], sb[cb])
        np.testing.assert_allclose(pa[ca], pb[cb], rtol=1e-9, atol=1e-12)


def test_design_kernel_rows_sum_to_one():
    expf, coeff = _basis_arrays(3, 3)
    weights = sample_uniform_simplex(3, 300, 0)
    z = kern.bernstein_design(weights, expf, coeff)
    assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-12
    assert z.min() >= 0.0


def test_min_distances_matches_naive():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 4))
    y = rng.normal(size=(30, 4))
    naive = np.array([min(np.linalg.norm(p - q) for q in y) for p in x])
    np.testing.assert_allclose(kern.min_distances(x, y), naive, rtol=1e-14)


def test_descent_sweep_reaches_quadratic_minimum():
    spec = scaled_med().norm_power
    weights = sample_uniform_simplex(3, 16, 10)
    start = weights @ spec.centers
    points, grad_norms, steps, converged = kern.descent_sweep(
        spec.scales_sq, spec.centers, spec.powers, weights, start,
        0.2, 2000.0, 1e-10, 100000)
    assert converged.all()
    assert grad_norms.max() < 1e-10
    assert steps.max() < 1000


def _descent_sweep_rowmajor(scales_sq, centers, powers, weights, start,
                            step0, decay_steps, grad_tol, max_steps):
    """Reference for `descent_sweep_numpy`: one (n, M, L) array per step,
    gathered from and scattered back to the outputs on every step."""
    n_w, dim = start.shape
    points = start.copy()
    grad_norms = np.full(n_w, np.inf)
    steps = np.zeros(n_w, dtype=np.int64)
    converged = np.zeros(n_w, dtype=np.bool_)
    active = np.arange(n_w)
    for k in range(1, max_steps + 1):
        x = points[active]
        t = weights[active]
        diff = x[:, None, :] - centers[None, :, :]
        r2 = np.zeros((x.shape[0], scales_sq.shape[0]))
        for l in range(dim):
            r2 += scales_sq[:, l] * diff[:, :, l] ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(r2 > 0.0, t * powers * r2 ** ((powers - 2.0) / 2.0), 0.0)
        grad = np.zeros_like(x)
        for l in range(dim):
            grad[:, l] = (w * scales_sq[:, l] * diff[:, :, l]).sum(axis=1)
        g2 = np.zeros(x.shape[0])
        for l in range(dim):
            g2 += grad[:, l] ** 2
        g_norm = np.sqrt(g2)
        done = g_norm < grad_tol
        if done.any():
            idx = active[done]
            converged[idx] = True
            grad_norms[idx] = g_norm[done]
            steps[idx] = k - 1
        keep = ~done
        active = active[keep]
        if active.size == 0:
            break
        alpha = step0 / (1.0 + k / decay_steps)
        points[active] = x[keep] - alpha * grad[keep]
        grad_norms[active] = g_norm[keep]
        steps[active] = k
    return points, grad_norms, steps, converged


def _assert_bitwise_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        if a.dtype.kind == "f":
            finite = ~np.isnan(a)
            assert np.array_equal(np.signbit(a[finite]), np.signbit(b[finite]))


def _sweep_args(problem, weights, max_steps, start=None):
    spec = problem.norm_power
    if start is None:
        start = weights @ spec.centers
    return (spec.scales_sq, spec.centers, spec.powers, weights, start,
            0.2, 2000.0, 1e-8, max_steps)


# skew-mmd:9 has enough objectives for numpy to sum the M terms pairwise.
@pytest.mark.parametrize("name", PROBLEM_NAMES + ("skew-mmd:4", "skew-med:2", "skew-mmd:9"))
def test_descent_sweep_matches_rowmajor_reference_bitwise(name):
    problem = get_problem(name)
    weights = triangular_lattice(problem.num_objectives, 60)
    args = _sweep_args(problem, weights, 3000)
    got = kern.descent_sweep_numpy(*args)
    _assert_bitwise_equal(got, _descent_sweep_rowmajor(*args))
    # Converged and non-converged weights both occur, except on the
    # quadratic problem, where every descent converges.
    assert got[3].any() and (name == "scaled-med" or not got[3].all())


@pytest.mark.parametrize("count,max_steps", [(0, 100), (60, 0), (60, 1)])
def test_descent_sweep_edge_sizes_match_reference(count, max_steps):
    problem = get_problem("skew-3mmd")
    weights = triangular_lattice(3, 60)[:count]
    args = _sweep_args(problem, weights, max_steps)
    got = kern.descent_sweep_numpy(*args)
    _assert_bitwise_equal(got, _descent_sweep_rowmajor(*args))
    steps, converged = got[2], got[3]
    assert (steps[converged] == 0).all() and (steps[~converged] == max_steps).all()
    assert converged.any() == (count > 0 and max_steps > 0)


def test_descent_sweep_started_at_minimizers_stops_at_step_zero():
    problem = scaled_med()
    weights = triangular_lattice(3, 60)
    args = _sweep_args(problem, weights, 100, start=scaled_med_pareto(weights))
    got = kern.descent_sweep_numpy(*args)
    _assert_bitwise_equal(got, _descent_sweep_rowmajor(*args))
    assert got[3].all() and (got[2] == 0).all()


def test_descent_sweep_diverging_weight_is_silent_and_unconverged():
    # Lattice weight 88 of 1000 on skew-med:2 (about [0.912, 0.088])
    # overflows to NaN well within 1000 steps.
    problem = get_problem("skew-med:2")
    weights = triangular_lattice(2, 1000)[86:91]
    args = _sweep_args(problem, weights, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kern.descent_sweep_numpy(*args)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_bitwise_equal(got, _descent_sweep_rowmajor(*args))
    points, grad_norms, steps, converged = got
    assert np.isnan(points[2]).all() and np.isnan(grad_norms[2])
    assert not converged[2] and steps[2] == 1000
