import functools

import numpy as np
import pytest

from bezier_mopt._kernels import CHECK_STEPS, STATUSES
from bezier_mopt.problems import (NormPowerSpec, _norm_power_problem, _norm_power_values,
                                  get_problem, scaled_med, scaled_med_pareto, skew_mmed)
from bezier_mopt.simplex import sample_uniform_simplex
from bezier_mopt.sweep import (cusp_certificate, minimize_scalarizations,
                               pareto_set_sweep, triangular_lattice)


def test_lattice_exact_size_without_thinning():
    pts = triangular_lattice(3, 10)
    # resolution 3 has exactly C(5, 2) = 10 points
    assert pts.shape == (10, 3)
    scaled = [tuple(row) for row in np.round(pts * 3).astype(int).tolist()]
    assert sorted(scaled, reverse=True) == scaled
    assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-15)
    # One objective has a single weight, repeated.
    assert np.array_equal(triangular_lattice(1, 4), np.ones((4, 1)))


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


@pytest.mark.parametrize("weights,start,grad_tol,max_steps,argument", [
    (np.full((10, 3), 1 / 3), np.zeros((1, 3)), 1e-8, 100, "start"),
    (np.full((10, 3), 1 / 3), np.zeros((10, 2)), 1e-8, 100, "start"),
    (np.full((10, 2), 0.5), None, 1e-8, 100, "weights"),
    (np.full(3, 1 / 3), None, 1e-8, 100, "weights"),
    (np.full((10, 3), 1 / 3), None, np.nan, 100, "grad_tol"),
    (np.full((10, 3), 1 / 3), None, -1.0, 100, "grad_tol"),
    (np.full((10, 3), 1 / 3), None, 0.0, 100, "grad_tol"),
    (np.full((10, 3), 1 / 3), None, np.inf, 100, "grad_tol"),
    (np.full((10, 3), 1 / 3), None, 1e-8, -1, "max_steps"),
    (np.full((10, 3), 0.5), None, 1e-8, 100, "weight vector"),
], ids=["one-start-row", "start-width", "weight-width", "weights-1d", "grad-tol-nan",
        "grad-tol-negative", "grad-tol-zero", "grad-tol-inf", "max-steps-negative",
        "weights-off-simplex"])
def test_minimize_scalarizations_names_a_bad_argument(weights, start, grad_tol, max_steps,
                                                      argument):
    # Each of these raised from inside numpy or ran every weight to
    # max_steps as `stalled`.
    with pytest.raises(ValueError, match=argument):
        minimize_scalarizations(scaled_med(), weights, start=start, grad_tol=grad_tol,
                                max_steps=max_steps)


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


def without_centers(problem):
    """`problem` without its norm-power spec, so sweeps take the generic
    descent path."""
    return problem.__class__(
        name=problem.name, num_objectives=problem.num_objectives, num_vars=problem.num_vars,
        evaluate=problem.evaluate, jacobian=problem.jacobian,
        pareto_map=problem.pareto_map, norm_power=None)


def test_generic_descent_path_matches_family_kernel():
    problem = scaled_med()
    stripped = without_centers(problem)
    weights = triangular_lattice(3, 10)
    start = weights @ problem.norm_power.centers
    fast = minimize_scalarizations(problem, weights, start=start.copy(), max_steps=2000)
    slow = minimize_scalarizations(stripped, weights, start=start.copy(), max_steps=2000)
    assert np.array_equal(fast.converged, slow.converged)
    assert np.abs(fast.points - slow.points).max() < 1e-10


def test_problem_without_centers_starts_at_the_origin():
    stripped = without_centers(scaled_med())
    weights = triangular_lattice(3, 10)
    default = minimize_scalarizations(stripped, weights, max_steps=50)
    origin = minimize_scalarizations(stripped, weights, start=np.zeros((10, 3)), max_steps=50)
    for field in ("points", "grad_norms", "steps", "status"):
        value, expected = getattr(default, field), getattr(origin, field)
        assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), field


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
        for field in ("weights", "points", "grad_norms", "steps", "status", "converged"):
            value, expected = getattr(part, field), getattr(alone, field)
            assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), field
    if name == "skew-3mmd":
        assert not stacked.converged.all()


@functools.cache
def _lattice_sweep(name, counts):
    """The sweep of the stacked triangular lattices of `counts` weights."""
    problem = get_problem(name)
    return minimize_scalarizations(problem, np.vstack(
        [triangular_lattice(problem.num_objectives, count) for count in counts]))


# Converged, cusp, diverged and stalled weights of the validation lattices
# and of the baseline's stacked population and validation lattices, and the
# steps of the slowest converging weight. A change to the descent step shows
# here first.
@pytest.mark.parametrize("name,counts,expected,slowest", [
    ("skew-3mmd", (100, 1000), [724, 376, 0, 0], 646),
    ("skew-3med", (1000,), [932, 68, 0, 0], 121),
    ("skew-med:2", (1000,), [858, 142, 0, 0], 645),
    ("skew-mmd:4", (1000,), [759, 241, 0, 0], 1155),
    ("scaled-med", (1000,), [1000, 0, 0, 0], 17),
], ids=["skew-3mmd", "skew-3med", "skew-med:2", "skew-mmd:4", "scaled-med"])
def test_sweep_status_counts_on_the_skew_lattices(name, counts, expected, slowest):
    result = _lattice_sweep(name, counts)
    assert [int((result.status == code).sum()) for code in STATUSES] == expected
    assert int(result.steps[result.converged].max()) == slowest


def test_sweep_reports_a_status_per_weight():
    # skew-med:2 at count 1000: lattice weight 88 oscillates about its
    # certified center 0 (q = 0.736), where a fixed step would throw it out
    # to overflow. Halved on every reversal, its step lets it close in, within
    # scaled radius 1e-14 by step 140, and it stops at the first check as a
    # cusp. Every weight converges or stops at a certified cusp.
    result = _lattice_sweep("skew-med:2", (1000,))
    status = result.status
    assert np.array_equal(result.converged, status == "converged")
    assert status[88] == "cusp"
    cusp = status == "cusp"
    assert cusp.sum() == 142 and not (status == "stalled").any()
    assert not (status == "diverged").any()
    assert (result.steps[cusp] % CHECK_STEPS == 0).all()
    assert (result.steps[~result.converged] < 100_000).all()
    for part in result.split(500):
        assert np.array_equal(part.converged, part.status == "converged")


def _overshooting_paths():
    """The problem x^4, (x - 1)^2, with and without its norm-power spec."""
    problem = _spec_problem(NormPowerSpec(scales_sq=[[1.0], [1.0]], centers=[[0.0], [1.0]],
                                          powers=[4.0, 2.0]))
    stripped = problem.__class__(
        name=problem.name, num_objectives=2, num_vars=1,
        evaluate=problem.evaluate, jacobian=problem.jacobian, norm_power=None)
    return problem, stripped


@pytest.mark.parametrize("max_steps,expected", [
    (0, ["stalled", "stalled", "stalled"]),
    (5, ["stalled", "converged", "stalled"]),
    (400, ["diverged", "converged", "converged"]),
])
def test_generic_descent_reports_the_family_kernels_statuses(max_steps, expected):
    # x^4 and (x - 1)^2 on the line. Started at x = 3, the weight on x^4
    # overshoots its center further on every step: the iterate grows like
    # its cube while the halving only halves the step, so it overflows to
    # inf at step 6 and to NaN at step 8. The weight on (x - 1)^2 alone
    # converges in 2 steps: on a quadratic the BB2 length of its second
    # step, 0.5, is the exact one. The third meets the tolerance only at the
    # gradient after its fifth step, which a 5-step budget never evaluates.
    problem, stripped = _overshooting_paths()
    weights = np.array([[1.0, 0.0], [0.0, 1.0], [0.001, 0.999]])
    start = np.array([[3.0], [0.0], [0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        fast = minimize_scalarizations(problem, weights, start=start, max_steps=max_steps)
        slow = minimize_scalarizations(stripped, weights, start=start, max_steps=max_steps)
    assert fast.status.tolist() == slow.status.tolist() == expected


def test_generic_descent_stops_a_diverging_weight_at_a_check_step():
    # The overshooting weight of the test above, given more steps: both
    # paths stop it at the first check, not at max_steps.
    problem, stripped = _overshooting_paths()
    weights, start = np.array([[1.0, 0.0]]), np.array([[3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        for result in (minimize_scalarizations(problem, weights, start=start, max_steps=2000),
                       minimize_scalarizations(stripped, weights, start=start, max_steps=2000)):
            assert result.status.tolist() == ["diverged"]
            assert result.steps.tolist() == [CHECK_STEPS]


def _is_local_minimizer(spec, t, x, eps=1e-7, count=2000, seed=0):
    """Brute-force probe: f(x) <= f(x + eps d) for `count` unit directions d
    (random ones plus the coordinate axes), f the scalarization sum_m t_m f_m."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, len(x)))
    dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1, keepdims=True),
                      np.eye(len(x)), -np.eye(len(x))])
    here = _norm_power_values(spec, x[None, :]) @ t
    return bool((_norm_power_values(spec, x + eps * dirs) @ t >= here).all())


def _spec_problem(spec):
    return _norm_power_problem("probe", spec)


def _dual_ratio(spec, t, m):
    """||A_m^{-1} g_rest(c_m)|| / t_m, computed per objective."""
    problem = _spec_problem(spec)
    jac = problem.jacobian(spec.centers[m])
    g_rest = sum(t[j] * jac[j] for j in range(len(t)) if j != m)
    return np.linalg.norm(g_rest / np.sqrt(spec.scales_sq[m])) / t[m] if t[m] > 0 else np.inf


# Centers with q <= 1 of each case, and the outcomes the weights below reach
# there: certified at q < 1 and at q = 1 (pass), not certified at t_m = 0,
# at q = 1 (fail) and where A_m is singular.
CERTIFICATE_CASES = {
    "skew-3mmd": (None, {"q<1", "t=0", "q=1 pass", "q=1 fail"}),
    "skew-3med": (None, {"q<1", "t=0"}),
    "anisotropic": (NormPowerSpec(scales_sq=[[1.0, 4.0], [0.25, 1.0]],
                                  centers=[[0.0, 0.0], [1.0, 1.0]], powers=[1.0, 0.5]),
                    {"q<1", "t=0", "q=1 pass", "q=1 fail"}),
    "singular": (NormPowerSpec(scales_sq=[[1.0, 0.0], [1.0, 1.0]],
                               centers=[[0.0, 0.0], [1.0, 1.0]], powers=[0.5, 1.0]),
                 {"singular", "t=0", "q=1 pass", "q=1 fail"}),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_cusp_certificate_matches_brute_force_local_minimality(name):
    spec, expected_cases = CERTIFICATE_CASES[name]
    if spec is None:
        spec = get_problem(name).norm_power
    m_obj = spec.powers.size
    weights = np.vstack([sample_uniform_simplex(m_obj, 60, 5),
                         np.eye(m_obj),                                  # t_m = 1
                         (1.0 - np.eye(m_obj)) / (m_obj - 1)])           # t_m = 0
    cert = cusp_certificate(spec, weights)
    assert cert.shape == (m_obj, len(weights))
    assert not cert[spec.powers > 1.0].any()
    seen = set()
    for i, t in enumerate(weights):
        for m in np.nonzero(spec.powers <= 1.0)[0]:
            # For q < 1, t_m r^q outgrows the other terms' linear growth
            # only for r < (t_m / |g_rest|)^(1 / (1 - q)): probe closer.
            eps = 1e-12 if spec.powers[m] < 1.0 else 1e-7
            if (spec.scales_sq[m] == 0.0).any():
                case = "singular"
                if t[m] == 1.0:
                    # f_m alone is flat along the null space of A_m: a
                    # minimizer, but not an isolated one.
                    assert not cert[m, i]
                    continue
            elif t[m] == 0.0:
                case = "t=0"
            elif spec.powers[m] < 1.0:
                if t[m] < 0.05:
                    continue  # basin narrower than the probe step
                case = "q<1"
            else:
                ratio = _dual_ratio(spec, t, m)
                if abs(ratio - 1.0) < 0.2:
                    continue  # too close to the boundary for a finite probe
                case = "q=1 pass" if ratio < 1.0 else "q=1 fail"
            assert cert[m, i] == _is_local_minimizer(spec, t, spec.centers[m], eps), (i, m, case)
            assert cert[m, i] == (case in ("q<1", "q=1 pass")), (i, m, case)
            seen.add(case)
    assert seen == expected_cases
