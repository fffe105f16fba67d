"""Checks of the numpy kernels against plain per-element loops, and of the
coordinate-major descent against its row-major reference.

The design oracle multiplies the same factors in the same order, but it
takes each power with Python's scalar ``pow`` where the kernel multiplies
powers out, so agreement is asserted at rtol 1e-12 rather than bitwise. The
distance oracle sums the same squares in the same order and involves no
transcendental beyond sqrt, so it agrees exactly, whatever the row blocks
the kernel walks the points in. The descent performs the same operations per
element in the same order as its reference, so the two must agree bit for
bit; a weight the descent stops early agrees with the reference run for as
many steps as it took.
"""
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bezier_mopt import _kernels as kern
from bezier_mopt.problems import (NormPowerSpec, cusp_certificate, get_problem,
                                  norm_power_descent, scaled_med, scaled_med_pareto)
from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex, triangular_lattice


def _vertex_position(basis, m):
    """Row index of the multi-index D * e_m."""
    return int(np.flatnonzero(basis.exponents[:, m] == basis.degree)[0])


def _basis_arrays(m, d):
    basis = enumerate_multi_indices(m, d)
    return basis.exponents.astype(np.float64), basis.coefficients


def _bernstein_design_loop(weights, exponents, coefficients):
    out = np.empty((weights.shape[0], exponents.shape[0]))
    for n in range(weights.shape[0]):
        for j in range(exponents.shape[0]):
            acc = coefficients[j]
            for m in range(weights.shape[1]):
                acc *= weights[n, m] ** exponents[j, m]
            out[n, j] = acc
    return out


def _min_distances_loop(points, references):
    out = np.empty(points.shape[0])
    for i in range(points.shape[0]):
        best = math.inf
        for j in range(references.shape[0]):
            d2 = 0.0
            for l in range(points.shape[1]):
                diff = points[i, l] - references[j, l]
                d2 += diff * diff
            if d2 < best or math.isnan(d2):
                best = d2
        out[i] = math.sqrt(best)
    return out


def test_bernstein_design_matches_loop_oracle():
    for m, d in [(2, 2), (3, 3), (4, 5)]:
        expf, coeff = _basis_arrays(m, d)
        weights = np.vstack([sample_uniform_simplex(m, 500, 42 + m), np.eye(m)])
        np.testing.assert_allclose(kern.bernstein_design(weights, expf, coeff),
                                   _bernstein_design_loop(weights, expf, coeff),
                                   rtol=1e-12, atol=1e-300)


def test_bernstein_design_rows_do_not_depend_on_the_block_height(monkeypatch):
    expf, coeff = _basis_arrays(3, 4)
    weights = np.vstack([np.eye(3), sample_uniform_simplex(3, 1000, 5)])
    whole = kern.bernstein_design(weights, expf, coeff)
    # 15 basis rows: blocks of 1, 6 and 66 rows; 1003 rows leave the last
    # block of the latter two partial.
    for budget in (15, 100, 1000):
        monkeypatch.setattr(kern, "BLOCK_VALUES", budget)
        assert kern.bernstein_design(weights, expf, coeff).tobytes() == whole.tobytes()


@st.composite
def design_batches(draw):
    """(M, D, weights): M and D in 1..6; rows are vertices, edge points
    (random simplex points with some coordinates zeroed, renormalized) and
    random simplex points, in a drawn order."""
    m, d = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertices = np.eye(m)[draw(st.lists(st.integers(0, m - 1), max_size=m))]
    edges = sample_uniform_simplex(m, draw(st.integers(1, 4)), int(rng.integers(2**32)))
    edges *= rng.random(edges.shape) < 0.5
    edges[:, 0] += edges.sum(axis=1) == 0.0
    edges /= edges.sum(axis=1, keepdims=True)
    inner = sample_uniform_simplex(m, draw(st.integers(1, 6)), int(rng.integers(2**32)))
    weights = np.vstack([vertices, edges, inner])
    return m, d, weights[rng.permutation(len(weights))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(design_batches())
def test_bernstein_design_properties(case):
    m, d, weights = case
    basis = enumerate_multi_indices(m, d)
    expf, coeff = basis._exponents_f64, basis.coefficients
    z = kern.bernstein_design(weights, expf, coeff)
    np.testing.assert_allclose(z, _bernstein_design_loop(weights, expf, coeff),
                               rtol=1e-12, atol=1e-300)
    assert np.abs(z.sum(axis=1) - 1.0).max() < 1e-12
    for i, row in enumerate(weights):
        assert kern.bernstein_design(weights[i:i + 1], expf, coeff)[0].tobytes() == z[i].tobytes()
        if (row == 1.0).any():
            vertex = np.zeros(basis.size)
            vertex[_vertex_position(basis, int(np.argmax(row)))] = 1.0
            assert np.array_equal(z[i], vertex)


# (points, references, dimension, poisoned). With BLOCK_VALUES = 2**15
# floats, the 150 and 130 reference cases run blocks of 218 and 252 rows,
# which 777, 1000, 300 and 600 points do not fill evenly; 33000 references
# exceed the budget and force one-row blocks. A poisoned case has a NaN row
# and an inf row: NaN propagates through the min, inf stays inf. Points
# without coordinates are all at distance 0.
_DISTANCE_CASES = [(200, 150, 3, False), (777, 150, 3, False),
                   (1000, 150, 1, False), (4, 33000, 1, False),
                   (300, 130, 9, False), (600, 150, 3, True), (5, 4, 0, False)]


@pytest.mark.parametrize(
    "n_pts,n_ref,dim,poisoned", _DISTANCE_CASES,
    ids=[f"{n}x{r}x{d}" + ("-nan-inf" if bad else "") for n, r, d, bad in _DISTANCE_CASES])
def test_min_distances_matches_loop_oracle_exactly(n_pts, n_ref, dim, poisoned):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(n_pts, dim))
    y = rng.normal(size=(n_ref, dim))
    if poisoned:
        x[5, 1] = np.nan
        x[400, 2] = np.inf
    got = kern.min_distances(x, y)
    if poisoned:
        assert np.isnan(got[5]) and got[400] == np.inf
    assert np.array_equal(got, _min_distances_loop(x, y), equal_nan=True)


def test_min_distances_scratch_stays_within_block_budget():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2000, 3))
    y = rng.normal(size=(1500, 3))
    tracemalloc.start()
    try:
        kern.min_distances(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Two 256 KiB scratch arrays plus the output; an unblocked (2000, 1500)
    # float64 temporary alone takes 23 MiB.
    assert peak < 4 * 2**20


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
    points, grad_norms, steps, status = kern.descent_sweep(
        norm_power_descent(spec.scales_sq, spec.centers, spec.powers),
        cusp_certificate(spec, weights), start, weights, 1e-10, 100000)
    assert (status == kern.CONVERGED).all()
    assert grad_norms.max() < 1e-10
    assert steps.max() < 1000


def _descent_sweep_rowmajor(scales_sq, centers, powers, weights, start,
                            grad_tol, max_steps, *, step0, decay_steps, bb_cap):
    """Reference for `descent_sweep` without its early stops: one (n, M, L)
    array per step, gathered from and scattered back to the outputs on
    every step. A weight's schedule step k is
    scale * step0 / (1 + k / decay_steps), its scale starting at 1.0 and
    halved on each step whose gradient has a negative inner product (summed
    over L in index order) with the previous step's. On any other step with
    s'y > 0 and y'y > 0 it takes the BB2 length s'y / y'y, clipped to
    [schedule, bb_cap * schedule], where y = gradient - previous gradient
    and s'y = -(last step) * (previous gradient)'y, both sums over L in
    index order. Returns the four outputs of `descent_sweep`, converged for
    status, and which weights ever took a step longer than the schedule's."""
    n_w, dim = start.shape
    points = start.copy()
    grad_norms = np.full(n_w, np.inf)
    steps = np.zeros(n_w, dtype=np.int64)
    converged = np.zeros(n_w, dtype=np.bool_)
    lengthened = np.zeros(n_w, dtype=np.bool_)
    scale = np.ones(n_w)
    previous = np.zeros((n_w, dim))
    last = np.zeros(n_w)
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
        grad = grad[keep]
        turned = np.zeros(active.size, dtype=np.bool_)
        if k > 1:
            dot = np.zeros(active.size)
            for l in range(dim):
                dot += grad[:, l] * previous[active, l]
            turned = dot < 0.0
            scale[active[turned]] *= 0.5
        sched = scale[active] * (step0 / (1.0 + k / decay_steps))
        y = grad - previous[active]
        py = np.zeros(active.size)
        yy = np.zeros(active.size)
        for l in range(dim):
            py += previous[active, l] * y[:, l]
            yy += y[:, l] ** 2
        sy = -last[active] * py
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = np.fmin(np.fmax(sy / yy, sched), bb_cap * sched)
        step = np.where((sy > 0.0) & (yy > 0.0) & ~turned, bb, sched)
        lengthened[active[step > sched]] = True
        last[active] = step
        previous[active] = grad
        points[active] = x[keep] - step[:, None] * grad
        grad_norms[active] = g_norm[keep]
        steps[active] = k
    return points, grad_norms, steps, converged, lengthened


def _assert_bitwise_equal(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        if a.dtype.kind == "f":
            finite = ~np.isnan(a)
            assert np.array_equal(np.signbit(a[finite]), np.signbit(b[finite]))


_SCHEDULE = dict(step0=kern.STEP0, decay_steps=kern.DECAY_STEPS, bb_cap=kern.BB_CAP)


def _sweep_args(problem, weights, max_steps, start=None):
    spec = problem.norm_power
    if start is None:
        start = weights @ spec.centers
    return (spec.scales_sq, spec.centers, spec.powers, weights, start, 1e-8, max_steps)


def _descend_and_check(args):
    """Runs `descent_sweep` on `args` and checks it against the reference:
    every weight that ran to convergence or to max_steps bitwise in all four
    outputs, every weight stopped early against the reference run for as
    many steps as it took, in its iterate and step count. Returns the
    kernel's four outputs and the reference's mask of the weights that took
    a step longer than the schedule's."""
    scales_sq, centers, powers, weights, start = args[:5]
    max_steps = args[-1]
    certified = cusp_certificate(NormPowerSpec(scales_sq, centers, powers), weights)
    got = kern.descent_sweep(norm_power_descent(*args[:3]), certified, start, weights,
                             *args[5:])
    points, grad_norms, steps, status = got
    stopped = (status == kern.CUSP) | ((status == kern.DIVERGED) & (steps < max_steps))
    full = ~stopped
    want = _descent_sweep_rowmajor(*args, **_SCHEDULE)
    _assert_bitwise_equal((points[full], grad_norms[full], steps[full],
                           status[full] == kern.CONVERGED),
                          tuple(out[full] for out in want[:4]))
    if max_steps > 0:
        ran_out = full & (status != kern.CONVERGED)
        assert np.array_equal(status[ran_out] == kern.DIVERGED,
                              ~np.isfinite(grad_norms[ran_out]))
    for count in np.unique(steps[stopped]):
        rows = np.nonzero(stopped & (steps == count))[0]
        assert count > 0 and count % kern.CHECK_STEPS == 0
        ref = _descent_sweep_rowmajor(scales_sq, centers, powers, weights[rows],
                                      start[rows], args[5], int(count),
                                      **_SCHEDULE)
        _assert_bitwise_equal((points[rows], steps[rows]), (ref[0], ref[2]))
        assert not ref[3].any()
        for i in rows:
            diff = points[i] - centers
            near = certified[:, i] & ((scales_sq * diff * diff).sum(axis=1)
                                      < kern.CUSP_RADIUS ** 2)
            if status[i] == kern.CUSP:
                assert near.any()
            else:
                assert not near.any() and not np.isfinite(grad_norms[i])
    return got + (want[4],)


# skew-mmd:9 has enough objectives for numpy to sum the M terms pairwise.
@pytest.mark.parametrize("name", ("scaled-med", "skew-3med", "skew-3mmd",
                                  "skew-mmd:4", "skew-med:2", "skew-mmd:9"))
def test_descent_sweep_matches_rowmajor_reference_bitwise(name):
    problem = get_problem(name)
    weights = triangular_lattice(problem.num_objectives, 60)
    points, grad_norms, steps, status, lengthened = _descend_and_check(
        _sweep_args(problem, weights, 3000))
    # Converged and cusp weights both occur, except on the quadratic
    # problem, where every descent converges; some converging weight takes a
    # Barzilai-Borwein step longer than the schedule's.
    converged = status == kern.CONVERGED
    assert lengthened[converged].any()
    assert converged.any() and (name == "scaled-med" or not converged.all())
    assert (status == kern.CUSP).any() == (name != "scaled-med")


def test_descent_sweep_sums_squared_gradients_in_index_order():
    # One weight, nine coordinates, squares 1e16 and eight times 1.0: in
    # index order each 1.0 rounds away (1e16 + 1 ties to even), while numpy's
    # reduction over the lone axis would sum the nine pairwise and keep some.
    grad = np.array([[1e8]] + [[1.0]] * 8)
    points, grad_norms, steps, status = kern.descent_sweep(
        lambda x, t: (grad.copy(), np.empty((0, 1))), np.zeros((0, 1), dtype=np.bool_),
        np.zeros((1, 9)), np.ones((1, 1)), 1e-8, 1)
    assert grad_norms[0] == 1e8 and steps[0] == 1 and status[0] == kern.STALLED


@st.composite
def descent_problems(draw):
    """(scales_sq, centers, powers, weights): M in 2..9 objectives, so that
    eight or more sum pairwise; L in 1..4 variables; diagonal scales in
    [0.5, 1.5]; powers on both sides of 1 and of 2; lattice weights, whose
    zero entries leave objectives out, and random simplex weights."""
    m, dim = draw(st.integers(2, 9)), draw(st.integers(1, 4))
    powers = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = rng.uniform(0.5, 1.5, size=(m, dim))
    weights = np.vstack([
        triangular_lattice(m, draw(st.integers(1, 12))),
        sample_uniform_simplex(m, draw(st.integers(1, 6)), int(rng.integers(2**32)))])
    return scales * scales, rng.normal(size=(m, dim)), np.array(powers), weights


# 1200 steps take in the checks at steps 501 and 1001.
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(descent_problems())
def test_descent_sweep_matches_rowmajor_reference_on_drawn_problems(case):
    scales_sq, centers, powers, weights = case
    with np.errstate(over="ignore", invalid="ignore"):
        _descend_and_check((scales_sq, centers, powers, weights, weights @ centers,
                            1e-8, 1200))


@pytest.mark.parametrize("count,max_steps", [(0, 100), (60, 0), (60, 1)])
def test_descent_sweep_edge_sizes_match_reference(count, max_steps):
    problem = get_problem("skew-3mmd")
    weights = triangular_lattice(3, 60)[:count]
    points, grad_norms, steps, status, _ = _descend_and_check(
        _sweep_args(problem, weights, max_steps))
    converged = status == kern.CONVERGED
    assert (steps[converged] == 0).all() and (steps[~converged] == max_steps).all()
    assert (status[~converged] == kern.STALLED).all()
    assert converged.any() == (count > 0 and max_steps > 0)


def test_descent_sweep_started_at_minimizers_stops_at_step_zero():
    problem = scaled_med()
    weights = triangular_lattice(3, 60)
    points, grad_norms, steps, status, _ = _descend_and_check(
        _sweep_args(problem, weights, 100, start=scaled_med_pareto(weights)))
    assert (status == kern.CONVERGED).all() and (steps == 0).all()


def test_descent_sweep_diverging_weight_is_silent_and_unconverged():
    # x^4 and (x - 1)^2 on the line. Weight 2, on x^4 alone and started at
    # x = 3, overshoots its center further on every step: the iterate grows
    # like its cube while the halving only halves the step, so it overflows
    # to NaN within ten steps. The other weights converge.
    spec = NormPowerSpec(scales_sq=[[1.0], [1.0]], centers=[[0.0], [1.0]], powers=[4.0, 2.0])
    weights = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.2, 0.8], [0.001, 0.999]])
    start = np.array([[0.0], [0.5], [3.0], [0.8], [0.0]])
    args = (spec.scales_sq, spec.centers, spec.powers, weights, start, 1e-8, 1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kern.descent_sweep(norm_power_descent(*args[:3]),
                                 cusp_certificate(spec, weights), start, weights, *args[5:])
    with np.errstate(over="ignore", invalid="ignore"):
        _descend_and_check(args)
    points, grad_norms, steps, status = got
    assert np.isnan(points[2]).all() and np.isnan(grad_norms[2])
    assert status[2] == kern.DIVERGED and steps[2] == kern.CHECK_STEPS
    assert (status[[0, 1, 3, 4]] == kern.CONVERGED).all()
    # Running out of steps before the first check, it still ends diverged.
    with np.errstate(over="ignore", invalid="ignore"):
        points, grad_norms, steps, status, _ = _descend_and_check(
            args[:-1] + (kern.CHECK_STEPS - 200,))
    assert status[2] == kern.DIVERGED and steps[2] == kern.CHECK_STEPS - 200
    assert (status[[0, 1, 3, 4]] == kern.CONVERGED).all()


# README's phrases that state the descent constants, each with the
# constants its numbers must equal, in order.
README_DESCENT_CONSTANTS = {
    "schedule": (r"scale \* ([\d.]+) / \(1 \+ k / ([\d.]+)\)", ("STEP0", "DECAY_STEPS")),
    "schedule-prose": (r"stays near ([\d.]+) for the first ([\d.]+) steps",
                       ("STEP0", "DECAY_STEPS")),
    "check-steps": (r"Every ([\d.]+) steps the sweep", ("CHECK_STEPS",)),
    "cusp-radius": (r"within scaled radius ([\d.]+) of a\s+center certified", ("CUSP_RADIUS",)),
    "bb-cap": (r"clipped to between the\s+schedule and ([\d.]+) times it", ("BB_CAP",)),
}


@pytest.mark.parametrize("pattern,names", README_DESCENT_CONSTANTS.values(),
                         ids=README_DESCENT_CONSTANTS.keys())
def test_readme_states_the_kernels_descent_constants(pattern, names):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.findall(pattern, text)
    assert len(found) == 1, f"README states {pattern!r} {len(found)} times, not once"
    values = found[0] if isinstance(found[0], tuple) else (found[0],)
    assert [float(v) for v in values] == [float(getattr(kern, n)) for n in names]
