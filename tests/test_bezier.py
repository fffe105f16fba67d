import json

import numpy as np
import pytest

from bezier_mopt.bezier import (SINGULARITY_RTOL, BezierSimplex, SingularFitError,
                                design_matrix, factor_designs, fit_least_squares,
                                load_model, save_model, solve_factored)
from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex


def _vertex_position(basis, m):
    """Row index of the multi-index D * e_m."""
    return int(np.flatnonzero(basis.exponents[:, m] == basis.degree)[0])


def fit_normal_equations(weights, points, basis):
    """Reference fit through the explicit normal equations (Z'Z) P = Z'X:
    numerically inferior on ill-conditioned designs, mathematically the
    same minimizer as `fit_least_squares`."""
    design = design_matrix(weights, basis)
    gram = design.T @ design
    control = np.linalg.solve(gram, design.T @ np.asarray(points, dtype=np.float64))
    return BezierSimplex(basis=basis, control_points=control)


def svd_factor_designs(designs):
    """Reference factorization: one thin SVD of every design of a stack,
    gated at SINGULARITY_RTOL. `factor_designs` must flag the same designs
    and match its solutions."""
    u, s, vt = np.linalg.svd(designs, full_matrices=False)
    return u, s, vt, s[..., -1] < SINGULARITY_RTOL * s[..., 0]


def svd_solve_factored(u, s, vt, targets):
    """Least-squares solution V diag(1/s) U' X of the reference factors."""
    return np.swapaxes(vt, -1, -2) @ ((np.swapaxes(u, -1, -2) @ targets) / s[..., None])


def random_model(rng, m=3, d=3, ambient=3):
    basis = enumerate_multi_indices(m, d)
    control = rng.uniform(-1.0, 1.0, size=(basis.size, ambient))
    return BezierSimplex(basis=basis, control_points=control)


def test_constant_control_points_evaluate_to_that_point():
    basis = enumerate_multi_indices(3, 3)
    point = np.array([1.5, -2.0, 0.25])
    model = BezierSimplex(basis=basis, control_points=np.tile(point, (basis.size, 1)))
    for t in sample_uniform_simplex(3, 20, 3):
        assert np.allclose(model.evaluate(t), point, atol=1e-14)


def test_vertex_evaluation_returns_vertex_control_point():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    for m in range(3):
        t = np.zeros(3)
        t[m] = 1.0
        row = _vertex_position(model.basis, m)
        assert np.array_equal(model.evaluate(t), model.control_points[row])


def test_degree_one_is_affine():
    rng = np.random.default_rng(1)
    basis = enumerate_multi_indices(3, 1)
    control = rng.normal(size=(3, 4))
    model = BezierSimplex(basis=basis, control_points=control)
    for t in sample_uniform_simplex(3, 10, 4):
        # degree-1 exponent rows are unit vectors: descending lex order puts
        # e_1 first, so the map is t |-> sum_m t_m p_(e_m)
        expected = t @ control[[_vertex_position(basis, m) for m in range(3)]]
        assert np.allclose(model.evaluate(t), expected, atol=1e-14)


def test_design_matrix_rows_and_errors():
    basis = enumerate_multi_indices(2, 2)
    z = design_matrix([[0.5, 0.5]], basis)
    assert np.allclose(z, [[0.25, 0.5, 0.25]], atol=1e-15)
    vertex = design_matrix([[1.0, 0.0]], basis)
    assert np.array_equal(vertex, [[1.0, 0.0, 0.0]])

    batch = sample_uniform_simplex(2, 40, 9)
    rows = design_matrix(batch, basis)
    assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12
    # Row-major, whatever layout the kernel builds: products with the
    # design, and so every library result, round by layout.
    assert rows.flags.c_contiguous

    with pytest.raises(ValueError):
        design_matrix(np.empty((0, 2)), basis)
    with pytest.raises(ValueError):
        design_matrix([[0.3, 0.3, 0.4]], basis)

    # A model evaluates a batch through the same checks, and checks that
    # each row is a weight vector: [[5, 5, 5]] evaluated far outside the
    # control points' hull.
    model = BezierSimplex(basis=enumerate_multi_indices(3, 3), control_points=np.ones((10, 3)))
    for weights in ([[0.5, 0.5]], [[0.25] * 4], np.empty((0, 3)), [[5.0, 5.0, 5.0]],
                    [[2.0, -1.0, 0.0]], [[np.nan, 0.5, 0.5]]):
        with pytest.raises(ValueError):
            model.evaluate_batch(weights)
    # So does a fit, which also pairs its weights with its points row by row.
    fit_weights = sample_uniform_simplex(3, 12, 1)
    for weights, points in ((fit_weights, np.zeros((11, 3))),
                            (fit_weights * 5.0, np.zeros((12, 3)))):
        with pytest.raises(ValueError):
            fit_least_squares(weights, points, model.basis)


def test_planted_model_exact_recovery():
    rng = np.random.default_rng(42)
    basis = enumerate_multi_indices(3, 3)
    for trial in range(5):
        planted = rng.uniform(-1.0, 1.0, size=(basis.size, 3))
        model = BezierSimplex(basis=basis, control_points=planted)
        weights = sample_uniform_simplex(3, 20, 100 + trial)
        points = model.evaluate_batch(weights)
        fitted = fit_least_squares(weights, points, basis)
        assert np.linalg.norm(fitted.control_points - planted) < 1e-8


def test_residual_orthogonality():
    rng = np.random.default_rng(3)
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, 40, 17)
    points = rng.normal(size=(40, 3))
    fitted = fit_least_squares(weights, points, basis)
    z = design_matrix(weights, basis)
    residual = points - z @ fitted.control_points
    assert np.linalg.norm(z.T @ residual) < 1e-8 * np.linalg.norm(z.T @ points)


def test_underdetermined_fit_raises():
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, 5, 0)
    points = np.zeros((5, 3))
    with pytest.raises(SingularFitError) as err:
        fit_least_squares(weights, points, basis)
    assert err.value.smallest_singular_value == 0.0


def test_duplicate_rows_raise_singular():
    basis = enumerate_multi_indices(3, 3)
    weights = np.tile(sample_uniform_simplex(3, 1, 0), (12, 1))
    with pytest.raises(SingularFitError):
        fit_least_squares(weights, np.zeros((12, 3)), basis)


def test_fit_idempotence():
    rng = np.random.default_rng(5)
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, 30, 21)
    points = rng.normal(size=(30, 3))
    first = fit_least_squares(weights, points, basis)
    fresh = sample_uniform_simplex(3, 30, 22)
    refit = fit_least_squares(fresh, first.evaluate_batch(fresh), basis)
    assert np.linalg.norm(refit.control_points - first.control_points) < 1e-8


def test_least_squares_fit_and_normal_equations_agree():
    rng = np.random.default_rng(6)
    basis = enumerate_multi_indices(3, 3)
    for trial in range(10):
        weights = sample_uniform_simplex(3, 50, 300 + trial)
        z = design_matrix(weights, basis)
        sv = np.linalg.svd(z, compute_uv=False)
        assert sv[0] / sv[-1] < 1e6  # well-conditioned instance
        points = rng.normal(size=(50, 3))
        a = fit_least_squares(weights, points, basis)
        b = fit_normal_equations(weights, points, basis)
        assert np.linalg.norm(a.control_points - b.control_points) < 1e-6


def test_convex_hull_property():
    rng = np.random.default_rng(8)
    model = random_model(rng)
    weights = sample_uniform_simplex(3, 1000, 33)
    values = model.evaluate_batch(weights)
    lo = model.control_points.min(axis=0)
    hi = model.control_points.max(axis=0)
    assert np.all(values >= lo - 1e-12)
    assert np.all(values <= hi + 1e-12)


def test_serialize_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    model = random_model(rng)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.control_points, model.control_points)
    assert np.array_equal(loaded.basis.exponents, model.basis.exponents)


def test_deserialize_rejects_bad_documents(tmp_path):
    rng = np.random.default_rng(10)
    model = random_model(rng)
    doc = model.to_dict()

    short = dict(doc, control_points=doc["control_points"][:9])
    with pytest.raises(ValueError):
        BezierSimplex.from_dict(short)

    shuffled = dict(doc, index_order=list(reversed(doc["index_order"])))
    with pytest.raises(ValueError):
        BezierSimplex.from_dict(shuffled)

    for key in ("M", "D", "L", "index_order", "control_points"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(ValueError):
            BezierSimplex.from_dict(broken)


def test_zero_model_round_trip_evaluates_to_zero(tmp_path):
    basis = enumerate_multi_indices(3, 3)
    model = BezierSimplex(basis=basis, control_points=np.zeros((basis.size, 3)))
    path = tmp_path / "zero.json"
    save_model(model, path)
    loaded = load_model(path)
    for t in sample_uniform_simplex(3, 5, 0):
        assert np.array_equal(loaded.evaluate(t), np.zeros(3))


def test_model_json_schema_fields(tmp_path):
    basis = enumerate_multi_indices(2, 2)
    model = BezierSimplex(basis=basis, control_points=np.ones((3, 2)))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"M", "D", "L", "index_order", "control_points"}
    assert doc["M"] == 2 and doc["D"] == 2 and doc["L"] == 2


def test_rejects_nonfinite_control_points():
    basis = enumerate_multi_indices(2, 2)
    bad = np.ones((3, 2))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        BezierSimplex(basis=basis, control_points=bad)
    # Control points must also be a matrix with one row per basis function.
    for shape in ((3,), (4, 2)):
        with pytest.raises(ValueError):
            BezierSimplex(basis=basis, control_points=np.ones(shape))


def random_designs(basis, rows, count, first_seed):
    return np.stack([design_matrix(sample_uniform_simplex(basis.num_objectives, rows, seed), basis)
                     for seed in range(first_seed, first_seed + count)])


def factor_and_solve(designs, targets):
    grams, _, _, fallback = factor_designs(designs)
    return solve_factored(designs, grams, fallback, targets)[0]


def check_against_svd(designs, rng):
    """`factor_designs` flags the designs the reference SVD gate flags;
    every design factored alone, and every nonsingular one solved alone, is
    bitwise the same as in the stack; solutions stay within the Gram path's
    cond^2 * eps error bound, and designs sent to SVD are solved like the
    reference. Returns every nonsingular design's condition number,
    relative solution gap and fallback flag."""
    factors = factor_designs(designs)
    grams, lambda_min, singular, fallback = factors
    u, s, vt, ref_singular = svd_factor_designs(designs)
    assert np.array_equal(singular, ref_singular)
    for i in range(len(designs)):
        for part, whole in zip(factor_designs(designs[i:i + 1]), factors):
            assert part[0].tobytes() == whole[i].tobytes()

    ok = ~singular
    targets = rng.normal(size=(int(ok.sum()), designs.shape[1], 3))
    solution, _ = solve_factored(designs[ok], grams[ok], fallback[ok], targets)
    for i in range(len(targets)):
        alone = factor_and_solve(designs[ok][i:i + 1], targets[i:i + 1])
        assert alone[0].tobytes() == solution[i].tobytes()

    cond = s[ok, 0] / s[ok, -1]
    reference = svd_solve_factored(u[ok], s[ok], vt[ok], targets)
    gap = (np.abs(solution - reference).max(axis=(1, 2))
           / np.abs(reference).max(axis=(1, 2)))
    # Forming Z'Z squares the condition number; GRAM_RTOL caps the Gram
    # path at cond(Z) of about 1e3, where this bound is about 1e-9.
    assert np.all(gap <= 1e-15 * cond**2)
    # Well beyond that cap every design takes the SVD path: its lambda_min
    # is the squared smallest singular value and its refit is the
    # reference's.
    beyond = cond > 3e3
    assert fallback[ok][beyond].all()
    assert np.array_equal(lambda_min[ok][beyond], s[ok][beyond, -1] ** 2)
    assert np.all(gap[beyond] <= 1e-13)
    return cond, gap, fallback[ok]


def test_factor_designs_falls_back_to_svd_for_ill_conditioned_designs():
    rng = np.random.default_rng(11)
    basis = enumerate_multi_indices(3, 3)
    sampled = random_designs(basis, 30, 20, 400)
    # N = J = 10 designs are often ill-conditioned. Zero rows pad them to
    # the stack's 30 rows without changing Z'Z or the singular values.
    square = np.zeros((30, 30, basis.size))
    square[:, :basis.size] = random_designs(basis, basis.size, 30, 500)
    rank_one = np.tile(design_matrix(sample_uniform_simplex(3, 1, 7), basis), (30, 1))
    stack = np.concatenate([sampled, square, rank_one[None]])

    cond, gap, fallback = check_against_svd(stack, rng)
    singular = factor_designs(stack)[2]
    assert singular[-1] and not singular[:-1].any()
    # The sampled designs stay on the Gram path within 1e-12; the square
    # ones fall on both sides of the SVD cap.
    assert cond[:20].max() < 1e3 and gap[:20].max() <= 1e-12
    assert not fallback[:20].any()
    assert (cond[20:] < 1e3).any() and (cond[20:] > 3e3).any()


def test_factor_designs_square_degree_5_designs_against_svd():
    basis = enumerate_multi_indices(3, 5)
    assert basis.size == 21
    cond, _, _ = check_against_svd(random_designs(basis, basis.size, 30, 600),
                                   np.random.default_rng(12))
    assert (cond > 3e3).any()


def test_solve_factored_mixed_stack_matches_each_design_alone():
    """A stack with one design that falls back to SVD among Gram-path
    designs: every design's solution is bitwise its solution alone."""
    rng = np.random.default_rng(13)
    basis = enumerate_multi_indices(3, 3)
    stack = random_designs(basis, 30, 4, 700)
    # Nine distinct weights span only nine of the ten basis directions; a
    # tenth weight 1e-3 away from the first gives cond(Z) of about 1e5,
    # beyond the Gram cap but far from singular.
    weights = np.tile(sample_uniform_simplex(3, 9, 8), (4, 1))[:30]
    weights[-1] = weights[0] + 1e-3 * np.array([1.0, -1.0, 0.0])
    stack = np.insert(stack, 2, design_matrix(weights, basis), axis=0)
    targets = rng.normal(size=(len(stack), 30, 3))

    grams, _, singular, fallback = factor_designs(stack)
    assert not singular.any()
    assert np.array_equal(fallback, [False, False, True, False, False])
    solution, rhs = solve_factored(stack, grams, fallback, targets)
    # The products Z'X come back beside the solutions, the fallback
    # design's included.
    assert rhs.tobytes() == (np.swapaxes(stack, 1, 2) @ targets).tobytes()
    for i in range(len(stack)):
        alone = factor_and_solve(stack[i:i + 1], targets[i:i + 1])
        assert alone[0].tobytes() == solution[i].tobytes()
