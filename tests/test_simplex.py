import numpy as np
import pytest

from bezier_mopt import simplex
from bezier_mopt.bezier import BezierSimplex
from bezier_mopt.diagnostics import run_baseline
from bezier_mopt.metrics import loss
from bezier_mopt.problems import get_problem, scaled_med, scaled_med_pareto, scalarize
from bezier_mopt.simplex import (basis_size, bernstein_vector,
                                 enumerate_multi_indices,
                                 multinomial_coefficient,
                                 sample_uniform_simplex,
                                 sample_uniform_simplex_stack, triangular_lattice,
                                 weight_vector)
from bezier_mopt.solver import ConfigError, SolverConfig


def _vertex_position(basis, m):
    """Row index of the multi-index D * e_m."""
    return int(np.flatnonzero(basis.exponents[:, m] == basis.degree)[0])


def test_enumeration_m2_d2():
    basis = enumerate_multi_indices(2, 2)
    assert basis.exponents.tolist() == [[2, 0], [1, 1], [0, 2]]
    assert basis.coefficients.tolist() == [1.0, 2.0, 1.0]


def test_enumeration_m3_d3_count():
    basis = enumerate_multi_indices(3, 3)
    assert basis.size == 10  # stars and bars: C(5, 2)


def test_enumeration_degenerate_m1():
    basis = enumerate_multi_indices(1, 5)
    assert basis.exponents.tolist() == [[5]]
    assert basis.coefficients.tolist() == [1.0]


@pytest.mark.parametrize("m,d", [(0, 3), (3, 0), (0, 0)])
def test_enumeration_rejects_degenerate(m, d):
    with pytest.raises(ValueError):
        enumerate_multi_indices(m, d)
    with pytest.raises(ValueError):
        basis_size(m, d)


def _recursive_exponents(m, d):
    """The canonical order by its definition: the first exponent runs from
    d down to 0, and the other m - 1 follow in canonical order."""
    if m == 1:
        return [[d]]
    return [[first] + rest for first in range(d, -1, -1)
            for rest in _recursive_exponents(m - 1, d - first)]


@pytest.mark.parametrize("m", range(1, 8))
def test_enumeration_matches_the_recursive_definition(m):
    for d in range(1, 9):
        expected = np.array(_recursive_exponents(m, d), dtype=np.int64)
        basis = enumerate_multi_indices(m, d)
        assert basis.exponents.dtype == np.int64
        assert np.array_equal(basis.exponents, expected)
        assert basis.size == basis_size(m, d)
        # A count that is a whole lattice's size keeps every row, in order.
        assert triangular_lattice(m, len(expected)).tobytes() == (expected / d).tobytes()


def test_deep_multi_index_set_enumerates_without_recursion():
    # Far past Python's recursion limit in objectives; degree 1 gives one
    # exponent row per objective.
    basis = enumerate_multi_indices(1500, 1)
    assert np.array_equal(basis.exponents, np.eye(1500, dtype=np.int64))
    assert triangular_lattice(1500, 1500).tobytes() == np.eye(1500).tobytes()


def test_basis_size_checks_run_without_enumerating_the_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(simplex, "_descending_lex_exponents", refuse)
    problem = get_problem("skew-mmd:120")  # 295240 basis functions at degree 3
    with pytest.raises(ConfigError, match="num_samples=30 is below the basis size 295240"):
        SolverConfig(num_samples=30, num_iterations=1, degree=3, seed=0).validate(problem)
    with pytest.raises(ConfigError, match="population 100 is below the basis size 295240"):
        run_baseline(problem, 100, 3, ["gd"], seed=0, mse_samples=10, validation_count=10)
    doc = {"M": 120, "D": 3, "L": 3, "index_order": [[3] + [0] * 119],
           "control_points": [[0.0, 0.0, 0.0]]}
    with pytest.raises(ValueError, match="index_order does not match"):
        BezierSimplex.from_dict(doc)


def test_canonical_order_is_descending_lex():
    basis = enumerate_multi_indices(3, 4)
    rows = [tuple(r) for r in basis.exponents.tolist()]
    assert rows == sorted(rows, reverse=True)
    assert rows[0] == (4, 0, 0)
    assert rows[-1] == (0, 0, 4)
    assert len(set(rows)) == len(rows)


def test_multinomial_coefficients_exact():
    basis = enumerate_multi_indices(4, 6)
    for row, coeff in zip(basis.exponents, basis.coefficients):
        assert row.sum() == 6
        assert coeff == multinomial_coefficient(6, row)


def test_bernstein_vertex_is_indicator():
    basis = enumerate_multi_indices(3, 3)
    for m in range(3):
        t = np.zeros(3)
        t[m] = 1.0
        z = bernstein_vector(t, basis)
        expected = np.zeros(basis.size)
        expected[_vertex_position(basis, m)] = 1.0
        assert np.array_equal(z, expected)


def test_bernstein_midpoint_binomial():
    basis = enumerate_multi_indices(2, 2)
    z = bernstein_vector([0.5, 0.5], basis)
    assert np.allclose(z, [0.25, 0.5, 0.25], atol=1e-15)


def test_bernstein_dimension_mismatch():
    basis = enumerate_multi_indices(3, 2)
    with pytest.raises(ValueError):
        bernstein_vector([0.5, 0.5], basis)


def test_partition_of_unity_many_cases():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        basis = enumerate_multi_indices(m, d)
        draws = rng.standard_exponential(m)
        t = draws / draws.sum()
        z = bernstein_vector(t, basis)
        assert abs(z.sum() - 1.0) < 1e-12
        assert np.all(z >= 0.0)
        assert np.linalg.norm(z) <= 1.0 + 1e-12


def test_sampling_deterministic():
    a = sample_uniform_simplex(3, 50, 1234)
    b = sample_uniform_simplex(3, 50, 1234)
    assert np.array_equal(a, b)
    c = sample_uniform_simplex(3, 50, 1235)
    assert not np.array_equal(a, c)


def flat_dirichlet_oracle(num_objectives, count, seed_sequence):
    """Normalized exponentials from a generator built on the SeedSequence
    itself, as numpy builds it."""
    rng = np.random.Generator(np.random.PCG64(seed_sequence))
    draws = rng.standard_exponential((count, num_objectives))
    return draws / draws.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("m, count", [(1, 3), (2, 1), (3, 30), (3, 100), (8, 7), (11, 5)])
def test_sampling_matches_seed_sequence_generator_bitwise(m, count):
    seeds = [np.random.SeedSequence(entropy=s, spawn_key=(0, k, r))
             for s, k, r in [(0, 1, 0), (7, 256, 0), (2**64 - 1, 257, 3), (2**127, 2, 5)]]
    for seed in seeds + [0, 5, 2**40]:
        expected = flat_dirichlet_oracle(m, count, np.random.SeedSequence(seed)
                                         if isinstance(seed, int) else seed)
        assert sample_uniform_simplex(m, count, seed).tobytes() == expected.tobytes()
    stack = sample_uniform_simplex_stack(m, count, [np.random.default_rng(seed) for seed in seeds])
    assert stack.shape == (len(seeds), count, m)
    for batch, seed in zip(stack, seeds):
        assert batch.tobytes() == flat_dirichlet_oracle(m, count, seed).tobytes()


def test_stack_sampler_validates_arguments():
    generators = [np.random.default_rng(1)]
    with pytest.raises(ValueError):
        sample_uniform_simplex_stack(0, 5, generators)
    with pytest.raises(ValueError):
        sample_uniform_simplex_stack(3, 0, generators)
    assert sample_uniform_simplex_stack(3, 4, []).shape == (0, 4, 3)


def test_sampling_m1_is_point():
    samples = sample_uniform_simplex(1, 7, 99)
    assert np.array_equal(samples, np.ones((7, 1)))


def test_sampling_mean_matches_flat_dirichlet():
    samples = sample_uniform_simplex(3, 100_000, 2024)
    assert np.all(np.abs(samples.mean(axis=0) - 1.0 / 3.0) < 0.01)


def test_samples_satisfy_weight_invariants():
    samples = sample_uniform_simplex(4, 1000, 5)
    assert np.all(samples >= 0.0)
    assert np.all(np.abs(samples.sum(axis=1) - 1.0) < 1e-12)


def test_weight_vector_renormalizes_small_drift():
    drift = 1.0 + 5e-10
    t = weight_vector(np.array([0.2, 0.3, 0.5]) * drift)
    assert abs(t.sum() - 1.0) < 1e-15


def test_weight_vector_rejects_large_drift_and_negatives():
    with pytest.raises(ValueError):
        weight_vector([0.2, 0.3, 0.5 + 1e-6])
    with pytest.raises(ValueError):
        weight_vector([-0.1, 0.6, 0.5])
    with pytest.raises(ValueError):
        weight_vector([0.5, 0.5], dim=3)
    with pytest.raises(ValueError, match="1-D"):
        weight_vector([[0.5, 0.5]])


@pytest.mark.parametrize("position", [0, 1, 2])
def test_weight_vectors_with_a_nan_entry_are_rejected(position):
    # NaN passes both the sign check and the sum check, so without its own
    # check [nan, 0.5, 0.5] came back as [nan nan nan].
    t = [0.5, 0.5, 0.5]
    t[position] = np.nan
    basis = enumerate_multi_indices(3, 2)
    model = BezierSimplex(basis=basis, control_points=np.zeros((basis.size, 3)))
    for call in (lambda: weight_vector(t), lambda: bernstein_vector(t, basis),
                 lambda: model.evaluate(t), lambda: scalarize(scaled_med(), t),
                 lambda: loss(model, t, scaled_med_pareto)):
        with pytest.raises(ValueError, match="finite"):
            call()
