"""Probability-simplex weights, multi-index sets, and the Bernstein basis.

A weight vector is a nonnegative vector summing to one. The multi-index set
of order (M, D) collects every exponent vector of M nonnegative integers
summing to D, ordered descending-lexicographically so that (D, 0, ..., 0)
comes first and (0, ..., 0, D) last. That fixed order defines the layout of
control-point matrices, serialized models and triangular weight lattices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import bernstein_design

# Construction renormalizes weight vectors whose sum drifts from 1 by at
# most this much; larger deviations are rejected as bugs.
WEIGHT_RENORM_TOL = 1e-9


def check_weight_rows(values) -> np.ndarray:
    """`values` as a float64 array, once each of its rows is a weight vector:
    finite, nonnegative entries summing to 1 within ``WEIGHT_RENORM_TOL``.
    Raises ValueError otherwise; never renormalizes, so rows keep their bits."""
    arr = np.asarray(values, dtype=np.float64)
    # NaN passes both the sign and the sum check below.
    if not np.isfinite(arr).all():
        raise ValueError("weight vector entries must be finite")
    if np.any(arr < 0.0):
        raise ValueError("weight vector entries must be nonnegative")
    sums = arr.sum(axis=-1) if arr.ndim else arr
    off = np.abs(sums - 1.0) > WEIGHT_RENORM_TOL
    if np.any(off):
        raise ValueError(f"weight vector sums to {float(sums[off][0])!r}, not 1")
    return arr


def weight_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate `values` as a point on the probability simplex.

    The one row must pass `check_weight_rows`; a sum off 1 by at most
    ``WEIGHT_RENORM_TOL`` is renormalized (tolerating accumulated
    floating-point drift without masking real bugs).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("weight vector must be a nonempty 1-D array")
    if dim is not None and arr.size != dim:
        raise ValueError(f"weight vector has length {arr.size}, expected {dim}")
    total = float(check_weight_rows(arr).sum())
    if total != 1.0:
        arr = arr / total
    return arr


def _descending_lex_exponents(num_objectives: int, degree: int) -> np.ndarray:
    """The (J, M) int64 exponent rows of order (M, D), in canonical order.

    A row places M - 1 bars among D + M - 1 slots, and its exponents are
    the gaps the bars leave; the bar positions in reverse lexicographic
    order give the rows in descending-lexicographic order, with no
    recursion over the M slots."""
    slots, bars = degree + num_objectives - 1, num_objectives - 1
    count = math.comb(slots, bars)
    positions = itertools.chain.from_iterable(itertools.combinations(range(slots), bars))
    edges = np.empty((count, num_objectives + 1), dtype=np.int64)
    edges[:, 0], edges[:, -1] = -1, slots
    edges[:, 1:-1] = np.fromiter(positions, dtype=np.int64,
                                 count=count * bars).reshape(count, bars)[::-1]
    return np.diff(edges, axis=1) - 1


def triangular_lattice(num_objectives: int, count: int) -> np.ndarray:
    """`count` deterministic weight vectors on a triangular lattice.

    Uses the smallest resolution H whose lattice (all degree-H multi-index
    vectors divided by H, canonical order) has at least `count` points, then
    thins to exactly `count` by taking evenly strided positions in that
    order. Counts that are exact lattice sizes, such as 10 points for three
    objectives, are returned without thinning.
    """
    if num_objectives < 1:
        raise ValueError("num_objectives must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if num_objectives == 1:
        return np.ones((count, 1))
    resolution = 1
    while math.comb(resolution + num_objectives - 1, num_objectives - 1) < count:
        resolution += 1
    rows = _descending_lex_exponents(num_objectives, resolution) / resolution
    if len(rows) > count:
        keep = np.round(np.linspace(0, len(rows) - 1, count)).astype(np.int64)
        rows = rows[keep]
    return rows


def multinomial_coefficient(degree: int, exponents) -> int:
    """Exact integer D! / prod(d_m!)."""
    c = math.factorial(degree)
    for d in exponents:
        c //= math.factorial(int(d))
    return c


@dataclass(frozen=True, eq=False)
class MultiIndexSet:
    """All degree-D multi-indices over M slots, in canonical order.

    `exponents` is a (J, M) integer array of exponent vectors and
    `coefficients` the matching (J,) multinomial coefficients. Coefficients
    are computed with exact integer arithmetic and converted to float64
    once; the conversion is exact as long as they stay below 2**53
    (degree + M up to around 40, far beyond practical use here).
    """

    num_objectives: int
    degree: int
    exponents: np.ndarray
    coefficients: np.ndarray
    _exponents_f64: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "exponents", np.ascontiguousarray(self.exponents, dtype=np.int64))
        object.__setattr__(self, "coefficients", np.ascontiguousarray(self.coefficients, dtype=np.float64))
        object.__setattr__(self, "_exponents_f64", self.exponents.astype(np.float64))

    @property
    def size(self) -> int:
        """Number of basis functions, binomial(D + M - 1, M - 1)."""
        return self.exponents.shape[0]


def basis_size(num_objectives: int, degree: int) -> int:
    """The size binomial(D + M - 1, M - 1) of the degree-D multi-index set
    over `num_objectives` slots, without enumerating it.

    Rejects num_objectives < 1 and degree < 1 (a degree-0 basis is a
    constant map with no fitting problem of interest).
    """
    if num_objectives < 1:
        raise ValueError("num_objectives must be >= 1")
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return math.comb(degree + num_objectives - 1, num_objectives - 1)


def enumerate_multi_indices(num_objectives: int, degree: int) -> MultiIndexSet:
    """Enumerate the degree-D multi-index set over `num_objectives` slots.

    Rejects what `basis_size` rejects.
    """
    basis_size(num_objectives, degree)
    rows = _descending_lex_exponents(num_objectives, degree)
    coeffs = [multinomial_coefficient(degree, row) for row in rows.tolist()]
    return MultiIndexSet(
        num_objectives=num_objectives,
        degree=degree,
        exponents=rows,
        coefficients=np.array(coeffs, dtype=np.float64),
    )


def bernstein_vector(t, basis: MultiIndexSet) -> np.ndarray:
    """The vector of multinomial-weighted monomials at weight t.

    Entry j is coefficient_j * prod_m t_m^(exponent_jm). Entries are
    nonnegative and sum to 1 (multinomial theorem).
    """
    arr = weight_vector(t, dim=basis.num_objectives)
    return bernstein_design(arr[None, :], basis._exponents_f64, basis.coefficients)[0]


def sample_uniform_simplex_stack(num_objectives: int, count: int, generators) -> np.ndarray:
    """`sample_uniform_simplex` for a stack of numpy Generators.

    Returns the (T, count, num_objectives) stack of batches; batch t is
    the next `count` points of `generators[t]`, drawn as
    `sample_uniform_simplex` draws them.
    """
    if num_objectives < 1:
        raise ValueError("num_objectives must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    batch = np.empty((len(generators), count, num_objectives))
    for rng, out in zip(generators, batch):
        rng.standard_exponential(out=out)
    batch /= batch.sum(axis=2, keepdims=True)
    return batch


def sample_uniform_simplex(num_objectives: int, count: int, seed) -> np.ndarray:
    """Draw `count` i.i.d. uniform points on the probability simplex.

    Normalizes unit-rate exponential draws (a flat Dirichlet), which is
    exact and O(M) per sample. `seed` may be an int, a SeedSequence or a
    Generator, whose stream the draw advances; equal seeds draw equal bits.
    Returns a (count, num_objectives) array whose rows are weight vectors.
    """
    return sample_uniform_simplex_stack(num_objectives, count, [np.random.default_rng(seed)])[0]
