"""Hot numeric kernels.

Three inner loops dominate runtime in this package: Bernstein design-matrix
assembly (called once per solver iteration and for every metric evaluation),
blocked brute-force nearest-neighbour distances (GD/IGD indicators), and the
per-weight gradient-descent sweep that builds validation sets and the
baseline model. Each has one implementation, in numpy, and its results are
deterministic. The tests keep plain per-element loops as reference oracles
for the design and distance kernels.

The design kernel multiplies powers out instead of calling `pow`: on a
2-vCPU x86-64 VM a 600x10 design takes 45 us instead of 140 us, its entries
within 2e-16 of the `pow` form. It builds the design coordinate-major, each
block's (J, rows) product written straight into a (J, N) array, and returns
that array's (N, J) transpose view instead of transposing the products into
a row-major output: on the same VM a 10000x10 design takes 380-565 us
instead of 1030-1540 us. `bezier.design_matrix` copies it to row-major for
the library; the solver engine keeps the coordinate-major layout.

The distance kernel walks the points in row blocks whose scratch arrays
hold at most BLOCK_VALUES float64 values each (256 KiB), so its memory
does not grow with len(points) * len(references). Each pair's squares are
summed in the same order as in one unblocked (N, R) sum and the min is
exact, so the distances are bitwise those of the unblocked form. On a
2-vCPU x86-64 VM, 1000x1000 points in 3-D take about 7 ms instead of 24 ms,
and the tracemalloc peak on 2000x1500 falls from 68.8 MiB to 0.65 MiB. A
k-d tree (`scipy.spatial.cKDTree`) is not used: importing it costs more than
the baseline's GD/IGD pair, and it sums squares in 4-wide partial sums, so
its distances are not bitwise equal from dimension 8 up.

The descent sweep steps every weight at once on coordinate-major arrays, the
weight index innermost. A weight's step is a Barzilai-Borwein length held
between a diminishing schedule (STEP0, DECAY_STEPS) and BB_CAP times it, and
the schedule's own step when the gradient reverses, which also halves the
weight's schedule for good; its callers set the gradient tolerance and the
step budget. It takes the problem's gradient as one function
(`problems.descent_terms`), which returns the iterates' squared scaled radii
to the problem's centers beside the gradient, so every problem descends
through one loop. Weights that cannot meet the gradient-norm rule stop
early, at a certified cusp (read off those radii) or on a non-finite
gradient. ``perfbench/run.py --workload baseline-sweep`` measures it end to
end and, with ``--trace 1``, as ``kernels.descent.busy_s``.
"""

from __future__ import annotations

import numpy as np

# The benchmark probe (`perfbench/probe.py setup`) records this flag as the
# kernel path; numpy is the only one.
NUMBA_ENABLED = False


# Float64 values per scratch array of the blocked kernels (256 KiB, sized
# for L2); a block is never less than one row.
BLOCK_VALUES = 1 << 15


def bernstein_design(weights, exponents, coefficients):
    """Rows of multinomial-weighted monomials for a batch of weight vectors.

    weights: (N, M) float64, exponents: (J, M) float64 (integer-valued),
    coefficients: (J,) float64. Returns (N, J), the transpose view of a
    C-contiguous (J, N) array; each entry is its coefficient times the M
    powers, multiplied in order of m. Powers are gathered by exponent from a
    table w^0 = 1, w^d = w^(d-1) * w, and columns of the (J, N) array are
    built in place in blocks of max(1, BLOCK_VALUES // J).
    """
    n_rows, n_obj = weights.shape
    expo = exponents.astype(np.intp)
    degree = int(expo.max(initial=0))
    out = np.empty((len(expo), n_rows))
    rows = max(1, min(n_rows, BLOCK_VALUES // len(expo)))
    table = np.ones((n_obj, degree + 1, rows))
    for lo in range(0, n_rows, rows):
        block = weights[lo:lo + rows].T
        powers = table[:, :, :block.shape[1]]
        for d in range(1, degree + 1):
            np.multiply(powers[:, d - 1], block, out=powers[:, d])
        # Exponents lie in [0, degree], so "clip" gathers the same entries
        # as "raise", which would gather through a temporary copy.
        acc = out[:, lo:lo + rows]
        np.take(powers[0], expo[:, 0], axis=0, out=acc, mode="clip")
        acc *= coefficients[:, None]
        for m in range(1, n_obj):
            acc *= powers[m][expo[:, m]]
    return out.T


def min_distances(points, references):
    """For each row of `points`, the Euclidean distance to the nearest row
    of `references`; squared differences are summed over coordinates in
    index order from +0.0. Returns (len(points),).

    Blocked brute force: `points` is walked in blocks of
    max(1, BLOCK_VALUES // len(references)) rows, through two scratch
    arrays of that many rows reused for every block, so memory is
    O(BLOCK_VALUES) rather than O(len(points) * len(references)). Each
    block's row minima go straight into the output, and one sqrt runs at
    the end. Every pair's squares are summed in the same order as an
    unblocked sum, and the min is exact, so the distances do not depend on
    the block height. NaN propagates through the min.
    """
    n_pts, n_ref = points.shape[0], references.shape[0]
    out = np.empty(n_pts)
    rows = max(1, min(n_pts, BLOCK_VALUES // max(n_ref, 1)))
    refs = np.ascontiguousarray(references.T)
    d2 = np.zeros((rows, n_ref))
    diff = np.empty((rows, n_ref))
    for lo in range(0, n_pts, rows):
        block = points[lo:lo + rows]
        acc, tmp = d2[:block.shape[0]], diff[:block.shape[0]]
        # The first square overwrites acc: squares are >= +0.0 or NaN, so
        # that equals adding it to +0.0. With no coordinates acc stays 0.
        for l in range(refs.shape[0]):
            sq = tmp if l else acc
            np.subtract(block[:, l:l + 1], refs[l], out=sq)
            np.multiply(sq, sq, out=sq)
            if l:
                acc += sq
        np.min(acc, axis=1, out=out[lo:lo + rows])
    return np.sqrt(out, out=out)


# ---------------------------------------------------------------------------
# The descent sweep.
# ---------------------------------------------------------------------------

# Outcomes of a weight's descent; `descent_sweep` reports each weight's
# index into STATUSES.
STATUSES = ("converged", "cusp", "diverged", "stalled")
CONVERGED, CUSP, DIVERGED, STALLED = range(len(STATUSES))

# Every CHECK_STEPS steps a weight within scaled radius CUSP_RADIUS of a
# center certified for it stops as a cusp, and one whose gradient norm is
# not finite stops as diverged.
CHECK_STEPS = 500
CUSP_RADIUS = 0.05

# Safeguarded Barzilai-Borwein step. A weight's schedule at step k is
# scale * STEP0 / (1 + k / DECAY_STEPS), effectively constant for the first
# DECAY_STEPS steps, then decaying like 1/k. Its scale starts at 1.0 and
# halves, never to rise again, on every step whose gradient has a negative
# inner product with the previous one: an iterate bouncing across a kink (a
# q <= 1 center) or overshooting a steep valley gets a shorter step at once
# and takes the schedule's step. On any other step the weight takes the BB2
# length s'y / y'y (Barzilai & Borwein 1988), s its last step and y the
# change of its gradient, clipped to [schedule, BB_CAP * schedule]; where
# s'y or y'y is not positive it takes the schedule's step. A fixed step
# converges only linearly where the curvature is far from 1/STEP0 (beside a
# q = 1 kink, at a flat q > 2 center); the BB length follows the curvature,
# and the cap keeps a weight that leaves a cusp's neighbourhood from being
# thrown far enough to diverge before its next reversal.
STEP0 = 0.2
DECAY_STEPS = 2000.0
BB_CAP = 16.0


def _sum_rows(terms):
    """terms[0] + terms[1] + ..., in index order. numpy's reduction over
    axis 0 is that sum below eight terms; from eight on, it sums pairwise
    when the other axes all have length 1."""
    return np.add.reduce(terms, axis=0) if len(terms) < 8 else sum(terms[1:], terms[0])


def descent_sweep(gradient, certified, start, weights, grad_tol, max_steps):
    """Gradient descent with a safeguarded Barzilai-Borwein step on each
    weighted-sum scalarization of a problem, all weights at once.

    `gradient(x, t)` returns, for the active iterates x (L, w) and their
    weights t (M, w), the scalarized gradients (L, w) and the squared scaled
    radii (C, w) of x to the C centers of `certified` (C, n), which are
    read only at check steps. Each row i of `weights` descends from
    `start[i]`, stepping x <- x - a_i * grad. Its
    schedule is h = scale_i * STEP0/(1 + k/DECAY_STEPS), where scale_i
    starts at 1.0 and halves on each step whose gradient has a negative
    inner product with the previous step's; a_i = h on such a step. On any
    other step a_i is the BB2 length s'y / y'y clipped to [h, BB_CAP * h],
    or h unless s'y > 0 and y'y > 0, where y = grad - g_prev and
    s'y = -(last a_i) * g_prev'y, the last step being
    s = -(last a_i) * g_prev. Each inner product sums over L in index
    order. A weight steps until the gradient norm drops below grad_tol
    (CONVERGED, after k - 1 steps) or max_steps is exhausted (STALLED, or
    DIVERGED if the last gradient norm is not finite). Every CHECK_STEPS
    steps, a weight within CUSP_RADIUS of some center c with
    certified[c, i] stops as CUSP, and one with a non-finite gradient norm
    as DIVERGED. A stopped weight reports
    its iterate, steps and gradient norm at the check. Gradient norms sum
    the squares over L in index order.

    Returns (points, grad_norms, steps, status), status indexing STATUSES.

    The weight index is the innermost axis, so every numpy call runs over
    all active weights at once. The active set is re-compacted only on
    steps where some weight stops, and only then does `gradient` see a new
    `t`. Diverging iterates overflow to inf/NaN without raising
    floating-point warnings.
    """
    n_w = start.shape[0]
    points = start.copy()
    grad_norms = np.full(n_w, np.inf)
    steps = np.zeros(n_w, dtype=np.int64)
    status = np.full(n_w, STALLED, dtype=np.int8)
    if n_w == 0 or max_steps < 1:
        return points, grad_norms, steps, status
    active = np.arange(n_w)
    x = start.T.copy()
    t = weights.T.copy()
    cert = np.asarray(certified, dtype=np.bool_)
    # Each weight's step multiplier, its previous gradient and its last step
    # length: zeros, so that the first step's inner products are zero and it
    # takes the schedule's step.
    scale, previous, last = np.ones(n_w), np.zeros_like(x), np.zeros(n_w)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, max_steps + 1):
            grad, r2 = gradient(x, t)
            g_norm = np.sqrt(_sum_rows(grad * grad))
            check = k % CHECK_STEPS == 1 and k > CHECK_STEPS
            # fmin skips NaN norms, which never converge; min would return NaN.
            if check or np.fmin.reduce(g_norm) < grad_tol:
                stop = g_norm < grad_tol
                if check:
                    # k - 1 steps taken.
                    near = (r2 < CUSP_RADIUS * CUSP_RADIUS) & cert
                    code = np.select([stop, near.any(axis=0), ~np.isfinite(g_norm)],
                                     [CONVERGED, CUSP, DIVERGED], STALLED)
                    stop = code != STALLED
                if np.count_nonzero(stop):
                    idx = active[stop]
                    status[idx] = code[stop] if check else CONVERGED
                    grad_norms[idx] = g_norm[stop]
                    steps[idx] = k - 1
                    points[idx] = x[:, stop].T
                    keep = ~stop
                    active = active[keep]
                    if active.size == 0:
                        return points, grad_norms, steps, status
                    x, t, grad, g_norm = x[:, keep], t[:, keep], grad[:, keep], g_norm[keep]
                    cert, scale = cert[:, keep], scale[keep]
                    previous, last = previous[:, keep], last[keep]
            turned = _sum_rows(grad * previous) < 0.0
            np.multiply(scale, 0.5, out=scale, where=turned)
            sched = scale * (STEP0 / (1.0 + k / DECAY_STEPS))
            # BB2 length s'y / y'y, with s = -last * previous the last step
            # and y = grad - previous; s'y sums previous * y and then scales.
            # fmax turns a NaN ratio (inf / inf) into the schedule's step.
            y = grad - previous
            sy = -last * _sum_rows(previous * y)
            yy = _sum_rows(y * y)
            bb = np.fmin(np.fmax(sy / yy, sched), BB_CAP * sched)
            last = np.where((sy > 0.0) & (yy > 0.0) & ~turned, bb, sched)
            previous = grad.copy()
            grad *= last
            x -= grad
    points[active] = x.T
    grad_norms[active] = g_norm
    steps[active] = max_steps
    status[active] = np.where(np.isfinite(g_norm), STALLED, DIVERGED)
    return points, grad_norms, steps, status
