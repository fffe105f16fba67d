"""Benchmark the jitted kernels against their pure-numpy fallbacks.

Times the design-matrix and distance loops on workload-shaped inputs and
reports the speedup plus the worst relative deviation between the paths
(expected: a few ulps from SIMD-vs-libm pow, exact zero for the distance
kernel). The descent sweep has only a numpy implementation.

    python3 benchmarks/kernel_bench.py [--repeats 5]

Importing bezier_mopt compiles the numba kernels on first use (cached on
disk afterwards); compile time is excluded by a warm-up call.
"""

import argparse
import time

import numpy as np

from bezier_mopt import _kernels as kern
from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex


def best_of(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def rel_dev(a, b):
    scale = np.maximum(np.abs(a), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()

    if not kern.NUMBA_ENABLED:
        raise SystemExit("numba path is disabled (BEZIER_MOPT_NUMBA=0 or "
                         "numba missing); nothing to compare")

    rows = []

    # Design matrix: the n=10000 metric workload.
    basis = enumerate_multi_indices(3, 3)
    weights = sample_uniform_simplex(3, 10000, 0)
    expf = basis.exponents.astype(np.float64)
    coeff = basis.coefficients
    kern.bernstein_design_numba(weights[:8], expf, coeff)  # warm-up/compile
    z_np = kern.bernstein_design_numpy(weights, expf, coeff)
    z_nb = kern.bernstein_design_numba(weights, expf, coeff)
    rows.append((
        "bernstein_design (10000x10)",
        best_of(lambda: kern.bernstein_design_numpy(weights, expf, coeff), args.repeats),
        best_of(lambda: kern.bernstein_design_numba(weights, expf, coeff), args.repeats),
        rel_dev(z_np, z_nb)))

    # Same kernel at solver-iteration size, where call overhead dominates
    # and the loop path wins; the large batch above favours SIMD numpy.
    small = weights[:30]
    loops = 1000
    rows.append((
        "bernstein_design (30x10, x1000)",
        best_of(lambda: [kern.bernstein_design_numpy(small, expf, coeff)
                         for _ in range(loops)], args.repeats),
        best_of(lambda: [kern.bernstein_design_numba(small, expf, coeff)
                         for _ in range(loops)], args.repeats),
        rel_dev(kern.bernstein_design_numpy(small, expf, coeff),
                kern.bernstein_design_numba(small, expf, coeff))))

    # Nearest-neighbour distances: the GD/IGD workload.
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 3))
    y = rng.normal(size=(1000, 3))
    kern.min_distances_numba(x[:4], y[:4])
    d_np = kern.min_distances_numpy(x, y)
    d_nb = kern.min_distances_numba(x, y)
    rows.append((
        "min_distances (1000x1000)",
        best_of(lambda: kern.min_distances_numpy(x, y), args.repeats),
        best_of(lambda: kern.min_distances_numba(x, y), args.repeats),
        rel_dev(d_np, d_nb)))

    name_w = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{name_w}}  {'numpy':>9}  {'numba':>9}  {'speedup':>7}  max rel dev")
    for name, t_np, t_nb, dev in rows:
        print(f"{name:<{name_w}}  {t_np:>8.4f}s  {t_nb:>8.4f}s  "
              f"{t_np / t_nb:>6.1f}x  {dev:.2e}")


if __name__ == "__main__":
    main()
