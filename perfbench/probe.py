"""Small fresh-process probes used by perfbench/run.py.

    python3 perfbench/probe.py setup PROBLEM   # import the CLI, resolve PROBLEM
    python3 perfbench/probe.py kernels         # time the kernels at fixed shapes

Both print one JSON object. `setup` is what every CLI run pays before its
first iteration; the caller times the whole process. `kernels` times the
dispatched kernels at the shapes the old numba-vs-numpy comparison used:
design assembly at 10000x10 (the mse batch) and 30x10 (a solver batch),
and nearest-neighbour distances at 1000x1000 (GD/IGD). Each figure is the
median of several timed repeats.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup(problem_name: str) -> dict:
    import numpy
    import scipy

    from bezier_mopt import _kernels, cli

    cli._resolve_problem(problem_name)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numba_enabled": bool(_kernels.NUMBA_ENABLED)}


def kernels() -> dict:
    import numpy as np

    from bezier_mopt import _kernels
    from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex

    basis = enumerate_multi_indices(3, 3)
    expf, coeff = basis._exponents_f64, basis.coefficients
    large = sample_uniform_simplex(3, 10000, 0)
    small = large[:30]
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 3))
    y = rng.normal(size=(1000, 3))
    loops = 1000

    def small_batches():
        for _ in range(loops):
            _kernels.bernstein_design(small, expf, coeff)

    _kernels.bernstein_design(small, expf, coeff)
    _kernels.min_distances(x[:4], y[:4])
    return {
        "kernels.design.10000x10.us_per_call":
            1e6 * _median_seconds(lambda: _kernels.bernstein_design(large, expf, coeff), 7),
        "kernels.design.30x10.us_per_call": 1e6 * _median_seconds(small_batches, 7) / loops,
        "kernels.min_distances.1000x1000.ms_per_call":
            1e3 * _median_seconds(lambda: _kernels.min_distances(x, y), 7),
    }


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps(setup(argv[1])))
        return 0
    if argv == ["kernels"]:
        print(json.dumps(kernels()))
        return 0
    print("usage: probe.py setup PROBLEM | probe.py kernels", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
