"""Per-layer tracing of the bezier_mopt package, from outside the package.

Run as a script, it wraps the public functions of every package module and
then drives the CLI in the same process:

    python3 perfbench/tracer.py OUT.json -- experiment --problem scaled-med ...

Each wrapper is installed at every name the package calls the function by:
`solver.py` does `from .bezier import design_matrix`, so the wrapper must
replace `bezier_mopt.solver.design_matrix` as well as the definition in
`bezier_mopt.bezier`. Trial workers forked by the experiment pool inherit
the wrappers; each worker writes its own totals to `OUT.json.<pid>` after
every trial, because pool workers exit without running atexit hooks.

Spans are aggregated in memory as they close, keyed by (function, context,
label): context is the outermost of the solver, metrics and sweep layers the
call happened under, and label an optional input-size class. A span's self
time is its duration minus the durations of its direct child spans. Counts that the package does not expose (solver
iterations, sweep steps, design rows, nearest-neighbour pairs) are read off
the arguments and results at the same boundaries. Flop and byte figures are
computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

MODULES = ("simplex", "bezier", "problems", "solver", "metrics", "sweep",
           "_kernels", "cli", "diagnostics")
# Private functions that mark a layer boundary and so are wrapped too.
PRIVATE_BOUNDARIES = {"cli": ("_experiment_trial",)}
# Public methods that do layer work (large-batch design assembly).
METHODS = {"bezier": (("BezierSimplex", "evaluate_batch"),
                      ("BezierSimplex", "evaluate"))}
CONTEXT_MODULES = ("solver", "metrics", "sweep")
TRIAL_SPAN = "cli._experiment_trial"


def _design_quantities(args, result):
    # design_matrix accepts any (N, M) array-like.
    n, m, j = len(args[0]), args[1].num_objectives, args[1].size
    # Ideal single pass: read weights, exponents and coefficients once,
    # write the (N, J) matrix once; one pow and one multiply per factor.
    return {"rows": n, "flops": 2 * n * j * m,
            "bytes": 8 * (n * m + j * m + j + n * j)}


def _kernel_design_quantities(args, result):
    return {"rows": args[0].shape[0]}


def _solve_quantities(args, result):
    design, targets = args[0], args[1]
    n, j = design.shape
    cols = targets.shape[1]
    # Householder QR of N x J, Q'X, and the triangular back-substitution.
    flops = 2 * n * j * j - (2 * j ** 3) // 3 + 2 * n * j * cols + j * j * cols
    return {"flops": flops, "bytes": 8 * (n * j + n * cols + j * cols)}


def _run_quantities(args, result):
    return {"iterations": len(result[1])}


def _sweep_quantities(args, result):
    steps = result.steps
    return {"weights": len(steps), "steps": int(steps.sum()),
            "converged": int(result.converged.sum()),
            "wasted_steps": int(steps[~result.converged].sum())}


def _distance_quantities(args, result):
    return {"pairs": args[0].shape[0] * args[1].shape[0]}


# Spans split further by input size: the validation descent (1000
# weights) is reported apart from the baseline population's.
LABELS = {"_kernels.descent_sweep": lambda args: f"{args[3].shape[0]}w"}

QUANTITIES = {
    "bezier.design_matrix": _design_quantities,
    "_kernels.bernstein_design": _kernel_design_quantities,
    "bezier.solve_prepared": _solve_quantities,
    "solver.run_surface_gd": _run_quantities,
    "sweep.minimize_scalarizations": _sweep_quantities,
    "_kernels.min_distances": _distance_quantities,
}


class Tracer:
    """Stack of open spans plus running totals per (name, context, label)."""

    def __init__(self, out_path: str):
        self.out_path = out_path
        self.pid = os.getpid()
        self.main_pid = self.pid
        self._reset()

    def _reset(self):
        # Frames are [name, context, start, child_seconds].
        self.stack = []
        self.totals = {}
        self.module_depth = {}
        self.module_busy = {}

    def wrap(self, fn, name: str):
        module = name.split(".", 1)[0]
        measure = QUANTITIES.get(name)
        labeler = LABELS.get(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                # First call in a forked worker: drop the parent's state.
                tracer.pid = os.getpid()
                tracer._reset()
            stack = tracer.stack
            parent_ctx = stack[-1][1] if stack else ""
            ctx = parent_ctx or (module if module in CONTEXT_MODULES else "")
            label = labeler(args) if labeler is not None else ""
            frame = [name, ctx, 0.0, 0.0]
            stack.append(frame)
            depth = tracer.module_depth
            depth[module] = depth.get(module, 0) + 1
            failed = True
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - frame[2]
                stack.pop()
                depth[module] -= 1
                if stack:
                    stack[-1][3] += elapsed
                if depth[module] == 0:
                    tracer.module_busy[module] = tracer.module_busy.get(module, 0.0) + elapsed
                key = (name, ctx, label)
                entry = tracer.totals.get(key)
                if entry is None:
                    entry = tracer.totals[key] = {
                        "calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0,
                        "quantities": {}}
                entry["calls"] += 1
                entry["busy_s"] += elapsed
                entry["self_s"] += elapsed - frame[3]
                if failed:
                    entry["errors"] += 1
                elif measure is not None:
                    quantities = entry["quantities"]
                    for key, value in measure(args, result).items():
                        quantities[key] = quantities.get(key, 0) + value
                if name == TRIAL_SPAN and tracer.pid != tracer.main_pid:
                    tracer.dump()

        return traced

    def snapshot(self) -> dict:
        return {
            "pid": self.pid,
            "spans": [{"name": name, "context": ctx, "label": label, **entry}
                      for (name, ctx, label), entry in sorted(self.totals.items())],
            "module_busy_s": dict(sorted(self.module_busy.items())),
        }

    def dump(self) -> None:
        path = self.out_path if self.pid == self.main_pid else f"{self.out_path}.{self.pid}"
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions at every name they are bound to."""
    modules = {short: importlib.import_module(f"bezier_mopt.{short}") for short in MODULES}
    package = importlib.import_module("bezier_mopt")
    # original function object -> span name; an alias (the kernel dispatch
    # names) is named by its shortest public name.
    names = {}
    for short, module in modules.items():
        private = PRIVATE_BOUNDARIES.get(short, ())
        for attr, value in vars(module).items():
            if not isinstance(value, types.FunctionType):
                continue
            if value.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in private:
                continue
            name = f"{short}.{attr}"
            if value not in names or len(name) < len(names[value]):
                names[value] = name
    wrappers = {fn: tracer.wrap(fn, name) for fn, name in names.items()}
    for module in (package, *modules.values()):
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
    for short, methods in METHODS.items():
        for cls_name, method in methods:
            cls = getattr(modules[short], cls_name)
            name = f"{short}.{cls_name}.{method}"
            setattr(cls, method, tracer.wrap(getattr(cls, method), name))


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <bezier-mopt arguments>", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    install(tracer)
    cli = sys.modules["bezier_mopt.cli"]
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
