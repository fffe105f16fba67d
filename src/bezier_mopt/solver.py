"""Iterative hypersurface optimizer.

The generic loop turns any single-objective step rule into a multi-objective
optimizer: each iteration samples fresh weights uniformly on the simplex,
evaluates the current model there, advances every sampled point with the
step rule applied to its weighted-sum scalarization, then refits the control
points to the stepped batch by least squares. The surface-wise gradient
descent specialization uses one plain gradient step per point.

The refit fits the step, not the stepped points: with design Z, control
points C, step size alpha and per-point steps E (the scalarized gradients,
or (X - stepped) / alpha for a per-point rule), the least-squares fit of
ZC - alpha*E is C - alpha * (Z'Z)^-1 Z'E, so the engine solves for the step
and subtracts it. Fitting the stepped points instead would lose a small
step to cancellation against ZC. The one product Z'E per iteration feeds
both the solve and the `ztg_norm` trace field.

The engine steps a stack of trials that share one configuration in
lockstep. Each iteration assembles the designs and the scalarized gradients
of all T trials at once over their T*N rows, and keeps the designs as the
(T, J, N) view Z' of the design kernel's coordinate-major output. One
batched factorization (`bezier.factor_designs`: Gram eigenvalues, thin SVD
where Z'Z is ill-conditioned) gives every trial its singularity gate and
smallest Gram eigenvalue, then one batched refit (`solve_factored`). A trial
whose design is singular resamples alone; a trial that aborts leaves the
stack at the end of the iteration in which it aborts, and the others go on.
Every per-trial quantity is computed from that trial's rows only, so a
trial's model and trace are bitwise the same alone as in any stack. A
single run is a stack of one.

RNG discipline: every run owns a single integer seed in [0, 2**128). A
trial draws iteration k's weight batch as the next batch of its main
stream, the PCG64 stream of SeedSequence(seed, spawn_key=(WEIGHT_STREAM,)),
one generator per trial. Resample r >= 1 after a singular fit at iteration
k draws from its own stream, SeedSequence(seed, spawn_key=(WEIGHT_STREAM,
k, r)), so a resample never perturbs later iterations, and runs that share
a seed share every iteration prefix regardless of the total iteration
count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional, Union

import numpy as np

from ._kernels import bernstein_design
from .bezier import BezierSimplex, factor_designs, solve_factored
from .problems import Problem, gradient_batch_stats, scalarize
from .simplex import enumerate_multi_indices, sample_uniform_simplex_stack

# Substream domains under a run seed. Keyed into SeedSequence spawn keys so
# the individual streams are independent and stable.
WEIGHT_STREAM = 0
HOLDOUT_STREAM = 1
PERTURB_STREAM = 2
METRIC_STREAM = 3
TRIAL_STREAM = 4


def derive_seed(root_seed: int, *key: int) -> int:
    """Stable 64-bit mix of a root seed and an integer key path.

    Used for trial seeds and metric seeds so that adding trials never
    reshuffles earlier ones.
    """
    ss = np.random.SeedSequence(entropy=int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def trial_seeds(root_seed: int, count: int) -> list[int]:
    """The run seeds of trials 0..count-1 under a root seed; trial i's seed
    depends on i alone, not on count."""
    return [derive_seed(root_seed, TRIAL_STREAM, i) for i in range(count)]


# Run seeds lie in [0, MAX_SEED); num_iterations and resample_retries lie
# below 2**32. These are the documented input ranges of a run.
MAX_SEED = 2**128


# ---------------------------------------------------------------------------
# Step schedules and rules.
# ---------------------------------------------------------------------------

def resolve_schedule(spec: str) -> Callable[[int], float]:
    """Turn a schedule spec into a callable k -> step size.

    Accepts the string "1/k" or "const:<value>"; raises ConfigError for
    anything else.
    """
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "1/k":
            return lambda k: 1.0 / k
        if text.startswith("const:"):
            try:
                value = float(text[len("const:"):])
                return lambda k: value
            except ValueError:
                pass
    raise ConfigError(f"unknown step schedule {spec!r}")


StepRule = Callable[[np.ndarray, object, int], np.ndarray]


def gradient_step_rule(schedule="1/k") -> StepRule:
    """One plain gradient step on the scalarized objective.

    Returns a rule (x, scalarized, k) -> x - alpha(k) * grad, with no line
    search, momentum, or clipping.
    """
    alpha = resolve_schedule(schedule)

    def rule(x, scalarized, k):
        return x - alpha(k) * scalarized.gradient(x)

    return rule


# ---------------------------------------------------------------------------
# Configuration and run records.
# ---------------------------------------------------------------------------

@dataclass
class SolverConfig:
    """Settings for one run.

    num_samples must cover the basis size; step sizes must stay in (0, 1]
    over the whole horizon; the seed must lie in [0, 2**128), and
    num_iterations and resample_retries below 2**32; `validate` raises
    ConfigError for a setting outside these ranges.
    `initial_control_points=None` starts from the zero matrix.
    `resample_retries` bounds how many fresh weight batches an iteration may
    draw after a numerically singular fit before aborting.
    """

    num_samples: int
    num_iterations: int
    degree: int
    seed: int
    step_schedule: str = "1/k"
    initial_control_points: Optional[np.ndarray] = None
    resample_retries: int = 5

    def validate(self, problem: Problem) -> None:
        basis = enumerate_multi_indices(problem.num_objectives, self.degree)
        if not 1 <= self.num_iterations < 2**32:
            raise ConfigError(f"num_iterations {self.num_iterations} is outside [1, 2**32)")
        if self.num_samples < basis.size:
            raise ConfigError(
                f"num_samples={self.num_samples} is below the basis size "
                f"{basis.size} for degree {self.degree} with "
                f"{problem.num_objectives} objectives")
        if not 0 <= self.resample_retries < 2**32:
            raise ConfigError(f"resample_retries {self.resample_retries} is outside [0, 2**32)")
        if not 0 <= self.seed < MAX_SEED:
            raise ConfigError(f"seed {self.seed} is outside [0, 2**128)")
        if self.initial_control_points is not None:
            shape = np.shape(self.initial_control_points)
            if shape != (basis.size, problem.num_vars):
                raise ConfigError(
                    f"initial control points have shape {shape}, expected "
                    f"({basis.size}, {problem.num_vars})")
        # Neither schedule ever steps further than at k = 1, nor reaches 0.
        a = resolve_schedule(self.step_schedule)(1)
        if not (0.0 < a <= 1.0):
            raise ConfigError(f"step size {a!r} at iteration 1 is outside (0, 1]")

    def echo(self) -> dict:
        """JSON-ready snapshot of the resolved configuration."""
        initial = self.initial_control_points
        initial = "zero" if initial is None else np.asarray(initial).tolist()
        return {**asdict(self), "initial_control_points": initial}


class ConfigError(ValueError):
    """Rejected input: a setting outside its range, or an argument no run
    can use. Raised where the input is checked, before any work."""


class SolverAbort(RuntimeError):
    """Run aborted: its design stayed singular through every resampling
    retry, or its control points or a trace value stopped being finite.
    `payload` names the iteration and the run seed."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


# The per-iteration trace fields of a RunRecord, in trace-file order.
TRACE_FIELDS = ("lambda_min", "ztg_norm", "control_delta", "max_scalarized_grad",
                "max_objective_grad", "max_basis_norm", "max_basis_sum_err")


@dataclass
class RunRecord:
    """Per-iteration trace of a run plus a footer.

    Arrays have one entry per iteration: the smallest eigenvalue of the
    design Gram matrix, the Frobenius norm ||Z'E||_F of the refit's own
    product of the design with the steps E (the scalarized gradients, or
    for a per-point rule the realized steps (X - stepped) / alpha), the
    control-point step size ||C' - C||_F, the largest scalarized gradient
    norm and largest single-objective gradient norm over the batch, the
    largest basis-vector 2-norm, the worst partition-of-unity error, and how
    many resamples the iteration needed. Only the final iteration's weight
    batch is kept.
    """

    seed: int
    config: dict
    lambda_min: np.ndarray
    ztg_norm: np.ndarray
    control_delta: np.ndarray
    max_scalarized_grad: np.ndarray
    max_objective_grad: np.ndarray
    max_basis_norm: np.ndarray
    max_basis_sum_err: np.ndarray
    retries: np.ndarray
    final_weights: np.ndarray

    def __len__(self) -> int:
        return len(self.lambda_min)

    def to_dict(self) -> dict:
        iterations = [{"iteration": k + 1,
                       **{name: float(getattr(self, name)[k]) for name in TRACE_FIELDS},
                       "retries": int(self.retries[k])} for k in range(len(self))]
        return {
            "iterations": iterations,
            "footer": {
                "seed": self.seed,
                "config": self.config,
                "final_weights": self.final_weights.tolist(),
            },
        }


# ---------------------------------------------------------------------------
# The iteration engine.
# ---------------------------------------------------------------------------

# What the engine returns per trial: the fitted model and its trace, or the
# abort that ended the trial.
TrialOutcome = Union[tuple[BezierSimplex, RunRecord], SolverAbort]


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of substream `key` under a run seed: the PCG64 stream
    of SeedSequence(seed, spawn_key=key)."""
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=key))


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a (T, R, C) stack."""
    return np.sqrt((stack * stack).sum(axis=(1, 2)))


def _last_finite(values: np.ndarray) -> Optional[float]:
    finite = values[np.isfinite(values)]
    return float(finite[-1]) if finite.size else None


def _run_loop(problem: Problem, config: SolverConfig, seeds, weight_hooks=None,
              rule: Optional[StepRule] = None) -> list[TrialOutcome]:
    """Shared engine: sample, evaluate, step, refit, K times, for a stack
    of trials in lockstep.

    Trial i runs `config` with seed `seeds[i]`. A sampled row x of weight t
    steps to x - alpha(k) * grad of its scalarization, or, given a per-point
    `rule`, to `rule(x, scalarize(problem, t), k)`. `weight_hooks[i](k,
    weights)`, when given and not None, may replace trial i's sampled batch;
    it exists for the stability diagnostics and must return an array of the
    same shape. A trial aborts when its design stays singular through every
    resample or a model or trace value stops being finite, and leaves the
    stack at the end of that iteration. Returns one outcome per seed, in
    order.
    """
    config.validate(problem)
    basis = enumerate_multi_indices(problem.num_objectives, config.degree)
    alpha = resolve_schedule(config.step_schedule)
    start = (np.zeros((basis.size, problem.num_vars)) if config.initial_control_points is None
             else np.array(config.initial_control_points, dtype=np.float64))
    seeds = [int(seed) for seed in seeds]
    outside = [seed for seed in seeds if not 0 <= seed < MAX_SEED]
    if outside:
        raise ConfigError(f"run seeds must lie in [0, 2**128), got {outside}")
    hooks = [None] * len(seeds) if weight_hooks is None else list(weight_hooks)
    if len(hooks) != len(seeds):
        raise ConfigError(f"{len(hooks)} weight hooks for {len(seeds)} seeds")

    n, m, j = config.num_samples, problem.num_objectives, basis.size
    kk = config.num_iterations
    trace = np.empty((len(TRACE_FIELDS), len(seeds), kk))
    retries_used = np.zeros((len(seeds), kk), dtype=np.int64)
    outcomes: list = [None] * len(seeds)
    hooked = any(hook is not None for hook in hooks)

    # Row p of the stacked state belongs to trial active[p]; rows leave the
    # stack only when their trial aborts.
    active = np.arange(len(seeds))
    control = np.repeat(start[None], len(seeds), axis=0)
    weights = np.empty((len(seeds), n, m))
    # One main stream per trial, even where two trials share a seed.
    streams = [stream(seed, WEIGHT_STREAM) for seed in seeds]

    def draw(rows, k, retry, generators):
        """Stack rows `rows` (a slice or indices) draw iteration k's
        batches, one from each of `generators`; returns their designs Z'
        (R, J, N), a view of the kernel's coordinate-major (J, R*N) output,
        not a copy."""
        weights[rows] = sample_uniform_simplex_stack(m, n, generators)
        retries_used[active[rows], k - 1] = retry
        if hooked:
            for p in np.arange(len(active))[rows]:
                if hooks[active[p]] is not None:
                    weights[p] = hooks[active[p]](k, weights[p].copy())
        flat = bernstein_design(weights[rows].reshape(-1, m), basis._exponents_f64,
                                basis.coefficients)
        return np.swapaxes(flat.T.reshape(j, -1, n), 0, 1)

    # A singular design's pseudo-inverse may divide by a zero singular value.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, kk + 1):
            if not active.size:
                break
            zt = draw(slice(None), k, 0, [streams[i] for i in active])
            grams, lambda_min, singular, fallback = factor_designs(np.swapaxes(zt, 1, 2))
            stuck = np.flatnonzero(singular)
            for retry in range(1, config.resample_retries + 1):
                if not stuck.size:
                    break
                generators = [stream(seeds[i], WEIGHT_STREAM, k, retry) for i in active[stuck]]
                zt[stuck] = draw(stuck, k, retry, generators)
                (grams[stuck], lambda_min[stuck], singular,
                 fallback[stuck]) = factor_designs(np.swapaxes(zt[stuck], 1, 2))
                stuck = stuck[singular]

            # A stuck trial, singular through every resample, runs the rest
            # of the iteration too; none of its values are read.
            design = np.swapaxes(zt, 1, 2)
            surface_points = design @ control
            rows = surface_points.reshape(-1, problem.num_vars)
            flat_weights = weights.reshape(-1, m)
            grads, objective_norms = gradient_batch_stats(problem, rows, flat_weights)
            # The refit fits the steps E (see the module docstring). The
            # gradients' E is a (T, N, L) view of the gradient kernel's
            # coordinate-major buffer.
            if rule is None:
                steps = grads.reshape(surface_points.shape)
            else:
                stepped = np.array([rule(x, scalarize(problem, t), k) for x, t
                                    in zip(rows, flat_weights)]).reshape(surface_points.shape)
                steps = (surface_points - stepped) / alpha(k)
            delta, ztg = solve_factored(design, grams, fallback, steps)
            new_control = control - alpha(k) * delta

            # One row per TRACE_FIELDS entry, in that order. The basis sums
            # run over axis 1 of Z', in J order whatever the stack's layout.
            values = np.stack([
                lambda_min,
                _frobenius(ztg),
                _frobenius(new_control - control),
                np.sqrt((grads * grads).sum(axis=1).reshape(-1, n).max(axis=1)),
                objective_norms.reshape(-1, n).max(axis=1),
                np.sqrt((zt * zt).sum(axis=1).max(axis=1)),
                np.abs(zt.sum(axis=1) - 1.0).max(axis=1),
            ])
            trace[:, active, k - 1] = values
            control = new_control

            # A trial that aborts leaves the stack here, at the end of the
            # iteration in which it aborts; a stuck trial aborts as singular.
            stays = np.isfinite(control).all(axis=(1, 2)) & np.isfinite(values).all(axis=0)
            stays[stuck] = False
            leaving = np.flatnonzero(~stays)
            for p in leaving:
                if p in stuck:
                    message = (f"design matrix stayed singular after "
                               f"{config.resample_retries} resamples at iteration {k}")
                    detail = {"resample_retries": config.resample_retries,
                              "smallest_singular_value": float(np.sqrt(lambda_min[p]))}
                else:
                    message = f"non-finite values at iteration {k}"
                    detail = {"control_delta": _last_finite(
                        trace[TRACE_FIELDS.index("control_delta"), active[p], :k - 1])}
                outcomes[active[p]] = SolverAbort(
                    message, payload={"iteration": k, **detail, "seed": seeds[active[p]]})
            if leaving.size:
                active, control, weights = active[stays], control[stays], weights[stays]

    echo = config.echo()
    for p, i in enumerate(active):
        record = RunRecord(
            seed=seeds[i],
            config={**echo, "seed": seeds[i]},
            retries=retries_used[i].copy(),
            final_weights=weights[p].copy(),
            **{name: trace[f, i].copy() for f, name in enumerate(TRACE_FIELDS)},
        )
        outcomes[i] = (BezierSimplex(basis=basis, control_points=control[p].copy()), record)
    return outcomes


def completed(outcomes: list[TrialOutcome]) -> list[tuple[BezierSimplex, RunRecord]]:
    """The (model, record) pair of every trial of a stack; raises the first
    SolverAbort among `outcomes` instead. When more trials aborted, its
    payload gains "other_aborts", their payloads in stack order."""
    aborts = [outcome for outcome in outcomes if isinstance(outcome, SolverAbort)]
    if len(aborts) > 1:
        aborts[0].payload["other_aborts"] = [abort.payload for abort in aborts[1:]]
    if aborts:
        raise aborts[0]
    return outcomes


def run_generic(problem: Problem, rule: StepRule,
                config: SolverConfig) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with an arbitrary per-point step rule."""
    return completed(_run_loop(problem, config, [config.seed], rule=rule))[0]


def run_surface_gd(problem: Problem, config: SolverConfig) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with one gradient step per sampled point.

    Observationally identical to `run_generic(problem,
    gradient_step_rule(config.step_schedule), config)` with the same seed;
    this path advances the whole batch vectorized. Raises SolverAbort when
    the run aborts.
    """
    return completed(_run_loop(problem, config, [config.seed]))[0]


def run_surface_gd_trials(problem: Problem, config: SolverConfig, seeds,
                          weight_hooks=None) -> list[TrialOutcome]:
    """`run_surface_gd` for every seed in `seeds`, stepped in lockstep.

    `config.seed` is not used; trial i runs with `seeds[i]` and, when
    given, `weight_hooks[i]`. Returns one outcome per seed, bitwise what
    the trial gives in a stack of its own: the (model, record) pair, which
    `run_surface_gd` returns for a trial without a hook, or the SolverAbort
    that ended it. `completed` settles a stack whose aborts are errors.
    """
    return _run_loop(problem, config, seeds, weight_hooks)
