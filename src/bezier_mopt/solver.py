"""Iterative hypersurface optimizer.

The generic loop turns any single-objective step rule into a multi-objective
optimizer: each iteration samples fresh weights uniformly on the simplex,
evaluates the current model there, advances every sampled point with the
step rule applied to its weighted-sum scalarization, then refits the control
points to the stepped batch by least squares. The surface-wise gradient
descent specialization uses one plain gradient step per point.

The engine steps a stack of trials that share one configuration in
lockstep. Each iteration assembles the designs and the scalarized gradients
of all T trials at once over their T*N rows, and one batched factorization
of the (T, N, J) designs (`bezier.factor_designs`: Gram eigenvalues, thin
SVD where Z'Z is ill-conditioned) gives every trial its singularity gate and
smallest Gram eigenvalue, then one batched refit (`solve_factored`). A trial
whose design is singular resamples alone; a trial that aborts leaves the
stack and the others go on. Every per-trial quantity is computed from that
trial's rows only, so a trial's model and trace are bitwise the same alone
as in any stack. A single run is a stack of one.

RNG discipline: every run owns a single integer seed in [0, 2**128).
Iteration k draws its weight batch from the substream (WEIGHT_STREAM, k,
retry), the PCG64 stream of SeedSequence(seed, spawn_key=(WEIGHT_STREAM, k,
retry)), so a resample after a singular fit never perturbs later
iterations, and runs that share a seed share every iteration prefix
regardless of the total iteration count. The engine does not build those
SeedSequences: `iteration_states` computes their seed words for a block of
iterations of every trial in one vectorized pass, and the stack's batches
are drawn from the words; the streams are bit for bit the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .bezier import (BezierSimplex, design_matrix, factor_designs,
                     solve_factored)
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


# Run seeds must fit the four 32-bit entropy words that `iteration_states`
# lays out; spawn-key words must fit one 32-bit word each.
MAX_SEED = 2**128
_MASK32 = 0xFFFFFFFF

# numpy's SeedSequence hash: entropy words are hashed into a pool of four
# 32-bit words with multipliers advanced from INIT_A by MULT_A, pool words
# are combined by `_mix`, and output words are hashed from the pool with
# multipliers advanced from INIT_B by MULT_B.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int):
    """The (xor, multiply) constant pairs of successive hash calls; they
    do not depend on the data, so every (trial, k) pair shares them."""
    const = init
    while True:
        advanced = (const * mult) & _MASK32
        yield np.uint32(const), np.uint32(advanced)
        const = advanced


def _hash(value: np.ndarray, constants) -> np.ndarray:
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return value ^ (value >> np.uint32(16))


def iteration_states(seeds, ks, retry: int) -> np.ndarray:
    """Seed words of the weight substreams of every seed at every k.

    Returns the (len(seeds), len(ks), 4) uint64 array whose [t, i] entry is
    `SeedSequence(entropy=seeds[t], spawn_key=(WEIGHT_STREAM, ks[i],
    retry)).generate_state(4, np.uint64)`, the words PCG64 seeds itself
    from. The SeedSequence entropy of such a key is seven 32-bit words: the
    seed as four little-endian words, then WEIGHT_STREAM, k and retry; the
    hash runs on wrapping uint32 arrays over all (seed, k) pairs at once.
    """
    seeds = [int(seed) for seed in seeds]
    ks = np.asarray(ks, dtype=np.int64).reshape(-1)
    outside = [seed for seed in seeds if not 0 <= seed < MAX_SEED]
    if outside:
        raise ValueError(f"run seeds must lie in [0, 2**128), got {outside}")
    if np.any(ks < 0) or np.any(ks > _MASK32) or not 0 <= retry <= _MASK32:
        raise ValueError("iterations and retries must lie in [0, 2**32)")
    entropy = np.array([[(seed >> (32 * w)) & _MASK32 for w in range(4)] for seed in seeds],
                       dtype=np.uint32).reshape(-1, 4)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hash(entropy[:, w:w + 1], constants) for w in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], constants))
    for word in (WEIGHT_STREAM, ks[None, :], retry):
        word = np.array(word, dtype=np.uint32, ndmin=1)
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, constants))
    pool = [np.broadcast_to(word, (len(seeds), len(ks))) for word in pool]
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = np.stack([_hash(pool[w % 4], constants) for w in range(8)], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


# ---------------------------------------------------------------------------
# Step schedules and rules.
# ---------------------------------------------------------------------------

def resolve_schedule(spec: str) -> Callable[[int], float]:
    """Turn a schedule spec into a callable k -> step size.

    Accepts the string "1/k" or "const:<value>".
    """
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "1/k":
            return lambda k: 1.0 / k
        if text.startswith("const:"):
            value = float(text[len("const:"):])
            return lambda k: value
    raise ValueError(f"unknown step schedule {spec!r}")


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
    num_iterations and resample_retries below 2**32, as the weight
    substreams key k and retry by 32-bit words.
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
        if not 1 <= self.num_iterations <= _MASK32:
            raise ValueError(f"num_iterations {self.num_iterations} is outside [1, 2**32)")
        if self.num_samples < basis.size:
            raise ValueError(
                f"num_samples={self.num_samples} is below the basis size "
                f"{basis.size} for degree {self.degree} with "
                f"{problem.num_objectives} objectives")
        if not 0 <= self.resample_retries <= _MASK32:
            raise ValueError(f"resample_retries {self.resample_retries} is outside [0, 2**32)")
        if not 0 <= self.seed < MAX_SEED:
            raise ValueError(f"seed {self.seed} is outside [0, 2**128)")
        if self.initial_control_points is not None:
            shape = np.shape(self.initial_control_points)
            if shape != (basis.size, problem.num_vars):
                raise ValueError(
                    f"initial control points have shape {shape}, expected "
                    f"({basis.size}, {problem.num_vars})")
        # Neither schedule ever steps further than at k = 1, nor reaches 0.
        a = resolve_schedule(self.step_schedule)(1)
        if not (0.0 < a <= 1.0):
            raise ValueError(f"step size {a!r} at iteration 1 is outside (0, 1]")

    def echo(self) -> dict:
        """JSON-ready snapshot of the resolved configuration."""
        initial = self.initial_control_points
        return {
            "num_samples": self.num_samples,
            "num_iterations": self.num_iterations,
            "degree": self.degree,
            "seed": self.seed,
            "step_schedule": self.step_schedule,
            "initial_control_points": "zero" if initial is None else np.asarray(initial).tolist(),
            "resample_retries": self.resample_retries,
        }


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
    design Gram matrix, the Frobenius norm of the design-weighted effective
    gradient matrix (computed from the realized steps as (B - X) / alpha),
    the control-point step size, the largest scalarized gradient norm and
    largest single-objective gradient norm over the batch, the largest
    basis-vector 2-norm, the worst partition-of-unity error, and how many
    resamples the iteration needed. Only the final iteration's weight batch
    is kept.
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

def _initial_control_points(config: SolverConfig, basis, num_vars: int) -> np.ndarray:
    if config.initial_control_points is None:
        return np.zeros((basis.size, num_vars))
    return np.array(config.initial_control_points, dtype=np.float64)


# The engine computes the seed words of this many iterations at a time, so
# their memory stays O(T * STATE_BLOCK) for any iteration count.
STATE_BLOCK = 256

# What the engine returns per trial: the fitted model and its trace, or the
# abort that ended the trial.
TrialOutcome = Union[tuple[BezierSimplex, RunRecord], SolverAbort]


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a (T, R, C) stack."""
    return np.sqrt((stack * stack).sum(axis=(1, 2)))


def _last_finite(values: np.ndarray) -> Optional[float]:
    finite = values[np.isfinite(values)]
    return float(finite[-1]) if finite.size else None


def _run_loop(problem: Problem, batch_step, config: SolverConfig, seeds,
              weight_hooks=None) -> list[TrialOutcome]:
    """Shared engine: sample, evaluate, step, refit, K times, for a stack
    of trials in lockstep.

    Trial i runs `config` with seed `seeds[i]`. `batch_step(points,
    weights, grads, k)` advances the sampled rows of all trials, given
    their scalarized gradients. `weight_hooks[i](k, weights)`, when given
    and not None, may replace trial i's sampled batch; it exists for the
    stability diagnostics and must return an array of the same shape.
    Returns one outcome per seed, in order.
    """
    config.validate(problem)
    basis = enumerate_multi_indices(problem.num_objectives, config.degree)
    alpha = resolve_schedule(config.step_schedule)
    start = _initial_control_points(config, basis, problem.num_vars)
    seeds = [int(seed) for seed in seeds]
    hooks = [None] * len(seeds) if weight_hooks is None else list(weight_hooks)
    if len(hooks) != len(seeds):
        raise ValueError(f"{len(hooks)} weight hooks for {len(seeds)} seeds")

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

    def draw(rows, k, retry, states):
        """Stack rows `rows` draw iteration k's batches from their seed
        words `states`."""
        weights[rows] = sample_uniform_simplex_stack(m, n, states)
        retries_used[active[rows], k - 1] = retry
        if hooked:
            for p in rows:
                if hooks[active[p]] is not None:
                    weights[p] = hooks[active[p]](k, weights[p].copy())

    def designs(rows):
        return design_matrix(weights[rows].reshape(-1, m), basis).reshape(-1, n, j)

    def drop(leaving, aborts):
        nonlocal active, control, weights, design, grams, lambda_min, fallback
        for p, abort in zip(leaving, aborts):
            outcomes[active[p]] = abort
        keep = np.ones(len(active), dtype=bool)
        keep[leaving] = False
        active, control, weights = active[keep], control[keep], weights[keep]
        design, grams = design[keep], grams[keep]
        lambda_min, fallback = lambda_min[keep], fallback[keep]

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, kk + 1):
            if not active.size:
                break
            if (k - 1) % STATE_BLOCK == 0:
                block = iteration_states(seeds, range(k, min(k + STATE_BLOCK, kk + 1)), 0)
            draw(np.arange(len(active)), k, 0, block[active, (k - 1) % STATE_BLOCK])
            design = designs(slice(None))
            grams, lambda_min, singular, fallback = factor_designs(design)
            retrying = np.flatnonzero(singular)
            for retry in range(1, config.resample_retries + 1):
                if not retrying.size:
                    break
                draw(retrying, k, retry,
                     iteration_states([seeds[i] for i in active[retrying]], [k], retry)[:, 0])
                design[retrying] = designs(retrying)
                (grams[retrying], lambda_min[retrying], singular,
                 fallback[retrying]) = factor_designs(design[retrying])
                retrying = retrying[singular]
            if retrying.size:
                drop(retrying, [SolverAbort(
                    f"design matrix stayed singular after "
                    f"{config.resample_retries} resamples at iteration {k}",
                    payload={
                        "iteration": k,
                        "resample_retries": config.resample_retries,
                        "smallest_singular_value": float(np.sqrt(lambda_min[p])),
                        "seed": seeds[active[p]],
                    }) for p in retrying])
                if not active.size:
                    break

            surface_points = design @ control
            rows = surface_points.reshape(-1, problem.num_vars)
            flat_weights = weights.reshape(-1, m)
            grads, objective_norms = gradient_batch_stats(problem, rows, flat_weights)
            stepped = batch_step(rows, flat_weights, grads, k).reshape(surface_points.shape)
            effective_grads = (surface_points - stepped) / alpha(k)
            new_control = solve_factored(design, grams, fallback, stepped)

            # One row per TRACE_FIELDS entry, in that order.
            values = np.stack([
                lambda_min,
                _frobenius(np.swapaxes(design, 1, 2) @ effective_grads),
                _frobenius(new_control - control),
                np.sqrt((grads * grads).sum(axis=1).reshape(-1, n).max(axis=1)),
                objective_norms.reshape(-1, n).max(axis=1),
                np.sqrt((design * design).sum(axis=2).max(axis=1)),
                np.abs(design.sum(axis=2) - 1.0).max(axis=1),
            ])
            trace[:, active, k - 1] = values
            control = new_control

            finite = np.isfinite(control).all(axis=(1, 2)) & np.isfinite(values).all(axis=0)
            diverged = np.flatnonzero(~finite)
            if diverged.size:
                delta = trace[TRACE_FIELDS.index("control_delta")]
                drop(diverged, [SolverAbort(
                    f"non-finite values at iteration {k}",
                    payload={
                        "iteration": k,
                        "control_delta": _last_finite(delta[active[p], :k - 1]),
                        "seed": seeds[active[p]],
                    }) for p in diverged])

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
    SolverAbort among `outcomes` instead."""
    for outcome in outcomes:
        if isinstance(outcome, SolverAbort):
            raise outcome
    return outcomes


def run_generic(problem: Problem, rule: StepRule,
                config: SolverConfig) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with an arbitrary per-point step rule."""

    def batch_step(points, weights, grads, k):
        out = np.empty_like(points)
        for n in range(points.shape[0]):
            out[n] = rule(points[n], scalarize(problem, weights[n]), k)
        return out

    return completed(_run_loop(problem, batch_step, config, [config.seed]))[0]


def _gradient_batch_step(config: SolverConfig):
    alpha = resolve_schedule(config.step_schedule)

    def batch_step(points, weights, grads, k):
        return points - alpha(k) * grads

    return batch_step


def run_surface_gd(problem: Problem, config: SolverConfig) -> tuple[BezierSimplex, RunRecord]:
    """Run the loop with one gradient step per sampled point.

    Observationally identical to `run_generic(problem,
    gradient_step_rule(config.step_schedule), config)` with the same seed;
    this path advances the whole batch vectorized. Raises SolverAbort when
    the run aborts.
    """
    return completed(_run_loop(problem, _gradient_batch_step(config), config, [config.seed]))[0]


def run_surface_gd_trials(problem: Problem, config: SolverConfig, seeds,
                          weight_hooks=None) -> list[TrialOutcome]:
    """`run_surface_gd` for every seed in `seeds`, stepped in lockstep.

    `config.seed` is not used; trial i runs with `seeds[i]` and, when
    given, `weight_hooks[i]`. Returns one outcome per seed, bitwise what
    the trial gives in a stack of its own: the (model, record) pair, which
    `run_surface_gd` returns for a trial without a hook, or the SolverAbort
    that ended it. `completed` settles a stack whose aborts are errors.
    """
    return _run_loop(problem, _gradient_batch_step(config), config, seeds, weight_hooks)
