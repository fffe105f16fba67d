import dataclasses
import warnings

import numpy as np
import pytest

from bezier_mopt.bezier import design_matrix
from bezier_mopt.metrics import loss_batch
from bezier_mopt.problems import gradient_batch_stats, scaled_med, scalarize
from bezier_mopt.simplex import enumerate_multi_indices, sample_uniform_simplex
from bezier_mopt.solver import (STATE_BLOCK, WEIGHT_STREAM, RunRecord,
                                SolverAbort, SolverConfig, completed,
                                gradient_step_rule, iteration_states,
                                run_generic, run_surface_gd,
                                run_surface_gd_trials, trial_seeds)


def iteration_stream(seed, k, retry):
    """The SeedSequence of iteration k's weight substream under a run seed;
    the engine draws from its seed words, computed by `iteration_states`."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=(WEIGHT_STREAM, int(k), int(retry)))


def closed_form_control_step(problem, control, weights, alpha, basis):
    """One control update via the explicit normal-equation form.

    Computes P - alpha * (Z'Z)^(-1) Z'G for the given weight batch, where
    G stacks the scalarized gradients at the current surface points: an
    independent cross-check of the solver's stepped-points-plus-refit path.
    The two agree up to solver round-off.
    """
    design = design_matrix(weights, basis)
    surface_points = design @ control
    grads, _ = gradient_batch_stats(problem, surface_points, np.asarray(weights, dtype=np.float64))
    gram = design.T @ design
    return control - alpha * np.linalg.solve(gram, design.T @ grads)


def central_jacobian(problem, x, h=1e-6):
    cols = []
    for l in range(x.size):
        e = np.zeros_like(x)
        e[l] = h
        cols.append((problem.evaluate(x + e) - problem.evaluate(x - e)) / (2 * h))
    return np.stack(cols, axis=1)


def test_gradient_step_rule_arithmetic():
    problem = scaled_med()
    rule = gradient_step_rule("const:1")
    x = np.array([1.0, 1.0, 1.0])
    stepped = rule(x, scalarize(problem, [1.0, 0.0, 0.0]), 1)
    # gradient of the first objective at (1,1,1) is (2, 0, 0)
    assert np.array_equal(stepped, [-1.0, 1.0, 1.0])


def test_gradient_step_vanishes_with_step_size():
    problem = scaled_med()
    x = np.array([1.0, 1.0, 1.0])
    s = scalarize(problem, [1.0, 0.0, 0.0])
    stepped = gradient_step_rule("const:1e-9")(x, s, 1)
    assert np.linalg.norm(stepped - x) < 1e-8


def test_gradient_step_fixed_at_analytic_minimizer():
    problem = scaled_med()
    rule = gradient_step_rule("1/k")
    t = np.array([0.2, 0.5, 0.3])
    x = problem.pareto_map(t)
    stepped = rule(x, scalarize(problem, t), 3)
    assert np.linalg.norm(stepped - x) < 1e-12


def test_config_validation():
    problem = scaled_med()
    with pytest.raises(ValueError):
        SolverConfig(num_samples=30, num_iterations=0, degree=3, seed=0).validate(problem)
    with pytest.raises(ValueError, match="basis size"):
        SolverConfig(num_samples=5, num_iterations=10, degree=3, seed=0).validate(problem)
    with pytest.raises(ValueError, match=r"outside \(0, 1\]"):
        SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=0,
                     step_schedule="const:1.5").validate(problem)
    with pytest.raises(ValueError):
        SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=0,
                     step_schedule="const:0").validate(problem)
    SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=0).validate(problem)
    # The weight substreams key k and retry by 32-bit words. Validating
    # allocates nothing, so the largest legal counts are checked as they are.
    base = SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=0)
    for field, bad in (("num_iterations", (2**32, 10**13)), ("resample_retries", (-1, 2**32))):
        for value in bad:
            with pytest.raises(ValueError, match=rf"{field} {value} is outside"):
                dataclasses.replace(base, **{field: value}).validate(problem)
        dataclasses.replace(base, **{field: 2**32 - 1}).validate(problem)


def test_config_rejects_a_callable_step_schedule():
    config = SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=0,
                          step_schedule=lambda k: 1.0 / k)
    with pytest.raises(ValueError, match="step schedule"):
        config.validate(scaled_med())


def test_identity_rule_keeps_any_model_fixed():
    problem = scaled_med()
    basis = enumerate_multi_indices(3, 3)
    rng = np.random.default_rng(0)
    planted = rng.uniform(-1, 1, size=(basis.size, 3))
    cfg = SolverConfig(num_samples=25, num_iterations=5, degree=3, seed=11,
                       initial_control_points=planted)
    # A step rule that leaves every point unchanged: the refit reproduces
    # the model at every iteration.
    model, _ = run_generic(problem, lambda x, scalarized, k: x, cfg)
    assert np.linalg.norm(model.control_points - planted) < 1e-8


def test_single_iteration_runs():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=15, num_iterations=1, degree=3, seed=2)
    model, record = run_surface_gd(problem, cfg)
    assert len(record) == 1
    assert np.all(np.isfinite(model.control_points))


def test_surface_gd_equals_generic_gradient_rule():
    problem = scaled_med()
    for seed in range(5):
        cfg = SolverConfig(num_samples=30, num_iterations=10, degree=3, seed=seed)
        a, _ = run_surface_gd(problem, cfg)
        b, _ = run_generic(problem, gradient_step_rule("1/k"), cfg)
        assert np.linalg.norm(a.control_points - b.control_points) < 1e-8


def test_first_iteration_from_zero_matches_hand_computation():
    # From the zero model every surface point is the origin, so the stepped
    # points are -alpha * J(0)' t_n with J estimated independently by finite
    # differences; with enough samples the refit reproduces them exactly.
    problem = scaled_med()
    cfg = SolverConfig(num_samples=12, num_iterations=1, degree=3, seed=31)
    model, _ = run_surface_gd(problem, cfg)
    weights = sample_uniform_simplex(3, 12, iteration_stream(31, 1, 0))
    jac0 = central_jacobian(problem, np.zeros(3))
    stepped = -1.0 * weights @ jac0  # alpha(1) = 1, rows J(0)' t_n
    assert np.abs(model.evaluate_batch(weights) - stepped).max() < 1e-6


def test_closed_form_control_update_cross_check():
    problem = scaled_med()
    basis = enumerate_multi_indices(3, 3)
    rng = np.random.default_rng(7)
    control = rng.uniform(-1, 1, size=(basis.size, 3))
    cfg = SolverConfig(num_samples=40, num_iterations=1, degree=3, seed=13,
                       step_schedule="const:0.5",
                       initial_control_points=control)
    model, _ = run_surface_gd(problem, cfg)
    weights = sample_uniform_simplex(3, 40, iteration_stream(13, 1, 0))
    reference = closed_form_control_step(problem, control, weights, 0.5, basis)
    assert np.linalg.norm(model.control_points - reference) < 1e-8


def recording(inner=None):
    """Weight hook that passes each batch through `inner`, when given, and
    keeps the last batch of every iteration: the one its refit uses."""
    batches = {}

    def hook(k, batch):
        if inner is not None:
            batch = inner(k, batch)
        batches[k] = batch
        return batch

    hook.batches = batches
    return hook


def recorded(hook):
    """The batches a `recording` hook kept, in iteration order."""
    return [hook.batches[k] for k in sorted(hook.batches)]


def hooked_run(problem, config, hook):
    """`run_surface_gd`, through a stack of one trial when `hook` is given."""
    if hook is None:
        return run_surface_gd(problem, config)
    (run,) = completed(run_surface_gd_trials(problem, config, [config.seed], [hook]))
    return run


def test_run_record_contents_and_determinism():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=30, num_iterations=20, degree=3, seed=5)
    hook_a, hook_b = recording(), recording()
    model_a, rec_a = hooked_run(problem, cfg, hook_a)
    model_b, rec_b = hooked_run(problem, cfg, hook_b)
    model_plain, rec_plain = run_surface_gd(problem, cfg)
    assert np.array_equal(model_a.control_points, model_b.control_points)
    assert model_plain.control_points.tobytes() == model_a.control_points.tobytes()
    for name in ("lambda_min", "ztg_norm", "control_delta",
                 "max_scalarized_grad", "max_objective_grad"):
        va, vb = getattr(rec_a, name), getattr(rec_b, name)
        assert np.array_equal(va, vb)
        assert np.all(np.isfinite(va))
    assert len(rec_a) == 20
    assert len(recorded(hook_a)) == 20
    assert rec_a.lambda_min.min() > 0.0
    assert [w.tobytes() for w in recorded(hook_a)] == [w.tobytes() for w in recorded(hook_b)]
    assert np.array_equal(rec_a.final_weights, recorded(hook_a)[-1])
    assert rec_plain.final_weights.tobytes() == rec_a.final_weights.tobytes()
    doc = rec_a.to_dict()
    assert len(doc["iterations"]) == 20
    assert doc["footer"]["seed"] == 5
    assert not any("weights" in entry for entry in doc["iterations"])


def test_design_weighted_gradient_bound_each_iteration():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=30, num_iterations=50, degree=3, seed=9)
    _, record = run_surface_gd(problem, cfg)
    assert np.all(record.ztg_norm <= cfg.num_samples * record.max_scalarized_grad)
    assert np.all(record.max_basis_norm <= 1.0 + 1e-12)
    assert np.all(record.max_basis_sum_err < 1e-12)


def test_control_step_bound_from_recorded_quantities():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=30, num_iterations=50, degree=3, seed=10)
    model, record = run_surface_gd(problem, cfg)
    j = model.basis.size
    alphas = 1.0 / np.arange(1, 51)
    bound = alphas * np.sqrt(j) / record.lambda_min * record.ztg_norm
    assert np.all(record.control_delta <= bound * (1.0 + 1e-9))


def test_progress_lowers_test_loss():
    problem = scaled_med()
    grid = sample_uniform_simplex(3, 1000, 777)
    for seed in (0, 1, 2):
        short = SolverConfig(num_samples=30, num_iterations=1, degree=3, seed=seed)
        long = SolverConfig(num_samples=30, num_iterations=50, degree=3, seed=seed)
        model_1, _ = run_surface_gd(problem, short)
        model_k, _ = run_surface_gd(problem, long)
        # per-iteration substreams make the one-iteration run a prefix of the
        # fifty-iteration run with the same seed
        early = loss_batch(model_1, grid, problem.pareto_map).mean()
        late = loss_batch(model_k, grid, problem.pareto_map).mean()
        assert late < early


def test_singular_sample_triggers_resample_then_succeeds():
    problem = scaled_med()
    calls = {"count": 0}

    def degenerate_once(k, batch):
        calls["count"] += 1
        if calls["count"] == 1:
            return np.tile(batch[:1], (batch.shape[0], 1))
        return batch

    cfg = SolverConfig(num_samples=20, num_iterations=3, degree=3, seed=3)
    model, record = hooked_run(problem, cfg, degenerate_once)
    assert record.retries[0] == 1
    assert np.all(record.retries[1:] == 0)
    assert np.all(np.isfinite(model.control_points))


def test_exhausted_retries_abort_with_payload():
    problem = scaled_med()

    def always_degenerate(k, batch):
        if k == 2:
            return np.tile(batch[:1], (batch.shape[0], 1))
        return batch

    cfg = SolverConfig(num_samples=20, num_iterations=3, degree=3, seed=3,
                       resample_retries=2)
    with pytest.raises(SolverAbort) as err:
        hooked_run(problem, cfg, always_degenerate)
    assert err.value.payload["iteration"] == 2
    assert err.value.payload["resample_retries"] == 2


def test_custom_initial_control_points_shape_checked():
    problem = scaled_med()
    cfg = SolverConfig(num_samples=20, num_iterations=1, degree=3, seed=0,
                       initial_control_points=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        run_surface_gd(problem, cfg)


# ---------------------------------------------------------------------------
# Lockstep stacks of trials.
# ---------------------------------------------------------------------------

def assert_same_run(outcome, reference):
    """Model and every RunRecord field are bitwise equal."""
    (model, record), (ref_model, ref_record) = outcome, reference
    assert model.control_points.tobytes() == ref_model.control_points.tobytes()
    for field in dataclasses.fields(RunRecord):
        value, expected = getattr(record, field.name), getattr(ref_record, field.name)
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype and value.tobytes() == expected.tobytes(), field.name
        else:
            assert value == expected, field.name


def degenerate_first_draw_at(iteration):
    """Weight hook whose first batch at `iteration` repeats one weight, so
    that iteration needs one resample."""
    calls = []

    def hook(k, batch):
        if k == iteration and not calls:
            calls.append(k)
            return np.tile(batch[:1], (batch.shape[0], 1))
        return batch

    return hook


def always_degenerate_at(iteration):
    def hook(k, batch):
        if k == iteration:
            return np.tile(batch[:1], (batch.shape[0], 1))
        return batch

    return hook


@pytest.mark.parametrize("n", [30, 100])
def test_stacked_trials_equal_single_runs_bitwise(n):
    # Every trial but 0 and 7 records its batches, so the whole stack and
    # both halves of the split each hold a trial without a hook.
    problem = scaled_med()
    config = SolverConfig(num_samples=n, num_iterations=50, degree=3, seed=0)
    seeds = trial_seeds(2024, 20)
    single_hooks, stacked_hooks, split_hooks = (
        [None if t in (0, 7) else recording() for t in range(20)] for _ in range(3))
    singles = [hooked_run(problem, dataclasses.replace(config, seed=s), hook)
               for s, hook in zip(seeds, single_hooks)]
    stacked = run_surface_gd_trials(problem, config, seeds, stacked_hooks)
    split = (run_surface_gd_trials(problem, config, seeds[:7], split_hooks[:7])
             + run_surface_gd_trials(problem, config, seeds[7:], split_hooks[7:]))
    for single, whole, part in zip(singles, stacked, split):
        assert_same_run(whole, single)
        assert_same_run(part, single)
    for single, whole, part in zip(single_hooks, stacked_hooks, split_hooks):
        if single is not None:
            expected = [w.tobytes() for w in recorded(single)]
            assert len(expected) == 50
            assert [w.tobytes() for w in recorded(whole)] == expected
            assert [w.tobytes() for w in recorded(part)] == expected


def test_stacked_trial_retries_alone():
    problem = scaled_med()
    config = SolverConfig(num_samples=30, num_iterations=20, degree=3, seed=0)
    seeds = trial_seeds(2024, 6)
    hooks = [None] * 6
    hooks[4] = degenerate_first_draw_at(3)
    stacked = run_surface_gd_trials(problem, config, seeds, hooks)
    for i, seed in enumerate(seeds):
        hook = degenerate_first_draw_at(3) if i == 4 else None
        assert_same_run(stacked[i], hooked_run(
            problem, dataclasses.replace(config, seed=seed), hook))
    retries = np.array([outcome[1].retries for outcome in stacked])
    assert retries[4, 2] == 1
    assert retries.sum() == 1


def counted_svd_calls(monkeypatch):
    """Record the shape of every `np.linalg.svd` call from here on."""
    calls = []
    real = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_well_conditioned_trial_stack_makes_no_svd_call(monkeypatch):
    calls = counted_svd_calls(monkeypatch)
    config = SolverConfig(num_samples=30, num_iterations=100, degree=3, seed=0)
    outcomes = run_surface_gd_trials(scaled_med(), config, trial_seeds(2024, 20))
    assert not any(isinstance(outcome, SolverAbort) for outcome in outcomes)
    assert calls == []


def test_degenerate_draw_alone_takes_the_svd_path(monkeypatch):
    calls = counted_svd_calls(monkeypatch)
    config = SolverConfig(num_samples=30, num_iterations=20, degree=3, seed=0)
    hooks = [None] * 6
    hooks[4] = degenerate_first_draw_at(3)
    stacked = run_surface_gd_trials(scaled_med(), config, trial_seeds(2024, 6), hooks)
    # Only the rank-one design of trial 4 at iteration 3 is refactored by
    # SVD; its resample is well-conditioned again.
    assert calls == [(1, 30, 10)]
    retries = np.array([outcome[1].retries for outcome in stacked])
    assert retries[4, 2] == 1
    assert retries.sum() == 1


def test_stacked_trial_abort_leaves_the_others_running():
    problem = scaled_med()
    config = SolverConfig(num_samples=20, num_iterations=6, degree=3, seed=0,
                          resample_retries=2)
    seeds = trial_seeds(2024, 3)
    stacked = run_surface_gd_trials(problem, config, seeds,
                                    [None, always_degenerate_at(2), None])
    with pytest.raises(SolverAbort) as alone:
        hooked_run(problem, dataclasses.replace(config, seed=seeds[1]),
                   always_degenerate_at(2))
    assert isinstance(stacked[1], SolverAbort)
    assert stacked[1].payload == alone.value.payload
    assert str(stacked[1]) == str(alone.value)
    assert stacked[1].payload["seed"] == seeds[1]
    for i in (0, 2):
        assert_same_run(stacked[i], run_surface_gd(
            problem, dataclasses.replace(config, seed=seeds[i])))


def test_divergence_aborts_at_the_first_non_finite_model():
    problem = scaled_med()
    config = SolverConfig(num_samples=30, num_iterations=2000, degree=3, seed=0,
                          step_schedule="const:1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverAbort, match="non-finite") as err:
            run_surface_gd(problem, config)
    payload = err.value.payload
    assert payload["seed"] == 0
    assert 1 < payload["iteration"] < 2000
    # Runs sharing a seed share every iteration prefix, so the run that
    # stops one iteration earlier is the aborted run up to its last step.
    model, record = run_surface_gd(
        problem, dataclasses.replace(config, num_iterations=payload["iteration"] - 1))
    assert np.all(np.isfinite(model.control_points))
    finite = record.control_delta[np.isfinite(record.control_delta)]
    assert payload["control_delta"] == finite[-1]


# ---------------------------------------------------------------------------
# Weight substreams from precomputed seed words.
# ---------------------------------------------------------------------------

STATE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 - 1]
STATE_KS = [1, 255, 256, 257, 2**31]


@pytest.mark.parametrize("retry", range(6))
def test_iteration_states_equal_seed_sequence_words(retry):
    states = iteration_states(STATE_SEEDS, STATE_KS, retry)
    assert states.shape == (len(STATE_SEEDS), len(STATE_KS), 4)
    assert states.dtype == np.uint64
    for t, seed in enumerate(STATE_SEEDS):
        for i, k in enumerate(STATE_KS):
            expected = iteration_stream(seed, k, retry).generate_state(4, np.uint64)
            assert states[t, i].tobytes() == expected.tobytes(), (seed, k, retry)


def test_iteration_states_reject_seeds_outside_the_entropy_layout():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match="2\\*\\*128"):
            iteration_states([0, seed], [1], 0)
        config = SolverConfig(num_samples=20, num_iterations=2, degree=3, seed=seed)
        with pytest.raises(ValueError, match="2\\*\\*128"):
            config.validate(scaled_med())
        with pytest.raises(ValueError):
            run_surface_gd(scaled_med(), config)
        with pytest.raises(ValueError):
            run_surface_gd_trials(scaled_med(), dataclasses.replace(config, seed=0), [3, seed])
    with pytest.raises(ValueError):
        iteration_states([0], [2**32], 0)


def test_recorded_weights_equal_the_seed_sequence_streams():
    # K crosses a seed-word block boundary without being a multiple of it,
    # and trial 1 resamples once after the boundary.
    num_iterations = 300
    assert STATE_BLOCK < num_iterations and num_iterations % STATE_BLOCK
    problem = scaled_med()
    config = SolverConfig(num_samples=20, num_iterations=num_iterations, degree=3, seed=0)
    seeds = trial_seeds(2024, 3)
    seen = []

    def watching(k, batch):
        seen.append((k, batch.copy()))
        return batch

    hooks = [recording(watching), recording(degenerate_first_draw_at(STATE_BLOCK + 5)), None]
    outcomes = run_surface_gd_trials(problem, config, seeds, hooks)
    retries = [record.retries for _, record in outcomes]
    assert retries[1][STATE_BLOCK + 4] == 1
    assert sum(int(r.sum()) for r in retries) == 1
    for seed, hook, (_, record) in zip(seeds, hooks, outcomes):
        if hook is None:
            # A trial without a hook keeps only its last batch.
            batches = {num_iterations: record.final_weights}
        else:
            batches = hook.batches
            assert sorted(batches) == list(range(1, num_iterations + 1))
            assert batches[num_iterations].tobytes() == record.final_weights.tobytes()
        for k, batch in batches.items():
            expected = sample_uniform_simplex(
                3, 20, iteration_stream(seed, k, record.retries[k - 1]))
            assert batch.tobytes() == expected.tobytes(), (seed, k)
    # Hooks receive the normalized batch of their own trial.
    assert [k for k, _ in seen] == list(range(1, num_iterations + 1))
    for k, batch in seen:
        assert batch.tobytes() == sample_uniform_simplex(
            3, 20, iteration_stream(seeds[0], k, 0)).tobytes()
