import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrlkit import planning
from mbrlkit.algorithms import PETSConfig, pets_run
from mbrlkit.data import ValidationError
from mbrlkit.envs import cartpole_reward, cartpole_termination, no_termination
from mbrlkit.models import (GaussianMLPEnsemble, MemberGroups, ModelEnv,
                            TransitionRewardWrapper)
from mbrlkit.planning import (Agent, CEMConfig, RandomAgent,
                              TrajectoryOptimizerAgent, cem_optimize,
                              create_mpc_agent, evaluate_action_sequences)


def quadratic(x):
    return -((x[:, 0] - 3.0) ** 2)


class TestCEM:
    def test_converges_to_quadratic_optimum(self):
        cfg = CEMConfig(population=500, elite_count=50, iterations=10,
                        initial_var=25.0, alpha=0.0)
        for seed in range(5):
            res = cem_optimize(quadratic, cfg, np.zeros(1), -10.0, 10.0,
                               np.random.default_rng(seed))
            assert abs(res.solution[0] - 3.0) < 0.1

    def test_full_population_refit(self):
        # k = N, alpha = 0: refit equals the full-population mean/variance
        cfg = CEMConfig(population=100, elite_count=100, iterations=1,
                        initial_var=4.0, alpha=0.0, return_mean_elites=True)
        seen = {}

        def objective(x):
            seen["samples"] = x.copy()
            return np.zeros(len(x))

        res = cem_optimize(objective, cfg, np.zeros(2), -10.0, 10.0,
                           np.random.default_rng(0))
        pop = seen["samples"][:100]
        assert np.allclose(res.solution, pop.mean(axis=0))

    def test_constant_objective(self):
        cfg = CEMConfig(population=200, elite_count=20, iterations=3,
                        initial_var=1.0, alpha=0.0)
        res = cem_optimize(lambda x: np.full(len(x), 5.0), cfg, np.zeros(1),
                           -1.0, 1.0, np.random.default_rng(0))
        assert res.value == 5.0

    def test_elite_refit_matches_direct_computation(self):
        # replay the trace against hand computation of the top-k statistics
        cfg = CEMConfig(population=60, elite_count=6, iterations=4,
                        initial_var=9.0, alpha=0.0)
        log = []

        def objective(x):
            if x.shape[0] == cfg.population:
                log.append(x.copy())
            return -np.sum((x - 2.0) ** 2, axis=1)

        res = cem_optimize(objective, cfg, np.zeros(3), -10.0, 10.0,
                           np.random.default_rng(1))
        assert len(log) == cfg.iterations
        mean = np.zeros(3)
        for it, samples in enumerate(log):
            values = -np.sum((samples - 2.0) ** 2, axis=1)
            top = samples[np.argsort(-values, kind="stable")[:6]]
            mean = top.mean(axis=0)
            var = top.var(axis=0)
            assert np.allclose(res.trace[it].mean_elite_value,
                               np.sort(values)[::-1][:6].mean())
        assert np.allclose(res.solution, mean)

    def test_argmax_invariance_under_constant_shift(self):
        cfg = CEMConfig(population=100, elite_count=10, iterations=5,
                        initial_var=9.0, alpha=0.0)

        def run(shift):
            return cem_optimize(lambda x: quadratic(x) + shift, cfg,
                                np.zeros(1), -10.0, 10.0,
                                np.random.default_rng(3))

        a, b = run(0.0), run(100.0)
        assert np.array_equal(a.solution, b.solution)
        assert b.value - a.value == pytest.approx(100.0)

    def test_best_so_far_monotone(self):
        cfg = CEMConfig(population=50, elite_count=5, iterations=8,
                        initial_var=25.0)
        res = cem_optimize(quadratic, cfg, np.zeros(1), -10.0, 10.0,
                           np.random.default_rng(2))
        best = [row.best_value for row in res.trace]
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))

    def test_nonfinite_values_ranked_worst(self):
        cfg = CEMConfig(population=50, elite_count=5, iterations=3,
                        initial_var=25.0, alpha=0.0)

        def objective(x):
            vals = quadratic(x)
            vals[::7] = np.nan
            return vals

        res = cem_optimize(objective, cfg, np.zeros(1), -10.0, 10.0,
                           np.random.default_rng(0))
        assert np.all(np.isfinite(res.solution))
        assert abs(res.solution[0] - 3.0) < 1.0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_candidates_within_bounds(self, seed):
        lower, upper = -0.5, 2.0
        cfg = CEMConfig(population=40, elite_count=4, iterations=2,
                        initial_var=25.0)

        def objective(x):
            assert np.all(x >= lower) and np.all(x <= upper)
            return x.sum(axis=1)

        cem_optimize(objective, cfg, np.zeros(3), lower, upper,
                     np.random.default_rng(seed))

    @given(st.data())
    @settings(max_examples=60)
    def test_candidates_in_box_and_variance_capped(self, data):
        d = data.draw(st.integers(min_value=1, max_value=4))
        coords = st.lists(st.floats(min_value=-10.0, max_value=10.0),
                          min_size=d, max_size=d)
        widths = st.lists(st.floats(min_value=1e-3, max_value=20.0),
                          min_size=d, max_size=d)
        lower = np.array(data.draw(coords))
        upper = lower + np.array(data.draw(widths))
        target = np.array(data.draw(coords))
        var_cap = ((upper - lower) / 2.0) ** 2
        cfg = CEMConfig(
            population=30, elite_count=3, iterations=3,
            alpha=data.draw(st.floats(min_value=0.0, max_value=1.0,
                                      exclude_max=True)),
            initial_var=float(var_cap.max()) * data.draw(
                st.floats(min_value=1.0, max_value=100.0, exclude_min=True)))
        seen = []

        def objective(x):
            seen.append(x.copy())
            return -np.sum((x - target) ** 2, axis=1)

        res = cem_optimize(objective, cfg, (lower + upper) / 2.0, lower,
                           upper, np.random.default_rng(
                               data.draw(st.integers(0, 2 ** 16))))
        for x in seen:
            assert np.all(x >= lower) and np.all(x <= upper)
        assert len(res.trace) == cfg.iterations
        for row in res.trace:
            assert row.var_norm <= np.linalg.norm(var_cap)

    @pytest.mark.parametrize("return_mean_elites", [True, False])
    def test_evaluate_mean_false_skips_only_the_final_mean(
            self, return_mean_elites):
        cfg = CEMConfig(population=30, elite_count=4, iterations=4,
                        initial_var=4.0,
                        return_mean_elites=return_mean_elites)
        runs = {}
        for evaluate_mean in (True, False):
            calls = []

            def objective(x):
                calls.append(x.copy())
                return quadratic(x)

            rng = np.random.default_rng(5)
            res = cem_optimize(objective, cfg, np.zeros(2), -10.0, 10.0, rng,
                               evaluate_mean=evaluate_mean)
            runs[evaluate_mean] = (res, calls, rng.bit_generator.state)
        with_mean, calls_with, state_with = runs[True]
        without, calls_without, state_without = runs[False]
        assert len(calls_without) == cfg.iterations
        for a, b in zip(calls_with, calls_without):
            assert np.array_equal(a, b)
        assert np.array_equal(with_mean.solution, without.solution)
        assert state_with == state_without
        assert [r.best_value for r in with_mean.trace] == \
            [r.best_value for r in without.trace]
        if return_mean_elites:
            assert len(calls_with) == cfg.iterations + 1
            assert np.array_equal(calls_with[-1], with_mean.solution[None])
            assert with_mean.value == quadratic(with_mean.solution[None])[0]
            assert without.value is None
        else:
            # the best sample's value needs no extra call either way
            assert len(calls_with) == cfg.iterations
            assert with_mean.value == without.value
            assert without.value == without.trace[-1].best_value

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            CEMConfig(population=10, elite_count=11).validate()
        with pytest.raises(ValidationError):
            cem_optimize(quadratic, CEMConfig(), np.zeros(1), 1.0, -1.0,
                         np.random.default_rng(0))


def perfect_linear_model_env(obs_dim=1, act_dim=1, reward_fn=None):
    """Deterministic model env predicting next_obs = obs + action (1-D)."""
    model = GaussianMLPEnsemble(obs_dim + act_dim, obs_dim, ensemble_size=1,
                                num_layers=1, deterministic=True,
                                rng=np.random.default_rng(0))
    # delta = action exactly
    model.members[0].weights[0][:] = 0.0
    model.members[0].weights[0][0, obs_dim] = 1.0
    model.members[0].biases[0][:] = 0.0
    wrapper = TransitionRewardWrapper(model, obs_dim, act_dim)
    if reward_fn is None:
        reward_fn = lambda act, next_obs: next_obs[:, 0]
    return ModelEnv(wrapper, no_termination, reward_fn)


class TestEvaluateActionSequences:
    def test_single_step_matches_reward(self):
        menv = perfect_linear_model_env()
        seqs = np.array([[[0.5]], [[-0.25]]])
        values = evaluate_action_sequences(menv, np.array([1.0]), seqs, 1,
                                           np.random.default_rng(0))
        assert np.allclose(values, [1.5, 0.75])

    def test_particle_count_irrelevant_for_deterministic(self):
        menv = perfect_linear_model_env()
        seqs = np.random.default_rng(0).standard_normal((4, 3, 1))
        v1 = evaluate_action_sequences(menv, np.array([0.0]), seqs, 1,
                                       np.random.default_rng(0))
        v100 = evaluate_action_sequences(menv, np.array([0.0]), seqs, 100,
                                         np.random.default_rng(1))
        assert np.allclose(v1, v100)

    def test_zero_reward_environment(self):
        menv = perfect_linear_model_env(
            reward_fn=lambda act, next_obs: np.zeros(len(next_obs)))
        seqs = np.random.default_rng(0).standard_normal((5, 2, 1))
        values = evaluate_action_sequences(menv, np.array([0.0]), seqs, 3,
                                           np.random.default_rng(0))
        assert np.all(values == 0.0)

    def test_nonfinite_particle_value_scores_minus_inf(self):
        # the reward turns NaN once the state passes 1: exactly the
        # candidates that get there score -inf, the others their return
        menv = perfect_linear_model_env(
            reward_fn=lambda act, next_obs: np.where(
                next_obs[:, 0] > 1.0, np.nan, next_obs[:, 0]))
        seqs = np.array([[[0.5], [0.25], [0.0]],    # 0.5, 0.75, 0.75
                         [[0.5], [0.75], [-1.0]],   # 1.25 at step 2
                         [[-0.5], [0.5], [0.75]],   # -0.5, 0, 0.75
                         [[1.0], [0.5], [-2.0]]])   # 1.5 at step 2
        values = evaluate_action_sequences(menv, np.zeros(1), seqs, 2,
                                           np.random.default_rng(0))
        np.testing.assert_array_equal(values, [2.0, -np.inf, 0.25, -np.inf])

    def test_matches_exhaustive_unroll(self):
        # h <= 3, N <= 4, deterministic model: compare to hand unrolling
        menv = perfect_linear_model_env()
        rng = np.random.default_rng(5)
        seqs = rng.standard_normal((4, 3, 1))
        values = evaluate_action_sequences(menv, np.array([2.0]), seqs, 1,
                                           np.random.default_rng(0))
        for i in range(4):
            obs = 2.0
            total = 0.0
            for t in range(3):
                obs = obs + seqs[i, t, 0]
                total += obs
            assert values[i] == pytest.approx(total, abs=1e-12)


def full_row_evaluate(model_env, initial_obs, sequences, particles, rng,
                      sample=True, trace=None):
    """Reference evaluator: every particle, finished or not, is stepped at
    every step. trace, when given, receives each step's (member
    assignment, done mask) from before the step."""
    sequences = np.asarray(sequences, dtype=np.float64)
    n, horizon, _ = sequences.shape
    obs_tiled = np.repeat(np.ravel(initial_obs)[None], n * particles, axis=0)
    state = model_env.reset(obs_tiled, rng)
    total = np.zeros(n * particles)
    actions = np.repeat(sequences, particles, axis=0)
    for t in range(horizon):
        if trace is not None:
            trace.append((state.member_assignment, state.done))
        _, rewards, _, state = model_env.step(state, actions[:, t], rng,
                                              sample=sample)
        total += rewards
    values = total.reshape(n, particles)
    out = values.mean(axis=1)
    out[~np.all(np.isfinite(values), axis=1)] = -np.inf
    return out


def continuous_reward(actions, next_obs):
    return -np.sum(next_obs ** 2, axis=1) - 0.01 * actions[:, 0] ** 2


@st.composite
def rollout_cases(draw, noisy=False):
    """A small cartpole-shaped ensemble (an elite subset of E members), a
    propagation method and a batch of N candidates x P particles x h steps.
    Noise-free unless noisy: deterministic models with sample on or off,
    probabilistic ones with sample off."""
    e = draw(st.integers(min_value=1, max_value=5))
    if noisy:
        deterministic, sample = False, True
    else:
        deterministic = draw(st.booleans())
        sample = draw(st.booleans()) if deterministic else False
    return {
        "ensemble_size": e,
        "elites": draw(st.lists(st.integers(min_value=0, max_value=e - 1),
                                min_size=1, max_size=e, unique=True)),
        "deterministic": deterministic,
        "sample": sample,
        "propagation": draw(st.sampled_from(
            TransitionRewardWrapper.PROPAGATION_METHODS)),
        "activation": draw(st.sampled_from(["relu", "silu"])),
        "reward": draw(st.sampled_from(["cartpole", "continuous"])),
        "particles": draw(st.integers(min_value=1, max_value=7)),
        "n": draw(st.integers(min_value=1, max_value=9)),
        "horizon": draw(st.integers(min_value=1, max_value=6)),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
    }


def cartpole_model_rollout(case):
    """(model env, initial obs, sequences) for a rollout case; the cartpole
    termination ends particles at different steps."""
    rng = np.random.default_rng(case["seed"])
    model = GaussianMLPEnsemble(5, 4, ensemble_size=case["ensemble_size"],
                                num_layers=3, hid_size=8,
                                activation=case["activation"],
                                deterministic=case["deterministic"], rng=rng)
    model.set_elite(case["elites"])
    for member in model.members:
        # steps large enough to end some particles
        member.weights[-1][...] *= 3.0
    wrapper = TransitionRewardWrapper(model, 4, 1,
                                      propagation=case["propagation"])
    wrapper.normalizer.fit(rng.standard_normal((30, 5)))
    reward_fn = (cartpole_reward if case["reward"] == "cartpole"
                 else continuous_reward)
    menv = ModelEnv(wrapper, cartpole_termination, reward_fn)
    obs0 = rng.uniform(-0.2, 0.2, 4)
    seqs = rng.uniform(-1.0, 1.0, (case["n"], case["horizon"], 1))
    return menv, obs0, seqs


def count_sample_rows(wrapper):
    """Rows handed to each wrapper.sample call, recorded into the list
    returned."""
    rows = []
    original = wrapper.sample

    def counting(obs, *args, **kwargs):
        rows.append(len(obs))
        return original(obs, *args, **kwargs)

    wrapper.sample = counting
    return rows


# a fixed_model rollout in which some particles end before the horizon
ENDING_ROLLOUT = {"ensemble_size": 5, "elites": [4, 0, 2, 3],
                  "deterministic": True, "sample": False,
                  "propagation": "fixed_model", "activation": "relu",
                  "reward": "cartpole", "particles": 5, "n": 9, "horizon": 6,
                  "seed": 11}


class TestDistinctParticleRollouts:
    """Noise-free rollouts step each distinct particle once, the same rows
    at every step until every row is done (a finished row stays in the
    batch, frozen), and score like the full-row reference."""

    @given(rollout_cases())
    @settings(max_examples=120)
    def test_noise_free_matches_full_rows(self, case):
        menv, obs0, seqs = cartpole_model_rollout(case)
        p, sample = case["particles"], case["sample"]
        trace = []
        ref_rng = np.random.default_rng(7)
        expected = full_row_evaluate(menv, obs0, seqs, p, ref_rng, sample,
                                     trace)
        rows = count_sample_rows(menv.wrapper)
        rng = np.random.default_rng(7)
        got = evaluate_action_sequences(menv, obs0, seqs, p, rng, sample)
        if case["reward"] == "cartpole":
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # one row per distinct (candidate, member) key, or per candidate
        # under ensemble_mean, at every step until every particle is done
        candidate = np.repeat(np.arange(case["n"]), p)
        assignment, _ = trace[0]
        key = candidate
        if assignment is not None:
            key = candidate * case["ensemble_size"] + assignment
        steps = next((t for t, (_, done) in enumerate(trace) if done.all()),
                     len(trace))
        assert rows == [np.unique(key).size] * steps

    @given(rollout_cases(noisy=True))
    @settings(max_examples=40)
    def test_noisy_matches_full_rows_bit_for_bit(self, case):
        menv, obs0, seqs = cartpole_model_rollout(case)
        p = case["particles"]
        ref_rng = np.random.default_rng(7)
        expected = full_row_evaluate(menv, obs0, seqs, p, ref_rng, True)
        rows = count_sample_rows(menv.wrapper)
        rng = np.random.default_rng(7)
        got = evaluate_action_sequences(menv, obs0, seqs, p, rng, True)
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rows == [case["n"] * p] * case["horizon"]

    def test_noise_free_rows_need_no_gather(self, monkeypatch):
        # the distinct rows are member-major, so every step's rows are
        # already grouped by member, also once some of them have finished:
        # each particle's slot comes after the one before it, so grouping
        # them takes no argsort and no reordering gather
        unpads = []
        real = GaussianMLPEnsemble.grouped_forward

        def spy(model, x, groups, stack=None):
            unpads.append(groups.unpad)
            return real(model, x, groups, stack)

        monkeypatch.setattr(GaussianMLPEnsemble, "grouped_forward", spy)
        menv, obs0, seqs = cartpole_model_rollout(ENDING_ROLLOUT)
        rows = count_sample_rows(menv.wrapper)
        finished = []
        real_step = menv.step

        def step(state, *args, **kwargs):
            finished.append(state.done.mean())
            return real_step(state, *args, **kwargs)

        menv.step = step
        evaluate_action_sequences(menv, obs0, seqs, 5,
                                  np.random.default_rng(7), sample=False)
        assert 0.0 < max(finished) < 1.0  # some rows finished, not all
        assert len(set(rows)) == 1  # and stayed in the batch
        assert unpads and all(np.all(np.diff(u) > 0) for u in unpads)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_noise_free_rollout_groups_once(self, monkeypatch, dtype):
        grouped = []
        real = MemberGroups.from_assignment.__func__

        def spy(cls, assignment, members):
            grouped.append(len(assignment))
            return real(cls, assignment, members)

        monkeypatch.setattr(MemberGroups, "from_assignment",
                            classmethod(spy))
        menv, obs0, seqs = cartpole_model_rollout(ENDING_ROLLOUT)
        menv = ModelEnv(menv.wrapper, menv.termination_fn, menv.reward_fn,
                        dtype=dtype)
        rows = count_sample_rows(menv.wrapper)
        evaluate_action_sequences(menv, obs0, seqs, 5,
                                  np.random.default_rng(7), sample=False)
        assert len(rows) > 1
        # the distinct rows, grouped by the rollout's first step only
        assert grouped == rows[:1]

    @pytest.mark.parametrize("propagation",
                             TransitionRewardWrapper.PROPAGATION_METHODS)
    def test_rollout_ends_when_every_row_is_done(self, propagation):
        case = {"ensemble_size": 3, "elites": [0, 2], "deterministic": True,
                "sample": False, "propagation": propagation,
                "activation": "relu", "reward": "continuous", "particles": 4,
                "n": 6, "horizon": 5, "seed": 3}
        menv, obs0, seqs = cartpole_model_rollout(case)
        menv.termination_fn = lambda actions, next_obs: np.ones(
            len(next_obs), dtype=bool)
        expected = full_row_evaluate(menv, obs0, seqs, 4,
                                     np.random.default_rng(7), False)
        rows = count_sample_rows(menv.wrapper)
        got = evaluate_action_sequences(menv, obs0, seqs, 4,
                                        np.random.default_rng(7),
                                        sample=False)
        assert len(rows) == 1
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_pets_run_artifacts_match_full_rows(self, tmp_path, monkeypatch):
        def run(out):
            cfg = PETSConfig(
                num_trials=3, trial_length=60, initial_exploration_steps=60,
                hid_size=16, use_silu=False, num_epochs=5, horizon=8,
                particles=5,
                cem=CEMConfig(population=40, elite_count=5, iterations=3),
                seed=3)
            pets_run(cfg, out_dir=out)
            return [(out / name).read_bytes()
                    for name in ("results.csv", "buffer.dat")]

        distinct = run(tmp_path / "distinct")
        monkeypatch.setattr(planning, "evaluate_action_sequences",
                            full_row_evaluate)
        assert run(tmp_path / "full") == distinct


class TestRandomAgent:
    def test_degenerate_box(self):
        agent = RandomAgent(2, 0.0, 0.0)
        assert np.all(agent.act(None, np.random.default_rng(0)) == 0.0)

    def test_uniform_mean(self):
        agent = RandomAgent(1, -1.0, 1.0)
        rng = np.random.default_rng(0)
        draws = np.array([agent.act(None, rng)[0] for _ in range(100000)])
        assert abs(draws.mean()) < 0.02
        assert draws.min() >= -1.0 and draws.max() <= 1.0

    def test_reproducible(self):
        agent = RandomAgent(3, -2.0, 2.0)
        a = [agent.act(None, np.random.default_rng(7)) for _ in range(1)]
        b = [agent.act(None, np.random.default_rng(7)) for _ in range(1)]
        assert np.array_equal(a, b)

    def test_default_plan_is_length_one(self):
        agent = RandomAgent(2, -1.0, 1.0)
        plan = agent.plan(None, np.random.default_rng(0))
        assert plan.shape == (1, 2)


def make_mpc(horizon=5, cem=None, particles=1):
    menv = perfect_linear_model_env()
    return create_mpc_agent(menv, horizon, 1, -1.0, 1.0, particles=particles,
                            cem_config=cem or CEMConfig(
                                population=50, elite_count=5, iterations=3,
                                initial_var=0.25))


class TestMPCAgent:
    def test_action_within_bounds(self):
        agent = make_mpc()
        action = agent.act(np.array([0.3]), np.random.default_rng(0))
        assert -1.0 <= action[0] <= 1.0

    def test_deterministic_given_seed(self):
        a1 = make_mpc().act(np.array([0.5]), np.random.default_rng(4))
        a2 = make_mpc().act(np.array([0.5]), np.random.default_rng(4))
        assert np.array_equal(a1, a2)

    def test_plan_shape(self):
        agent = make_mpc(horizon=30)
        plan = agent.plan(np.array([0.0]), np.random.default_rng(0))
        assert plan.shape == (30, 1)

    def test_plan_first_element_equals_act(self):
        plan = make_mpc().plan(np.array([0.2]), np.random.default_rng(9))
        action = make_mpc().act(np.array([0.2]), np.random.default_rng(9))
        assert np.array_equal(plan[0], action)

    def test_maximizes_linear_reward(self):
        # reward = next_obs, delta = action: optimum pushes actions to +1
        agent = make_mpc(horizon=4, cem=CEMConfig(
            population=200, elite_count=20, iterations=8, initial_var=0.25,
            alpha=0.0))
        action = agent.act(np.array([0.0]), np.random.default_rng(0))
        assert action[0] > 0.8

    @pytest.mark.parametrize("evaluate_mean", [True, False])
    def test_evaluate_mean_sets_evaluations_per_decision(self, evaluate_mean):
        cfg = CEMConfig(population=20, elite_count=2, iterations=3)
        calls = []

        def eval_fn(obs, seqs, rng):
            calls.append(len(seqs))
            return -np.abs(seqs).sum(axis=(1, 2))

        agent = TrajectoryOptimizerAgent(eval_fn, 4, 1, -1.0, 1.0, cfg,
                                         evaluate_mean=evaluate_mean)
        agent.act(np.zeros(1), np.random.default_rng(0))
        assert calls == [20] * 3 + ([1] if evaluate_mean else [])

    def test_warm_start_shift(self):
        agent = make_mpc(horizon=3)
        rng = np.random.default_rng(0)
        agent.act(np.array([0.0]), rng)
        prev = agent._prev_solution.copy()
        init = agent._initial_mean()
        assert np.array_equal(init[:-1], prev[1:])
        assert np.all(init[-1] == 0.0)

    def test_warm_start_pads_with_box_centre(self):
        agent = TrajectoryOptimizerAgent(
            lambda obs, seqs, rng: -np.abs(seqs - 0.5).sum(axis=(1, 2)),
            3, 1, 0.0, 2.0,
            CEMConfig(population=20, elite_count=2, iterations=1))
        assert np.all(agent._initial_mean() == 1.0)
        agent.act(np.zeros(1), np.random.default_rng(0))
        init = agent._initial_mean()
        assert np.array_equal(init[:-1], agent._prev_solution[1:])
        assert np.all(init[-1] == 1.0)

    def test_double_integrator_near_lqr(self):
        # 1-D double integrator with quadratic cost; compare to the LQR
        # closed-form cost from the same initial state.
        dt = 0.1
        a_mat = np.array([[1.0, dt], [0.0, 1.0]])
        b_mat = np.array([[0.0], [dt]])
        q = np.eye(2)
        r = np.array([[0.1]])

        # discrete Riccati fixed point by iteration
        p = np.eye(2)
        for _ in range(2000):
            btpb = r + b_mat.T @ p @ b_mat
            k = np.linalg.solve(btpb, b_mat.T @ p @ a_mat)
            p = q + a_mat.T @ p @ (a_mat - b_mat @ k)
        x0 = np.array([1.0, 0.0])
        # LQR cost over 20 steps
        x = x0.copy()
        lqr_cost = 0.0
        for _ in range(20):
            u = -k @ x
            lqr_cost += x @ q @ x + u @ r @ u
            x = a_mat @ x + b_mat @ u.ravel()

        def eval_fn(obs, seqs, rng):
            n = seqs.shape[0]
            states = np.repeat(obs[None], n, axis=0)
            total = np.zeros(n)
            for t in range(seqs.shape[1]):
                u = seqs[:, t, 0]
                cost = np.einsum("bi,ij,bj->b", states, q, states) + 0.1 * u ** 2
                total -= cost
                states = states @ a_mat.T + seqs[:, t] @ b_mat.T
            return total

        agent = TrajectoryOptimizerAgent(
            eval_fn, 20, 1, -5.0, 5.0,
            CEMConfig(population=400, elite_count=40, iterations=8,
                      initial_var=1.0, alpha=0.0))
        rng = np.random.default_rng(0)
        x = x0.copy()
        mpc_cost = 0.0
        for _ in range(20):
            u = agent.act(x, rng)
            mpc_cost += x @ q @ x + float(u @ r @ u)
            x = a_mat @ x + b_mat @ u
        assert mpc_cost <= 1.1 * lqr_cost

    def test_base_agent_act_abstract(self):
        with pytest.raises(NotImplementedError):
            Agent().act(np.zeros(1), np.random.default_rng(0))
