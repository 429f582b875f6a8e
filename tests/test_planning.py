import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrlkit.data import ValidationError
from mbrlkit.envs import no_termination
from mbrlkit.models import (GaussianMLPEnsemble, ModelEnv,
                            TransitionRewardWrapper)
from mbrlkit.planning import (Agent, CEMConfig, RandomAgent,
                              TrajectoryOptimizerAgent, cem_optimize,
                              create_mpc_agent, evaluate_action_sequences,
                              write_cem_trace)


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
    @settings(max_examples=30, deadline=None)
    def test_candidates_within_bounds(self, seed):
        lower, upper = -0.5, 2.0
        cfg = CEMConfig(population=40, elite_count=4, iterations=2,
                        initial_var=25.0)

        def objective(x):
            assert np.all(x >= lower) and np.all(x <= upper)
            return x.sum(axis=1)

        cem_optimize(objective, cfg, np.zeros(3), lower, upper,
                     np.random.default_rng(seed))

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            CEMConfig(population=10, elite_count=11).validate()
        with pytest.raises(ValidationError):
            cem_optimize(quadratic, CEMConfig(), np.zeros(1), 1.0, -1.0,
                         np.random.default_rng(0))

    def test_trace_export(self, tmp_path):
        cfg = CEMConfig(population=30, elite_count=3, iterations=2,
                        initial_var=1.0)
        res = cem_optimize(quadratic, cfg, np.zeros(1), -10.0, 10.0,
                           np.random.default_rng(0))
        path = tmp_path / "trace.csv"
        write_cem_trace(res.trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,best_value,mean_elite_value,mean_norm,var_norm"
        assert len(lines) == 3


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
