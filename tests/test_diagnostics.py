import csv

import numpy as np
import pytest

from mbrlkit import diagnostics, planning
from mbrlkit.data import ReplayBuffer, ValidationError
from mbrlkit.diagnostics import (EvaluationTable, dataset_evaluate,
                                 save_rollout_comparison, true_env_cem_control,
                                 visualize_rollout)
from mbrlkit.envs import (CartPoleContinuousEnv, PendulumEnv, cartpole_reward,
                          make_env, no_termination)
from mbrlkit.models import (GaussianMLPEnsemble, ModelEnv, ModelTrainer,
                            TransitionRewardWrapper)
from mbrlkit.planning import CEMConfig, RandomAgent, TrajectoryOptimizerAgent


def linear_wrapper(obs_dim=1, act_dim=1, deterministic=True):
    """Model predicting delta = action exactly (weights set by hand)."""
    model = GaussianMLPEnsemble(obs_dim + act_dim, obs_dim, ensemble_size=1,
                                num_layers=1, deterministic=deterministic,
                                rng=np.random.default_rng(0))
    model.members[0].weights[0][:] = 0.0
    model.members[0].weights[0][0, obs_dim] = 1.0
    model.members[0].biases[0][:] = 0.0
    return TransitionRewardWrapper(model, obs_dim, act_dim)


def linear_buffer(n=50, rng=None):
    rng = rng or np.random.default_rng(0)
    buf = ReplayBuffer(n)
    for _ in range(n):
        obs = rng.standard_normal(1)
        act = rng.standard_normal(1)
        buf.add(obs, act, obs + act, 0.0, False)
    return buf


class TestDatasetEvaluate:
    def test_perfect_model_zero_error(self):
        table = dataset_evaluate(linear_wrapper(), linear_buffer())
        assert np.all(table.mse < 1e-28)
        assert np.all(table.r2 > 1.0 - 1e-12)

    def test_summary_recomputable_from_pairs(self):
        rng = np.random.default_rng(3)
        wrapper = linear_wrapper()
        # corrupt the model slightly so errors are nonzero
        wrapper.model.members[0].biases[0][0] = 0.05
        table = dataset_evaluate(wrapper, linear_buffer(rng=rng))
        err = table.predicted - table.target
        assert np.allclose(table.mse, (err ** 2).mean(axis=0), rtol=0, atol=0)
        var = table.target.var(axis=0)
        assert np.allclose(table.r2, 1.0 - table.mse / var)

    def test_r2_high_after_training(self):
        rng = np.random.default_rng(0)
        model = GaussianMLPEnsemble(2, 1, ensemble_size=2, num_layers=2,
                                    hid_size=16, deterministic=True, rng=rng)
        wrapper = TransitionRewardWrapper(model, 1, 1)
        buf = linear_buffer(200, rng)
        wrapper.update_normalizer(buf.get_all())
        trainer = ModelTrainer(wrapper, lr=5e-3, elite_count=2)
        from mbrlkit.data import train_val_split
        train_iter, _ = train_val_split(buf, 0.0, 64, rng, ensemble_size=2)
        trainer.train(train_iter, None, num_epochs=200, patience=200)
        table = dataset_evaluate(wrapper, buf)
        assert np.all(table.r2 > 0.99)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            dataset_evaluate(linear_wrapper(), ReplayBuffer(4))

    def test_dim_mismatch_rejected(self):
        buf = ReplayBuffer(4)
        buf.add(np.zeros(3), np.zeros(1), np.zeros(3), 0.0, False)
        with pytest.raises(ValidationError):
            dataset_evaluate(linear_wrapper(), buf)

    def test_save_roundtrip(self, tmp_path):
        wrapper = linear_wrapper()
        wrapper.model.members[0].biases[0][0] = 0.1
        table = dataset_evaluate(wrapper, linear_buffer())
        table.save(tmp_path)
        with open(tmp_path / "dimension_0.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        predicted = np.array([float(r["predicted"]) for r in rows])
        target = np.array([float(r["target"]) for r in rows])
        assert np.array_equal(predicted, table.predicted[:, 0])
        assert np.array_equal(target, table.target[:, 0])
        # summary row reproduces the in-memory statistics exactly
        with open(tmp_path / "summary.csv", newline="") as f:
            summary = list(csv.DictReader(f))
        assert float(summary[0]["mse"]) == table.mse[0]
        assert float(summary[0]["r2"]) == table.r2[0]
        # and it is recomputable from the emitted pairs
        assert ((predicted - target) ** 2).mean() == pytest.approx(
            float(summary[0]["mse"]), rel=1e-15)


class FixedEnv:
    """True env with next_obs = obs + action, matching linear_wrapper."""

    def __init__(self):
        self.state = np.zeros(1)

    def reset(self, rng):
        self.state = np.array([0.5])
        return self.state.copy()

    def set_state(self, state):
        self.state = np.asarray(state, dtype=np.float64).copy()

    def step(self, action):
        self.state = self.state + action
        return self.state.copy(), 0.0, False


class TestVisualizeRollout:
    def make(self):
        wrapper = linear_wrapper()
        model_env = ModelEnv(wrapper, no_termination,
                             reward_fn=lambda a, o: np.zeros(len(o)))
        return model_env, FixedEnv(), RandomAgent(1, -1.0, 1.0)

    def test_shapes(self):
        model_env, env, _ = self.make()

        class PlanAgent(RandomAgent):
            def plan(self, obs, rng):
                return rng.uniform(-1, 1, size=(30, 1))

        actions, true_traj, model_trajs = visualize_rollout(
            model_env, env, PlanAgent(1, -1.0, 1.0), horizon=30,
            num_model_samples=3, rng=np.random.default_rng(0))
        assert actions.shape == (30, 1)
        assert true_traj.shape == (30, 1)
        assert model_trajs.shape == (3, 30, 1)

    def test_perfect_model_matches_true_env(self):
        model_env, env, _ = self.make()

        class PlanAgent(RandomAgent):
            def plan(self, obs, rng):
                return rng.uniform(-1, 1, size=(5, 1))

        _, true_traj, model_trajs = visualize_rollout(
            model_env, env, PlanAgent(1, -1.0, 1.0), horizon=5,
            num_model_samples=4, rng=np.random.default_rng(1))
        for m in range(4):
            assert np.allclose(model_trajs[m], true_traj, atol=1e-12)

    def test_deterministic_model_samples_identical(self):
        model_env, env, _ = self.make()

        class PlanAgent(RandomAgent):
            def plan(self, obs, rng):
                return rng.uniform(-1, 1, size=(6, 1))

        _, _, model_trajs = visualize_rollout(
            model_env, env, PlanAgent(1, -1.0, 1.0), horizon=6,
            num_model_samples=3, rng=np.random.default_rng(2))
        assert np.array_equal(model_trajs[0], model_trajs[1])
        assert np.array_equal(model_trajs[0], model_trajs[2])

    def test_short_plan_rejected(self):
        model_env, env, agent = self.make()  # RandomAgent plans 1 step
        with pytest.raises(ValidationError):
            visualize_rollout(model_env, env, agent, horizon=5,
                              num_model_samples=1,
                              rng=np.random.default_rng(0))

    def test_initial_obs_honored(self):
        model_env, env, _ = self.make()

        class ZeroPlan(RandomAgent):
            def plan(self, obs, rng):
                return np.zeros((3, 1))

        _, true_traj, model_trajs = visualize_rollout(
            model_env, env, ZeroPlan(1, -1.0, 1.0), horizon=3,
            num_model_samples=1, rng=np.random.default_rng(0),
            initial_obs=np.array([7.0]))
        assert np.allclose(true_traj, 7.0)
        assert np.allclose(model_trajs, 7.0, atol=1e-12)

    def test_save_comparison_csv(self, tmp_path):
        true_traj = np.arange(4, dtype=float).reshape(4, 1)
        model_trajs = np.stack([true_traj + 0.1, true_traj - 0.1])
        save_rollout_comparison(true_traj, model_trajs, tmp_path)
        with open(tmp_path / "rollout_dim_0.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["time", "true", "sample_0", "sample_1"]
        assert len(rows) == 5
        assert float(rows[1][1]) == 0.0
        assert float(rows[1][2]) == 0.1


class TestTrueEnvCEMControl:
    def test_zero_episodes(self):
        returns = true_env_cem_control(
            "cartpole_continuous",
            CEMConfig(population=10, elite_count=2, iterations=1), 5, 0)
        assert returns == []

    def test_deterministic(self):
        cfg = CEMConfig(population=30, elite_count=3, iterations=2,
                        initial_var=0.25)
        a = true_env_cem_control("cartpole_continuous", cfg, 5, 1, seed=3,
                                 trial_length=10)
        b = true_env_cem_control("cartpole_continuous", cfg, 5, 1, seed=3,
                                 trial_length=10)
        assert a == b

    def test_episode_ends_when_the_pole_falls(self, monkeypatch):
        # one candidate and one iteration: close to random actions, so the
        # pole falls well inside the trial, and the episode stops there
        steps = []
        real_step = CartPoleContinuousEnv.step

        def step(env, action):
            out = real_step(env, action)
            steps.append(out[1:])
            return out

        monkeypatch.setattr(CartPoleContinuousEnv, "step", step)
        cfg = CEMConfig(population=1, elite_count=1, iterations=1)
        returns = true_env_cem_control("cartpole_continuous", cfg, 1, 1,
                                       seed=0, trial_length=200)
        dones = [done for _, done in steps]
        assert len(steps) < 200
        assert dones[-1] and not any(dones[:-1])
        assert returns == [sum(reward for reward, _ in steps)]

    def test_cartpole_balances(self):
        # modest settings already keep the pole up for a short trial
        cfg = CEMConfig(population=100, elite_count=10, iterations=3,
                        initial_var=0.25)
        returns = true_env_cem_control("cartpole_continuous", cfg, 15, 1,
                                       seed=0, trial_length=50)
        assert returns[0] == 50.0


def row_loop_values(env_cls, initial_obs, sequences):
    """Each candidate's return on the true dynamics, one `step_batch` row
    per candidate; a candidate earns nothing after its first done."""
    n = sequences.shape[0]
    states = np.repeat(np.asarray(initial_obs)[None], n, axis=0)
    total = np.zeros(n)
    alive = np.ones(n, dtype=bool)
    for t in range(sequences.shape[1]):
        states, rewards, dones = env_cls.step_batch(states, sequences[:, t])
        total += np.where(alive, rewards, 0.0)
        alive &= ~dones
    return total


def reference_true_env_control(env_name, cem_config, horizon, episodes,
                               seed, trial_length):
    """True-env CEM control as a loop over (B, D) `step_batch` rows, one row
    per candidate, with CEM's final mean evaluated at every decision."""
    env, _, _ = make_env(env_name)
    spec = env.spec

    def eval_fn(initial_obs, sequences, rng):
        return row_loop_values(type(env), initial_obs, sequences)

    agent = TrajectoryOptimizerAgent(
        eval_fn, horizon, spec.act_dim, spec.action_low, spec.action_high,
        cem_config, evaluate_mean=True)
    rng = np.random.default_rng(seed)
    returns = []
    for _ in range(episodes):
        obs = env.reset(rng)
        agent.reset()
        total = 0.0
        for _ in range(trial_length):
            obs, reward, done = env.step(agent.act(obs, rng))
            total += reward
            if done:
                break
        returns.append(total)
    return returns


class TestTrueEnvCEMControlOracle:
    """`true_env_cem_control` (column-major steps, no final-mean rollout)
    scores, acts and returns exactly as the row-layout loop that also
    scores the final mean."""

    @pytest.mark.parametrize("env_name,env_cls,horizon,trial_length", [
        ("cartpole_continuous", CartPoleContinuousEnv, 15, 40),
        ("pendulum", PendulumEnv, 8, 25)])
    def test_same_values_actions_and_returns(self, monkeypatch, env_name,
                                             env_cls, horizon, trial_length):
        cfg = CEMConfig(population=40, elite_count=5, iterations=3,
                        initial_var=0.25)
        log = []  # (candidates, values) of every objective call, in order
        real_cem = planning.cem_optimize

        def recording_cem(objective, *args, **kwargs):
            def recorded(candidates):
                values = objective(candidates)
                log.append((candidates.copy(), np.array(values)))
                return values
            return real_cem(recorded, *args, **kwargs)

        real_step = env_cls.step

        def recording_step(env, action):
            log.append(np.array(action, dtype=np.float64))
            return real_step(env, action)

        monkeypatch.setattr(planning, "cem_optimize", recording_cem)
        monkeypatch.setattr(env_cls, "step", recording_step)
        got = true_env_cem_control(env_name, cfg, horizon, 2, seed=11,
                                   trial_length=trial_length)
        got_log, log[:] = list(log), []
        want = reference_true_env_control(env_name, cfg, horizon, 2, 11,
                                          trial_length)
        assert got == want
        # the reference also scores each decision's final mean, one row
        def final_mean(entry):
            return isinstance(entry, tuple) and len(entry[0]) == 1

        want_log = [entry for entry in log if not final_mean(entry)]
        final_means = len(log) - len(want_log)
        decisions = sum(not isinstance(entry, tuple) for entry in log)
        assert decisions > trial_length
        assert final_means == decisions
        assert len(got_log) == len(want_log) == decisions * (
            cfg.iterations + 1)
        for a, b in zip(got_log, want_log):
            if isinstance(b, tuple):
                assert a[0].tobytes() == b[0].tobytes()
                assert a[1].tobytes() == b[1].tobytes()
            else:
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("env_name,env_cls,starts", [
        ("cartpole_continuous", CartPoleContinuousEnv,
         # at rest; drifting over the track limit and pushed back; the pole
         # leaving +/-12 degrees and pushed back
         [[0.0, 0.0, 0.0, 0.0], [2.39, 0.5, 0.0, 0.0],
          [-2.39, -0.5, 0.0, 0.0], [0.0, 0.0, 0.2, 0.3],
          [0.0, 0.0, -0.2, -0.3]]),
        ("pendulum", PendulumEnv,
         [[0.0, 0.0], [np.pi, 0.0], [np.pi - 0.05, 2.0], [-np.pi, -7.9],
          [1.0, 8.0]])])
    def test_evaluator_matches_row_loop(self, monkeypatch, env_name, env_cls,
                                        starts):
        evaluators = []

        class Capture(TrajectoryOptimizerAgent):
            def __init__(self, trajectory_eval_fn, *args, **kwargs):
                evaluators.append(trajectory_eval_fn)
                super().__init__(trajectory_eval_fn, *args, **kwargs)

        monkeypatch.setattr(diagnostics, "TrajectoryOptimizerAgent", Capture)
        true_env_cem_control(env_name, CEMConfig(), 12, 0)
        (eval_fn,) = evaluators
        rng = np.random.default_rng(3)
        high = env_cls.spec.action_high
        rewarded_after_done = 0
        for start in starts:
            # actions inside and outside the box; constant pushes either way
            sequences = np.concatenate([
                rng.uniform(-1.5 * high, 1.5 * high, (30, 12, 1)),
                np.full((1, 12, 1), -high), np.full((1, 12, 1), high)])
            start = np.array(start)
            got = eval_fn(start, sequences, None)
            want = row_loop_values(env_cls, start, sequences)
            assert got.tobytes() == want.tobytes()
            states = np.repeat(start[None], len(sequences), axis=0)
            unmasked = np.zeros(len(sequences))
            for t in range(sequences.shape[1]):
                states, rewards, _ = env_cls.step_batch(states,
                                                        sequences[:, t])
                unmasked += rewards
            rewarded_after_done += int(np.sum(unmasked != want))
        if env_cls is CartPoleContinuousEnv:
            # some candidates come back inside the limits after their done
            assert rewarded_after_done > 0


class TestModelDistributionShift:
    def test_on_distribution_error_lower_than_off(self):
        # train on a narrow slice of state space, evaluate on and off it
        rng = np.random.default_rng(0)
        model = GaussianMLPEnsemble(2, 1, ensemble_size=2, num_layers=2,
                                    hid_size=16, deterministic=True, rng=rng)
        wrapper = TransitionRewardWrapper(model, 1, 1)

        def fill(buf, low, high, n=200):
            for _ in range(n):
                obs = rng.uniform(low, high, size=1)
                act = rng.uniform(-1, 1, size=1)
                buf.add(obs, act, np.sin(3 * obs) + act, 0.0, False)

        train_buf = ReplayBuffer(200)
        fill(train_buf, -1.0, 1.0)
        off_buf = ReplayBuffer(200)
        fill(off_buf, 3.0, 5.0)

        wrapper.update_normalizer(train_buf.get_all())
        from mbrlkit.data import train_val_split
        train_iter, _ = train_val_split(train_buf, 0.0, 64, rng,
                                        ensemble_size=2)
        trainer = ModelTrainer(wrapper, lr=5e-3, elite_count=2)
        trainer.train(train_iter, None, num_epochs=150, patience=150)

        on_mse = dataset_evaluate(wrapper, train_buf).mse.mean()
        off_mse = dataset_evaluate(wrapper, off_buf).mse.mean()
        assert on_mse < off_mse
