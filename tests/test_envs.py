import math

import numpy as np
import pytest

from mbrlkit.envs import (ENV_CLASSES, CartPoleContinuousEnv, PendulumEnv,
                          angle_wrap, cartpole_reward, cartpole_termination,
                          make_env, no_termination, pendulum_reward)


class TestCartPole:
    def test_reset_near_zero(self):
        env = CartPoleContinuousEnv()
        obs = env.reset(np.random.default_rng(0))
        assert obs.shape == (4,)
        assert np.all(np.abs(obs) <= 0.05)

    def test_upright_equilibrium_hand_trace(self):
        # exactly upright with no force: explicit Euler keeps the state at 0
        env = CartPoleContinuousEnv()
        env.state = np.zeros(4)
        for _ in range(50):
            obs, reward, done = env.step(np.array([0.0]))
            assert reward == 1.0 and not done
        assert np.all(np.abs(env.state) < 1e-12)

    def test_single_step_hand_computation(self):
        env = CartPoleContinuousEnv()
        env.state = np.array([0.0, 0.0, 0.1, 0.0])
        obs, reward, done = env.step(np.array([0.5]))
        # recompute the Euler update by hand
        force = 0.5 * env.FORCE_SCALE
        theta = 0.1
        sin, cos = math.sin(theta), math.cos(theta)
        total_mass = env.MASS_CART + env.MASS_POLE
        pole_ml = env.MASS_POLE * env.HALF_LENGTH
        temp = force / total_mass  # theta_dot = 0
        theta_acc = (env.GRAVITY * sin - cos * temp) / (
            env.HALF_LENGTH * (4.0 / 3.0 - env.MASS_POLE * cos ** 2 / total_mass))
        x_acc = temp - pole_ml * theta_acc * cos / total_mass
        expected = np.array([0.0, env.DT * x_acc, 0.1, env.DT * theta_acc])
        assert np.allclose(obs, expected, atol=1e-12)
        assert reward == 1.0 and not done

    def test_angle_limit_terminates(self):
        env = CartPoleContinuousEnv()
        env.state = np.array([0.0, 0.0, math.radians(13.0), 0.0])
        _, reward, done = env.step(np.array([0.0]))
        assert done and reward == 0.0

    def test_position_limit_terminates(self):
        env = CartPoleContinuousEnv()
        env.state = np.array([2.5, 0.0, 0.0, 0.0])
        _, _, done = env.step(np.array([0.0]))
        assert done

    def test_mirror_symmetry(self):
        env = CartPoleContinuousEnv()
        env.state = np.array([0.1, -0.2, 0.05, 0.3])
        obs_pos, _, _ = env.step(np.array([0.7]))
        env.state = -np.array([0.1, -0.2, 0.05, 0.3])
        obs_neg, _, _ = env.step(np.array([-0.7]))
        assert np.allclose(obs_pos, -obs_neg, atol=1e-15)

    def test_action_clipped(self):
        env = CartPoleContinuousEnv()
        env.state = np.zeros(4)
        obs_big, _, _ = env.step(np.array([5.0]))
        env.state = np.zeros(4)
        obs_one, _, _ = env.step(np.array([1.0]))
        assert np.array_equal(obs_big, obs_one)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        states = rng.uniform(-0.1, 0.1, size=(16, 4))
        actions = rng.uniform(-1.0, 1.0, size=(16, 1))
        next_batch, rew_batch, done_batch = CartPoleContinuousEnv.step_batch(
            states, actions)
        env = CartPoleContinuousEnv()
        for i in range(16):
            env.state = states[i].copy()
            obs, reward, done = env.step(actions[i])
            assert np.array_equal(obs, next_batch[i])
            assert reward == rew_batch[i] and done == done_batch[i]

    def test_step_batch_pure(self):
        states = np.zeros((3, 4)) + 0.01
        actions = np.zeros((3, 1))
        s_copy, a_copy = states.copy(), actions.copy()
        CartPoleContinuousEnv.step_batch(states, actions)
        assert np.array_equal(states, s_copy)
        assert np.array_equal(actions, a_copy)

    def test_reset_deterministic(self):
        a = CartPoleContinuousEnv().reset(np.random.default_rng(9))
        b = CartPoleContinuousEnv().reset(np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestPendulum:
    def test_upright_equilibrium(self):
        env = PendulumEnv()
        env.state = np.zeros(2)
        obs, reward, done = env.step(np.array([0.0]))
        assert np.all(obs == 0.0)
        assert reward == 0.0 and not done

    def test_hanging_reward(self):
        env = PendulumEnv()
        env.state = np.array([math.pi, 0.0])
        _, reward, _ = env.step(np.array([0.0]))
        assert reward == pytest.approx(-math.pi ** 2)

    def test_never_terminates(self):
        env = PendulumEnv()
        env.reset(np.random.default_rng(0))
        for _ in range(300):
            _, _, done = env.step(np.array([2.0]))
            assert not done

    def test_single_step_hand_computation(self):
        env = PendulumEnv()
        env.state = np.array([0.5, -1.0])
        obs, reward, _ = env.step(np.array([1.5]))
        g, m, length, dt = env.GRAVITY, env.MASS, env.LENGTH, env.DT
        theta_acc = 3 * g / (2 * length) * math.sin(0.5) + 3.0 / (
            m * length ** 2) * 1.5
        theta_dot = np.clip(-1.0 + dt * theta_acc, -env.MAX_SPEED, env.MAX_SPEED)
        theta = angle_wrap(0.5 + dt * -1.0)  # position advances with old velocity
        assert np.allclose(obs, [theta, theta_dot], atol=1e-12)
        # cost is evaluated on the state after the step
        assert reward == pytest.approx(
            -(theta ** 2 + 0.1 * theta_dot ** 2 + 0.001 * 1.5 ** 2))

    def test_torque_clipped(self):
        env = PendulumEnv()
        env.state = np.array([0.3, 0.0])
        obs_big, _, _ = env.step(np.array([50.0]))
        env.state = np.array([0.3, 0.0])
        obs_max, _, _ = env.step(np.array([env.MAX_TORQUE]))
        assert np.array_equal(obs_big, obs_max)

    def test_speed_clipped(self):
        env = PendulumEnv()
        env.state = np.array([math.pi / 2, env.MAX_SPEED])
        obs, _, _ = env.step(np.array([env.MAX_TORQUE]))
        assert obs[1] == env.MAX_SPEED

    def test_angle_wrapping(self):
        assert angle_wrap(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert angle_wrap(-math.pi - 0.1) == pytest.approx(math.pi - 0.1)
        assert angle_wrap(math.pi) == pytest.approx(math.pi)
        assert angle_wrap(0.0) == 0.0
        assert angle_wrap(2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        states = np.column_stack([rng.uniform(-math.pi, math.pi, 16),
                                  rng.uniform(-8, 8, 16)])
        actions = rng.uniform(-2, 2, size=(16, 1))
        next_batch, rew_batch, done_batch = PendulumEnv.step_batch(states, actions)
        env = PendulumEnv()
        for i in range(16):
            env.state = states[i].copy()
            obs, reward, done = env.step(actions[i])
            assert np.array_equal(obs, next_batch[i])
            assert reward == rew_batch[i]
        assert not done_batch.any()


class TestRewardAndTerminationFns:
    def test_cartpole_termination_matches_env(self):
        obs = np.array([[0.0, 0.0, 0.0, 0.0],
                        [2.5, 0.0, 0.0, 0.0],
                        [0.0, 0.0, math.radians(13), 0.0]])
        done = cartpole_termination(np.zeros((3, 1)), obs)
        assert done.tolist() == [False, True, True]

    def test_no_termination(self):
        assert not no_termination(np.zeros((5, 1)), np.ones((5, 4))).any()

    def test_cartpole_reward_zero_when_done(self):
        obs = np.array([[0.0] * 4, [3.0, 0.0, 0.0, 0.0]])
        reward = cartpole_reward(np.zeros((2, 1)), obs)
        assert reward.tolist() == [1.0, 0.0]

    def test_pendulum_reward_formula(self):
        obs = np.array([[0.5, -1.0]])
        act = np.array([[1.5]])
        assert pendulum_reward(act, obs)[0] == pytest.approx(
            -(0.25 + 0.1 + 0.001 * 2.25))


class TestRegistry:
    def test_make_env(self):
        env, term_fn, reward_fn = make_env("cartpole_continuous")
        assert isinstance(env, CartPoleContinuousEnv)
        assert term_fn is cartpole_termination
        assert reward_fn is cartpole_reward
        env, term_fn, reward_fn = make_env("pendulum")
        assert isinstance(env, PendulumEnv)
        assert term_fn is no_termination
        assert reward_fn is pendulum_reward

    def test_make_env_unknown(self):
        with pytest.raises(KeyError) as exc:
            make_env("mountain_car")
        for name in ENV_CLASSES:
            assert name in str(exc.value)

    def test_spec_dimensions(self):
        env, _, _ = make_env("cartpole_continuous")
        assert env.spec.obs_dim == 4 and env.spec.act_dim == 1
        assert env.spec.action_low == -1.0 and env.spec.action_high == 1.0
        env, _, _ = make_env("pendulum")
        assert env.spec.obs_dim == 2 and env.spec.act_dim == 1
        assert env.spec.action_low == -2.0 and env.spec.action_high == 2.0
