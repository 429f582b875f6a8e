import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- independent (B, D) references of the environments' formulas -----------
# Written out here in row layout (strided columns, np.clip, np.stack), with
# their own constants, so the column step is checked against the equations
# themselves and not against another path through the same code.

CARTPOLE_THETA_LIMIT = 12.0 * math.pi / 180.0


def reference_angle_wrap(theta):
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


def reference_cartpole_termination(next_obs):
    return ((np.abs(next_obs[:, 0]) > 2.4)
            | (np.abs(next_obs[:, 2]) > CARTPOLE_THETA_LIMIT))


def reference_cartpole_step(states, actions):
    x, x_dot, theta, theta_dot = states.T
    force = 10.0 * np.clip(actions[:, 0], -1.0, 1.0)
    total_mass = 1.0 + 0.1
    polemass_length = 0.1 * 0.5
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    temp = (force + polemass_length * theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (9.8 * sin_t - cos_t * temp) / (
        0.5 * (4.0 / 3.0 - 0.1 * cos_t ** 2 / total_mass))
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    next_states = np.stack([x + 0.02 * x_dot, x_dot + 0.02 * x_acc,
                            theta + 0.02 * theta_dot,
                            theta_dot + 0.02 * theta_acc], axis=1)
    done = reference_cartpole_termination(next_states)
    return next_states, np.where(done, 0.0, 1.0), done


def reference_pendulum_reward(actions, next_obs):
    theta = reference_angle_wrap(next_obs[:, 0])
    torque = np.clip(actions[:, 0], -2.0, 2.0)
    return -(theta ** 2 + 0.1 * next_obs[:, 1] ** 2 + 0.001 * torque ** 2)


def reference_pendulum_step(states, actions):
    theta, theta_dot = states.T
    torque = np.clip(actions[:, 0], -2.0, 2.0)
    acc = (3.0 * 10.0 / (2.0 * 1.0) * np.sin(theta)
           + 3.0 / (1.0 * 1.0 ** 2) * torque)
    next_states = np.stack([
        reference_angle_wrap(theta + 0.05 * theta_dot),
        np.clip(theta_dot + 0.05 * acc, -8.0, 8.0)], axis=1)
    return (next_states, reference_pendulum_reward(actions, next_states),
            np.zeros(len(next_states), dtype=bool))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.float64:
        got, want = got.view(np.uint64), want.view(np.uint64)
    np.testing.assert_array_equal(got, want)


def near(values, spread):
    """Values on, one ulp either side of, and within spread of each value."""
    values = [float(v) for v in values]
    edges = [np.nextafter(v, side) for v in values for side in (-np.inf,
                                                                np.inf)]
    return st.one_of(st.sampled_from(values + edges),
                     st.sampled_from(values).flatmap(
                         lambda v: st.floats(v - spread, v + spread)))


# every magnitude a float64 state can take
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
SMALL = st.floats(-1.0, 1.0)
ACTION = st.one_of(st.floats(-3.0, 3.0), ANY_FLOAT,
                   st.sampled_from([-2.0, -1.0, 1.0, 2.0]))


@st.composite
def cartpole_batches(draw):
    """(B, 4) states and (B, 1) actions; some rows step across +/-2.4 or
    +/-12 degrees (a row with zero velocity lands exactly where it is)."""
    b = draw(st.integers(1, 12))
    position = st.one_of(SMALL, ANY_FLOAT, near([-2.4, 2.4], 0.05))
    angle = st.one_of(SMALL, ANY_FLOAT,
                      near([-CARTPOLE_THETA_LIMIT, CARTPOLE_THETA_LIMIT],
                           0.02))
    velocity = st.one_of(st.just(0.0), SMALL, st.floats(-5.0, 5.0), ANY_FLOAT)
    states = [[draw(position), draw(velocity), draw(angle), draw(velocity)]
              for _ in range(b)]
    actions = [[draw(ACTION)] for _ in range(b)]
    return np.array(states, dtype=np.float64), np.array(actions)


@st.composite
def pendulum_batches(draw):
    """(B, 2) states and (B, 1) actions; some angles sit near +/-pi and
    some speeds near the +/-8 clip."""
    b = draw(st.integers(1, 12))
    angle = st.one_of(st.floats(-4.0, 4.0), ANY_FLOAT,
                      near([-math.pi, math.pi], 0.2))
    speed = st.one_of(st.floats(-9.0, 9.0), ANY_FLOAT, near([-8.0, 8.0], 1.0))
    states = [[draw(angle), draw(speed)] for _ in range(b)]
    actions = [[draw(ACTION)] for _ in range(b)]
    return np.array(states, dtype=np.float64), np.array(actions)


class TestStepColumns:
    """`step_columns` is each environment's one set of equations."""

    CASES = [(CartPoleContinuousEnv, reference_cartpole_step),
             (PendulumEnv, reference_pendulum_step)]

    def check(self, env_cls, reference, states, actions):
        want = reference(states, actions)
        # strided views of rows, contiguous columns, and into `out`
        out = np.empty(states.shape[::-1])
        for columns, acts, into in (
                (states.T, actions.T, None),
                (np.ascontiguousarray(states.T),
                 np.ascontiguousarray(actions.T), None),
                (states.T, actions.T, out)):
            next_cols, reward, done = env_cls.step_columns(columns, acts,
                                                           out=into)
            if into is not None:
                assert next_cols is into
            assert_same_bits(next_cols.T, want[0])
            assert_same_bits(reward, want[1])
            assert_same_bits(done, want[2])
        next_rows, reward, done = env_cls.step_batch(states, actions)
        assert next_rows.flags.c_contiguous
        assert_same_bits(next_rows, want[0])
        assert_same_bits(reward, want[1])
        assert_same_bits(done, want[2])

    @given(cartpole_batches())
    @settings(max_examples=300)
    def test_cartpole_matches_row_formulas(self, batch):
        states, actions = batch
        with np.errstate(all="ignore"):
            self.check(CartPoleContinuousEnv, reference_cartpole_step,
                       states, actions)
            assert_same_bits(cartpole_termination(actions, states),
                             reference_cartpole_termination(states))

    @given(pendulum_batches())
    @settings(max_examples=300)
    def test_pendulum_matches_row_formulas(self, batch):
        states, actions = batch
        with np.errstate(all="ignore"):
            self.check(PendulumEnv, reference_pendulum_step, states, actions)
            assert_same_bits(pendulum_reward(actions, states),
                             reference_pendulum_reward(actions, states))

    def test_limits_are_crossed_both_ways(self):
        # rows at rest land exactly on, or one ulp past, each limit
        limits = [(0, 2.4), (0, -2.4), (2, CARTPOLE_THETA_LIMIT),
                  (2, -CARTPOLE_THETA_LIMIT)]
        states = []
        for dim, limit in limits:
            for value in (limit, np.nextafter(limit, -limit),
                          np.nextafter(limit, 2 * limit)):
                row = np.zeros(4)
                row[dim] = value
                states.append(row)
        states = np.array(states)
        actions = np.zeros((len(states), 1))
        want = reference_cartpole_step(states, actions)
        assert want[2].tolist() == [False, False, True] * 4
        next_cols, reward, done = CartPoleContinuousEnv.step_columns(
            states.T, actions.T)
        assert_same_bits(next_cols.T, want[0])
        assert_same_bits(reward, want[1])
        assert_same_bits(done, want[2])

    def test_pendulum_wraps_at_pi_and_clips_speed(self):
        states = np.array([[math.pi, 0.0], [-math.pi, 0.0],
                           [math.pi - 0.01, 1.0], [0.0, 8.0], [0.0, -8.0],
                           [1.0, 7.9]])
        actions = np.array([[0.0], [0.0], [0.0], [5.0], [-5.0], [2.0]])
        want = reference_pendulum_step(states, actions)
        next_cols, reward, _ = PendulumEnv.step_columns(states.T, actions.T)
        assert_same_bits(next_cols.T, want[0])
        assert_same_bits(reward, want[1])
        assert next_cols[0, 2] < 0.0  # crossed pi and wrapped
        assert next_cols[1].tolist()[3:] == [8.0, -8.0, 8.0]

    @pytest.mark.parametrize("env_cls", [CartPoleContinuousEnv, PendulumEnv])
    def test_step_batch_rows_are_c_contiguous_float64(self, env_cls):
        d = env_cls.spec.obs_dim
        for states in (np.zeros((7, d)), np.zeros((7, 2 * d))[:, ::2],
                       np.zeros((d, 7)).T, np.zeros((7, d), dtype=np.float32),
                       np.zeros(d)):
            next_rows, reward, done = env_cls.step_batch(
                states, np.zeros((len(np.atleast_2d(states)), 1)))
            assert next_rows.dtype == np.float64
            assert next_rows.flags.c_contiguous
            assert next_rows.shape == np.atleast_2d(states).shape
            assert reward.shape == done.shape == (next_rows.shape[0],)


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
