"""Desk-scale ground-truth environments and the reward/termination registry.

Both environments are value-semantic state machines with explicit-Euler
integration. Each holds one set of equations, `step_columns`, over a batch
laid out column-major: states (D, B), actions (A, B), one row per state
dimension and one column per batch element, so every formula reads a
contiguous row. `step_batch` is the same step in the (B, D) row layout, and
the environment's own `step` goes through `step_batch` with one row.
Reward and termination functions take (action batch, next observation
batch) rows and preserve batch shape; they share the per-dimension helpers
of `step_columns`, so planning against the true dynamics, or with a model
scored by these functions, uses exactly the environment's formulas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _step_rows(cls, states: np.ndarray, actions: np.ndarray):
    """`step_columns` on rows: (B, D), (B, A) -> (next (B, D), reward (B,),
    done (B,)), next C-contiguous float64."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    next_states = np.empty(states.shape)
    _, reward, done = cls.step_columns(states.T, actions.T, out=next_states.T)
    return next_states, reward, done


@dataclass(frozen=True)
class EnvSpec:
    name: str
    obs_dim: int
    act_dim: int
    action_low: float
    action_high: float
    trial_length: int
    dt: float


class CartPoleContinuousEnv:
    """Classic cart-pole with a continuous force input.

    State is (x, x_dot, theta, theta_dot). The action in [-1, 1] is scaled to
    a +/-10 N force. Explicit Euler with dt 0.02; reward 1 per non-terminal
    step; terminates when |x| > 2.4 or |theta| > 12 degrees.
    """

    GRAVITY = 9.8
    MASS_CART = 1.0
    MASS_POLE = 0.1
    HALF_LENGTH = 0.5
    FORCE_SCALE = 10.0
    DT = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = 12.0 * np.pi / 180.0

    spec = EnvSpec("cartpole_continuous", obs_dim=4, act_dim=1,
                   action_low=-1.0, action_high=1.0, trial_length=200, dt=DT)

    def __init__(self):
        self.state = np.zeros(4)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self.state = rng.uniform(-0.05, 0.05, size=4)
        return self.state.copy()

    def set_state(self, state: np.ndarray) -> None:
        self.state = np.asarray(state, dtype=np.float64).copy()

    @classmethod
    def step_columns(cls, states: np.ndarray, actions: np.ndarray,
                     out: np.ndarray | None = None):
        """Batched dynamics, column-major: (4, B), (1, B) ->
        (next (4, B), reward (B,), done (B,)).

        The inputs may have any strides and are not written. next goes
        into `out`, any (4, B) float64 array, when given, else into a
        fresh array.
        """
        x, x_dot, theta, theta_dot = states
        force = cls.FORCE_SCALE * _clip(actions[0], -1.0, 1.0)
        total_mass = cls.MASS_CART + cls.MASS_POLE
        polemass_length = cls.MASS_POLE * cls.HALF_LENGTH
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        temp = (force + polemass_length * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (cls.GRAVITY * sin_t - cos_t * temp) / (
            cls.HALF_LENGTH * (4.0 / 3.0 - cls.MASS_POLE * cos_t ** 2 / total_mass))
        x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
        next_states = np.empty((4, x.size)) if out is None else out
        next_states[0] = x + cls.DT * x_dot
        next_states[1] = x_dot + cls.DT * x_acc
        next_states[2] = theta + cls.DT * theta_dot
        next_states[3] = theta_dot + cls.DT * theta_acc
        done = _cartpole_done(next_states[0], next_states[2])
        reward = np.where(done, 0.0, 1.0)
        return next_states, reward, done

    step_batch = classmethod(_step_rows)

    def step(self, action: np.ndarray):
        next_states, reward, done = self.step_batch(
            self.state[None], np.atleast_1d(action)[None])
        self.state = next_states[0]
        return self.state.copy(), float(reward[0]), bool(done[0])


class PendulumEnv:
    """Torque-limited pendulum swing-up.

    State is (theta, theta_dot) with theta wrapped to (-pi, pi], theta = 0
    upright. Explicit Euler with dt 0.05; torque clipped to [-2, 2];
    theta_dot clipped to [-8, 8]. Cost is theta^2 + 0.1 theta_dot^2 +
    0.001 a^2; the episode never terminates within a trial.
    """

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_TORQUE = 2.0
    MAX_SPEED = 8.0

    spec = EnvSpec("pendulum", obs_dim=2, act_dim=1,
                   action_low=-2.0, action_high=2.0, trial_length=200, dt=DT)

    def __init__(self):
        self.state = np.zeros(2)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self.state = np.array([rng.uniform(-np.pi, np.pi),
                               rng.uniform(-1.0, 1.0)])
        return self.state.copy()

    def set_state(self, state: np.ndarray) -> None:
        self.state = np.asarray(state, dtype=np.float64).copy()

    @classmethod
    def step_columns(cls, states: np.ndarray, actions: np.ndarray,
                     out: np.ndarray | None = None):
        """Batched dynamics, column-major: (2, B), (1, B) ->
        (next (2, B), reward (B,), done (B,)).

        The inputs may have any strides and are not written. next goes
        into `out`, any (2, B) float64 array, when given, else into a
        fresh array.
        """
        theta, theta_dot = states
        torque = _pendulum_torque(actions[0])
        # theta = 0 upright, so gravity torque ~ sin(theta) destabilizes
        acc = (3.0 * cls.GRAVITY / (2.0 * cls.LENGTH) * np.sin(theta)
               + 3.0 / (cls.MASS * cls.LENGTH ** 2) * torque)
        next_states = np.empty((2, theta.size)) if out is None else out
        next_states[0] = angle_wrap(theta + cls.DT * theta_dot)
        next_states[1] = _clip(theta_dot + cls.DT * acc,
                               -cls.MAX_SPEED, cls.MAX_SPEED)
        reward = _pendulum_reward(next_states[0], next_states[1], torque)
        done = np.zeros(theta.size, dtype=bool)
        return next_states, reward, done

    step_batch = classmethod(_step_rows)

    def step(self, action: np.ndarray):
        next_states, reward, done = self.step_batch(
            self.state[None], np.atleast_1d(action)[None])
        self.state = next_states[0]
        return self.state.copy(), float(reward[0]), bool(done[0])


def _clip(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """np.clip's formula, NaN and signed zeros included, without its
    Python-level wrapper (about 1 us a call)."""
    return np.minimum(np.maximum(values, low), high)


def angle_wrap(theta: np.ndarray) -> np.ndarray:
    """Wrap angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - theta, 2.0 * np.pi)


# --- termination / reward registries ---------------------------------------

def no_termination(actions: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    return np.zeros(np.atleast_2d(next_obs).shape[0], dtype=bool)


def _cartpole_done(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return ((np.abs(x) > CartPoleContinuousEnv.X_LIMIT)
            | (np.abs(theta) > CartPoleContinuousEnv.THETA_LIMIT))


def cartpole_termination(actions: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    next_obs = np.atleast_2d(next_obs)
    return _cartpole_done(next_obs[:, 0], next_obs[:, 2])


def cartpole_reward(actions: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    return np.where(cartpole_termination(actions, next_obs), 0.0, 1.0)


# cartpole_reward is 1 per step until cartpole_termination fires: a caller
# that tests termination anyway (`ModelEnv.step`) takes this reward from
# its done flags instead of testing a second time
cartpole_reward.alive_until = cartpole_termination


def _pendulum_torque(actions: np.ndarray) -> np.ndarray:
    return _clip(actions, -PendulumEnv.MAX_TORQUE, PendulumEnv.MAX_TORQUE)


def _pendulum_reward(theta: np.ndarray, theta_dot: np.ndarray,
                     torque: np.ndarray) -> np.ndarray:
    """The negated cost of next-state columns and clipped torques."""
    theta = angle_wrap(theta)
    return -(theta ** 2 + 0.1 * theta_dot ** 2 + 0.001 * torque ** 2)


def pendulum_reward(actions: np.ndarray, next_obs: np.ndarray) -> np.ndarray:
    actions = np.atleast_2d(actions)
    next_obs = np.atleast_2d(next_obs)
    return _pendulum_reward(next_obs[:, 0], next_obs[:, 1],
                            _pendulum_torque(actions[:, 0]))


TERMINATION_FNS = {
    "no_termination": no_termination,
    "cartpole": cartpole_termination,
}

REWARD_FNS = {
    "cartpole": cartpole_reward,
    "pendulum": pendulum_reward,
}

ENV_CLASSES = {
    "cartpole_continuous": CartPoleContinuousEnv,
    "pendulum": PendulumEnv,
}

ENV_DEFAULTS = {
    # env name -> (termination fn name, reward fn name)
    "cartpole_continuous": ("cartpole", "cartpole"),
    "pendulum": ("no_termination", "pendulum"),
}


def make_env(name: str):
    """Returns (env instance, termination fn, reward fn) for a registry name."""
    try:
        env_cls = ENV_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(ENV_CLASSES))
        raise KeyError(f"unknown environment {name!r}; known: {known}") from None
    term_name, reward_name = ENV_DEFAULTS[name]
    return env_cls(), TERMINATION_FNS[term_name], REWARD_FNS[reward_name]
