"""Agents and the Cross-Entropy Method trajectory optimizer.

`cem_optimize` maximizes a black-box objective over a bounded box by
repeatedly sampling a diagonal Gaussian and refitting it to the top-k
candidates. The MPC agent runs it over flattened horizon x action-dim
sequences, evaluating candidates through a ModelEnv (or any user-supplied
trajectory evaluator), and executes only the first action.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import ValidationError


@dataclass
class CEMConfig:
    """Hyper-parameters of the Cross-Entropy Method.

    population is the number of candidates per iteration, elite_count the
    top-k used for the refit, alpha the smoothing weight on the previous
    distribution (alpha = 0 recovers the pure sample mean/variance refit).
    """

    population: int = 250
    elite_count: int = 25
    iterations: int = 5
    initial_var: float = 0.25
    alpha: float = 0.1
    return_mean_elites: bool = True

    def validate(self) -> None:
        if not 1 <= self.elite_count <= self.population:
            raise ValidationError("need 1 <= elite_count <= population")
        if self.iterations < 1:
            raise ValidationError("iterations must be >= 1")
        if not 0.0 <= self.alpha < 1.0:
            raise ValidationError("alpha must be in [0, 1)")
        if np.any(np.asarray(self.initial_var) <= 0):
            raise ValidationError("initial_var must be positive")


@dataclass
class CEMTraceRow:
    iteration: int
    best_value: float
    mean_elite_value: float
    mean_norm: float
    var_norm: float


@dataclass
class CEMResult:
    solution: np.ndarray
    value: float
    trace: list = field(default_factory=list)


def cem_optimize(objective, cfg: CEMConfig, init_mean: np.ndarray,
                 lower_bound: np.ndarray, upper_bound: np.ndarray,
                 rng: np.random.Generator) -> CEMResult:
    """Maximizes objective(candidates (N, d)) -> values (N,) over a box.

    Candidates are Gaussian samples clipped to the bounds; the per-dimension
    variance is additionally capped at ((upper - lower) / 2)^2. Non-finite
    objective values are ranked worst and never enter the refit. Returns the
    final distribution mean or the best sample seen, per config.
    """
    cfg.validate()
    mean = np.asarray(init_mean, dtype=np.float64).copy()
    d = mean.size
    lower = np.broadcast_to(np.asarray(lower_bound, dtype=np.float64), (d,))
    upper = np.broadcast_to(np.asarray(upper_bound, dtype=np.float64), (d,))
    if np.any(~np.isfinite(lower)) or np.any(~np.isfinite(upper)):
        raise ValidationError("bounds must be finite")
    if np.any(lower >= upper):
        raise ValidationError("need lower < upper bounds")
    var_cap = ((upper - lower) / 2.0) ** 2
    var = np.minimum(np.broadcast_to(
        np.asarray(cfg.initial_var, dtype=np.float64), (d,)).copy(), var_cap)
    best_x = mean.copy()
    best_value = -np.inf
    trace = []
    for it in range(1, cfg.iterations + 1):
        samples = mean + np.sqrt(var) * rng.standard_normal(
            (cfg.population, d))
        np.clip(samples, lower, upper, out=samples)
        values = np.asarray(objective(samples), dtype=np.float64)
        if values.shape != (cfg.population,):
            raise ValidationError(
                f"objective returned shape {values.shape}, expected "
                f"({cfg.population},)")
        ranked = np.where(np.isfinite(values), values, -np.inf)
        order = np.argsort(-ranked, kind="stable")
        elite_idx = order[:cfg.elite_count]
        elites = samples[elite_idx]
        elite_values = ranked[elite_idx]
        elite_mean = elites.mean(axis=0)
        elite_var = elites.var(axis=0)
        mean = cfg.alpha * mean + (1.0 - cfg.alpha) * elite_mean
        var = np.minimum(cfg.alpha * var + (1.0 - cfg.alpha) * elite_var,
                         var_cap)
        if ranked[order[0]] > best_value:
            best_value = float(ranked[order[0]])
            best_x = samples[order[0]].copy()
        trace.append(CEMTraceRow(
            iteration=it,
            best_value=best_value,
            mean_elite_value=float(elite_values.mean()),
            mean_norm=float(np.linalg.norm(mean)),
            var_norm=float(np.linalg.norm(var)),
        ))
    if cfg.return_mean_elites:
        solution = np.clip(mean, lower, upper)
        value = float(np.asarray(objective(solution[None]))[0])
    else:
        solution, value = best_x, best_value
    return CEMResult(solution, value, trace)


def write_cem_trace(trace, path) -> None:
    """Per-iteration diagnostics CSV."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "best_value", "mean_elite_value",
                         "mean_norm", "var_norm"])
        for row in trace:
            writer.writerow([row.iteration, row.best_value,
                             row.mean_elite_value, row.mean_norm,
                             row.var_norm])


def evaluate_action_sequences(model_env, initial_obs: np.ndarray,
                              sequences: np.ndarray, particles: int,
                              rng: np.random.Generator,
                              sample: bool = True) -> np.ndarray:
    """Expected return of each candidate action sequence under the model.

    sequences is (N, h, A). Each sequence is replicated over `particles`
    model particles (fixed_model propagation assigns each its own ensemble
    member); the value is the particle-mean of the summed predicted rewards,
    honoring done masks. Sequences producing non-finite outputs get -inf.
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    n, horizon, act_dim = sequences.shape
    initial_obs = np.asarray(initial_obs, dtype=np.float64).ravel()
    obs_tiled = np.repeat(initial_obs[None], n * particles, axis=0)
    state = model_env.reset(obs_tiled, rng)
    total = np.zeros(n * particles)
    actions_tiled = np.repeat(sequences, particles, axis=0)  # (N*P, h, A)
    for t in range(horizon):
        _, rewards, _, state = model_env.step(
            state, actions_tiled[:, t], rng, sample=sample)
        total += rewards
    values = total.reshape(n, particles)
    bad = ~np.all(np.isfinite(values), axis=1)
    out = values.mean(axis=1)
    out[bad] = -np.inf
    return out


class Agent:
    """Minimal decision-making interface: act, and optionally plan."""

    def act(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def plan(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Default: a length-1 sequence wrapping act."""
        return self.act(obs, rng)[None]

    def reset(self) -> None:
        pass


class RandomAgent(Agent):
    """Uniform actions over the environment's action box."""

    def __init__(self, act_dim: int, action_low, action_high):
        self.act_dim = int(act_dim)
        self.low = np.broadcast_to(
            np.asarray(action_low, dtype=np.float64), (act_dim,))
        self.high = np.broadcast_to(
            np.asarray(action_high, dtype=np.float64), (act_dim,))

    def act(self, obs, rng):
        return rng.uniform(self.low, self.high)


class TrajectoryOptimizerAgent(Agent):
    """MPC agent: optimizes an action sequence with CEM at every step.

    trajectory_eval_fn(initial_obs, sequences (N, h, A), rng) -> values (N,).
    Successive calls warm-start from the previous solution shifted left one
    step and padded with the center of the action box.
    """

    def __init__(self, trajectory_eval_fn, horizon: int, act_dim: int,
                 action_low, action_high, cem_config: CEMConfig | None = None):
        if horizon < 1:
            raise ValidationError("horizon must be >= 1")
        self.trajectory_eval_fn = trajectory_eval_fn
        self.horizon = int(horizon)
        self.act_dim = int(act_dim)
        self.low = np.broadcast_to(
            np.asarray(action_low, dtype=np.float64), (act_dim,))
        self.high = np.broadcast_to(
            np.asarray(action_high, dtype=np.float64), (act_dim,))
        self.cem_config = cem_config or CEMConfig()
        self._prev_solution = None
        self.last_trace = None

    def reset(self) -> None:
        self._prev_solution = None
        self.last_trace = None

    def _initial_mean(self) -> np.ndarray:
        pad = ((self.low + self.high) / 2.0)[None]
        if self._prev_solution is None:
            return np.tile(pad, (self.horizon, 1))
        return np.concatenate([self._prev_solution[1:], pad])

    def optimize(self, obs: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64).ravel()

        def objective(flat_candidates):
            sequences = flat_candidates.reshape(
                -1, self.horizon, self.act_dim)
            return self.trajectory_eval_fn(obs, sequences, rng)

        result = cem_optimize(
            objective, self.cem_config, self._initial_mean().ravel(),
            np.tile(self.low, self.horizon), np.tile(self.high, self.horizon),
            rng)
        self.last_trace = result.trace
        solution = result.solution.reshape(self.horizon, self.act_dim)
        self._prev_solution = solution
        return solution

    def act(self, obs, rng):
        return self.optimize(obs, rng)[0]

    def plan(self, obs, rng):
        return self.optimize(obs, rng)


def create_mpc_agent(model_env, horizon: int, act_dim: int, action_low,
                     action_high, particles: int = 20,
                     cem_config: CEMConfig | None = None,
                     sample: bool = True) -> TrajectoryOptimizerAgent:
    """MPC agent whose trajectories are evaluated in the given ModelEnv."""

    def eval_fn(initial_obs, sequences, rng):
        return evaluate_action_sequences(
            model_env, initial_obs, sequences, particles, rng, sample=sample)

    return TrajectoryOptimizerAgent(eval_fn, horizon, act_dim, action_low,
                                    action_high, cem_config)
