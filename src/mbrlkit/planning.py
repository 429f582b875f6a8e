"""Agents and the Cross-Entropy Method trajectory optimizer.

`cem_optimize` maximizes a black-box objective over a bounded box by
repeatedly sampling a diagonal Gaussian and refitting it to the top-k
candidates. The MPC agent runs it over flattened horizon x action-dim
sequences, evaluating candidates through a ModelEnv (or any user-supplied
trajectory evaluator), and executes only the first action.
"""

from __future__ import annotations

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
    """What `cem_optimize` returns.

    value is the objective at solution: the final mean's value when it was
    evaluated (return_mean_elites with evaluate_mean), None when it was not
    (return_mean_elites without evaluate_mean), else the best sample's.
    """

    solution: np.ndarray
    value: float | None
    trace: list = field(default_factory=list)


def cem_optimize(objective, cfg: CEMConfig, init_mean: np.ndarray,
                 lower_bound: np.ndarray, upper_bound: np.ndarray,
                 rng: np.random.Generator,
                 evaluate_mean: bool = True) -> CEMResult:
    """Maximizes objective(candidates (N, d)) -> values (N,) over a box.

    Candidates are Gaussian samples clipped to the bounds; the per-dimension
    variance is additionally capped at ((upper - lower) / 2)^2. Non-finite
    objective values are ranked worst and never enter the refit. Returns the
    final distribution mean or the best sample seen, per config. The final
    mean is scored by one more objective call only with evaluate_mean;
    without it, the objective runs exactly `iterations` times and the
    result's value is None.
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
        value = (float(np.asarray(objective(solution[None]))[0])
                 if evaluate_mean else None)
    else:
        solution, value = best_x, best_value
    return CEMResult(solution, value, trace)


def evaluate_action_sequences(model_env, initial_obs: np.ndarray,
                              sequences: np.ndarray, particles: int,
                              rng: np.random.Generator,
                              sample: bool = True) -> np.ndarray:
    """Expected return of each candidate action sequence under the model.

    sequences is (N, h, A). Each sequence is replicated over `particles`
    model particles (fixed_model propagation assigns each its own ensemble
    member); the value is the particle-mean of the summed predicted rewards,
    honoring done masks. Sequences producing non-finite outputs get -inf.

    When the rollout draws no noise (`sample` off, or a deterministic
    model), particles of one sequence that share a member (all of them
    under ensemble_mean) follow the same trajectory. Such a rollout steps
    each distinct particle once: the same rows from the first step to the
    last, a finished row frozen by `model_env.step` with reward 0, until
    every row is done; each row's return is then scattered back to its
    particles for the mean. The member draw in `model_env.reset` is the
    same and no step draws from rng, so values and the rng state match
    stepping every particle, with one caveat: OpenBLAS may round a row in
    the last bit differently when it shares a matmul with fewer rows.
    Every step of a rollout forwards the same rows, so only the count of
    distinct rows decides it: when it is below the particle count,
    predicted states, and a continuous return, can differ in the last
    bit. Noisy rollouts step every particle, each with its own noise, for
    the whole horizon.
    """
    sequences = np.asarray(sequences, dtype=np.float64)
    n, horizon, act_dim = sequences.shape
    initial_obs = np.asarray(initial_obs, dtype=np.float64).ravel()
    state = model_env.reset(initial_obs[None].repeat(n * particles, axis=0),
                            rng)
    noisy = sample and not model_env.wrapper.model.deterministic
    if noisy:
        # every particle draws its own noise: step them all, in order
        rows = inverse = np.arange(n * particles)
    else:
        key = np.arange(n).repeat(particles)
        keys = n
        if state.member_assignment is not None:
            # member-major keys: the distinct rows come out grouped by
            # member, each member's in candidate order
            key += state.member_assignment * n
            keys *= model_env.wrapper.model.ensemble_size
        present = np.zeros(keys, dtype=bool)
        present[key] = True
        # a particle of each distinct key, in key order, and each
        # particle's rank among the distinct keys
        particle = np.empty(keys, dtype=np.intp)
        particle[key] = np.arange(key.size)
        rows = particle[present]
        inverse = (present.cumsum() - 1)[key]
        state = model_env.select(state, rows)
    actions = sequences.take(rows // particles, axis=0)  # (rows, h, A)
    returns = np.zeros(rows.size)
    for t in range(horizon):
        _, rewards, dones, state = model_env.step(
            state, actions[:, t], rng, sample=sample)
        returns += rewards
        if not noisy and dones.all():
            break
    values = returns[inverse].reshape(n, particles)
    out = values.sum(axis=1) / particles  # the particle mean
    # a non-finite particle value makes its mean non-finite
    if not np.isfinite(out).all():
        out[~np.isfinite(values).all(axis=1)] = -np.inf
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
    """Uniform actions over the environment's action box.

    `act` returns low + (high - low) * rng.random(act_dim), the formula
    numpy's `Generator.uniform(low, high)` evaluates: the same values and
    the same rng state, without uniform's broadcasting and checks. Those
    checks run once here instead: ValidationError is raised for a
    non-finite bound, low > high, or a span high - low that overflows. A
    degenerate box (low == high) always returns low.
    """

    def __init__(self, act_dim: int, action_low, action_high):
        self.act_dim = int(act_dim)
        self.low = np.broadcast_to(
            np.asarray(action_low, dtype=np.float64), (act_dim,))
        self.high = np.broadcast_to(
            np.asarray(action_high, dtype=np.float64), (act_dim,))
        with np.errstate(over="ignore", invalid="ignore"):
            self.span = self.high - self.low
        if not (np.isfinite(self.span).all() and (self.span >= 0).all()):
            raise ValidationError(
                "action box must be finite with low <= high, got "
                f"low {self.low} and high {self.high}")

    def act(self, obs, rng):
        return self.low + self.span * rng.random(self.act_dim)


class TrajectoryOptimizerAgent(Agent):
    """MPC agent: optimizes an action sequence with CEM at every step.

    trajectory_eval_fn(initial_obs, sequences (N, h, A), rng) -> values (N,).
    `act` is the first action of `plan`, which warm-starts from the previous
    plan shifted left one step and padded with the center of the action box.

    evaluate_mean is passed on to `cem_optimize`. With return_mean_elites,
    True (the default) has each decision score the returned mean with one
    more trajectory_eval_fn call. The agent does not use that value, but a
    model rollout draws from rng, so the call shapes every later plan;
    False skips it, which keeps the plans only for an evaluator that draws
    nothing from rng.
    """

    def __init__(self, trajectory_eval_fn, horizon: int, act_dim: int,
                 action_low, action_high, cem_config: CEMConfig | None = None,
                 evaluate_mean: bool = True):
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
        self.evaluate_mean = evaluate_mean
        self._prev_solution = None

    def reset(self) -> None:
        self._prev_solution = None

    def _initial_mean(self) -> np.ndarray:
        pad = ((self.low + self.high) / 2.0)[None]
        if self._prev_solution is None:
            return np.tile(pad, (self.horizon, 1))
        return np.concatenate([self._prev_solution[1:], pad])

    def plan(self, obs, rng):
        obs = np.asarray(obs, dtype=np.float64).ravel()

        def objective(flat_candidates):
            sequences = flat_candidates.reshape(
                -1, self.horizon, self.act_dim)
            return self.trajectory_eval_fn(obs, sequences, rng)

        result = cem_optimize(
            objective, self.cem_config, self._initial_mean().ravel(),
            np.tile(self.low, self.horizon), np.tile(self.high, self.horizon),
            rng, evaluate_mean=self.evaluate_mean)
        solution = result.solution.reshape(self.horizon, self.act_dim)
        self._prev_solution = solution
        return solution

    def act(self, obs, rng):
        return self.plan(obs, rng)[0]


def create_mpc_agent(model_env, horizon: int, act_dim: int, action_low,
                     action_high, *, particles: int,
                     cem_config: CEMConfig | None = None
                     ) -> TrajectoryOptimizerAgent:
    """MPC agent scoring sampled model_env rollouts of `particles` particles.

    It keeps evaluate_mean: the final mean's rollout draws from rng, so
    dropping it would move every later plan and a run's bytes.
    """

    def eval_fn(initial_obs, sequences, rng):
        return evaluate_action_sequences(
            model_env, initial_obs, sequences, particles, rng)

    return TrajectoryOptimizerAgent(eval_fn, horizon, act_dim, action_low,
                                    action_high, cem_config)
