"""Model and planner diagnostics.

All diagnostics emit CSV (no plotting/video): per-dimension prediction
vs. target tables, rollout comparisons against the true environment, and
CEM control scores on the true dynamics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .data import ReplayBuffer, TransitionBatch, ValidationError
from .envs import make_env
from .fileio import replace_on_success
from .models import TransitionRewardWrapper
from .planning import CEMConfig, TrajectoryOptimizerAgent


@dataclass
class EvaluationTable:
    """Per-dimension (predicted, target) pairs plus summary statistics."""

    predicted: np.ndarray  # (N, D)
    target: np.ndarray     # (N, D)
    mse: np.ndarray        # (D,)
    r2: np.ndarray         # (D,)

    def save(self, out_dir) -> None:
        """Writes dimension_{d}.csv and summary.csv; each file is replaced
        whole, never torn."""
        import pathlib

        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for d in range(self.predicted.shape[1]):
            with replace_on_success(out_dir / f"dimension_{d}.csv") as tmp, \
                    open(tmp, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["predicted", "target"])
                for p, t in zip(self.predicted[:, d], self.target[:, d]):
                    writer.writerow([repr(float(p)), repr(float(t))])
        with replace_on_success(out_dir / "summary.csv") as tmp, \
                open(tmp, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["dimension", "mse", "r2"])
            for d in range(len(self.mse)):
                writer.writerow([d, repr(float(self.mse[d])),
                                 repr(float(self.r2[d]))])


def dataset_evaluate(wrapper: TransitionRewardWrapper,
                     dataset: TransitionBatch | ReplayBuffer) -> EvaluationTable:
    """Elite ensemble-mean predictions vs model targets, per dimension."""
    if isinstance(dataset, ReplayBuffer):
        dataset = dataset.get_all()
    if len(dataset) == 0:
        raise ValidationError("empty dataset")
    if dataset.obs.shape[1] != wrapper.obs_dim or \
            dataset.action.shape[1] != wrapper.act_dim:
        raise ValidationError(
            f"dataset dims (S={dataset.obs.shape[1]}, "
            f"A={dataset.action.shape[1]}) do not match model "
            f"(S={wrapper.obs_dim}, A={wrapper.act_dim})")
    x, target = wrapper.process_batch(dataset)
    predicted = wrapper.model.ensemble_mean_predict(x)
    # per-dimension statistics are computed column by column on contiguous
    # copies so they are bit-for-bit recomputable from the emitted pairs
    dims = predicted.shape[1]
    mse = np.array([((np.ascontiguousarray(predicted[:, d])
                      - np.ascontiguousarray(target[:, d])) ** 2).mean()
                    for d in range(dims)])
    var = np.array([np.ascontiguousarray(target[:, d]).var()
                    for d in range(dims)])
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(var > 0, 1.0 - mse / var, np.where(mse == 0, 1.0, -np.inf))
    return EvaluationTable(predicted, target, mse, r2)


def visualize_rollout(model_env, env, agent, horizon: int,
                      num_model_samples: int, rng: np.random.Generator,
                      initial_obs: np.ndarray | None = None):
    """Plan with the agent, then apply the same actions to the true
    environment and to num_model_samples sampled model particles.

    Returns (actions (h, A), true_traj (h, S), model_trajs (M, h, S)).
    """
    if initial_obs is None:
        initial_obs = env.reset(rng)
    else:
        env.set_state(initial_obs)
        initial_obs = np.asarray(initial_obs, dtype=np.float64)
    agent.reset()
    actions = np.atleast_2d(agent.plan(initial_obs, rng))
    actions = actions[:horizon]
    if len(actions) < horizon:
        raise ValidationError(
            f"agent plan has {len(actions)} steps, need {horizon}")
    true_traj = np.empty((horizon, initial_obs.size))
    obs = initial_obs
    for t in range(horizon):
        obs, _, _ = env.step(actions[t])
        true_traj[t] = obs
    tiled = np.repeat(initial_obs[None], num_model_samples, axis=0)
    state = model_env.reset(tiled, rng)
    model_trajs = np.empty((num_model_samples, horizon, initial_obs.size))
    for t in range(horizon):
        act_batch = np.repeat(actions[t][None], num_model_samples, axis=0)
        next_obs, _, _, state = model_env.step(state, act_batch, rng,
                                               sample=True)
        model_trajs[:, t] = next_obs
    return actions, true_traj, model_trajs


def save_rollout_comparison(true_traj, model_trajs, out_dir) -> None:
    """One CSV per observation dimension: time, true, sample_0..sample_M-1;
    each file is replaced whole, never torn."""
    import pathlib

    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    m, horizon, dims = model_trajs.shape
    for d in range(dims):
        with replace_on_success(out_dir / f"rollout_dim_{d}.csv") as tmp, \
                open(tmp, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["time", "true"] + [f"sample_{i}" for i in range(m)])
            for t in range(horizon):
                row = [t, repr(float(true_traj[t, d]))]
                row += [repr(float(model_trajs[i, t, d])) for i in range(m)]
                writer.writerow(row)


def true_env_cem_control(env_name: str, cem_config: CEMConfig, horizon: int,
                         episodes: int, seed: int = 0,
                         trial_length: int | None = None):
    """CEM-based MPC where candidates are rolled out on the true dynamics.

    Candidate evaluation is vectorized over cloned environment states (one
    column per candidate, through the environment's `step_columns`), so it
    is order-independent, draws nothing from rng and is seed-deterministic.
    Nothing reads the value of CEM's final mean here, so it is not
    evaluated. Returns the list of per-episode returns.
    """
    env, _, _ = make_env(env_name)
    spec = env.spec
    if trial_length is None:
        trial_length = spec.trial_length
    step_columns = type(env).step_columns

    def eval_fn(initial_obs, sequences, rng):
        n = sequences.shape[0]
        states = np.repeat(np.asarray(initial_obs, dtype=np.float64)[:, None],
                           n, axis=1)
        actions = np.ascontiguousarray(sequences.transpose(1, 2, 0))
        total = np.zeros(n)
        alive = np.ones(n, dtype=bool)
        for step_actions in actions:
            states, rewards, dones = step_columns(states, step_actions)
            total += np.where(alive, rewards, 0.0)
            alive &= ~dones
        return total

    agent = TrajectoryOptimizerAgent(
        eval_fn, horizon, spec.act_dim, spec.action_low, spec.action_high,
        cem_config, evaluate_mean=False)
    rng = np.random.default_rng(seed)
    returns = []
    for _ in range(int(episodes)):
        obs = env.reset(rng)
        agent.reset()
        total = 0.0
        for _ in range(trial_length):
            action = agent.act(obs, rng)
            obs, reward, done = env.step(action)
            total += reward
            if done:
                break
        returns.append(total)
    return returns
