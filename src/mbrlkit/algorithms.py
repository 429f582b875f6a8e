"""The PETS training loop and the data/training workflow glue.

PETS alternates two operations: fit a (probabilistic or deterministic)
ensemble on all observed transitions, then run a trial of CEM-based MPC over
model-generated trajectories. Observations are re-normalized on the whole
replay buffer before every training call.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ReplayBuffer, ValidationError, train_val_split
from .envs import make_env
from .fileio import replace_on_success
from .models import (GaussianMLPEnsemble, ModelEnv, ModelTrainer,
                     TrainerReport, TransitionRewardWrapper, save_model)
from .planning import CEMConfig, RandomAgent, create_mpc_agent

RESULTS_CSV_HEADER = ["trial", "env_steps", "episode_return", "train_epochs",
                      "seconds"]


@dataclass
class PETSConfig:
    env: str = "cartpole_continuous"
    num_trials: int = 20
    trial_length: int = 200
    initial_exploration_steps: int = 200
    model_retrain_interval: int = 250
    retrain_at_trial_start: bool = True
    buffer_capacity: int | None = None  # default: (num_trials + 1) * trial_length

    ensemble_size: int = 5
    elite_count: int = 5
    deterministic: bool = True
    learned_rewards: bool = False
    target_is_delta: bool = True
    normalize: bool = True
    propagation_method: str = "fixed_model"
    num_layers: int = 3
    hid_size: int = 64
    use_silu: bool = True

    lr: float = 1e-3
    model_batch_size: int = 256
    validation_ratio: float = 0.0  # PETS default: rank elites by training MSE
    num_epochs: int = 40
    patience: int = 5
    shuffle_each_epoch: bool = True

    horizon: int = 15
    particles: int = 5
    cem: CEMConfig = field(default_factory=CEMConfig)

    seed: int = 0
    record_walltime: bool = False
    # stop the run once a trial's return reaches this value (None: never)
    stop_on_return: float | None = None

    def validate(self) -> None:
        """Raises ValidationError on invalid value combinations; each
        message starts with the name of the field it rejects."""
        if self.num_trials < 0:
            raise ValidationError("num_trials must be >= 0")
        if self.num_epochs < 0:
            raise ValidationError("num_epochs must be >= 0")
        if self.model_retrain_interval < 1:
            raise ValidationError("model_retrain_interval must be >= 1")
        if self.buffer_capacity is not None and self.buffer_capacity < 1:
            raise ValidationError("buffer_capacity must be >= 1")
        if self.initial_exploration_steps < 0:
            raise ValidationError("initial_exploration_steps must be >= 0")
        if self.initial_exploration_steps == 0 and self.retrain_at_trial_start:
            raise ValidationError(
                "initial_exploration_steps must be >= 1 when "
                "retrain_at_trial_start is on: the first retrain needs data")
        if self.elite_count < 1:
            raise ValidationError("elite_count must be >= 1")
        if self.elite_count > self.ensemble_size:
            raise ValidationError("elite_count exceeds ensemble_size")
        if self.propagation_method not in \
                TransitionRewardWrapper.PROPAGATION_METHODS:
            raise ValidationError(
                f"propagation_method must be one of "
                f"{TransitionRewardWrapper.PROPAGATION_METHODS}, got "
                f"{self.propagation_method!r}")
        if self.num_layers < 1:
            raise ValidationError("num_layers must be >= 1")
        if self.hid_size < 1:
            raise ValidationError("hid_size must be >= 1")
        if not self.lr > 0.0:
            raise ValidationError("lr must be > 0")
        if self.model_batch_size < 1:
            raise ValidationError("model_batch_size must be >= 1")
        if not 0.0 <= self.validation_ratio < 1.0:
            raise ValidationError("validation_ratio must be in [0, 1)")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.particles < 1:
            raise ValidationError("particles must be >= 1")
        if self.horizon < 1:
            raise ValidationError("horizon must be >= 1")
        if self.horizon > self.trial_length:
            raise ValidationError("horizon exceeds trial_length")
        self.cem.validate()


@dataclass
class LearningCurve:
    """Per-trial progress log: one row per completed trial."""

    rows: list = field(default_factory=list)  # dict rows, RESULTS_CSV_HEADER keys

    def append(self, trial: int, env_steps: int, episode_return: float,
               train_epochs: int, seconds: float) -> None:
        self.rows.append({
            "trial": trial, "env_steps": env_steps,
            "episode_return": episode_return, "train_epochs": train_epochs,
            "seconds": seconds,
        })

    def save(self, path) -> None:
        """Writes results.csv; the file is replaced whole, never torn."""
        with replace_on_success(path) as tmp, open(tmp, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=RESULTS_CSV_HEADER)
            writer.writeheader()
            for row in self.rows:
                out = dict(row)
                out["episode_return"] = repr(float(out["episode_return"]))
                out["seconds"] = f"{out['seconds']:.3f}"
                writer.writerow(out)

    @classmethod
    def load(cls, path) -> "LearningCurve":
        curve = cls()
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                curve.append(int(row["trial"]), int(row["env_steps"]),
                             float(row["episode_return"]),
                             int(row["train_epochs"]), float(row["seconds"]))
        return curve


def rollout_agent_trajectories(env, num_steps: int, agent, buffer: ReplayBuffer,
                               rng: np.random.Generator,
                               trial_length: int | None = None) -> int:
    """Runs episodes (resetting at done or trial_length) until num_steps
    transitions are stored; returns the exact count collected."""
    if trial_length is None:
        trial_length = env.spec.trial_length
    collected = 0
    while collected < num_steps:
        obs = env.reset(rng)
        agent.reset()
        for _ in range(trial_length):
            action = np.atleast_1d(agent.act(obs, rng))
            next_obs, reward, done = env.step(action)
            buffer.add(obs, action, next_obs, reward, done)
            obs = next_obs
            collected += 1
            if done or collected >= num_steps:
                break
    return collected


def build_wrapper(cfg: PETSConfig, obs_dim: int, act_dim: int,
                  rng: np.random.Generator) -> TransitionRewardWrapper:
    model = GaussianMLPEnsemble(
        in_size=obs_dim + act_dim,
        out_size=obs_dim + (1 if cfg.learned_rewards else 0),
        ensemble_size=cfg.ensemble_size,
        num_layers=cfg.num_layers,
        hid_size=cfg.hid_size,
        activation="silu" if cfg.use_silu else "relu",
        deterministic=cfg.deterministic,
        rng=rng,
    )
    return TransitionRewardWrapper(
        model, obs_dim, act_dim,
        target_is_delta=cfg.target_is_delta,
        learned_rewards=cfg.learned_rewards,
        propagation=cfg.propagation_method,
    )


def train_model_on_buffer(wrapper: TransitionRewardWrapper,
                          trainer: ModelTrainer, buffer: ReplayBuffer,
                          validation_ratio: float, batch_size: int,
                          rng: np.random.Generator, num_epochs: int,
                          patience: int, normalize: bool = True,
                          shuffle_each_epoch: bool = True) -> TrainerReport:
    """Refit the normalizer on the whole buffer, split, bootstrap, train."""
    if normalize:
        wrapper.update_normalizer(buffer.get_all())
    train_iter, val_iter = train_val_split(
        buffer, validation_ratio, batch_size, rng,
        ensemble_size=wrapper.model.ensemble_size,
        shuffle_each_epoch=shuffle_each_epoch)
    return trainer.train(train_iter, val_iter, num_epochs=num_epochs,
                         patience=patience)


def pets_run(cfg: PETSConfig, env=None, term_fn=None, reward_fn=None,
             out_dir=None) -> LearningCurve:
    """Full PETS experiment; deterministic end-to-end for a fixed seed.

    When out_dir is given, persists results.csv, model.ckpt.npz, buffer.dat
    and trainer_report.json at every trial end, each replaced whole, never
    torn; a run killed between two replacements leaves files of two trials.
    """
    import pathlib

    cfg.validate()
    if env is None:
        env, term_fn, reward_fn = make_env(cfg.env)
    rng = np.random.default_rng(cfg.seed)
    spec = env.spec
    capacity = cfg.buffer_capacity or (cfg.num_trials + 1) * cfg.trial_length
    buffer = ReplayBuffer(capacity)
    wrapper = build_wrapper(cfg, spec.obs_dim, spec.act_dim, rng)
    trainer = ModelTrainer(wrapper, lr=cfg.lr, elite_count=cfg.elite_count)
    # planning rollouts forward the model in float32; training stays float64
    model_env = ModelEnv(
        wrapper, term_fn,
        reward_fn=None if cfg.learned_rewards else reward_fn,
        dtype=np.float32)
    agent = create_mpc_agent(
        model_env, cfg.horizon, spec.act_dim, spec.action_low,
        spec.action_high, particles=cfg.particles, cem_config=cfg.cem,
        sample=not cfg.deterministic)
    random_agent = RandomAgent(spec.act_dim, spec.action_low, spec.action_high)

    rollout_agent_trajectories(env, cfg.initial_exploration_steps,
                               random_agent, buffer, rng, cfg.trial_length)

    curve = LearningCurve()
    env_steps = cfg.initial_exploration_steps
    steps_since_train = env_steps  # counts toward the first interval trigger
    last_report = None

    def retrain():
        nonlocal steps_since_train, last_report, trial_epochs
        last_report = train_model_on_buffer(
            wrapper, trainer, buffer, cfg.validation_ratio,
            cfg.model_batch_size, rng, cfg.num_epochs, cfg.patience,
            normalize=cfg.normalize, shuffle_each_epoch=cfg.shuffle_each_epoch)
        steps_since_train = 0
        trial_epochs += len(last_report.train_losses)

    if out_dir is not None:
        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    for trial in range(1, cfg.num_trials + 1):
        trial_start = time.perf_counter()
        trial_epochs = 0  # epochs of the retrains run in this trial
        if cfg.retrain_at_trial_start or steps_since_train >= cfg.model_retrain_interval:
            retrain()
        obs = env.reset(rng)
        agent.reset()
        episode_return = 0.0
        for _ in range(cfg.trial_length):
            if steps_since_train >= cfg.model_retrain_interval:
                retrain()
            action = np.atleast_1d(agent.act(obs, rng))
            next_obs, reward, done = env.step(action)
            buffer.add(obs, action, next_obs, reward, done)
            obs = next_obs
            episode_return += reward
            env_steps += 1
            steps_since_train += 1
            if done:
                break
        seconds = (time.perf_counter() - trial_start
                   if cfg.record_walltime else 0.0)
        curve.append(trial, env_steps, episode_return, trial_epochs, seconds)
        if out_dir is not None:
            curve.save(out_dir / "results.csv")
            save_model(wrapper, out_dir / "model.ckpt.npz")
            buffer.save(out_dir / "buffer.dat")
            if last_report is not None:
                last_report.save(out_dir / "trainer_report.json")
        if cfg.stop_on_return is not None and \
                episode_return >= cfg.stop_on_return:
            break
    if out_dir is not None:
        curve.save(out_dir / "results.csv")
        if buffer.size:
            buffer.save(out_dir / "buffer.dat")
    return curve
