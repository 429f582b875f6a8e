"""Experiment configuration files.

Configs are YAML documents with sections dynamics_model / algorithm /
overrides / agent / optimizer. The sentinel "???" marks fields (model input
and output sizes) that are completed at runtime from the environment's
shapes. Unknown keys are rejected with their full key path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import yaml

from .algorithms import PETSConfig
from .data import ValidationError
from .envs import ENV_CLASSES
from .planning import CEMConfig

SENTINEL = "???"


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key path."""


_SCHEMA = {
    "dynamics_model": {
        "num_layers": int,
        "hid_size": int,
        "in_size": (int, str),
        "out_size": (int, str),
        "ensemble_size": int,
        "elite_count": int,
        "use_silu": bool,
        "deterministic": bool,
        "propagation_method": str,
        "lr": float,
    },
    "algorithm": {
        "initial_exploration_steps": int,
        "learned_rewards": bool,
        "target_is_delta": bool,
        "normalize": bool,
    },
    "overrides": {
        "env": str,
        "trial_length": int,
        "num_trials": int,
        "model_batch_size": int,
        "validation_ratio": float,
        "model_retrain_interval": int,
        "retrain_at_trial_start": bool,
        "num_epochs": int,
        "patience": int,
        "buffer_capacity": int,
        "record_walltime": bool,
        "stop_on_return": float,
    },
    "agent": {
        "horizon": int,
        "particles": int,
    },
    "optimizer": {
        "population": int,
        "elite_count": int,
        "iterations": int,
        "initial_var": float,
        "alpha": float,
        "return_mean_elites": bool,
    },
}


@dataclass
class RunConfig:
    """Resolved configuration document (one dict per section)."""

    dynamics_model: dict = field(default_factory=dict)
    algorithm: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)
    agent: dict = field(default_factory=dict)
    optimizer: dict = field(default_factory=dict)

    @property
    def env_name(self) -> str:
        return self.overrides.get("env", "cartpole_continuous")


def _check_section(name: str, section: dict) -> None:
    schema = _SCHEMA[name]
    for key, value in section.items():
        if key not in schema:
            raise ConfigError(f"unknown key {name}.{key}")
        expected = schema[key]
        if isinstance(expected, tuple):
            ok = isinstance(value, expected)
        elif expected is float:
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, expected)
        if not ok:
            raise ConfigError(
                f"bad value for {name}.{key}: {value!r} (expected "
                f"{getattr(expected, '__name__', expected)})")


def load_config(path) -> RunConfig:
    with open(path) as f:
        doc = yaml.safe_load(f)
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    for section in doc:
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section}")
    cfg = RunConfig(**{k: dict(doc.get(k) or {}) for k in _SCHEMA})
    for name in _SCHEMA:
        _check_section(name, getattr(cfg, name))
    env_name = cfg.env_name
    if env_name not in ENV_CLASSES:
        raise ConfigError(f"overrides.env: unknown environment {env_name!r}")
    resolve_sentinels(cfg)
    return cfg


def resolve_sentinels(cfg: RunConfig) -> None:
    """Replace "???" in-place using the selected environment's shapes."""
    spec = ENV_CLASSES[cfg.env_name].spec
    learned_rewards = cfg.algorithm.get("learned_rewards", False)
    resolved = {
        "in_size": spec.obs_dim + spec.act_dim,
        "out_size": spec.obs_dim + (1 if learned_rewards else 0),
    }
    for key, value in resolved.items():
        current = cfg.dynamics_model.get(key, SENTINEL)
        if current == SENTINEL:
            cfg.dynamics_model[key] = value
        elif current != value:
            raise ConfigError(
                f"dynamics_model.{key}: {current} conflicts with the "
                f"environment shape {value}")


# the section owning each PETSConfig field set from a config file
_SECTION_OF = {key: name for name in _SCHEMA if name != "optimizer"
               for key in _SCHEMA[name]}


def to_cem_config(cfg: RunConfig) -> CEMConfig:
    """The optimizer section as a validated CEMConfig."""
    cem = CEMConfig(**cfg.optimizer)
    try:
        cem.validate()
    except ValidationError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc
    return cem


def to_pets_config(cfg: RunConfig, seed: int = 0) -> PETSConfig:
    """Every section key except the model's in_size/out_size (resolved from
    the environment) is the PETSConfig field of the same name; the optimizer
    section is the CEMConfig. Invalid value combinations raise ConfigError
    naming the section of the field that PETSConfig.validate rejects."""
    kwargs = {key: value
              for name in _SCHEMA if name != "optimizer"
              for key, value in getattr(cfg, name).items()
              if key not in ("in_size", "out_size")}
    pets = PETSConfig(**kwargs, cem=to_cem_config(cfg), seed=seed)
    try:
        pets.validate()
    except ValidationError as exc:
        field_name = str(exc).split()[0]
        raise ConfigError(f"{_SECTION_OF[field_name]}: {exc}") from exc
    return pets


def save_config_snapshot(cfg: RunConfig, path) -> None:
    doc = {name: getattr(cfg, name) for name in _SCHEMA}
    with open(path, "w") as f:
        yaml.safe_dump(doc, f, sort_keys=True)
