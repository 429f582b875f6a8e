import pathlib
from dataclasses import fields

import pytest
import yaml

from mbrlkit.algorithms import PETSConfig
from mbrlkit.cli import cli_main
from mbrlkit.config import (_SCHEMA, SENTINEL, ConfigError, RunConfig,
                            load_config, resolve_sentinels,
                            save_config_snapshot, to_pets_config)
from mbrlkit.planning import CEMConfig

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_yaml(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


BASE_DOC = {
    "dynamics_model": {
        "num_layers": 3,
        "hid_size": 64,
        "in_size": SENTINEL,
        "out_size": SENTINEL,
        "ensemble_size": 5,
        "elite_count": 5,
        "deterministic": True,
    },
    "algorithm": {
        "learned_rewards": False,
        "target_is_delta": True,
        "normalize": True,
        "initial_exploration_steps": 200,
    },
    "overrides": {
        "env": "cartpole_continuous",
        "trial_length": 200,
        "num_trials": 20,
        "model_batch_size": 256,
        "validation_ratio": 0.0,
    },
    "agent": {"horizon": 15, "particles": 5},
    "optimizer": {"population": 250, "elite_count": 25, "iterations": 5,
                  "initial_var": 0.25, "alpha": 0.1,
                  "return_mean_elites": True},
}


class TestLoadConfig:
    def test_sentinels_resolved_cartpole(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, BASE_DOC))
        assert cfg.dynamics_model["in_size"] == 5   # 4 obs + 1 action
        assert cfg.dynamics_model["out_size"] == 4

    def test_sentinels_resolved_pendulum(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["overrides"]["env"] = "pendulum"
        cfg = load_config(write_yaml(tmp_path, doc))
        assert cfg.dynamics_model["in_size"] == 3   # 2 obs + 1 action
        assert cfg.dynamics_model["out_size"] == 2

    def test_learned_rewards_adds_output_column(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["algorithm"]["learned_rewards"] = True
        cfg = load_config(write_yaml(tmp_path, doc))
        assert cfg.dynamics_model["out_size"] == 5

    def test_explicit_sizes_accepted_when_consistent(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["dynamics_model"]["in_size"] = 5
        doc["dynamics_model"]["out_size"] = 4
        cfg = load_config(write_yaml(tmp_path, doc))
        assert cfg.dynamics_model["in_size"] == 5

    def test_conflicting_sizes_rejected(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["dynamics_model"]["in_size"] = 7
        with pytest.raises(ConfigError, match="in_size"):
            load_config(write_yaml(tmp_path, doc))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["agent"]["horizzon"] = 15
        with pytest.raises(ConfigError, match="agent.horizzon"):
            load_config(write_yaml(tmp_path, doc))

    def test_unknown_section_rejected(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["plumbing"] = {}
        with pytest.raises(ConfigError, match="plumbing"):
            load_config(write_yaml(tmp_path, doc))

    def test_unknown_env_rejected(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["overrides"]["env"] = "acrobot"
        with pytest.raises(ConfigError, match="acrobot"):
            load_config(write_yaml(tmp_path, doc))

    def test_unknown_term_fn_rejected(self, tmp_path, capsys):
        # the termination comes from the environment, so even the name of a
        # registered termination function is an unknown key
        for value in ("mystery", "cartpole"):
            doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
            doc["overrides"]["term_fn"] = value
            path = write_yaml(tmp_path, doc)
            with pytest.raises(ConfigError,
                               match="unknown key overrides.term_fn"):
                load_config(path)
            assert cli_main(["train", "--config", str(path),
                             "--out", str(tmp_path / "run")]) == 2
            assert "overrides.term_fn" in capsys.readouterr().err

    def test_bool_not_accepted_for_int(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["agent"]["horizon"] = True
        with pytest.raises(ConfigError, match="agent.horizon"):
            load_config(write_yaml(tmp_path, doc))

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_sections_get_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, {"agent": {"horizon": 10}}))
        assert cfg.env_name == "cartpole_continuous"
        assert cfg.dynamics_model["in_size"] == 5


class TestToPetsConfig:
    def test_fields_forwarded(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, BASE_DOC))
        pets = to_pets_config(cfg, seed=7)
        assert pets.seed == 7
        assert pets.env == "cartpole_continuous"
        assert pets.ensemble_size == 5 and pets.elite_count == 5
        assert pets.horizon == 15 and pets.particles == 5
        assert pets.cem.population == 250 and pets.cem.elite_count == 25
        assert pets.num_trials == 20 and pets.trial_length == 200
        assert pets.validation_ratio == 0.0

    def test_defaults_when_sections_omitted(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, {}))
        pets = to_pets_config(cfg)
        assert pets.env == "cartpole_continuous"
        assert pets.cem.population == 250

    @pytest.mark.parametrize("optimizer, expected", [
        ({"population": 30}, (30, 25, 5, 0.25, 0.1)),
        ({"iterations": 3}, (250, 25, 3, 0.25, 0.1)),
    ])
    def test_partial_optimizer_keeps_defaults(self, tmp_path, optimizer,
                                              expected):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["optimizer"] = optimizer
        cem = to_pets_config(load_config(write_yaml(tmp_path, doc))).cem
        assert (cem.population, cem.elite_count, cem.iterations,
                cem.initial_var, cem.alpha) == expected

    def test_invalid_combination_rejected(self, tmp_path):
        doc = yaml.safe_load(yaml.safe_dump(BASE_DOC))
        doc["dynamics_model"]["elite_count"] = 9  # > ensemble_size
        cfg = load_config(write_yaml(tmp_path, doc))
        with pytest.raises(Exception):
            to_pets_config(cfg)


class TestSchemaCoverage:
    def test_every_key_is_a_config_field(self):
        pets_fields = {f.name for f in fields(PETSConfig)}
        cem_fields = {f.name for f in fields(CEMConfig)}
        resolved = {("dynamics_model", "in_size"),
                    ("dynamics_model", "out_size")}
        owner = {}
        for section, keys in _SCHEMA.items():
            for key in keys:
                if section == "optimizer":
                    assert key in cem_fields, f"optimizer.{key}"
                elif (section, key) not in resolved:
                    assert key in pets_fields, f"{section}.{key}"
                    assert owner.setdefault(key, section) == section, key

    @pytest.mark.parametrize("name", ["cartpole", "pendulum"])
    def test_shipped_values_reach_pets_config(self, name):
        cfg = load_config(CONFIGS / f"{name}.yaml")
        pets = to_pets_config(cfg)
        for section in ("dynamics_model", "algorithm", "overrides", "agent"):
            for key, value in getattr(cfg, section).items():
                if key not in ("in_size", "out_size"):
                    assert getattr(pets, key) == value, f"{section}.{key}"
        assert pets.cem == CEMConfig(**cfg.optimizer)


class TestSnapshot:
    def test_snapshot_reloads_identically(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, BASE_DOC))
        out = tmp_path / "snapshot.yaml"
        save_config_snapshot(cfg, out)
        reloaded = load_config(out)
        for section in ("dynamics_model", "algorithm", "overrides", "agent",
                        "optimizer"):
            assert getattr(reloaded, section) == getattr(cfg, section)


class TestResolveSentinels:
    def test_in_place_resolution(self):
        cfg = RunConfig(dynamics_model={"in_size": SENTINEL,
                                        "out_size": SENTINEL})
        resolve_sentinels(cfg)
        assert cfg.dynamics_model == {"in_size": 5, "out_size": 4}
