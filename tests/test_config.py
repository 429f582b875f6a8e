import pathlib
from dataclasses import fields

import pytest
import yaml

from mbrlkit import config as config_mod
from mbrlkit.algorithms import PETSConfig
from mbrlkit.cli import cli_main
from mbrlkit.config import (_SCHEMA, SENTINEL, ConfigError, RunConfig,
                            load_config, resolve_sentinels,
                            save_config_snapshot, to_pets_config)
from mbrlkit.planning import CEMConfig

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


HAS_C_LOADER = hasattr(yaml, "CSafeLoader")
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if HAS_C_LOADER else [])


def load_with(loader, path):
    """repr of load_config(path) parsing with loader: of the RunConfig, or
    of the ConfigError it raised. A repr also tells 5 from 5.0."""
    saved = config_mod._LOADER
    config_mod._LOADER = loader
    try:
        return repr(load_config(path))
    except ConfigError as exc:
        return repr(exc)
    finally:
        config_mod._LOADER = saved


def assert_loaders_agree(path):
    results = [load_with(loader, path) for loader in LOADERS]
    assert len(set(results)) == 1, results


def write_yaml(tmp_path, doc, name="config.yaml"):
    """Writes doc as YAML, after checking that every available loader reads
    it to the same RunConfig (or the same ConfigError)."""
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    assert_loaders_agree(path)
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
        assert_loaders_agree(path)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", ["a: [1,\n", "agent: {horizon: 5\n",
                                      "agent:\n  horizon: 5\n horizon: 6\n"])
    def test_invalid_yaml_names_file_and_position(self, tmp_path,
                                                 monkeypatch, loader, text):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        monkeypatch.setattr(config_mod, "_LOADER", loader)
        with pytest.raises(ConfigError, match=r"broken\.yaml: invalid YAML "
                           r"at line \d+, column \d+"):
            load_config(path)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("text", ["agent: [1, 2]\n", "agent: 5\n",
                                      "agent: []\n", "agent: horizon\n",
                                      "optimizer: false\n"])
    def test_non_mapping_section_rejected(self, tmp_path, monkeypatch,
                                          loader, text):
        path = tmp_path / "config.yaml"
        path.write_text("overrides: {num_trials: 2}\n" + text)
        section = text.split(":")[0]
        monkeypatch.setattr(config_mod, "_LOADER", loader)
        with pytest.raises(ConfigError,
                           match=f"section {section} must be a mapping"):
            load_config(path)

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_undecodable_bytes_name_file(self, tmp_path, monkeypatch,
                                         loader):
        path = tmp_path / "broken.yaml"
        path.write_bytes(b"agent: {horizon: 5}\n\xff\xfe: 1\n")
        monkeypatch.setattr(config_mod, "_LOADER", loader)
        with pytest.raises(ConfigError, match=r"broken\.yaml: invalid YAML"):
            load_config(path)

    def test_null_section_means_defaults(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("agent:\noptimizer: null\n")
        assert_loaders_agree(path)
        cfg = load_config(path)
        assert cfg.agent == {} and cfg.optimizer == {}
        assert cfg == load_config(write_yaml(tmp_path, {}, name="empty.yaml"))

    def test_missing_sections_get_defaults(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path, {"agent": {"horizon": 10}}))
        assert cfg.env_name == "cartpole_continuous"
        assert cfg.dynamics_model["in_size"] == 5


class TestMalformedConfigCLI:
    """A malformed config exits 2, names the file or section, and writes
    nothing."""

    @pytest.mark.parametrize("command", ["train", "true-env-control"])
    @pytest.mark.parametrize("text, name", [
        ("a: [1,\n", "broken.yaml"),
        ("agent: {horizon: 5}\n\xff: 1\n", "broken.yaml"),
        ("agent: [1, 2]\n", "section agent"),
        ("agent: 5\n", "section agent")])
    def test_exit_2_naming_the_fault(self, tmp_path, capsys, command, text,
                                     name):
        path = tmp_path / "broken.yaml"
        path.write_bytes(text.encode("latin-1"))
        out = tmp_path / "run"
        assert cli_main([command, "--config", str(path),
                         "--out", str(out)]) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestLoaderParity:
    def test_c_loader_used_when_available(self):
        assert config_mod._LOADER is getattr(yaml, "CSafeLoader",
                                             yaml.SafeLoader)

    @pytest.mark.skipif(not HAS_C_LOADER,
                        reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.name)
    def test_shipped_configs_load_equal(self, path):
        via_c = load_with(yaml.CSafeLoader, path)
        assert via_c.startswith("RunConfig(")
        assert via_c == load_with(yaml.SafeLoader, path)


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
