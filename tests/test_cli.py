import numpy as np
import pytest
import yaml

from mbrlkit import algorithms, diagnostics
from mbrlkit.algorithms import LearningCurve
from mbrlkit.cli import cli_main


def small_config(tmp_path, env="cartpole_continuous", **overrides):
    doc = {
        "dynamics_model": {"num_layers": 2, "hid_size": 8,
                           "ensemble_size": 2, "elite_count": 2,
                           "deterministic": True},
        "overrides": {"env": env, "trial_length": 15, "num_trials": 2,
                      "model_batch_size": 32, "num_epochs": 2, "patience": 2,
                      **overrides},
        "algorithm": {"initial_exploration_steps": 15},
        "agent": {"horizon": 3, "particles": 2},
        "optimizer": {"population": 20, "elite_count": 2, "iterations": 2,
                      "initial_var": 0.25},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


class TestTrainCommand:
    def test_produces_run_artifacts(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "config.yaml").exists()
        assert (out / "model.ckpt.npz").exists()
        assert (out / "buffer.dat").exists()
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,env_steps,episode_return,train_epochs,seconds"
        assert len(lines) == 3  # header + 2 trials

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli_main(["train", "--config", str(cfg), "--seed", "5",
                         "--out", str(a)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--seed", "5",
                         "--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_different_seed_different_results(self, tmp_path):
        cfg = small_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        cli_main(["train", "--config", str(cfg), "--seed", "0", "--out", str(a)])
        cli_main(["train", "--config", str(cfg), "--seed", "1", "--out", str(b)])
        assert (a / "results.csv").read_bytes() != (b / "results.csv").read_bytes()

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"agent": {"horizzon": 5}}))
        assert cli_main(["train", "--config", str(path)]) == 2
        assert "agent.horizzon" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert cli_main(["train", "--config",
                         str(tmp_path / "nope.yaml")]) == 1


SHORT_RUN = {"num_trials": 1, "trial_length": 20}


class TestValueCombinationErrors:
    """Invalid value combinations exit 2 and name the config section."""

    def write(self, tmp_path, doc):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(doc))
        return path

    @pytest.mark.parametrize("command", ["train", "true-env-control"])
    def test_optimizer_elites_exceed_population(self, tmp_path, capsys,
                                                command):
        # 25 default elites do not fit a population of 20
        path = self.write(tmp_path, {"optimizer": {"population": 20}})
        assert cli_main([command, "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert ("optimizer: need 1 <= elite_count <= population"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("doc, message", [
        ({"dynamics_model": {"elite_count": 9}},
         "dynamics_model: elite_count exceeds ensemble_size"),
        ({"agent": {"horizon": 30}, "overrides": {"trial_length": 20}},
         "agent: horizon exceeds trial_length"),
        ({"overrides": {"model_retrain_interval": 0}},
         "overrides: model_retrain_interval must be >= 1"),
        # one short trial, so that a run which accepted the value ends soon
        ({"dynamics_model": {"elite_count": 0}, "overrides": SHORT_RUN},
         "dynamics_model: elite_count must be >= 1"),
        ({"dynamics_model": {"elite_count": -1}, "overrides": SHORT_RUN},
         "dynamics_model: elite_count must be >= 1"),
        ({"agent": {"particles": 0}, "overrides": SHORT_RUN},
         "agent: particles must be >= 1"),
        ({"dynamics_model": {"propagation_method": "bogus"},
          "overrides": SHORT_RUN},
         "dynamics_model: propagation_method must be one of"),
        ({"agent": {"horizon": 0}, "overrides": SHORT_RUN},
         "agent: horizon must be >= 1"),
        ({"overrides": {"model_batch_size": 0, **SHORT_RUN}},
         "overrides: model_batch_size must be >= 1"),
        ({"overrides": {"validation_ratio": 1.5, **SHORT_RUN}},
         "overrides: validation_ratio must be in [0, 1)"),
        ({"algorithm": {"initial_exploration_steps": -5},
          "overrides": SHORT_RUN},
         "algorithm: initial_exploration_steps must be >= 0"),
        ({"algorithm": {"initial_exploration_steps": 0},
          "overrides": {"retrain_at_trial_start": True, **SHORT_RUN}},
         "algorithm: initial_exploration_steps must be >= 1 when "
         "retrain_at_trial_start is on"),
        # these four used to run: patience 0 as 1, num_layers 0 as 1,
        # hid_size 0 as a net emitting its last bias, lr < 0 as ascent
        ({"overrides": {"patience": 0, **SHORT_RUN}},
         "overrides: patience must be >= 1"),
        ({"dynamics_model": {"num_layers": 0}, "overrides": SHORT_RUN},
         "dynamics_model: num_layers must be >= 1"),
        ({"dynamics_model": {"hid_size": 0, "num_layers": 3},
          "overrides": SHORT_RUN},
         "dynamics_model: hid_size must be >= 1"),
        ({"dynamics_model": {"lr": -1.0}, "overrides": SHORT_RUN},
         "dynamics_model: lr must be > 0"),
        # 0 used to run with the default capacity, and a negative value
        # to exit 1 from the buffer with no section named
        ({"overrides": {"buffer_capacity": 0, **SHORT_RUN}},
         "overrides: buffer_capacity must be >= 1"),
        ({"overrides": {"buffer_capacity": -3, **SHORT_RUN}},
         "overrides: buffer_capacity must be >= 1"),
        # a negative trial count used to exit 1 from the buffer with no
        # section named, and a negative epoch count to train nothing
        ({"overrides": {**SHORT_RUN, "num_trials": -1}},
         "overrides: num_trials must be >= 0"),
        ({"overrides": {"num_epochs": -2, **SHORT_RUN}},
         "overrides: num_epochs must be >= 0"),
    ])
    def test_train_names_section(self, tmp_path, capsys, doc, message):
        path = self.write(tmp_path, doc)
        assert cli_main(["train", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()


class TestCEMDefault:
    def test_true_env_control_plans_like_train(self, tmp_path, monkeypatch):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump({"overrides": {"trial_length": 15}}))
        seen = {}

        def pets_run(cfg, out_dir):
            seen["train"] = cfg.cem
            return LearningCurve()

        def true_env_cem_control(env_name, cem_config, *args, **kwargs):
            seen["true-env-control"] = cem_config
            return [0.0]

        monkeypatch.setattr(algorithms, "pets_run", pets_run)
        monkeypatch.setattr(diagnostics, "true_env_cem_control",
                            true_env_cem_control)
        for command in ("train", "true-env-control"):
            assert cli_main([command, "--config", str(path),
                             "--out", str(tmp_path / command)]) == 0
        cem = seen["train"]
        assert seen["true-env-control"] == cem
        assert (cem.population, cem.elite_count, cem.iterations,
                cem.initial_var, cem.alpha) == (250, 25, 5, 0.25, 0.1)


class TestArgumentErrors:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_no_subcommand_exit_2(self, capsys):
        assert cli_main([]) == 2

    def test_missing_required_flag_exit_2(self, capsys):
        assert cli_main(["train"]) == 2

    @pytest.mark.parametrize("command, flag", [
        ("visualize", "--horizon"), ("visualize", "--samples"),
        ("true-env-control", "--horizon"),
        ("true-env-control", "--episodes")])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_counts_below_one_exit_2_at_parse_time(self, tmp_path, capsys,
                                                   command, flag, value):
        # a real config, so that only the count can be at fault
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), flag, value, "--out",
                str(out)]
        if command == "visualize":
            argv += ["--model", str(tmp_path / "no.npz")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer >= 1, got '{value}'" \
            in err
        assert not out.exists()


class TestDownstreamCommands:
    def trained_run(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return cfg, out

    def test_eval_dataset(self, tmp_path, capsys):
        cfg, out = self.trained_run(tmp_path)
        eval_out = tmp_path / "eval"
        code = cli_main(["eval-dataset", "--model", str(out / "model.ckpt.npz"),
                         "--dataset", str(out / "buffer.dat"),
                         "--out", str(eval_out)])
        assert code == 0
        assert (eval_out / "summary.csv").exists()
        assert (eval_out / "dimension_0.csv").exists()
        assert "mse=" in capsys.readouterr().out

    def test_visualize(self, tmp_path, capsys):
        cfg, out = self.trained_run(tmp_path)
        vis_out = tmp_path / "vis"
        code = cli_main(["visualize", "--config", str(cfg),
                         "--model", str(out / "model.ckpt.npz"),
                         "--horizon", "5", "--samples", "2",
                         "--out", str(vis_out)])
        assert code == 0
        for d in range(4):
            path = vis_out / f"rollout_dim_{d}.csv"
            assert path.exists()
            lines = path.read_text().strip().splitlines()
            assert lines[0] == "time,true,sample_0,sample_1"
            assert len(lines) == 6

    def test_true_env_control(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "ctrl"
        code = cli_main(["true-env-control", "--config", str(cfg),
                         "--horizon", "5", "--episodes", "1",
                         "--out", str(out)])
        assert code == 0
        lines = (out / "returns.csv").read_text().strip().splitlines()
        assert lines[0] == "episode,episode_return"
        assert len(lines) == 2

    def test_eval_dataset_missing_model_exit_1(self, tmp_path):
        assert cli_main(["eval-dataset", "--model",
                         str(tmp_path / "no.npz"),
                         "--dataset", str(tmp_path / "no.dat")]) == 1
