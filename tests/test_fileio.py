"""Crash-safe artifact writes: a write that fails midway leaves the previous
file as it was and no temporary file behind."""

import json

import numpy as np
import pytest

from mbrlkit import algorithms, config, data, diagnostics, models
from mbrlkit.algorithms import LearningCurve
from mbrlkit.cli import cli_main
from mbrlkit.data import ReplayBuffer
from mbrlkit.fileio import replace_on_success
from mbrlkit.models import (GaussianMLPEnsemble, TrainerReport,
                            TransitionRewardWrapper, save_model)
from mbrlkit.nets import load_arrays


class Interrupted(Exception):
    pass


def failing_after(calls, fn):
    """fn, raising Interrupted on its (calls + 1)-th call."""
    count = 0

    def wrapped(*args, **kwargs):
        nonlocal count
        count += 1
        if count > calls:
            raise Interrupted
        return fn(*args, **kwargs)

    return wrapped


def filled_buffer(n):
    buf = ReplayBuffer(10)
    for i in range(n):
        buf.add(np.full(2, float(i)), np.zeros(1), np.full(2, i + 1.0),
                float(i), False)
    return buf


def small_wrapper(seed):
    model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                hid_size=4, rng=np.random.default_rng(seed))
    return TransitionRewardWrapper(model, 2, 1)


def curve(returns):
    out = LearningCurve()
    for i, ret in enumerate(returns, start=1):
        out.append(i, 200 * i, ret, 5, 0.0)
    return out


def leftovers(directory, name):
    return sorted(p.name for p in directory.iterdir() if p.name != name)


class TestReplaceOnSuccess:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with replace_on_success(path) as tmp:
            with open(tmp, "w") as f:
                f.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert leftovers(tmp_path, "out.txt") == []

    def test_failure_keeps_old_file_and_removes_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with pytest.raises(Interrupted):
            with replace_on_success(path) as tmp:
                with open(tmp, "w") as f:
                    f.write("half")
                raise Interrupted
        assert path.read_text() == "old"
        assert leftovers(tmp_path, "out.txt") == []

    def test_temp_name_keeps_suffix(self, tmp_path):
        with replace_on_success(tmp_path / "model.ckpt.npz") as tmp:
            assert tmp.endswith("model.ckpt.npz")
            np.savez(tmp, a=np.zeros(1))
        assert leftovers(tmp_path, "") == ["model.ckpt.npz"]


class TestArtifactsAreNotTorn:
    """Each artifact pets_run writes, interrupted midway by a failing call
    inside its writer."""

    def test_results_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "results.csv"
        curve([7.0]).save(path)
        before = path.read_bytes()
        # the second row's repr fails: header and first row are written
        monkeypatch.setattr(algorithms, "repr", failing_after(1, repr),
                            raising=False)
        with pytest.raises(Interrupted):
            curve([1.0, 2.0, 3.0]).save(path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "results.csv") == []

    def test_buffer_dat(self, tmp_path, monkeypatch):
        path = tmp_path / "buffer.dat"
        filled_buffer(2).save(path)
        before = path.read_bytes()
        # two of the four rows' seven values are written, then a repr fails
        monkeypatch.setattr(data, "repr", failing_after(14, repr),
                            raising=False)
        with pytest.raises(Interrupted):
            filled_buffer(4).save(path)
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "buffer.dat") == []

    def test_model_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt.npz"
        save_model(small_wrapper(0), path)
        before = path.read_bytes()
        real_savez = np.savez

        def savez_then_fail(file, **arrays):
            with open(file, "wb") as f:
                f.write(b"PK\x03\x04 torn")
            raise Interrupted

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(Interrupted):
            save_model(small_wrapper(1), path)
        monkeypatch.setattr(np, "savez", real_savez)
        assert path.read_bytes() == before
        load_arrays(path)
        assert leftovers(tmp_path, "model.ckpt.npz") == []

    def test_checkpoint_without_npz_suffix_gets_it(self, tmp_path):
        save_model(small_wrapper(0), tmp_path / "model.ckpt")
        assert leftovers(tmp_path, "") == ["model.ckpt.npz"]

    def test_trainer_report(self, tmp_path, monkeypatch):
        path = tmp_path / "trainer_report.json"
        TrainerReport(train_losses=[1.0]).save(path)
        before = path.read_bytes()

        def dump_then_fail(obj, f, **kwargs):
            f.write('{"train_losses": [')
            raise Interrupted

        monkeypatch.setattr(models.json, "dump", dump_then_fail)
        with pytest.raises(Interrupted):
            TrainerReport(train_losses=[2.0]).save(path)
        monkeypatch.undo()
        assert json.loads(path.read_text())["train_losses"] == [1.0]
        assert path.read_bytes() == before
        assert leftovers(tmp_path, "trainer_report.json") == []

    def test_config_snapshot(self, tmp_path, monkeypatch):
        path = tmp_path / "config.yaml"
        cfg = config.RunConfig(overrides={"num_trials": 3})
        config.save_config_snapshot(cfg, path)
        before = path.read_bytes()

        def dump_then_fail(doc, f, **kwargs):
            f.write("agent: {}\n")
            raise Interrupted

        monkeypatch.setattr(config.yaml, "safe_dump", dump_then_fail)
        with pytest.raises(Interrupted):
            config.save_config_snapshot(
                config.RunConfig(overrides={"num_trials": 4}), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert config.load_config(path).overrides == {"num_trials": 3}
        assert leftovers(tmp_path, "config.yaml") == []

    def test_true_env_control_returns_csv(self, tmp_path, monkeypatch):
        class FailingRepr(float):
            def __repr__(self):
                raise Interrupted

        cfg = tmp_path / "cartpole.yaml"
        cfg.write_text("overrides: {env: cartpole_continuous}\n")
        out = tmp_path / "ctrl"
        out.mkdir()
        path = out / "returns.csv"
        path.write_text("episode,episode_return\n0,200.0\n")
        before = path.read_bytes()
        # the first episode's row is written, then the second one's fails
        monkeypatch.setattr(diagnostics, "true_env_cem_control",
                            lambda *args, **kwargs: [7.0, FailingRepr(8.0)])
        with pytest.raises(Interrupted):
            cli_main(["true-env-control", "--config", str(cfg),
                      "--episodes", "2", "--out", str(out)])
        assert path.read_bytes() == before
        assert leftovers(out, "returns.csv") == []

    def test_eval_dataset_csvs(self, tmp_path, monkeypatch):
        def table(value):
            pairs = np.full((3, 2), value)
            return diagnostics.EvaluationTable(pairs, pairs, np.zeros(2),
                                               np.ones(2))

        table(1.0).save(tmp_path)
        names = ["dimension_0.csv", "dimension_1.csv", "summary.csv"]
        before = {n: (tmp_path / n).read_bytes() for n in names}
        # dimension 0 is replaced; dimension 1's second row fails
        monkeypatch.setattr(diagnostics, "repr", failing_after(9, repr),
                            raising=False)
        with pytest.raises(Interrupted):
            table(2.0).save(tmp_path)
        assert (tmp_path / "dimension_1.csv").read_bytes() == \
            before["dimension_1.csv"]
        assert (tmp_path / "summary.csv").read_bytes() == before["summary.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        # the summary's second row fails after both dimensions are replaced
        monkeypatch.setattr(diagnostics, "repr", failing_after(14, repr),
                            raising=False)
        with pytest.raises(Interrupted):
            table(3.0).save(tmp_path)
        assert (tmp_path / "summary.csv").read_bytes() == before["summary.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_rollout_comparison_csvs(self, tmp_path, monkeypatch):
        true_traj = np.zeros((3, 2))
        diagnostics.save_rollout_comparison(true_traj, np.zeros((2, 3, 2)),
                                            tmp_path)
        names = ["rollout_dim_0.csv", "rollout_dim_1.csv"]
        before = {n: (tmp_path / n).read_bytes() for n in names}
        # dimension 0 is replaced; dimension 1's second row fails
        monkeypatch.setattr(diagnostics, "repr", failing_after(10, repr),
                            raising=False)
        with pytest.raises(Interrupted):
            diagnostics.save_rollout_comparison(
                true_traj, np.ones((2, 3, 2)), tmp_path)
        assert (tmp_path / "rollout_dim_0.csv").read_bytes() != \
            before["rollout_dim_0.csv"]
        assert (tmp_path / "rollout_dim_1.csv").read_bytes() == \
            before["rollout_dim_1.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
