import re
from pathlib import Path

import numpy as np
import pytest

from mbrlkit.algorithms import (LearningCurve, PETSConfig, build_wrapper,
                                pets_run, rollout_agent_trajectories,
                                train_model_on_buffer)
from mbrlkit.data import ReplayBuffer, ValidationError
from mbrlkit.envs import EnvSpec, no_termination
from mbrlkit.models import GaussianMLPEnsemble, ModelTrainer
from mbrlkit.nets import AdamState, DenseNet, load_arrays
from mbrlkit.planning import CEMConfig, RandomAgent


class ScriptedEnv:
    """Counts up deterministically; done every `episode_len` steps."""

    spec = EnvSpec("scripted", obs_dim=1, act_dim=1, action_low=-1.0,
                   action_high=1.0, trial_length=50, dt=1.0)

    def __init__(self, episode_len=None):
        self.episode_len = episode_len
        self.t = 0
        self.resets = 0

    def reset(self, rng):
        self.t = 0
        self.resets += 1
        return np.array([0.0])

    def step(self, action):
        self.t += 1
        done = self.episode_len is not None and self.t >= self.episode_len
        return np.array([float(self.t)]), 1.0, done


class TestRolloutAgentTrajectories:
    def test_zero_steps(self):
        env = ScriptedEnv()
        buf = ReplayBuffer(10)
        n = rollout_agent_trajectories(env, 0, RandomAgent(1, -1, 1), buf,
                                       np.random.default_rng(0))
        assert n == 0 and buf.size == 0 and env.resets == 0

    def test_exact_step_count(self):
        env = ScriptedEnv()
        buf = ReplayBuffer(200)
        n = rollout_agent_trajectories(env, 123, RandomAgent(1, -1, 1), buf,
                                       np.random.default_rng(0),
                                       trial_length=50)
        assert n == 123 and buf.size == 123
        assert env.resets == 3  # 50 + 50 + 23

    def test_done_triggers_reset(self):
        env = ScriptedEnv(episode_len=7)
        buf = ReplayBuffer(100)
        rollout_agent_trajectories(env, 21, RandomAgent(1, -1, 1), buf,
                                   np.random.default_rng(0), trial_length=50)
        assert env.resets == 3
        done = buf.get_all().done
        assert done.sum() == 3
        assert np.flatnonzero(done).tolist() == [6, 13, 20]

    def test_observation_chain_recorded(self):
        env = ScriptedEnv()
        buf = ReplayBuffer(10)
        rollout_agent_trajectories(env, 5, RandomAgent(1, -1, 1), buf,
                                   np.random.default_rng(0), trial_length=10)
        batch = buf.get_all()
        assert batch.obs[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert batch.next_obs[:, 0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def small_cfg(**overrides):
    base = dict(
        env="cartpole_continuous", num_trials=2, trial_length=20,
        initial_exploration_steps=20, model_retrain_interval=250,
        ensemble_size=2, elite_count=2, num_layers=2, hid_size=8,
        num_epochs=2, patience=2, horizon=3, particles=2,
        cem=CEMConfig(population=20, elite_count=2, iterations=2,
                      initial_var=0.25),
        seed=0,
    )
    base.update(overrides)
    return PETSConfig(**base)


class TestTrainModelOnBuffer:
    def test_split_and_report(self):
        cfg = small_cfg()
        rng = np.random.default_rng(0)
        buf = ReplayBuffer(100)
        env = ScriptedEnv()
        # use cartpole-shaped data instead: random transitions
        for i in range(60):
            buf.add(rng.standard_normal(4), rng.standard_normal(1),
                    rng.standard_normal(4), float(i), False)
        wrapper = build_wrapper(cfg, 4, 1, rng)
        trainer = ModelTrainer(wrapper, lr=cfg.lr, elite_count=cfg.elite_count)
        report = train_model_on_buffer(wrapper, trainer, buf, 0.2, 16, rng,
                                       num_epochs=3, patience=3)
        assert len(report.train_losses) == 3
        assert len(report.val_scores) == 3
        assert len(report.elite_indices) == cfg.elite_count
        # normalizer was refit on the whole buffer's (obs, action) inputs
        batch = buf.get_all()
        inputs = np.concatenate([batch.obs, batch.action], axis=1)
        assert np.allclose(wrapper.normalizer.mean, inputs.mean(axis=0))

    def test_deterministic(self):
        def run():
            cfg = small_cfg()
            rng = np.random.default_rng(1)
            buf = ReplayBuffer(50)
            data_rng = np.random.default_rng(2)
            for i in range(40):
                buf.add(data_rng.standard_normal(4),
                        data_rng.standard_normal(1),
                        data_rng.standard_normal(4), 1.0, False)
            wrapper = build_wrapper(cfg, 4, 1, rng)
            trainer = ModelTrainer(wrapper, lr=cfg.lr,
                                   elite_count=cfg.elite_count)
            train_model_on_buffer(wrapper, trainer, buf, 0.0, 16, rng,
                                  num_epochs=2, patience=2)
            return wrapper.model.get_flat()

        assert np.array_equal(run(), run())


class TestPETSRun:
    def test_zero_trials_empty_curve(self):
        curve = pets_run(small_cfg(num_trials=0))
        assert curve.rows == []

    def test_row_accounting(self):
        cfg = small_cfg()
        curve = pets_run(cfg)
        assert len(curve.rows) == 2
        assert [r["trial"] for r in curve.rows] == [1, 2]
        # env_steps includes exploration plus executed steps, monotone
        assert curve.rows[0]["env_steps"] > cfg.initial_exploration_steps
        assert curve.rows[1]["env_steps"] > curve.rows[0]["env_steps"]
        for r in curve.rows:
            assert 0.0 <= r["episode_return"] <= cfg.trial_length
            assert r["seconds"] == 0.0  # walltime recording is off by default

    def test_retrain_cadence_without_trial_start_retraining(self):
        # with trial-start retraining off, training triggers exactly when the
        # accumulated step count crosses the interval
        calls = []
        # pendulum never terminates, so the step counter advances the full
        # trial length each trial and crosses the interval mid-trial
        cfg = small_cfg(env="pendulum", num_trials=3, trial_length=100,
                        initial_exploration_steps=100,
                        model_retrain_interval=250,
                        retrain_at_trial_start=False)

        import mbrlkit.algorithms as alg
        original = alg.train_model_on_buffer

        def spy(wrapper, trainer, buffer, *args, **kwargs):
            report = original(wrapper, trainer, buffer, *args, **kwargs)
            calls.append((buffer.size, len(report.train_losses)))
            return report

        alg.train_model_on_buffer = spy
        try:
            curve = pets_run(cfg)
        finally:
            alg.train_model_on_buffer = original
        # cartpole trials end early before the model trains, but the step
        # counter still crosses 250 and 500 at buffer sizes 250 and 500
        assert calls, "model never trained"
        assert all(size % 250 == 0 for size, _ in calls)
        # a trial reports the epochs of the retrains that ran in it, and
        # none of an earlier trial's
        start = cfg.initial_exploration_steps
        for row in curve.rows:
            assert row["train_epochs"] == sum(
                epochs for size, epochs in calls
                if start <= size < row["env_steps"])
            start = row["env_steps"]

    def test_outputs_persisted(self, tmp_path):
        cfg = small_cfg()
        pets_run(cfg, out_dir=tmp_path)
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "model.ckpt.npz").exists()
        assert (tmp_path / "buffer.dat").exists()
        assert (tmp_path / "trainer_report.json").exists()
        curve = LearningCurve.load(tmp_path / "results.csv")
        assert len(curve.rows) == cfg.num_trials

    def test_plans_in_float32_trains_and_saves_float64(self, tmp_path,
                                                       monkeypatch):
        seen = set()
        real_forward = DenseNet.forward
        real_stacked = GaussianMLPEnsemble.stacked_forward
        real_step = AdamState.step

        def spy(net, x, cache=False):
            out = real_forward(net, x, cache)
            seen.add((cache, out.dtype.name))
            return out

        def stacked_spy(model, x, stack):
            out = real_stacked(model, x, stack)
            seen.add((False, out.dtype.name))
            return out

        def step_spy(optimizer, params, grads):
            seen.add(("step", params.dtype.name, grads.dtype.name))
            real_step(optimizer, params, grads)

        monkeypatch.setattr(DenseNet, "forward", spy)
        monkeypatch.setattr(GaussianMLPEnsemble, "stacked_forward",
                            stacked_spy)
        monkeypatch.setattr(AdamState, "step", step_spy)
        pets_run(small_cfg(deterministic=False), out_dir=tmp_path)
        # training (the net's cached forward and Adam's steps) and elite
        # scoring run in float64, the planning rollouts in float32
        assert seen == {("step", "float64", "float64"), (True, "float64"),
                        (False, "float64"), (False, "float32")}
        arrays, _ = load_arrays(tmp_path / "model.ckpt.npz")
        assert arrays and all(a.dtype == np.float64 for a in arrays.values())

    def test_same_seed_byte_identical_results(self, tmp_path):
        cfg = small_cfg()
        pets_run(cfg, out_dir=tmp_path / "a")
        pets_run(small_cfg(), out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_each_artifact_written_once_per_trial(self, tmp_path,
                                                  monkeypatch):
        saves = []
        for cls in (LearningCurve, ReplayBuffer):
            real = cls.save

            def spy(obj, path, real=real):
                saves.append(Path(path).name)
                real(obj, path)

            monkeypatch.setattr(cls, "save", spy)
        pets_run(small_cfg(num_trials=2), out_dir=tmp_path / "two")
        assert saves == ["results.csv", "buffer.dat"] * 2
        # a run with no trial writes a header-only curve and the
        # exploration buffer, once each
        saves.clear()
        pets_run(small_cfg(num_trials=0), out_dir=tmp_path / "none")
        assert saves == ["results.csv", "buffer.dat"]
        assert LearningCurve.load(tmp_path / "none" / "results.csv").rows \
            == []
        assert ReplayBuffer.load(tmp_path / "none" / "buffer.dat").size == 20

    def test_walltime_changes_only_the_seconds_column(self, tmp_path):
        pets_run(small_cfg(num_trials=3), out_dir=tmp_path / "off")
        pets_run(small_cfg(num_trials=3, record_walltime=True),
                 out_dir=tmp_path / "on")
        off, on = ((tmp_path / run / "results.csv").read_text().splitlines()
                   for run in ("off", "on"))
        assert len(on) == len(off) == 4
        assert on[0] == off[0]
        assert off[0].split(",")[-1] == "seconds"
        for row_on, row_off in zip(on[1:], off[1:]):
            *rest_on, seconds = row_on.split(",")
            *rest_off, seconds_off = row_off.split(",")
            assert rest_on == rest_off
            assert seconds_off == "0.000"
            assert re.fullmatch(r"\d+\.\d{3}", seconds)
            assert float(seconds) > 0.0
        for name in ("buffer.dat", "model.ckpt.npz"):
            assert (tmp_path / "on" / name).read_bytes() == \
                (tmp_path / "off" / name).read_bytes()

    def test_stop_on_return_halts_early(self):
        # every scripted trial returns trial_length, so the threshold is met
        # on the very first trial
        cfg = small_cfg(num_trials=5, stop_on_return=1.0)
        curve = pets_run(cfg)
        assert len(curve.rows) == 1
        assert curve.rows[0]["episode_return"] >= 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            pets_run(small_cfg(elite_count=99))
        with pytest.raises(ValidationError):
            pets_run(small_cfg(horizon=999))


class TestLearningCurve:
    def test_save_load_roundtrip(self, tmp_path):
        curve = LearningCurve()
        curve.append(1, 400, 187.0, 12, 0.0)
        curve.append(2, 600, 200.0, 8, 0.0)
        path = tmp_path / "results.csv"
        curve.save(path)
        loaded = LearningCurve.load(path)
        assert loaded.rows == curve.rows

    def test_header(self, tmp_path):
        curve = LearningCurve()
        path = tmp_path / "results.csv"
        curve.save(path)
        assert path.read_text().strip() == \
            "trial,env_steps,episode_return,train_epochs,seconds"

    def test_float_returns_roundtrip_exactly(self, tmp_path):
        value = 123.4567890123456789 / 7.0
        curve = LearningCurve()
        curve.append(1, 1, value, 0, 0.0)
        path = tmp_path / "r.csv"
        curve.save(path)
        assert LearningCurve.load(path).rows[0]["episode_return"] == value
