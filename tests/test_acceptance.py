"""End-to-end acceptance checks.

Each test prints a `[acceptance] <name>: PASS <detail>` line so a full run
doubles as a capability report. Tolerances are pinned in the asserts; the
long-running control checks are also marked `slow` but stay in the default
run.
"""

import time

import numpy as np
import pytest

from mbrlkit.algorithms import PETSConfig, pets_run
from mbrlkit.data import BootstrapIterator, ReplayBuffer, train_val_split
from mbrlkit.diagnostics import dataset_evaluate, true_env_cem_control
from mbrlkit.envs import no_termination
from mbrlkit.models import (GaussianMLPEnsemble, ModelEnv, ModelTrainer,
                            TransitionRewardWrapper, gaussian_nll_loss,
                            mse_loss)
from mbrlkit.planning import (CEMConfig, cem_optimize,
                              evaluate_action_sequences)


def report(name, detail):
    print(f"\n[acceptance] {name}: PASS {detail}")


class TestGradientCorrectness:
    def test_analytic_matches_finite_differences(self):
        """50 random architectures/inputs, max relative error < 1e-4."""
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        worst = 0.0
        for case in range(50):
            in_size = int(rng.integers(1, 5))
            out_size = int(rng.integers(1, 4))
            depth = int(rng.integers(1, 4))
            width = int(rng.integers(2, 10))
            activation = "silu" if rng.random() < 0.5 else "relu"
            from mbrlkit.nets import DenseNet
            net = DenseNet([in_size] + [width] * depth + [out_size],
                           activation=activation, rng=rng)
            x = rng.standard_normal((3, in_size))
            target = rng.standard_normal((3, out_size))

            def loss(flat):
                net.set_flat(flat)
                return float(np.sum((net.forward(x) - target) ** 2))

            flat = net.get_flat()
            net.forward(x, cache=True)
            w_g, b_g, _ = net.backward(2.0 * (net.forward(x) - target))
            analytic = np.concatenate(
                [g.ravel() for pair in zip(w_g, b_g) for g in pair])
            h = 1e-5
            numeric = np.empty_like(flat)
            for i in range(flat.size):
                xp, xm = flat.copy(), flat.copy()
                xp[i] += h
                xm[i] -= h
                numeric[i] = (loss(xp) - loss(xm)) / (2 * h)
            net.set_flat(flat)
            denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        elapsed = time.monotonic() - t0
        assert worst < 1e-4
        assert elapsed < 60.0
        report("gradient check",
               f"max rel err {worst:.2e} over 50 configs in {elapsed:.1f}s")


class TestLossOracles:
    def test_mse_and_nll_match_direct_evaluation(self):
        """1000 random cases, relative error < 1e-9 for both losses."""
        rng = np.random.default_rng(1)
        worst_mse, worst_nll = 0.0, 0.0
        for _ in range(1000):
            b = int(rng.integers(1, 8))
            d = int(rng.integers(1, 5))
            pred = rng.standard_normal((b, d))
            target = rng.standard_normal((b, d))
            logvar = rng.uniform(-3, 1, size=(b, d))

            direct_mse = sum((pred[i, j] - target[i, j]) ** 2
                             for i in range(b) for j in range(d))
            got_mse = mse_loss(pred, target)
            worst_mse = max(worst_mse,
                            abs(got_mse - direct_mse) / abs(direct_mse))

            direct_nll = sum(
                (pred[i, j] - target[i, j]) ** 2 / np.exp(logvar[i, j])
                + logvar[i, j] for i in range(b) for j in range(d))
            got_nll = gaussian_nll_loss(pred, logvar, target)
            worst_nll = max(worst_nll,
                            abs(got_nll - direct_nll) / max(abs(direct_nll),
                                                            1e-300))
        assert worst_mse < 1e-9
        assert worst_nll < 1e-9
        report("loss oracles",
               f"mse rel err {worst_mse:.2e}, nll rel err {worst_nll:.2e} "
               f"over 1000 cases")


class TestEnsembleMean:
    def test_matches_manual_elite_averaging(self):
        """Exact equality with manual member averaging, incl. E=7/elite=5."""
        rng = np.random.default_rng(2)
        checked = 0
        for ensemble_size, elite_count in [(1, 1), (3, 3), (5, 5), (7, 5)]:
            for deterministic in (True, False):
                model = GaussianMLPEnsemble(
                    3, 2, ensemble_size=ensemble_size, num_layers=2,
                    hid_size=8, deterministic=deterministic, rng=rng)
                elites = rng.permutation(ensemble_size)[:elite_count]
                model.set_elite(elites)
                x = rng.standard_normal((6, 3))
                got = model.ensemble_mean_predict(x)
                manual = np.mean(
                    [model.members[int(m)].forward(x)[:, :2] for m in elites],
                    axis=0)
                assert np.array_equal(got, manual)
                checked += 1
        report("ensemble mean", f"exact on {checked} randomized ensembles "
                                "including E=7/elite=5")


class TestBootstrapStatistics:
    def test_unique_fraction_near_one_minus_inverse_e(self):
        """With-replacement resampling of N=1000 keeps 60-66% unique."""
        n = 1000
        buf = ReplayBuffer(n)
        for i in range(n):
            buf.add(np.array([float(i)]), np.zeros(1), np.zeros(1), 0.0,
                    False)
        data = buf.get_all()
        fractions = []
        for seed in range(20):
            it = BootstrapIterator(data, 100, ensemble_size=2,
                                   rng=np.random.default_rng(seed))
            for member in range(2):
                unique = len(np.unique(it.member_indices[member]))
                fractions.append(unique / n)
        lo, hi = min(fractions), max(fractions)
        assert 0.60 <= lo and hi <= 0.66
        report("bootstrap statistics",
               f"unique fraction in [{lo:.3f}, {hi:.3f}] over 20 seeds "
               f"(expected ~0.632)")


class TestCEMConvergence:
    def test_quadratic_optimum_20_of_20_seeds(self):
        """Solution within 0.1 of x*=3 in at most 10 iterations, all seeds."""
        cfg = CEMConfig(population=500, elite_count=50, iterations=10,
                        initial_var=25.0, alpha=0.0)
        errors = []
        for seed in range(20):
            res = cem_optimize(lambda x: -((x[:, 0] - 3.0) ** 2), cfg,
                               np.zeros(1), -10.0, 10.0,
                               np.random.default_rng(seed))
            errors.append(abs(res.solution[0] - 3.0))
        assert max(errors) < 0.1
        report("cem convergence",
               f"worst |x-3| = {max(errors):.4f} across 20 seeds")

    def test_elite_refit_exact_when_unsmoothed(self):
        """With alpha=0 the refit equals the direct top-k mean/variance."""
        cfg = CEMConfig(population=64, elite_count=8, iterations=3,
                        initial_var=9.0, alpha=0.0)
        populations = []

        def objective(x):
            if x.shape[0] == cfg.population:
                populations.append(x.copy())
            return -np.sum((x - 1.5) ** 2, axis=1)

        res = cem_optimize(objective, cfg, np.zeros(2), -10.0, 10.0,
                           np.random.default_rng(0))
        assert len(populations) == cfg.iterations
        last = populations[-1]
        values = -np.sum((last - 1.5) ** 2, axis=1)
        top = last[np.argsort(-values, kind="stable")[:8]]
        assert np.array_equal(res.solution, top.mean(axis=0))
        report("cem elite refit", "final mean equals direct top-k mean "
                                  "exactly (alpha=0)")


class TestSmallInstancePlannerOracle:
    def test_matches_exhaustive_unroll(self):
        """evaluate_action_sequences equals hand unrolling exactly for
        every (h, N) with h <= 3, N <= 4 and a deterministic model."""
        rng = np.random.default_rng(3)
        model = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=1,
                                    deterministic=True, rng=rng)
        # delta = action exactly
        model.members[0].weights[0][:] = 0.0
        model.members[0].weights[0][0, 1] = 1.0
        model.members[0].biases[0][:] = 0.0
        wrapper = TransitionRewardWrapper(model, 1, 1)
        menv = ModelEnv(wrapper, no_termination,
                        reward_fn=lambda act, next_obs: next_obs[:, 0]
                        - 0.5 * act[:, 0] ** 2)
        cases = 0
        for h in (1, 2, 3):
            for n in (1, 2, 3, 4):
                seqs = rng.standard_normal((n, h, 1))
                obs0 = rng.standard_normal(1)
                got = evaluate_action_sequences(menv, obs0, seqs, 1,
                                                np.random.default_rng(0))
                for i in range(n):
                    obs = np.float64(obs0[0])
                    expected = np.float64(0.0)
                    for t in range(h):
                        obs = obs + seqs[i, t, 0]
                        expected += obs - 0.5 * seqs[i, t, 0] ** 2
                    assert got[i] == expected
                    cases += 1
        report("small-instance planner oracle",
               f"exact on {cases} hand-unrolled returns (h<=3, N<=4)")


@pytest.mark.slow
class TestTrueEnvControl:
    def test_cartpole_return_at_least_190(self):
        """CEM-based MPC on the true dynamics keeps the pole up."""
        t0 = time.monotonic()
        cfg = CEMConfig(population=200, elite_count=20, iterations=5,
                        initial_var=0.25)
        returns = true_env_cem_control("cartpole_continuous", cfg,
                                       horizon=25, episodes=1, seed=0)
        elapsed = time.monotonic() - t0
        assert returns[0] >= 190.0
        assert elapsed < 600.0
        report("true-env cem control",
               f"return {returns[0]:.0f}/200 in {elapsed:.0f}s")


@pytest.mark.slow
class TestEndToEndPETS:
    def test_cartpole_learning(self):
        """Deterministic E=5 ensemble reaches a last-3-of-20-trial mean
        return >= 180 on at least 2 of 3 seeds, and the probabilistic
        variant exceeds 180 within 30 trials."""
        t0 = time.monotonic()
        successes, failures, per_seed = 0, 0, []
        for seed in (0, 1, 2):
            cfg = PETSConfig(use_silu=False, num_trials=20, seed=seed)
            curve = pets_run(cfg)
            last3 = np.mean([r["episode_return"] for r in curve.rows[-3:]])
            per_seed.append((seed, last3))
            if last3 >= 180.0:
                successes += 1
            else:
                failures += 1
            if successes >= 2 or failures >= 2:
                break
        assert successes >= 2, f"per-seed last-3 means: {per_seed}"

        # the probabilistic variant needs a larger random seed dataset:
        # early sampled rollouts are noise-dominated until the predicted
        # variances tighten, so with only 200 seed steps the first trials
        # stay short and data accumulates too slowly
        prob_cfg = PETSConfig(use_silu=False, deterministic=False,
                              initial_exploration_steps=1000,
                              num_trials=30, seed=0, stop_on_return=180.0)
        prob_curve = pets_run(prob_cfg)
        best = max(r["episode_return"] for r in prob_curve.rows)
        solved_at = next(r["trial"] for r in prob_curve.rows
                         if r["episode_return"] >= 180.0)
        assert best >= 180.0
        elapsed = time.monotonic() - t0
        assert elapsed < 2700.0
        report("end-to-end pets",
               f"deterministic last-3 means {per_seed}; probabilistic "
               f"reached {best:.0f} at trial {solved_at}; total {elapsed:.0f}s")


class TestDeterminism:
    def test_same_seed_byte_identical_results(self, tmp_path):
        """Two identically-seeded full runs write identical results.csv."""
        def run(out):
            cfg = PETSConfig(
                num_trials=3, trial_length=25, initial_exploration_steps=25,
                ensemble_size=2, elite_count=2, num_layers=2, hid_size=8,
                num_epochs=3, patience=3, horizon=5, particles=2,
                cem=CEMConfig(population=30, elite_count=3, iterations=2,
                              initial_var=0.25),
                seed=11)
            pets_run(cfg, out_dir=out)
            return (out / "results.csv").read_bytes()

        a = run(tmp_path / "a")
        b = run(tmp_path / "b")
        assert a == b
        report("determinism", f"results.csv byte-identical ({len(a)} bytes)")


class TestCalibration:
    def test_predictive_std_recovered(self):
        """Probabilistic model on y = x + N(0, 0.1^2): held-out predictive
        std within [0.07, 0.14]."""
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        n = 4000
        x = rng.uniform(-1, 1, size=(n, 1))
        y = x + rng.normal(0.0, 0.1, size=(n, 1))

        buf = ReplayBuffer(n)
        for i in range(n):
            buf.add(x[i], np.zeros(1), x[i] + y[i], 0.0, False)
        model = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=2,
                                    hid_size=24, deterministic=False, rng=rng)
        wrapper = TransitionRewardWrapper(model, 1, 1)
        wrapper.update_normalizer(buf.get_all())
        trainer = ModelTrainer(wrapper, lr=2e-3, elite_count=1)
        train_iter, _ = train_val_split(buf, 0.0, 512, rng, ensemble_size=1)
        trainer.train(train_iter, None, num_epochs=300, patience=300)

        x_test = rng.uniform(-0.8, 0.8, size=(512, 1))
        inputs = wrapper.normalizer.normalize(
            np.concatenate([x_test, np.zeros((512, 1))], axis=1))
        mean, logvar = model.members[0].forward(inputs)[:, :1], None
        raw = model.members[0].forward(inputs)
        logvar = model._bound_logvar(raw[:, 1:])[0]
        median_std = float(np.median(np.exp(0.5 * logvar)))
        elapsed = time.monotonic() - t0
        assert 0.07 <= median_std <= 0.14
        assert elapsed < 120.0
        report("calibration",
               f"median predictive std {median_std:.4f} (true 0.1) "
               f"in {elapsed:.0f}s")


class TestDiagnosticsIntegrity:
    def test_summary_recomputable_and_distribution_shift_ordering(self, tmp_path):
        """Emitted per-dimension pairs reproduce the summary exactly, and
        model error is lower on-distribution than off-distribution."""
        rng = np.random.default_rng(0)
        from mbrlkit.envs import CartPoleContinuousEnv

        def collect(buf, angle_scale):
            env = CartPoleContinuousEnv()
            while buf.size < buf.capacity:
                obs = env.reset(rng)
                env.state = env.state * angle_scale
                obs = env.state.copy()
                for _ in range(50):
                    act = rng.uniform(-1, 1, size=1)
                    next_obs, reward, done = env.step(act)
                    buf.add(obs, act, next_obs, reward, done)
                    obs = next_obs
                    if done or buf.size == buf.capacity:
                        break

        train_buf = ReplayBuffer(1000)
        collect(train_buf, 1.0)

        model = GaussianMLPEnsemble(5, 4, ensemble_size=2, num_layers=2,
                                    hid_size=32, deterministic=True, rng=rng)
        wrapper = TransitionRewardWrapper(model, 4, 1)
        wrapper.update_normalizer(train_buf.get_all())
        trainer = ModelTrainer(wrapper, lr=3e-3, elite_count=2)
        train_iter, _ = train_val_split(train_buf, 0.0, 128, rng,
                                        ensemble_size=2)
        trainer.train(train_iter, None, num_epochs=100, patience=100)

        table = dataset_evaluate(wrapper, train_buf)
        table.save(tmp_path)
        import csv
        for d in range(4):
            with open(tmp_path / f"dimension_{d}.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            pred = np.array([float(r["predicted"]) for r in rows])
            targ = np.array([float(r["target"]) for r in rows])
            assert ((pred - targ) ** 2).mean() == table.mse[d]

        # off-distribution: large angles/velocities the model never saw
        off_buf = ReplayBuffer(500)
        env = CartPoleContinuousEnv()
        while off_buf.size < off_buf.capacity:
            env.state = np.array([rng.uniform(-2, 2), rng.uniform(-3, 3),
                                  rng.uniform(-0.2, 0.2) + np.pi / 16,
                                  rng.uniform(-3, 3)])
            obs = env.state.copy()
            act = rng.uniform(-1, 1, size=1)
            next_obs, reward, done = env.step(act)
            off_buf.add(obs, act, next_obs, reward, done)
        on_mse = float(dataset_evaluate(wrapper, train_buf).mse.mean())
        off_mse = float(dataset_evaluate(wrapper, off_buf).mse.mean())
        assert on_mse < off_mse
        report("diagnostics integrity",
               f"summary exact; on-distribution mse {on_mse:.2e} < "
               f"off-distribution mse {off_mse:.2e}")
