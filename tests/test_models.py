import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrlkit.data import (BootstrapIterator, ReplayBuffer, Transition,
                          TransitionBatch, TransitionIterator, ValidationError)
from mbrlkit.models import (GaussianMLPEnsemble, MemberGroups, ModelEnv,
                            ModelTrainer, TransitionRewardWrapper,
                            gaussian_nll_loss, load_model, mse_loss,
                            save_model)
from mbrlkit.nets import AdamState
from mbrlkit.envs import no_termination


def make_batch(obs, action, next_obs, reward=None, done=None):
    obs = np.asarray(obs, dtype=np.float64)
    action = np.asarray(action, dtype=np.float64)
    next_obs = np.asarray(next_obs, dtype=np.float64)
    n = obs.shape[0]
    if reward is None:
        reward = np.zeros(n)
    if done is None:
        done = np.zeros(n, dtype=bool)
    return TransitionBatch(obs, action, next_obs, np.asarray(reward, dtype=np.float64), done)


def linear_system_batch(rng, n, obs_dim=2, act_dim=1, noise=0.0):
    """next_obs = A obs + B act (+ noise); reward = sum of next_obs."""
    a_mat = np.array([[0.9, 0.1], [-0.05, 0.95]])
    b_mat = np.array([[0.1], [0.2]])
    obs = rng.standard_normal((n, obs_dim))
    act = rng.standard_normal((n, act_dim))
    next_obs = obs @ a_mat.T + act @ b_mat.T
    if noise:
        next_obs = next_obs + noise * rng.standard_normal(next_obs.shape)
    return make_batch(obs, act, next_obs, reward=next_obs.sum(axis=1))


class TestLosses:
    def test_mse_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert mse_loss(x, x) == 0.0

    def test_mse_single_sample(self):
        assert mse_loss(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 25.0

    def test_mse_sum_convention(self):
        pred = np.array([[0.0], [0.0]])
        target = np.array([[1.0], [np.sqrt(3.0)]])
        assert mse_loss(pred, target) == pytest.approx(4.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValidationError):
            mse_loss(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_nll_zero_residual_unit_variance(self):
        x = np.ones((3, 2))
        assert gaussian_nll_loss(x, np.zeros_like(x), x) == 0.0

    def test_nll_unit_error(self):
        assert gaussian_nll_loss(np.array([[0.0]]), np.array([[0.0]]),
                                 np.array([[1.0]])) == pytest.approx(1.0)

    def test_nll_logdet_penalty(self):
        assert gaussian_nll_loss(np.array([[0.0]]), np.array([[2.0]]),
                                 np.array([[0.0]])) == pytest.approx(2.0)

    def test_nll_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            gaussian_nll_loss(np.array([[np.nan]]), np.array([[0.0]]),
                              np.array([[0.0]]))

    def test_nll_matches_direct_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            mu = rng.standard_normal((4, 3))
            lv = rng.uniform(-3, 3, (4, 3))
            t = rng.standard_normal((4, 3))
            direct = 0.0
            for b in range(4):
                sigma = np.diag(np.exp(lv[b]))
                err = mu[b] - t[b]
                direct += err @ np.linalg.inv(sigma) @ err
                direct += np.log(np.linalg.det(sigma))
            ours = gaussian_nll_loss(mu, lv, t)
            assert abs(ours - direct) <= 1e-9 * max(1.0, abs(direct))


class TestEnsembleForward:
    def test_deterministic_has_no_logvar(self):
        m = GaussianMLPEnsemble(3, 2, ensemble_size=2, deterministic=True,
                                num_layers=2, hid_size=8,
                                rng=np.random.default_rng(0))
        mean, logvar = m.forward(np.zeros((4, 3)))
        assert logvar is None
        assert mean.shape == (2, 4, 2)

    def test_broadcast_to_all_members(self):
        m = GaussianMLPEnsemble(3, 2, ensemble_size=5, num_layers=2,
                                hid_size=8, rng=np.random.default_rng(0))
        mean, logvar = m.forward(np.zeros((7, 3)))
        assert mean.shape == (5, 7, 2)
        assert logvar.shape == (5, 7, 2)

    def test_logvar_soft_bound_saturation(self):
        m = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=1,
                                rng=np.random.default_rng(0))
        lv, _ = m._bound_logvar(np.array([[1e6]]))
        assert lv[0, 0] <= m.max_logvar[0] + 1e-3
        lv, _ = m._bound_logvar(np.array([[-1e6]]))
        assert lv[0, 0] >= m.min_logvar[0] - 1e-3

    def test_bounds_hold_elementwise(self):
        m = GaussianMLPEnsemble(2, 3, ensemble_size=2, num_layers=2,
                                hid_size=8, rng=np.random.default_rng(1))
        _, logvar = m.forward(np.random.default_rng(0).standard_normal((50, 2)))
        assert np.all(logvar <= m.max_logvar + 1e-9)
        assert np.all(logvar >= m.min_logvar - 1e-9)


class TestEnsembleMean:
    def _constant_ensemble(self, values, out=1):
        m = GaussianMLPEnsemble(2, out, ensemble_size=len(values),
                                num_layers=1, deterministic=True,
                                rng=np.random.default_rng(0))
        for member, v in zip(m.members, values):
            member.weights[0][:] = 0.0
            member.biases[0][:] = v
        return m

    def test_two_members(self):
        m = self._constant_ensemble([1.0, 3.0])
        assert m.ensemble_mean_predict(np.zeros((1, 2)))[0, 0] == 2.0

    def test_single_member(self):
        m = self._constant_ensemble([7.0])
        assert m.ensemble_mean_predict(np.zeros((1, 2)))[0, 0] == 7.0

    def test_elite_subset_of_seven(self):
        rng = np.random.default_rng(3)
        m = GaussianMLPEnsemble(2, 2, ensemble_size=7, num_layers=2,
                                hid_size=8, rng=rng)
        elites = [0, 2, 4, 6, 1]
        m.set_elite(elites)
        x = rng.standard_normal((5, 2))
        mean, _ = m.forward(x)
        manual = sum(mean[j] for j in elites) / len(elites)
        assert np.array_equal(m.ensemble_mean_predict(x), manual)

    def test_permuting_members_preserves_mean(self):
        rng = np.random.default_rng(4)
        m = GaussianMLPEnsemble(2, 1, ensemble_size=3, num_layers=2,
                                hid_size=4, rng=rng)
        x = rng.standard_normal((6, 2))
        before = m.ensemble_mean_predict(x)
        mean_before, _ = m.forward(x)
        m.members = [m.members[2], m.members[0], m.members[1]]
        mean_after, _ = m.forward(x)
        assert np.array_equal(mean_after[0], mean_before[2])
        assert np.array_equal(mean_after[1], mean_before[0])
        assert np.allclose(m.ensemble_mean_predict(x), before)


class TestWrapperProcessing:
    def _wrapper(self, **kwargs):
        model = GaussianMLPEnsemble(
            3, 2 + (1 if kwargs.get("learned_rewards") else 0),
            ensemble_size=2, num_layers=2, hid_size=8, deterministic=True,
            rng=np.random.default_rng(0))
        return TransitionRewardWrapper(model, 2, 1, **kwargs)

    def test_stationary_transition_zero_delta(self):
        w = self._wrapper()
        batch = make_batch([[1.0, 1.0]], [[0.0]], [[1.0, 1.0]])
        _, target = w.process_batch(batch)
        assert np.array_equal(target, [[0.0, 0.0]])

    def test_learned_reward_column(self):
        w = self._wrapper(learned_rewards=True)
        batch = make_batch([[1.0, 2.0]], [[0.0]], [[1.5, 2.5]], reward=[0.5])
        _, target = w.process_batch(batch)
        assert target.shape == (1, 3)
        assert np.array_equal(target, [[0.5, 0.5, 0.5]])

    def test_absolute_targets_passthrough(self):
        w = self._wrapper(target_is_delta=False)
        batch = make_batch([[1.0, 2.0]], [[0.0]], [[5.0, 6.0]])
        _, target = w.process_batch(batch)
        assert np.array_equal(target, [[5.0, 6.0]])

    def test_delta_consistency_on_sample(self):
        # sample(sample=False) minus obs equals the raw delta prediction
        w = self._wrapper()
        rng = np.random.default_rng(0)
        obs = rng.standard_normal((4, 2))
        act = rng.standard_normal((4, 1))
        assignment = np.zeros(4, dtype=int)
        next_obs, _ = w.sample(obs, act, rng, sample=False,
                               member_assignment=assignment)
        x = w.normalizer.normalize(np.concatenate([obs, act], axis=1))
        raw = w.model.members[0].forward(x)
        assert np.array_equal(next_obs, obs + raw)


class TestWrapperSample:
    def test_deterministic_sampling_is_noop(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=8, deterministic=True,
                                    rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        obs = np.random.default_rng(1).standard_normal((5, 2))
        act = np.zeros((5, 1))
        assignment = np.array([0, 1, 0, 1, 0])
        a, _ = w.sample(obs, act, np.random.default_rng(0), sample=True,
                        member_assignment=assignment)
        b, _ = w.sample(obs, act, np.random.default_rng(99), sample=False,
                        member_assignment=assignment)
        assert np.array_equal(a, b)

    def test_floored_variance_collapses_to_mean(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=2,
                                    hid_size=8, rng=np.random.default_rng(0))
        model.min_logvar[:] = -60.0
        model.max_logvar[:] = -50.0
        w = TransitionRewardWrapper(model, 2, 1)
        obs = np.zeros((100, 2))
        act = np.zeros((100, 1))
        assignment = np.zeros(100, dtype=int)
        drawn, _ = w.sample(obs, act, np.random.default_rng(0), sample=True,
                            member_assignment=assignment)
        mean, _ = w.sample(obs, act, np.random.default_rng(0), sample=False,
                           member_assignment=assignment)
        assert np.max(np.abs(drawn - mean)) < 1e-9

    def test_reproducible_given_seed(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=2,
                                    hid_size=8, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        obs = np.random.default_rng(2).standard_normal((6, 2))
        act = np.zeros((6, 1))
        assignment = np.array([0, 1, 2, 0, 1, 2])
        a, _ = w.sample(obs, act, np.random.default_rng(5), sample=True,
                        member_assignment=assignment)
        b, _ = w.sample(obs, act, np.random.default_rng(5), sample=True,
                        member_assignment=assignment)
        assert np.array_equal(a, b)


class TestUpdateAndScore:
    def test_identical_members_stay_identical(self):
        rng = np.random.default_rng(0)
        m = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                hid_size=8, rng=rng)
        # force identical initial weights
        m.members[1].set_parameters(m.members[0].parameters())
        x = rng.standard_normal((10, 3))
        t = rng.standard_normal((10, 2))
        opt = AdamState(lr=1e-3)
        m.update(np.stack([x, x]), np.stack([t, t]), opt)
        assert np.array_equal(m.members[0].get_flat(), m.members[1].get_flat())

    def test_nll_decreases_on_fixed_dataset(self):
        rng = np.random.default_rng(1)
        batch = linear_system_batch(rng, 100)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=3,
                                    hid_size=32, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1, target_is_delta=True)
        w.update_normalizer(batch)
        x, t = w.process_batch(batch)
        opt = AdamState(lr=1e-3)
        initial = model.loss(x, t).mean()
        for _ in range(500):
            model.update(x, t, opt)
        final = model.loss(x, t).mean()
        assert final <= 0.5 * initial

    def test_deterministic_fits_linear_system(self):
        rng = np.random.default_rng(2)
        batch = linear_system_batch(rng, 200)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=3,
                                    hid_size=32, deterministic=True, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1)
        w.update_normalizer(batch)
        x, t = w.process_batch(batch)
        opt = AdamState(lr=3e-3)
        for _ in range(1500):
            model.update(x, t, opt)
        mse = model.eval_score(x, t).mean()
        assert mse < 1e-4

    def test_perfect_member_scores_zero(self):
        m = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=1,
                                deterministic=True,
                                rng=np.random.default_rng(0))
        m.members[0].weights[0] = np.array([[1.0, 0.0]])
        m.members[0].biases[0] = np.zeros(1)
        x = np.random.default_rng(0).standard_normal((20, 2))
        t = x[:, :1]
        assert np.all(m.eval_score(x, t) == 0.0)

    def test_constant_predictor_bias_variance(self):
        m = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=1,
                                deterministic=True,
                                rng=np.random.default_rng(0))
        m.members[0].weights[0][:] = 0.0
        c = 1.5
        m.members[0].biases[0][:] = c
        rng = np.random.default_rng(1)
        t = rng.standard_normal((5000, 1)) * 2.0 + 0.5
        x = np.zeros((5000, 2))
        score = float(m.eval_score(x, t).mean())
        expected = t.var() + (c - t.mean()) ** 2
        assert score == pytest.approx(expected, rel=1e-9)

    def test_elite_ranking_order(self):
        scores = np.array([0.3, 0.1, 0.2])
        elites = np.argsort(scores, kind="stable")[:2].tolist()
        assert set(elites) == {1, 2}

    def test_eval_score_does_not_mutate(self):
        m = GaussianMLPEnsemble(2, 1, ensemble_size=2, num_layers=2,
                                hid_size=4, rng=np.random.default_rng(0))
        before = m.get_flat()
        m.eval_score(np.zeros((3, 2)), np.zeros((3, 1)))
        assert np.array_equal(before, m.get_flat())


class TestTrainer:
    def _dataset(self, rng, n=200, noise=0.01):
        return linear_system_batch(rng, n, noise=noise)

    def test_frozen_lr_stops_after_patience(self):
        rng = np.random.default_rng(0)
        batch = self._dataset(rng)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=8, deterministic=True, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1)
        trainer = ModelTrainer(w, lr=0.0)
        train_iter = BootstrapIterator(batch, 64, 2, np.random.default_rng(0))
        report = trainer.train(train_iter, num_epochs=50, patience=1)
        assert report.stopped_early
        assert len(report.train_losses) == 2
        assert report.best_epoch == 1

    def test_linear_data_converges(self):
        rng = np.random.default_rng(1)
        batch = self._dataset(rng, n=500, noise=0.0)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=5, num_layers=3,
                                    hid_size=32, deterministic=True, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1)
        w.update_normalizer(batch)
        trainer = ModelTrainer(w, lr=3e-3)
        train_iter = BootstrapIterator(batch[:400], 64, 5,
                                       np.random.default_rng(2))
        val_iter = TransitionIterator(batch[400:], 64,
                                      np.random.default_rng(3),
                                      shuffle_each_epoch=False)
        report = trainer.train(train_iter, val_iter, num_epochs=60,
                               patience=60)
        assert report.best_score < 1e-3

    def test_elite_count_five_of_seven(self):
        rng = np.random.default_rng(2)
        batch = self._dataset(rng, n=100)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=7, num_layers=2,
                                    hid_size=8, deterministic=True, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1)
        trainer = ModelTrainer(w, elite_count=5)
        train_iter = BootstrapIterator(batch, 32, 7, np.random.default_rng(0))
        report = trainer.train(train_iter, num_epochs=3, patience=3)
        assert len(report.elite_indices) == 5
        assert model.elite_indices == report.elite_indices

    def test_best_score_monotone_at_snapshots(self):
        rng = np.random.default_rng(3)
        batch = self._dataset(rng, n=300)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=2,
                                    hid_size=16, deterministic=True, rng=rng)
        w = TransitionRewardWrapper(model, 2, 1)
        w.update_normalizer(batch)
        trainer = ModelTrainer(w, lr=1e-3)
        train_iter = BootstrapIterator(batch, 64, 3, np.random.default_rng(0))
        report = trainer.train(train_iter, num_epochs=30, patience=30)
        # recorded best at each snapshot epoch is non-increasing
        best = np.inf
        for scores in report.val_scores:
            elite_mean = np.sort(scores)[:3].mean()
            if elite_mean < best:
                best = elite_mean
        assert report.best_score == pytest.approx(best, rel=1e-12)


class TestCalibration:
    def test_probabilistic_recovers_noise_std(self):
        # y = x + N(0, 0.1^2); predictive std on held-out inputs in [0.07, 0.14]
        rng = np.random.default_rng(0)
        n = 4000
        obs = rng.uniform(-1, 1, (n, 1))
        act = np.zeros((n, 1))
        next_obs = obs + 0.1 * rng.standard_normal((n, 1))
        batch = make_batch(obs, act, next_obs)
        model = GaussianMLPEnsemble(2, 1, ensemble_size=1, num_layers=3,
                                    hid_size=24, rng=rng)
        w = TransitionRewardWrapper(model, 1, 1, target_is_delta=False)
        w.update_normalizer(batch)
        trainer = ModelTrainer(w, lr=2e-3)
        train_iter = BootstrapIterator(batch, 512, 1, np.random.default_rng(1))
        trainer.train(train_iter, num_epochs=300, patience=300)
        held_out = np.concatenate(
            [rng.uniform(-1, 1, (500, 1)), np.zeros((500, 1))], axis=1)
        x = w.normalizer.normalize(held_out)
        _, logvar = model.forward(x)
        stds = np.exp(0.5 * logvar[0])
        assert 0.07 <= np.median(stds) <= 0.14


class TestModelEnv:
    def _env(self, ensemble_size=5, elite=None, term_fn=no_termination,
             reward_fn=None, deterministic=True, seed=0):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=ensemble_size,
                                    num_layers=2, hid_size=8,
                                    deterministic=deterministic,
                                    rng=np.random.default_rng(seed))
        if elite is not None:
            model.set_elite(elite)
        w = TransitionRewardWrapper(model, 2, 1)
        if reward_fn is None:
            reward_fn = lambda act, next_obs: np.ones(len(next_obs))
        return ModelEnv(w, term_fn, reward_fn)

    def test_single_particle_reset(self):
        menv = self._env()
        state = menv.reset(np.zeros(2), np.random.default_rng(0))
        assert state.obs.shape == (1, 2)
        assert state.member_assignment.shape == (1,)

    def test_member_assignment_frequencies(self):
        menv = self._env(elite=[0, 1, 2, 3, 4])
        state = menv.reset(np.zeros((1000, 2)), np.random.default_rng(0))
        counts = np.bincount(state.member_assignment, minlength=5)
        assert np.all(np.abs(counts - 200) <= 0.05 * 1000)

    def test_reset_deterministic(self):
        menv = self._env()
        s1 = menv.reset(np.zeros((50, 2)), np.random.default_rng(7))
        s2 = menv.reset(np.zeros((50, 2)), np.random.default_rng(7))
        assert np.array_equal(s1.member_assignment, s2.member_assignment)

    def test_no_termination_keeps_dones_false(self):
        menv = self._env()
        rng = np.random.default_rng(0)
        state = menv.reset(np.zeros((4, 2)), rng)
        for _ in range(5):
            _, _, dones, state = menv.step(state, np.zeros((4, 1)), rng)
        assert not dones.any()

    def test_analytic_reward_overrides_learned(self):
        model = GaussianMLPEnsemble(3, 3, ensemble_size=1, num_layers=2,
                                    hid_size=8, deterministic=True,
                                    rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1, learned_rewards=True)
        menv = ModelEnv(w, no_termination,
                        reward_fn=lambda a, o: np.full(len(o), 42.0))
        rng = np.random.default_rng(0)
        state = menv.reset(np.zeros((3, 2)), rng)
        _, rewards, _, _ = menv.step(state, np.zeros((3, 1)), rng)
        assert np.all(rewards == 42.0)

    def test_done_particles_frozen(self):
        # terminate particle 0 on the first step, then check it is frozen
        calls = {"n": 0}

        def term_fn(act, next_obs):
            out = np.zeros(len(next_obs), dtype=bool)
            if calls["n"] == 0:
                out[0] = True
            calls["n"] += 1
            return out

        menv = self._env(term_fn=term_fn)
        rng = np.random.default_rng(0)
        state = menv.reset(np.zeros((2, 2)), rng)
        obs1, r1, d1, state = menv.step(state, np.zeros((2, 1)), rng)
        assert d1[0] and not d1[1]
        obs2, r2, d2, state = menv.step(state, np.zeros((2, 1)), rng)
        assert np.array_equal(obs2[0], obs1[0])
        assert r2[0] == 0.0 and r2[1] != 0.0
        assert d2[0]


def per_member_reference(wrapper, obs, act, assignment, rng, sample):
    """Member m forwards the rows assigned to it, in ascending particle
    order, one member at a time; then one (P, D) noise block."""
    model = wrapper.model
    x = wrapper.normalizer.normalize(np.concatenate([obs, act], axis=1))
    mu = np.empty((len(x), model.out_size))
    logvar = np.empty_like(mu)
    for m in np.unique(assignment):
        rows = np.flatnonzero(assignment == m)
        mu[rows], lv = model.member_forward(int(m), x[rows])
        if lv is not None:
            logvar[rows] = lv
    if sample and not model.deterministic:
        mu = mu + np.exp(0.5 * logvar) * rng.standard_normal(mu.shape)
    return obs + mu


def per_particle_reference(wrapper, obs, act, assignment):
    """Each particle alone through its own member's mean head."""
    x = wrapper.normalizer.normalize(np.concatenate([obs, act], axis=1))
    return obs + np.concatenate([
        wrapper.model.member_forward(int(m), x[i:i + 1])[0]
        for i, m in enumerate(assignment)])


@st.composite
def grouped_cases(draw):
    """A small ensemble, the members present (an elite subset, possibly
    leaving members without particles) and a particle count that need not
    divide by the ensemble size."""
    e = draw(st.integers(min_value=1, max_value=5))
    present = draw(st.lists(st.integers(min_value=0, max_value=e - 1),
                            min_size=1, max_size=e, unique=True))
    p = draw(st.integers(min_value=1, max_value=37))
    return {
        "ensemble_size": e,
        "present": present,
        "assignment": np.array(draw(st.lists(st.sampled_from(present),
                                             min_size=p, max_size=p))),
        "activation": draw(st.sampled_from(["relu", "silu"])),
        "deterministic": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
    }


def grouped_wrapper(case):
    rng = np.random.default_rng(case["seed"])
    model = GaussianMLPEnsemble(3, 2, ensemble_size=case["ensemble_size"],
                                num_layers=3, hid_size=8,
                                activation=case["activation"],
                                deterministic=case["deterministic"], rng=rng)
    model.set_elite(case["present"])
    w = TransitionRewardWrapper(model, 2, 1)
    w.update_normalizer(linear_system_batch(rng, 30))
    return w, rng


class TestGroupedSampling:
    """Particles grouped once per rollout (`MemberGroups`) give the results
    of forwarding each member's particles on their own."""

    @given(grouped_cases())
    @settings(max_examples=60, deadline=None)
    def test_sample_matches_references(self, case):
        w, rng = grouped_wrapper(case)
        assignment = case["assignment"]
        p = len(assignment)
        obs = rng.standard_normal((p, 2))
        act = rng.standard_normal((p, 1))
        groups = MemberGroups.from_assignment(assignment,
                                              case["ensemble_size"])
        expected = per_member_reference(w, obs, act, assignment,
                                        np.random.default_rng(1), True)
        for kwargs in ({"member_assignment": assignment},
                       {"groups": groups}):
            got, _ = w.sample(obs, act, np.random.default_rng(1),
                              sample=True, **kwargs)
            assert np.array_equal(got, expected)
        # each particle alone gives the same rows up to rounding: a row's
        # matmul result depends on how many rows share the BLAS call
        mean, _ = w.sample(obs, act, rng, sample=False, groups=groups)
        np.testing.assert_allclose(
            mean, per_particle_reference(w, obs, act, assignment),
            rtol=1e-12, atol=1e-12)

    @given(grouped_cases(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_rollout_matches_reference_and_freezes(self, case, horizon):
        w, rng = grouped_wrapper(case)
        p = len(case["assignment"])
        menv = ModelEnv(w, lambda a, o: np.abs(o[:, 0]) > 1.0,
                        reward_fn=lambda a, o: o.sum(axis=1) + 1.0)
        obs0 = rng.standard_normal((p, 2)) * 0.7
        actions = rng.standard_normal((horizon, p, 1))
        state = menv.reset(obs0, np.random.default_rng(2))
        assignment = state.member_assignment
        assert set(assignment.tolist()) <= set(case["present"])
        sample = not case["deterministic"]
        env_rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        ref_obs, ref_done = obs0.copy(), np.zeros(p, dtype=bool)
        for t in range(horizon):
            was_done = state.done
            prev_obs = state.obs
            obs, rewards, dones, state = menv.step(state, actions[t], env_rng,
                                                   sample=sample)
            pred = per_member_reference(w, ref_obs, actions[t], assignment,
                                        ref_rng, sample)
            ref_next = np.where(ref_done[:, None], ref_obs, pred)
            ref_rewards = np.where(ref_done, 0.0, ref_next.sum(axis=1) + 1.0)
            ref_done = ref_done | (np.abs(ref_next[:, 0]) > 1.0)
            ref_obs = ref_next
            assert np.array_equal(obs, ref_obs)
            assert np.array_equal(rewards, ref_rewards)
            assert np.array_equal(dones, ref_done)
            # frozen particles never move and earn nothing
            assert np.array_equal(obs[was_done], prev_obs[was_done])
            assert np.all(rewards[was_done] == 0.0)
            assert np.all(dones[was_done])

    def test_groups_order_and_bounds(self):
        groups = MemberGroups.from_assignment(np.array([2, 0, 2, 2, 0]), 4)
        assert groups.order.tolist() == [1, 4, 0, 2, 3]
        assert groups.bounds.tolist() == [0, 2, 2, 5, 5]

    def test_bad_assignment_rejected(self):
        with pytest.raises(ValidationError):
            MemberGroups.from_assignment(np.array([0, 3]), 3)
        with pytest.raises(ValidationError):
            MemberGroups.from_assignment(np.array([0, -1]), 3)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        groups = MemberGroups.from_assignment(np.array([0, 1, 1]), 2)
        with pytest.raises(ValidationError):
            w.sample(np.zeros((2, 2)), np.zeros((2, 1)),
                     np.random.default_rng(0), groups=groups)


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                    hid_size=16, rng=rng)
        model.set_elite([2, 0])
        w = TransitionRewardWrapper(model, 2, 1, target_is_delta=True)
        w.update_normalizer(linear_system_batch(rng, 50))
        path = tmp_path / "model.ckpt.npz"
        save_model(w, path)
        loaded = load_model(path)
        assert loaded.model.elite_indices == [2, 0]
        assert loaded.target_is_delta and not loaded.learned_rewards
        x = rng.standard_normal((5, 3))
        a_mean, a_lv = model.forward(x)
        b_mean, b_lv = loaded.model.forward(x)
        assert np.array_equal(a_mean, b_mean)
        assert np.array_equal(a_lv, b_lv)
        assert np.array_equal(w.normalizer.mean, loaded.normalizer.mean)
