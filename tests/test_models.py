import functools
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrlkit.data import (BootstrapIterator, ReplayBuffer, TransitionBatch,
                          TransitionIterator, ValidationError)
from mbrlkit.models import (LOGVAR_BOUND_REG, GaussianMLPEnsemble,
                            MemberGroups, ModelEnv, ModelTrainer,
                            TransitionRewardWrapper, gaussian_nll_loss,
                            load_model, mse_loss, save_model)
from mbrlkit import envs
from mbrlkit.nets import (AdamState, DenseNet, _silu_buffered, load_arrays,
                          save_arrays, sigmoid, softplus)
from mbrlkit.envs import no_termination
from reference_net import ReferenceNet, silu


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


class TestLogVarianceBounds:
    def test_default_bounds_use_logaddexp_softplus(self):
        # training, scoring and float64 planning bound with nets.softplus
        m = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=2,
                                hid_size=4, rng=np.random.default_rng(0))
        m.min_logvar[...] = [-3.0, -1.5]
        m.max_logvar[...] = [0.5, 1.0]
        raw = np.random.default_rng(1).standard_normal((50, 2)) * 4.0
        z2 = m.max_logvar - np.logaddexp(0.0, m.max_logvar - raw)
        expected = m.min_logvar + np.logaddexp(0.0, z2 - m.min_logvar)
        assert np.array_equal(m._bound_logvar(raw)[0], expected)
        assert np.array_equal(m._bound_logvar(raw, grads=True)[0], expected)

    @pytest.mark.parametrize("bounds", [(-10.0, 0.5), (-3.0, 1.0),
                                        (-20.0, -2.0), (0.0, 4.0)])
    def test_closed_form_variance_matches_bounded_logvar(self, bounds):
        # planning's variance, e^min + 1 / (e^-max + e^-raw), against exp of
        # the double-softplus log-variance that training bounds with
        lo, hi = bounds
        m = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=2,
                                hid_size=4, rng=np.random.default_rng(0))
        m.min_logvar[...] = [lo, lo + 1.5]
        m.max_logvar[...] = [hi, hi - 0.25]
        raw = np.repeat(np.linspace(-800.0, 800.0, 160_001)[:, None], 2,
                        axis=1).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            var = m._variance(raw)
        assert var.dtype == np.float64
        np.testing.assert_allclose(var, np.exp(m._bound_logvar(raw)[0]),
                                   rtol=1e-13, atol=0)

    def test_closed_form_variance_saturates(self):
        m = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=2,
                                hid_size=4, rng=np.random.default_rng(0))
        m.min_logvar[...] = [-3.0, -1.5]
        m.max_logvar[...] = [0.5, 1.0]
        big = np.finfo(np.float32).max
        raw = np.array([[-np.inf] * 2, [-big] * 2, [big] * 2, [np.inf] * 2],
                       dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            var = m._variance(raw)
        assert not np.any(np.isnan(var))
        low = np.exp(m.min_logvar)
        assert np.array_equal(var[:2], [low, low])
        np.testing.assert_allclose(
            var[2:], [low + np.exp(m.max_logvar)] * 2, rtol=1e-15, atol=0)


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

    @pytest.mark.parametrize("elites", [[], [7], [-1], [0, 0, 2]])
    def test_bad_elite_sets_rejected(self, elites):
        m = GaussianMLPEnsemble(2, 2, ensemble_size=7, num_layers=2,
                                hid_size=8, rng=np.random.default_rng(3))
        with pytest.raises(ValidationError):
            m.set_elite(elites)
        assert m.elite_indices == list(range(7))

    def test_permuting_members_preserves_mean(self):
        rng = np.random.default_rng(4)
        m = GaussianMLPEnsemble(2, 1, ensemble_size=3, num_layers=2,
                                hid_size=4, rng=rng)
        x = rng.standard_normal((6, 2))
        before = m.ensemble_mean_predict(x)
        mean_before, _ = m.forward(x)
        blocks = m.params[:-2].reshape(3, -1)  # member-major; out_size 1
        blocks[...] = blocks[[2, 0, 1]]
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


def bounded_logvar(model, raw):
    """The double-softplus bound on raw, written out: (logvar, the value
    capped by max_logvar)."""
    lo, hi = model.min_logvar, model.max_logvar
    capped = hi - softplus(hi - raw)
    return lo + softplus(capped - lo), capped


def member_heads(model, e, x):
    """Member e's float64 (mean, logvar) for x (B, in), computed apart
    from the ensemble: the reference forward of its weights and the bound
    written out; logvar is None when deterministic."""
    out = ReferenceNet(model.members[e]).forward(x)
    if model.deterministic:
        return out, None
    d = model.out_size
    return out[:, :d], bounded_logvar(model, out[:, d:])[0]


def member_reference(model, e, x, target):
    """Member e's mean-per-batch loss and gradients, computed apart from
    `update`: the reference forward(cache=True) and backward of the
    member's weights, with the double-softplus bound and its gradients
    written out here.

    Returns (loss, parameter grads w0, b0, w1, b1, ..., d_min, d_max); the
    bound gradients are None when deterministic and exclude the bound
    regularizer."""
    member = ReferenceNet(model.members[e])
    b, d = x.shape[0], model.out_size
    out = member.forward(x, cache=True)
    if model.deterministic:
        err = out - target
        loss = float(np.sum(err ** 2)) / b
        upstream = 2.0 * err / b
        d_min = d_max = None
    else:
        lo, hi, raw = model.min_logvar, model.max_logvar, out[:, d:]
        logvar, capped = bounded_logvar(model, raw)
        sig_max = sigmoid(hi - raw)
        sig_min = sigmoid(capped - lo)
        err = out[:, :d] - target
        inv_var = np.exp(-logvar)
        loss = float(np.sum(err ** 2 * inv_var + logvar)) / b
        d_lv = (1.0 - err ** 2 * inv_var) / b
        upstream = np.concatenate(
            [2.0 * err * inv_var / b, d_lv * sig_min * sig_max], axis=1)
        d_max = (d_lv * sig_min * (1.0 - sig_max)).sum(axis=0)
        d_min = (d_lv * (1.0 - sig_min)).sum(axis=0)
    w_grads, b_grads, _ = member.backward(upstream)
    grads = [g for pair in zip(w_grads, b_grads) for g in pair]
    return loss, grads, d_min, d_max


class TestUpdateAndScore:
    def test_identical_members_stay_identical(self):
        rng = np.random.default_rng(0)
        m = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                hid_size=8, rng=rng)
        # force identical initial weights
        m.members[1].params[...] = m.members[0].params
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

        def loss():  # the members' mean loss, parameters left as they are
            return np.mean([member_reference(model, e, x, t)[0]
                            for e in range(model.ensemble_size)])

        initial = loss()
        for _ in range(500):
            model.update(x, t, opt)
        final = loss()
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
        m.members[0].weights[0][...] = np.array([[1.0, 0.0]])
        m.members[0].biases[0][...] = np.zeros(1)
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

    def test_eval_score_reads_the_mean_head_only(self):
        """Scores are the mean head's MSE from the members' forwards, bit
        for bit, and the log-variance head is not bounded for them: NaN
        bounds change nothing and warn of nothing."""
        rng = np.random.default_rng(4)
        m = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                hid_size=8, rng=rng)
        x = rng.standard_normal((40, 3))
        t = rng.standard_normal((40, 2))
        mean, _ = m.forward(x)
        expected = ((mean - t[None]) ** 2).mean(axis=1)
        assert np.array_equal(m.eval_score(x, t), expected)
        m.min_logvar[...] = np.nan
        m.max_logvar[...] = np.nan
        assert np.array_equal(m.eval_score(x, t), expected)

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

    @pytest.mark.parametrize("elite_count", [0, -1, 8])
    def test_elite_count_outside_members_rejected(self, elite_count):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=7, num_layers=2,
                                    hid_size=8, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        with pytest.raises(ValidationError):
            ModelTrainer(w, elite_count=elite_count)
        assert ModelTrainer(w).elite_count == 7
        assert ModelTrainer(w, elite_count=7).elite_count == 7

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cartpole_termination_runs_once_per_step(self, monkeypatch,
                                                     dtype):
        rng = np.random.default_rng(4)
        model = GaussianMLPEnsemble(5, 4, ensemble_size=3, num_layers=2,
                                    hid_size=8, deterministic=True, rng=rng)
        for member in model.members:
            member.weights[-1][...] *= 3.0
        w = TransitionRewardWrapper(model, 4, 1)
        w.normalizer.fit(rng.standard_normal((30, 5)))
        obs0 = rng.uniform(-0.1, 0.1, (8, 4))
        obs0[:, 0] = np.linspace(-2.45, 2.45, 8)
        actions = rng.uniform(-1.0, 1.0, (5, 8, 1))

        def rollout(menv):
            state = menv.reset(obs0, np.random.default_rng(5))
            steps = []
            for t in range(len(actions)):
                obs, rewards, dones, state = menv.step(
                    state, actions[t], np.random.default_rng(6))
                steps.append((obs, rewards, dones))
            return steps

        # reference: the reward called as a plain function of next_obs
        expected = rollout(ModelEnv(
            w, envs.cartpole_termination,
            lambda a, o: envs.cartpole_reward(a, o), dtype=dtype))
        calls = []
        real = envs.cartpole_termination

        def spy(actions, next_obs):
            calls.append(len(next_obs))
            return real(actions, next_obs)

        # cartpole_reward tests termination through the module's name, and
        # a copy of it is the reward of a spied termination test
        monkeypatch.setattr(envs, "cartpole_termination", spy)
        reward_fn = functools.partial(envs.cartpole_reward)
        reward_fn.alive_until = spy
        got = rollout(ModelEnv(w, spy, reward_fn, dtype=dtype))
        assert calls == [8] * len(actions)
        for step, ref in zip(got, expected):
            for a, b in zip(step, ref):
                assert np.array_equal(a, b)
        dones = got[-1][2]
        assert 0 < dones.sum() < len(dones)  # some particles ended
        monkeypatch.undo()

        def first_step(menv):
            return menv.step(menv.reset(obs0, np.random.default_rng(5)),
                             actions[0], np.random.default_rng(6))

        # under another termination test the reward is the function's own
        obs, rewards, dones, _ = first_step(
            ModelEnv(w, no_termination, envs.cartpole_reward, dtype=dtype))
        assert not dones.any() and (rewards == 0.0).any()
        assert np.array_equal(rewards, np.where(real(actions[0], obs),
                                                0.0, 1.0))

        # a wrapper of the reward (which inherits alive_until) is called
        @functools.wraps(envs.cartpole_reward)
        def shaped(actions, next_obs):
            return 2.0 * envs.cartpole_reward(actions, next_obs) - 0.5

        obs, rewards, _, _ = first_step(
            ModelEnv(w, envs.cartpole_termination, shaped, dtype=dtype))
        assert np.array_equal(rewards, np.where(real(actions[0], obs),
                                                -0.5, 1.5))


def per_member_reference(wrapper, obs, act, assignment, rng, sample):
    """Under fixed_model, member m forwards the rows assigned to it, in
    ascending particle order, one member at a time; under ensemble_mean,
    every member forwards every row and the elites' moments are averaged.
    Then one (P, D) noise block; all in float64."""
    model = wrapper.model
    x = wrapper.normalizer.normalize(np.concatenate([obs, act], axis=1))
    if wrapper.propagation == "fixed_model":
        mu = np.empty((len(x), model.out_size))
        logvar = np.empty_like(mu)
        for m in np.unique(assignment):
            rows = np.flatnonzero(assignment == m)
            mu[rows], lv = member_heads(model, int(m), x[rows])
            if lv is not None:
                logvar[rows] = lv
    else:
        mean_all, lv_all = model.forward(x)
        elites = model.elite_indices
        mu = mean_all[elites].mean(axis=0)
        if lv_all is not None:
            logvar = np.log(np.exp(lv_all[elites]).mean(axis=0))
    if sample and not model.deterministic:
        mu = mu + np.exp(0.5 * logvar) * rng.standard_normal(mu.shape)
    return obs + mu


def per_particle_reference(wrapper, obs, act, assignment):
    """Each particle alone through its own member's mean head."""
    x = wrapper.normalizer.normalize(np.concatenate([obs, act], axis=1))
    return obs + np.concatenate([
        member_heads(wrapper.model, int(m), x[i:i + 1])[0]
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
    @settings(max_examples=60)
    def test_sample_matches_references(self, case):
        w, rng = grouped_wrapper(case)
        assignment = case["assignment"]
        p = len(assignment)
        obs = rng.standard_normal((p, 2))
        act = rng.standard_normal((p, 1))
        groups = MemberGroups.from_assignment(
            assignment, range(case["ensemble_size"]))
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
    @settings(max_examples=40)
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
        # each member's block holds its particles in ascending order, then
        # padding: its last particle, or the block before's (the first
        # particle before any)
        groups = MemberGroups.from_assignment(np.array([2, 0, 2, 2, 0]),
                                              range(4))
        assert groups.members == (0, 1, 2, 3)
        assert groups.counts == (2, 0, 3, 0)
        assert groups.gather.tolist() == [[1, 4, 4], [4, 4, 4], [0, 2, 3],
                                          [3, 3, 3]]
        assert groups.unpad.tolist() == [6, 0, 7, 8, 1]
        groups = MemberGroups.from_assignment(np.array([2, 2, 1]), [1, 2])
        assert groups.counts == (1, 2)
        assert groups.gather.tolist() == [[2, 2], [0, 1]]
        assert groups.unpad.tolist() == [2, 3, 0]

    def test_member_ordered_particles_need_no_order(self, monkeypatch):
        def no_argsort(*args, **kwargs):
            raise AssertionError("member-ordered particles were sorted")

        monkeypatch.setattr(np, "argsort", no_argsort)
        groups = MemberGroups.from_assignment(np.array([0, 0, 2, 2, 2]),
                                              range(4))
        assert groups.counts == (2, 0, 3, 0)
        assert groups.gather.tolist() == [[0, 1, 1], [1, 1, 1], [2, 3, 4],
                                          [4, 4, 4]]
        assert groups.unpad.tolist() == [0, 1, 6, 7, 8]

    def test_mask_select_keeps_member_order(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=4, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        menv = ModelEnv(TransitionRewardWrapper(model, 2, 1), no_termination,
                        lambda a, o: o[:, 0])
        state = menv.reset(np.zeros((40, 2)), np.random.default_rng(0))
        state = menv.select(state, np.argsort(state.member_assignment,
                                              kind="stable"))
        keep = np.random.default_rng(1).random(40) < 0.5
        kept = menv.select(state, keep)
        assert np.array_equal(kept.obs, state.obs[keep])
        # an episode groups its particles at its first step, and keeps
        # those groups from then on
        assert kept.groups is None
        actions = np.zeros((int(keep.sum()), 1))
        rng = np.random.default_rng(2)
        _, _, _, stepped = menv.step(kept, actions, rng)
        expected = MemberGroups.from_assignment(
            state.member_assignment[keep], range(4))
        # still in member order: each particle's slot follows the last one
        assert np.all(np.diff(stepped.groups.unpad) > 0)
        assert stepped.groups.counts == expected.counts
        assert np.array_equal(stepped.groups.gather, expected.gather)
        assert np.array_equal(stepped.groups.unpad, expected.unpad)
        _, _, _, again = menv.step(stepped, actions, rng)
        assert again.groups is stepped.groups

    def test_bad_assignment_rejected(self):
        for assignment in ([0, 3], [0, -1], [0.0, 1.0], [[0, 1]]):
            with pytest.raises(ValidationError):
                MemberGroups.from_assignment(np.array(assignment), range(3))
        for members in ([], [1, 0], [0, 0, 1], [-1, 0]):
            with pytest.raises(ValidationError):
                MemberGroups.from_assignment(np.array([0, 1]), members)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        groups = MemberGroups.from_assignment(np.array([0, 1, 1]), range(2))
        with pytest.raises(ValidationError):
            w.sample(np.zeros((2, 2)), np.zeros((2, 1)),
                     np.random.default_rng(0), groups=groups)


# A float32 rollout may differ from the float64 one by this much relative to
# 1 + |value|: 100 float32 ulps, far above the few ulps that three layers of
# float32 rounding, compounded over six steps, produce.
F32_TOL = 100 * np.finfo(np.float32).eps


@st.composite
def precision_cases(draw):
    """A small ensemble (an elite subset of E members), a propagation
    method, an activation, deterministic or probabilistic heads, a
    rollout of P particles over h steps, and per input column an offset of
    the normalizer's mean from the inputs, of up to 10 standard
    deviations (a float32 stack folds the normalizer into its first
    layer, and a large offset makes that fold cancel)."""
    e = draw(st.integers(min_value=1, max_value=5))
    return {
        "ensemble_size": e,
        "elites": draw(st.lists(st.integers(min_value=0, max_value=e - 1),
                                min_size=1, max_size=e, unique=True)),
        "propagation": draw(st.sampled_from(
            TransitionRewardWrapper.PROPAGATION_METHODS)),
        "activation": draw(st.sampled_from(["relu", "silu"])),
        "deterministic": draw(st.booleans()),
        "particles": draw(st.integers(min_value=1, max_value=40)),
        "horizon": draw(st.integers(min_value=1, max_value=6)),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
        "offset": draw(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                                min_size=5, max_size=5)),
    }


def precision_env(case, dtype):
    rng = np.random.default_rng(case["seed"])
    model = GaussianMLPEnsemble(5, 4, ensemble_size=case["ensemble_size"],
                                num_layers=3, hid_size=16,
                                activation=case["activation"],
                                deterministic=case["deterministic"], rng=rng)
    model.set_elite(case["elites"])
    w = TransitionRewardWrapper(model, 4, 1, propagation=case["propagation"])
    w.normalizer.fit(rng.standard_normal((30, 5)))
    w.normalizer.mean += np.asarray(case.get("offset", 0.0)) * w.normalizer.std
    menv = ModelEnv(w, no_termination,
                    reward_fn=lambda a, o: o.sum(axis=1) + 1.0, dtype=dtype)
    p, h = case["particles"], case["horizon"]
    return menv, rng.standard_normal((p, 4)), rng.uniform(-1.0, 1.0,
                                                          (h, p, 1))


class TestFloat32Forward:
    """ModelEnv(dtype=np.float32) forwards the model in single precision and
    stays within F32_TOL of the float64 rollout, drawing the same random
    numbers; its observations and rewards are float64."""

    @given(precision_cases())
    @settings(max_examples=60)
    def test_rollout_close_to_float64(self, case):
        rollouts, rng_states = [], []
        for dtype in (np.float64, np.float32):
            menv, obs0, actions = precision_env(case, dtype)
            rng = np.random.default_rng(1)
            state = menv.reset(obs0, rng)
            steps = []
            for t in range(case["horizon"]):
                obs, rewards, _, state = menv.step(
                    state, actions[t], rng, sample=not case["deterministic"])
                assert obs.dtype == rewards.dtype == np.float64
                steps.append((obs, rewards))
            rollouts.append(steps)
            rng_states.append(rng.bit_generator.state)
        assert rng_states[0] == rng_states[1]
        for (obs64, rew64), (obs32, rew32) in zip(*rollouts):
            np.testing.assert_allclose(obs32, obs64, rtol=F32_TOL,
                                       atol=F32_TOL)
            np.testing.assert_allclose(rew32, rew64, rtol=F32_TOL,
                                       atol=4 * F32_TOL)

    @pytest.mark.parametrize("propagation",
                             TransitionRewardWrapper.PROPAGATION_METHODS)
    def test_member_forwards_run_in_env_dtype(self, propagation,
                                              monkeypatch):
        # float64 steps forward member by member, float32 ones stacked
        seen = []
        real_forward = DenseNet.forward
        real_stacked = GaussianMLPEnsemble.stacked_forward

        def spy(net, x, cache=False):
            out = real_forward(net, x, cache)
            seen.append((np.asarray(x).dtype, out.dtype))
            return out

        def stacked_spy(model, x, stack):
            out = real_stacked(model, x, stack)
            seen.append((np.asarray(x).dtype, out.dtype))
            return out

        monkeypatch.setattr(DenseNet, "forward", spy)
        monkeypatch.setattr(GaussianMLPEnsemble, "stacked_forward",
                            stacked_spy)
        case = {"ensemble_size": 3, "elites": [0, 2],
                "propagation": propagation, "activation": "silu",
                "deterministic": False, "particles": 7, "horizon": 1,
                "seed": 0}
        for dtype in (np.float32, np.float64):
            seen.clear()
            menv, obs0, actions = precision_env(case, dtype)
            rng = np.random.default_rng(1)
            menv.step(menv.reset(obs0, rng), actions[0], rng, sample=True)
            assert seen and set(seen) == {(np.dtype(dtype), np.dtype(dtype))}

    def test_ensemble_heads_are_float64(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((5, 3))
        mean, logvar = model.forward(x.astype(np.float32))
        assert mean.dtype == logvar.dtype == np.float64
        groups = MemberGroups.from_assignment(np.array([1, 0, 1, 1, 0]),
                                              range(2))
        mean, std = model.grouped_forward(x.astype(np.float32), groups)
        assert mean.dtype == std.dtype == np.float64

    def test_other_dtypes_rejected(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=1, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        for dtype in (np.float16, np.int64):
            with pytest.raises(ValidationError):
                ModelEnv(w, no_termination, lambda a, o: o[:, 0],
                         dtype=dtype)


@st.composite
def stacked_cases(draw):
    """A small ensemble, its elites (the stacked members), particles spread
    over the elites (so that some hold 0 or 1 of them), a propagation
    method, an activation and deterministic or probabilistic heads."""
    case = draw(precision_cases())
    p = case["particles"]
    case["assignment"] = np.array(draw(st.lists(
        st.sampled_from(case["elites"]), min_size=p, max_size=p)))
    case["sample"] = draw(st.booleans())
    return case


class TestStackedForward:
    """The float32 forward of planning runs all stacked members in one
    matmul per layer and stays within F32_TOL of the per-member float64
    forward."""

    @given(stacked_cases())
    @settings(max_examples=60)
    def test_matches_member_forwards(self, case):
        menv, obs, actions = precision_env(case, np.float32)
        w = menv.wrapper
        model = w.model
        assignment = case["assignment"]
        stack = model.stack_members(sorted(case["elites"]), w.normalizer)
        groups = MemberGroups.from_assignment(assignment, stack.members)
        ref_rng = np.random.default_rng(1)
        expected = per_member_reference(w, obs, actions[0], assignment,
                                        ref_rng, case["sample"])
        # with the rollout's stack and groups, and with the stack and the
        # assignment, grouped by the call
        for kwargs in ({"groups": groups, "stack": stack},
                       {"member_assignment": assignment, "stack": stack}):
            rng = np.random.default_rng(1)
            got, _ = w.sample(obs, actions[0], rng, sample=case["sample"],
                              **kwargs)
            np.testing.assert_allclose(got, expected, rtol=F32_TOL,
                                       atol=F32_TOL)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_silu_on_halved_inputs_matches_float64_silu(self):
        # a stacked SiLU layer outputs z / 2 in float32 and the activation
        # takes it to silu(z); the grid reaches |z| = 1000, where tanh
        # saturates, and the work array starts out holding garbage
        z = np.concatenate([np.linspace(-60.0, 60.0, 240_001),
                            [-1000.0, -100.0, -50.0, 50.0, 100.0, 1000.0]]
                           ).astype(np.float32)
        x = z * np.float32(0.5)
        work = np.full_like(x, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _silu_buffered(x, work)
        assert got is x and got.dtype == np.float32
        np.testing.assert_allclose(got, silu(z.astype(np.float64)),
                                   rtol=F32_TOL, atol=F32_TOL)

    @given(grouped_cases())
    @settings(max_examples=60)
    def test_padded_layout_hands_rows_back_in_order(self, case):
        assignment = case["assignment"]
        stacked = sorted(case["present"])
        groups = MemberGroups.from_assignment(assignment, stacked)
        p = len(assignment)
        m = groups.gather.shape[1]
        assert groups.gather.shape == (len(stacked), m)
        assert m == np.bincount(assignment).max()
        # every particle has a slot of its own, in its member's block, and
        # that slot holds it; the padding holds live particles
        assert np.array_equal(groups.gather.ravel()[groups.unpad],
                              np.arange(p))
        assert len(set(groups.unpad.tolist())) == p
        slot_member = np.asarray(stacked)[groups.unpad // m]
        assert np.array_equal(slot_member, assignment)
        assert set(groups.gather.ravel().tolist()) == set(range(p))
        # a member's particles fill its block in ascending order
        for s, e in enumerate(stacked):
            mine = np.flatnonzero(assignment == e)
            assert np.array_equal(groups.gather[s, :len(mine)], mine)
        # the forward hands each row back where the caller put it: the
        # particles reversed give the reversed rows
        w, rng = grouped_wrapper(case)
        x = rng.standard_normal((p, 3)).astype(np.float32)
        stack = w.model.stack_members(stacked)
        mean, _ = w.model.grouped_forward(x, groups, stack)
        rev = MemberGroups.from_assignment(assignment[::-1], stacked)
        mean_rev, _ = w.model.grouped_forward(x[::-1], rev, stack)
        np.testing.assert_allclose(mean_rev, mean[::-1], rtol=F32_TOL,
                                   atol=F32_TOL)
        alone = np.concatenate([
            member_heads(w.model, int(e), x[i:i + 1])[0]
            for i, e in enumerate(assignment)])
        np.testing.assert_allclose(mean, alone, rtol=F32_TOL, atol=F32_TOL)

    @given(precision_cases())
    @settings(max_examples=30)
    def test_weights_are_cast_at_reset(self, case):
        def rollout(menv, state, rng):
            steps = []
            for t in range(case["horizon"]):
                obs, rewards, _, state = menv.step(
                    state, actions[t], rng, sample=True)
                steps.append(np.concatenate([obs.ravel(), rewards]))
            return np.concatenate(steps)

        menv, obs0, actions = precision_env(case, np.float32)
        model = menv.wrapper.model
        before = rollout(menv, menv.reset(obs0, np.random.default_rng(1)),
                         np.random.default_rng(2))
        # a rollout reset before a write or a normalizer refit runs on the
        # weights and the normalizer of its reset
        state = menv.reset(obs0, np.random.default_rng(1))
        for member in model.members:
            member.biases[-1][...] += 0.5
        menv.wrapper.normalizer.fit(
            np.random.default_rng(3).standard_normal((30, 5)) * 2.0 + 1.0)
        assert np.array_equal(rollout(menv, state, np.random.default_rng(2)),
                              before)
        # a rollout reset after them sees both, as the float64 one does
        after = rollout(menv, menv.reset(obs0, np.random.default_rng(1)),
                        np.random.default_rng(2))
        assert not np.allclose(after, before)
        env64 = ModelEnv(menv.wrapper, menv.termination_fn, menv.reward_fn)
        after64 = rollout(env64, env64.reset(obs0, np.random.default_rng(1)),
                          np.random.default_rng(2))
        np.testing.assert_allclose(after, after64, rtol=F32_TOL,
                                   atol=4 * F32_TOL)

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_forward_independent_of_earlier_row_counts(self, activation):
        # a stack's buffers outlive each forward, and are remade whenever
        # the row count changes
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=4,
                                    hid_size=5, activation=activation,
                                    rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for b in model.net.biases:  # each member its own
            b[...] = rng.standard_normal(b.shape)
        xs = [rng.standard_normal((3, m, 3)) for m in (4, 9, 2, 9, 4)]
        kept = model.stack_members([0, 1, 2])
        for x in xs:
            fresh = model.stack_members([0, 1, 2])
            assert np.array_equal(model.stacked_forward(x, kept),
                                  model.stacked_forward(x, fresh))

    @pytest.mark.parametrize("members", [[0], [1], [0, 1]])
    def test_folding_leaves_the_parameters_alone(self, members):
        # with one output per member, a member's layer 0 picked out of the
        # arena could already be a contiguous (1, in, 1) array
        model = GaussianMLPEnsemble(5, 4, ensemble_size=2, num_layers=2,
                                    hid_size=1, rng=np.random.default_rng(0))
        model.set_elite(members)
        w = TransitionRewardWrapper(model, 4, 1)
        w.normalizer.fit(
            np.random.default_rng(1).standard_normal((30, 5)) * 3.0 + 1.0)
        params = model.params.copy()
        menv = ModelEnv(w, no_termination, reward_fn=lambda a, o: o[:, 0],
                        dtype=np.float32)
        for _ in range(2):
            menv.step(menv.reset(np.zeros((3, 4)), np.random.default_rng(2)),
                      np.zeros((3, 1)), np.random.default_rng(3))
        assert model.params.tobytes() == params.tobytes()

    @staticmethod
    def assert_exact_casts(model, stack, scales):
        """Each stacked layer i is the exact float32 cast of the member's
        weights and bias times scales[i]."""
        for i, scale in enumerate(scales):
            for s, e in enumerate(stack.members):
                member = model.members[e]
                assert np.array_equal(
                    stack.weights[i][s],
                    (member.weights[i].T * scale).astype(np.float32))
                assert np.array_equal(
                    stack.biases[i][s, 0],
                    (member.biases[i] * scale).astype(np.float32))

    def test_stacks_are_views_of_the_arena(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                    hid_size=4, rng=np.random.default_rng(0))
        for i, (w, b) in enumerate(zip(model.net.weights,
                                       model.net.biases)):
            assert np.shares_memory(w, model.params)
            assert np.shares_memory(b, model.params)
            for e, member in enumerate(model.members):
                assert np.shares_memory(w[e], member.weights[i])
                assert np.array_equal(w[e], member.weights[i])
                assert np.array_equal(b[e], member.biases[i])
        stack = model.stack_members([2, 0])
        assert stack.members == (2, 0)
        assert {a.dtype for a in stack.weights + stack.biases} == {
            np.dtype(np.float32)}
        # a SiLU stack's hidden layers hold half the member's weights and
        # bias (for the activation's z / 2 form), its output layer the
        # member's own
        self.assert_exact_casts(model, stack, (0.5, 0.5, 1.0))
        assert not np.shares_memory(stack.weights[0], model.params)

    def test_relu_stack_is_the_exact_cast(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                    hid_size=4, activation="relu",
                                    rng=np.random.default_rng(0))
        self.assert_exact_casts(model, model.stack_members([2, 0]),
                                (1.0, 1.0, 1.0))

    def test_mismatches_rejected(self):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        w = TransitionRewardWrapper(model, 2, 1)
        obs, act = np.zeros((3, 2)), np.zeros((3, 1))
        assignment = np.array([0, 2, 2])
        for members in ([0, 0], [3], [-1]):
            with pytest.raises(ValidationError):
                model.stack_members(members)
        with pytest.raises(ValidationError):  # member 2 is not stacked
            MemberGroups.from_assignment(assignment, [0, 1])
        with pytest.raises(ValidationError):  # not ascending
            MemberGroups.from_assignment(assignment, [2, 0])
        groups = MemberGroups.from_assignment(assignment, [0, 1, 2])
        with pytest.raises(ValidationError):
            model.grouped_forward(np.zeros((3, 3), np.float32), groups,
                                  model.stack_members([0, 2]))
        stack = model.stack_members([0, 1, 2], w.normalizer)
        # rows of the wrong shape, in float64 (no stack) and in float32
        for kwargs in ({}, {"stack": stack}):
            for bad_obs, bad_act in ((np.zeros((3, 3)), act),
                                     (obs, np.zeros((1, 1))),
                                     (obs, np.zeros((3, 2)))):
                with pytest.raises(ValidationError):
                    w.sample(bad_obs, bad_act, np.random.default_rng(0),
                             groups=groups, **kwargs)


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

    def test_wrong_shape_rejected(self, tmp_path):
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=2,
                                    hid_size=4, rng=np.random.default_rng(0))
        path = tmp_path / "model.ckpt.npz"
        save_model(TransitionRewardWrapper(model, 2, 1), path)
        arrays, meta = load_arrays(path)
        arrays["member1_b0"] = arrays["member1_b0"][:1]  # would broadcast
        save_arrays(path, arrays, meta)
        with pytest.raises(ValueError):
            load_model(path)


@st.composite
def arena_cases(draw):
    return {
        "ensemble_size": draw(st.integers(min_value=1, max_value=5)),
        # 1-3 hidden layers
        "num_layers": draw(st.integers(min_value=2, max_value=4)),
        "hid_size": draw(st.integers(min_value=1, max_value=6)),
        "activation": draw(st.sampled_from(["relu", "silu"])),
        "deterministic": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
    }


def arena_model(case):
    return GaussianMLPEnsemble(
        3, 2, ensemble_size=case["ensemble_size"],
        num_layers=case["num_layers"], hid_size=case["hid_size"],
        activation=case["activation"], deterministic=case["deterministic"],
        rng=np.random.default_rng(case["seed"]))


def arena_views(model):
    """Every parameter view, in the member-major order of model.params."""
    views = [p for m in model.members
             for pair in zip(m.weights, m.biases) for p in pair]
    return views + [model.min_logvar, model.max_logvar]


def assert_on_arena(model):
    """Each view lies at its own offset in model.params, and together they
    cover it."""
    offset = 0
    for view in arena_views(model):
        assert np.shares_memory(view, model.params)
        assert view.ctypes.data - model.params.ctypes.data == 8 * offset
        offset += view.size
    assert offset == model.params.size


def reference_update(model, x, target, state, lr):
    """The per-array Adam step over a list of parameter arrays, one moment
    array per parameter array, as the optimizer was before the arena."""
    params, grads = [], []
    d_min = np.zeros(model.out_size)
    d_max = np.zeros(model.out_size)
    for e, member in enumerate(model.members):
        _, g, dm, dx = member_reference(model, e, x[e], target[e])
        params += [p for pair in zip(member.weights, member.biases)
                   for p in pair]
        grads += g
        if dm is not None:
            d_min += dm
            d_max += dx
    if not model.deterministic:
        d_min -= LOGVAR_BOUND_REG
        d_max += LOGVAR_BOUND_REG
        params += [model.min_logvar, model.max_logvar]
        grads += [d_min, d_max]
    if not state["m"]:
        state["m"] = [np.zeros_like(p) for p in params]
        state["v"] = [np.zeros_like(p) for p in params]
    state["t"] += 1
    c1 = 1.0 - 0.9 ** state["t"]
    c2 = 1.0 - 0.999 ** state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)


class TestParameterArena:
    """Members, bounds, optimizer, snapshots and checkpoints share one
    float64 vector per ensemble."""

    @given(arena_cases())
    @settings(max_examples=40)
    def test_views_stay_on_the_arena(self, case):
        model = arena_model(case)
        assert model.params.dtype == np.float64
        assert_on_arena(model)
        assert not any(b.any() for m in model.members for b in m.biases)
        trained = arena_views(model)
        if model.deterministic:
            trained = trained[:-2]
        assert np.array_equal(model.get_flat(),
                              np.concatenate([v.ravel() for v in trained]))
        rng = np.random.default_rng(case["seed"])
        batch = linear_system_batch(rng, 40, noise=0.1)
        wrapper = TransitionRewardWrapper(model, 2, 1)
        wrapper.update_normalizer(batch)
        # a large step size, so that the best epoch is often not the last
        report = ModelTrainer(wrapper, lr=0.2).train(
            BootstrapIterator(batch, 16, model.ensemble_size, rng),
            num_epochs=4, patience=4)
        assert_on_arena(model)
        # the restored parameters score as they did at the best epoch
        np.testing.assert_allclose(wrapper.eval_score(batch).mean(axis=1),
                                   report.val_scores[report.best_epoch - 1],
                                   rtol=1e-9)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt.npz"
            save_model(wrapper, path)
            loaded = load_model(path).model
        assert_on_arena(loaded)
        assert np.array_equal(loaded.params, model.params)

    @given(arena_cases())
    @settings(max_examples=20)
    def test_rebinding_raises(self, case):
        model = arena_model(case)
        member = model.members[-1]
        with pytest.raises(TypeError):
            member.weights[0] = np.zeros_like(member.weights[0])
        with pytest.raises(TypeError):
            member.biases[-1] = np.zeros_like(member.biases[-1])
        with pytest.raises(TypeError):
            model.members[0] = member
        assert_on_arena(model)

    @given(arena_cases(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_adam_matches_per_array_reference(self, case, steps):
        model = arena_model(case)
        reference = arena_model(case)
        rng = np.random.default_rng(case["seed"] + 1)
        e = case["ensemble_size"]
        optimizer = AdamState(lr=1e-2)
        state = {"m": [], "v": [], "t": 0}
        for _ in range(steps):
            x = rng.standard_normal((e, 8, 3))
            target = rng.standard_normal((e, 8, 2))
            model.update(x, target, optimizer)
            reference_update(reference, x, target, state, lr=1e-2)
            assert np.array_equal(model.params, reference.params)
        assert optimizer.step_count == state["t"] == steps

    @given(arena_cases())
    @settings(max_examples=20)
    def test_update_reuses_one_gradient_vector(self, case):
        """Every step hands Adam the same gradient vector, laid out like the
        trained parameters, instead of a new concatenation."""
        model = arena_model(case)
        seen = []  # keeps every step's arrays alive

        class Recording(AdamState):
            def step(self, params, grads):
                seen.append((params, grads))
                super().step(params, grads)

        rng = np.random.default_rng(case["seed"])
        e = case["ensemble_size"]
        optimizer = Recording(lr=1e-2)
        for _ in range(3):
            model.update(rng.standard_normal((e, 8, 3)),
                         rng.standard_normal((e, 8, 2)), optimizer)
        first = seen[0][1]
        for params, grads in seen:
            assert grads.shape == params.shape
            assert grads.ctypes.data == first.ctypes.data
            assert not np.shares_memory(grads, model.params)


def held_arrays(model):
    """The arrays that the ensemble, its net and its members hold, through
    attributes, dicts, lists and tuples, other than views of its parameter
    and gradient vectors."""
    found, todo = [], [vars(model), vars(model.net)] + [
        vars(m) for m in model.members]
    while todo:
        item = todo.pop()
        if isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple)):
            todo.extend(item)
        elif isinstance(item, np.ndarray) and not (
                np.shares_memory(item, model.params)
                or np.shares_memory(item, model._grads)):
            found.append(item)
    return found


class Recording(AdamState):
    """Adam that keeps a copy of the parameters and of the gradient vector
    it is handed at each step."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.seen = []

    def step(self, params, grads):
        self.seen.append((params.copy(), grads.copy()))
        super().step(params, grads)


def central_differences(f, flat, h=1e-5):
    grad = np.empty_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


class TestStackedUpdate:
    """`update` runs every member in one stacked pass; each member's
    gradient is that of its own loss, and the pass's work arrays live no
    longer than one `ModelTrainer.train` call."""

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "silu"])
    @pytest.mark.parametrize("num_layers", [1, 2, 3])
    @pytest.mark.parametrize("ensemble_size", [1, 2, 3])
    def test_gradient_matches_central_differences(
            self, ensemble_size, num_layers, activation, deterministic):
        """The vector handed to Adam is the gradient of the members' summed
        mean losses plus the bound regularizer, for a full batch (8 rows)
        and then a short last batch (3 rows)."""
        seed = 100 * ensemble_size + 10 * num_layers + deterministic
        rng = np.random.default_rng(seed)
        model = GaussianMLPEnsemble(
            3, 2, ensemble_size=ensemble_size, num_layers=num_layers,
            hid_size=4, activation=activation, deterministic=deterministic,
            rng=rng)
        # nonzero biases: with zero ones a row whose units are all off puts
        # the next layer exactly on ReLU's kink, where differences halve
        for bias in model.net.biases:
            bias[...] = rng.normal(scale=0.1, size=bias.shape)
        # bounds inside the usual range, so that both softplus terms bend
        model.min_logvar[...] = [-1.0, -0.5]
        model.max_logvar[...] = [0.5, 1.0]
        optimizer = Recording(lr=1e-2)
        batches = [(rng.standard_normal((ensemble_size, b, 3)),
                    rng.standard_normal((ensemble_size, b, 2)))
                   for b in (8, 3)]
        with model.net.keep_work_arrays():
            for x, target in batches:
                model.update(x, target, optimizer)
        loss_fn = mse_loss if deterministic else gaussian_nll_loss
        for (x, target), (params, analytic) in zip(batches, optimizer.seen):

            def objective(flat):
                model.set_flat(flat)
                mean, logvar = model.forward(x)
                heads = (mean,) if deterministic else (mean, logvar)
                total = sum(loss_fn(*(h[e] for h in heads), target[e])
                            for e in range(ensemble_size)) / x.shape[1]
                if not deterministic:
                    total += LOGVAR_BOUND_REG * (model.max_logvar.sum()
                                                 - model.min_logvar.sum())
                return total

            numeric = central_differences(objective, params)
            denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-3)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "silu"])
    @pytest.mark.parametrize("ensemble_size", [1, 2, 3])
    def test_no_hidden_layer_matches_reference(self, ensemble_size,
                                               activation, deterministic):
        """num_layers=1 (one affine layer a member), which `arena_cases`
        does not draw: bit for bit the per-array reference."""
        case = {"ensemble_size": ensemble_size, "num_layers": 1,
                "hid_size": 4, "activation": activation,
                "deterministic": deterministic, "seed": 7}
        model, reference = arena_model(case), arena_model(case)
        rng = np.random.default_rng(8)
        optimizer = AdamState(lr=1e-2)
        state = {"m": [], "v": [], "t": 0}
        for rows in (8, 8, 3):
            x = rng.standard_normal((ensemble_size, rows, 3))
            target = rng.standard_normal((ensemble_size, rows, 2))
            losses = model.update(x, target, optimizer)
            assert np.array_equal(
                losses, [member_reference(reference, e, x[e], target[e])[0]
                         for e in range(ensemble_size)])
            reference_update(reference, x, target, state, lr=1e-2)
            assert np.array_equal(model.params, reference.params)

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_non_finite_loss_raises_and_changes_nothing(self, deterministic):
        """A non-finite loss names the first such member, and the
        parameters, Adam's moments and its step count stay as they were."""
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                    hid_size=4, deterministic=deterministic,
                                    rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8, 3))
        target = rng.standard_normal((3, 8, 2))
        optimizer = AdamState(lr=1e-2)
        model.update(x, target, optimizer)
        params = model.params.copy()
        m, v = optimizer.m.copy(), optimizer.v.copy()
        x[1, 5, 0] = np.nan
        x[2, 0, 2] = np.nan
        # NaN through the bounds' logaddexp is expected here, not reported
        with pytest.raises(FloatingPointError, match="member 1$"), \
                np.errstate(invalid="ignore"):
            model.update(x, target, optimizer)
        assert np.array_equal(model.params, params)
        assert np.array_equal(optimizer.m, m)
        assert np.array_equal(optimizer.v, v)
        assert optimizer.step_count == 1

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_work_arrays_end_with_train(self, activation):
        """The ensemble holds the stacked pass's work arrays while
        `ModelTrainer.train` runs, one set for every batch size, and none
        after it returns; `update` outside `train` still works and keeps
        nothing."""
        rng = np.random.default_rng(3)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=2, num_layers=3,
                                    hid_size=4, activation=activation,
                                    rng=rng)
        wrapper = TransitionRewardWrapper(model, 2, 1)
        batch = linear_system_batch(rng, 20)
        wrapper.update_normalizer(batch)
        held = []  # arrays held as each training step starts

        def update(batch, optimizer):
            held.append(len(held_arrays(model)))
            return TransitionRewardWrapper.update(wrapper, batch, optimizer)

        wrapper.update = update
        ModelTrainer(wrapper).train(BootstrapIterator(batch, 8, 2, rng),
                                    num_epochs=2, patience=2)
        # 8, 8 and 4 rows an epoch: the first step makes the one set, and
        # the 4-row steps use the start of it
        assert held[1] > 0
        assert held == [0] + [held[1]] * 5
        assert held_arrays(model) == []
        del wrapper.update
        x, target = wrapper.process_batch(batch)
        losses = model.update(np.stack([x, x]), np.stack([target, target]),
                              AdamState())
        assert np.all(np.isfinite(losses))
        assert held_arrays(model) == []

    def test_scoring_runs_in_the_kept_arrays(self):
        """Inside `keep_work_arrays`, scoring forwards through the arrays
        that training made, and scores as it does outside the block."""
        rng = np.random.default_rng(5)
        model = GaussianMLPEnsemble(3, 2, ensemble_size=3, num_layers=3,
                                    hid_size=6, rng=rng)
        x, target = rng.standard_normal((3, 8, 3)), rng.standard_normal(
            (3, 8, 2))
        rows, row_target = rng.standard_normal((8, 3)), rng.standard_normal(
            (8, 2))
        with model.net.keep_work_arrays():
            model.update(x, target, AdamState())
            kept = list(model.net._kept)
            for a in kept:
                a.fill(np.nan)
            inside = model.eval_score(rows, row_target)
            assert [a is b for a, b in zip(model.net._kept, kept)] == [
                True] * len(kept)
            # scoring wrote its layers into the arrays training made
            assert not np.isnan(kept[0]).all()
        assert np.array_equal(inside, model.eval_score(rows, row_target))


class TestActivationChoice:
    @pytest.mark.parametrize("build", [
        lambda activation: DenseNet([3, 4, 2], activation=activation),
        lambda activation: GaussianMLPEnsemble(
            3, 2, ensemble_size=2, activation=activation)],
        ids=["DenseNet", "GaussianMLPEnsemble"])
    def test_unknown_activation_rejected(self, build):
        with pytest.raises(ValueError, match=r"unknown activation 'tanh'; "
                           r"choose from \('silu', 'relu'\)"):
            build("tanh")
