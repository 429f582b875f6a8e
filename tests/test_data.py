from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbrlkit.data import (BootstrapIterator, Normalizer, ReplayBuffer,
                          TransitionBatch, TransitionIterator,
                          ValidationError, train_val_split)

FIELDS = ("obs", "action", "next_obs", "reward", "done")


def make_transition(i, s=2, a=1, done=False):
    """The fields (obs, action, next_obs, reward, done) of transition i."""
    return (np.full(s, float(i)), np.full(a, 0.1 * i),
            np.full(s, float(i) + 1), float(i), done)


def filled_buffer(n, capacity=None, s=2, a=1):
    buf = ReplayBuffer(capacity or n)
    for i in range(n):
        buf.add(*make_transition(i, s, a))
    return buf


def rejected_adds(i):
    """Variants of transition i that add must reject, for a buffer of
    2-dim obs and 1-dim actions: a NaN or an inf in each field, an empty
    obs or action, a mismatched next_obs, and wrong obs or action dims."""
    obs, action, next_obs, reward, done = make_transition(i)
    bad = []
    for k in range(3):
        for value in (np.nan, np.inf):
            fields = [obs.copy(), action.copy(), next_obs.copy(), reward, done]
            fields[k][0] = value
            bad.append(fields)
    return bad + [
        [obs, action, next_obs, np.nan, done],
        [obs, action, next_obs, np.inf, done],
        [np.zeros(0), action, np.zeros(0), reward, done],
        [obs, np.zeros(0), next_obs, reward, done],
        [obs, action, np.zeros(3), reward, done],
        [np.zeros(3), action, np.zeros(3), reward, done],
        [obs, np.zeros(2), next_obs, reward, done],
    ]


class TestReplayBuffer:
    @pytest.mark.parametrize("k, name", [(0, "obs"), (1, "action"),
                                         (2, "next_obs")])
    def test_nonfinite_value_names_first_bad_field(self, k, name):
        fields = list(make_transition(0))
        for j in range(k, 3):
            fields[j] = fields[j].copy()
            fields[j][-1] = np.inf if j % 2 else np.nan
        buf = ReplayBuffer(2)
        with pytest.raises(ValidationError, match=f"non-finite values in "
                           f"{name}$"):
            buf.add(*fields)
        assert buf.size == 0

    def test_first_insertion(self):
        buf = ReplayBuffer(3)
        buf.add(*make_transition(1))
        assert buf.size == 1
        assert buf.get_all().obs[0, 0] == 1.0

    def test_ring_overwrite(self):
        buf = filled_buffer(3, capacity=3)
        buf.add(*make_transition(3))
        assert buf.size == 3
        # oldest (0) evicted; insertion order preserved
        assert buf.get_all().obs[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_nan_reward_rejected(self):
        buf = ReplayBuffer(3)
        obs, action, next_obs, _, done = make_transition(0)
        with pytest.raises(ValidationError):
            buf.add(obs, action, next_obs, float("nan"), done)

    def test_nonfinite_obs_rejected(self):
        buf = ReplayBuffer(3)
        obs, action, next_obs, reward, done = make_transition(0)
        obs[0] = np.inf
        with pytest.raises(ValidationError):
            buf.add(obs, action, next_obs, reward, done)

    def test_sample_single_element(self):
        buf = filled_buffer(1)
        batch = buf.sample(4, np.random.default_rng(0))
        assert len(batch) == 4
        assert np.all(batch.obs == batch.obs[0])

    def test_sample_deterministic(self):
        buf = filled_buffer(1000, capacity=1000)
        b1 = buf.sample(256, np.random.default_rng(0))
        b2 = buf.sample(256, np.random.default_rng(0))
        assert np.array_equal(b1.obs, b2.obs)
        assert np.array_equal(b1.reward, b2.reward)

    def test_sample_uniformity(self):
        buf = filled_buffer(10000, capacity=10000)
        batch = buf.sample(100000, np.random.default_rng(1))
        counts = np.bincount(batch.obs[:, 0].astype(int), minlength=10000)
        # chi-square vs uniform: statistic ~ N-1 under H0
        expected = 100000 / 10000
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 10500  # ~3.5 sigma above the dof mean
        assert abs(counts.mean() - expected) / expected < 0.05

    def test_sample_empty_errors(self):
        with pytest.raises(ValidationError):
            ReplayBuffer(4).sample(1, np.random.default_rng(0))

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40)
    def test_fifo_matches_reference_queue(self, tmp_path_factory, capacity,
                                          inserts):
        # a rejected add, whatever its fault, leaves the buffer as it was
        buf = ReplayBuffer(capacity)
        with pytest.raises(ValidationError):
            buf.add(*rejected_adds(0)[0])
        assert buf.size == 0 and buf.insert_cursor == 0
        ref = deque(maxlen=capacity)
        bad = rejected_adds(-1)
        for i in range(inserts):
            fields = make_transition(i, done=i % 3 == 0)
            buf.add(*fields)
            ref.append(fields)
            before = buf.get_all()
            size, cursor = buf.size, buf.insert_cursor
            for fields in bad:
                with pytest.raises(ValidationError):
                    buf.add(*fields)
            assert buf.size == size and buf.insert_cursor == cursor
            after = buf.get_all()
            for name in FIELDS:
                assert np.array_equal(getattr(after, name),
                                      getattr(before, name))
        # the five fields match the reference queue, oldest first
        batch = buf.get_all()
        for k, name in enumerate(FIELDS):
            got = getattr(batch, name)
            assert got.dtype == (np.bool_ if name == "done" else np.float64)
            assert np.array_equal(got, np.array([f[k] for f in ref]))
        # and round-trip through buffer.dat bit-exactly
        path = tmp_path_factory.mktemp("fifo") / "buffer.dat"
        buf.save(path)
        loaded = ReplayBuffer.load(path)
        assert (loaded.size, loaded.capacity, loaded.insert_cursor) == \
            (buf.size, capacity, buf.size % capacity)
        for name in FIELDS:
            a, b = getattr(batch, name), getattr(loaded.get_all(), name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_save_load_roundtrip(self, tmp_path):
        buf = filled_buffer(7, capacity=10)
        path = tmp_path / "buffer.dat"
        buf.save(path)
        loaded = ReplayBuffer.load(path)
        assert loaded.size == 7 and loaded.capacity == 10
        a, b = buf.get_all(), loaded.get_all()
        assert np.array_equal(a.obs, b.obs)
        assert np.array_equal(a.reward, b.reward)
        assert np.array_equal(a.done, b.done)


class TestTransitionBatch:
    def test_slicing_consistent(self):
        batch = filled_buffer(5).get_all()
        row = batch[np.array([2])]
        assert row.obs[0, 0] == 2.0 and row.reward[0] == 2.0
        with pytest.raises(ValidationError):
            batch[2]  # a lone row has no batch axis
        # a slice, a 1-D and a bootstrap-shaped 2-D index take every field
        # by the same index
        for idx in (slice(1, 4), np.array([4, 0, 2, 2]),
                    np.array([[3, 1], [0, 0], [4, 2]])):
            rows = batch[idx]
            assert isinstance(rows, TransitionBatch)
            for name in FIELDS:
                want, got = getattr(batch, name)[idx], getattr(rows, name)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    def test_leading_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TransitionBatch(np.zeros((3, 2)), np.zeros((4, 1)),
                            np.zeros((3, 2)), np.zeros(3),
                            np.zeros(3, dtype=bool))


class TestSplit:
    @pytest.mark.parametrize("n,ratio,n_train,n_val",
                             [(100, 0.05, 95, 5), (100, 0.2, 80, 20),
                              (10, 0.0, 10, None)])
    def test_split_sizes(self, n, ratio, n_train, n_val):
        buf = filled_buffer(n)
        train_iter, val_iter = train_val_split(buf, ratio, 16,
                                               np.random.default_rng(0))
        assert len(train_iter.dataset) == n_train
        if n_val is None:
            assert val_iter is None
        else:
            assert len(val_iter.dataset) == n_val
            train_ids = set(train_iter.dataset.obs[:, 0].tolist())
            val_ids = set(val_iter.dataset.obs[:, 0].tolist())
            assert not train_ids & val_ids
            assert len(train_ids | val_ids) == n

    @given(st.integers(min_value=1, max_value=60),
           st.floats(min_value=0.0, max_value=0.99))
    @settings(max_examples=40)
    def test_split_coverage(self, n, ratio):
        buf = filled_buffer(n)
        train_iter, val_iter = train_val_split(buf, ratio, 8,
                                               np.random.default_rng(3))
        ids = list(train_iter.dataset.obs[:, 0])
        if val_iter is not None:
            ids += list(val_iter.dataset.obs[:, 0])
        assert sorted(ids) == [float(i) for i in range(n)]


class TestIterators:
    def test_epoch_visits_every_index_once(self):
        data = filled_buffer(17).get_all()
        it = TransitionIterator(data, 5, np.random.default_rng(0))
        seen = np.concatenate([b.obs[:, 0] for b in it])
        assert sorted(seen.tolist()) == [float(i) for i in range(17)]

    def test_batch_sizes(self):
        data = filled_buffer(5).get_all()
        it = TransitionIterator(data, 2, np.random.default_rng(0))
        sizes = [len(b) for b in it]
        assert sizes == [2, 2, 1]

    def test_bootstrap_batch_counts_and_shape(self):
        data = filled_buffer(5).get_all()
        it = BootstrapIterator(data, 2, ensemble_size=7,
                               rng=np.random.default_rng(0))
        batches = list(it)
        assert [b.obs.shape for b in batches] == [(7, 2, 2), (7, 2, 2), (7, 1, 2)]

    def test_bootstrap_covers_member_resample(self):
        data = filled_buffer(4).get_all()
        it = BootstrapIterator(data, 2, ensemble_size=1,
                               rng=np.random.default_rng(0))
        emitted = np.concatenate([b.obs[0, :, 0] for b in it]).astype(int)
        assert sorted(emitted.tolist()) == sorted(it.member_indices[0].tolist())

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=5), st.booleans(),
           st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60)
    def test_members_draw_only_their_own_resample(self, n, batch_size,
                                                  ensemble_size, shuffle,
                                                  seed):
        data = filled_buffer(n).get_all()
        it = BootstrapIterator(data, batch_size, ensemble_size,
                               np.random.default_rng(seed),
                               shuffle_each_epoch=shuffle)
        for _ in range(2):
            batches = list(it)
            assert len(batches) == len(it)
            obs = np.concatenate([b.obs[..., 0] for b in batches], axis=1)
            reward = np.concatenate([b.reward for b in batches], axis=1)
            assert np.array_equal(obs, reward)  # whole rows, never mixed
            for e in range(ensemble_size):
                assert (sorted(obs[e].astype(int).tolist())
                        == sorted(it.member_indices[e].tolist()))

    def test_bootstrap_resamples_independent(self):
        # with N=1000 the two member resamples should essentially never match
        for seed in range(100):
            data = filled_buffer(1000, capacity=1000).get_all()
            it = BootstrapIterator(data, 100, ensemble_size=2,
                                   rng=np.random.default_rng(seed))
            assert not np.array_equal(it.member_indices[0],
                                      it.member_indices[1])

    def test_bootstrap_rejects_bad_args(self):
        data = filled_buffer(4).get_all()
        with pytest.raises(ValidationError):
            BootstrapIterator(data, 2, ensemble_size=0,
                              rng=np.random.default_rng(0))


class TestNormalizer:
    def test_hand_statistics_and_floor(self):
        norm = Normalizer(2)
        norm.fit(np.array([[0.0, 2.0], [2.0, 2.0]]))
        assert np.allclose(norm.mean, [1.0, 2.0])
        assert norm.std[0] == pytest.approx(1.0)
        assert norm.std[1] == Normalizer.STD_FLOOR

    def test_single_row(self):
        norm = Normalizer(2)
        norm.fit(np.array([[5.0, 5.0]]))
        assert np.allclose(norm.mean, [5.0, 5.0])
        assert np.all(norm.std == Normalizer.STD_FLOOR)

    def test_refit_idempotent(self):
        data = np.random.default_rng(0).standard_normal((50, 3))
        norm = Normalizer(3)
        norm.fit(data)
        mean, std = norm.mean.copy(), norm.std.copy()
        norm.fit(data)
        assert np.array_equal(norm.mean, mean)
        assert np.array_equal(norm.std, std)

    def test_center_maps_to_zero(self):
        norm = Normalizer(2)
        norm.fit(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert np.allclose(norm.normalize(norm.mean), 0.0)

    def test_unfitted_is_identity(self):
        norm = Normalizer(3)
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(norm.normalize(x), x)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        norm = Normalizer(4)
        norm.fit(rng.standard_normal((100, 4)) * 5 + 3)
        x = rng.standard_normal((1000, 4))
        assert np.max(np.abs(norm.denormalize(norm.normalize(x)) - x)) < 1e-10

    def test_normalized_stats(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((500, 3)) * np.array([2.0, 0.5, 7.0]) + 1.0
        norm = Normalizer(3)
        norm.fit(data)
        z = norm.normalize(data)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-8)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-8)

    def test_dim_mismatch(self):
        norm = Normalizer(3)
        with pytest.raises(ValidationError):
            norm.normalize(np.zeros(4))

    def test_fit_zero_rows(self):
        with pytest.raises(ValidationError):
            Normalizer(2).fit(np.zeros((0, 2)))
