"""Transition storage and iteration utilities.

Everything downstream (model training, planning, diagnostics) consumes data
through the types defined here, so the conventions are fixed once:

  - observations/actions/next observations are float64 row vectors,
  - batches are columnar numpy arrays with a leading batch axis B,
  - ensemble-aware batches carry an extra leading axis E (shapes E x B x ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fileio import replace_on_success


class ValidationError(ValueError):
    """Raised when a transition or buffer operation receives invalid data."""


@dataclass
class Transition:
    """A single experience tuple (obs, action, next_obs, reward, done)."""

    obs: np.ndarray
    action: np.ndarray
    next_obs: np.ndarray
    reward: float
    done: bool

    def __post_init__(self):
        self.obs = np.asarray(self.obs, dtype=np.float64).ravel()
        self.action = np.asarray(self.action, dtype=np.float64).ravel()
        self.next_obs = np.asarray(self.next_obs, dtype=np.float64).ravel()
        self.reward = float(self.reward)
        self.done = bool(self.done)

    def validate(self) -> None:
        if self.obs.size < 1 or self.action.size < 1:
            raise ValidationError("obs and action must be non-empty vectors")
        if self.obs.shape != self.next_obs.shape:
            raise ValidationError(
                f"obs/next_obs shape mismatch: {self.obs.shape} vs {self.next_obs.shape}"
            )
        for name, arr in (("obs", self.obs), ("action", self.action),
                          ("next_obs", self.next_obs)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite values in {name}")
        if not np.isfinite(self.reward):
            raise ValidationError("non-finite reward")


@dataclass
class TransitionBatch:
    """Columnar batch of transitions.

    All fields share the same leading dimensions: either (B, ...) or, for
    ensemble training batches, (E, B, ...).
    """

    obs: np.ndarray
    action: np.ndarray
    next_obs: np.ndarray
    reward: np.ndarray
    done: np.ndarray

    def __post_init__(self):
        lead = self.reward.shape
        for name in ("obs", "action", "next_obs"):
            arr = getattr(self, name)
            if arr.shape[:-1] != lead:
                raise ValidationError(
                    f"{name} leading dims {arr.shape[:-1]} != reward dims {lead}"
                )
        if self.done.shape != lead:
            raise ValidationError("done shape mismatch")

    def __len__(self) -> int:
        return self.reward.shape[-1]

    @property
    def has_ensemble_axis(self) -> bool:
        return self.reward.ndim == 2

    def __getitem__(self, item):
        if isinstance(item, (int, np.integer)):
            if self.has_ensemble_axis:
                raise IndexError("cannot index a single transition out of an "
                                 "ensemble batch")
            return Transition(
                self.obs[item], self.action[item], self.next_obs[item],
                float(self.reward[item]), bool(self.done[item]),
            )
        return TransitionBatch(
            self.obs[item], self.action[item], self.next_obs[item],
            self.reward[item], self.done[item],
        )

    def gather_rows(self, indices: np.ndarray) -> "TransitionBatch":
        """Row-gather along the batch axis (no ensemble axis expected)."""
        return TransitionBatch(
            self.obs[indices], self.action[indices], self.next_obs[indices],
            self.reward[indices], self.done[indices],
        )


class ReplayBuffer:
    """Bounded FIFO transition store backed by preallocated arrays.

    Storage is lazily allocated on the first insertion, once the state and
    action dimensions are known. After `capacity` insertions the oldest
    entries are overwritten in ring order.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValidationError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.size = 0
        self.insert_cursor = 0
        self._obs = None
        self._action = None
        self._next_obs = None
        self._reward = None
        self._done = None

    @property
    def obs_dim(self):
        return None if self._obs is None else self._obs.shape[1]

    @property
    def action_dim(self):
        return None if self._action is None else self._action.shape[1]

    def _ensure_storage(self, obs_dim: int, action_dim: int) -> None:
        if self._obs is None:
            self._obs = np.empty((self.capacity, obs_dim))
            self._action = np.empty((self.capacity, action_dim))
            self._next_obs = np.empty((self.capacity, obs_dim))
            self._reward = np.empty(self.capacity)
            self._done = np.empty(self.capacity, dtype=bool)

    def add(self, t: Transition) -> None:
        t.validate()
        self._ensure_storage(t.obs.size, t.action.size)
        if t.obs.size != self._obs.shape[1] or t.action.size != self._action.shape[1]:
            raise ValidationError("transition dims do not match buffer storage")
        i = self.insert_cursor
        self._obs[i] = t.obs
        self._action[i] = t.action
        self._next_obs[i] = t.next_obs
        self._reward[i] = t.reward
        self._done[i] = t.done
        self.insert_cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def __len__(self) -> int:
        return self.size

    def _valid_order(self) -> np.ndarray:
        """Indices of stored transitions in insertion order (oldest first)."""
        if self.size < self.capacity:
            return np.arange(self.size)
        c = self.insert_cursor
        return np.concatenate([np.arange(c, self.capacity), np.arange(c)])

    def get_all(self) -> TransitionBatch:
        if self.size == 0:
            raise ValidationError("buffer is empty")
        order = self._valid_order()
        return TransitionBatch(
            self._obs[order].copy(), self._action[order].copy(),
            self._next_obs[order].copy(), self._reward[order].copy(),
            self._done[order].copy(),
        )

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample with replacement; deterministic for a fixed rng state."""
        if self.size == 0:
            raise ValidationError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=int(batch_size))
        order = self._valid_order()[idx]
        return TransitionBatch(
            self._obs[order], self._action[order], self._next_obs[order],
            self._reward[order], self._done[order],
        )

    def save(self, path) -> None:
        """Text format: header `S A size capacity`, one transition per line.
        The file is replaced whole, never torn."""
        batch = self.get_all()
        s, a = batch.obs.shape[1], batch.action.shape[1]
        with replace_on_success(path) as tmp, open(tmp, "w") as f:
            f.write(f"{s} {a} {self.size} {self.capacity}\n")
            for i in range(len(batch)):
                row = np.concatenate([
                    batch.obs[i], batch.action[i], batch.next_obs[i],
                    [batch.reward[i]],
                ])
                vals = " ".join(repr(float(v)) for v in row)
                f.write(f"{vals} {int(batch.done[i])}\n")

    @classmethod
    def load(cls, path) -> "ReplayBuffer":
        with open(path) as f:
            header = f.readline().split()
            if len(header) != 4:
                raise ValidationError(f"bad buffer header in {path}")
            s, a, size, capacity = (int(v) for v in header)
            buf = cls(capacity)
            width = 2 * s + a + 2
            for lineno, line in enumerate(f, start=2):
                parts = line.split()
                if len(parts) != width:
                    raise ValidationError(
                        f"{path}:{lineno}: expected {width} columns, got {len(parts)}"
                    )
                vals = np.array([float(v) for v in parts[:-1]])
                buf.add(Transition(
                    vals[:s], vals[s:s + a], vals[s + a:2 * s + a],
                    vals[2 * s + a], bool(int(parts[-1])),
                ))
        if buf.size != size:
            raise ValidationError(f"{path}: header size {size} != {buf.size} rows")
        return buf


class TransitionIterator:
    """Epoch iterator over a fixed dataset: every index visited exactly once.

    The final batch may be smaller than batch_size; no batch is empty.
    """

    def __init__(self, dataset: TransitionBatch, batch_size: int,
                 rng: np.random.Generator, shuffle_each_epoch: bool = True):
        if len(dataset) == 0:
            raise ValidationError("empty dataset")
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle_each_epoch = shuffle_each_epoch
        self._rng = rng
        self.indices = np.arange(len(dataset))
        if shuffle_each_epoch:
            self._rng.shuffle(self.indices)

    def __len__(self) -> int:
        n = len(self.dataset)
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        if self.shuffle_each_epoch:
            self._rng.shuffle(self.indices)
        for start in range(0, len(self.dataset), self.batch_size):
            yield self.dataset.gather_rows(self.indices[start:start + self.batch_size])


class BootstrapIterator:
    """Iterator emitting batches with a leading ensemble axis.

    Each of the E members gets its own size-N with-replacement resample of the
    dataset, drawn once at construction and frozen for the iterator's
    lifetime. Member e's rows always come from member_indices[e].
    """

    def __init__(self, dataset: TransitionBatch, batch_size: int,
                 ensemble_size: int, rng: np.random.Generator,
                 shuffle_each_epoch: bool = True):
        if len(dataset) == 0:
            raise ValidationError("empty dataset")
        if ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.ensemble_size = int(ensemble_size)
        self.shuffle_each_epoch = shuffle_each_epoch
        self._rng = rng
        n = len(dataset)
        self.member_indices = rng.integers(0, n, size=(ensemble_size, n))

    def __len__(self) -> int:
        n = len(self.dataset)
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.dataset)
        order = self.member_indices
        if self.shuffle_each_epoch:
            perm = np.stack([self._rng.permutation(n)
                             for _ in range(self.ensemble_size)])
            order = np.take_along_axis(self.member_indices, perm, axis=1)
        for start in range(0, n, self.batch_size):
            cols = order[:, start:start + self.batch_size]
            yield TransitionBatch(
                self.dataset.obs[cols], self.dataset.action[cols],
                self.dataset.next_obs[cols], self.dataset.reward[cols],
                self.dataset.done[cols],
            )


def train_val_split(buffer: ReplayBuffer, validation_ratio: float,
                    batch_size: int, rng: np.random.Generator,
                    ensemble_size: int | None = None,
                    shuffle_each_epoch: bool = True):
    """Split the buffer into train/validation iterators on a fresh permutation.

    Validation gets floor(ratio * N) items; ratio 0 yields no validation
    iterator. When ensemble_size is given the training iterator is a
    BootstrapIterator over the training subset.
    """
    if not 0.0 <= validation_ratio < 1.0:
        raise ValidationError("validation_ratio must be in [0, 1)")
    data = buffer.get_all()
    n = len(data)
    perm = rng.permutation(n)
    n_val = int(np.floor(validation_ratio * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    train_data = data.gather_rows(train_idx)
    if ensemble_size is None:
        train_iter = TransitionIterator(train_data, batch_size, rng,
                                        shuffle_each_epoch)
    else:
        train_iter = BootstrapIterator(train_data, batch_size, ensemble_size,
                                       rng, shuffle_each_epoch)
    val_iter = None
    if n_val > 0:
        val_iter = TransitionIterator(data.gather_rows(val_idx), batch_size,
                                      rng, shuffle_each_epoch=False)
    return train_iter, val_iter


class Normalizer:
    """Per-column standardizer with an epsilon-floored standard deviation.

    Unfitted normalizers act as the identity (mean 0, std 1).
    """

    STD_FLOOR = 1e-8

    def __init__(self, dim: int):
        self.dim = int(dim)
        self.mean = np.zeros(dim)
        self.std = np.ones(dim)
        self.count = 0

    def fit(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValidationError(f"expected (N, {self.dim}) data, got {data.shape}")
        if data.shape[0] < 1:
            raise ValidationError("cannot fit on zero rows")
        self.mean = data.mean(axis=0)
        self.std = np.maximum(data.std(axis=0), self.STD_FLOOR)
        self.count = data.shape[0]

    def normalize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValidationError(f"dim mismatch: {x.shape[-1]} != {self.dim}")
        return (x - self.mean) / self.std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValidationError(f"dim mismatch: {x.shape[-1]} != {self.dim}")
        return x * self.std + self.mean
