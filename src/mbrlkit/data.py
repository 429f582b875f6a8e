"""Transition storage and iteration utilities.

Everything downstream (model training, planning, diagnostics) consumes data
through the types defined here, so the conventions are fixed once:

  - observations/actions/next observations are float64 row vectors,
  - transitions live in one form, the columnar `TransitionBatch`: numpy
    arrays with a leading batch axis B, or E x B for the per-member rows of
    an ensemble training batch,
  - rows are taken with `batch[idx]`, which indexes every field alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import replace_on_success


class ValidationError(ValueError):
    """Raised when a transition or buffer operation receives invalid data."""


@dataclass
class TransitionBatch:
    """Columnar transitions (obs, action, next_obs, reward, done).

    All fields share the same leading dimensions: (B, ...) for buffer rows
    and training batches, or (E, B, ...) for a bootstrap batch that holds
    one row set per ensemble member. `batch[idx]` applies the same numpy
    index to every field (a slice, a 1-D index array or a 2-D one of shape
    (E, B)) and returns the rows as a new batch.
    """

    obs: np.ndarray
    action: np.ndarray
    next_obs: np.ndarray
    reward: np.ndarray
    done: np.ndarray

    def __post_init__(self):
        lead = self.reward.shape
        if not lead:
            raise ValidationError("a batch needs a leading batch axis")
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

    def __getitem__(self, idx) -> "TransitionBatch":
        return TransitionBatch(
            self.obs[idx], self.action[idx], self.next_obs[idx],
            self.reward[idx], self.done[idx],
        )


class ReplayBuffer:
    """Bounded FIFO transition store backed by one preallocated batch.

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
        self._storage: TransitionBatch | None = None

    def add(self, obs, action, next_obs, reward, done) -> None:
        """Stores one transition, given as its fields, at the insert cursor.

        obs, action and next_obs are flattened to float64 vectors. Every
        check runs before anything is written, so a rejected transition
        leaves the buffer unchanged: ValidationError is raised for an empty
        obs or action, an obs/next_obs shape mismatch, a non-finite value
        in any field, or dims that differ from the stored transitions'.
        """
        obs = np.asarray(obs, dtype=np.float64).ravel()
        action = np.asarray(action, dtype=np.float64).ravel()
        next_obs = np.asarray(next_obs, dtype=np.float64).ravel()
        reward = float(reward)
        done = bool(done)
        if obs.size < 1 or action.size < 1:
            raise ValidationError("obs and action must be non-empty vectors")
        if obs.shape != next_obs.shape:
            raise ValidationError(
                f"obs/next_obs shape mismatch: {obs.shape} vs {next_obs.shape}"
            )
        for name, arr in (("obs", obs), ("action", action),
                          ("next_obs", next_obs)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite values in {name}")
        if not math.isfinite(reward):
            raise ValidationError("non-finite reward")
        data = self._storage
        if data is None:
            n = self.capacity
            data = self._storage = TransitionBatch(
                np.empty((n, obs.size)), np.empty((n, action.size)),
                np.empty((n, obs.size)), np.empty(n), np.empty(n, dtype=bool),
            )
        elif obs.size != data.obs.shape[1] or action.size != data.action.shape[1]:
            raise ValidationError("transition dims do not match buffer storage")
        i = self.insert_cursor
        data.obs[i] = obs
        data.action[i] = action
        data.next_obs[i] = next_obs
        data.reward[i] = reward
        data.done[i] = done
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
        """Every stored transition, oldest first, as a copy."""
        if self.size == 0:
            raise ValidationError("buffer is empty")
        return self._storage[self._valid_order()]

    def sample(self, batch_size: int, rng: np.random.Generator) -> TransitionBatch:
        """Uniform sample with replacement; deterministic for a fixed rng state."""
        if self.size == 0:
            raise ValidationError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=int(batch_size))
        return self._storage[self._valid_order()[idx]]

    def save(self, path) -> None:
        """Text format: header `S A size capacity`, one transition per line.
        The file is replaced whole, never torn."""
        batch = self.get_all()
        s, a = batch.obs.shape[1], batch.action.shape[1]
        rows = np.concatenate([batch.obs, batch.action, batch.next_obs,
                               batch.reward[:, None]], axis=1)
        with replace_on_success(path) as tmp, open(tmp, "w") as f:
            f.write(f"{s} {a} {self.size} {self.capacity}\n")
            for row, done in zip(rows, batch.done):
                vals = " ".join(repr(float(v)) for v in row)
                f.write(f"{vals} {int(done)}\n")

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
                buf.add(vals[:s], vals[s:s + a], vals[s + a:2 * s + a],
                        vals[2 * s + a], bool(int(parts[-1])))
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
            yield self.dataset[self.indices[start:start + self.batch_size]]


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
            yield self.dataset[order[:, start:start + self.batch_size]]


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
    train_data = data[train_idx]
    if ensemble_size is None:
        train_iter = TransitionIterator(train_data, batch_size, rng,
                                        shuffle_each_epoch)
    else:
        train_iter = BootstrapIterator(train_data, batch_size, ensemble_size,
                                       rng, shuffle_each_epoch)
    val_iter = None
    if n_val > 0:
        val_iter = TransitionIterator(data[val_idx], batch_size,
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
