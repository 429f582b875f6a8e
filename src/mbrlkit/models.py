"""Gaussian MLP ensembles, their trainer, and the model-backed environment.

The ensemble maps (obs, action) inputs to per-dimension mean and log-variance
of the target distribution (state delta, optionally with a reward column).
Training minimizes Gaussian NLL (or MSE for deterministic ensembles) with
each member fit on its own bootstrap resample.

Loss conventions: the standalone `mse_loss` / `gaussian_nll_loss` functions
sum over samples. The trainer uses the per-batch mean of the same quantities
for optimizer stability; the two differ only by a constant factor.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import (Normalizer, TransitionBatch, TransitionIterator,
                   ValidationError)
from .fileio import replace_on_success
from .nets import (AdamState, DenseNet, load_arrays, save_arrays, sigmoid,
                   softplus)

LOGVAR_BOUND_REG = 0.01
MIN_LOGVAR_INIT = -10.0
MAX_LOGVAR_INIT = 0.5


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Sum over samples of the squared Euclidean distance."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValidationError(f"shape mismatch: {pred.shape} vs {target.shape}")
    return float(np.sum((pred - target) ** 2))


def gaussian_nll_loss(mean: np.ndarray, logvar: np.ndarray,
                      target: np.ndarray) -> float:
    """Sum over samples of the Gaussian NLL with diagonal covariance.

    Per dimension: (mu - t)^2 * exp(-logvar) + logvar. The additive constant
    term of the log density is omitted.
    """
    mean = np.asarray(mean, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not (mean.shape == logvar.shape == target.shape):
        raise ValidationError("mean/logvar/target shape mismatch")
    for name, arr in (("mean", mean), ("logvar", logvar), ("target", target)):
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"non-finite values in {name}")
    return float(np.sum((mean - target) ** 2 * np.exp(-logvar) + logvar))


class GaussianMLPEnsemble:
    """Ensemble of E dense networks with Gaussian mean/log-variance heads.

    In deterministic mode the head emits only the mean and training uses MSE.
    Log-variances pass through learnable soft bounds (double softplus) to keep
    probabilistic training stable.
    """

    def __init__(self, in_size: int, out_size: int, ensemble_size: int = 1,
                 num_layers: int = 4, hid_size: int = 200,
                 activation: str = "silu", deterministic: bool = False,
                 rng: np.random.Generator | None = None):
        if ensemble_size < 1:
            raise ValidationError("ensemble_size must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
        self.in_size = int(in_size)
        self.out_size = int(out_size)
        self.ensemble_size = int(ensemble_size)
        self.deterministic = bool(deterministic)
        self.activation = activation
        head = out_size if deterministic else 2 * out_size
        self.layer_sizes = ([in_size] + [hid_size] * max(num_layers - 1, 0)
                            + [head])
        self.members = [DenseNet(self.layer_sizes, activation, rng)
                        for _ in range(ensemble_size)]
        self.min_logvar = np.full(out_size, MIN_LOGVAR_INIT)
        self.max_logvar = np.full(out_size, MAX_LOGVAR_INIT)
        self.elite_indices = list(range(ensemble_size))

    def set_elite(self, indices) -> None:
        indices = [int(i) for i in indices]
        if not indices:
            raise ValidationError("elite set must be nonempty")
        if any(i < 0 or i >= self.ensemble_size for i in indices):
            raise ValidationError("elite index out of range")
        self.elite_indices = indices

    # --- parameter plumbing -------------------------------------------------

    def parameters(self):
        out = []
        for m in self.members:
            out.extend(m.parameters())
        if not self.deterministic:
            out.append(self.min_logvar)
            out.append(self.max_logvar)
        return out

    def snapshot(self):
        return [p.copy() for p in self.parameters()]

    def restore(self, snap) -> None:
        params = self.parameters()
        if len(snap) != len(params):
            raise ValidationError("snapshot length mismatch")
        for p, s in zip(params, snap):
            p[...] = s

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.parameters():
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size
        if offset != flat.size:
            raise ValidationError("flat parameter size mismatch")

    # --- forward ------------------------------------------------------------

    def _bound_logvar(self, raw: np.ndarray, grads: bool = False):
        """Double-softplus soft bounds; returns (logvar, backward cache), the
        cache being None unless grads is set."""
        z2 = self.max_logvar - softplus(self.max_logvar - raw)
        logvar = self.min_logvar + softplus(z2 - self.min_logvar)
        if not grads:
            return logvar, None
        sig_max = sigmoid(self.max_logvar - raw)
        sig_min = sigmoid(z2 - self.min_logvar)
        return logvar, (sig_max, sig_min)

    def _heads(self, out: np.ndarray):
        """Splits raw outputs (B, head) into (mean, logvar), each (B, out);
        logvar is None when deterministic."""
        if self.deterministic:
            return out, None
        logvar, _ = self._bound_logvar(out[:, self.out_size:])
        return out[:, :self.out_size], logvar

    def member_forward(self, e: int, x: np.ndarray, cache: bool = False):
        """Member e's heads for x (B, in): (mean, logvar), each (B, out);
        logvar is None when deterministic."""
        return self._heads(self.members[e].forward(x, cache=cache))

    def grouped_forward(self, x: np.ndarray, groups: MemberGroups):
        """Heads for x (P, in) where row p goes through the member that
        `groups` assigns to it: one gather, one forward per non-empty member
        on a contiguous block, one scatter."""
        x_sorted = x[groups.order]
        out_sorted = np.empty((x.shape[0], self.layer_sizes[-1]))
        bounds = groups.bounds.tolist()
        for e in range(self.ensemble_size):
            lo, hi = bounds[e], bounds[e + 1]
            if hi > lo:
                out_sorted[lo:hi] = self.members[e].forward(x_sorted[lo:hi])
        out = np.empty_like(out_sorted)
        out[groups.order] = out_sorted
        return self._heads(out)

    def forward(self, x: np.ndarray, cache: bool = False):
        """Per-member heads.

        x is (B, in) (broadcast to all members) or (E, B, in). Returns
        (mean, logvar) with shapes (E, B, out); logvar is None when
        deterministic.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            xs = [x] * self.ensemble_size
        elif x.ndim == 3 and x.shape[0] == self.ensemble_size:
            xs = [x[e] for e in range(self.ensemble_size)]
        else:
            raise ValidationError(f"bad input shape {x.shape}")
        means, logvars = zip(*(self.member_forward(e, xe, cache)
                               for e, xe in enumerate(xs)))
        return np.stack(means), (None if self.deterministic
                                 else np.stack(logvars))

    def ensemble_mean_predict(self, x: np.ndarray) -> np.ndarray:
        """Arithmetic mean of the elite members' mean predictions."""
        mean, _ = self.forward(x)
        return mean[self.elite_indices].mean(axis=0)

    # --- training -----------------------------------------------------------

    def member_loss_and_grads(self, e: int, x: np.ndarray, target: np.ndarray):
        """Mean-per-batch loss of member e plus gradients for its parameters.

        Returns (loss, member_param_grads, d_min_logvar, d_max_logvar); the
        bound gradients exclude the bound regularizer, which `update` adds
        once per call.
        """
        member = self.members[e]
        b = x.shape[0]
        out = member.forward(x, cache=True)
        if self.deterministic:
            mu = out
            err = mu - target
            loss = float(np.sum(err ** 2)) / b
            upstream = 2.0 * err / b
            d_min = d_max = None
        else:
            mu = out[:, :self.out_size]
            raw = out[:, self.out_size:]
            logvar, (sig_max, sig_min) = self._bound_logvar(raw, grads=True)
            err = mu - target
            inv_var = np.exp(-logvar)
            loss = float(np.sum(err ** 2 * inv_var + logvar)) / b
            d_mu = 2.0 * err * inv_var / b
            d_lv = (1.0 - err ** 2 * inv_var) / b
            d_raw = d_lv * sig_min * sig_max
            d_max = (d_lv * sig_min * (1.0 - sig_max)).sum(axis=0)
            d_min = (d_lv * (1.0 - sig_min)).sum(axis=0)
            upstream = np.concatenate([d_mu, d_raw], axis=1)
        w_grads, b_grads, _ = member.backward(upstream)
        grads = []
        for wg, bg in zip(w_grads, b_grads):
            grads.append(wg)
            grads.append(bg)
        return loss, grads, d_min, d_max

    def loss(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-member mean-per-batch losses without updating parameters."""
        x, target = self._per_member_views(x, target)
        losses = np.empty(self.ensemble_size)
        for e in range(self.ensemble_size):
            losses[e], _, _, _ = self.member_loss_and_grads(e, x[e], target[e])
        return losses

    def _per_member_views(self, x, target):
        x = np.asarray(x, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if x.ndim == 2:
            x = np.broadcast_to(x, (self.ensemble_size,) + x.shape)
        if target.ndim == 2:
            target = np.broadcast_to(target, (self.ensemble_size,) + target.shape)
        if x.shape[0] != self.ensemble_size or target.shape[0] != self.ensemble_size:
            raise ValidationError("ensemble axis does not match ensemble size")
        return x, target

    def update(self, x: np.ndarray, target: np.ndarray,
               optimizer: AdamState) -> np.ndarray:
        """One gradient step; each member sees only its own rows.

        x/target carry an ensemble axis (E, B, ...). Returns per-member
        losses. Aborts (raises) when a loss or gradient is non-finite.
        """
        x, target = self._per_member_views(x, target)
        losses = np.empty(self.ensemble_size)
        all_grads = []
        d_min_total = np.zeros_like(self.min_logvar)
        d_max_total = np.zeros_like(self.max_logvar)
        for e in range(self.ensemble_size):
            loss, grads, d_min, d_max = self.member_loss_and_grads(
                e, x[e], target[e])
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss for member {e}")
            losses[e] = loss
            all_grads.extend(grads)
            if d_min is not None:
                d_min_total += d_min
                d_max_total += d_max
        if not self.deterministic:
            d_min_total -= LOGVAR_BOUND_REG
            d_max_total += LOGVAR_BOUND_REG
            all_grads.append(d_min_total)
            all_grads.append(d_max_total)
        optimizer.step(self.parameters(), all_grads)
        return losses

    def eval_score(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-member, per-dimension MSE of the mean prediction.

        Every member is scored on the same rows (no bootstrapping); no
        parameters are mutated.
        """
        x = np.asarray(x, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        mean, _ = self.forward(x)
        return ((mean - target[None]) ** 2).mean(axis=1)


@dataclass(frozen=True)
class MemberGroups:
    """Particles grouped by ensemble member.

    Member e propagates particles order[bounds[e]:bounds[e + 1]], in
    ascending particle index; bounds has ensemble_size + 1 entries.
    """

    order: np.ndarray   # (P,) stable argsort of the member assignment
    bounds: np.ndarray  # (E + 1,) slice bounds into order

    @classmethod
    def from_assignment(cls, assignment, ensemble_size: int) -> "MemberGroups":
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or not np.issubdtype(assignment.dtype,
                                                     np.integer):
            raise ValidationError("member assignment must be a 1-d int array")
        if assignment.size and (assignment.min() < 0
                                or assignment.max() >= ensemble_size):
            raise ValidationError("member index out of range")
        counts = np.bincount(assignment, minlength=ensemble_size)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        return cls(np.argsort(assignment, kind="stable"), bounds)


class TransitionRewardWrapper:
    """One-dimensional transition/reward wrapper around an ensemble.

    Handles input normalization, delta targets, the optional learned-reward
    column, and member propagation when sampling.
    """

    PROPAGATION_METHODS = ("fixed_model", "ensemble_mean")

    def __init__(self, model: GaussianMLPEnsemble, obs_dim: int, act_dim: int,
                 target_is_delta: bool = True, learned_rewards: bool = False,
                 propagation: str = "fixed_model",
                 normalizer: Normalizer | None = None):
        if propagation not in self.PROPAGATION_METHODS:
            raise ValidationError(
                f"unknown propagation {propagation!r}; choose from "
                f"{self.PROPAGATION_METHODS}")
        expected_in = obs_dim + act_dim
        expected_out = obs_dim + (1 if learned_rewards else 0)
        if model.in_size != expected_in or model.out_size != expected_out:
            raise ValidationError(
                f"model sizes ({model.in_size}, {model.out_size}) do not match "
                f"expected ({expected_in}, {expected_out})")
        self.model = model
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        self.target_is_delta = bool(target_is_delta)
        self.learned_rewards = bool(learned_rewards)
        self.propagation = propagation
        self.normalizer = normalizer or Normalizer(expected_in)

    def update_normalizer(self, batch: TransitionBatch) -> None:
        inputs = np.concatenate([batch.obs, batch.action], axis=-1)
        self.normalizer.fit(inputs)

    def process_batch(self, batch: TransitionBatch):
        """Returns (model_input, model_target); handles an ensemble axis."""
        x = self.normalizer.normalize(
            np.concatenate([batch.obs, batch.action], axis=-1))
        target = (batch.next_obs - batch.obs if self.target_is_delta
                  else batch.next_obs)
        if self.learned_rewards:
            target = np.concatenate([target, batch.reward[..., None]], axis=-1)
        return x, target

    def update(self, batch: TransitionBatch, optimizer: AdamState) -> np.ndarray:
        x, target = self.process_batch(batch)
        return self.model.update(x, target, optimizer)

    def loss(self, batch: TransitionBatch) -> np.ndarray:
        x, target = self.process_batch(batch)
        return self.model.loss(x, target)

    def eval_score(self, batch: TransitionBatch) -> np.ndarray:
        x, target = self.process_batch(batch)
        return self.model.eval_score(x, target)

    def _split_prediction(self, pred: np.ndarray, obs: np.ndarray):
        delta = pred[:, :self.obs_dim]
        next_obs = obs + delta if self.target_is_delta else delta
        reward = pred[:, self.obs_dim] if self.learned_rewards else None
        return next_obs, reward

    def sample(self, obs: np.ndarray, action: np.ndarray,
               rng: np.random.Generator, sample: bool = True,
               member_assignment: np.ndarray | None = None,
               groups: MemberGroups | None = None):
        """Per-particle next-state (and reward) prediction.

        With fixed_model propagation, member_assignment gives the ensemble
        member for each particle, or groups gives the same grouping already
        built (as `ModelEnv` does once per rollout); with ensemble_mean,
        moments are averaged over the elites. The Gaussian noise draw is one
        (P, D) block so results do not depend on how particles are grouped
        by member.
        """
        obs = np.asarray(obs, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        x = self.normalizer.normalize(np.concatenate([obs, action], axis=-1))
        p = x.shape[0]
        d = self.model.out_size
        if self.propagation == "fixed_model":
            if groups is None:
                if member_assignment is None:
                    raise ValidationError(
                        "fixed_model propagation requires a member assignment")
                groups = MemberGroups.from_assignment(
                    member_assignment, self.model.ensemble_size)
            if groups.order.shape != (p,):
                raise ValidationError(
                    f"member assignment covers {groups.order.size} "
                    f"particles, expected {p}")
            mu, logvar = self.model.grouped_forward(x, groups)
        else:
            mean_all, lv_all = self.model.forward(x)
            elites = self.model.elite_indices
            mu = mean_all[elites].mean(axis=0)
            logvar = None
            if lv_all is not None:
                # average member variances, not log-variances
                logvar = np.log(np.exp(lv_all[elites]).mean(axis=0))
        pred = mu
        if sample and logvar is not None:
            pred = mu + np.exp(0.5 * logvar) * rng.standard_normal((p, d))
        return self._split_prediction(pred, obs)


@dataclass
class TrainerReport:
    """Outcome of one trainer call."""

    train_losses: list = field(default_factory=list)
    val_scores: list = field(default_factory=list)  # per-epoch (E,) arrays
    best_epoch: int = 0
    best_score: float = float("inf")
    elite_indices: list = field(default_factory=list)
    stopped_early: bool = False
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "train_losses": [float(v) for v in self.train_losses],
            "val_scores": [[float(v) for v in s] for s in self.val_scores],
            "best_epoch": self.best_epoch,
            "best_score": self.best_score,
            "elite_indices": list(self.elite_indices),
            "stopped_early": self.stopped_early,
            "seconds": self.seconds,
        }

    def save(self, path) -> None:
        with replace_on_success(path) as tmp, open(tmp, "w") as f:
            json.dump(self.to_dict(), f, indent=2)


class ModelTrainer:
    """Supervised training loop with best-weights tracking and elites.

    After each epoch the ensemble is scored on the validation iterator (or on
    the training data when none is given, which is how PETS ranks elites by
    training MSE). Weights are snapshotted when the mean elite score improves
    by more than a relative threshold, and the best snapshot is restored at
    the end.
    """

    def __init__(self, wrapper: TransitionRewardWrapper, lr: float = 1e-3,
                 elite_count: int | None = None,
                 improvement_threshold: float = 0.01):
        self.wrapper = wrapper
        self.lr = lr
        self.elite_count = elite_count or wrapper.model.ensemble_size
        if self.elite_count > wrapper.model.ensemble_size:
            raise ValidationError("elite_count exceeds ensemble size")
        self.improvement_threshold = improvement_threshold

    def _evaluate(self, eval_iter) -> np.ndarray:
        model = self.wrapper.model
        total = np.zeros((model.ensemble_size, model.out_size))
        rows = 0
        for batch in eval_iter:
            b = len(batch)
            total += self.wrapper.eval_score(batch) * b
            rows += b
        return (total / rows).mean(axis=1)

    def train(self, train_iter, val_iter=None, num_epochs: int = 50,
              patience: int = 10) -> TrainerReport:
        start = time.perf_counter()
        if val_iter is None:
            eval_iter = TransitionIterator(
                train_iter.dataset, train_iter.batch_size,
                np.random.default_rng(0), shuffle_each_epoch=False)
        else:
            eval_iter = val_iter
        optimizer = AdamState(lr=self.lr)
        report = TrainerReport()
        model = self.wrapper.model
        best_snapshot = None
        best_elites = list(model.elite_indices)
        epochs_since_improvement = 0
        for epoch in range(1, num_epochs + 1):
            epoch_losses = []
            for batch in train_iter:
                losses = self.wrapper.update(batch, optimizer)
                epoch_losses.append(losses.mean())
            report.train_losses.append(float(np.mean(epoch_losses)))
            scores = self._evaluate(eval_iter)
            report.val_scores.append(scores)
            order = np.argsort(scores, kind="stable")
            elites = order[:self.elite_count].tolist()
            mean_elite = float(scores[elites].mean())
            improved = (best_snapshot is None or
                        report.best_score - mean_elite
                        > self.improvement_threshold * abs(report.best_score))
            if improved:
                best_snapshot = model.snapshot()
                best_elites = elites
                report.best_epoch = epoch
                report.best_score = mean_elite
                epochs_since_improvement = 0
            else:
                epochs_since_improvement += 1
                if epochs_since_improvement >= patience:
                    report.stopped_early = True
                    break
        if best_snapshot is not None:
            model.restore(best_snapshot)
        model.set_elite(best_elites)
        report.elite_indices = best_elites
        report.seconds = time.perf_counter() - start
        return report


@dataclass
class ModelEnvState:
    """Per-particle simulation state of a ModelEnv episode."""

    obs: np.ndarray                      # (P, S)
    member_assignment: np.ndarray | None  # (P,) ints, fixed_model only
    done: np.ndarray                     # (P,) bool
    groups: MemberGroups | None = None   # the assignment grouped by member


class ModelEnv:
    """Wraps a trained transition model as a batched environment.

    Requires a termination function; rewards come from an optional analytic
    reward function or from the model's learned reward head. Finished
    particles are frozen: observation held, reward zero thereafter.
    """

    def __init__(self, wrapper: TransitionRewardWrapper, termination_fn,
                 reward_fn=None):
        if reward_fn is None and not wrapper.learned_rewards:
            raise ValidationError(
                "need a reward function when rewards are not learned")
        self.wrapper = wrapper
        self.termination_fn = termination_fn
        self.reward_fn = reward_fn

    def reset(self, initial_obs: np.ndarray,
              rng: np.random.Generator) -> ModelEnvState:
        initial_obs = np.atleast_2d(np.asarray(initial_obs, dtype=np.float64))
        p = initial_obs.shape[0]
        if p < 1:
            raise ValidationError("need at least one particle")
        assignment = groups = None
        if self.wrapper.propagation == "fixed_model":
            model = self.wrapper.model
            elites = np.asarray(model.elite_indices)
            assignment = elites[rng.integers(0, len(elites), size=p)]
            groups = MemberGroups.from_assignment(assignment,
                                                  model.ensemble_size)
        return ModelEnvState(initial_obs.copy(), assignment,
                             np.zeros(p, dtype=bool), groups)

    def step(self, state: ModelEnvState, actions: np.ndarray,
             rng: np.random.Generator, sample: bool = False):
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if actions.shape != (state.obs.shape[0], self.wrapper.act_dim):
            raise ValidationError(
                f"bad action shape {actions.shape}; expected "
                f"({state.obs.shape[0]}, {self.wrapper.act_dim})")
        pred_obs, pred_reward = self.wrapper.sample(
            state.obs, actions, rng, sample=sample,
            member_assignment=state.member_assignment, groups=state.groups)
        active = ~state.done
        next_obs = np.where(active[:, None], pred_obs, state.obs)
        if self.reward_fn is not None:
            reward = self.reward_fn(actions, next_obs)
        else:
            reward = pred_reward
        rewards = np.where(active, reward, 0.0)
        dones = state.done | self.termination_fn(actions, next_obs)
        new_state = ModelEnvState(next_obs, state.member_assignment, dones,
                                  state.groups)
        return next_obs, rewards, dones, new_state


# --- checkpointing ----------------------------------------------------------

def save_model(wrapper: TransitionRewardWrapper, path) -> None:
    """One self-describing file: network parameters plus wrapper metadata."""
    model = wrapper.model
    arrays = {}
    for e, member in enumerate(model.members):
        for i, (w, b) in enumerate(zip(member.weights, member.biases)):
            arrays[f"member{e}_w{i}"] = w
            arrays[f"member{e}_b{i}"] = b
    arrays["min_logvar"] = model.min_logvar
    arrays["max_logvar"] = model.max_logvar
    arrays["norm_mean"] = wrapper.normalizer.mean
    arrays["norm_std"] = wrapper.normalizer.std
    meta = {
        "obs_dim": wrapper.obs_dim,
        "act_dim": wrapper.act_dim,
        "ensemble_size": model.ensemble_size,
        "layer_sizes": model.layer_sizes,
        "activation": model.activation,
        "deterministic": model.deterministic,
        "target_is_delta": wrapper.target_is_delta,
        "learned_rewards": wrapper.learned_rewards,
        "propagation": wrapper.propagation,
        "elite_indices": list(model.elite_indices),
        "normalizer_count": wrapper.normalizer.count,
    }
    save_arrays(path, arrays, meta)


def load_model(path) -> TransitionRewardWrapper:
    arrays, meta = load_arrays(path)
    num_weight_layers = len(meta["layer_sizes"]) - 1
    model = GaussianMLPEnsemble(
        in_size=meta["layer_sizes"][0],
        out_size=meta["obs_dim"] + (1 if meta["learned_rewards"] else 0),
        ensemble_size=meta["ensemble_size"],
        num_layers=num_weight_layers,
        hid_size=meta["layer_sizes"][1] if num_weight_layers > 1 else 1,
        activation=meta["activation"],
        deterministic=meta["deterministic"],
        rng=np.random.default_rng(0),
    )
    for e, member in enumerate(model.members):
        for i in range(len(member.weights)):
            member.weights[i] = arrays[f"member{e}_w{i}"].copy()
            member.biases[i] = arrays[f"member{e}_b{i}"].copy()
    model.min_logvar = arrays["min_logvar"].copy()
    model.max_logvar = arrays["max_logvar"].copy()
    model.set_elite(meta["elite_indices"])
    normalizer = Normalizer(meta["obs_dim"] + meta["act_dim"])
    normalizer.mean = arrays["norm_mean"].copy()
    normalizer.std = arrays["norm_std"].copy()
    normalizer.count = meta["normalizer_count"]
    return TransitionRewardWrapper(
        model, meta["obs_dim"], meta["act_dim"],
        target_is_delta=meta["target_is_delta"],
        learned_rewards=meta["learned_rewards"],
        propagation=meta["propagation"],
        normalizer=normalizer,
    )
