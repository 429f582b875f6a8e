"""Gaussian MLP ensembles, their trainer, and the model-backed environment.

The ensemble maps (obs, action) inputs to per-dimension mean and log-variance
of the target distribution (state delta, optionally with a reward column).
Training minimizes Gaussian NLL (or MSE for deterministic ensembles) with
each member fit on its own bootstrap resample.

Loss conventions: the standalone `mse_loss` / `gaussian_nll_loss` functions
sum over samples. Training minimizes the sum over members of each member's
per-batch mean of the same quantity, plus, when probabilistic,
LOGVAR_BOUND_REG * (sum(max_logvar) - sum(min_logvar)).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .data import (Normalizer, TransitionBatch, TransitionIterator,
                   ValidationError)
from .fileio import replace_on_success
from .nets import (BUFFERED_ACTIVATIONS, AdamState, DenseNet, load_arrays,
                   param_count, save_arrays, sigmoid, softplus)

LOGVAR_BOUND_REG = 0.01
MIN_LOGVAR_INIT = -10.0
MAX_LOGVAR_INIT = 0.5
# the precision of a MemberStack and of the forwards through it
STACK_DTYPE = np.float32


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

    All parameters live in one zero-initialised float64 vector, `params`,
    member-major: member 0's w0, b0, w1, b1, ..., then each later member's,
    then min_logvar and max_logvar. `net` is one DenseNet over the members'
    blocks, an (E, n) view: its `weights[i]` (E, out, in) and `biases[i]`
    (E, out) view layer i of every member at once. The bounds are views
    too, so the optimizer, `get_flat`/`set_flat` and checkpoints all read
    and write the one vector. `members` is a tuple of per-member DenseNet
    views of the same blocks.

    Training (`update`), scoring (`eval_score`) and `forward` are each one
    float64 pass of `net`, one matmul per layer over all members; training
    and scoring run in the net's kept work arrays while `ModelTrainer.train`
    runs. A float64 `grouped_forward` runs each member on its own rows.
    Float32 planning runs `stacked_forward`: each layer is one matmul over
    a `MemberStack`, a float32 copy of some members' parameters. Planning
    draws its noise with the bounded variance in closed form (`_variance`).
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
        n = param_count(self.layer_sizes)
        end = self.ensemble_size * n
        self.params = np.zeros(end + 2 * self.out_size)
        # the net checks the activation and draws each member's weights
        self.net = DenseNet(
            self.layer_sizes, activation, rng,
            params=self.params[:end].reshape(self.ensemble_size, n))
        self.members = tuple(self.net.member(e)
                             for e in range(self.ensemble_size))
        self._act_buffered, self._act_scale = BUFFERED_ACTIVATIONS[activation]
        self.min_logvar = self.params[end:end + self.out_size]
        self.max_logvar = self.params[end + self.out_size:]
        self.min_logvar[...] = MIN_LOGVAR_INIT
        self.max_logvar[...] = MAX_LOGVAR_INIT
        # what training updates: the bounds only shape a probabilistic head
        self._trained = self.params[:end] if deterministic else self.params
        # gradients, laid out like params and written in place every step
        self._grads = np.zeros_like(self.params)
        self._net_grads = self._grads[:end].reshape(self.ensemble_size, n)
        self.elite_indices = list(range(ensemble_size))

    def set_elite(self, indices) -> None:
        indices = [int(i) for i in indices]
        if not indices:
            raise ValidationError("elite set must be nonempty")
        if any(i < 0 or i >= self.ensemble_size for i in indices):
            raise ValidationError("elite index out of range")
        if len(set(indices)) != len(indices):
            raise ValidationError(f"repeated elite index in {indices}")
        self.elite_indices = indices

    def get_flat(self) -> np.ndarray:
        """A copy of the trained parameters: every member's, plus the
        log-variance bounds when probabilistic."""
        return self._trained.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self._trained[...] = np.reshape(flat, self._trained.shape)

    # --- forward ------------------------------------------------------------

    def _bound_logvar(self, raw: np.ndarray, grads: bool = False):
        """Double-softplus soft bounds, float64 whatever raw's precision;
        returns (logvar, backward cache). The cache is None unless grads is
        set; then it holds the two softpluses' derivatives,
        sigmoid(max - raw) and sigmoid(z2 - min), where z2 is the upper
        bound's output, for training's backward. Training, scoring and
        `forward` bound with it; planning draws its noise with `_variance`,
        exp(logvar) in closed form."""
        z2 = self.max_logvar - softplus(self.max_logvar - raw)
        logvar = self.min_logvar + softplus(z2 - self.min_logvar)
        if not grads:
            return logvar, None
        sig_max = sigmoid(self.max_logvar - raw)
        sig_min = sigmoid(z2 - self.min_logvar)
        return logvar, (sig_max, sig_min)

    def _variance(self, raw: np.ndarray) -> np.ndarray:
        """exp of the bounded log-variance of raw, float64 whatever raw's
        precision, in closed form: the double softplus gives
        exp(logvar) = e^min + 1 / (e^-max + e^-raw), one exp a value. As raw
        falls, e^-raw overflows to inf (expected, so not reported) and the
        variance is e^min; as it rises, e^-raw goes to 0 and the variance
        to e^min + e^max."""
        var = np.negative(raw, dtype=np.float64)
        with np.errstate(over="ignore"):
            np.exp(var, out=var)
        var += np.exp(-self.max_logvar)
        np.reciprocal(var, out=var)
        var += np.exp(self.min_logvar)
        return var

    def stack_members(self, members,
                      normalizer: Normalizer | None = None) -> MemberStack:
        """A float32 copy of the parameters of `members` (distinct
        indices, in stack order), made now: later writes to `params` or to
        the normalizer do not reach it. With a normalizer the stack takes
        raw inputs, as layer 0 folds it in: weights W / std and bias
        b - (W / std) mean. A SiLU ensemble's hidden layers are halved, so
        that they output z / 2 for the activation (`nets._silu_buffered`);
        ReLU layers are not scaled. The fold and the halving (exact) are
        computed in float64, then cast."""
        members = tuple(int(e) for e in members)
        if not members or len(set(members)) != len(members) or any(
                e < 0 or e >= self.ensemble_size for e in members):
            raise ValidationError(f"bad members to stack: {members}")
        pick = list(members)
        weights = [w[pick].transpose(0, 2, 1) for w in self.net.weights]
        biases = [b[pick] for b in self.net.biases]
        if normalizer is not None:
            # out of place, on a C-contiguous copy: how `mean @ W` rounds
            # depends on W's layout
            weights[0] = (np.ascontiguousarray(weights[0])
                          / normalizer.std[:, None])
            biases[0] = biases[0] - normalizer.mean @ weights[0]
        if self._act_scale != 1.0:
            for i in range(len(weights) - 1):
                weights[i] = weights[i] * self._act_scale
                biases[i] = biases[i] * self._act_scale
        return MemberStack(
            members,
            tuple(np.ascontiguousarray(w, STACK_DTYPE) for w in weights),
            tuple(b[:, None].astype(STACK_DTYPE) for b in biases))

    def stacked_forward(self, x: np.ndarray, stack: MemberStack):
        """Raw float32 outputs of the stacked members: x is
        (S, m, in), one block of rows per stacked member, or (B, in), the
        same rows for every member, normalized unless the stack folds a
        normalizer in; the output is (S, m, head) or (S, B, head). Each
        layer is one matmul over the whole stack, one bias add and one
        in-place activation."""
        h = np.asarray(x, dtype=STACK_DTYPE)
        if h.ndim not in (2, 3) or h.shape[-1] != self.in_size:
            raise ValidationError(f"bad input shape {h.shape}")
        # the hidden layers write into the stack's work arrays, two
        # alternating and one for the activation, so that a step allocates
        # (and faults in) no large temporaries
        work, biases = stack.buffers(h.shape[-2])
        last = len(stack.weights) - 1
        # a stack's SiLU layers output z / 2, the activation's input
        for i in range(last):
            h = np.matmul(h, stack.weights[i], out=work[i % 2])
            h += biases[i]
            self._act_buffered(h, work[2])
        h = np.matmul(h, stack.weights[last])
        h += biases[last]
        return h

    def grouped_forward(self, x: np.ndarray, groups: MemberGroups,
                        stack: MemberStack | None = None):
        """Heads for x (P, in) where row p goes through the member that
        `groups` assigns to it.

        One gather fills each member's block of rows. With a stack, which
        must be for the groups' members, the blocks go through one float32
        `stacked_forward` and the mean head stays float32. Without one,
        each member's float64 forward runs on its own rows of its block.
        One gather then reads every row back. Returns (mean, std), each
        (P, out), std being the float64 standard deviation, None when
        deterministic: exp(0.5 * logvar) without a stack, and with one the
        square root of the variance in closed form (`_variance`)."""
        # take, not fancy indexing: the same rows, fewer microseconds
        blocks = x.take(groups.gather, axis=0)
        if stack is not None:
            if groups.members != stack.members:
                raise ValidationError(
                    f"groups for members {groups.members}, weights stacked "
                    f"for {stack.members}")
            out = self.stacked_forward(blocks, stack)
        else:
            out = np.empty(blocks.shape[:2] + (self.layer_sizes[-1],))
            for s, (e, c) in enumerate(zip(groups.members, groups.counts)):
                if c:
                    out[s, :c] = self.members[e].forward(blocks[s, :c])
        out = out.reshape(-1, out.shape[-1]).take(groups.unpad, axis=0)
        if self.deterministic:
            return out, None
        mean, raw = out[:, :self.out_size], out[:, self.out_size:]
        if stack is None:
            return mean, np.exp(0.5 * self._bound_logvar(raw)[0])
        var = self._variance(raw)
        return mean, np.sqrt(var, out=var)

    def forward(self, x: np.ndarray):
        """Per-member heads, from one forward of the net.

        x is (B, in) (the same rows for all members) or (E, B, in). Returns
        float64 (mean, logvar) with shapes (E, B, out); logvar is None when
        deterministic.
        """
        out = self.net.forward(x)
        if self.deterministic:
            return out, None
        return (out[..., :self.out_size],
                self._bound_logvar(out[..., self.out_size:])[0])

    def ensemble_mean_predict(self, x: np.ndarray) -> np.ndarray:
        """Arithmetic mean of the elite members' mean predictions."""
        mean, _ = self.forward(x)
        return mean[self.elite_indices].mean(axis=0)

    # --- training -----------------------------------------------------------

    def update(self, x: np.ndarray, target: np.ndarray,
               optimizer: AdamState) -> np.ndarray:
        """One gradient step; each member sees only its own rows.

        x/target carry an ensemble axis (E, B, ...), or are (B, ...), the
        same rows for every member. Returns per-member losses. Raises,
        before any parameter changes, when a gradient or a loss is
        non-finite, naming the first such member for a loss.

        The net's cached forward and its backward run every member at once;
        this adds the loss heads and the log-variance bounds' gradients.
        """
        x = np.asarray(x, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        e, d, b = self.ensemble_size, self.out_size, x.shape[-2]
        if any(a.ndim == 3 and len(a) != e for a in (x, target)):
            raise ValidationError("ensemble axis does not match ensemble size")
        out = self.net.forward(x, cache=True)
        if self.deterministic:
            err = out - target
            losses = np.sum((err ** 2).reshape(e, -1), axis=1) / b
            g = 2.0 * err / b
        else:
            logvar, (sig_max, sig_min) = self._bound_logvar(out[..., d:],
                                                            grads=True)
            err = out[..., :d] - target
            inv_var = np.exp(-logvar)
            sq = err ** 2 * inv_var
            losses = np.sum((sq + logvar).reshape(e, -1), axis=1) / b
            d_lv = (1.0 - sq) / b
            g = np.concatenate([2.0 * err * inv_var / b,
                                d_lv * sig_min * sig_max], axis=-1)
            # the bound gradients, summed over rows, then over members
            d_min, d_max = np.split(self._grads[-2 * d:], 2)
            np.sum((d_lv * (1.0 - sig_min)).sum(axis=1), axis=0, out=d_min)
            np.sum((d_lv * sig_min * (1.0 - sig_max)).sum(axis=1), axis=0,
                   out=d_max)
            d_min -= LOGVAR_BOUND_REG
            d_max += LOGVAR_BOUND_REG
        bad = ~np.isfinite(losses)
        if bad.any():
            raise FloatingPointError(
                f"non-finite training loss for member {bad.argmax()}")
        self.net.backward(g, out=self._net_grads)
        optimizer.step(self._trained, self._grads[:self._trained.size])
        return losses

    def eval_score(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Per-member, per-dimension MSE of the mean prediction.

        Every member is scored on the same rows (no bootstrapping) by its
        mean head alone, in one forward of the net; no parameters are
        mutated.
        """
        target = np.asarray(target, dtype=np.float64)
        mean = self.net.forward(x)[..., :self.out_size]
        return ((mean - target[None]) ** 2).mean(axis=1)


class MemberStack:
    """A float32 copy of some ensemble members' parameters for one batched
    forward (`GaussianMLPEnsemble.stack_members`).

    Per layer, weights[i] is (S, in, out), each stacked member's matrix
    transposed, and biases[i] is (S, 1, out); members are the S ensemble
    indices, in stack order. A stack made with a normalizer, as
    `ModelEnv.reset` makes it, has that normalizer folded into layer 0 and
    forwards raw (obs, action) rows. A SiLU stack holds its hidden layers
    halved, for the activation's z / 2 form; the outputs of a forward are
    the members' own. The stack also keeps the buffers of the forwards
    through it (`buffers`): a rollout makes one stack and steps the same
    rows through it many times, so every step reuses the same memory.
    """

    def __init__(self, members: tuple, weights: tuple, biases: tuple):
        self.members = members
        self.weights = weights
        self.biases = biases
        self._rows = self._buffers = None

    def buffers(self, rows: int):
        """(work, biases) for forwards of `rows` rows per member, made on
        the first call for that row count and then reused: work is three
        (S, rows, hidden) arrays, two for the layer outputs and a
        zero-filled one for the activation, and biases[i] is layer i's bias
        repeated over the rows, (S, rows, out), so that each bias add runs
        over whole contiguous arrays."""
        if rows != self._rows:
            shape = (len(self.members), rows, self.biases[0].shape[-1])
            work = (np.empty(shape, STACK_DTYPE), np.empty(shape, STACK_DTYPE),
                    np.zeros(shape, STACK_DTYPE))
            biases = tuple(np.repeat(b, rows, axis=1) for b in self.biases)
            self._rows, self._buffers = rows, (work, biases)
        return self._buffers


@dataclass(frozen=True)
class MemberGroups:
    """Particles grouped by ensemble member, in one block per member.

    `members` are ascending ensemble indices that hold every particle, and
    member members[s] holds counts[s] of them. Each member gets a block of
    m slots, m being the largest count. `gather` (S, m) is the particle in
    each slot: the member's particles in ascending order, then copies of a
    live particle as padding. `unpad` (P,) is each particle's slot in the
    flattened (S * m) blocks. A forward gathers the blocks, runs each
    member on its block and reads every particle's row back from its slot.
    """

    members: tuple        # (S,) ascending ensemble indices
    counts: tuple         # (S,) particles of each member
    gather: np.ndarray    # (S, m) particle in each slot
    unpad: np.ndarray     # (P,) slot of each particle

    @classmethod
    def from_assignment(cls, assignment, members) -> "MemberGroups":
        """The groups over `members` of assignment (P,), each particle's
        ensemble member."""
        assignment = np.asarray(assignment)
        if assignment.ndim != 1 or assignment.dtype.kind not in "iu":
            raise ValidationError("member assignment must be a 1-d int array")
        members = tuple(members)
        if not members or list(members) != sorted(set(members)) or \
                members[0] < 0:
            raise ValidationError(
                f"members must be ascending ensemble indices, got {members}")
        p = assignment.size
        try:
            counts = np.bincount(assignment, minlength=members[-1] + 1)[
                list(members)]
        except ValueError:  # a negative index
            counts = None
        if counts is None or counts.sum() != p:
            raise ValidationError(
                f"a particle's member is not one of {members}")
        ends = np.cumsum(counts)
        starts = ends - counts
        m = counts.max()
        # slot j of member s's block holds its j-th particle in member
        # order, and past its last one that last particle (a member with
        # none repeats the one before it, or the first): a live row
        gather = np.minimum(np.add.outer(starts, np.arange(m)),
                            np.maximum(ends - 1, 0)[:, None])
        # and member order's k-th particle, member s's j-th, is in slot
        # s * m + j
        unpad = (np.arange(len(members)) * m - starts).repeat(counts)
        unpad += np.arange(p)
        if not np.all(assignment[:-1] <= assignment[1:]):
            order = np.argsort(assignment, kind="stable")
            gather = order[gather]
            slots, unpad = unpad, np.empty_like(unpad)
            unpad[order] = slots
        return cls(members, tuple(counts.tolist()), gather, unpad)


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

    def _inputs(self, obs: np.ndarray, action: np.ndarray,
                dtype=np.float64) -> np.ndarray:
        """The model's raw input rows in dtype: obs, then action."""
        k = obs.shape[-1]
        x = np.empty(obs.shape[:-1] + (k + action.shape[-1],), dtype)
        x[..., :k] = obs
        x[..., k:] = action
        return x

    def update_normalizer(self, batch: TransitionBatch) -> None:
        self.normalizer.fit(self._inputs(batch.obs, batch.action))

    def process_batch(self, batch: TransitionBatch):
        """Returns (model_input, model_target); handles an ensemble axis."""
        x = self.normalizer.normalize(self._inputs(batch.obs, batch.action))
        target = (batch.next_obs - batch.obs if self.target_is_delta
                  else batch.next_obs)
        if self.learned_rewards:
            target = np.concatenate([target, batch.reward[..., None]], axis=-1)
        return x, target

    def update(self, batch: TransitionBatch, optimizer: AdamState) -> np.ndarray:
        x, target = self.process_batch(batch)
        return self.model.update(x, target, optimizer)

    def eval_score(self, batch: TransitionBatch) -> np.ndarray:
        x, target = self.process_batch(batch)
        return self.model.eval_score(x, target)

    def _split_prediction(self, pred: np.ndarray, obs: np.ndarray):
        """(next_obs, reward), float64 whatever pred's precision: a float32
        delta goes straight onto the float64 observation."""
        delta = pred[:, :self.obs_dim]
        next_obs = (obs + delta if self.target_is_delta
                    else delta.astype(np.float64, copy=False))
        reward = (pred[:, self.obs_dim].astype(np.float64, copy=False)
                  if self.learned_rewards else None)
        return next_obs, reward

    def sample(self, obs: np.ndarray, action: np.ndarray,
               rng: np.random.Generator, sample: bool = True,
               groups: MemberGroups | None = None,
               stack: MemberStack | None = None):
        """Per-particle next-state (and reward) prediction.

        With fixed_model propagation, groups (which `ModelEnv.step` builds
        once per rollout) gives the ensemble member of each of the P
        particles; with ensemble_mean, moments are averaged over the elites.
        The Gaussian noise draw is one (P, D) block so results do not depend
        on how particles are grouped by member, and a sampled prediction is
        mu + std * noise; a deterministic model draws none. The noise and
        the predictions are float64.

        The stack decides the precision of the model forward. Without one,
        it is float64 on the normalized inputs: each member on its own rows,
        or every member on every row under ensemble_mean. With one,
        which must be the elites' float32 weights with this wrapper's
        normalizer folded in (`ModelEnv.reset` makes it once per rollout),
        it is one float32 `stacked_forward`: the raw (obs, action) rows go
        into one float32 array, nothing is normalized, and the variance is
        computed in closed form (`GaussianMLPEnsemble._variance`), one exp
        a value, in place of the log-variance and its exp.
        """
        obs = np.asarray(obs, dtype=np.float64)
        action = np.asarray(action, dtype=np.float64)
        if (obs.ndim != 2 or obs.shape[1] != self.obs_dim
                or action.shape != (len(obs), self.act_dim)):
            raise ValidationError(
                f"bad obs and action shapes {obs.shape}, {action.shape}")
        model = self.model
        p = len(obs)
        x = self._inputs(obs, action, STACK_DTYPE if stack else np.float64)
        if stack is None:
            x = self.normalizer.normalize(x)
        if self.propagation == "fixed_model":
            if groups is None or groups.unpad.size != p:
                raise ValidationError(
                    f"fixed_model needs member groups of the {p} particles")
            mu, std = model.grouped_forward(x, groups, stack)
        else:
            if stack is None:
                mean_all, lv_all = model.forward(x)
                mean_all = mean_all[model.elite_indices]
                var_all = (None if lv_all is None
                           else np.exp(lv_all[model.elite_indices]))
            else:
                out = model.stacked_forward(x, stack)
                mean_all = out[..., :model.out_size].astype(np.float64)
                var_all = (None if model.deterministic
                           else model._variance(out[..., model.out_size:]))
            mu = mean_all.mean(axis=0)
            # average member variances, not log-variances
            std = (None if var_all is None
                   else np.exp(0.5 * np.log(var_all.mean(axis=0))))
        pred = mu
        if sample and std is not None:
            pred = rng.standard_normal((p, model.out_size))
            pred *= std
            pred += mu
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
    the end. elite_count members (1 to the ensemble size; None: all of
    them) with the lowest scores become the elites.
    """

    def __init__(self, wrapper: TransitionRewardWrapper, lr: float = 1e-3,
                 elite_count: int | None = None,
                 improvement_threshold: float = 0.01):
        self.wrapper = wrapper
        self.lr = lr
        size = wrapper.model.ensemble_size
        self.elite_count = size if elite_count is None else elite_count
        if not 1 <= self.elite_count <= size:
            raise ValidationError("need 1 <= elite_count <= ensemble size")
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

    def train(self, train_iter, val_iter=None, *, num_epochs: int,
              patience: int) -> TrainerReport:
        """Up to num_epochs epochs; stops after patience epochs with no gain."""
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
        with model.net.keep_work_arrays():
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
                threshold = self.improvement_threshold * abs(report.best_score)
                improved = (best_snapshot is None
                            or report.best_score - mean_elite > threshold)
                if improved:
                    best_snapshot = model.get_flat()
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
            model.set_flat(best_snapshot)
        model.set_elite(best_elites)
        report.elite_indices = best_elites
        report.seconds = time.perf_counter() - start
        return report


@dataclass
class ModelEnvState:
    """Per-particle simulation state of a ModelEnv episode.

    A float32 ModelEnv's episode also carries `stack`, the float32 copy of
    the elites' weights, with the normalizer folded in, made at reset:
    every step of the episode forwards through it, so weights written and
    normalizers refit after the reset do not reach the episode, and its
    steps run in float32; an episode without one steps in float64.
    `groups`, the member assignment grouped over the stack's members (over
    every ensemble index without a stack), is built and checked by the
    episode's first step, the one place that builds groups, and handed to
    `sample` by every step: an episode keeps its particles, so it groups once.
    """

    obs: np.ndarray                      # (P, S)
    member_assignment: np.ndarray | None  # (P,) ints, fixed_model only
    done: np.ndarray                     # (P,) bool
    stack: MemberStack | None = None     # float32 elite weights
    groups: MemberGroups | None = None   # built on first use


class ModelEnv:
    """Wraps a trained transition model as a batched environment.

    Requires a termination function; rewards come from an optional analytic
    reward function or from the model's learned reward head. An episode
    steps a fixed batch of particles: a finished particle stays in it,
    frozen, its observation held and its reward zero thereafter. dtype
    (float32 or float64) is the precision of the model forward at each
    step; observations, rewards, noise and done flags are float64 either
    way. A float32 ModelEnv's `reset` casts the elites' weights once for
    the whole episode into a `MemberStack`, folding the normalizer into
    the first layer, and the stack sets the precision of every step: one
    stacked float32 forward over the elites, fed the raw (obs, action)
    rows. A float64 episode has no stack and forwards each member's own
    rows in float64.

    Each step tests termination once. A reward function that pays 1 per
    step until the termination function fires (its `alive_until` is that
    function, as for `envs.cartpole_reward`) is not called: its reward is
    read off the done flags. This is decided at construction, from the
    functions given; a wrapper of such a reward (one with `__wrapped__`,
    as `functools.wraps` makes, which also copies `alive_until`) may change
    the reward, so it is called.
    """

    def __init__(self, wrapper: TransitionRewardWrapper, termination_fn,
                 reward_fn=None, dtype=np.float64):
        if reward_fn is None and not wrapper.learned_rewards:
            raise ValidationError(
                "need a reward function when rewards are not learned")
        self.wrapper = wrapper
        self.termination_fn = termination_fn
        self.reward_fn = reward_fn
        self._alive_reward = (
            getattr(reward_fn, "alive_until", None) is termination_fn
            and not hasattr(reward_fn, "__wrapped__"))
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValidationError(
                f"model forward dtype must be float32 or float64, got "
                f"{self.dtype}")

    def reset(self, initial_obs: np.ndarray,
              rng: np.random.Generator) -> ModelEnvState:
        initial_obs = np.atleast_2d(np.asarray(initial_obs, dtype=np.float64))
        p = initial_obs.shape[0]
        if p < 1:
            raise ValidationError("need at least one particle")
        model = self.wrapper.model
        stack = None
        if self.dtype != np.float64:
            stack = model.stack_members(sorted(model.elite_indices),
                                        self.wrapper.normalizer)
        assignment = None
        if self.wrapper.propagation == "fixed_model":
            elites = np.asarray(model.elite_indices)
            assignment = elites[rng.integers(0, len(elites), size=p)]
        return ModelEnvState(initial_obs.copy(), assignment,
                             np.zeros(p, dtype=bool), stack)

    def select(self, state: ModelEnvState, rows) -> ModelEnvState:
        """The particles `rows` (indices or a boolean mask) of state, each
        keeping its observation, member and done flag, as an episode of
        their own (grouped by its first step); the episode's stacked
        weights are kept."""
        assignment = None
        if state.member_assignment is not None:
            assignment = state.member_assignment[rows]
        return ModelEnvState(state.obs[rows], assignment, state.done[rows],
                             state.stack)

    def step(self, state: ModelEnvState, actions: np.ndarray,
             rng: np.random.Generator, sample: bool = False):
        actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
        if actions.shape != (state.obs.shape[0], self.wrapper.act_dim):
            raise ValidationError(
                f"bad action shape {actions.shape}; expected "
                f"({state.obs.shape[0]}, {self.wrapper.act_dim})")
        groups = state.groups
        if groups is None and state.member_assignment is not None:
            groups = MemberGroups.from_assignment(
                state.member_assignment,
                range(self.wrapper.model.ensemble_size)
                if state.stack is None else state.stack.members)
        pred_obs, pred_reward = self.wrapper.sample(
            state.obs, actions, rng, sample=sample, groups=groups,
            stack=state.stack)
        # finished particles are frozen: observation held, reward 0 (most
        # steps have none, and then skip the masking)
        done = state.done
        frozen = done.any()
        next_obs = (np.where(done[:, None], state.obs, pred_obs) if frozen
                    else pred_obs)
        if self._alive_reward:
            dones = done | self.termination_fn(actions, next_obs)
            rewards = np.where(dones, 0.0, 1.0)
        else:
            reward = (pred_reward if self.reward_fn is None
                      else self.reward_fn(actions, next_obs))
            rewards = (np.where(done, 0.0, reward) if frozen
                       else np.asarray(reward, dtype=np.float64))
            dones = done | self.termination_fn(actions, next_obs)
        new_state = ModelEnvState(next_obs, state.member_assignment, dones,
                                  state.stack, groups)
        return next_obs, rewards, dones, new_state


# --- checkpointing ----------------------------------------------------------

def _named_parameters(model: GaussianMLPEnsemble) -> dict:
    """Checkpoint name -> view into model.params, in checkpoint order."""
    out = {}
    for e, member in enumerate(model.members):
        for i, (w, b) in enumerate(zip(member.weights, member.biases)):
            out[f"member{e}_w{i}"] = w
            out[f"member{e}_b{i}"] = b
    out["min_logvar"] = model.min_logvar
    out["max_logvar"] = model.max_logvar
    return out


def save_model(wrapper: TransitionRewardWrapper, path) -> None:
    """One self-describing file: network parameters plus wrapper metadata."""
    model = wrapper.model
    arrays = _named_parameters(model)
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
    for name, view in _named_parameters(model).items():
        view[...] = np.reshape(arrays[name], view.shape)
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
