"""Minimal dense-network substrate with hand-derived gradients.

All math is float64. The backward pass is written for the fixed
affine/activation architecture used by the Gaussian MLPs; correctness is
anchored to central finite differences in the test suite.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .fileio import replace_on_success

ACTIVATIONS = ("silu", "relu")


def sigmoid(x: np.ndarray) -> np.ndarray:
    return expit(x)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on numpy's vectorized exp, ~3x faster than expit.

    Below x = -709.78 exp(-x) overflows to inf and the result is 0, as with
    expit; that overflow is expected, so it is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(x: np.ndarray) -> np.ndarray:
    return x * _logistic(x)


def _silu_inplace(x: np.ndarray) -> np.ndarray:
    x *= _logistic(x)
    return x


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = _logistic(x)
    return s * (1.0 + x * (1.0 - s))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_inplace(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0, out=x)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Gaussian draws with resampling outside +/- 2 std."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


class DenseNet:
    """Fully connected network; activation on all layers except the last.

    layer_sizes is [in, h1, ..., out]. Weights use truncated-Gaussian fan-in
    initialization (std = 1/sqrt(2 * fan_in), truncated at 2 sigma).
    """

    def __init__(self, layer_sizes, activation: str = "silu",
                 rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {ACTIVATIONS}")
        if rng is None:
            rng = np.random.default_rng()
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.activation = activation
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            std = 1.0 / np.sqrt(2.0 * fan_in)
            self.weights.append(truncated_normal(rng, (fan_out, fan_in), std))
            self.biases.append(np.zeros(fan_out))
        self._act = silu if activation == "silu" else relu
        self._act_inplace = (_silu_inplace if activation == "silu"
                             else _relu_inplace)
        self._act_grad = silu_grad if activation == "silu" else relu_grad
        self._cache = None

    @property
    def in_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_size(self) -> int:
        return self.layer_sizes[-1]

    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        """Output for x (B, in). cache=True keeps the layer inputs and
        pre-activations for `backward`; without it the bias and activation
        are applied in place and nothing is kept."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_size:
            raise ValueError(f"expected (B, {self.in_size}) input, got {x.shape}")
        h = x
        last = len(self.weights) - 1
        if not cache:
            for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                h = h @ w.T
                h += b
                if i < last:
                    self._act_inplace(h)
            return h
        inputs = [x]   # layer inputs (post-activation of previous layer)
        pre = []       # pre-activation values
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            pre.append(z)
            h = self._act(z) if i < last else z
            if i < last:
                inputs.append(h)
        self._cache = (inputs, pre)
        return h

    def backward(self, upstream_grad: np.ndarray):
        """Gradients of a scalar loss wrt parameters, given d(loss)/d(output).

        Requires a preceding forward(..., cache=True). Returns
        (weight_grads, bias_grads, input_grad).
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        inputs, pre = self._cache
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != pre[-1].shape:
            raise ValueError(f"upstream grad shape {g.shape} != output "
                             f"shape {pre[-1].shape}")
        n_layers = len(self.weights)
        w_grads = [None] * n_layers
        b_grads = [None] * n_layers
        for i in range(n_layers - 1, -1, -1):
            if i < n_layers - 1:
                g = g * self._act_grad(pre[i])
            w_grads[i] = g.T @ inputs[i]
            b_grads[i] = g.sum(axis=0)
            g = g @ self.weights[i]
        return w_grads, b_grads, g

    # flat parameter access, used by the optimizer and checkpoints
    def parameters(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params) -> None:
        expected = 2 * len(self.weights)
        if len(params) != expected:
            raise ValueError(f"expected {expected} arrays, got {len(params)}")
        for i in range(len(self.weights)):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise ValueError("parameter shape mismatch")
            self.weights[i] = w.copy()
            self.biases[i] = b.copy()

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        params = []
        offset = 0
        for p in self.parameters():
            params.append(flat[offset:offset + p.size].reshape(p.shape))
            offset += p.size
        if offset != flat.size:
            raise ValueError("flat vector size mismatch")
        self.set_parameters(params)


@dataclass
class AdamState:
    """Bias-corrected Adam over a list of parameter arrays."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def step(self, params, grads) -> None:
        """Updates params in place; raises on non-finite gradients."""
        if len(params) != len(grads):
            raise ValueError("params/grads length mismatch")
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in Adam step")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


CHECKPOINT_VERSION = 1


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    """Versioned named-array checkpoint; round-trips bit-exactly via npz.

    Like np.savez, appends .npz to a path without it. The file is replaced
    whole, never torn."""
    payload = {k: np.asarray(v) for k, v in arrays.items()}
    header = {"version": CHECKPOINT_VERSION, "meta": meta or {}}
    payload["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with replace_on_success(path) as tmp:
        np.savez(tmp, **payload)


def load_arrays(path):
    """Returns (arrays dict, meta dict)."""
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version in {path}")
        arrays = {k: data[k] for k in data.files if k != "__header__"}
    return arrays, header.get("meta", {})
