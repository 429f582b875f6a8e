"""Minimal dense-network substrate with hand-derived gradients.

Parameters live in one float64 vector, with weights and biases as views
into it. Parameters, gradients, training, checkpoints and the forward are
float64. Training does not go through `DenseNet`: it runs one stacked
pass over an ensemble's members (`GaussianMLPEnsemble.update`). Nor do
float32 planning rollouts: they run one stacked float32 forward
(`GaussianMLPEnsemble.stacked_forward`), with the activations of
`BUFFERED_ACTIVATIONS`; a stacked SiLU layer holds half its weights and
bias, and its activation takes z / 2. `forward(cache=True)` and `backward`
are the one-network reference: tests anchor them to central finite
differences and check the stacked training pass against them bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .fileio import replace_on_success

ACTIVATIONS = ("silu", "relu")


def sigmoid(x: np.ndarray) -> np.ndarray:
    return expit(x)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) on numpy's vectorized exp, ~3x faster than expit,
    written into out (x's shape; allocated when None).

    Below x = -709.78 exp(-x) overflows to inf and the result is 0, as with
    expit; that overflow is expected, so it is not reported.
    """
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


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


def _relu_inplace(x: np.ndarray, zeros: np.ndarray | None = None
                  ) -> np.ndarray:
    """ReLU of x in place, as the maximum of x and 0 or, when given, of x
    and zeros, an array of x's shape and dtype holding 0 that is only
    read: numpy's maximum runs about twice as fast against it as against a
    scalar."""
    return np.maximum(x, 0.0 if zeros is None else zeros, out=x)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


def _silu_buffered(x: np.ndarray, work: np.ndarray) -> np.ndarray:
    """silu(z) in place of x = z / 2, as x * (1 + tanh(x)), since
    sigmoid(z) = (1 + tanh(z / 2)) / 2, with work (x's shape and dtype) as
    the only temporary: three passes and no divide. tanh saturates to -1,
    giving -0, for very negative x, and to 1, giving z, for large x."""
    np.tanh(x, out=work)
    work += 1.0
    x *= work
    return x


# activation name -> (act(x, work), scale): act applies the activation in
# place to x, the layer's output computed with its weights and bias times
# scale (a power of two, so that the scaling is exact), allocating
# nothing; work is an array of x's shape and dtype, zero-filled when it was
# made and kept for the activation alone: SiLU overwrites it, ReLU reads it
# as its zeros and so leaves it zero
BUFFERED_ACTIVATIONS = {"silu": (_silu_buffered, 0.5),
                        "relu": (_relu_inplace, 1.0)}


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Gaussian draws with resampling outside +/- 2 std."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while np.any(bad):
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def param_count(layer_sizes) -> int:
    """Number of weights and biases of a DenseNet with these layer sizes."""
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]))


def layer_views(layer_sizes, vector: np.ndarray):
    """Lists of weight (..., out, in) and bias (..., out) views into the
    last axis of vector, laid out as a DenseNet's params: w0, b0, w1, b1,
    ...; a leading axis, such as an ensemble's members, is kept."""
    weights, biases, offset = [], [], 0
    lead = vector.shape[:-1]
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(vector[..., offset:offset + fan_out * fan_in]
                       .reshape(lead + (fan_out, fan_in)))
        offset += fan_out * fan_in
        biases.append(vector[..., offset:offset + fan_out])
        offset += fan_out
    return weights, biases


class DenseNet:
    """Fully connected network; activation on all layers except the last.

    layer_sizes is [in, h1, ..., out]. Weights use truncated-Gaussian fan-in
    initialization (std = 1/sqrt(2 * fan_in), truncated at 2 sigma) and
    zero biases. They live in `params`, a zeroed float64 vector of
    `param_count(layer_sizes)` entries (allocated when None), as w0, b0, w1,
    b1, ...; `weights` and `biases` are tuples of views into it.
    """

    def __init__(self, layer_sizes, activation: str = "silu",
                 rng: np.random.Generator | None = None,
                 params: np.ndarray | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; "
                             f"choose from {ACTIVATIONS}")
        if rng is None:
            rng = np.random.default_rng()
        self.layer_sizes = list(int(s) for s in layer_sizes)
        self.activation = activation
        n = param_count(self.layer_sizes)
        self.params = np.zeros(n) if params is None else params
        weights, biases = layer_views(self.layer_sizes, self.params)
        for w in weights:
            fan_in = w.shape[1]
            w[...] = truncated_normal(rng, w.shape, 1.0 / np.sqrt(2.0 * fan_in))
        self.weights, self.biases = tuple(weights), tuple(biases)
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

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        """Output for x (B, in), float64 whatever x's dtype. cache=True
        keeps the layer inputs and pre-activations for `backward`; without
        it the bias and activation are applied in place and nothing is
        kept. Float32 planning rollouts run the ensemble's stacked forward
        instead (`GaussianMLPEnsemble.stacked_forward`)."""
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

    def backward(self, upstream_grad: np.ndarray,
                 out: np.ndarray | None = None):
        """Gradients of a scalar loss wrt parameters, given d(loss)/d(output).

        Requires a preceding forward(..., cache=True). The parameter
        gradients are written into `out`, a vector laid out like `params`
        (allocated when None). Returns (weight_grads, bias_grads,
        input_grad), the first two as lists of views into that vector.
        The reference for `GaussianMLPEnsemble.update`, which trains
        without it.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        inputs, pre = self._cache
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != pre[-1].shape:
            raise ValueError(f"upstream grad shape {g.shape} != output "
                             f"shape {pre[-1].shape}")
        w_grads, b_grads = layer_views(
            self.layer_sizes,
            np.empty_like(self.params) if out is None else out)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                g = g * self._act_grad(pre[i])
            np.matmul(g.T, inputs[i], out=w_grads[i])
            np.sum(g, axis=0, out=b_grads[i])
            g = g @ self.weights[i]
        return w_grads, b_grads, g

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self.params[...] = np.reshape(flat, self.params.shape)


@dataclass
class AdamState:
    """Bias-corrected Adam over one parameter array, such as a network's or
    an ensemble's flat parameter vector; m and v are created on the first
    step with the shape of the parameters."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Updates params in place; raises on non-finite gradients."""
        if params.shape != grads.shape:
            raise ValueError(f"params shape {params.shape} != grads shape "
                             f"{grads.shape}")
        if self.m is None:
            self.m = np.zeros_like(params)
            self.v = np.zeros_like(params)
        if not np.all(np.isfinite(grads)):
            raise FloatingPointError("non-finite gradient in Adam step")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grads
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grads * grads
        params -= self.lr * (self.m / c1) / (np.sqrt(self.v / c2) + self.eps)


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
