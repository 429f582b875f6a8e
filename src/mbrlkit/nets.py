"""Minimal dense-network substrate with hand-derived gradients.

Parameters live in one float64 array, with weights and biases as views into
it. Parameters, gradients, training, checkpoints and the forward are
float64. A `DenseNet` is one network or, with a leading member axis on its
parameters, a stack of E same-shaped ones: an ensemble's members, whose
forward and backward run one matmul per layer over all of them. It is the
one float64 forward and the one backward; `forward(cache=True)` keeps the
hidden outputs and SiLU's derivative for `backward`, in work arrays that
`keep_work_arrays` holds over many calls. Float32 planning rollouts run
one stacked float32 forward instead (`GaussianMLPEnsemble.stacked_forward`),
with the activations of `BUFFERED_ACTIVATIONS`: a stacked SiLU layer holds
half its weights and bias, and its activation takes z / 2. Every kernel is
numpy's: the logistic function behind SiLU and `sigmoid` is one vectorized
exp, so importing the package loads no scipy.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .fileio import replace_on_success

ACTIVATIONS = ("silu", "relu")


def sigmoid(x: np.ndarray) -> np.ndarray:
    return _logistic(x)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) on numpy's vectorized exp, written into out (x's
    shape; allocated when None); within 1e-15 relative of the libm form
    1 / (1 + math.exp(-x)).

    Below x = -709.78 exp(-x) overflows to inf and the result is 0, as in
    the libm form; that overflow is expected, so it is not reported.
    """
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(x, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _relu_inplace(x: np.ndarray, zeros: np.ndarray) -> np.ndarray:
    """ReLU of x in place, as the maximum of x and zeros, an array of x's
    shape and dtype holding 0 that is only read: numpy's maximum runs about
    twice as fast against it as against a scalar."""
    return np.maximum(x, zeros, out=x)


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


def _rows(flat: np.ndarray, lead: tuple, width: int) -> np.ndarray:
    """The start of a flat work array as a lead + (width,) array."""
    return flat[:math.prod(lead) * width].reshape(lead + (width,))


class DenseNet:
    """Fully connected network, or a stack of E same-shaped ones (members);
    activation on all layers except the last.

    layer_sizes is [in, h1, ..., out]. Parameters live in `params`, laid
    out w0, b0, w1, b1, ...: a float64 vector of `param_count(layer_sizes)`
    entries (zeros when None), or an (E, n) array, one such row a member.
    `weights` ((out, in) or (E, out, in)) and `biases` ((out,) or (E, out))
    are tuples of views into it. Weights get truncated-Gaussian fan-in
    initialization (std = 1/sqrt(2 * fan_in), truncated at 2 sigma), drawn
    member by member, layer by layer; biases keep the values in params.
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
        layer_sizes = [int(s) for s in layer_sizes]
        n = param_count(layer_sizes)
        if params is None:
            params = np.zeros(n)
        if params.ndim not in (1, 2) or params.shape[-1] != n:
            raise ValueError(f"parameters {params.shape}, not (E, {n})")
        self._bind(layer_sizes, activation, params)
        for block in np.atleast_2d(params):
            for w in layer_views(layer_sizes, block)[0]:
                w[...] = truncated_normal(rng, w.shape,
                                          1.0 / np.sqrt(2.0 * w.shape[1]))

    def _bind(self, layer_sizes, activation, params) -> None:
        self.layer_sizes = layer_sizes
        self.activation = activation
        self.params = params
        weights, biases = layer_views(layer_sizes, params)
        self.weights, self.biases = tuple(weights), tuple(biases)
        self._cache = self._kept = None

    def member(self, e: int) -> DenseNet:
        """Member e of a net with a member axis, as a net of its own on
        that member's row of `params`: a view, nothing is drawn or
        copied."""
        net = object.__new__(DenseNet)
        net._bind(self.layer_sizes, self.activation, self.params[e])
        return net

    @contextmanager
    def keep_work_arrays(self):
        """Keep the forward's work arrays, sized for the most rows yet,
        until the block exits; outside one, each forward makes its own. A
        forward without cache in the block writes over the arrays that a
        cached forward keeps for `backward`, and so drops that cache."""
        self._kept = []
        try:
            yield
        finally:
            self._kept = self._cache = None

    def _work_arrays(self, count: int, size: int) -> list:
        """count flat work arrays of at least size entries each: rows of
        the kept block inside `keep_work_arrays` (made, or remade larger,
        when too small), fresh ones outside it."""
        kept = [] if self._kept is None else self._kept
        if len(kept) < count or kept[0].size < size:
            # rows of one block: freed, it lifts glibc's mmap threshold over
            # the planning buffers, which then reuse pages, not fault anew
            kept[:] = np.empty((max(count, len(kept)),
                                max(size, kept[0].size if kept else 0)))
        return kept[:count]

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        """Output for x, float64 whatever x's dtype: (B, out) for x
        (B, in); with a member axis, (E, B, out) for x (B, in), the same
        rows for every member, or (E, B, in), one block of rows a member.
        Each layer is one matmul over all members, one bias add and the
        activation, written into work arrays.

        cache=True keeps the input, each hidden layer's output and, for
        SiLU, its derivative s * (1 + z * (1 - s)), taken from the
        forward's logistic s, for `backward`."""
        x = np.asarray(x, dtype=np.float64)
        members = self.params.shape[:-1]
        if x.shape[-1:] != (self.layer_sizes[0],) or not (
                x.ndim == 2 or x.ndim == 3 and x.shape[:1] == members):
            raise ValueError(f"input {x.shape} for {members} members of "
                             f"layer sizes {self.layer_sizes}")
        lead = members + x.shape[-2:-1]
        last = len(self.weights) - 1
        silu = self.activation == "silu"
        # cached: hidden outputs, SiLU's derivatives and two scratch arrays;
        # else two arrays taking turns as a layer's output and its logistic
        work = self._work_arrays(
            last * (1 + silu) + 2 if cache else 2,
            math.prod(lead) * max(self.layer_sizes[1:-1], default=0))
        h, outs, derivs = x, [], []
        for i in range(last):
            width = self.layer_sizes[i + 1]
            h_out = _rows(work[i if cache else i % 2], lead, width)
            z = np.matmul(h, np.swapaxes(self.weights[i], -1, -2),
                          out=_rows(work[last + i], lead, width)
                          if cache and silu else h_out)
            z += self.biases[i][..., None, :]
            if silu:
                s = _logistic(z, out=_rows(work[-1 if cache else 1 - i % 2],
                                           lead, width))
                h = np.multiply(z, s, out=h_out)
                if cache:
                    # silu'(z) = s * (1 + z * (1 - s)), over z
                    z *= np.subtract(1.0, s, out=_rows(work[-2], lead, width))
                    z += 1.0
                    z *= s
                    derivs.append(z)
            else:
                h = np.maximum(z, 0.0, out=h_out)
            outs.append(h)
        out = np.matmul(h, np.swapaxes(self.weights[last], -1, -2))
        out += self.biases[last][..., None, :]
        if cache:
            self._cache = (lead, x, outs, derivs, work[-2:])
        elif self._kept is not None:
            self._cache = None
        return out

    def backward(self, upstream_grad: np.ndarray,
                 out: np.ndarray | None = None):
        """Gradients of a scalar loss wrt parameters, given d(loss)/d(output).

        Takes the cache of the preceding forward(..., cache=True), which it
        uses up. The gradients are written into `out`, an array laid out
        like `params` (allocated when None): per layer, one matmul over all
        members for the weights and one sum over rows for the biases. The
        gradient wrt the input is not computed. Returns (weight_grads,
        bias_grads, grads): lists of views into the gradient array, and
        that array.
        """
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        lead, x, outs, derivs, scratch = self._cache
        self._cache = None
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != lead + (self.layer_sizes[-1],):
            raise ValueError(f"upstream grad shape {g.shape} != output "
                             f"shape {lead + (self.layer_sizes[-1],)}")
        grads = np.empty_like(self.params) if out is None else out
        w_grads, b_grads = layer_views(self.layer_sizes, grads)
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                g *= derivs[i] if derivs else outs[i] > 0.0
            np.matmul(np.swapaxes(g, -1, -2), outs[i - 1] if i else x,
                      out=w_grads[i])
            np.sum(g, axis=-2, out=b_grads[i])
            if i:
                g = np.matmul(g, self.weights[i], out=_rows(
                    scratch[i % 2], lead, self.layer_sizes[i]))
        return w_grads, b_grads, grads

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        self.params[...] = np.reshape(flat, self.params.shape)


@dataclass
class AdamState:
    """Bias-corrected Adam over one parameter array, such as a network's or
    an ensemble's flat parameter vector; m and v, and two scratch arrays
    for each step's intermediates, are made on the first step."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    _work: tuple = field(default=(), init=False, repr=False, compare=False)

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
        if not self._work:
            self._work = (np.empty_like(params), np.empty_like(params))
        a, b = self._work
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        self.m *= self.beta1
        self.m += np.multiply(1.0 - self.beta1, grads, out=a)
        self.v *= self.beta2
        np.multiply(1.0 - self.beta2, grads, out=a)
        a *= grads
        self.v += a
        np.divide(self.m, c1, out=a)
        a *= self.lr
        np.divide(self.v, c2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


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
