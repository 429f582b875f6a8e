"""The one-network dense forward and backward, written apart from
`mbrlkit.nets.DenseNet`, as the reference that the tests hold it to.

`ReferenceNet` reads the weights and biases of a DenseNet without a member
axis, such as one member of an ensemble (`GaussianMLPEnsemble.members`),
and runs them the plain way: a fresh array for every layer, the
activation's derivative recomputed from the kept pre-activations, and the
gradient wrt the input as well. The finite-difference tests anchor it, and
the batched net must agree with it bit for bit, member by member.
"""

import numpy as np

from mbrlkit.nets import _logistic, layer_views


def silu(x: np.ndarray) -> np.ndarray:
    return x * _logistic(x)


def silu_grad(x: np.ndarray) -> np.ndarray:
    s = _logistic(x)
    return s * (1.0 + x * (1.0 - s))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(np.float64)


class ReferenceNet:
    """Forward and backward of one network, the net's parameters read
    through its weight (out, in) and bias (out,) views."""

    def __init__(self, net):
        if net.params.ndim != 1:
            raise ValueError("the reference runs one network, not a stack")
        self.net = net
        self._act = silu if net.activation == "silu" else relu
        self._act_grad = silu_grad if net.activation == "silu" else relu_grad
        self._cache = None

    def forward(self, x: np.ndarray, cache: bool = False) -> np.ndarray:
        """Output for x (B, in), float64; cache=True keeps the layer inputs
        and pre-activations for `backward`."""
        h = np.asarray(x, dtype=np.float64)
        weights, biases = self.net.weights, self.net.biases
        last = len(weights) - 1
        inputs = [h]   # layer inputs (post-activation of previous layer)
        pre = []       # pre-activation values
        for i, (w, b) in enumerate(zip(weights, biases)):
            z = h @ w.T + b
            pre.append(z)
            h = self._act(z) if i < last else z
            if i < last:
                inputs.append(h)
        if cache:
            self._cache = (inputs, pre)
        return h

    def backward(self, upstream_grad: np.ndarray):
        """(weight_grads, bias_grads, input_grad) of a scalar loss, given
        d(loss)/d(output), after a forward(..., cache=True); the first two
        are lists of views into one vector laid out like the net's
        params."""
        if self._cache is None:
            raise RuntimeError("backward called without a cached forward pass")
        inputs, pre = self._cache
        g = np.asarray(upstream_grad, dtype=np.float64)
        if g.shape != pre[-1].shape:
            raise ValueError(f"upstream grad shape {g.shape} != output "
                             f"shape {pre[-1].shape}")
        w_grads, b_grads = layer_views(self.net.layer_sizes,
                                       np.empty_like(self.net.params))
        weights = self.net.weights
        last = len(weights) - 1
        for i in range(last, -1, -1):
            if i < last:
                g = g * self._act_grad(pre[i])
            np.matmul(g.T, inputs[i], out=w_grads[i])
            np.sum(g, axis=0, out=b_grads[i])
            g = g @ weights[i]
        return w_grads, b_grads, g
