import warnings

import numpy as np
import pytest
from scipy.special import expit

from mbrlkit.nets import (AdamState, DenseNet, load_arrays, save_arrays,
                          sigmoid, silu, silu_grad)


def finite_diff(f, flat, h=1e-5):
    grad = np.empty_like(flat)
    for i in range(flat.size):
        xp = flat.copy()
        xp[i] += h
        xm = flat.copy()
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


class TestForward:
    def test_identity_layer(self):
        net = DenseNet([2, 2], rng=np.random.default_rng(0))
        net.weights[0] = np.eye(2)
        net.biases[0] = np.zeros(2)
        out = net.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])  # no activation on last layer

    def test_zero_weights_gives_bias(self):
        net = DenseNet([3, 2], rng=np.random.default_rng(0))
        net.weights[0][:] = 0.0
        net.biases[0] = np.array([0.5, -1.5])
        out = net.forward(np.zeros((4, 3)) + 7.0)
        assert np.allclose(out, [[0.5, -1.5]] * 4)

    def test_matches_scalar_recomputation(self):
        rng = np.random.default_rng(42)
        net = DenseNet([3, 4, 2], activation="silu", rng=rng)
        x = rng.standard_normal((5, 3))
        out = net.forward(x)
        # scalar-by-scalar recomputation
        for b in range(5):
            h = x[b]
            z = net.weights[0] @ h + net.biases[0]
            h = np.array([zi / (1.0 + np.exp(-zi)) for zi in z])
            y = net.weights[1] @ h + net.biases[1]
            assert np.max(np.abs(y - out[b])) < 1e-12

    def test_shape_mismatch(self):
        net = DenseNet([3, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 4)))

    def test_param_count(self):
        net = DenseNet([3, 5, 2], rng=np.random.default_rng(0))
        assert net.num_params() == 3 * 5 + 5 + 5 * 2 + 2


class TestBackward:
    def test_single_linear_layer_hand_grad(self):
        net = DenseNet([2, 1], rng=np.random.default_rng(0))
        x = np.array([[1.0, 2.0]])
        net.forward(x, cache=True)
        # loss = sum of outputs
        w_grads, b_grads, _ = net.backward(np.ones((1, 1)))
        assert np.array_equal(w_grads[0], [[1.0, 2.0]])
        assert np.array_equal(b_grads[0], [1.0])

    def test_zero_upstream_zero_tape(self):
        net = DenseNet([2, 4, 2], rng=np.random.default_rng(0))
        net.forward(np.ones((3, 2)), cache=True)
        w_grads, b_grads, _ = net.backward(np.zeros((3, 2)))
        assert all(np.all(g == 0) for g in w_grads + b_grads)

    def test_backward_without_forward_errors(self):
        net = DenseNet([2, 2], rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            net.backward(np.ones((1, 2)))

    @pytest.mark.parametrize("width", [2, 8, 32])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_finite_difference_agreement(self, width, depth):
        rng = np.random.default_rng(width * 10 + depth)
        sizes = [3] + [width] * depth + [2]
        net = DenseNet(sizes, activation="silu", rng=rng)
        x = rng.standard_normal((4, 3))
        target = rng.standard_normal((4, 2))

        def loss(flat):
            net.set_flat(flat)
            return float(np.sum((net.forward(x) - target) ** 2))

        flat = net.get_flat()
        net.forward(x, cache=True)
        w_grads, b_grads, _ = net.backward(2.0 * (net.forward(x) - target))
        analytic = np.concatenate(
            [g.ravel() for pair in zip(w_grads, b_grads) for g in pair])
        numeric = finite_diff(loss, flat)
        # floor guards against fd noise on near-zero entries
        denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-3)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_input_gradient(self):
        rng = np.random.default_rng(7)
        net = DenseNet([2, 5, 1], rng=rng)
        x = rng.standard_normal((1, 2))
        net.forward(x, cache=True)
        _, _, dx = net.backward(np.ones((1, 1)))
        h = 1e-6
        for i in range(2):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            num = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * h)
            assert abs(dx[0, i] - num) < 1e-6


class TestSiLU:
    def test_zero(self):
        assert silu(np.array([0.0]))[0] == 0.0

    def test_asymptote(self):
        x = np.array([30.0, 50.0])
        assert np.allclose(silu(x), x, atol=1e-8)

    def test_monotone_nonnegative(self):
        x = np.linspace(0, 20, 2000)
        assert np.all(np.diff(silu(x)) > 0)

    def test_derivative_formula(self):
        z = np.linspace(-5, 5, 101)
        s = sigmoid(z)
        assert np.allclose(silu_grad(z), s * (1 + z * (1 - s)))


class TestSiLUKernel:
    """silu/silu_grad against x * expit(x) and its expit-based derivative,
    including the range where exp(-x) overflows."""

    grid = np.linspace(-1000.0, 1000.0, 400_001)

    def test_matches_expit_reference(self):
        s = expit(self.grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = silu(self.grid)
            grad = silu_grad(self.grid)
        np.testing.assert_allclose(value, self.grid * s, rtol=1e-14, atol=0)
        np.testing.assert_allclose(grad, s * (1.0 + self.grid * (1.0 - s)),
                                   rtol=1e-14, atol=0)

    def test_saturated_ends(self):
        x = np.array([-1000.0, -710.0, 710.0, 1000.0])
        assert np.array_equal(silu(x), [0.0, 0.0, 710.0, 1000.0])
        assert np.array_equal(silu_grad(x), [0.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_inference_forward_matches_cached_forward(self, activation):
        rng = np.random.default_rng(3)
        net = DenseNet([5, 16, 16, 4], activation=activation, rng=rng)
        x = rng.standard_normal((40, 5)) * 50.0
        x_before = x.copy()
        lean = net.forward(x)
        assert net._cache is None
        assert np.array_equal(lean, net.forward(x, cache=True))
        assert np.array_equal(x, x_before)


class TestDeterminism:
    def test_identical_seeds_identical_params(self):
        a = DenseNet([4, 8, 2], rng=np.random.default_rng(11))
        b = DenseNet([4, 8, 2], rng=np.random.default_rng(11))
        assert np.array_equal(a.get_flat(), b.get_flat())

    def test_identical_training_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            net = DenseNet([2, 6, 1], rng=rng)
            opt = AdamState(lr=1e-2)
            x = rng.standard_normal((16, 2))
            t = rng.standard_normal((16, 1))
            for _ in range(10):
                out = net.forward(x, cache=True)
                w_g, b_g, _ = net.backward(2 * (out - t) / 16)
                grads = [g for pair in zip(w_g, b_g) for g in pair]
                opt.step(net.parameters(), grads)
            return net.get_flat()

        assert np.array_equal(run(), run())


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        opt = AdamState(lr=1e-3)
        p = np.array([1.0, -2.0])
        opt.step([p], [np.zeros(2)])
        assert np.array_equal(p, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(g)
        opt = AdamState(lr=1e-3)
        p = np.array([0.0])
        opt.step([p], [np.array([5.0])])
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_quadratic_descent(self):
        opt = AdamState(lr=0.1)
        p = np.array([1.0])
        for _ in range(200):
            opt.step([p], [2.0 * p.copy()])
        assert abs(p[0]) < 1e-2

    def test_nonfinite_gradient_rejected(self):
        opt = AdamState()
        with pytest.raises(FloatingPointError):
            opt.step([np.zeros(1)], [np.array([np.nan])])


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"w0": rng.standard_normal((3, 4)), "b0": rng.standard_normal(4)}
        path = tmp_path / "ckpt.npz"
        save_arrays(path, arrays, {"note": "test"})
        loaded, meta = load_arrays(path)
        assert meta == {"note": "test"}
        for k in arrays:
            assert np.array_equal(arrays[k], loaded[k])
            assert arrays[k].dtype == loaded[k].dtype
