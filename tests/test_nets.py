import math
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from mbrlkit.nets import (AdamState, DenseNet, load_arrays, param_count,
                          save_arrays, sigmoid)
from reference_net import ReferenceNet, relu, silu, silu_grad


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
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = np.zeros(2)
        out = net.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(out, [[1.0, 2.0]])  # no activation on last layer

    def test_zero_weights_gives_bias(self):
        net = DenseNet([3, 2], rng=np.random.default_rng(0))
        net.weights[0][:] = 0.0
        net.biases[0][...] = np.array([0.5, -1.5])
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
        assert net.params.size == param_count([3, 5, 2]) == \
            3 * 5 + 5 + 5 * 2 + 2


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

    def test_backward_uses_up_the_cache(self):
        net = DenseNet([2, 4, 2], rng=np.random.default_rng(0))
        net.forward(np.ones((3, 2)), cache=True)
        net.backward(np.ones((3, 2)))
        with pytest.raises(RuntimeError):
            net.backward(np.ones((3, 2)))

    def test_leaving_kept_arrays_drops_the_cache(self):
        net = DenseNet([2, 4, 2], rng=np.random.default_rng(0))
        with net.keep_work_arrays():
            net.forward(np.ones((3, 2)), cache=True)
        with pytest.raises(RuntimeError):
            net.backward(np.ones((3, 2)))

    def test_uncached_forward_in_kept_arrays_drops_the_cache(self):
        # it writes over the kept arrays that hold the cache
        net = DenseNet([2, 4, 2], rng=np.random.default_rng(0))
        with net.keep_work_arrays():
            net.forward(np.ones((3, 2)), cache=True)
            net.forward(np.ones((3, 2)))
            with pytest.raises(RuntimeError):
                net.backward(np.ones((3, 2)))

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
        ref = ReferenceNet(net)
        ref.forward(x, cache=True)
        w_grads, b_grads, _ = ref.backward(2.0 * (ref.forward(x) - target))
        analytic = np.concatenate(
            [g.ravel() for pair in zip(w_grads, b_grads) for g in pair])
        numeric = finite_diff(loss, flat)
        # floor guards against fd noise on near-zero entries
        denom = np.maximum(np.abs(numeric) + np.abs(analytic), 1e-3)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4
        # and the net's own backward gives the reference's bits
        net.set_flat(flat)
        net.forward(x, cache=True)
        _, _, grads = net.backward(2.0 * (net.forward(x) - target))
        assert np.array_equal(grads, analytic)

    def test_input_gradient(self):
        rng = np.random.default_rng(7)
        net = ReferenceNet(DenseNet([2, 5, 1], rng=rng))
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
        s = expit(z)
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


class TestSigmoidKernel:
    """The numpy sigmoid against the libm form 1 / (1 + exp(-x)), whose
    exp overflow gives 0, on TestSiLUKernel's grid and on random draws of
    many magnitudes."""

    @staticmethod
    def libm_sigmoid(x):
        def one(v):
            try:
                return 1.0 / (1.0 + math.exp(-v))
            except OverflowError:
                return 0.0
        return np.array([one(v) for v in x.tolist()])

    def draws(self):
        rng = np.random.default_rng(11)
        scales = 10.0 ** rng.integers(-8, 4, 20_000)
        return np.concatenate([TestSiLUKernel.grid,
                               rng.standard_normal(20_000) * scales,
                               rng.uniform(-800.0, 800.0, 20_000)])

    def test_matches_libm_reference(self):
        x = self.draws()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = sigmoid(x)
        np.testing.assert_allclose(value, self.libm_sigmoid(x),
                                   rtol=1e-15, atol=0)
        # the grid's ends, -1000 and 1000, saturate exactly
        assert (value[0], value[len(TestSiLUKernel.grid) - 1]) == (0.0, 1.0)


class TestForwardPrecision:
    """The forward runs in float64 whatever the input's dtype, with or
    without cache."""

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_float32_input_gives_float64_bits(self, activation):
        rng = np.random.default_rng(4)
        net = DenseNet([5, 16, 16, 4], activation=activation, rng=rng)
        x32 = rng.standard_normal((40, 5)).astype(np.float32)
        out = net.forward(x32)
        assert out.dtype == np.float64
        assert np.array_equal(out, net.forward(x32.astype(np.float64)))
        assert np.array_equal(net.forward(x32, cache=True), out)
        assert net.params.dtype == np.float64

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_float64_output_unchanged(self, activation):
        rng = np.random.default_rng(5)
        net = DenseNet([5, 16, 16, 4], activation=activation, rng=rng)
        x = rng.standard_normal((40, 5)) * 3.0
        act = silu if activation == "silu" else relu
        expected = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            expected = expected @ w.T + b
            if i < len(net.weights) - 1:
                expected = act(expected)
        out = net.forward(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, expected)
        assert np.array_equal(net.forward(x.astype(np.int64)),
                              net.forward(x.astype(np.int64).astype(float)))


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
                grads = [g.ravel() for pair in zip(w_g, b_g) for g in pair]
                opt.step(net.params, np.concatenate(grads))
            return net.get_flat()

        assert np.array_equal(run(), run())


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        opt = AdamState(lr=1e-3)
        p = np.array([1.0, -2.0])
        opt.step(p, np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])
        assert opt.step_count == 1

    def test_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(g)
        opt = AdamState(lr=1e-3)
        p = np.array([0.0])
        opt.step(p, np.array([5.0]))
        assert p[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_quadratic_descent(self):
        opt = AdamState(lr=0.1)
        p = np.array([1.0])
        for _ in range(200):
            opt.step(p, 2.0 * p.copy())
        assert abs(p[0]) < 1e-2

    def test_nonfinite_gradient_rejected(self):
        opt = AdamState()
        with pytest.raises(FloatingPointError):
            opt.step(np.zeros(1), np.array([np.nan]))

    def test_steps_match_the_written_out_update(self):
        """Several steps, bit for bit the update written out with fresh
        arrays, in the same order of operations."""
        rng = np.random.default_rng(8)
        params = rng.standard_normal(257)
        expected = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        opt = AdamState(lr=3e-3, beta1=0.8, beta2=0.99, eps=1e-7)
        for t in range(1, 7):
            grads = rng.standard_normal(params.shape) * 10.0 ** (t - 3)
            opt.step(params, grads)
            m = 0.8 * m + (1.0 - 0.8) * grads
            v = 0.99 * v + (1.0 - 0.99) * grads * grads
            c1, c2 = 1.0 - 0.8 ** t, 1.0 - 0.99 ** t
            expected = expected - 3e-3 * (m / c1) / (np.sqrt(v / c2) + 1e-7)
            assert np.array_equal(opt.m, m)
            assert np.array_equal(opt.v, v)
            assert np.array_equal(params, expected)
        assert opt.step_count == 6


@st.composite
def batched_cases(draw):
    """A stack of 1-4 networks of 0-3 hidden layers, each of its own
    width, an activation, rows shared by every member or one block a
    member, and whether the net keeps its work arrays."""
    depth = draw(st.integers(min_value=0, max_value=3))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6),
                          min_size=depth + 2, max_size=depth + 2))
    return {
        "members": draw(st.integers(min_value=1, max_value=4)),
        "sizes": sizes,
        "activation": draw(st.sampled_from(["relu", "silu"])),
        "rows": draw(st.integers(min_value=1, max_value=9)),
        "shared": draw(st.booleans()),
        "kept": draw(st.booleans()),
        "seed": draw(st.integers(min_value=0, max_value=2 ** 16)),
    }


class TestBatchedNet:
    """A net with a member axis runs each member as that member's own
    one-network reference would, bit for bit."""

    @given(batched_cases())
    @settings(max_examples=80)
    def test_matches_reference_member_by_member(self, case):
        rng = np.random.default_rng(case["seed"])
        e, sizes = case["members"], case["sizes"]
        net = DenseNet(sizes, case["activation"], rng,
                       params=np.zeros((e, param_count(sizes))))
        for b in net.biases:
            b[...] = rng.normal(scale=0.5, size=b.shape)
        rows = (case["rows"],) if case["shared"] else (e, case["rows"])
        x = rng.standard_normal(rows + (sizes[0],)) * 3.0
        upstream = rng.standard_normal((e, case["rows"], sizes[-1]))
        given_upstream = upstream.copy()
        with net.keep_work_arrays() if case["kept"] else nullcontext():
            if case["kept"]:
                # kept arrays already written by a larger forward
                net.forward(rng.standard_normal(x.shape[:-2] + (
                    case["rows"] + 3, sizes[0])), cache=True)
            out = net.forward(x, cache=True)
            w_grads, b_grads, grads = net.backward(upstream)
            plain = net.forward(x)
        assert out.shape == (e, case["rows"], sizes[-1])
        assert np.array_equal(plain, out)
        assert np.array_equal(upstream, given_upstream)
        assert grads.shape == net.params.shape
        for m in range(e):
            member = net.member(m)
            ref = ReferenceNet(member)
            xm = x if case["shared"] else x[m]
            assert np.array_equal(ref.forward(xm, cache=True), out[m])
            assert np.array_equal(member.forward(xm), out[m])
            ref_w, ref_b, _ = ref.backward(upstream[m])
            for i in range(len(sizes) - 1):
                assert np.array_equal(w_grads[i][m], ref_w[i])
                assert np.array_equal(b_grads[i][m], ref_b[i])

    def test_draws_as_one_net_after_another(self):
        sizes = [3, 5, 4, 2]
        n = param_count(sizes)
        rng = np.random.default_rng(2)
        stacked = DenseNet(sizes, "relu", rng, params=np.zeros((4, n)))
        one_by_one = np.random.default_rng(2)
        for m in range(4):
            alone = DenseNet(sizes, "relu", one_by_one)
            assert np.array_equal(stacked.params[m], alone.params)
            member = stacked.member(m)
            assert np.shares_memory(member.params, stacked.params)
            assert all(np.array_equal(w, stacked.weights[i][m])
                       for i, w in enumerate(member.weights))
        assert rng.bit_generator.state == one_by_one.bit_generator.state

    def test_shapes_checked(self):
        net = DenseNet([3, 4, 2], rng=np.random.default_rng(0),
                       params=np.zeros((2, param_count([3, 4, 2]))))
        for shape in [(5, 2), (3, 5, 3), (2, 5, 2), (5,)]:
            with pytest.raises(ValueError):
                net.forward(np.zeros(shape))
        with pytest.raises(ValueError):
            DenseNet([3, 4, 2], params=np.zeros(7))
        net.forward(np.zeros((2, 5, 3)), cache=True)
        with pytest.raises(ValueError):
            net.backward(np.zeros((5, 2)))


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
