"""Kernel tests: hand cases, independent oracles, finite differences."""

import warnings

import numpy as np
import pytest

from mdnn import ops
from mdnn.errors import DimensionError, ParameterError
from mdnn.layers import (Activation, Conv2D, Conv2Plus1D, Dense, Dropout,
                         Flatten, GlobalAvgPool, Net)
from mdnn.ops import ConvSpec


class TestConv2d:
    def test_all_ones_sum(self):
        spec = ConvSpec(3, 3, 1, "valid", 1, 1)
        out = ops.conv2d(np.ones((1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1), spec)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(9.0)

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        spec = ConvSpec(3, 3, 1, "same", 1, 1)
        assert np.allclose(ops.conv2d(x, w, np.zeros(1), spec), x)

    def test_vs_direct_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 9, 9))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        spec = ConvSpec(3, 3, 2, "valid", 2, 4)
        fast = ops.conv2d(x, w, b, spec)
        assert np.abs(fast - ops.conv2d_direct(x, w, b, spec)).max() < 1e-9

    def test_fast_path_equals_direct_200_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h = int(rng.integers(kh, kh + 6))
            w = int(rng.integers(kw, kw + 6))
            stride = int(rng.integers(1, 3))
            padding = "same" if rng.random() < 0.5 else "valid"
            spec = ConvSpec(kh, kw, stride, padding, cin, cout)
            x = rng.standard_normal((cin, h, w))
            wt = rng.standard_normal((cout, cin, kh, kw))
            b = rng.standard_normal(cout)
            assert np.abs(ops.conv2d(x, wt, b, spec)
                          - ops.conv2d_direct(x, wt, b, spec)).max() < 1e-9

    def test_kernel_too_large(self):
        spec = ConvSpec(5, 5, 1, "valid", 1, 1)
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 3, 3)), np.zeros((1, 1, 5, 5)), np.zeros(1), spec)


class TestConv2dBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(4)
        spec = ConvSpec(3, 3, 1, "valid", 1, 2)
        x = rng.standard_normal((1, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3))
        gi, gw, gb = ops.conv2d_backward(np.zeros((2, 3, 3)), x, w, spec)
        assert not gi.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule(self):
        spec = ConvSpec(1, 1, 1, "valid", 1, 1)
        x = np.full((1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        g = np.full((1, 1, 1), 5.0)
        gi, gw, gb = ops.conv2d_backward(g, x, w, spec)
        assert gw[0, 0, 0, 0] == pytest.approx(15.0)  # grad_out * input
        assert gi[0, 0, 0] == pytest.approx(10.0)
        assert gb[0] == pytest.approx(5.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(5)
        net = Net([("c", Conv2D(ConvSpec(3, 3, 2, "same", 2, 3)))])
        net.init_params(6)
        net.jitter(7)
        report = ops.gradient_check(net, rng.standard_normal((2, 6, 6)))
        assert report["ok"], report


class TestActivations:
    def test_relu_values(self):
        y = ops.activation(np.array([-1.0, 2.0]), "relu")
        assert np.array_equal(y, [0.0, 2.0])

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(50)
        assert ops.activation(np.zeros(1), "sigmoid")[0] == pytest.approx(0.5)
        s = ops.activation(x, "sigmoid") + ops.activation(-x, "sigmoid")
        assert np.allclose(s, 1.0, atol=1e-14)

    def test_sigmoid_underflows_to_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = ops.activation(np.array([-800.0, 800.0]), "sigmoid")
        assert np.array_equal(y, [0.0, 1.0])

    def test_softmax_normalizes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 5))
        y = ops.activation(x, "softmax_lastdim")
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12
        assert ((y > 0) & (y < 1)).all()

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax_lastdim"])
    def test_backward_finite_differences(self, kind):
        rng = np.random.default_rng(8)
        net = Net([("a", Activation(kind))])
        # keep relu inputs away from the kink
        x = rng.standard_normal(12)
        x = np.where(np.abs(x) < 1e-2, 0.5, x)
        report = ops.gradient_check(net, x)
        assert report["max_rel_err"] < 1e-5, report


def dropout_train(x, rate, seed):
    layer = Dropout(rate)
    layer.reseed(seed)
    return layer.forward(x, mode="train")


class TestDropout:
    def test_rate_zero_train(self):
        x = np.arange(6.0)
        assert np.array_equal(dropout_train(x, 0.0, 1), x)

    def test_eval_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(Dropout(0.7).forward(x, mode="eval"), x)

    def test_zero_fraction_concentrates(self):
        y = dropout_train(np.ones(100_000), 0.5, 42)
        assert abs((y == 0).mean() - 0.5) < 0.01

    def test_expectation_preserved(self):
        y = dropout_train(np.ones(100_000), 0.5, 43)
        assert abs(y.mean() - 1.0) < 0.01

    def test_deterministic_per_seed(self):
        x = np.ones(1000)
        assert np.array_equal(dropout_train(x, 0.3, 9), dropout_train(x, 0.3, 9))

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            Dropout(1.0)


class TestGlobalAvgPool:
    def test_constant(self):
        assert np.allclose(ops.global_avg_pool(np.full((3, 2, 4, 4), 7.5)), 7.5)

    def test_singleton_spatial(self):
        x = np.arange(5.0).reshape(5, 1, 1, 1)
        assert np.array_equal(ops.global_avg_pool(x), np.arange(5.0))

    def test_vs_loop_sum(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4, 5, 6))
        expect = np.zeros(3)
        for c in range(3):
            acc, n = 0.0, 0
            for t in range(4):
                for i in range(5):
                    for j in range(6):
                        acc += x[c, t, i, j]
                        n += 1
            expect[c] = acc / n
        assert np.abs(ops.global_avg_pool(x) - expect).max() < 1e-12


class TestGradientCheck:
    def test_dense_sigmoid(self):
        rng = np.random.default_rng(10)
        net = Net([("d", Dense(6, 3)), ("s", Activation("sigmoid"))])
        net.init_params(11)
        net.jitter(12)
        report = ops.gradient_check(net, rng.standard_normal(6))
        assert report["max_rel_err"] < 1e-5

    def test_relu_inactive_side_exact_zero(self):
        net = Net([("r", Activation("relu"))])
        net.forward(np.array([-1.0, -2.0]))
        g = net.backward(np.ones(2))
        assert np.array_equal(g, [0.0, 0.0])

    def test_layer_kinds_all_pass(self):
        rng = np.random.default_rng(13)
        cases = [
            (Net([("c", Conv2D(ConvSpec(3, 3, 1, "valid", 1, 2)))]),
             rng.standard_normal((1, 5, 5))),
            (Net([("d", Dense(5, 4))]), rng.standard_normal(5)),
            (Net([("p", GlobalAvgPool())]), rng.standard_normal((2, 3, 3))),
            (Net([("f", Flatten()), ("d", Dense(8, 2))]),
             rng.standard_normal((2, 2, 2))),
            (Net([("c", Conv2Plus1D(2, 2))]), rng.random((2, 3, 4, 4))),
        ]
        for net, x in cases:
            net.init_params(14)
            net.jitter(15)
            assert ops.gradient_check(net, x)["ok"]


def test_kernels_bitwise_deterministic():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 8, 8))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    spec = ConvSpec(3, 3, 1, "same", 2, 3)
    a = ops.conv2d(x, w, b, spec)
    assert np.array_equal(a, ops.conv2d(x, w, b, spec))
    s = ops.activation(x, "sigmoid")
    assert np.array_equal(s, ops.activation(x, "sigmoid"))
