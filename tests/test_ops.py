"""Kernel tests: hand cases, independent oracles, finite differences."""

import dataclasses
import warnings

import numpy as np
import pytest

from mdnn import ops
from mdnn.errors import DimensionError, ParameterError
from mdnn.layers import (Conv2D, Conv2Plus1D, Dense, Dropout, GlobalAvgPool, Layer, Net,
                         ReLU, Reshape)
from mdnn.ops import ConvSpec

# id -> (spec, image H x W): geometries the lowered convolution must get
# right, checked against conv2d_direct and by finite differences
CONV_GEOMETRIES = {
    "stride2_same_odd_hw": (ConvSpec(3, 3, (2, 2), "same", 2, 3), (7, 5)),
    "stride2_same_even_hw": (ConvSpec(3, 3, (2, 2), "same", 2, 3), (6, 6)),
    "kernel_2x3": (ConvSpec(2, 3, (1, 1), "same", 2, 3), (5, 6)),
    "kernel_3x1_stride_2x1": (ConvSpec(3, 1, (2, 1), "same", 2, 3), (7, 4)),
    "valid": (ConvSpec(3, 3, (1, 1), "valid", 2, 3), (5, 6)),
    "valid_stride2": (ConvSpec(3, 3, (2, 2), "valid", 2, 3), (7, 6)),
    "pointwise_stride2_even_hw": (ConvSpec(1, 1, (2, 2), "valid", 2, 3), (6, 6)),
    "pointwise_stride2_odd_hw": (ConvSpec(1, 1, (2, 2), "valid", 2, 3), (7, 5)),
}
# id -> leading batch axes in front of C x H x W
LEADING_AXES = {"no_batch": (), "one_axis": (3,), "two_axes": (2, 3)}
GEOMETRY_CASES = [f"{g}-{lead}" for g in CONV_GEOMETRIES for lead in LEADING_AXES]


def geometry_case(case):
    """(spec, input shape) of a GEOMETRY_CASES id."""
    g, lead = case.split("-")
    spec, hw = CONV_GEOMETRIES[g]
    return spec, LEADING_AXES[lead] + (spec.in_channels,) + hw


class ConvOp(Layer):
    """ops.conv2d and conv2d_backward as a gradient_check model."""

    def __init__(self, spec, rng):
        shape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        super().__init__({"w": rng.standard_normal(shape),
                          "b": rng.standard_normal(spec.out_channels)})
        self.spec = spec

    def forward(self, x, mode="eval"):
        self._x = x
        return ops.conv2d(x, self.params["w"], self.params["b"], self.spec)

    def backward(self, grad_out):
        gi, gw, gb = ops.conv2d_backward(grad_out, self._x, self.params["w"], self.spec)
        self.grads["w"][...] = gw
        self.grads["b"][...] = gb
        return gi


class TestConv2d:
    def test_all_ones_sum(self):
        spec = ConvSpec(3, 3, (1, 1), "valid", 1, 1)
        out = ops.conv2d(np.ones((1, 3, 3)), np.ones((1, 1, 3, 3)), np.zeros(1), spec)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(9.0)

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 6, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        spec = ConvSpec(3, 3, (1, 1), "same", 1, 1)
        assert np.allclose(ops.conv2d(x, w, np.zeros(1), spec), x)

    def test_vs_direct_loop(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 9, 9))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        spec = ConvSpec(3, 3, (2, 2), "valid", 2, 4)
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
            spec = ConvSpec(kh, kw, (stride, stride), padding, cin, cout)
            x = rng.standard_normal((cin, h, w))
            wt = rng.standard_normal((cout, cin, kh, kw))
            b = rng.standard_normal(cout)
            assert np.abs(ops.conv2d(x, wt, b, spec)
                          - ops.conv2d_direct(x, wt, b, spec)).max() < 1e-9

    @pytest.mark.parametrize("stride", [2, (0, 1), (2,), (2, 2, 2), (2.0, 1), ("2", 1), None],
                             ids=["int", "zero", "one_axis", "three_axes", "float", "str",
                                  "none"])
    def test_stride_not_two_positive_ints(self, stride):
        """A stride is one positive int per axis (rows, columns): anything
        else is a ParameterError, never a TypeError."""
        with pytest.raises(ParameterError, match="stride"):
            ConvSpec(3, 3, stride)

    @pytest.mark.parametrize("g", list(CONV_GEOMETRIES))
    def test_lowered_keeps_the_row_phases_a_kernel_row_reads(self, g):
        """Kernel row u reads row phase u % sh of L, so L keeps min(sh, kh)
        phases: one for a 1x1 kernel at stride 2, which copies only the rows
        it reads."""
        spec, hw = CONV_GEOMETRIES[g]
        x = np.random.default_rng(17).standard_normal((spec.in_channels,) + hw)
        w = np.zeros((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
        low, _ = ops._lowered(x, spec, ops._geometry(x, w, None, spec))
        assert low.shape[-3] == min(spec.stride[0], spec.kernel_h)
        if spec.kernel_h == 1:
            assert low.size == x[:, ::spec.stride[0], ::spec.stride[1]].size

    def test_kernel_too_large(self):
        spec = ConvSpec(5, 5, (1, 1), "valid", 1, 1)
        with pytest.raises(DimensionError):
            ops.conv2d(np.zeros((1, 3, 3)), np.zeros((1, 1, 5, 5)), np.zeros(1), spec)


class TestConv2dBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(4)
        spec = ConvSpec(3, 3, (1, 1), "valid", 1, 2)
        x = rng.standard_normal((1, 5, 5))
        w = rng.standard_normal((2, 1, 3, 3))
        gi, gw, gb = ops.conv2d_backward(np.zeros((2, 3, 3)), x, w, spec)
        assert not gi.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule(self):
        spec = ConvSpec(1, 1, (1, 1), "valid", 1, 1)
        x = np.full((1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), 2.0)
        g = np.full((1, 1, 1), 5.0)
        gi, gw, gb = ops.conv2d_backward(g, x, w, spec)
        assert gw[0, 0, 0, 0] == pytest.approx(15.0)  # grad_out * input
        assert gi[0, 0, 0] == pytest.approx(10.0)
        assert gb[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("case", GEOMETRY_CASES)
    def test_finite_differences(self, case):
        spec, shape = geometry_case(case)
        rng = np.random.default_rng(5)
        report = ops.gradient_check(ConvOp(spec, rng), rng.standard_normal(shape))
        assert report["ok"], report

    @pytest.mark.parametrize("lowered", [None, 1], ids=["whole_batch", "one_item"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("g", list(CONV_GEOMETRIES))
    def test_input_gradient_holds_no_negative_zero(self, monkeypatch, g, stride, lowered):
        """The input gradient is summed onto zeros, and under IEEE rounding
        +0.0 plus any value is never -0.0, so no entry is -0.0: not where
        every product is -0.0 (an all -0.0 output gradient times positive
        weights), nor where no output reads the pixel.  A residual block adds
        its shortcut's gradient in place onto only the frames the shortcut
        read; the frames it leaves alone have the bytes an add of the +0.0
        shortcut gradient gave them only because none holds a -0.0."""
        spec, hw = CONV_GEOMETRIES[g]
        spec = dataclasses.replace(spec, stride=(stride, stride))
        if lowered:
            monkeypatch.setattr(ops, "LOWERED_VALUES", lowered)
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, spec.in_channels) + hw)
        w = np.abs(rng.standard_normal((spec.out_channels, spec.in_channels,
                                        spec.kernel_h, spec.kernel_w)))
        shape = ops.conv2d(x, w, None, spec).shape
        for grad_out in (np.full(shape, -0.0), rng.standard_normal(shape)):
            gi = ops.conv2d_backward(grad_out, x, w, spec)[0]
            assert not np.signbit(gi[gi == 0.0]).any()


# id -> (spec, input shape): every CONV_GEOMETRIES geometry behind one and
# behind two batch axes, and a frame-major transposed view, ``TRANSPOSED``
CHUNK_LEADING = {"one_axis": (5,), "two_axes": (2, 3)}
CHUNK_CASES = [f"{g}-{lead}" for g in CONV_GEOMETRIES for lead in CHUNK_LEADING]
TRANSPOSED = "valid_stride2-transposed"
# LOWERED_VALUES, in items, too small for these batches of 5 and of 2 x 3, so
# that each runs one item a chunk: below one item, one, and several
CHUNK_ITEMS = [0.5, 1, 2.5, 4]


def conv_results(spec, x, seed=21):
    """The bytes of conv2d and of each conv2d_backward output on ``x``."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel_h,
                             spec.kernel_w))
    b = rng.standard_normal(spec.out_channels)
    y = ops.conv2d(x, w, b, spec)
    grads = ops.conv2d_backward(rng.standard_normal(y.shape), x, w, spec)
    return [a.tobytes() for a in (y, *grads)]


def chunk_case(case, rng):
    """(spec, input, values of one item) of a CHUNK_CASES id or of
    TRANSPOSED: 2 x 3 x C x H x W frames viewed from a 2 x C x 3 x H x W
    array, never copied."""
    g, lead = case.split("-")
    spec, hw = CONV_GEOMETRIES[g]
    if case == TRANSPOSED:
        x = rng.standard_normal((2, spec.in_channels, 3, *hw)).transpose(0, 2, 1, 3, 4)
        assert not x.flags.c_contiguous
    else:
        x = rng.standard_normal(CHUNK_LEADING[lead] + (spec.in_channels,) + hw)
    w = np.zeros((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    return spec, x, ops._item_values(spec, ops._geometry(x, w, None, spec))


class TestChunkedConv:
    """Past ``ops.LOWERED_VALUES``, conv2d and conv2d_backward lower and
    differentiate the batch one item at a time; every output and gradient
    keeps the one-chunk bytes."""

    @pytest.mark.parametrize("items", CHUNK_ITEMS)
    @pytest.mark.parametrize("case", CHUNK_CASES + [TRANSPOSED])
    def test_chunks_give_the_one_chunk_bytes(self, monkeypatch, case, items):
        spec, x, item = chunk_case(case, np.random.default_rng(22))
        whole = conv_results(spec, x)
        monkeypatch.setattr(ops, "LOWERED_VALUES", int(items * item))
        assert len(ops._chunks(x.shape[:-3], item)) > 1
        assert conv_results(spec, x) == whole

    @pytest.mark.parametrize("items", CHUNK_ITEMS + [6])
    @pytest.mark.parametrize("case", CHUNK_CASES + [TRANSPOSED])
    def test_chunks_are_views_covering_the_batch_in_order(self, monkeypatch, case, items):
        spec, x, item = chunk_case(case, np.random.default_rng(23))
        monkeypatch.setattr(ops, "LOWERED_VALUES", int(items * item))
        chunks = ops._chunks(x.shape[:-3], item)
        order = np.arange(np.prod(x.shape[:-3])).reshape(x.shape[:-3] + (1, 1, 1))
        assert np.array_equal(np.concatenate([order[i].ravel() for i in chunks]),
                              order.ravel())
        assert all(np.shares_memory(x[i], x) for i in chunks)
        assert all(order[i].size * item <= max(ops.LOWERED_VALUES, item) for i in chunks)
        assert (chunks == [...]) == (items == 6)
        if items < 6:  # a batch that does not fit runs one item a chunk
            assert len(chunks) == order.size

    def test_one_span_per_layer_call(self, monkeypatch):
        """A chunked Conv2D forward and backward each call the public ops
        function once, so a tracer that wraps those sees one span a call."""
        calls = []
        for name in ("conv2d", "conv2d_backward"):
            def counted(*args, _name=name, _fn=getattr(ops, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(ops, name, counted)
        monkeypatch.setattr(ops, "LOWERED_VALUES", 1)
        layer = Conv2D(ConvSpec(3, 3, (1, 1), "same", 2, 3))
        y = layer.forward(np.random.default_rng(24).standard_normal((4, 2, 5, 5)))
        layer.backward(np.ones_like(y))
        assert calls == ["conv2d", "conv2d_backward"]


def activation_backward(grad_out, y, kind):
    """Oracle gradient of ``ops.activation(x, kind)`` from its output ``y``,
    for the output activations: a sigmoid's Jacobian is y(1 - y), a last-axis
    softmax's diag(y) - y y^T."""
    if kind == "sigmoid":
        return grad_out * y * (1.0 - y)
    assert kind == "softmax_lastdim", kind
    return y * (grad_out - (grad_out * y).sum(axis=-1, keepdims=True))


class OutputActivation(Layer):
    """An output activation (``Net.output``) as a layer, so that finite
    differences can check its oracle gradient."""

    def __init__(self, kind):
        super().__init__()
        self.kind = kind

    def forward(self, x, mode="eval"):
        self._y = ops.activation(x, self.kind)
        return self._y

    def backward(self, grad_out):
        return activation_backward(grad_out, self._y, self.kind)


class TestActivations:
    def test_relu_values(self):
        y = ReLU().forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(y, [[0.0, 2.0]])

    def test_relu_layer_keeps_a_bool_mask(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        assert layer._mask.dtype == bool
        assert np.array_equal(layer.backward(np.full((1, 3), 3.0)), [[0.0, 0.0, 3.0]])

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
        net = Net([("a", ReLU() if kind == "relu" else OutputActivation(kind))], (12,))
        # keep relu inputs away from the kink
        x = rng.standard_normal(12)
        x = np.where(np.abs(x) < 1e-2, 0.5, x)
        report = ops.gradient_check(net, x)
        assert report["max_rel_err"] < 1e-5, report


def dropout_train(x, rate, seed):
    layer = Dropout(rate)
    layer.rng = np.random.default_rng(seed)
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

    def test_masks_are_bool_and_keep_the_bytes(self):
        """Dropout keeps its mask as bool and scales after masking; the bytes
        equal those of the float mask (0 or 1/(1-rate)) it replaces."""
        x = np.random.default_rng(25).standard_normal((3, 50))
        layer = Dropout(0.3)
        layer.rng = np.random.default_rng(26)
        y = layer.forward(x, mode="train")
        assert layer._mask.dtype == bool and layer._mask.shape == x.shape
        assert y.tobytes() == (x * (layer._mask / (1.0 - 0.3))).tobytes()
        assert layer.backward(x).tobytes() == y.tobytes()


class TestGlobalAvgPool:
    """The layer on one C x ... sample, the N=1 batch ``x[None]``."""

    def test_constant(self):
        assert np.allclose(GlobalAvgPool().forward(np.full((3, 2, 4, 4), 7.5)[None])[0], 7.5)

    def test_singleton_spatial(self):
        x = np.arange(5.0).reshape(5, 1, 1, 1)
        assert np.array_equal(GlobalAvgPool().forward(x[None])[0], np.arange(5.0))

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
        assert np.abs(GlobalAvgPool().forward(x[None])[0] - expect).max() < 1e-12


class TestGradientCheck:
    def test_dense_sigmoid(self):
        rng = np.random.default_rng(10)
        net = Net([("d", Dense(6, 3)), ("s", OutputActivation("sigmoid"))], (6,))
        net.init_params(11)
        net.jitter(12)
        report = ops.gradient_check(net, rng.standard_normal(6))
        assert report["max_rel_err"] < 1e-5

    def test_relu_inactive_side_exact_zero(self):
        net = Net([("r", ReLU())], ())
        net.forward(np.array([-1.0, -2.0]))
        g = net.backward(np.ones(2))
        assert np.array_equal(g, [0.0, 0.0])

    def test_layer_kinds_all_pass(self):
        rng = np.random.default_rng(13)
        cases = [
            (Net([("c", Conv2D(ConvSpec(3, 3, (1, 1), "valid", 1, 2)))], (1, 5, 5)),
             rng.standard_normal((1, 5, 5))),
            (Net([("d", Dense(5, 4))], (5,)), rng.standard_normal(5)),
            (Net([("p", GlobalAvgPool())], (2, 3, 3)), rng.standard_normal((2, 3, 3))),
            (Net([("f", Reshape((-1,))), ("d", Dense(8, 2))], (2, 2, 2)),
             rng.standard_normal((2, 2, 2))),
            (Net([("c", Conv2Plus1D(2, 2))], (2, 3, 4, 4)), rng.random((2, 3, 4, 4))),
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
    spec = ConvSpec(3, 3, (1, 1), "same", 2, 3)
    a = ops.conv2d(x, w, b, spec)
    assert np.array_equal(a, ops.conv2d(x, w, b, spec))
    s = ops.activation(x, "sigmoid")
    assert np.array_equal(s, ops.activation(x, "sigmoid"))
