"""Batch-first layers and nets: an N x ... batch must give what a loop of
single samples gives.  Batching changes only the summation order inside a
GEMM, so batch results are held to 1e-12 relative against the loop.  A net
takes batches only; ``Net.run`` runs one sample as the N=1 batch, so the two
match bit for bit."""

import tracemalloc

import numpy as np
import pytest

from mdnn import ops, trainer
from mdnn.audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG, audio_forward,
                            build_audio_net)
from mdnn.errors import DimensionError
from mdnn.fusion import FUSION_INPUT_DIM, build_fusion_head
from mdnn.layers import (Conv2D, Conv2Plus1D, Dense, Dropout, GlobalAvgPool,
                         ReLU, Reshape, Residual2Plus1DBlock)
from mdnn.ops import ConvSpec
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG, build_video_net,
                            video_forward)
from test_ops import GEOMETRY_CASES, OutputActivation, geometry_case

N = 5
REL = 1e-12


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= REL * max(np.max(np.abs(b)), 1e-300)


# name -> (net, forward(net, x, mode), sample shape); each forward takes one
# sample or any leading batch axes in front of it
CASES = {
    "video_tiny": (lambda: build_video_net(TINY_VIDEO_CONFIG, rng_seed=3),
                   video_forward, TINY_VIDEO_CONFIG.input_shape),
    "video_gradcheck": (lambda: build_video_net(GRADCHECK_VIDEO_CONFIG, rng_seed=3),
                        video_forward, GRADCHECK_VIDEO_CONFIG.input_shape),
    "audio_tiny": (lambda: build_audio_net(TINY_AUDIO_CONFIG, rng_seed=3),
                   audio_forward, TINY_AUDIO_CONFIG.input_shape),
    "audio_gradcheck": (lambda: build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=3),
                        audio_forward, GRADCHECK_AUDIO_CONFIG.input_shape),
    "fusion": (lambda: build_fusion_head(rng_seed=3),
               lambda net, x, mode="eval": net.run(x, mode),
               (FUSION_INPUT_DIM,)),
}


def make(name, seed=0):
    build, fwd, shape = CASES[name]
    net = build()
    net.jitter(4)
    xs = np.random.default_rng(seed).uniform(0.05, 0.95, (N,) + shape)
    return net, (lambda x, mode="eval": fwd(net, x, mode)), xs


@pytest.mark.parametrize("name", list(CASES))
def test_batch_forward_equals_sample_loop(name):
    net, fwd, xs = make(name)
    batch = fwd(xs)
    assert batch.shape == (N, 2)
    close(batch, np.stack([fwd(x) for x in xs]))


@pytest.mark.parametrize("name", list(CASES))
def test_batch_of_one_is_bitwise_the_sample(name):
    net, fwd, xs = make(name)
    assert np.array_equal(fwd(xs[:1])[0], fwd(xs[0]))


@pytest.mark.parametrize("name", list(CASES))
def test_nets_take_batches_only(name):
    """``Net.forward`` refuses one unbatched sample; ``run`` takes any leading
    axes as the batch, so a 2 x 2 grid of samples is the batch of four."""
    net, fwd, xs = make(name)
    with pytest.raises(DimensionError):
        net.forward(xs[0])
    grid = fwd(xs[:4].reshape((2, 2) + xs.shape[1:]))
    assert np.array_equal(grid, fwd(xs[:4]).reshape(2, 2, 2))


def input_grad(net, fwd, x, g, batched):
    fwd(x)
    return net.backward(g) if batched else net.backward(g[None])[0]


@pytest.mark.parametrize("name", list(CASES))
def test_batch_gradients_equal_summed_sample_gradients(name):
    net, fwd, xs = make(name)
    gs = np.random.default_rng(1).standard_normal((N, 2))
    gx_batch = input_grad(net, fwd, xs, gs, batched=True)
    batch_grads = {k: v.copy() for k, v in net.grads.items()}
    loop_grads = {k: np.zeros_like(v) for k, v in net.grads.items()}
    gx_loop = []
    for x, g in zip(xs, gs):
        gx_loop.append(input_grad(net, fwd, x, g, batched=False))
        for k, v in net.grads.items():
            loop_grads[k] += v
    for k, v in loop_grads.items():
        close(batch_grads[k], v)
    # the audio input gradient is per (1, frames, coeffs) channel image
    close(np.reshape(gx_batch, (N, -1)), np.reshape(gx_loop, (N, -1)))


@pytest.mark.parametrize("name", list(CASES))
def test_backward_writes_every_gradient(name):
    """A backward overwrites whatever its gradients held: after NaN in
    every gradient, one forward and backward give a fresh net's bits."""
    gs = np.random.default_rng(1).standard_normal((N, 2))
    fresh, fwd, xs = make(name)
    input_grad(fresh, fwd, xs, gs, batched=True)
    net, fwd, xs = make(name)
    for g in net.grads.values():
        g.fill(np.nan)
    input_grad(net, fwd, xs, gs, batched=True)
    for k, g in net.grads.items():
        assert np.array_equal(g, fresh.grads[k]), k


@pytest.mark.parametrize("name", ["audio_tiny", "audio_gradcheck"])
def test_train_mode_dropout_masks_match_sequential_draws(name):
    net, fwd, xs = make(name)
    dropout = dict(net.layers)["dropout"]
    net.reseed_dropout(17)
    batch = fwd(xs, mode="train")
    batch_mask = dropout._mask.copy()
    net.reseed_dropout(17)
    loop, masks = [], []
    for x in xs:
        loop.append(fwd(x, mode="train"))
        masks.append(dropout._mask[0].copy())
    assert np.array_equal(batch_mask, np.stack(masks))
    assert (batch_mask == 0).any()
    close(batch, np.stack(loop))


def test_dropout_layer_batch_mask_is_sequential_draws():
    layer = Dropout(0.4)
    layer.rng = np.random.default_rng(5)
    batch = layer.forward(np.ones((4, 7)), mode="train")
    layer.rng = np.random.default_rng(5)
    assert np.array_equal(batch, np.stack([layer.forward(np.ones(7), mode="train")
                                           for _ in range(4)]))


# layer, batched input shape (N = 3)
LAYER_KINDS = {
    "dense": (lambda: Dense(5, 4), (3, 5)),
    "conv2d": (lambda: Conv2D(ConvSpec(3, 3, (2, 2), "same", 2, 3)), (3, 2, 6, 5)),
    "conv2d_stride_2x1": (lambda: Conv2D(ConvSpec(3, 1, (2, 1), "same", 2, 3)), (3, 2, 5, 4)),
    "conv2plus1d_strided": (lambda: Conv2Plus1D(2, 3, stride=2), (3, 2, 4, 5, 5)),
    "residual_block": (lambda: Residual2Plus1DBlock(2, 3, stride=2), (3, 2, 4, 5, 5)),
    "flatten": (lambda: Reshape((-1,)), (3, 2, 2, 2)),
    "image": (lambda: Reshape((1, 4, 5)), (3, 4, 5, 1)),
    "global_avg_pool": (GlobalAvgPool, (3, 2, 3, 3)),
    "dropout_eval": (lambda: Dropout(0.5), (3, 6)),
    "relu": (ReLU, (3, 6)),
    "sigmoid": (lambda: OutputActivation("sigmoid"), (3, 6)),
    "softmax_lastdim": (lambda: OutputActivation("softmax_lastdim"), (3, 6)),
}


class WholeBatch:
    """A layer whose one sample is a whole N x ... batch: ``gradient_check``
    adds a batch axis of one, which this strips before the layer sees it."""

    def __init__(self, layer):
        self.layer, self.params, self.grads = layer, layer.params, layer.grads

    def forward(self, xs, mode="eval"):
        return self.layer.forward(xs[0], mode)[None]

    def backward(self, grad_out):
        return self.layer.backward(grad_out[0])[None]


@pytest.mark.parametrize("kind", list(LAYER_KINDS))
def test_gradient_check_through_batched_layers(kind):
    build, shape = LAYER_KINDS[kind]
    layer = build()
    rng = np.random.default_rng(21)
    layer.init_params(rng)
    for p in layer.params.values():  # off the ReLU kinks, as Net.jitter does
        p += rng.normal(0.0, 0.05, p.shape)
    x = rng.standard_normal(shape)
    x = np.where(np.abs(x) < 1e-2, 0.5, x)
    assert layer.forward(x).shape[0] == 3
    report = ops.gradient_check(WholeBatch(layer), x, tolerance=1e-5)
    assert report["ok"], report


# id -> (spec, input shape): a 3x3 "same" convolution given no stride ("None":
# the default, (1, 1)) and at the temporal factor's (2, 1) ("stride_2x1")
ORACLE_CASES = {
    "None": (ConvSpec(3, 3, padding="same", in_channels=2, out_channels=3), (2, 3, 2, 5, 6)),
    "stride_2x1": (ConvSpec(3, 3, (2, 1), "same", 2, 3), (2, 3, 2, 5, 6)),
    **{case: geometry_case(case) for case in GEOMETRY_CASES},
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_batched_conv2d_matches_direct_oracle(case):
    spec, shape = ORACLE_CASES[case]
    rng = np.random.default_rng(22)
    x = rng.standard_normal(shape)
    w = rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    b = rng.standard_normal(spec.out_channels)
    got = ops.conv2d(x, w, b, spec)
    want = ops.conv2d_direct(x, w, b, spec)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def loop_report(fwd, dataset):
    """The confusion counts of one forward per sample; class 1 is positive."""
    pairs = [(int(np.argmax(fwd(x))), int(np.argmax(y))) for x, y in dataset]
    return trainer.metrics_from_counts(*(sum(pair == cell for pair in pairs)
                                         for cell in ((1, 1), (1, 0), (0, 1), (0, 0))))


@pytest.mark.parametrize("budget,sizes", [(2 * 1024, [2, 2, 1]), (100, [1] * 5)])
@pytest.mark.parametrize("entry", ["fusion_features", "evaluate"])
def test_eval_batches_stay_under_the_budget(monkeypatch, entry, budget, sizes):
    """Every eval path batches through ``eval_outputs`` (``train_net`` validates
    with ``evaluate``).  A tiny clip has 1,024 input values; a clip over the
    budget still runs, alone."""
    vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=3)
    anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=4)
    rng = np.random.default_rng(24)
    vs = list(rng.random((5,) + TINY_VIDEO_CONFIG.input_shape))
    as_ = list(rng.standard_normal((5,) + TINY_AUDIO_CONFIG.input_shape))
    seen = []

    def recording_video_forward(net, x, mode="eval"):
        seen.append(len(x))
        return video_forward(net, x, mode)

    monkeypatch.setattr(trainer, "_EVAL_BATCH_VALUES", budget)
    if entry == "fusion_features":
        monkeypatch.setattr(trainer, "video_forward", recording_video_forward)
        got = trainer.fusion_features([None] * 5, vnet, anet, vfeats=vs, afeats=as_)
        close(got, [np.concatenate([video_forward(vnet, v), audio_forward(anet, a)])
                    for v, a in zip(vs, as_)])
    else:
        # move the head's decision boundary to the clips' mean, so both classes
        # are predicted and the counts depend on the outputs' order
        p = video_forward(vnet, np.stack(vs))
        vnet.params["head/b"][1] -= np.mean(np.log(p[:, 1] / p[:, 0]))
        dataset = [(v, trainer.onehot(i % 2)) for i, v in enumerate(vs)]
        got = trainer.evaluate(lambda x: recording_video_forward(vnet, x), dataset)
        assert got == loop_report(lambda x: video_forward(vnet, x), dataset)
    assert seen == sizes


def held_arrays(layer) -> list[str]:
    """The attributes of ``layer`` and of its child layers that hold an array
    other than ``params`` and ``grads``: the rule of the benchmark's
    ``held_bytes`` (``perfbench/workloads.py``)."""
    held = []
    for key, val in vars(layer).items():
        if key in ("params", "grads"):
            continue
        if isinstance(val, np.ndarray):
            held.append(key)
        elif hasattr(val, "params") and hasattr(val, "backward"):  # child layer
            held += [f"{key}.{k}" for k in held_arrays(val)]
    return held


@pytest.mark.parametrize("name", ["video_tiny", "audio_tiny", "fusion"])
def test_backward_frees_every_cache(name):
    """A train forward's caches live until the backward that reads them:
    after it no layer holds an array but its parameters and gradients, and
    a second backward, with no forward's caches to read, raises."""
    net, _, xs = make(name)
    y = net.forward(xs, mode="train")
    held = lambda: [f"{n}.{k}" for n, layer in net.layers for k in held_arrays(layer)]
    assert held()
    net.backward(np.ones_like(y) / N)
    assert held() == []
    with pytest.raises(KeyError):
        net.backward(np.ones_like(y) / N)


def dense_wider_than_a_block(in_dim, out_dim, n, seed=0):
    layer = Dense(in_dim, out_dim)
    rng = np.random.default_rng(seed)
    layer.init_params(rng)
    x, g = rng.standard_normal((n, in_dim)), rng.standard_normal((n, out_dim))
    layer.forward(x)
    return layer, x, g


def test_dense_weight_gradient_written_block_by_block():
    """A weight of several row blocks and a ragged last one: the gradient is
    X.T @ G, and a second forward and backward write the same bits again."""
    layer, x, g = dense_wider_than_a_block(4103, 24, N)
    assert layer.params["w"].size > 3 * ops.BLOCK_VALUES
    expected = x.T @ g
    close(layer.backward(g), g @ layer.params["w"].T)
    assert np.max(np.abs(layer.grads["w"] - expected)) <= 1e-13 * np.max(np.abs(expected))
    first = layer.grads["w"].copy()
    layer.forward(x)
    layer.backward(g)
    assert np.array_equal(layer.grads["w"], first)


def test_dense_backward_allocates_about_one_block():
    """Each block's product goes straight into the weight gradient: beyond
    the N x in_dim input gradient, no scratch product, let alone a
    weight-sized temporary."""
    layer, x, g = dense_wider_than_a_block(8192, 64, 2)
    layer.backward(g)
    layer.forward(x)
    tracemalloc.start()
    try:
        grad_in = layer.backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert layer.params["w"].nbytes == 16 * ops.BLOCK_VALUES * 8
    assert peak < grad_in.nbytes + (64 << 10)


def test_paper_scale_audio_backward_scratch_is_bounded():
    """The paper-scale audio net's backward at batch 8 differentiates conv2
    a chunk at a time (``ops.LOWERED_VALUES``), each chunk with its own
    lowered matrix and scratch product.  Lowering the whole batch at once
    peaked at 50.0 MB under tracemalloc; chunked, at 21.3 MB."""
    net = build_audio_net()
    y = net.forward(np.random.default_rng(27).standard_normal((8, *net.input_shape)),
                    mode="train")
    tracemalloc.start()
    try:
        net.backward(np.ones_like(y) / 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30e6
