"""Batch-first layers: an N x ... batch must give what a loop of single samples
gives.  Batching changes only the summation order inside a GEMM, so batch
results are held to 1e-12 relative against the loop; the N=1 batch is the
single-sample path and must match it bit for bit."""

import numpy as np
import pytest

from mdnn import ops, trainer
from mdnn.audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG, audio_forward,
                            build_audio_net)
from mdnn.fusion import FUSION_INPUT_DIM, build_fusion_head, concat_outputs
from mdnn.layers import (Activation, Conv2D, Conv2Plus1D, Dense, Dropout, Flatten,
                         GlobalAvgPool, Projection, Residual2Plus1DBlock)
from mdnn.ops import ConvSpec
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG, build_video_net,
                            video_forward)

N = 5
REL = 1e-12


def close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= REL * max(np.max(np.abs(b)), 1e-300)


# name -> (net, forward(net, x, mode), sample shape); each forward takes one
# sample or a batch
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
               lambda net, x, mode="eval": net.run(x, (FUSION_INPUT_DIM,), mode),
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


def input_grad(net, fwd, x, g, batched):
    fwd(x)
    return net.backward_batch(g) if batched else net.backward(g)


@pytest.mark.parametrize("name", list(CASES))
def test_batch_gradients_equal_summed_sample_gradients(name):
    net, fwd, xs = make(name)
    gs = np.random.default_rng(1).standard_normal((N, 2))
    net.zero_grad()
    gx_batch = input_grad(net, fwd, xs, gs, batched=True)
    batch_grads = {k: v.copy() for k, v in net.grads.items()}
    net.zero_grad()
    gx_loop = [input_grad(net, fwd, x, g, batched=False) for x, g in zip(xs, gs)]
    for k, v in net.grads.items():
        close(batch_grads[k], v)
    # the audio input gradient is per (1, frames, coeffs) channel image
    close(np.reshape(gx_batch, (N, -1)), np.reshape(gx_loop, (N, -1)))


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
    layer.reseed(5)
    batch = layer.forward(np.ones((4, 7)), mode="train")
    layer.reseed(5)
    assert np.array_equal(batch, np.stack([layer.forward(np.ones(7), mode="train")
                                           for _ in range(4)]))


def conv_spatial_strided():
    return Conv2Plus1D(2, 3, spatial_stride=2, temporal_stride=2)


# layer, batched input shape (N = 3)
LAYER_KINDS = {
    "dense": (lambda: Dense(5, 4), (3, 5)),
    "conv2d": (lambda: Conv2D(ConvSpec(3, 3, 2, "same", 2, 3)), (3, 2, 6, 5)),
    "conv2plus1d_strided": (conv_spatial_strided, (3, 2, 4, 5, 5)),
    "projection": (lambda: Projection(2, 3, spatial_stride=2, temporal_stride=2),
                   (3, 2, 4, 5, 5)),
    "residual_block": (lambda: Residual2Plus1DBlock(2, 3, spatial_stride=2,
                                                    temporal_stride=2), (3, 2, 4, 5, 5)),
    "flatten": (Flatten, (3, 2, 2, 2)),
    "global_avg_pool": (GlobalAvgPool, (3, 2, 3, 3)),
    "dropout_eval": (lambda: Dropout(0.5), (3, 6)),
    "relu": (lambda: Activation("relu"), (3, 6)),
    "sigmoid": (lambda: Activation("sigmoid"), (3, 6)),
    "softmax_lastdim": (lambda: Activation("softmax_lastdim"), (3, 6)),
}


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
    report = ops.gradient_check(layer, x, tolerance=1e-5)
    assert report["ok"], report


@pytest.mark.parametrize("stride_hw", [None, (2, 1)])
def test_batched_conv2d_matches_direct_oracle(stride_hw):
    rng = np.random.default_rng(22)
    spec = ConvSpec(3, 3, 1, "same", 2, 3)
    x = rng.standard_normal((2, 3, 2, 5, 6))  # two leading batch axes
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    got = ops.conv2d(x, w, b, spec, stride_hw=stride_hw)
    want = np.stack([ops.conv2d_direct(xi, w, b, spec, stride_hw=stride_hw) for xi in x])
    assert np.max(np.abs(got - want)) < 1e-12


def test_chunked_conv2d_equals_one_chunk(monkeypatch):
    """A patch-matrix cap below one sample splits the batch inside a row
    (chunks of 2, 2 and 1 images); the results agree to rounding, since the
    BLAS may pick another kernel for a narrower GEMM."""
    rng = np.random.default_rng(23)
    spec = ConvSpec(3, 3, 2, "same", 2, 3)
    x = rng.standard_normal((2, 5, 2, 7, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    g = rng.standard_normal((2, 5, 3, 4, 3))
    whole = ops.conv2d(x, w, None, spec), ops.conv2d_backward(g, x, w, spec)
    # 2 channels x 9 taps x 12 outputs x 8 bytes = 1728 bytes per image
    monkeypatch.setattr(ops, "_COLS_BYTES", 2 * 1728)
    chunked = ops.conv2d(x, w, None, spec), ops.conv2d_backward(g, x, w, spec)
    for a, b in zip((whole[0],) + whole[1], (chunked[0],) + chunked[1]):
        close(b, a)


@pytest.mark.parametrize("budget,sizes", [(2 * 1232, [2, 2, 1]), (100, [1] * 5)])
def test_fusion_features_batches_stay_under_the_budget(monkeypatch, budget, sizes):
    """A tiny (video, audio) pair has 1,024 + 208 input values; a pair over
    the budget still runs, alone."""
    vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=3)
    anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=4)
    rng = np.random.default_rng(24)
    vs = list(rng.random((5,) + TINY_VIDEO_CONFIG.input_shape))
    as_ = list(rng.standard_normal((5,) + TINY_AUDIO_CONFIG.input_shape))
    seen = []

    def recording_video_forward(net, x, mode="eval"):
        seen.append(len(x))
        return video_forward(net, x, mode)

    monkeypatch.setattr(trainer, "_FEATURE_BATCH_VALUES", budget)
    monkeypatch.setattr(trainer, "video_forward", recording_video_forward)
    got = trainer.fusion_features([None] * 5, vnet, anet, vfeats=vs, afeats=as_)
    assert seen == sizes
    close(got, [concat_outputs(video_forward(vnet, v), audio_forward(anet, a))
                for v, a in zip(vs, as_)])
