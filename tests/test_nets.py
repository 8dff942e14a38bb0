"""Audio, video, and structural network tests (shapes, counts, gradients)."""

import sys

import numpy as np
import pytest

from mdnn import fusion, ops
from mdnn.audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG,
                            AudioNetConfig, audio_forward, build_audio_net)
from mdnn.errors import ConfigError, DimensionError, DomainError, ParameterError
from mdnn.layers import Conv2Plus1D, Dense, Dropout, Net, Residual2Plus1DBlock
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG,
                            VideoNetConfig, build_video_net, param_count,
                            video_forward)

from conftest import python_stdout


class TestAudioNet:
    def test_flatten_width_default(self):
        assert AudioNetConfig().flatten_width() == 774 * 9 * 16 == 111456

    def test_flatten_width_tiny(self):
        assert TINY_AUDIO_CONFIG.flatten_width() == 12 * 9 * 16 == 1728

    def test_output_is_two_probabilities(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        x = np.random.default_rng(0).standard_normal(TINY_AUDIO_CONFIG.input_shape)
        y = audio_forward(net, x)
        assert y.shape == (2,)
        assert ((y > 0) & (y < 1)).all()

    def test_outputs_need_not_sum_to_one(self):
        # independent sigmoids: zeroing the last dense layer gives (0.5, 0.5)
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        net.params["dense2/w"][...] = np.zeros((64, 2))
        net.params["dense2/b"][...] = np.zeros(2)
        x = np.random.default_rng(1).standard_normal(TINY_AUDIO_CONFIG.input_shape)
        assert np.allclose(audio_forward(net, x), [0.5, 0.5], atol=1e-15)

    def test_eval_mode_deterministic_despite_dropout(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=2)
        x = np.random.default_rng(2).standard_normal(TINY_AUDIO_CONFIG.input_shape)
        assert np.array_equal(audio_forward(net, x), audio_forward(net, x))

    def test_train_mode_dropout_changes_output(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=2)
        x = np.random.default_rng(3).standard_normal(TINY_AUDIO_CONFIG.input_shape)
        a = audio_forward(net, x, mode="train")
        b = audio_forward(net, x, mode="train")
        assert not np.array_equal(a, b)

    def test_same_seed_identical_params(self):
        a = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=5)
        b = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=5)
        assert a.param_bytes() == b.param_bytes()

    def test_wrong_input_shape(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        with pytest.raises(DimensionError):
            audio_forward(net, np.zeros((13, 16, 1)))

    def test_too_small_input_rejected(self):
        with pytest.raises(ConfigError):
            AudioNetConfig(frames=4)

    def test_config_checks_itself(self):
        """A config is checked when it is made: 5 frames is the least that two
        valid 3x3 convolutions leave a row of, and no other size may be below 1."""
        assert AudioNetConfig(frames=5).input_shape == (5, 13, 1)
        assert AudioNetConfig(frames=5).flatten_width() == 1 * 9 * 16
        for sizes in ({"conv_filters": 0}, {"dense1_width": -1}):
            with pytest.raises(ConfigError):
                AudioNetConfig(**sizes)

    def test_gradient_check(self):
        net = build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=1)
        net.jitter(11)
        x = np.random.default_rng(7).standard_normal(GRADCHECK_AUDIO_CONFIG.input_shape)
        assert ops.gradient_check(net, x, tolerance=1e-4)["ok"]


def full_conv_output_shape(t, h, w, ts, ss):
    """Shape oracle: "same"-padded 3-D convolution halves by ceil at stride 2."""
    return (-(-t // ts), -(-h // ss), -(-w // ss))


class TestConv2Plus1D:
    @pytest.mark.parametrize("c", [1, 8, 64])
    def test_weight_counts_12c2_vs_27c2(self, c):
        layer = Conv2Plus1D(c, c)
        assert layer.params["ws"].size + layer.params["wt"].size == 12 * c * c
        assert layer.full3d_weight_count() == 27 * c * c

    # (ts, ss): the oracle's temporal and spatial strides, equal because a
    # (2+1)D layer strides T, H and W alike
    @pytest.mark.parametrize("shape,ts,ss", [
        ((2, 4, 8, 8), 1, 1), ((2, 4, 8, 8), 2, 2), ((1, 5, 7, 9), 2, 2),
    ])
    def test_output_shape_matches_full3d_oracle(self, shape, ts, ss):
        c, t, h, w = shape
        layer = Conv2Plus1D(c, 5, stride=ts)
        layer.init_params(np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).random(shape)[None])[0]
        assert out.shape == (5,) + full_conv_output_shape(t, h, w, ts, ss)

    def test_delta_kernels_give_identity_on_nonnegative_input(self):
        layer = Conv2Plus1D(1, 1)
        ws = np.zeros((1, 1, 3, 3))
        ws[0, 0, 1, 1] = 1.0
        wt = np.zeros((1, 1, 3, 1))
        wt[0, 0, 1, 0] = 1.0
        layer.params["ws"][...] = ws
        layer.params["wt"][...] = wt
        x = np.random.default_rng(2).random((1, 4, 6, 6))
        assert np.allclose(layer.forward(x[None])[0], x, atol=1e-12)

    def test_channel_mismatch(self):
        layer = Conv2Plus1D(2, 3)
        with pytest.raises(DimensionError):
            layer.forward(np.zeros((1, 3, 2, 4, 4)))


class TestResidualBlock:
    def test_identity_block_has_no_projection(self):
        block = Residual2Plus1DBlock(4, 4)
        assert not block.projecting
        assert "proj.w" not in block.params

    def test_projection_on_channel_change(self):
        assert Residual2Plus1DBlock(4, 8).projecting

    def test_projection_on_stride(self):
        assert Residual2Plus1DBlock(4, 4, stride=2).projecting

    def test_zero_branch_reduces_to_relu_shortcut(self):
        block = Residual2Plus1DBlock(2, 2)
        for k in ("c1.ws", "c1.bs", "c1.wt", "c1.bt",
                  "c2.ws", "c2.bs", "c2.wt", "c2.bt"):
            block.params[k][...] = 0.0
        x = np.random.default_rng(3).standard_normal((2, 3, 4, 4))
        assert np.array_equal(block.forward(x[None])[0], np.maximum(x, 0.0))

    @pytest.mark.parametrize("thw", [(4, 6, 6), (5, 7, 5)], ids=["even", "odd"])
    @pytest.mark.parametrize("cin,cout,stride", [(2, 3, 1), (2, 3, 2), (3, 3, 2)],
                             ids=["channels", "stride2_channels", "stride2"])
    def test_projected_shortcut_matches_einsum(self, cin, cout, stride, thw):
        """With both (2+1)D convolutions zeroed, a projecting block is
        relu(w . x[:, :, ::s, ::s, ::s] + b): a 1x1x1 channel projection of
        every stride-th voxel from the first, on T, H and W alike."""
        block = Residual2Plus1DBlock(cin, cout, stride)
        rng = np.random.default_rng(4)
        block.init_params(rng)
        for k in block.params:
            if not k.startswith("proj."):
                block.params[k][...] = 0.0
        block.params["proj.b"][...] = rng.standard_normal(cout)
        x = rng.standard_normal((2, cin) + thw)
        s = slice(None, None, stride)
        w, b = block.params["proj.w"][:, :, 0, 0], block.params["proj.b"]
        want = np.maximum(np.einsum("oc,nctyx->notyx", w, x[:, :, s, s, s])
                          + b[:, None, None, None], 0.0)
        got = block.forward(x)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    def test_shortcut_gradient_is_added_in_place(self):
        """A projecting stride-2 block's backward returns the array its
        conv1.backward returned, with the shortcut's gradient, a 1x1 channel
        projection back onto every stride-th voxel, added onto it in place
        and the frames the shortcut did not read left as conv1 gave them."""
        block = Residual2Plus1DBlock(2, 3, stride=2)
        rng = np.random.default_rng(7)
        block.init_params(rng)
        returned = []

        def conv1_backward(grad, _backward=block.conv1.backward):
            returned.append(_backward(grad))
            returned.append(returned[0].copy())
            return returned[0]

        block.conv1.backward = conv1_backward
        y = block.forward(rng.standard_normal((2, 2, 5, 6, 6)), mode="train")
        grad_out = rng.standard_normal(y.shape)
        shortcut = np.einsum("oc,notyx->nctyx", block.params["proj.w"][:, :, 0, 0],
                             grad_out * (y > 0.0))
        gx = block.backward(grad_out)
        conv1_gx, before = returned
        assert gx is conv1_gx
        assert np.array_equal(gx[:, :, 1::2], before[:, :, 1::2])
        want = before.copy()
        want[:, :, ::2, ::2, ::2] += shortcut
        assert np.abs(gx - want).max() <= 1e-12

    def test_strided_block_output_shape(self):
        block = Residual2Plus1DBlock(2, 6, stride=2)
        block.init_params(np.random.default_rng(0))
        out = block.forward(np.random.default_rng(1).random((1, 2, 4, 9, 9)))[0]
        assert out.shape == (6, 2, 5, 5)


def enumerate_weight_counts(cfg: VideoNetConfig):
    """Independent count from the architecture arithmetic alone."""
    factored = full3d = 0
    prev = cfg.input_shape[0]
    plan = [("stem", cfg.stem_channels, False)]
    for s, ch in enumerate(cfg.stage_channels):
        for b in range(cfg.blocks_per_stage):
            strided = s > 0 and b == 0
            plan.append((f"s{s}b{b}", ch, strided))
    for name, ch, strided in plan:
        if name == "stem":
            factored += 9 * prev * ch + 3 * ch * ch
            full3d += 27 * prev * ch
        else:
            factored += (9 * prev * ch + 3 * ch * ch) + (9 * ch * ch + 3 * ch * ch)
            full3d += 27 * prev * ch + 27 * ch * ch
            if prev != ch or strided:
                factored += prev * ch
                full3d += prev * ch
        prev = ch
    factored += prev * 2  # the 2-class head
    full3d += prev * 2
    return factored, full3d


class TestVideoNet:
    def test_param_count_matches_enumeration_tiny(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        f, g = enumerate_weight_counts(TINY_VIDEO_CONFIG)
        assert param_count(net, "factored") == f
        assert param_count(net, "full3d_equivalent") == g

    def test_param_count_matches_enumeration_full(self):
        net = build_video_net(VideoNetConfig(), rng_seed=0)
        f, g = enumerate_weight_counts(VideoNetConfig())
        assert param_count(net, "factored") == f
        assert param_count(net, "full3d_equivalent") == g

    def test_param_count_unknown_mode(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        with pytest.raises(ParameterError, match="'full3d'"):
            param_count(net, "full3d")

    def test_factored_count_matches_stored_arrays(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        stored = sum(net.params[n].size for n in net.weight_names)
        assert param_count(net, "factored") == stored

    def test_output_sums_to_one(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        y = video_forward(net, np.random.default_rng(0).random(TINY_VIDEO_CONFIG.input_shape))
        assert y.shape == (2,)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_head_gives_uniform(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        net.params["head/w"][...] = np.zeros((16, 2))
        net.params["head/b"][...] = np.zeros(2)
        y = video_forward(net, np.random.default_rng(1).random(TINY_VIDEO_CONFIG.input_shape))
        assert np.allclose(y, [0.5, 0.5], atol=1e-15)

    def test_same_seed_identical(self):
        a = build_video_net(TINY_VIDEO_CONFIG, rng_seed=4)
        b = build_video_net(TINY_VIDEO_CONFIG, rng_seed=4)
        assert a.param_bytes() == b.param_bytes()

    def test_forward_deterministic(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        x = np.random.default_rng(2).random(TINY_VIDEO_CONFIG.input_shape)
        assert np.array_equal(video_forward(net, x), video_forward(net, x))

    def test_wrong_clip_shape(self):
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        with pytest.raises(DimensionError):
            video_forward(net, np.zeros((1, 4, 16, 15)))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            build_video_net(VideoNetConfig(input_shape=(1, 0, 4, 4),
                                           stage_channels=(2,)), rng_seed=0)

    def test_gradient_check(self):
        net = build_video_net(GRADCHECK_VIDEO_CONFIG, rng_seed=1)
        net.jitter(11)
        x = np.random.default_rng(7).random(GRADCHECK_VIDEO_CONFIG.input_shape)
        assert ops.gradient_check(net, x, tolerance=1e-4)["ok"]


RUN_CASES = pytest.mark.parametrize("build, shape, output", [
    (lambda: build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0), (3,) + TINY_AUDIO_CONFIG.input_shape,
     "sigmoid"),
    (lambda: build_video_net(TINY_VIDEO_CONFIG, rng_seed=0), (3,) + TINY_VIDEO_CONFIG.input_shape,
     "softmax_lastdim"),
    (lambda: fusion.build_fusion_head(rng_seed=0), (3, 4), "softmax_lastdim"),
], ids=["audio", "video", "fusion"])


@RUN_CASES
def test_nets_end_at_the_logits(build, shape, output):
    """The output activation is the net's ``output``, not a layer: ``forward``
    stops at the logits of the last Dense layer (the only activation layer
    is ``ReLU``), and ``run`` applies the activation, bit for bit."""
    net = build()
    assert net.output == output
    assert isinstance(net.layers[-1][1], Dense)
    x = np.random.default_rng(3).standard_normal(shape)
    assert np.array_equal(net.run(x), ops.activation(net.forward(x), net.output))


@RUN_CASES
def test_run_refuses_non_finite_output(build, shape, output):
    """A nan in the last bias makes an output nan, through either activation
    and without a RuntimeWarning; ``run`` refuses it (DomainError, exit 3 in
    the CLI) rather than return it as a probability."""
    net = build()
    net.params[list(net.params)[-1]][0] = np.nan
    with pytest.raises(DomainError, match="non-finite network output"):
        net.run(np.random.default_rng(3).standard_normal(shape))


@pytest.mark.parametrize("build", [
    lambda seed: build_audio_net(TINY_AUDIO_CONFIG, rng_seed=seed),
    lambda seed: build_video_net(TINY_VIDEO_CONFIG, rng_seed=seed),
    lambda seed: fusion.build_fusion_head(rng_seed=seed),
], ids=["audio", "video", "fusion"])
def test_negative_seed_is_parameter_error(build):
    """A negative seed is refused by name, not handed to NumPy, both when a
    net is built and when it is jittered; None builds an all-zero net."""
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        build(-1)
    net = build(None)
    assert not any(p.any() for p in net.params.values())
    with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
        net.jitter(-1)


@pytest.mark.parametrize("seed", [-1, -10])
def test_reseed_dropout_negative_seed_is_parameter_error(seed):
    """A negative dropout seed is refused by name, as in ``init_params``,
    whether or not it is still negative plus the dropout's layer index (5 in
    the tiny audio net); a valid seed gives the dropout the stream of the seed
    plus its index."""
    net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
    [(index, dropout)] = [(i, lay) for i, (_, lay) in enumerate(net.layers)
                          if isinstance(lay, Dropout)]
    assert index == 5
    with pytest.raises(ParameterError, match=f"seed must be >= 0, got {seed}"):
        net.reseed_dropout(seed)
    net.reseed_dropout(2)
    assert dropout.rng.random(4).tobytes() == np.random.default_rng(7).random(4).tobytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
def test_unseeded_paper_scale_nets_leave_their_pages_untouched():
    """Building the paper-scale video and audio nets with ``rng_seed=None``,
    as ``load_net`` does, writes none of their parameter or gradient pages:
    peak RSS rises by far less than their 180 MB of gradients."""
    code = ("import resource; from mdnn import audio_net, video_net; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "nets = [video_net.build_video_net(video_net.VideoNetConfig(), rng_seed=None), "
            "audio_net.build_audio_net(audio_net.AudioNetConfig(), rng_seed=None)]; "
            "grads = sum(g.nbytes for n in nets for g in n.grads.values()); "
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
            "print(grads, (after - before) * 1024)")
    grad_bytes, rss_rise = map(int, python_stdout(code).split())
    assert grad_bytes > 80_000_000
    assert rss_rise < 60_000_000
