"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The expensive reference runs (synthetic datasets, trained nets) come from the
session-scoped fixtures in conftest.py and are shared with the module tests.
"""

import contextlib

import numpy as np
import pytest

from mdnn import dsp, fusion, ops, trainer
from mdnn.audio_net import GRADCHECK_AUDIO_CONFIG, build_audio_net
from mdnn.data import read_container, write_container
from mdnn.layers import Conv2D, Conv2Plus1D, Dense, Net, Residual2Plus1DBlock
from mdnn.ops import ConvSpec
from mdnn.trainer import SplitSpec, split_dataset
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, VideoNetConfig,
                            build_video_net, param_count)

from test_dsp import build_wav
from test_nets import enumerate_weight_counts


@contextlib.contextmanager
def report(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_parameter_count_identity():
    with report(1, "parameter-count identity"):
        for c in (1, 8, 64):
            block = Conv2Plus1D(c, c)
            assert block.params["ws"].size + block.params["wt"].size == 12 * c * c
            assert block.full3d_weight_count() == 27 * c * c
            # factored storage is below half the full 3-D kernel: 12 < 13.5,
            # equivalently 2 * 12 * c^2 < 27 * c^2
            assert 12 * c * c < 0.5 * 27 * c * c
            assert 2 * 12 * c * c < 27 * c * c
            stored = sum(block.params[n].size for n in block.weight_names)
            assert stored == 12 * c * c
        cfg = VideoNetConfig()
        net = build_video_net(cfg, rng_seed=0)
        f, g = enumerate_weight_counts(cfg)
        assert param_count(net, "factored") == f
        assert param_count(net, "full3d_equivalent") == g


def test_criterion_2_gradient_integrity():
    with report(2, "gradient integrity"):
        rng = np.random.default_rng(7)
        single_layers = [
            (Net([("d", Dense(6, 3))], (6,)), rng.standard_normal(6)),
            (Net([("c", Conv2D(ConvSpec(3, 3, (1, 1), "same", 2, 3)))], (2, 5, 5)),
             rng.standard_normal((2, 5, 5))),
            (Net([("f", Conv2Plus1D(2, 3))], (2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))),
            (Net([("r", Residual2Plus1DBlock(2, 3, stride=2))], (2, 4, 5, 5)),
             rng.standard_normal((2, 4, 5, 5))),
        ]
        for net, x in single_layers:
            net.init_params(1)
            net.jitter(11)
            assert ops.gradient_check(net, x, tolerance=1e-4)["ok"]

        anet = build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=1)
        anet.jitter(11)
        ax = rng.standard_normal(GRADCHECK_AUDIO_CONFIG.input_shape)
        assert ops.gradient_check(anet, ax, tolerance=1e-4)["ok"]

        vnet = build_video_net(GRADCHECK_VIDEO_CONFIG, rng_seed=1)
        vnet.jitter(11)
        vx = rng.random(GRADCHECK_VIDEO_CONFIG.input_shape)
        assert ops.gradient_check(vnet, vx, tolerance=1e-4)["ok"]

        fnet = fusion.build_fusion_head(rng_seed=1)
        fnet.jitter(11)
        assert ops.gradient_check(fnet, rng.uniform(0.05, 0.95, 4),
                                  tolerance=1e-4)["ok"]


def test_criterion_3_dsp_correctness():
    with report(3, "DSP correctness"):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((100, 1024))
        assert np.abs(dsp.fft_1024(frames) - dsp.dft_direct(frames)).max() < 1e-6

        d = dsp.dct2_matrix(80)
        assert np.abs(d.T @ d - np.eye(80)).max() < 1e-12

        clip = dsp.AudioClip(samples=rng.uniform(-0.5, 0.5, 199936))
        assert dsp.mfcc(clip).shape == (778, 13, 1)

        silence = dsp.mfcc(dsp.AudioClip(samples=np.zeros(199936)))
        assert np.isfinite(silence).all()
        assert np.allclose(silence, silence[0])  # every frame identical


def test_criterion_4_loss_semantics():
    with report(4, "cross-entropy semantics"):
        half = fusion.bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert abs(half - np.log(2.0)) < 1e-12

        perfect = fusion.bce_loss(np.array([[1 - 1e-12, 1e-12]]),
                                  np.array([[1.0, 0.0]]))
        assert perfect < 1e-11

        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p = rng.uniform(1e-6, 1 - 1e-6, (n, 2))
            labels = rng.integers(0, 2, n)
            y = np.zeros((n, 2))
            y[np.arange(n), labels] = 1.0
            expect = -np.log(p[np.arange(n), labels]).sum() / n
            assert abs(fusion.bce_loss(p, y) - expect) < 1e-12


def test_criterion_5_reference_training_run(sep_audio_sets, sep_audio_trained):
    from conftest import train_audio
    with report(5, "reference training run"):
        train_set, val_set, _ = sep_audio_sets
        first = sep_audio_trained
        acc = trainer.evaluate(first["net"].run, train_set).accuracy
        assert acc >= 0.95

        _, logs2 = train_audio(train_set, val_set)
        assert [l.train_loss for l in first["logs"]] == [l.train_loss for l in logs2]


def test_criterion_6_fusion_superiority(comp_trained):
    with report(6, "fusion superiority"):
        a = comp_trained["audio_test_acc"]
        v = comp_trained["video_test_acc"]
        f = comp_trained["fused_test_acc"]
        assert f >= max(a, v)
        assert f >= 0.9
        assert a <= 0.8 and v <= 0.8


def near_zero_fraction(net, threshold=1e-3):
    weights = np.concatenate([net.params[n].ravel() for n in sorted(net.weight_names)])
    return float((np.abs(weights) < threshold).mean()), float((weights ** 2).sum())


def test_criterion_7_regularization_effects(sep_audio_sets):
    from conftest import train_audio
    with report(7, "regularization effects"):
        train_set, val_set, _ = sep_audio_sets
        stats = {}
        for kind in ("none", "L1", "L2"):
            net, _ = train_audio(train_set, val_set, regularization=kind)
            stats[kind] = near_zero_fraction(net)
        assert stats["L2"][1] < stats["none"][1]  # smaller final sum of squares
        assert stats["L1"][0] > stats["none"][0]  # more near-zero weights


def test_criterion_8_metrics_identities():
    with report(8, "metrics identities"):
        hand = trainer.metrics_from_counts(tp=97, fp=12, fn=3, tn=88)
        assert hand.recall == 0.97
        assert hand.accuracy == 0.925

        rng = np.random.default_rng(5)
        counts = rng.integers(0, 1000, size=(10_000, 4))
        for tp, fp, fn, tn in counts:
            r = trainer.metrics_from_counts(int(tp), int(fp), int(fn), int(tn))
            total = tp + fp + fn + tn
            assert (r.accuracy is None) == (total == 0)
            if total:
                assert r.accuracy == (tp + tn) / total
            assert (r.precision is None) == (tp + fp == 0)
            if r.precision is not None:
                assert r.precision == tp / (tp + fp)
            assert (r.recall is None) == (tp + fn == 0)
            if r.recall is not None:
                assert r.recall == tp / (tp + fn)


def test_criterion_9_format_stability(tmp_path):
    with report(9, "format stability"):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((7, 3, 2))
        p = tmp_path / "t.ntc"
        write_container(p, t)
        assert read_container(p).tobytes() == t.tobytes()

        wav = tmp_path / "w.wav"
        wav.write_bytes(build_wav([0, 16384, -16384, 32767]))
        clip = dsp.load_wav(wav)
        assert np.allclose(clip.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=1e-12)

        tr, va, te = split_dataset(634, SplitSpec(seed=0))
        assert (len(tr), len(va), len(te)) == (507, 63, 64)
