"""Optimizer, regularization, splits, metrics, and training-loop tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdnn import data as dm
from mdnn import fusion, trainer
from mdnn.audio_net import TINY_AUDIO_CONFIG, audio_forward, build_audio_net
from mdnn.errors import ConfigError, TrainingError
from mdnn.layers import Dense, Net
from mdnn.trainer import (EpochLog, SplitSpec, TrainConfig, adam_step,
                          evaluate, init_adam_state, metrics_from_counts,
                          onehot, reg_penalty, split_dataset, train_net)
from mdnn.video_net import TINY_VIDEO_CONFIG, build_video_net


class TestAdam:
    def _run(self, params, grads, config=TrainConfig(), steps=1):
        state = init_adam_state(params)
        for _ in range(steps):
            adam_step(params, grads, state, config)
        return params

    def test_zero_gradient_is_noop(self):
        p = {"w": np.array([1.0, -2.0, 0.5])}
        before = p["w"].copy()
        self._run(p, {"w": np.zeros(3)})
        assert np.array_equal(p["w"], before)

    def test_first_step_is_signed_learning_rate(self):
        cfg = TrainConfig()
        p = {"w": np.array([1.0, 1.0, 1.0])}
        g = np.array([0.5, -2.0, 1e-3])
        self._run(p, {"w": g}, cfg)
        # m_hat / sqrt(v_hat) = g / |g|, so the first step is lr * sign(g)
        assert np.allclose(p["w"], 1.0 - cfg.learning_rate * np.sign(g), atol=1e-6)

    def test_update_in_place(self):
        w = np.array([1.0])
        p = {"w": w}
        self._run(p, {"w": np.array([1.0])})
        assert p["w"] is w

    def test_minimizes_quadratic(self):
        cfg = TrainConfig(learning_rate=0.01)
        p = {"w": np.array([1.0, -0.7, 0.3])}
        state = init_adam_state(p)
        for _ in range(1000):
            adam_step(p, {"w": 2.0 * p["w"]}, state, cfg)
        assert np.abs(p["w"]).max() < 0.01

    def test_bitwise_equal_to_textbook_formula(self):
        """adam_step computes into scratch buffers; the formula it replaced,
        kept here as the oracle, gives the same bits for p, m and v."""
        def oracle(params, grads, state, config):
            state["t"] += 1
            t, b1, b2 = state["t"], config.beta1, config.beta2
            for name, p in params.items():
                g, m, v = grads[name], state["m"][name], state["v"][name]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)

        shapes = {"a/w": (7, 3), "a/b": (3,), "c/ws": (2, 1, 3, 3)}  # sizes differ
        cfg = TrainConfig(learning_rate=0.003)
        runs = []
        for step_fn in (adam_step, oracle):
            params = {k: np.random.default_rng(6).standard_normal(s)
                      for k, s in shapes.items()}
            state = init_adam_state(params)
            grad_rng = np.random.default_rng(7)
            for _ in range(6):
                grads = {k: grad_rng.standard_normal(s) for k, s in shapes.items()}
                step_fn(params, grads, state, cfg)
            runs.append((params, state))
        (p1, s1), (p2, s2) = runs
        assert s1["t"] == s2["t"] == 6
        for k in shapes:
            assert np.array_equal(p1[k], p2[k])
            assert np.array_equal(s1["m"][k], s2["m"][k])
            assert np.array_equal(s1["v"][k], s2["v"][k])

    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_step_nearly_invariant_to_gradient_scale(self, scale):
        g = np.array([0.5, -1.5, 2.0])
        a = self._run({"w": np.ones(3)}, {"w": g}, steps=3)
        b = self._run({"w": np.ones(3)}, {"w": scale * g}, steps=3)
        assert np.allclose(a["w"], b["w"], atol=1e-6)

    def test_nonfinite_gradient_names_tensor(self):
        p = {"w": np.ones(2)}
        with pytest.raises(TrainingError, match="'w'"):
            adam_step(p, {"w": np.array([1.0, np.nan])}, init_adam_state(p), TrainConfig())


def single_dense_net(w_value):
    net = Net([("d", Dense(1, 1))])
    net.set_param("d/w", np.array([[float(w_value)]]))
    return net


class TestRegularization:
    def test_l1_hand_case(self):
        penalty, contrib = reg_penalty(single_dense_net(3.0), "L1", 0.01)
        assert penalty == pytest.approx(0.03)
        assert contrib["d/w"] == pytest.approx(0.01)

    def test_l2_hand_case(self):
        penalty, contrib = reg_penalty(single_dense_net(3.0), "L2", 0.01)
        assert penalty == pytest.approx(0.09)
        assert contrib["d/w"] == pytest.approx(0.06)

    def test_none_is_empty(self):
        penalty, contrib = reg_penalty(single_dense_net(3.0), "none", 0.01)
        assert penalty == 0.0 and contrib == {}

    def test_biases_excluded(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        _, contrib = reg_penalty(net, "L2", 0.01)
        assert contrib
        assert all(not name.endswith("/b") for name in contrib)
        assert set(contrib) == net.weight_names

    @pytest.mark.parametrize("kind", ["L1", "L2"])
    def test_gradient_matches_finite_differences(self, kind):
        lam, h = 0.01, 1e-6
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal() + 2.0  # keep away from the L1 kink at 0
        _, contrib = reg_penalty(single_dense_net(w0), kind, lam)
        pp, _ = reg_penalty(single_dense_net(w0 + h), kind, lam)
        pm, _ = reg_penalty(single_dense_net(w0 - h), kind, lam)
        assert contrib["d/w"][0, 0] == pytest.approx((pp - pm) / (2 * h), abs=1e-6)


class TestSplit:
    def test_634_gives_507_63_64(self):
        tr, va, te = split_dataset(634)
        assert (len(tr), len(va), len(te)) == (507, 63, 64)

    def test_10_gives_8_1_1(self):
        tr, va, te = split_dataset(10)
        assert (len(tr), len(va), len(te)) == (8, 1, 1)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(2)

    def test_seed_reproducible_and_sensitive(self):
        a = split_dataset(50, SplitSpec(seed=3))
        b = split_dataset(50, SplitSpec(seed=3))
        c = split_dataset(50, SplitSpec(seed=4))
        assert a == b
        assert a != c

    @given(st.integers(min_value=3, max_value=2000), st.integers(min_value=0, max_value=99))
    @settings(max_examples=100, deadline=None)
    def test_partition_property(self, n, seed):
        import math
        tr, va, te = split_dataset(n, SplitSpec(seed=seed))
        assert sorted(tr + va + te) == list(range(n))
        assert len(tr) == math.floor(0.8 * n)
        assert len(va) == math.floor(0.1 * n)


class TestMetrics:
    def test_hand_case(self):
        r = metrics_from_counts(tp=97, fp=12, fn=3, tn=88)
        assert r.recall == 0.97
        assert r.accuracy == 0.925
        assert r.precision == pytest.approx(97 / 109)

    def test_empty_counts_all_undefined(self):
        r = metrics_from_counts(0, 0, 0, 0)
        assert r.accuracy is None and r.precision is None and r.recall is None

    def test_no_positive_predictions_precision_undefined(self):
        r = metrics_from_counts(tp=0, fp=0, fn=5, tn=5)
        assert r.precision is None
        assert r.recall == 0.0
        assert r.accuracy == 0.5

    def test_no_positive_truth_recall_undefined(self):
        r = metrics_from_counts(tp=0, fp=2, fn=0, tn=8)
        assert r.recall is None

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=300, deadline=None)
    def test_identities(self, tp, fp, fn, tn):
        r = metrics_from_counts(tp, fp, fn, tn)
        total = tp + fp + fn + tn
        if total:
            assert r.accuracy == (tp + tn) / total
            assert 0.0 <= r.accuracy <= 1.0
        else:
            assert r.accuracy is None
        assert (r.precision is None) == (tp + fp == 0)
        assert (r.recall is None) == (tp + fn == 0)
        if r.precision is not None:
            assert r.precision == tp / (tp + fp)
        if r.recall is not None:
            assert r.recall == tp / (tp + fn)

    def test_evaluate_counts(self):
        dataset = [(np.array([1.0]), onehot(1)), (np.array([0.0]), onehot(1)),
                   (np.array([1.0]), onehot(0)), (np.array([0.0]), onehot(0))]
        fwd = lambda xs: np.concatenate([1.0 - xs, xs], axis=1)  # predicts x itself
        r = evaluate(fwd, dataset)
        assert (r.tp, r.fn, r.fp, r.tn) == (1, 1, 1, 1)
        assert r.accuracy == 0.5


def random_fusion_set(n, rng):
    """Linearly separable 4-vector toy problem for head-only training."""
    out = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        x = rng.uniform(0.05, 0.45, 4)
        x[label] += 0.5
        x[2 + label] += 0.5
        out.append((x, onehot(label)))
    return out


class TestTrainLoop:
    def test_loss_decreases_and_fits_toy_problem(self):
        rng = np.random.default_rng(0)
        train = random_fusion_set(32, rng)
        net = fusion.build_fusion_head(rng_seed=0)
        logs = train_net(net, train, [], TrainConfig(epochs=60, rng_seed=0))
        assert logs[-1].train_loss < logs[0].train_loss
        assert evaluate(net.forward_batch, train).accuracy == 1.0

    def test_same_seed_bitwise_identical(self):
        train = random_fusion_set(16, np.random.default_rng(1))
        losses = []
        for _ in range(2):
            net = fusion.build_fusion_head(rng_seed=0)
            logs = train_net(net, list(train), [], TrainConfig(epochs=5, rng_seed=0))
            losses.append([l.train_loss for l in logs])
        assert losses[0] == losses[1]

    def test_different_seed_differs(self):
        train = random_fusion_set(16, np.random.default_rng(1))
        nets = [fusion.build_fusion_head(rng_seed=s) for s in (0, 1)]
        logs = [train_net(n, list(train), [], TrainConfig(epochs=2, rng_seed=s))
                for s, n in enumerate(nets)]
        assert logs[0][-1].train_loss != logs[1][-1].train_loss

    def test_empty_train_set_rejected(self):
        with pytest.raises(ConfigError):
            train_net(fusion.build_fusion_head(0), [], [], TrainConfig())

    @pytest.mark.parametrize("build, loss_kind", [
        (lambda: build_video_net(TINY_VIDEO_CONFIG, rng_seed=0), "sigmoid"),
        (lambda: build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0), "onehot"),
    ], ids=["softmax_net_sigmoid_loss", "sigmoid_net_onehot_loss"])
    def test_loss_kind_must_match_final_activation(self, build, loss_kind):
        net = build()
        x = np.zeros(net.config.input_shape)
        with pytest.raises(ConfigError, match="final"):
            train_net(net, [(x, onehot(0)), (x, onehot(1))], [], TrainConfig(epochs=1),
                      loss_kind=loss_kind)

    def test_saturated_sigmoid_still_learns(self, tmp_path):
        """An output driven far past saturation (sigmoid(-800) is exactly 0)
        still gets the (p - y)/N gradient, so every tensor moves and the loss
        falls; through the sigmoid's Jacobian it would be exactly 0."""
        rows = dm.read_manifest(dm.synth_dataset(4, "separable", 0, tmp_path))
        train = trainer.paired(trainer.audio_features(rows, TINY_AUDIO_CONFIG), rows)
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        net.set_param("dense2/b", np.array([50.0, -800.0]))
        before = {k: v.copy() for k, v in net.params.items()}
        logs = train_net(net, train, [], TrainConfig(epochs=5, rng_seed=0),
                         forward_fn=lambda xs, mode: audio_forward(net, xs, mode),
                         loss_kind="sigmoid")
        assert [k for k, v in net.params.items() if np.array_equal(v, before[k])] == []
        assert logs[-1].train_loss < logs[0].train_loss

    def test_epoch_log_csv(self, tmp_path):
        logs = [EpochLog(1, 0.5, 0.75, None, 1.0), EpochLog(2, 0.25, None, None, None)]
        p = tmp_path / "epochs.csv"
        trainer.write_epoch_log_csv(p, logs)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_accuracy,val_precision,val_recall"
        assert lines[1] == "1,0.5,0.75,,1.0"
        assert lines[2] == "2,0.25,,,"


class TestLateFusionContract:
    def test_unimodal_params_frozen_during_fusion_training(self):
        rng = np.random.default_rng(0)
        vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        rows = [None] * 4  # features are supplied directly; rows are untouched
        vfeats = [rng.random(TINY_VIDEO_CONFIG.input_shape) for _ in range(4)]
        afeats = [rng.standard_normal(TINY_AUDIO_CONFIG.input_shape) for _ in range(4)]
        before = (vnet.param_bytes(), anet.param_bytes())
        feats = trainer.fusion_features(rows, vnet, anet, vfeats=vfeats, afeats=afeats)
        fnet = fusion.build_fusion_head(rng_seed=0)
        train_net(fnet, [(x, onehot(i % 2)) for i, x in enumerate(feats)], [],
                  TrainConfig(epochs=3, rng_seed=0))
        assert (vnet.param_bytes(), anet.param_bytes()) == before

    def test_fused_output_depends_only_on_unimodal_outputs(self):
        # Clamp the video head to zero: every clip maps to (0.5, 0.5), so the
        # fused prediction must ignore which clip was shown.
        rng = np.random.default_rng(1)
        vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        vnet.set_param("head/w", np.zeros((16, 2)))
        vnet.set_param("head/b", np.zeros(2))
        anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        fnet = fusion.build_fusion_head(rng_seed=0)
        audio = rng.standard_normal(TINY_AUDIO_CONFIG.input_shape)
        clips = [rng.random(TINY_VIDEO_CONFIG.input_shape) for _ in range(2)]
        outs = [fusion.fused_forward(vnet, anet, fnet, clip, audio) for clip in clips]
        assert np.array_equal(outs[0], outs[1])


class TestTrainedAudioFixture:
    def test_loss_decreases(self, sep_audio_trained):
        logs = sep_audio_trained["logs"]
        assert logs[-1].train_loss < logs[0].train_loss

    def test_validation_metrics_logged(self, sep_audio_trained):
        assert sep_audio_trained["logs"][-1].val_accuracy is not None
