"""Optimizer, regularization, splits, metrics, and training-loop tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdnn import data as dm
from mdnn import fusion, ops, trainer
from mdnn.audio_net import TINY_AUDIO_CONFIG, audio_forward, build_audio_net
from mdnn.errors import ConfigError, DimensionError, TrainingError
from mdnn.layers import Composite, Dense, Net
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
        """adam_step computes into scratch buffers and creates the moments at
        its first step; the formula it replaced, kept here as the oracle,
        gives the same bits for p, m and v after the first step and after the
        sixth, -0.0 gradient entries included."""
        def oracle(params, grads, state, config):
            state["t"] += 1
            t, b1, b2 = state["t"], trainer.ADAM_BETA1, trainer.ADAM_BETA2
            for name, p in params.items():
                g = grads[name]
                m = state["m"].setdefault(name, np.zeros_like(p))
                v = state["v"].setdefault(name, np.zeros_like(p))
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                m_hat = m / (1 - b1 ** t)
                v_hat = v / (1 - b2 ** t)
                p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)

        # sizes differ; "d/w" spans two whole blocks and a ragged tail
        shapes = {"a/w": (7, 3), "a/b": (3,), "c/ws": (2, 1, 3, 3),
                  "d/w": (2 * ops.BLOCK_VALUES + 7,)}
        cfg = TrainConfig(learning_rate=0.003)
        runs = []
        for step_fn in (adam_step, oracle):
            params = {k: np.random.default_rng(6).standard_normal(s)
                      for k, s in shapes.items()}
            state = init_adam_state(params)
            grad_rng = np.random.default_rng(7)
            snapshots = []
            for _ in range(6):
                grads = {k: grad_rng.standard_normal(s) for k, s in shapes.items()}
                for g in grads.values():
                    g.reshape(-1)[::3] = -0.0
                step_fn(params, grads, state, cfg)
                snapshots.append([{k: d[k].tobytes() for k in shapes}
                                  for d in (params, state["m"], state["v"])])
            runs.append((state["t"], snapshots))
        (t1, snaps1), (t2, snaps2) = runs
        assert t1 == t2 == 6
        for step in (0, 5):
            assert snaps1[step] == snaps2[step], f"step {step + 1}"

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

    def test_nonfinite_in_last_block_changes_nothing(self):
        """A NaN only in the last block of a multi-block gradient is found
        before any tensor, moment or the step count moves."""
        size = 3 * ops.BLOCK_VALUES + 5
        rng = np.random.default_rng(0)
        params = {"a": rng.standard_normal(size), "z": rng.standard_normal(size)}
        state = init_adam_state(params)
        adam_step(params, {k: rng.standard_normal(size) for k in params}, state, TrainConfig())
        grads = {k: rng.standard_normal(size) for k in params}
        grads["z"][-2] = np.nan
        before = [{k: v.copy() for k, v in d.items()} for d in (params, state["m"], state["v"])]
        with pytest.raises(TrainingError, match="'z'"):
            adam_step(params, grads, state, TrainConfig())
        assert state["t"] == 1
        for old, new in zip(before, (params, state["m"], state["v"])):
            assert all(np.array_equal(old[k], new[k]) for k in params)

    def test_overflowing_gradient_square_changes_nothing(self):
        """[1e308, 1e308] is finite, but its squares are not, so v would
        overflow to inf: the step is refused before p, m, v or t moves."""
        p = {"w": np.ones(2)}
        state = init_adam_state(p)
        with pytest.raises(TrainingError, match="'w'"):
            adam_step(p, {"w": np.array([1e308, 1e308])}, state, TrainConfig())
        assert state["t"] == 0
        assert np.array_equal(p["w"], np.ones(2))
        assert state["m"] == {} and state["v"] == {}

    def test_overflowing_gradient_sum_still_steps(self):
        """The check sums each block's squares; [1e154, 1e154] has finite
        squares though their sum overflows, so the check looks value by
        value and the step runs, with finite moments."""
        p = {"w": np.ones(2)}
        state = init_adam_state(p)
        g = np.array([1e154, 1e154])
        assert not np.isfinite(np.vdot(g, g))
        adam_step(p, {"w": g}, state, TrainConfig())
        v_hat = state["v"]["w"] / (1 - trainer.ADAM_BETA2)
        assert state["t"] == 1
        assert np.isfinite(state["v"]["w"]).all() and np.isfinite(v_hat).all()
        assert np.isfinite(p["w"]).all() and (p["w"] < 1.0).all()


def single_dense_net(w_value):
    net = Net([("d", Dense(1, 1))], (1,))
    net.params["d/w"][...] = np.array([[float(w_value)]])
    return net


class TestRegularization:
    """``reg_penalty`` returns the penalty and adds its gradient into
    ``net.grads``, which start at zero here."""

    def test_l1_hand_case(self):
        net = single_dense_net(3.0)
        assert reg_penalty(net, "L1", 0.01) == pytest.approx(0.03)
        assert net.grads["d/w"] == pytest.approx(0.01)

    def test_l2_hand_case(self):
        net = single_dense_net(3.0)
        assert reg_penalty(net, "L2", 0.01) == pytest.approx(0.09)
        assert net.grads["d/w"] == pytest.approx(0.06)

    def test_none_is_empty(self):
        net = single_dense_net(3.0)
        assert reg_penalty(net, "none", 0.01) == 0.0
        assert all(not np.any(g) for g in net.grads.values())

    def test_biases_excluded(self):
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        reg_penalty(net, "L2", 0.01)
        touched = {name for name, g in net.grads.items() if np.any(g)}
        assert touched
        assert all(not name.endswith("/b") for name in touched)
        assert touched == net.weight_names

    def test_penalty_sums_in_namespace_order(self):
        """The per-tensor penalties are added in ``net.params`` order, whatever
        order ``weight_names`` iterates in (a set's order follows the
        per-process string hash)."""
        net = Net([(name, Dense(1, 1)) for name in "abc"], (1,))
        for name, w in zip("abc", (1.0, 1e-16, 1e-16)):
            net.params[f"{name}/w"][...] = w
        assert reg_penalty(net, "L1", 1.0) == 1.0  # (1 + 1e-16) + 1e-16
        net.weight_names = ["c/w", "b/w", "a/w"]  # would sum to 1 + 2**-52
        assert reg_penalty(net, "L1", 1.0) == 1.0

    @staticmethod
    def _multi_block_net():
        in_dim = 2 * ops.BLOCK_VALUES // 16 + 3  # "d/w" is 2 blocks and a ragged tail
        net = Net([("d", Dense(in_dim, 16))], (in_dim,))
        net.init_params(0)
        return net

    @pytest.mark.parametrize("kind", ["L1", "L2"])
    def test_blocked_equals_whole_tensor_formula(self, kind):
        """Over a weight of several blocks, the gradient added block by block
        is bitwise the whole-tensor formula's; the penalty is the sum of the
        per-block sums in order, within rounding of the whole-tensor sum."""
        lam = 0.01
        net = self._multi_block_net()
        w = net.params["d/w"]
        g0 = np.random.default_rng(1).standard_normal(w.shape)
        net.grads["d/w"][...] = g0
        penalty = reg_penalty(net, kind, lam)
        terms = np.abs(w) if kind == "L1" else w * w
        flat = terms.reshape(-1)
        block_sums = [float(flat[i:i + ops.BLOCK_VALUES].sum())
                      for i in range(0, flat.size, ops.BLOCK_VALUES)]
        assert len(block_sums) == 3
        assert penalty == lam * sum(block_sums)
        assert penalty == pytest.approx(lam * float(terms.sum()), rel=1e-14)
        grad = lam * np.sign(w) if kind == "L1" else 2.0 * lam * w
        assert np.array_equal(net.grads["d/w"], g0 + grad)
        assert not np.any(net.grads["d/b"])

    @pytest.mark.parametrize("kind", ["L1", "L2"])
    def test_allocates_one_block(self, kind):
        """The penalty sums go through the same one block of scratch as the
        gradient: no weight-sized temporary."""
        net = self._multi_block_net()
        tracemalloc.start()
        try:
            reg_penalty(net, kind, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.params["d/w"].nbytes > 2 * ops.BLOCK_VALUES * 8
        assert peak < 1.5 * ops.BLOCK_VALUES * 8

    @pytest.mark.parametrize("kind", ["L1", "L2"])
    def test_gradient_matches_finite_differences(self, kind):
        lam, h = 0.01, 1e-6
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal() + 2.0  # keep away from the L1 kink at 0
        net = single_dense_net(w0)
        reg_penalty(net, kind, lam)
        pp = reg_penalty(single_dense_net(w0 + h), kind, lam)
        pm = reg_penalty(single_dense_net(w0 - h), kind, lam)
        assert net.grads["d/w"][0, 0] == pytest.approx((pp - pm) / (2 * h), abs=1e-6)


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
        assert evaluate(net.forward, train).accuracy == 1.0

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
        with pytest.raises(ConfigError, match="the net's output is"):
            train_net(net, [(x, onehot(0)), (x, onehot(1))], [], TrainConfig(epochs=1),
                      loss_kind=loss_kind)

    def test_default_forward_checks_the_sample_shape(self):
        """The default forward is ``Net.run``: a clip of the wrong length,
        which every convolution would take, is refused before any step."""
        net = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
        c, t, h, w = TINY_VIDEO_CONFIG.input_shape
        x = np.zeros((c, t + 1, h, w))
        before = net.param_bytes()
        with pytest.raises(DimensionError, match="does not end in"):
            train_net(net, [(x, onehot(0)), (x, onehot(1))], [], TrainConfig(epochs=1))
        assert net.param_bytes() == before

    def test_one_net_backward_per_minibatch(self):
        """Training backpropagates through ``Net.backward``, once a minibatch:
        10 samples in batches of 4 make 3 minibatches an epoch."""
        net = fusion.build_fusion_head(rng_seed=0)
        calls = []
        backward = net.backward
        net.backward = lambda g: calls.append(g.shape) or backward(g)
        train_net(net, random_fusion_set(10, np.random.default_rng(0)), [],
                  TrainConfig(epochs=2, batch_size=4, rng_seed=0))
        assert calls == [(4, 2), (4, 2), (2, 2)] * 2

    def test_loss_kind_defaults_to_the_nets_output(self, tmp_path):
        """Without ``loss_kind`` the sigmoid-output audio net trains on the
        sigmoid loss on its default forward, ``Net.run``, bit for bit as when
        the loss is named and as through ``audio_forward``, the call the
        benchmark makes."""
        rows = dm.read_manifest(dm.synth_dataset(3, "separable", 0, tmp_path))
        train = trainer.paired(trainer.audio_features(rows, TINY_AUDIO_CONFIG), rows)
        runs = []
        for named in (False, True):
            net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
            kwargs = {"forward_fn": lambda xs, mode: audio_forward(net, xs, mode),
                      "loss_kind": "sigmoid"} if named else {}
            logs = train_net(net, train, [], TrainConfig(epochs=2, rng_seed=0), **kwargs)
            runs.append(([log.train_loss for log in logs], net.param_bytes()))
        assert runs[0] == runs[1]

    def test_saturated_sigmoid_still_learns(self, tmp_path):
        """An output driven far past saturation (sigmoid(-800) is exactly 0)
        still gets the (p - y)/N gradient, so every tensor moves and the loss
        falls; through the sigmoid's Jacobian it would be exactly 0."""
        rows = dm.read_manifest(dm.synth_dataset(4, "separable", 0, tmp_path))
        train = trainer.paired(trainer.audio_features(rows, TINY_AUDIO_CONFIG), rows)
        net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
        net.params["dense2/b"][...] = np.array([50.0, -800.0])
        before = {k: v.copy() for k, v in net.params.items()}
        logs = train_net(net, train, [], TrainConfig(epochs=5, rng_seed=0))
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


def assert_namespace_holds_children(composite):
    """Every entry of a Composite's params and grads is its child's own array."""
    for lname, layer in composite.layers:
        for pname, arr in layer.params.items():
            key = composite.KEY.format(child=lname, param=pname)
            assert composite.params[key] is arr, key
            assert composite.grads[key] is layer.grads[pname], key
        if isinstance(layer, Composite):
            assert_namespace_holds_children(layer)


class TestOwnership:
    """Parameters, gradients and Adam buffers are allocated once and only ever
    written in place, so a reference taken when one is made stays live: the
    parameters, gradients and Adam scratch at construction, the moments at
    the first Adam step."""

    @pytest.mark.parametrize("kind", ["audio", "video"])
    def test_arrays_keep_their_identity(self, kind, monkeypatch):
        net = (build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0) if kind == "audio"
               else build_video_net(TINY_VIDEO_CONFIG, rng_seed=0))
        rng = np.random.default_rng(0)
        train = [(rng.standard_normal(net.config.input_shape), onehot(i % 2)) for i in range(4)]
        scratches, firsts = [], []

        def adam_arrays(state):
            return [*state["m"].values(), *state["v"].values(), *state["scratch"]]

        def recording_init(params):
            state = init_adam_state(params)
            scratches.append(state["scratch"])
            return state

        def recording_step(params, grads, state, config):
            adam_step(params, grads, state, config)
            if state["t"] == 1:
                firsts.append((state, adam_arrays(state)))
            return params, state

        monkeypatch.setattr(trainer, "init_adam_state", recording_init)
        monkeypatch.setattr(trainer, "adam_step", recording_step)
        params, grads = dict(net.params), dict(net.grads)
        before = {k: v.copy() for k, v in params.items()}
        net.init_params(1)
        assert any(not np.array_equal(params[k], before[k]) for k in params)
        train_net(net, train, [], TrainConfig(epochs=1, batch_size=2, regularization="L2",
                                              rng_seed=0))
        assert any(np.any(g != 0.0) for g in grads.values())
        net.jitter(2)
        assert all(net.params[k] is v for k, v in params.items())
        assert all(net.grads[k] is v for k, v in grads.items())
        assert_namespace_holds_children(net)
        (scratch,), ((state, arrays),) = scratches, firsts
        assert state["t"] == 2
        assert all(a is b for a, b in zip(state["scratch"], scratch))
        assert len(adam_arrays(state)) == len(arrays) == 2 * len(params) + 2
        assert all(a is b for a, b in zip(adam_arrays(state), arrays))

    def test_paper_scale_epoch_peak_is_the_moments(self):
        """One paper-scale audio epoch of one batch of 8: each backward frees
        the forward's caches, and the first Adam step creates the moments,
        so the peak of what the epoch allocates is about Adam's m and v
        (108.9 MiB), not m and v beside the caches (148.2 MiB when both
        lived through the step)."""
        net = build_audio_net()
        rng = np.random.default_rng(0)
        train = [(rng.standard_normal(net.input_shape), onehot(i % 2)) for i in range(8)]
        moments = 2 * sum(p.nbytes for p in net.params.values())
        tracemalloc.start()
        try:
            train_net(net, train, [], TrainConfig(epochs=1, batch_size=8, rng_seed=0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= moments + (8 << 20)

    def test_adam_step_allocates_nothing(self):
        params = {"w": np.ones((256, 256)), "b": np.ones(256)}
        grads = {k: np.full_like(v, 0.5) for k, v in params.items()}
        state = init_adam_state(params)
        adam_step(params, grads, state, TrainConfig())
        tracemalloc.start()
        try:
            adam_step(params, grads, state, TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params["w"].nbytes // 64


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
        vnet.params["head/w"][...] = np.zeros((16, 2))
        vnet.params["head/b"][...] = np.zeros(2)
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
