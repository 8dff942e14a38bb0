"""Fusion head, concatenation, and binary cross-entropy tests."""

import numpy as np
import pytest

from mdnn import fusion, ops
from mdnn.audio_net import GRADCHECK_AUDIO_CONFIG, audio_forward, build_audio_net
from mdnn.errors import DomainError
from mdnn.layers import Net
from mdnn.trainer import TrainConfig, onehot, train_net


# dL/dp of each loss in fusion.LOSSES: the chain-rule oracle for the (p - y)/N
# gradient that training starts from at the logits.

def bce_backward(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dL/dp for fusion.bce_loss: -(1/N) * y / p."""
    return -(y / p) / p.shape[0]


def sigmoid_bce_backward(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dL/dp for fusion.sigmoid_bce_loss: (1/N) * (-y / p + (1 - y) / (1 - p))."""
    return (-(y / p) + (1.0 - y) / (1.0 - p)) / p.shape[0]


def random_onehot(rng, n: int) -> np.ndarray:
    y = np.zeros((n, 2))
    y[np.arange(n), rng.integers(0, 2, n)] = 1.0
    return y


class TestConcat:
    def test_order_and_values(self):
        got = fusion.concat_outputs(np.array([0.9, 0.1]), np.array([0.6, 0.4]))
        assert np.array_equal(got, [0.9, 0.1, 0.6, 0.4])

    def test_identical_halves(self):
        y = np.array([0.3, 0.7])
        got = fusion.concat_outputs(y, y)
        assert np.array_equal(got[:2], got[2:])

    def test_length_always_four(self):
        assert fusion.concat_outputs(np.array([0.5, 0.5]), np.array([0.1, 0.9])).shape == (4,)


class TestFusionHead:
    def test_param_count(self):
        net = fusion.build_fusion_head(0)
        assert sum(p.size for p in net.params.values()) == 4 * 16 + 16 + 16 * 2 + 2

    def test_same_seed_identical(self):
        a = fusion.build_fusion_head(3)
        b = fusion.build_fusion_head(3)
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_output_sums_to_one(self):
        net = fusion.build_fusion_head(1)
        out = net.forward(np.array([0.9, 0.1, 0.2, 0.8]))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert ((out > 0) & (out < 1)).all()


class TestBceLoss:
    def test_perfect_prediction(self):
        p = np.array([[1 - 1e-12, 1e-12]])
        assert fusion.bce_loss(p, np.array([[1.0, 0.0]])) < 1e-11

    def test_half_half_is_ln2(self):
        loss = fusion.bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_swap_symmetry(self):
        p = np.array([[0.3, 0.7]])
        y = np.array([[1.0, 0.0]])
        assert fusion.bce_loss(p, y) == fusion.bce_loss(p[:, ::-1], y[:, ::-1])

    def test_domain_error_on_boundary(self):
        with pytest.raises(DomainError):
            fusion.bce_loss(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))

    def test_onehot_reduction_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            p = rng.uniform(1e-6, 1 - 1e-6, (n, 2))
            labels = rng.integers(0, 2, n)
            y = np.zeros((n, 2))
            y[np.arange(n), labels] = 1.0
            expect = -np.log(p[np.arange(n), labels]).sum() / n
            assert abs(fusion.bce_loss(p, y) - expect) < 1e-12

    def test_nonnegative_and_monotone(self):
        y = np.array([[1.0, 0.0]])
        losses = [fusion.bce_loss(np.array([[pt, 0.5]]), y)
                  for pt in (0.1, 0.3, 0.6, 0.9, 0.999)]
        assert all(l >= 0 for l in losses)
        assert losses == sorted(losses, reverse=True)


class TestBceBackward:
    """The dL/dp oracles above, checked against their losses."""

    def test_hand_gradient(self):
        g = bce_backward(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
        assert np.allclose(g, [[-2.0, 0.0]])

    def test_zero_label_zero_gradient(self):
        g = bce_backward(np.array([[0.2, 0.4]]), np.array([[0.0, 1.0]]))
        assert g[0, 0] == 0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-7
        for loss, oracle in ((fusion.bce_loss, bce_backward),
                             (fusion.sigmoid_bce_loss, sigmoid_bce_backward)):
            p = rng.uniform(0.1, 0.9, (3, 2))
            y = random_onehot(rng, 3)
            analytic = oracle(p, y)
            for idx in np.ndindex(p.shape):
                pp, pm = p.copy(), p.copy()
                pp[idx] += h
                pm[idx] -= h
                num = (loss(pp, y) - loss(pm, y)) / (2 * h)
                denom = max(abs(num), abs(analytic[idx]), 1e-8)
                assert abs(analytic[idx] - num) / denom < 1e-6, loss.__name__


class TestLogitGradient:
    """Training's output gradient (p - y)/N is the chain-rule product of each
    loss's dL/dp and the Jacobian of the activation LOSSES pairs it with."""

    @pytest.mark.parametrize("kind, oracle", [("onehot", bce_backward),
                                              ("sigmoid", sigmoid_bce_backward)])
    def test_equals_chain_rule(self, kind, oracle):
        _, activation = fusion.LOSSES[kind]
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            p = ops.activation(rng.normal(0.0, 3.0, (n, 2)), activation)
            p = np.clip(p, 1e-6, 1 - 1e-6)  # away from the clamp
            y = random_onehot(rng, n)
            chain = ops.activation_backward(oracle(p, y), p, activation)
            assert np.abs(chain - (p - y) / n).max() < 1e-12

    @pytest.mark.parametrize("kind, oracle", [("onehot", bce_backward),
                                              ("sigmoid", sigmoid_bce_backward)])
    def test_train_net_gradients_equal_chain_rule(self, kind, oracle):
        """One minibatch of ``train_net`` leaves the parameter gradients of
        the oracle's dL/dp run back through every layer, the head included."""
        rng = np.random.default_rng(4)
        if kind == "onehot":
            build = lambda: fusion.build_fusion_head(rng_seed=0)
            xs = rng.uniform(0.0, 1.0, (6, 4))
            forward = lambda net: net.forward_batch
        else:
            build = lambda: build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=0)
            xs = rng.standard_normal((6,) + GRADCHECK_AUDIO_CONFIG.input_shape)
            forward = lambda net: (lambda x, mode: audio_forward(net, x, mode))
        train = [(x, onehot(i % 2)) for i, x in enumerate(xs)]
        cfg = TrainConfig(epochs=1, batch_size=len(train), rng_seed=0)
        trained = build()
        train_net(trained, train, [], cfg, forward_fn=forward(trained), loss_kind=kind)

        # the same minibatch: train_net's dropout seed and shuffle order
        net = build()
        net.reseed_dropout(cfg.rng_seed + 1)
        order = np.random.default_rng(cfg.rng_seed + 2).permutation(len(train))
        p = forward(net)(xs[order], mode="train")
        net.zero_grad()
        net.backward_batch(oracle(p, np.stack([train[i][1] for i in order])))
        for name, g in net.grads.items():
            assert np.abs(trained.grads[name] - g).max() <= 1e-9 * np.abs(g).max(), name


class TestFusedForward:
    @staticmethod
    def _antisymmetric_head() -> Net:
        """Head that compares the two modalities: swap inputs -> swapped output."""
        net = fusion.build_fusion_head(0)
        w1 = np.zeros((4, 16))
        # units 0/1: evidence for class 0 and class 1 from both modalities
        w1[0, 0] = w1[2, 0] = 1.0
        w1[1, 1] = w1[3, 1] = 1.0
        net.set_param("dense1/w", w1)
        net.set_param("dense1/b", np.zeros(16))
        w2 = np.zeros((16, 2))
        w2[0, 0] = w2[1, 1] = 4.0
        net.set_param("dense2/w", w2)
        net.set_param("dense2/b", np.zeros(2))
        return net

    def test_prediction_flips_on_swap(self):
        net = self._antisymmetric_head()
        yv, ya = np.array([0.9, 0.1]), np.array([0.7, 0.3])
        p = net.forward(fusion.concat_outputs(yv, ya))
        p_swapped = net.forward(fusion.concat_outputs(yv[::-1], ya[::-1]))
        assert np.argmax(p) == 0
        assert np.argmax(p_swapped) == 1
        assert np.allclose(p, p_swapped[::-1], atol=1e-12)
