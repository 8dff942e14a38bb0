"""Training protocol: Adam, L1/L2 regularization, splits, metrics, loops.

Defaults mirror the reference protocol: batch size 8, learning rate 0.001,
bias-corrected Adam, 50 epochs, 80/10/10 train/validation/test split.  Every
run is bitwise deterministic for a fixed seed: parameter init, shuffling,
dropout masks and batch order are all driven by the configured seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .audio_net import AudioNetConfig, audio_forward
from .errors import ConfigError, TrainingError
from .fusion import LOSSES
from .layers import Activation, Net
from .video_net import VideoNetConfig, video_forward

PROB_CLAMP = 1e-12  # clamp on p for the reported strict-domain BCE only


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 0.001
    epochs: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    regularization: str = "none"  # none | L1 | L2
    reg_lambda: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("learning_rate", "reg_lambda", "eps"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")
        if self.eps <= 0:
            raise ConfigError("eps must be > 0")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.regularization not in ("none", "L1", "L2"):
            raise ConfigError(f"unknown regularization {self.regularization!r}")


@dataclass(frozen=True)
class SplitSpec:
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0


def split_dataset(n_items: int, spec: SplitSpec = SplitSpec()):
    """Seeded shuffle, then floor-rule partition into (train, val, test)."""
    if n_items < 3:
        raise ConfigError(f"need at least 3 items to split, got {n_items}")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n_items)
    n_train = math.floor(spec.fractions[0] * n_items)
    n_val = math.floor(spec.fractions[1] * n_items)
    return (order[:n_train].tolist(),
            order[n_train:n_train + n_val].tolist(),
            order[n_train + n_val:].tolist())


# ----- optimizer --------------------------------------------------------------

def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: dict, config: TrainConfig):
    """One bias-corrected Adam update, in place; returns (params, state).

    Computes p -= lr * m_hat / (sqrt(v_hat) + eps), operation by operation in
    that order, into two scratch buffers shared by every tensor.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in tensor {name!r}")
    state["t"] += 1
    t = state["t"]
    b1, b2 = config.beta1, config.beta2
    size = max((p.size for p in params.values()), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        a = scratch_a[:p.size].reshape(p.shape)
        b = scratch_b[:p.size].reshape(p.shape)
        m *= b1
        m += np.multiply(1 - b1, g, out=a)
        v *= b2
        np.multiply(1 - b2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(m, 1 - b1 ** t, out=a)  # m_hat
        a *= config.learning_rate
        np.divide(v, 1 - b2 ** t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += config.eps
        a /= b
        p -= a
    return params, state


def reg_penalty(net: Net, kind: str, lam: float):
    """(penalty, per-weight gradient contribution); biases excluded."""
    contrib: dict[str, np.ndarray] = {}
    penalty = 0.0
    if kind == "none" or lam == 0.0:
        return 0.0, contrib
    for name in net.weight_names:
        w = net.params[name]
        if kind == "L1":
            penalty += lam * float(np.abs(w).sum())
            contrib[name] = lam * np.sign(w)
        elif kind == "L2":
            penalty += lam * float((w * w).sum())
            contrib[name] = 2.0 * lam * w
        else:
            raise ConfigError(f"unknown regularization {kind!r}")
    return penalty, contrib


# ----- metrics ----------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float | None
    precision: float | None
    recall: float | None


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> MetricsReport:
    """Undefined ratios (zero denominator) are reported as None, not 0."""
    total = tp + fp + fn + tn
    return MetricsReport(
        tp=tp, fp=fp, fn=fn, tn=tn,
        accuracy=(tp + tn) / total if total else None,
        precision=tp / (tp + fp) if tp + fp else None,
        recall=tp / (tp + fn) if tp + fn else None,
    )


# Input values per eval batch.  An eval forward keeps its layer caches: 265
# bytes per input byte for the paper-scale video net, 1.3 GB a clip.  At that
# ratio a batch holds about 17 MB; a paper-scale clip (602,112 values) or MFCC
# matrix (10,114) runs alone, tiny clips (1,024) in batches of 8.
_EVAL_BATCH_VALUES = 1 << 13


def eval_outputs(forward_fn, xs) -> np.ndarray:
    """``forward_fn`` (an N x ... batch -> N x 2, eval mode) over the inputs
    ``xs``, in batches of at most ``_EVAL_BATCH_VALUES`` input values (one
    sample at least); the N x 2 outputs in order."""
    size = max(1, _EVAL_BATCH_VALUES // np.size(xs[0])) if len(xs) else 1
    outs = [forward_fn(np.stack(xs[i:i + size])) for i in range(0, len(xs), size)]
    return np.concatenate(outs) if outs else np.empty((0, 2))


def evaluate(forward_fn, dataset) -> MetricsReport:
    """Argmax metrics over (x, onehot-y) pairs, class 1 positive; the inputs
    run through ``forward_fn`` as in ``eval_outputs``."""
    pred = np.argmax(eval_outputs(forward_fn, [x for x, _ in dataset]), axis=1) == 1
    truth = np.array([np.argmax(y) for _, y in dataset]) == 1
    return metrics_from_counts(int(np.sum(pred & truth)), int(np.sum(pred & ~truth)),
                               int(np.sum(~pred & truth)), int(np.sum(~pred & ~truth)))


# ----- training loop ----------------------------------------------------------

def onehot(label: int) -> np.ndarray:
    y = np.zeros(2)
    y[label] = 1.0
    return y


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_accuracy: float | None
    val_precision: float | None
    val_recall: float | None


def _minibatches(pairs, size: int, order):
    """(xs, ys) stacks of ``size`` consecutive (x, y) pairs of ``pairs`` taken
    in ``order``; the last may be smaller."""
    for start in range(0, len(order), size):
        batch = [pairs[i] for i in order[start:start + size]]
        yield np.stack([x for x, _ in batch]), np.stack([y for _, y in batch])


def train_net(net: Net, train_set, val_set, config: TrainConfig,
              forward_fn=None, loss_kind: str = "onehot") -> list[EpochLog]:
    """Optimize ``net`` on (x, onehot-y) pairs; returns the per-epoch log.

    ``forward_fn(xs, mode)`` maps an N x ... stack of inputs to N x 2
    probabilities and defaults to ``net.forward_batch``.  Each minibatch runs
    one train-mode forward and one backward through the layers, so the layer
    caches hold exactly one minibatch and memory grows with ``batch_size``;
    each epoch ends with ``evaluate`` of that forward on ``val_set``.
    ``loss_kind`` is "onehot" (BCE over a softmax head) or "sigmoid"
    (two-sided BCE over uncoupled sigmoid outputs), and ``net`` must end in
    that activation (else ConfigError).  For both pairs dL/d(logits) is
    (p - y)/N, so the backward starts below the final activation, from the
    unclamped output, and a saturated output still learns; ``PROB_CLAMP``
    applies only to the reported loss.
    """
    if not train_set:
        raise ConfigError("empty training set")
    if loss_kind not in LOSSES:
        raise ConfigError(f"unknown loss_kind {loss_kind!r}")
    loss_fn, head_kind = LOSSES[loss_kind]
    *below_head, (head_name, head) = net.layers
    if not (isinstance(head, Activation) and head.kind == head_kind):
        raise ConfigError(f"loss_kind {loss_kind!r} trains through a final {head_kind!r} "
                          f"activation, but the net ends in layer {head_name!r}")
    fwd = forward_fn or net.forward_batch
    net.reseed_dropout(config.rng_seed + 1)
    shuffle_rng = np.random.default_rng(config.rng_seed + 2)
    state = init_adam_state(net.params)
    logs = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_batches = 0
        for xs, ys in _minibatches(train_set, config.batch_size, order):
            net.zero_grad()
            p = fwd(xs, mode="train")
            grad = (p - ys) / len(ys)
            for _, layer in reversed(below_head):
                grad = layer.backward(grad)
            penalty, contrib = reg_penalty(net, config.regularization, config.reg_lambda)
            for name, g in contrib.items():
                net.grads[name] += g
            loss = loss_fn(np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP), ys) + penalty
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {n_batches}")
            adam_step(net.params, net.grads, state, config)
            epoch_loss += loss
            n_batches += 1
        report = evaluate(fwd, val_set)
        logs.append(EpochLog(epoch, epoch_loss / n_batches,
                             report.accuracy, report.precision, report.recall))
    return logs


def write_epoch_log_csv(path, logs: list[EpochLog]):
    with open(path, "w") as f:
        f.write("epoch,train_loss,val_accuracy,val_precision,val_recall\n")
        for log in logs:
            cells = [str(log.epoch), repr(log.train_loss)] + [
                "" if v is None else repr(v)
                for v in (log.val_accuracy, log.val_precision, log.val_recall)]
            f.write(",".join(cells) + "\n")


# ----- feature assembly from manifests ---------------------------------------

def audio_features(rows, config: AudioNetConfig) -> list[np.ndarray]:
    return [datamod.audio_input(row.audio_path, config.input_shape[0]) for row in rows]


def video_features(rows, config: VideoNetConfig) -> list[np.ndarray]:
    return [datamod.video_input(row.video_path, config.input_shape) for row in rows]


def fusion_features(rows, video_net: Net, audio_net: Net,
                    vfeats=None, afeats=None) -> list[np.ndarray]:
    """Frozen unimodal outputs concatenated (video first) into the head's
    4-vector inputs; each net runs through ``eval_outputs``."""
    vfeats = vfeats if vfeats is not None else video_features(rows, video_net.config)
    afeats = afeats if afeats is not None else audio_features(rows, audio_net.config)
    return list(np.concatenate([
        eval_outputs(lambda xs: video_forward(video_net, xs), vfeats),
        eval_outputs(lambda xs: audio_forward(audio_net, xs), afeats)], axis=1))


def paired(features, rows) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(x, onehot(r.label)) for x, r in zip(features, rows)]
