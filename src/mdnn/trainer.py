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
from .fusion import LOSSES, concat_outputs
from .layers import Net
from .video_net import VideoNetConfig, video_forward

PROB_CLAMP = 1e-12  # explicit clamp applied before the strict-domain BCE


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")
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


def _confusion_report(pairs) -> MetricsReport:
    """Metrics over (predicted, true) class pairs; class 1 is positive."""
    tp = fp = fn = tn = 0
    for pred, truth in pairs:
        if truth == 1:
            tp, fn = (tp + 1, fn) if pred == 1 else (tp, fn + 1)
        else:
            fp, tn = (fp + 1, tn) if pred == 1 else (fp, tn + 1)
    return metrics_from_counts(tp, fp, fn, tn)


def evaluate(forward_fn, dataset) -> MetricsReport:
    """Argmax predictions over (x, onehot-y) pairs, one sample per call."""
    return _confusion_report((int(np.argmax(forward_fn(x))), int(np.argmax(y)))
                            for x, y in dataset)


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


def _minibatches(pairs, size: int, order=None):
    """(xs, ys) stacks of ``size`` consecutive (x, y) pairs of ``pairs`` taken
    in ``order`` (default: as stored); the last may be smaller."""
    order = range(len(pairs)) if order is None else order
    for start in range(0, len(order), size):
        batch = [pairs[i] for i in order[start:start + size]]
        yield np.stack([x for x, _ in batch]), np.stack([y for _, y in batch])


def train_net(net: Net, train_set, val_set, config: TrainConfig,
              forward_fn=None, loss_kind: str = "onehot") -> list[EpochLog]:
    """Optimize ``net`` on (x, onehot-y) pairs; returns the per-epoch log.

    ``forward_fn(xs, mode)`` maps an N x ... stack of inputs to N x 2
    probabilities and defaults to ``net.forward_batch``.  Each minibatch runs
    one train-mode forward and one ``net.backward_batch``, so the layer caches
    hold exactly one minibatch and memory grows with ``batch_size``; the
    validation set runs in eval-mode batches of the same size.  Output
    probabilities are clamped into (0, 1) before the strict-domain
    cross-entropy.  ``loss_kind`` is "onehot" (softmax heads) or "sigmoid"
    (two-sided, for uncoupled sigmoid outputs).
    """
    if not train_set:
        raise ConfigError("empty training set")
    if loss_kind not in LOSSES:
        raise ConfigError(f"unknown loss_kind {loss_kind!r}")
    loss_fn, grad_fn = LOSSES[loss_kind]
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
            p = np.clip(fwd(xs, mode="train"), PROB_CLAMP, 1.0 - PROB_CLAMP)
            net.backward_batch(grad_fn(p, ys))
            penalty, contrib = reg_penalty(net, config.regularization, config.reg_lambda)
            for name, g in contrib.items():
                net.grads[name] += g
            loss = loss_fn(p, ys) + penalty
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {n_batches}")
            adam_step(net.params, net.grads, state, config)
            epoch_loss += loss
            n_batches += 1
        report = _confusion_report(
            (int(pred), int(truth))
            for xs, ys in _minibatches(val_set, config.batch_size)
            for pred, truth in zip(np.argmax(fwd(xs, mode="eval"), axis=1),
                                   np.argmax(ys, axis=1)))
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


# Input values per ``fusion_features`` eval batch.  An eval forward keeps its
# layer caches: 265 bytes per input byte for the paper-scale video net, 1.3 GB
# a clip.  At that ratio a batch holds about 17 MB; a paper-scale clip and its
# MFCCs (612,226 values) run alone, and tiny pairs (1,232) in batches of 6.
_FEATURE_BATCH_VALUES = 1 << 13


def fusion_features(rows, video_net: Net, audio_net: Net,
                    vfeats=None, afeats=None) -> list[np.ndarray]:
    """Frozen unimodal outputs concatenated into the head's 4-vector inputs;
    the nets run eval batches of at most ``_FEATURE_BATCH_VALUES`` input
    values (one sample at least)."""
    vfeats = vfeats if vfeats is not None else video_features(rows, video_net.config)
    afeats = afeats if afeats is not None else audio_features(rows, audio_net.config)
    pairs = list(zip(vfeats, afeats))
    per_sample = np.size(pairs[0][0]) + np.size(pairs[0][1]) if pairs else 1
    return [concat_outputs(v, a)
            for vs, as_ in _minibatches(pairs, max(1, _FEATURE_BATCH_VALUES // per_sample))
            for v, a in zip(video_forward(video_net, vs), audio_forward(audio_net, as_))]


def paired(features, rows) -> list[tuple[np.ndarray, np.ndarray]]:
    return [(x, onehot(r.label)) for x, r in zip(features, rows)]
