"""Training protocol: Adam, L1/L2 regularization, splits, metrics, loops.

Defaults mirror the reference protocol: batch size 8, learning rate 0.001,
bias-corrected Adam, 50 epochs, 80/10/10 train/validation/test split.  A run
varies only the six ``TrainConfig`` values; Adam's beta1, beta2 and eps are
the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.  Every run is
bitwise deterministic for a fixed seed: parameter init, shuffling, dropout
masks and batch order are all driven by the configured seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import data as datamod
from . import ops
from .audio_net import AudioNetConfig, audio_forward
from .errors import ConfigError, TrainingError
from .fusion import LOSSES
from .layers import Net
from .video_net import VideoNetConfig, video_forward

PROB_CLAMP = 1e-12  # clamp on p for the reported strict-domain BCE only
# Adam's published defaults (Kingma & Ba, ICLR 2015), the only values trained with
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 8
    learning_rate: float = 0.001
    epochs: int = 50
    regularization: str = "none"  # none | L1 | L2
    reg_lambda: float = 1e-4
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        for name in ("learning_rate", "reg_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")
        if self.regularization not in ("none", "L1", "L2"):
            raise ConfigError(f"unknown regularization {self.regularization!r}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")


SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, validation, test


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"split seed must be >= 0, got {self.seed}")


def split_dataset(n_items: int, spec: SplitSpec = SplitSpec()):
    """Seeded shuffle, then floor-rule partition into (train, val, test)."""
    if n_items < 3:
        raise ConfigError(f"need at least 3 items to split, got {n_items}")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n_items)
    n_train = math.floor(SPLIT_FRACTIONS[0] * n_items)
    n_val = math.floor(SPLIT_FRACTIONS[1] * n_items)
    return (order[:n_train].tolist(),
            order[n_train:n_train + n_val].tolist(),
            order[n_train + n_val:].tolist())


# ----- optimizer --------------------------------------------------------------

def init_adam_state(params: dict[str, np.ndarray]) -> dict:
    """Step count ``t``, empty moment dicts ``m`` and ``v``, and the two
    scratch buffers ``adam_step`` works in: one block (``ops.BLOCK_VALUES``)
    each, or the largest tensor's size if that is smaller, shared by every
    tensor, so that a step after a tensor's first allocates nothing.  The
    first step on a tensor creates its zero moments, so they do not exist
    during the first forward and backward."""
    size = min(max((p.size for p in params.values()), default=0), ops.BLOCK_VALUES)
    return {"t": 0, "m": {}, "v": {}, "scratch": (np.empty(size), np.empty(size))}


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: dict, config: TrainConfig):
    """One bias-corrected Adam update, in place; returns (params, state).

    Computes p -= lr * m_hat / (sqrt(v_hat) + eps), operation by operation in
    that order, in the state's scratch buffers.  A tensor larger than one
    block runs the whole sequence on one ``ops.blocks`` run of p, g, m and v
    at a time, so each streams through memory once; the arithmetic is
    elementwise, so the bits do not depend on the block size.  Every gradient
    value and its square (the term v adds) are checked finite before any
    parameter, moment or ``t`` changes.  The first step on a tensor creates
    its m and v as zeros (m_0 = v_0 = 0), after the checks.
    """
    scratch_a, scratch_b = state["scratch"]
    with np.errstate(over="ignore", invalid="ignore"):  # a sum may overflow
        for name, g in grads.items():
            for gb, in ops.blocks(g):  # a finite sum of squares has finite terms; else look
                if not (np.isfinite(np.vdot(gb, gb)) or np.isfinite(gb * gb).all()):
                    raise TrainingError(f"gradient {name!r} is not finite or its square overflows")
    state["t"] += 1
    t = state["t"]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        if name not in state["m"]:
            state["m"][name], state["v"][name] = np.zeros_like(p), np.zeros_like(p)
        for pb, g, m, v in ops.blocks(p, grads[name], state["m"][name], state["v"][name]):
            a = scratch_a[:pb.size].reshape(pb.shape)
            b = scratch_b[:pb.size].reshape(pb.shape)
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            np.multiply(1 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, 1 - b1 ** t, out=a)  # m_hat
            a *= config.learning_rate
            np.divide(v, 1 - b2 ** t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            pb -= a
    return params, state


def reg_penalty(net: Net, kind: str, lam: float) -> float:
    """The L1 or L2 penalty over ``net.weight_names`` (biases excluded),
    summed in the namespace order of ``net.params``, so that it does not
    depend on the set's string-hash order.  One pass of ``ops.blocks`` runs
    through one block of scratch: each block adds its |w| or w^2 sum to its
    tensor's total (the sum over blocks in order, so a tensor of several
    blocks may differ from one whole-tensor sum in the last bits), then its
    gradient, lam * sign(w) or 2 * lam * w, into ``net.grads`` in place."""
    if kind == "none" or lam == 0.0:
        return 0.0
    if kind not in ("L1", "L2"):
        raise ConfigError(f"unknown regularization {kind!r}")
    names = [n for n in net.params if n in net.weight_names]
    penalty = 0.0
    scratch = np.empty(min(max((net.params[n].size for n in names), default=0),
                           ops.BLOCK_VALUES))
    for name in names:
        total = 0.0
        for wb, gb in ops.blocks(net.params[name], net.grads[name]):
            contrib = scratch[:wb.size].reshape(wb.shape)
            if kind == "L1":
                total += float(np.abs(wb, out=contrib).sum())
                np.multiply(lam, np.sign(wb, out=contrib), out=contrib)
            else:
                total += float(np.multiply(wb, wb, out=contrib).sum())
                np.multiply(2.0 * lam, wb, out=contrib)
            gb += contrib
        penalty += lam * total
    return penalty


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
              forward_fn=None, loss_kind: str | None = None) -> list[EpochLog]:
    """Optimize ``net`` on (x, onehot-y) pairs; returns the per-epoch log.

    ``forward_fn(xs, mode)`` maps an N x ... stack of inputs to N x 2
    probabilities and defaults to ``net.run``, which checks that each input
    ends in ``net.input_shape``; every net trains on that default, and
    ``forward_fn`` is for wrappers of it that a tracer times by name.  Each
    minibatch runs one train-mode forward and one ``net.backward``, so the
    layer caches hold exactly one minibatch and memory grows with
    ``batch_size``.  The backward frees the caches as it goes, and the first
    ``adam_step`` creates the moments after it, so the first step's peak is
    the parameters and gradients plus the larger of the caches (with the
    backward's scratch) and the moments; a later step holds the moments
    beside its forward's caches.  Each epoch ends with ``evaluate`` of that
    forward on ``val_set``.  ``loss_kind`` is "onehot" (BCE over a softmax output) or
    "sigmoid" (two-sided BCE over uncoupled sigmoid outputs); it defaults to
    the one ``LOSSES`` pairs with ``net.output``, and must match it (else
    ConfigError).  For both pairs dL/d(logits) is (p - y)/N, so the backward
    starts at the logits, from the unclamped output, and a saturated output
    still learns; ``PROB_CLAMP`` applies only to the reported loss.
    """
    if not train_set:
        raise ConfigError("empty training set")
    if loss_kind is None:
        loss_kind = next((k for k, (_, out) in LOSSES.items() if out == net.output), None)
    if loss_kind not in LOSSES:
        raise ConfigError(f"unknown loss_kind {loss_kind!r} for a net with output "
                          f"{net.output!r}")
    loss_fn, output = LOSSES[loss_kind]
    if net.output != output:
        raise ConfigError(f"loss_kind {loss_kind!r} trains a {output!r} output, "
                          f"but the net's output is {net.output!r}")
    fwd = forward_fn or net.run
    net.reseed_dropout(config.rng_seed + 1)
    shuffle_rng = np.random.default_rng(config.rng_seed + 2)
    state = init_adam_state(net.params)
    logs = []
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        epoch_loss = 0.0
        n_batches = 0
        for xs, ys in _minibatches(train_set, config.batch_size, order):
            p = fwd(xs, mode="train")
            net.backward((p - ys) / len(ys))
            penalty = reg_penalty(net, config.regularization, config.reg_lambda)
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
    return [datamod.audio_input(row.audio_path, config.frames) for row in rows]


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
