"""Decision-level fusion of the two unimodal classifiers.

The video and audio output vectors are concatenated (video first) into a
4-vector that feeds a small two-layer head with a softmax output.  The
unimodal networks are trained separately and stay frozen while the head is
trained; binary cross-entropy is the loss for every network in the project.
Each loss in ``LOSSES`` trains through one output activation, and for both
pairs the gradient at that activation's input (the logits) is (p - y)/N.
"""

from __future__ import annotations

import numpy as np

from .audio_net import audio_forward
from .errors import DimensionError, DomainError
from .layers import Activation, Dense, Net
from .video_net import video_forward

FUSION_INPUT_DIM = 4
FUSION_HIDDEN_DIM = 16
CONCAT_ORDER = ("video", "audio")


def concat_outputs(yv: np.ndarray, ya: np.ndarray) -> np.ndarray:
    """[y_video ; y_audio] -> 4-vector, values untouched."""
    yv = np.asarray(yv, dtype=np.float64)
    ya = np.asarray(ya, dtype=np.float64)
    if yv.shape != (2,) or ya.shape != (2,):
        raise DimensionError(f"modality outputs must be 2-vectors, got {yv.shape}, {ya.shape}")
    return np.concatenate([yv, ya])


def build_fusion_head(rng_seed: int = 0) -> Net:
    net = Net([
        ("dense1", Dense(FUSION_INPUT_DIM, FUSION_HIDDEN_DIM)),
        ("relu", Activation("relu")),
        ("dense2", Dense(FUSION_HIDDEN_DIM, 2)),
        ("softmax", Activation("softmax_lastdim")),
    ])
    net.init_params(rng_seed)
    return net


def _check_probs(p: np.ndarray):
    if not np.all(np.isfinite(p)):
        raise DomainError("probabilities must be finite")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("probabilities must lie strictly inside (0, 1); "
                          "clamp explicitly before calling if needed")


def _check_onehot(y: np.ndarray):
    if not np.all((y == 0.0) | (y == 1.0)) or not np.all(y.sum(axis=-1) == 1.0):
        raise DomainError("labels must be one-hot rows over 2 classes")


def _checked_batch(p, y) -> tuple[np.ndarray, np.ndarray]:
    """The shape and domain check every loss in LOSSES applies: matching
    (N, 2) batches, probabilities strictly inside (0, 1), one-hot labels."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if p.shape != y.shape or p.shape[-1] != 2:
        raise DimensionError(f"p and y must be matching (N, 2) batches, got {p.shape}, {y.shape}")
    _check_probs(p)
    _check_onehot(y)
    return p, y


def bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Binary cross-entropy -(1/N) * sum(y * log p) over a batch of 2-vectors.

    With one-hot labels each row contributes exactly -log(p_true).
    """
    p, y = _checked_batch(p, y)
    return float(-(y * np.log(p)).sum() / p.shape[0])


def sigmoid_bce_loss(p: np.ndarray, y: np.ndarray) -> float:
    """Two-sided binary cross-entropy for independent sigmoid outputs.

    -(1/N) * sum[y log p + (1-y) log(1-p)].  The one-hot form (bce_loss)
    is degenerate for uncoupled sigmoids: emitting 1 for every class zeroes
    it regardless of the label, so sigmoid-output networks train on this
    loss instead.  For softmax outputs the two coincide up to the (1-y) term
    being redundant.
    """
    p, y = _checked_batch(p, y)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum() / p.shape[0])


# loss kind -> (loss, the final activation it trains through): "onehot" for
# softmax heads, "sigmoid" for uncoupled sigmoid outputs
LOSSES = {
    "onehot": (bce_loss, "softmax_lastdim"),
    "sigmoid": (sigmoid_bce_loss, "sigmoid"),
}


def fused_forward(video_net: Net, audio_net: Net, fusion_net: Net,
                  clip: np.ndarray, mfcc: np.ndarray) -> np.ndarray:
    """End-to-end prediction; the unimodal networks act as frozen constants."""
    yv = video_forward(video_net, clip)
    ya = audio_forward(audio_net, mfcc, mode="eval")
    fused = concat_outputs(yv, ya)
    return fusion_net.forward(fused, mode="eval")
