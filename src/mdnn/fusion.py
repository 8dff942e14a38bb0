"""Decision-level fusion of the two unimodal classifiers.

The video and audio output vectors are concatenated (video first) into a
4-vector that feeds a small two-layer head with a softmax output.  The
unimodal networks are trained separately and stay frozen while the head is
trained; binary cross-entropy is the loss for every network in the project.
The head's config, ``FusionHeadConfig``, has no field: it only names the kind.
Each loss in ``LOSSES`` trains nets with one output activation
(``Net.output``), and for both pairs the gradient at the logits, where
``Net.backward`` starts, is (p - y)/N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio_net import audio_forward
from .errors import DimensionError, DomainError
from .layers import Dense, Net, ReLU
from .video_net import video_forward

FUSION_INPUT_DIM = 4
FUSION_HIDDEN_DIM = 16
CONCAT_ORDER = ("video", "audio")


@dataclass(frozen=True)
class FusionHeadConfig:
    """The fusion head's architecture, which is fixed, so no field."""


def build_fusion_head(rng_seed: int | None = 0,
                      config: FusionHeadConfig = FusionHeadConfig()) -> Net:
    net = Net([
        ("dense1", Dense(FUSION_INPUT_DIM, FUSION_HIDDEN_DIM)),
        ("relu", ReLU()),
        ("dense2", Dense(FUSION_HIDDEN_DIM, 2)),
    ], (FUSION_INPUT_DIM,), output="softmax_lastdim", config=config)
    net.init_params(rng_seed)
    return net


def _checked_batch(p, y) -> tuple[np.ndarray, np.ndarray]:
    """The shape and domain check every loss in LOSSES applies: matching
    (N, 2) batches, probabilities strictly inside (0, 1), one-hot labels."""
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if p.shape != y.shape or p.shape[-1] != 2:
        raise DimensionError(f"p and y must be matching (N, 2) batches, got {p.shape}, {y.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("probabilities must be finite")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise DomainError("probabilities must lie strictly inside (0, 1); "
                          "clamp explicitly before calling if needed")
    if not np.all((y == 0.0) | (y == 1.0)) or not np.all(y.sum(axis=-1) == 1.0):
        raise DomainError("labels must be one-hot rows over 2 classes")
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


# loss kind -> (loss, the ``Net.output`` activation of the nets it trains):
# "onehot" for softmax outputs, "sigmoid" for uncoupled sigmoid outputs
LOSSES = {
    "onehot": (bce_loss, "softmax_lastdim"),
    "sigmoid": (sigmoid_bce_loss, "sigmoid"),
}


def fused_forward(video_net: Net, audio_net: Net, fusion_net: Net,
                  clip: np.ndarray, mfcc: np.ndarray) -> np.ndarray:
    """End-to-end prediction; the unimodal networks act as frozen constants.
    The head reads [y_video ; y_audio] (``CONCAT_ORDER``).  DimensionError if
    the clip and MFCC batches have different leading axes."""
    yv, ya = video_forward(video_net, clip), audio_forward(audio_net, mfcc)
    if yv.shape[:-1] != ya.shape[:-1]:
        raise DimensionError(f"video outputs {yv.shape} and audio outputs {ya.shape} "
                             "differ in their leading (batch) axes")
    return fusion_net.run(np.concatenate([yv, ya], axis=-1))
