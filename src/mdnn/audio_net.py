"""Audio classifier over MFCC matrices.

A sample is a (frames, 13, 1) matrix as ``dsp.mfcc`` writes it; the first
layer views it as a one-channel (1, frames, 13) image.  Two valid 3x3
convolutions (``KERNEL``) with ReLU, dropout at rate 0.5 (``DROPOUT_RATE``),
flatten, a hidden dense layer, then a 2-unit dense layer (``NUM_CLASSES``):
the logits, which the net's sigmoid output squashes elementwise.  The two
output probabilities are independent (they need not sum to 1); the predicted
class is their argmax.  A config holds only the sizes that vary: the frame
count, the filters of both convolutions and the hidden width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import ConfigError
from .layers import Conv2D, Dense, Dropout, Net, ReLU, Reshape
from .ops import ConvSpec

KERNEL = (3, 3)  # both convolutions: valid padding, stride 1
DROPOUT_RATE = 0.5
NUM_CLASSES = 2


@dataclass(frozen=True)
class AudioNetConfig:
    frames: int = dsp.REFERENCE_FRAMES
    conv_filters: int = 16
    dense1_width: int = 64

    def __post_init__(self):
        kh, _ = KERNEL
        if min(self.frames - 2 * (kh - 1), self.conv_filters, self.dense1_width) < 1:
            raise ConfigError(f"need frames >= {2 * kh - 1} for two valid convolutions and "
                              f"every other size >= 1, got frames={self.frames} "
                              f"conv_filters={self.conv_filters} dense1_width={self.dense1_width}")

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """One sample: frames x MFCC coefficients x 1."""
        return (self.frames, dsp.N_MFCC, 1)

    def flatten_width(self) -> int:
        """Values per sample after the two valid convolutions."""
        kh, kw = KERNEL
        return (self.frames - 2 * (kh - 1)) * (dsp.N_MFCC - 2 * (kw - 1)) * self.conv_filters


TINY_AUDIO_CONFIG = AudioNetConfig(frames=16)

# Narrow enough for exhaustive finite-difference checking.
GRADCHECK_AUDIO_CONFIG = AudioNetConfig(frames=16, conv_filters=2, dense1_width=8)


def build_audio_net(config: AudioNetConfig = AudioNetConfig(), rng_seed: int | None = 0) -> Net:
    f = config.conv_filters
    net = Net([
        ("image", Reshape((1, config.frames, dsp.N_MFCC))),
        ("conv1", Conv2D(ConvSpec(*KERNEL, (1, 1), "valid", 1, f))),
        ("relu1", ReLU()),
        ("conv2", Conv2D(ConvSpec(*KERNEL, (1, 1), "valid", f, f))),
        ("relu2", ReLU()),
        ("dropout", Dropout(DROPOUT_RATE)),
        ("flatten", Reshape((-1,))),
        ("dense1", Dense(config.flatten_width(), config.dense1_width)),
        ("relu3", ReLU()),
        ("dense2", Dense(config.dense1_width, NUM_CLASSES)),
    ], config.input_shape, output="sigmoid", config=config)
    net.init_params(rng_seed)
    return net


def audio_forward(net: Net, mfcc: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Run the classifier on one (frames, 13, 1) MFCC matrix -> 2 probabilities,
    or on an N x frames x 13 x 1 batch of them -> N x 2 probabilities in one pass."""
    return net.run(mfcc, mode)
