"""Audio classifier over MFCC matrices.

A sample is a (frames, 13, 1) matrix as ``dsp.mfcc`` writes it; the first
layer views it as a one-channel (1, frames, 13) image.  Two 16-filter 3x3
valid convolutions with ReLU, dropout, flatten, a hidden dense layer, then a
2-unit dense layer: the logits, which the net's sigmoid output squashes
elementwise.  The two output probabilities are independent (they need not
sum to 1); the predicted class is their argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layers import Conv2D, Dense, Dropout, Net, ReLU, Reshape
from .ops import ConvSpec, conv_out_size


@dataclass(frozen=True)
class AudioNetConfig:
    input_shape: tuple[int, int, int] = (778, 13, 1)  # frames x coeffs x 1
    conv_filters: int = 16
    kernel: tuple[int, int] = (3, 3)
    dropout_rate: float = 0.5
    dense1_width: int = 64
    num_classes: int = 2

    def validate(self):
        if len(self.input_shape) != 3 or len(self.kernel) != 2:
            raise ConfigError(f"input_shape needs 3 entries and kernel 2, "
                              f"got {self.input_shape} and {self.kernel}")
        sizes = self.input_shape + self.kernel + (self.conv_filters, self.dense1_width)
        if min(sizes) < 1:
            raise ConfigError(f"every size must be >= 1, got input_shape={self.input_shape} "
                              f"kernel={self.kernel} conv_filters={self.conv_filters} "
                              f"dense1_width={self.dense1_width}")
        if self.input_shape[2] != 1:
            raise ConfigError(f"input_shape must have 1 channel, got {self.input_shape}")
        if self.num_classes != 2:
            raise ConfigError(f"num_classes must be 2, got {self.num_classes}")

    def flatten_width(self) -> int:
        """Values per sample after the two valid convolutions."""
        h, w, _ = self.input_shape
        kh, kw = self.kernel
        for _layer in range(2):
            if h < kh or w < kw:
                raise ConfigError(f"input {self.input_shape} too small for kernel {self.kernel}")
            h = conv_out_size(h, kh, 1, "valid")
            w = conv_out_size(w, kw, 1, "valid")
        return h * w * self.conv_filters


TINY_AUDIO_CONFIG = AudioNetConfig(input_shape=(16, 13, 1))

# Narrow enough for exhaustive finite-difference checking.
GRADCHECK_AUDIO_CONFIG = AudioNetConfig(input_shape=(16, 13, 1),
                                        conv_filters=2, dense1_width=8)


def build_audio_net(config: AudioNetConfig = AudioNetConfig(), rng_seed: int | None = 0) -> Net:
    config.validate()
    kh, kw = config.kernel
    frames, coeffs, _ = config.input_shape
    f = config.conv_filters
    net = Net([
        ("image", Reshape((1, frames, coeffs))),
        ("conv1", Conv2D(ConvSpec(kh, kw, (1, 1), "valid", 1, f))),
        ("relu1", ReLU()),
        ("conv2", Conv2D(ConvSpec(kh, kw, (1, 1), "valid", f, f))),
        ("relu2", ReLU()),
        ("dropout", Dropout(config.dropout_rate)),
        ("flatten", Reshape((-1,))),
        ("dense1", Dense(config.flatten_width(), config.dense1_width)),
        ("relu3", ReLU()),
        ("dense2", Dense(config.dense1_width, config.num_classes)),
    ], config.input_shape, output="sigmoid")
    net.config = config
    net.init_params(rng_seed)
    return net


def audio_forward(net: Net, mfcc: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Run the classifier on one (frames, 13, 1) MFCC matrix -> 2 probabilities,
    or on an N x frames x 13 x 1 batch of them -> N x 2 probabilities in one pass."""
    return net.run(mfcc, mode)
