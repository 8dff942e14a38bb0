"""Audio classifier over MFCC matrices.

Two 16-filter 3x3 valid convolutions with ReLU, flatten, dropout, a hidden
dense layer, then a 2-unit dense layer squashed elementwise by a sigmoid.
The two output probabilities are independent (they need not sum to 1);
the predicted class is their argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .layers import Activation, Conv2D, Dense, Dropout, Flatten, Net
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

    def conv_output_shape(self) -> tuple[int, int, int]:
        h, w, _ = self.input_shape
        kh, kw = self.kernel
        for _layer in range(2):
            if h < kh or w < kw:
                raise ConfigError(f"input {self.input_shape} too small for kernel {self.kernel}")
            h = conv_out_size(h, kh, 1, "valid")
            w = conv_out_size(w, kw, 1, "valid")
        return h, w, self.conv_filters

    def flatten_width(self) -> int:
        h, w, c = self.conv_output_shape()
        return h * w * c


TINY_AUDIO_CONFIG = AudioNetConfig(input_shape=(16, 13, 1))

# Narrow enough for exhaustive finite-difference checking.
GRADCHECK_AUDIO_CONFIG = AudioNetConfig(input_shape=(16, 13, 1),
                                        conv_filters=2, dense1_width=8)


def build_audio_net(config: AudioNetConfig = AudioNetConfig(), rng_seed: int = 0) -> Net:
    config.validate()
    kh, kw = config.kernel
    f = config.conv_filters
    net = Net([
        ("conv1", Conv2D(ConvSpec(kh, kw, 1, "valid", 1, f))),
        ("relu1", Activation("relu")),
        ("conv2", Conv2D(ConvSpec(kh, kw, 1, "valid", f, f))),
        ("relu2", Activation("relu")),
        ("flatten", Flatten()),
        ("dropout", Dropout(config.dropout_rate)),
        ("dense1", Dense(config.flatten_width(), config.dense1_width)),
        ("relu3", Activation("relu")),
        ("dense2", Dense(config.dense1_width, config.num_classes)),
        ("sigmoid", Activation("sigmoid")),
    ])
    net.config = config
    net.init_params(rng_seed)
    return net


def audio_forward(net: Net, mfcc: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Run the classifier on one (frames, 13, 1) MFCC matrix -> 2 probabilities,
    or on an N x frames x 13 x 1 batch of them -> N x 2 probabilities in one pass."""
    mfcc = np.asarray(mfcc, dtype=np.float64)
    frames, coeffs, _ = net.config.input_shape
    if mfcc.shape[-3:] != net.config.input_shape:
        raise DimensionError(f"mfcc shape {mfcc.shape} != expected {net.config.input_shape}")
    # each (frames, 13, 1) matrix is the net's one-channel (1, frames, 13) image
    return net.run(np.moveaxis(mfcc, -1, -3), (1, frames, coeffs), mode)
