"""Video classifier: residual stages of (2+1)D factorized convolutions.

Stem convolution, then stages of residual blocks (stride 2 in space and time
at every stage transition), global average pooling, a 2-unit dense layer and
a softmax head.  The full-scale channel plan is the classic 64/128/256/512;
the tiny configs exist for fast tests and gradient checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .layers import Activation, Conv2Plus1D, Dense, GlobalAvgPool, Net, Residual2Plus1DBlock
from .ops import conv_out_size


@dataclass(frozen=True)
class VideoNetConfig:
    input_shape: tuple[int, int, int, int] = (3, 16, 112, 112)  # C x T x H x W
    stage_channels: tuple[int, ...] = (64, 128, 256, 512)
    blocks_per_stage: int = 2
    num_classes: int = 2

    @property
    def stem_channels(self) -> int:
        return self.stage_channels[0]

    def validate(self):
        if len(self.input_shape) != 4:
            raise ConfigError(f"input_shape needs 4 entries, got {self.input_shape}")
        c, t, h, w = self.input_shape
        if min(self.input_shape) < 1 or not self.stage_channels:
            raise ConfigError(f"invalid input shape {self.input_shape}")
        for i, _ch in enumerate(self.stage_channels):
            if i > 0:
                t = conv_out_size(t, 3, 2, "same")
                h = conv_out_size(h, 3, 2, "same")
                w = conv_out_size(w, 3, 2, "same")
            if min(t, h, w) < 1:
                raise ConfigError(f"stage {i} reduces a dimension below 1 "
                                  f"(t={t}, h={h}, w={w})")


TINY_VIDEO_CONFIG = VideoNetConfig(
    input_shape=(1, 4, 16, 16), stage_channels=(8, 16), blocks_per_stage=1)

# Small enough for exhaustive finite-difference checking.
GRADCHECK_VIDEO_CONFIG = VideoNetConfig(
    input_shape=(1, 2, 5, 5), stage_channels=(2, 3), blocks_per_stage=1)


def build_video_net(config: VideoNetConfig = VideoNetConfig(), rng_seed: int = 0) -> Net:
    config.validate()
    c_in = config.input_shape[0]
    layers: list = [("stem", Conv2Plus1D(c_in, config.stem_channels))]
    prev = config.stem_channels
    for s, ch in enumerate(config.stage_channels):
        for b in range(config.blocks_per_stage):
            stride = 2 if (s > 0 and b == 0) else 1
            layers.append((f"stage{s}_block{b}",
                           Residual2Plus1DBlock(prev, ch, spatial_stride=stride,
                                                temporal_stride=stride)))
            prev = ch
    layers += [
        ("pool", GlobalAvgPool()),
        ("head", Dense(prev, config.num_classes)),
        ("softmax", Activation("softmax_lastdim")),
    ]
    net = Net(layers)
    net.config = config
    net.init_params(rng_seed)
    return net


def video_forward(net: Net, clip: np.ndarray, mode: str = "eval") -> np.ndarray:
    """Classify one C x T x H x W clip -> 2-class probability vector, or an
    N x C x T x H x W batch of clips -> N x 2 probabilities in one pass."""
    return net.run(clip, net.config.input_shape, mode)


def param_count(net: Net, mode: str = "factored") -> int:
    """Weight count (biases excluded) of the stored model or its full-3D twin."""
    if mode == "factored":
        return sum(net.params[w].size for w in net.weight_names)
    if mode == "full3d_equivalent":
        return net.full3d_weight_count()
    raise ValueError(f"unknown mode {mode!r}")
