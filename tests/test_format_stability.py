"""Format stability: seeded parameters, model.txt text and tiny forward outputs
are pinned to the values recorded before the residual-block namespace and the
config codec were refactored, so a change to either cannot move them."""

import numpy as np
import pytest

from mdnn import model_io
from mdnn.audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG, AudioNetConfig,
                            audio_forward, build_audio_net)
from mdnn.fusion import build_fusion_head, fused_forward
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG, VideoNetConfig,
                            build_video_net, video_forward)

BUILDERS = {
    "video_tiny": lambda: build_video_net(TINY_VIDEO_CONFIG, rng_seed=0),
    "video_gradcheck": lambda: build_video_net(GRADCHECK_VIDEO_CONFIG, rng_seed=0),
    "video_full": lambda: build_video_net(VideoNetConfig(), rng_seed=0),
    "audio_tiny": lambda: build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0),
    "audio_gradcheck": lambda: build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=0),
    "audio_full": lambda: build_audio_net(AudioNetConfig(), rng_seed=0),
    "fusion": lambda: build_fusion_head(rng_seed=0),
}

PARAM_SHA256 = {
    "video_tiny": "f64d47370a91d9355e5c6228005a9d0ccabb1bd192a2ede84d462f82977e923d",
    "video_full": "e6615f990f89508798a8019c90c58e0d73f2184aaaa5f8a66c28b73fbc69fabc",
    "audio_tiny": "d9c13635f69a946e14f8aa7f46672b26bb42132fc2c5328c2db445333f15c974",
    "audio_full": "f7b75f9918d64e31f7b7e686c8c63ba887fe9e3415a5c342582db82b448fa252",
    "fusion": "1c9ee43002d68e0b14075b07cb8a1d895d1aa1654e55a46ecc59150a8653e359",
}

MODEL_TXT = {
    "video_tiny": "kind=video\ninput_shape=1x4x16x16\nstage_channels=8x16\n"
                  "blocks_per_stage=1\nnum_classes=2\n",
    "video_gradcheck": "kind=video\ninput_shape=1x2x5x5\nstage_channels=2x3\n"
                       "blocks_per_stage=1\nnum_classes=2\n",
    "audio_tiny": "kind=audio\ninput_shape=16x13x1\nconv_filters=16\nkernel=3x3\n"
                  "dropout_rate=0.5\ndense1_width=64\nnum_classes=2\n",
    "audio_gradcheck": "kind=audio\ninput_shape=16x13x1\nconv_filters=2\nkernel=3x3\n"
                       "dropout_rate=0.5\ndense1_width=8\nnum_classes=2\n",
    "fusion": "kind=fusion\n",
}

# float.hex() of each output component
FORWARD = {
    "video": ["0x1.0bc75435d4344p-1", "0x1.e871579457978p-2"],
    "audio": ["0x1.960eef7fa225cp-2", "0x1.c8ccd48b0968ap-1"],
    "fused": ["0x1.0442af14dc04ap-3", "0x1.beef543ac8feep-1"],
}


@pytest.mark.parametrize("name", sorted(PARAM_SHA256))
def test_seeded_param_sha256(name):
    assert model_io.param_sha256(BUILDERS[name]()) == PARAM_SHA256[name]


@pytest.mark.parametrize("name", sorted(MODEL_TXT))
def test_model_txt_bytes_and_roundtrip(name, tmp_path):
    net = BUILDERS[name]()
    model_io.save_net(tmp_path, net)
    assert (tmp_path / "model.txt").read_text() == MODEL_TXT[name]
    loaded = model_io.load_net(tmp_path)
    assert getattr(loaded, "config", None) == getattr(net, "config", None)
    assert loaded.param_bytes() == net.param_bytes()


def test_tiny_forward_outputs_bitwise():
    vnet, anet, fnet = (BUILDERS["video_tiny"](), BUILDERS["audio_tiny"](),
                        BUILDERS["fusion"]())
    clip = np.random.default_rng(0).random(TINY_VIDEO_CONFIG.input_shape)
    feats = np.random.default_rng(1).standard_normal(TINY_AUDIO_CONFIG.input_shape)
    got = {"video": video_forward(vnet, clip),
           "audio": audio_forward(anet, feats),
           "fused": fused_forward(vnet, anet, fnet, clip, feats)}
    for key, want in FORWARD.items():
        assert [float(v).hex() for v in got[key]] == want, key
