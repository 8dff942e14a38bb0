"""Format stability: seeded parameters, model.txt text and tiny forward outputs
are pinned to the values recorded before the residual-block namespace and the
config codec were refactored, so a change to either cannot move them; the tiny
forward outputs were re-pinned once since, from the code that lowers only the
kernel-width axis of a convolution, whose summation order moved one audio
output by 8 ulps, and the model.txt text once, when the net configs dropped the
values that can take only one: the audio ``input_shape`` became ``frames``, and
the audio kernel, dropout rate and class count and the video class count became
module constants.  Preprocessed video clips of seeded inputs are pinned to the
values recorded before the video resize became one call over all frames.  MFCC
features of seeded inputs are pinned to the values of the MFCC whose mel and
DCT stages add their terms in a fixed order; they hold at any BLAS thread
count.  Two seeded epochs of tiny training of each net (the video net, the
audio net with its dropout on, and the fusion head on the two trained nets'
outputs) are pinned, parameters and epoch losses, to the values recorded before
``Net`` took its input shape at construction; they hold at 1 and 2 BLAS
threads.  The video parameters were re-pinned once since, when the residual
shortcut became a 1x1 ``Conv2D`` over frames, whose weight gradient sums the
frames' products in batch order.  The paper-scale nets are left out: their forward and training bits
change with the BLAS thread count."""

import hashlib

import numpy as np
import pytest

from mdnn import data as dm
from mdnn import dsp, model_io, trainer
from mdnn.audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG, AudioNetConfig,
                            audio_forward, build_audio_net)
from mdnn.fusion import build_fusion_head, fused_forward
from mdnn.video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG, VideoNetConfig,
                            build_video_net, video_forward)

from conftest import param_sha256

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
                  "blocks_per_stage=1\n",
    "video_gradcheck": "kind=video\ninput_shape=1x2x5x5\nstage_channels=2x3\n"
                       "blocks_per_stage=1\n",
    "audio_tiny": "kind=audio\nframes=16\nconv_filters=16\ndense1_width=64\n",
    "audio_gradcheck": "kind=audio\nframes=16\nconv_filters=2\ndense1_width=8\n",
    "fusion": "kind=fusion\n",
}

# the tiny video model's params= line, its parameter names in payload order: a
# model saved before the residual shortcut became a Conv2D loads only if it holds
VIDEO_TINY_PARAMS = (
    "stem/ws,stem/bs,stem/wt,stem/bt,"
    "stage0_block0/c1.ws,stage0_block0/c1.bs,stage0_block0/c1.wt,stage0_block0/c1.bt,"
    "stage0_block0/c2.ws,stage0_block0/c2.bs,stage0_block0/c2.wt,stage0_block0/c2.bt,"
    "stage1_block0/c1.ws,stage1_block0/c1.bs,stage1_block0/c1.wt,stage1_block0/c1.bt,"
    "stage1_block0/c2.ws,stage1_block0/c2.bs,stage1_block0/c2.wt,stage1_block0/c2.bt,"
    "stage1_block0/proj.w,stage1_block0/proj.b,head/w,head/b")

# float.hex() of each output component
FORWARD = {
    "video": ["0x1.0bc75435d4344p-1", "0x1.e871579457978p-2"],
    "audio": ["0x1.960eef7fa2264p-2", "0x1.c8ccd48b0968ap-1"],
    "fused": ["0x1.0442af14dc04ap-3", "0x1.beef543ac8feep-1"],
}

# net -> (param_sha256 after two epochs, float.hex() of each epoch's train loss)
TRAINED = {
    "video": ("c11b5ee3ece624c4ce0278e3f0475b31bd48de2586dff785ef45a8aa18c49198",
              ["0x1.5d491646c02e4p-1", "0x1.5a0cfe9d107d6p-1"]),
    "audio": ("d9b0f9335a5308669d838d3f53f7411f4c0b967374a132b421ec24e43966d986",
              ["0x1.ff64382f6b92fp+0", "0x1.7b556c55f70d4p+0"]),
    "fusion": ("6ad5e56a30be4afbf936e43dc64a2a43398b8348531bc4a545806b0e488a03c1",
               ["0x1.b218a4ca26942p-1", "0x1.ab452d5d97206p-1"]),
}

# samples -> SHA-256 of the MFCC bytes of uniform(-1, 1) noise seeded by its length
MFCC_SHA256 = {
    1024: "cc582a77bd97dd62e921e4424d80aace0480b9ff47bc1666b017d3879f584ca3",
    5000: "f2cc1c2cc201feaee0e3ebe43cfe39cd55c605683a8fe0526b10eb1d944ba26a",
    60000: "d9d5f0294d532f370c72c81479d73da2058a3c73a828a5de696141c6cd609c41",
    199936: "4a59ef17f6e6a664ac81fbef5d095a8d4ecd3317bf13628997767863231f6460",
}

# (source shape, target shape) -> SHA-256 of preprocess_video on uniform(-0.25,
# 1.25) frames seeded by the sum of the source shape; the range exercises the clamp
VIDEO_SHA256 = {
    ((1, 16, 32, 32), (1, 4, 16, 16)):
        "a160ba3e1e23bf8d0e23beff316f7a273ff5332d7d6161b60eec96202ffa19b3",
    ((3, 20, 120, 97), (3, 16, 112, 112)):
        "c4a51bf59c15e2d611c28acffa72219d32f7ab2556b395aaecc5d189aa0c4f1c",
    ((1, 3, 8, 48), (1, 4, 16, 16)):
        "1d4d19a08a99ab83a43466774bda88d878d41be852e465a00a4fa8633bf544f3",
    ((2, 1, 1, 5), (2, 3, 1, 7)):
        "3416779108e358eabdc3e87d029c783f26193af07785f9648eee566df8301f71",
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PARAM_SHA256))
def test_seeded_param_sha256(name):
    assert param_sha256(BUILDERS[name]()) == PARAM_SHA256[name]


@pytest.mark.parametrize("name", sorted(MODEL_TXT))
def test_model_txt_bytes_and_roundtrip(name, tmp_path):
    net = BUILDERS[name]()
    digest = model_io.save_net(tmp_path, net)
    assert digest == hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
    assert (tmp_path / "model.txt").read_text() == MODEL_TXT[name] + (
        f"params={','.join(net.params)}\nparams_sha256={param_sha256(net)}\n")
    loaded = model_io.load_net(tmp_path)
    assert loaded.config == net.config
    assert loaded.param_bytes() == net.param_bytes()


def test_video_tiny_params_line(tmp_path):
    model_io.save_net(tmp_path, BUILDERS["video_tiny"]())
    assert f"params={VIDEO_TINY_PARAMS}" in (tmp_path / "model.txt").read_text().splitlines()


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


@pytest.mark.parametrize("n", sorted(MFCC_SHA256))
def test_mfcc_bitwise(n):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    out = dsp.mfcc(dsp.AudioClip(samples=x))
    assert out.shape == ((n - 1024) // 256 + 1, 13, 1)
    assert _sha256(out) == MFCC_SHA256[n]


@pytest.mark.parametrize("src, dst", sorted(VIDEO_SHA256))
def test_preprocess_video_bitwise(src, dst):
    x = np.random.default_rng(sum(src)).uniform(-0.25, 1.25, src)
    out = dm.preprocess_video(x, dst)
    assert out.shape == dst
    assert _sha256(out) == VIDEO_SHA256[(src, dst)]


def test_seeded_tiny_training_bitwise(tmp_path):
    rows = dm.read_manifest(dm.synth_dataset(5, "separable", 21, tmp_path))
    train_rows, val_rows, _ = [[rows[i] for i in part]
                               for part in trainer.split_dataset(len(rows))]
    cfg = trainer.TrainConfig(epochs=2, batch_size=4, rng_seed=3)
    vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=3)
    anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=3)
    fnet = build_fusion_head(rng_seed=3)
    runs = {
        "video": (vnet, lambda part: trainer.video_features(part, TINY_VIDEO_CONFIG)),
        "audio": (anet, lambda part: trainer.audio_features(part, TINY_AUDIO_CONFIG)),
        "fusion": (fnet, lambda part: trainer.fusion_features(part, vnet, anet)),
    }
    got = {}
    for name, (net, features) in runs.items():  # in training order
        sets = [trainer.paired(features(part), part) for part in (train_rows, val_rows)]
        logs = trainer.train_net(net, *sets, cfg)
        got[name] = (param_sha256(net), [log.train_loss.hex() for log in logs])
    assert got == TRAINED
