"""Session-scoped fixtures: synthetic datasets, cached features, trained models.

The training runs are shared between the module tests and the acceptance
suite so the expensive work happens once per session.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdnn
from mdnn import data as dm
from mdnn import trainer
from mdnn.audio_net import TINY_AUDIO_CONFIG, build_audio_net
from mdnn.fusion import build_fusion_head
from mdnn.trainer import SplitSpec, TrainConfig
from mdnn.video_net import TINY_VIDEO_CONFIG, build_video_net

DATA_SEED = 123
SEP_SPLIT_SEED = 0
COMP_SPLIT_SEED = 1
N_PER_CLASS = 64


@pytest.fixture(scope="session")
def sep_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("separable")
    return dm.read_manifest(dm.synth_dataset(N_PER_CLASS, "separable", DATA_SEED, out))


@pytest.fixture(scope="session")
def comp_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("complementary")
    return dm.read_manifest(dm.synth_dataset(N_PER_CLASS, "complementary", DATA_SEED, out))


@pytest.fixture(scope="session")
def sep_audio_feats(sep_rows):
    return trainer.audio_features(sep_rows, TINY_AUDIO_CONFIG)


@pytest.fixture(scope="session")
def comp_audio_feats(comp_rows):
    return trainer.audio_features(comp_rows, TINY_AUDIO_CONFIG)


@pytest.fixture(scope="session")
def comp_video_feats(comp_rows):
    return trainer.video_features(comp_rows, TINY_VIDEO_CONFIG)


def param_sha256(net) -> str:
    """SHA-256 of ``net.param_bytes()``, the payload of its ``params.ntc``."""
    return hashlib.sha256(net.param_bytes()).hexdigest()


def python_run(*args: str) -> subprocess.CompletedProcess:
    """``python *args``, its output captured as text, in a new process that
    imports this checkout's ``mdnn`` under Python's default warning filters."""
    src = str(Path(mdnn.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def python_stdout(code: str) -> str:
    """Stdout of ``code`` run in a new Python process that imports this
    checkout's ``mdnn``, so that its ``ru_maxrss`` starts fresh."""
    done = python_run("-c", code)
    done.check_returncode()
    return done.stdout


def make_splits(feats, rows, split_seed):
    tr, va, te = trainer.split_dataset(len(rows), SplitSpec(seed=split_seed))
    pairs = trainer.paired(feats, rows)
    return ([pairs[i] for i in tr], [pairs[i] for i in va], [pairs[i] for i in te])


def train_audio(train_set, val_set, **cfg_kwargs):
    net = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0)
    logs = trainer.train_net(net, train_set, val_set, TrainConfig(rng_seed=0, **cfg_kwargs))
    return net, logs


@pytest.fixture(scope="session")
def sep_audio_sets(sep_audio_feats, sep_rows):
    return make_splits(sep_audio_feats, sep_rows, SEP_SPLIT_SEED)


@pytest.fixture(scope="session")
def sep_audio_trained(sep_audio_sets):
    train_set, val_set, _ = sep_audio_sets
    net, logs = train_audio(train_set, val_set)
    return {"net": net, "logs": logs}


@pytest.fixture(scope="session")
def comp_trained(comp_rows, comp_audio_feats, comp_video_feats):
    """Unimodal nets + fusion head trained on the complementary set."""
    a_tr, a_va, a_te = make_splits(comp_audio_feats, comp_rows, COMP_SPLIT_SEED)
    v_tr, v_va, v_te = make_splits(comp_video_feats, comp_rows, COMP_SPLIT_SEED)
    cfg = TrainConfig(rng_seed=0)

    anet, _ = train_audio(a_tr, a_va)
    vnet = build_video_net(TINY_VIDEO_CONFIG, rng_seed=0)
    trainer.train_net(vnet, v_tr, v_va, cfg)

    ffeats = trainer.fusion_features(comp_rows, vnet, anet,
                                     vfeats=comp_video_feats, afeats=comp_audio_feats)
    f_tr, f_va, f_te = make_splits(ffeats, comp_rows, COMP_SPLIT_SEED)
    fnet = build_fusion_head(rng_seed=0)
    trainer.train_net(fnet, f_tr, f_va, cfg)

    return {
        "audio_net": anet, "video_net": vnet, "fusion_net": fnet,
        "audio_test_acc": trainer.evaluate(anet.run, a_te).accuracy,
        "video_test_acc": trainer.evaluate(vnet.forward, v_te).accuracy,
        "fused_test_acc": trainer.evaluate(fnet.forward, f_te).accuracy,
    }
