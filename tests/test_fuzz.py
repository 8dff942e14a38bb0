"""Fuzz tests for every parser: random bytes and mutations of valid files.

Each parser may end only in a typed ``MdnnError`` (or an ``OSError`` for a
missing file), and the CLI command that reads the file must return one of
its documented exit codes: 0 success, 1 usage, 2 data/format, 3 numeric.
A traceback would escape ``cli.run`` and fail the test.  Examples are
derandomized, so every run tries the same inputs.

Text files are mutated line by line and byte by byte.  A model file's bytes
are replaced only with non-digits and its lines are never joined, so no
number in it grows: a mutation cannot ask for a larger model than the one it
started from.  A mutated ``params.ntc`` can claim any dims, but a container
is refused unless its payload is as long as they say, before any array of
that size is made.
"""

import dataclasses
import math
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdnn import data as dm
from mdnn import dsp, model_io
from mdnn.audio_net import TINY_AUDIO_CONFIG, build_audio_net
from mdnn.cli import _read_config_file, run
from mdnn.errors import ConfigError, FormatError, MdnnError
from mdnn.fusion import build_fusion_head
from mdnn.trainer import TrainConfig
from mdnn.video_net import TINY_VIDEO_CONFIG, build_video_net

FUZZ = settings(deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A bundle of untrained tiny nets, one valid clip and WAV, a manifest of
    three rows, and a scratch directory for each example's file."""
    root = tmp_path_factory.mktemp("fuzz")
    model_io.save_bundle(root / "bundle", build_video_net(TINY_VIDEO_CONFIG, rng_seed=0),
                         build_audio_net(TINY_AUDIO_CONFIG, rng_seed=0),
                         build_fusion_head(rng_seed=0))
    rng = np.random.default_rng(0)
    dm.write_container(root / "clip.ntc", rng.random((1, 5, 12, 12)))
    dsp.write_wav(root / "tone.wav", dsp.AudioClip(np.sin(np.arange(3000) / 7.0) / 2))
    dm.write_manifest(root / "manifest.csv", [
        dm.ManifestRow(str(root / "clip.ntc"), str(root / "tone.wav"), i % 2)
        for i in range(3)])
    (root / "work").mkdir()
    return root


def expect_typed(fn, *args):
    """``fn(*args)``'s value, or None if it raised an MdnnError or OSError."""
    try:
        return fn(*args)
    except (MdnnError, OSError):
        return None


# ----- tensor containers and the video input -----------------------------------

def container_bytes(rank, dims, payload):
    return dm.MAGIC + struct.pack(f"<BBB{rank}I", 1, 1, rank, *dims) + payload


raw_containers = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: dm.MAGIC + b),
    st.binary(max_size=64).map(lambda b: dm.MAGIC + b"\x01\x01" + b),
)


@st.composite
def shaped_containers(draw):
    """Well-formed headers with any small dims, zeros included, or a huge
    one; a payload that fits the dims or falls a few bytes short."""
    dims = draw(st.lists(st.one_of(st.integers(0, 6), st.just(2 ** 32 - 1)), max_size=5))
    count = math.prod(dims)
    if count > 256:
        return container_bytes(len(dims), dims, draw(st.binary(max_size=64)))
    values = draw(st.lists(st.floats(), min_size=count, max_size=count))
    payload = np.asarray(values, dtype="<f8").tobytes()
    return container_bytes(len(dims), dims, payload[:max(0, len(payload) - draw(
        st.sampled_from([0, 0, 1, 8])))])


def check_container(files, blob, predict):
    path = files / "work" / "t.ntc"
    path.write_bytes(blob)
    clip = expect_typed(dm.video_input, path, TINY_VIDEO_CONFIG.input_shape)
    if clip is not None:
        assert clip.shape == TINY_VIDEO_CONFIG.input_shape
        assert np.all((clip >= 0.0) & (clip <= 1.0))
    assert run(["inspect", "--in", str(path)]) in (0, 2)
    if predict:
        # 3 is the documented code for a clip with NaN or inf values
        code = run(["predict", "--model-dir", str(files / "bundle"), "--video", str(path),
                    "--audio", str(files / "tone.wav")])
        assert (code == 0) if clip is not None else (code in (2, 3))


@FUZZ
@given(blob=raw_containers)
def test_random_container_bytes(files, blob):
    check_container(files, blob, predict=False)


@settings(FUZZ, max_examples=40)
@given(blob=shaped_containers())
def test_containers_with_any_dims(files, blob):
    check_container(files, blob, predict=True)


# ----- WAV files and the audio input --------------------------------------------

@st.composite
def binary_mutations(draw, blob, header):
    """``blob`` after 1-3 edits, half of them inside its first ``header``
    bytes: replace one byte, write a u32, insert bytes, or truncate."""
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.one_of(st.integers(0, header - 1), st.integers(0, len(blob))))
        kind = draw(st.sampled_from(["byte", "u32", "insert", "truncate"]))
        if kind == "byte":
            blob = blob[:pos] + bytes([draw(st.integers(0, 255))]) + blob[pos + 1:]
        elif kind == "u32":
            blob = blob[:pos] + struct.pack("<I", draw(st.sampled_from(
                [0, 1, 2, 15, 16, 17, 44, 0x7FFFFFFF, 0xFFFFFFFF]))) + blob[pos + 4:]
        elif kind == "insert":
            blob = blob[:pos] + draw(st.binary(min_size=1, max_size=8)) + blob[pos:]
        else:
            blob = blob[:pos]
    return blob


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_mutated_wav(files, data):
    path = files / "work" / "a.wav"
    path.write_bytes(data.draw(binary_mutations((files / "tone.wav").read_bytes(), 44)))
    feats = expect_typed(dm.audio_input, path, TINY_AUDIO_CONFIG.input_shape[0])
    if feats is not None:
        assert feats.shape == TINY_AUDIO_CONFIG.input_shape
        assert np.all(np.isfinite(feats))
    code = run(["extract", "--in", str(path), "--out", str(files / "work" / "a.ntc")])
    assert code == (0 if feats is not None else 2)


# ----- text files: manifests, config files, model directories and bundles ------

@st.composite
def line_mutations(draw, blob, alphabet, extra_lines):
    """``blob`` after 1-3 edits: a byte replaced by one of ``alphabet``, a
    line deleted, duplicated, swapped or inserted from ``extra_lines``, or a
    truncation at a line end."""
    for _ in range(draw(st.integers(1, 3))):
        lines = blob.split(b"\n")
        kind = draw(st.sampled_from(["byte", "delete", "duplicate", "swap", "insert",
                                     "truncate"]))
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        if kind == "byte" and blob:
            pos = draw(st.integers(0, len(blob) - 1))
            blob = blob[:pos] + bytes([draw(st.sampled_from(alphabet))]) + blob[pos + 1:]
            continue
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "insert":
            lines.insert(i, draw(st.sampled_from(extra_lines)))
        else:
            lines = lines[:i]
        blob = b"\n".join(lines)
    return blob


MANIFEST = b"video,audio,label\n" + b"".join(
    b"%s.ntc,%s.wav,%d\n" % (name, name, i % 2) for i, name in enumerate([b"a", b"b", b"c", b"d"]))
manifest_texts = st.one_of(st.binary(max_size=40), line_mutations(
    MANIFEST, b'\0,"\r\n =.01x\xff',
    [b"e.ntc,e.wav,1", b"e.ntc,e.wav", b"e.ntc,,0", b",e.wav,1", b"video,audio,label", b""]))


@FUZZ
@given(text=manifest_texts)
@example(text=MANIFEST.replace(b"b.wav", b"b\0.wav"))  # once a ValueError traceback
def test_manifest(files, text):
    path = files / "work" / "m.csv"
    path.write_bytes(text)
    rows = expect_typed(dm.read_manifest, path)
    if rows is not None:
        assert rows and all(r.label in (0, 1) for r in rows)
        for r in rows:  # every path names a file that can exist
            expect_typed(Path(r.video_path).stat)
            expect_typed(Path(r.audio_path).stat)
    # eval reads the manifest, splits it (3 rows at least, else a format
    # error), then loads the model and reads the rows' files
    code = run(["eval", "--model-dir", str(files / "bundle" / "audio"),
                "--data", str(path)])
    assert code == 2


CONFIG = b"epochs=2\nbatch_size=4\nlearning_rate=0.01\nregularization=L2\nreg_lambda=1e-3\n"
config_lines = [b"%s=%s" % (key.encode(), value) for key in
                [f.name for f in dataclasses.fields(TrainConfig)] + ["seed"]
                for value in [b"0", b"-1", b"0.5", b"nan", b"-inf", b"1e999", b"L1", b"",
                              b"1_000", b"0x10", b"9" * 30]] + [b"# note", b"epochs"]
config_texts = st.one_of(st.binary(max_size=40),
                         line_mutations(CONFIG, b"=#\n -.0189eLx\xff", config_lines))


@FUZZ
@given(text=config_texts)
def test_config_file(files, text):
    path = files / "work" / "train.cfg"
    path.write_bytes(text)
    try:
        TrainConfig(**_read_config_file(path))
        expected = 2  # a valid config, then a manifest that does not exist
    except FormatError:
        expected = 2
    except ConfigError:
        expected = 1
    code = run(["train", "--model", "audio", "--tiny", "--config", str(path),
                "--data", str(files / "work" / "missing.csv"),
                "--out", str(files / "work" / "out")])
    assert code == expected
    assert not (files / "work" / "out").exists()


# model files are mutated with non-digits only, so no number in them grows
NON_DIGITS = b" =x#\n-a._\xff"
EXTRA_LINES = [b"kind=video", b"kind=fusion", b"extra=1", b"dense1_width=8",
               b"stage_channels=4x8", b"input_shape=1x4x16", b"dense1__w", b"#",
               b"params=dense1/w", b"params_sha256=", b"params_sha256=00"]


def mutated_copy(files, part, name, data):
    """The bundle copied into the work directory, with ``part/name`` mutated:
    a container byte by byte (its header is 11 bytes), a text file line by
    line."""
    work = files / "work" / "bundle"
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(files / "bundle", work)
    target = work / part / name
    blob = target.read_bytes()
    target.write_bytes(data.draw(binary_mutations(blob, 11) if name.endswith(".ntc")
                                 else line_mutations(blob, NON_DIGITS, EXTRA_LINES)))
    return work


@settings(FUZZ, max_examples=75)
@given(name=st.sampled_from(["model.txt", "params.ntc"]), data=st.data())
def test_mutated_model_directory(files, name, data):
    model = mutated_copy(files, "audio", name, data) / "audio"
    net = expect_typed(model_io.load_net, model)
    code = run(["eval", "--model-dir", str(model), "--data", str(files / "manifest.csv")])
    assert code == (0 if net is not None else 2)


@settings(FUZZ, max_examples=75)
@given(where=st.sampled_from([(".", "bundle.txt"), ("video", "model.txt"),
                              ("fusion", "model.txt"), ("audio", "params.ntc")]),
       data=st.data())
def test_mutated_bundle(files, where, data):
    bundle = mutated_copy(files, *where, data)
    nets = expect_typed(model_io.load_bundle, bundle)
    code = run(["predict", "--model-dir", str(bundle), "--video", str(files / "clip.ntc"),
                "--audio", str(files / "tone.wav")])
    assert code == (0 if nets is not None else 2)
