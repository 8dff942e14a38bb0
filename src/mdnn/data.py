"""On-disk formats, fixed-shape preprocessing, and synthetic dataset generation.

Tensor container layout (little-endian, bit-exact round trip):
  magic "MDNN" | version u8 = 1 | dtype u8 = 1 (f64) | rank u8 |
  dims u32 x rank | payload f64 x prod(dims), row-major.

Manifests are CSV files with header ``video,audio,label``; label 1 is the
positive class.  Real clinical recordings are out of scope; the ``synth_*``
generators produce deterministic stand-in datasets with known structure.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import SAMPLE_RATE, AudioClip
from .errors import ConfigError, DimensionError, DomainError, FormatError, InputError

MAGIC = b"MDNN"
VERSION = 1
DTYPE_F64 = 1


def write_container(path, t: np.ndarray):
    t = np.asarray(t, dtype=np.float64)  # 0-d stays rank 0; tobytes is C-order
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBB", VERSION, DTYPE_F64, t.ndim))
        f.write(struct.pack(f"<{t.ndim}I", *t.shape))
        f.write(t.astype("<f8").tobytes())


def read_container(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 7 or blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, dtype, rank = struct.unpack_from("<BBB", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dtype != DTYPE_F64:
        raise FormatError(f"{path}: unsupported dtype code {dtype}")
    header_end = 7 + 4 * rank
    if len(blob) < header_end:
        raise FormatError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 7) if rank else ()
    count = math.prod(dims)  # a Python int: no wrap-around for huge dims
    payload = blob[header_end:]
    if len(payload) != 8 * count:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, expected {8 * count}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def preprocess_audio(clip: AudioClip) -> AudioClip:
    """Truncate or zero-pad at the end to exactly the reference clip length."""
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty audio clip")
    n = dsp.REFERENCE_CLIP_SAMPLES
    if x.size >= n:
        out = x[:n].copy()
    else:
        out = np.concatenate([x, np.zeros(n - x.size)])
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


def uniform_indices(n_source: int, n_target: int) -> np.ndarray:
    """round(k * (n_source - 1) / (n_target - 1)) for k in 0..n_target-1."""
    if n_target == 1 or n_source == 1:
        return np.zeros(n_target, dtype=np.int64)
    pos = np.arange(n_target) * (n_source - 1) / (n_target - 1)
    return np.floor(pos + 0.5).astype(np.int64)


def _resize_bilinear_2d(img: np.ndarray, h: int, w: int) -> np.ndarray:
    """Bilinear resize of the last two axes with endpoint-aligned sampling
    (identity at same size)."""
    def axis(n0, n):  # lower index, upper index and upper weight per output
        pos = np.zeros(n) if n == 1 or n0 == 1 else np.arange(n) * (n0 - 1) / (n - 1)
        lo = np.clip(np.floor(pos).astype(np.int64), 0, n0 - 1)
        return lo, np.minimum(lo + 1, n0 - 1), pos - lo

    y0, y1, fy = (a[:, None] for a in axis(img.shape[-2], h))
    x0, x1, fx = axis(img.shape[-1], w)
    top = img[..., y0, x0] * (1 - fx) + img[..., y0, x1] * fx
    bot = img[..., y1, x0] * (1 - fx) + img[..., y1, x1] * fx
    return top * (1 - fy) + bot * fy


def preprocess_video(frames: np.ndarray, target: tuple[int, int, int, int]) -> np.ndarray:
    """Finite check + uniform temporal sampling + bilinear resize + clamp to [0, 1]."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4:
        raise DimensionError(f"expected C x T x H x W, got shape {frames.shape}")
    c, t, h, w = target
    if frames.shape[0] != c:
        raise DimensionError(f"channel mismatch: input {frames.shape[0]}, target {c}")
    if frames.shape[1] < 1:
        raise InputError("video must contain at least one frame")
    if not np.isfinite(frames).all():
        raise DomainError("video contains non-finite values")
    picked = frames[:, uniform_indices(frames.shape[1], t)]
    return np.clip(_resize_bilinear_2d(picked, h, w), 0.0, 1.0)


def video_input(path, shape: tuple[int, int, int, int]) -> np.ndarray:
    """A tensor container file as a video network input of ``shape``; a file
    whose rank or channel count does not fit is a FormatError naming it."""
    frames = read_container(path)
    try:
        return preprocess_video(frames, shape)
    except DimensionError as e:
        raise FormatError(f"{path}: {e}") from e


def audio_input(path, n_frames: int) -> np.ndarray:
    """A WAV file as an (n_frames, 13, 1) audio network input: the clip cut or
    padded to the reference length, its MFCC, then uniformly subsampled frames."""
    feats = dsp.mfcc(preprocess_audio(dsp.load_wav(path)))
    return feats[uniform_indices(feats.shape[0], n_frames)]


@dataclass(frozen=True)
class ManifestRow:
    video_path: str
    audio_path: str
    label: int


def write_manifest(path, rows: list[ManifestRow]):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["video", "audio", "label"])
        for r in rows:
            writer.writerow([r.video_path, r.audio_path, r.label])


def read_text(path) -> str:
    """The contents of the UTF-8 text file ``path``, newlines untranslated;
    FormatError naming the file if it is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text (byte {e.start})") from None


def read_manifest(path) -> list[ManifestRow]:
    rows = []
    reader = csv.DictReader(io.StringIO(read_text(path), newline=""))
    if reader.fieldnames != ["video", "audio", "label"]:
        raise FormatError(f"{path}: manifest header must be video,audio,label")
    for rec in reader:
        if not rec["video"] or not rec["audio"]:
            raise FormatError(f"{path}: empty path in manifest")
        try:
            label = int(rec["label"])
        except (TypeError, ValueError):  # missing or non-numeric
            label = None
        if label not in (0, 1):
            raise FormatError(f"{path}: label must be 0 or 1, got {rec['label']!r}")
        rows.append(ManifestRow(rec["video"], rec["audio"], label))
    if not rows:
        raise FormatError(f"{path}: empty manifest")
    return rows


# ----- synthetic data ---------------------------------------------------------

SYNTH_VIDEO_SHAPE = (1, 16, 32, 32)  # C x T x H x W before preprocessing
TONE_HZ = {0: 440.0, 1: 880.0}


def _blob_frame(h, w, cy, cx, sigma=3.0):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma ** 2))


def _synth_audio(label: int, rng: np.random.Generator,
                 corruption: np.ndarray | None) -> AudioClip:
    n = dsp.REFERENCE_CLIP_SAMPLES
    if corruption is not None:
        x = corruption
    else:
        t = np.arange(n) / SAMPLE_RATE
        x = 0.5 * np.sin(2.0 * np.pi * TONE_HZ[label] * t) + rng.normal(0.0, 0.05, n)
    return AudioClip(samples=np.clip(x, -1.0, 1.0))


def _synth_video(label: int, rng: np.random.Generator,
                 corruption: np.ndarray | None) -> np.ndarray:
    c, t, h, w = SYNTH_VIDEO_SHAPE
    out = np.empty((c, t, h, w))
    if corruption is not None:
        out[0] = corruption
        return out
    cy = 8.0 + 16.0 * rng.random()
    cx0 = 6.0 + 4.0 * rng.random()
    for ti in range(t):
        # class 0: static blob; class 1: blob sweeping left to right
        cx = cx0 + (20.0 * ti / (t - 1) if label == 1 else 0.0)
        out[0, ti] = _blob_frame(h, w, cy, cx) + 0.02 * rng.random((h, w))
    return np.clip(out, 0.0, 1.0)


def synth_dataset(n_per_class: int, kind: str, seed: int, out_dir) -> Path:
    """Generate a balanced two-class dataset; returns the manifest path.

    ``separable``: both modalities carry the class on every sample.
    ``complementary``: exactly one modality per sample is replaced by heavy
    noise (alternating, balanced within each class), so either modality alone
    is insufficient but the pair always contains the class signal.  The noise
    pattern is drawn once per dataset and shared by every corrupted sample:
    since identical inputs then carry balanced labels, no classifier can do
    better than chance on the corrupted modality, by construction.
    """
    if kind not in ("separable", "complementary"):
        raise ConfigError(f"unknown synth kind {kind!r}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    audio_noise = np.clip(rng.normal(0.0, 0.3, dsp.REFERENCE_CLIP_SAMPLES), -1.0, 1.0)
    video_noise = rng.random(SYNTH_VIDEO_SHAPE[1:])
    rows = []
    for label in (0, 1):
        for i in range(n_per_class):
            corrupt_audio = corrupt_video = False
            if kind == "complementary":
                corrupt_audio = (i % 2 == 0)
                corrupt_video = not corrupt_audio
            clip = _synth_audio(label, rng, audio_noise if corrupt_audio else None)
            vid = _synth_video(label, rng, video_noise if corrupt_video else None)
            apath = out_dir / f"c{label}_{i:03d}.wav"
            vpath = out_dir / f"c{label}_{i:03d}.ntc"
            dsp.write_wav(apath, clip)
            write_container(vpath, vid)
            rows.append(ManifestRow(str(vpath), str(apath), label))
    manifest = out_dir / "manifest.csv"
    write_manifest(manifest, rows)
    return manifest
