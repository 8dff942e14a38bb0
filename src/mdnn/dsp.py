"""MFCC front-end: WAV ingestion, STFT, Mel filterbank, log, DCT-II.

Fixed conventions (golden values depend on them); the geometry is module
constants, not parameters, and the Hann window, the mel bank and the DCT
matrix are built once at import:
  - 16 kHz mono PCM s16le input only; a chunk that claims more bytes than the
    file holds is rejected;
  - 1024-sample (64 ms) periodic Hann windows, hop 256 (75% overlap), framed
    as a strided view of the clip;
  - real FFT (``np.fft.rfft``), one-sided 513 bins; a direct O(N^2) DFT stays
    in the module as the comparison oracle;
  - 80 triangular HTK-mel filters from 0 to 8000 Hz, peak-normalized to 1;
  - log floor 1e-10, orthonormal DCT-II, first 13 coefficients kept;
  - the mel and DCT stages are sums in a fixed order, not matrix products, so
    a frame's MFCC bytes depend on neither the frames computed with it nor
    the BLAS thread count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, FormatError, InputError, UnsupportedFormatError

SAMPLE_RATE = 16000
WINDOW_LEN = 1024
HOP = 256
FFT_LEN = 1024
N_BINS = FFT_LEN // 2 + 1
N_MEL_FILTERS = 80
N_MFCC = 13
F_MIN = 0.0
F_MAX = 8000.0
LOG_FLOOR = 1e-10
REFERENCE_CLIP_SAMPLES = 199936  # (778 - 1) * 256 + 1024
REFERENCE_FRAMES = 778


@dataclass(frozen=True)
class AudioClip:
    samples: np.ndarray  # float64 in [-1, 1], at SAMPLE_RATE


def load_wav(path) -> AudioClip:
    """Parse a RIFF/WAVE file (PCM 16-bit LE, mono, 16 kHz only); errors name ``path``."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise UnsupportedFormatError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        if pos + 8 + size > len(blob):
            raise FormatError(f"{path}: truncated WAV: chunk {cid!r} claims {size} bytes, "
                              f"{len(blob) - pos - 8} remain")
        body = blob[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or len(fmt) < 16:
        raise UnsupportedFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise UnsupportedFormatError(f"{path}: missing data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format != 1 or bits != 16:
        raise UnsupportedFormatError(
            f"{path}: codec: expected PCM 16-bit, got format={audio_format}, bits={bits}")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: channel count: expected mono, got {channels}")
    if rate != SAMPLE_RATE:
        raise UnsupportedFormatError(f"{path}: sample rate: expected {SAMPLE_RATE}, got {rate}")
    ints = np.frombuffer(data[:len(data) // 2 * 2], dtype="<i2")
    return AudioClip(samples=np.divide(ints, 32768.0, dtype=np.float64))  # one pass


def write_wav(path, clip: AudioClip):
    """Write PCM s16le mono; inverse of load_wav up to quantization."""
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    data = ints.tobytes()
    with open(path, "wb") as f:
        f.write(b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE")
        f.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16))
        f.write(b"data" + struct.pack("<I", len(data)) + data)


def hann_window() -> np.ndarray:
    # periodic variant: w[k] = 0.5 * (1 - cos(2 pi k / n)), n = 1024
    k = np.arange(WINDOW_LEN)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / WINDOW_LEN))


def frame_and_window(clip: AudioClip, frames=slice(None)) -> np.ndarray:
    """Slice into hopped frames and apply the Hann window -> (n_frames, 1024);
    (n - 1024) // 256 + 1 frames for n samples, or only the ``frames`` (a slice
    or an index array) selected from the strided frame view before the window."""
    x = np.asarray(clip.samples, dtype=np.float64)
    if x.size < WINDOW_LEN:
        raise InputError(f"clip of {x.size} samples shorter than one {WINDOW_LEN}-sample window")
    return sliding_window_view(x, WINDOW_LEN)[::HOP][frames] * _HANN


def fft_1024(frame: np.ndarray) -> np.ndarray:
    """One-sided spectrum, bins 0..512, of a length-1024 real frame (or batch)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape[-1] != FFT_LEN:
        raise DimensionError(f"expected length {FFT_LEN} frames, got {frame.shape[-1]}")
    return np.fft.rfft(frame)


def dft_direct(frame: np.ndarray) -> np.ndarray:
    """O(N^2) one-sided DFT; oracle for fft_1024."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.shape[-1]
    k = np.arange(N_BINS)[:, None]
    t = np.arange(n)[None, :]
    basis = np.exp(-2j * np.pi * k * t / n)
    return frame @ basis.T


def power_spectrogram(frames: np.ndarray) -> np.ndarray:
    """|STFT|^2 per windowed frame -> (n_frames, 513)."""
    spec = fft_1024(np.atleast_2d(frames))
    return (spec.real ** 2 + spec.imag ** 2)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def build_mel_bank() -> np.ndarray:
    """The (80, 513) matrix of 80 triangular filters, mel-equidistant edges on
    [0, 8000] Hz, peak 1."""
    edges = mel_to_hz(np.linspace(hz_to_mel(F_MIN), hz_to_mel(F_MAX), N_MEL_FILTERS + 2))
    bin_hz = np.arange(N_BINS) * (SAMPLE_RATE / FFT_LEN)
    bank = np.zeros((N_MEL_FILTERS, N_BINS))
    for i in range(N_MEL_FILTERS):
        lo, mid, hi = edges[i], edges[i + 1], edges[i + 2]
        up = (bin_hz - lo) / (mid - lo)
        down = (hi - bin_hz) / (hi - mid)
        bank[i] = np.clip(np.minimum(up, down), 0.0, None)
    return bank


def dct2_matrix(n: int = N_MEL_FILTERS) -> np.ndarray:
    """Orthonormal DCT-II matrix D with y = D @ x."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    d[0] *= np.sqrt(1.0 / n)
    d[1:] *= np.sqrt(2.0 / n)
    return d


def _mel_terms(bank: np.ndarray):
    """The mel bank as terms to add in a fixed order.  A band's nonzero
    weights sit on contiguous bins; term k of band b is the bin first[b] + k.
    For each ``(band0, start, stop)`` in ``order``, ``bins[start:stop]`` and
    ``weights[start:stop]`` hold term k of the bands from band0, the first band
    more than k bins wide, to the last.  Bands widen with frequency, so these
    are nearly all the bands that have a term k; the few others get weight 0,
    which adds +0.0 to a non-negative sum and changes no bit."""
    nonzero = bank > 0
    first, width = nonzero.argmax(axis=1), nonzero.sum(axis=1)
    bands = [np.arange(np.argmax(width > k), N_MEL_FILTERS) for k in range(width.max())]
    bins = np.concatenate([first[b] + k for k, b in enumerate(bands)])
    stops = np.cumsum([b.size for b in bands])
    order = [(int(b[0]), int(stop - b.size), int(stop)) for b, stop in zip(bands, stops)]
    return bins, bank[np.concatenate(bands), bins][:, None], order


_HANN = hann_window()
_MEL_BINS, _MEL_WEIGHTS, _MEL_ORDER = _mel_terms(build_mel_bank())
_DCT80 = dct2_matrix(N_MEL_FILTERS)


def dct2_ortho(x: np.ndarray, n_out: int = N_MEL_FILTERS) -> np.ndarray:
    """The first ``n_out`` coefficients of the orthonormal DCT-II of a
    length-80 vector (or batch over the last axis).  Each coefficient adds its
    80 terms in ascending order, so its bits do not depend on the batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != N_MEL_FILTERS:
        raise DimensionError(f"expected length {N_MEL_FILTERS}, got {x.shape[-1]}")
    x = np.moveaxis(x, -1, 0)  # (80, ...)
    columns = _DCT80[:n_out].T.reshape((N_MEL_FILTERS, n_out) + (1,) * (x.ndim - 1))
    y = np.zeros((n_out,) + x.shape[1:])
    term = np.empty_like(y)
    for m in range(N_MEL_FILTERS):
        y += np.multiply(columns[m], x[m], out=term)
    return np.moveaxis(y, 0, -1)


def mfcc(clip: AudioClip, frames=slice(None)) -> np.ndarray:
    """Full pipeline -> (n_frames, 13, 1); (778, 13, 1) at the reference length.
    Every stage runs on the ``frames`` selected as in ``frame_and_window``
    alone.  The mel and DCT stages add their terms in a fixed order, so each
    selected frame equals its all-frames row bit for bit, at any BLAS thread
    count.  The result owns its values."""
    power = power_spectrogram(frame_and_window(clip, frames))
    terms = power.T[_MEL_BINS]  # (terms, n_frames)
    terms *= _MEL_WEIGHTS
    mel = np.zeros((N_MEL_FILTERS, power.shape[0]))
    for band0, start, stop in _MEL_ORDER:
        mel[band0:] += terms[start:stop]
    logmel = np.log(mel + LOG_FLOOR)
    return dct2_ortho(logmel.T, N_MFCC)[:, :, None].copy()
