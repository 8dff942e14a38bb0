"""MFCC front-end tests against hand-built fixtures and the direct DFT oracle."""

import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdnn import dsp
from mdnn.data import uniform_indices
from mdnn.errors import DimensionError, FormatError, InputError, UnsupportedFormatError


def build_wav(samples, rate=16000, channels=1, bits=16, audio_format=1):
    data = b"".join(struct.pack("<h", s) for s in samples)
    body = b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, rate,
                                 rate * channels * bits // 8,
                                 channels * bits // 8, bits)
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestLoadWav:
    def test_hand_built_values(self, tmp_path):
        p = tmp_path / "a.wav"
        p.write_bytes(build_wav([0, 16384, -16384, 32767]))
        clip = dsp.load_wav(p)
        assert np.allclose(clip.samples, [0.0, 0.5, -0.5, 32767 / 32768], atol=1e-12)

    def test_every_int16_value_decodes_exactly(self, tmp_path):
        """Each 16-bit sample reads as its float64 value over 32768, bit for bit."""
        ints = np.arange(-32768, 32768)
        p = tmp_path / "all.wav"
        p.write_bytes(build_wav(ints.tolist()))
        samples = dsp.load_wav(p).samples
        assert samples.dtype == np.float64
        assert samples.tobytes() == (ints.astype(np.float64) / 32768.0).tobytes()

    def test_empty_data_chunk(self, tmp_path):
        p = tmp_path / "e.wav"
        p.write_bytes(build_wav([]))
        assert dsp.load_wav(p).samples.size == 0

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "s.wav"
        p.write_bytes(build_wav([0, 0], channels=2))
        with pytest.raises(UnsupportedFormatError, match="channel count"):
            dsp.load_wav(p)

    def test_wrong_rate_rejected(self, tmp_path):
        p = tmp_path / "r.wav"
        p.write_bytes(build_wav([0], rate=44100))
        with pytest.raises(UnsupportedFormatError, match="sample rate"):
            dsp.load_wav(p)

    def test_wrong_codec_rejected(self, tmp_path):
        p = tmp_path / "c.wav"
        p.write_bytes(build_wav([0], audio_format=3))
        with pytest.raises(UnsupportedFormatError, match="codec"):
            dsp.load_wav(p)

    @pytest.mark.parametrize("blob", [
        b"junk",
        build_wav([0])[:30],
        build_wav([0])[:12] + build_wav([0])[36:],
        build_wav([0])[:36],
        build_wav([0], audio_format=3),
        build_wav([0], channels=2),
        build_wav([0], rate=44100),
    ], ids=["not_riff", "truncated", "no_fmt", "no_data", "codec", "stereo", "rate"])
    def test_every_error_names_the_file(self, tmp_path, blob):
        """A WAV of a manifest of many is refused with its path first."""
        p = tmp_path / "bad.wav"
        p.write_bytes(blob)
        with pytest.raises(FormatError) as e:
            dsp.load_wav(p)
        assert str(e.value).startswith(f"{p}: ")

    def test_write_read_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        clip = dsp.AudioClip(samples=np.round(rng.uniform(-1, 0.99, 500) * 32768) / 32768)
        p = tmp_path / "rt.wav"
        dsp.write_wav(p, clip)
        assert np.allclose(dsp.load_wav(p).samples, clip.samples, atol=1e-12)


class TestFraming:
    def test_single_frame_boundary(self):
        clip = dsp.AudioClip(samples=np.zeros(1024))
        assert dsp.frame_and_window(clip).shape == (1, 1024)

    def test_reference_length_gives_778(self):
        clip = dsp.AudioClip(samples=np.zeros(199936))
        assert dsp.frame_and_window(clip).shape[0] == 778

    def test_all_ones_yields_window(self):
        clip = dsp.AudioClip(samples=np.ones(1024))
        frame = dsp.frame_and_window(clip)[0]
        assert frame[0] == 0.0
        assert frame[512] == pytest.approx(1.0)
        assert np.allclose(frame, dsp.hann_window())

    def test_too_short_raises(self):
        with pytest.raises(InputError):
            dsp.frame_and_window(dsp.AudioClip(samples=np.zeros(1023)))

    @given(st.integers(min_value=1024, max_value=300_000))
    @settings(max_examples=50, deadline=None)
    def test_frame_count_formula(self, n):
        clip = dsp.AudioClip(samples=np.zeros(n))
        assert dsp.frame_and_window(clip).shape[0] == (n - 1024) // 256 + 1


class TestFft:
    def test_impulse(self):
        x = np.zeros(1024)
        x[0] = 1.0
        assert np.abs(dsp.fft_1024(x) - 1.0).max() < 1e-12

    def test_constant(self):
        spec = dsp.fft_1024(np.ones(1024))
        assert spec[0] == pytest.approx(1024.0)
        assert np.abs(spec[1:]).max() < 1e-9

    def test_vs_direct_dft(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal(1024)
        assert np.abs(dsp.fft_1024(frame) - dsp.dft_direct(frame)).max() < 1e-6

    def test_vs_direct_dft_100_frames(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((100, 1024))
        assert np.abs(dsp.fft_1024(frames) - dsp.dft_direct(frames)).max() < 1e-6

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            dsp.fft_1024(np.zeros(1000))


class TestPowerSpectrogram:
    def test_zero_frame(self):
        assert not dsp.power_spectrogram(np.zeros((1, 1024))).any()

    def test_impulse_frame(self):
        x = np.zeros((1, 1024))
        x[0, 0] = 1.0
        assert np.allclose(dsp.power_spectrogram(x), 1.0)

    def test_sine_440hz_peak_bin(self):
        t = np.arange(199936) / 16000
        clip = dsp.AudioClip(samples=0.5 * np.sin(2 * np.pi * 440.0 * t))
        power = dsp.power_spectrogram(dsp.frame_and_window(clip))
        assert (power.argmax(axis=1) == 28).all()  # round(440 / 15.625)


# the 82 filter edges, mel-equidistant on [0, 8000] Hz
MEL_EDGES_HZ = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(8000.0), 82))


class TestMelBank:
    def test_shape(self):
        assert dsp.build_mel_bank().shape == (80, 513)

    def test_range_and_rows_positive(self):
        m = dsp.build_mel_bank()
        assert m.min() >= 0.0 and m.max() <= 1.0
        assert (m.max(axis=1) > 0).all()

    def test_triangles_unimodal_and_banded(self):
        bank = dsp.build_mel_bank()
        bin_hz = np.arange(513) * 16000 / 1024
        for i in range(80):
            row = bank[i]
            inside = (bin_hz > MEL_EDGES_HZ[i]) & (bin_hz < MEL_EDGES_HZ[i + 2])
            assert not row[~inside].any()
            d = np.diff(row[row > 0])
            # nonnegative then nonpositive slope: a single peak
            sign_changes = np.diff(np.sign(d)[np.sign(d) != 0])
            assert (sign_changes <= 0).all()

    def test_coverage_between_first_and_last_centers(self):
        bank = dsp.build_mel_bank()
        bin_hz = np.arange(513) * 16000 / 1024
        covered = bank.sum(axis=0)
        inner = (bin_hz > MEL_EDGES_HZ[1]) & (bin_hz < MEL_EDGES_HZ[-2])
        assert (covered[inner] > 0).all()

    def test_row_maxima(self):
        bank = dsp.build_mel_bank()
        bin_hz = np.arange(513) * 16000 / 1024
        for i in range(80):
            peak = bank[i].max()
            has_bin_at_center = np.any(
                np.abs(bin_hz - MEL_EDGES_HZ[i + 1]) < 1e-9)
            if has_bin_at_center:
                assert peak == pytest.approx(1.0, abs=1e-9)
            else:
                assert peak < 1.0 + 1e-9


class TestDct:
    def test_constant_vector(self):
        y = dsp.dct2_ortho(np.full(80, 3.0))
        assert y[0] == pytest.approx(3.0 * np.sqrt(80))
        assert np.abs(y[1:]).max() < 1e-12

    def test_orthonormality(self):
        d = dsp.dct2_matrix(80)
        assert np.abs(d.T @ d - np.eye(80)).max() < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(80)
        assert np.linalg.norm(dsp.dct2_ortho(x)) == pytest.approx(
            np.linalg.norm(x), abs=1e-12)

    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            dsp.dct2_ortho(np.zeros(64))

    def test_leading_coefficients_bitwise(self):
        """Each coefficient is its own sum: keeping fewer moves no bit, and
        neither does the batch a vector is in."""
        x = np.random.default_rng(9).standard_normal((5, 80))
        full = dsp.dct2_ortho(x)
        assert dsp.dct2_ortho(x, 13).tobytes() == full[:, :13].copy().tobytes()
        assert dsp.dct2_ortho(x[3]).tobytes() == full[3].tobytes()
        assert np.abs(full - x @ dsp.dct2_matrix().T).max() < 1e-12


def reference_mfcc(x: np.ndarray) -> np.ndarray:
    """All frames' MFCC as dense products of the direct DFT, the mel bank and
    the DCT matrix."""
    n = (x.size - 1024) // 256 + 1
    frames = x[np.arange(n)[:, None] * 256 + np.arange(1024)] * dsp.hann_window()
    spec = dsp.dft_direct(frames)
    logmel = np.log((spec.real ** 2 + spec.imag ** 2) @ dsp.build_mel_bank().T + 1e-10)
    return (logmel @ dsp.dct2_matrix()[:13].T)[:, :, None]


@pytest.fixture(scope="module")
def noise_clip_and_mfcc():
    """A 60,000-sample clip (231 frames) and its all-frames MFCC."""
    clip = dsp.AudioClip(samples=np.random.default_rng(10).uniform(-1.0, 1.0, 60_000))
    return clip, dsp.mfcc(clip)


class TestMfcc:
    def test_reference_shape(self):
        clip = dsp.AudioClip(samples=np.zeros(199936))
        assert dsp.mfcc(clip).shape == (778, 13, 1)

    def test_silence(self):
        out = dsp.mfcc(dsp.AudioClip(samples=np.zeros(199936)))[:, :, 0]
        assert np.isfinite(out).all()
        assert np.allclose(out, out[0])  # every frame identical
        assert out[0, 0] == pytest.approx(np.sqrt(80) * np.log(1e-10))
        assert np.abs(out[0, 1:]).max() < 1e-9

    def test_white_noise_finite_and_varying(self):
        rng = np.random.default_rng(4)
        out = dsp.mfcc(dsp.AudioClip(samples=rng.uniform(-0.5, 0.5, 199936)))
        assert np.isfinite(out).all()
        assert np.abs(out[0] - out[1]).max() > 0

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.5, 0.5, 199936)
        a = dsp.mfcc(dsp.AudioClip(samples=x))
        b = dsp.mfcc(dsp.AudioClip(samples=x.copy()))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("frames", [slice(None), [15, 0, 7, 7, 3]], ids=["all", "subset"])
    def test_vs_dense_oracle(self, frames):
        x = np.random.default_rng(6).uniform(-1.0, 1.0, 5000)  # 16 frames
        want = reference_mfcc(x)[frames]
        got = dsp.mfcc(dsp.AudioClip(samples=x), frames)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    @given(idx=st.lists(st.integers(0, 230), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_frame_subset_bitwise(self, noise_clip_and_mfcc, idx):
        """Any index array, unsorted or repeated too, gives the all-frames
        rows bit for bit."""
        clip, full = noise_clip_and_mfcc
        got = dsp.mfcc(clip, np.array(idx, dtype=np.int64))
        assert got.tobytes() == full[idx].tobytes()

    def test_bits_do_not_depend_on_blas_threads(self):
        code = ("import hashlib, numpy as np; from mdnn import dsp; "
                "c = dsp.AudioClip(samples=np.random.default_rng(7).uniform(-1, 1, 199936)); "
                "print(hashlib.sha256(dsp.mfcc(c).tobytes() "
                "+ dsp.mfcc(c, [777, 5, 5, 0]).tobytes()).hexdigest())")
        src = str(Path(dsp.__file__).resolve().parents[1])
        path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                               check=True, env=dict(os.environ, PYTHONPATH=path,
                                                    OPENBLAS_NUM_THREADS=n)).stdout
                for n in ("1", "2")]
        assert len(outs[0]) == 65 and outs[0] == outs[1]

    def test_sixteen_frames_peak_under_1_mb(self):
        """No all-frames buffer: the 778 x 513 power matrix alone is 3.2 MB."""
        clip = dsp.AudioClip(samples=np.random.default_rng(8).uniform(-1.0, 1.0, 199936))
        idx = uniform_indices(dsp.REFERENCE_FRAMES, 16)
        tracemalloc.start()
        try:
            out = dsp.mfcc(clip, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (16, 13, 1)
        assert peak < 1_000_000
