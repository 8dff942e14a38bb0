"""Container format, preprocessing, manifest, and synthetic generator tests."""

import tracemalloc

import numpy as np
import pytest

from mdnn import data as dm
from mdnn import dsp
from mdnn.errors import DimensionError, FormatError, InputError


class TestContainer:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 1, 4), (778, 13, 1), (2, 1, 3, 1)])
    def test_roundtrip_bitwise(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        t = rng.standard_normal(shape)
        p = tmp_path / "t.ntc"
        dm.write_container(p, t)
        back = dm.read_container(p)
        assert back.shape == t.shape
        assert np.array_equal(back, t)
        assert back.tobytes() == t.tobytes()

    def test_rank0_scalar(self, tmp_path):
        p = tmp_path / "s.ntc"
        dm.write_container(p, np.float64(2.5))
        assert p.stat().st_size == 7 + 8
        back = dm.read_container(p)
        assert back.shape == ()
        assert back == 2.5

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "b.ntc"
        dm.write_container(p, np.ones(3))
        blob = bytearray(p.read_bytes())
        blob[0] = ord("X")
        p.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            dm.read_container(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.ntc"
        dm.write_container(p, np.ones(4))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="payload"):
            dm.read_container(p)


    def test_read_peak_is_about_twice_the_payload(self, tmp_path):
        """The file's bytes and the array: the payload is not copied a second
        time on the way."""
        t = np.random.default_rng(0).standard_normal((512, 1024))  # 4 MiB
        p = tmp_path / "big.ntc"
        dm.write_container(p, t)
        tracemalloc.start()
        try:
            back = dm.read_container(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, t)
        assert peak < 2.1 * t.nbytes

    def test_write_copies_nothing(self, tmp_path):
        """A float64 C-order array is written from its own buffer."""
        t = np.random.default_rng(0).standard_normal((512, 1024))  # 4 MiB
        p = tmp_path / "big.ntc"
        tracemalloc.start()
        try:
            dm.write_container(p, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * t.nbytes
        assert p.read_bytes() == dm.container_header(t.shape) + t.tobytes()

    @pytest.mark.parametrize("make", [lambda t: t.T, lambda t: t.astype(">f8"),
                                      lambda t: t.astype(np.float32)],
                             ids=["transposed", "big_endian", "float32"])
    def test_write_converts_other_layouts(self, tmp_path, make):
        t = make(np.random.default_rng(0).standard_normal((3, 5)))
        p = tmp_path / "t.ntc"
        dm.write_container(p, t)
        back = dm.read_container(p)
        assert back.shape == t.shape
        assert back.tobytes() == np.ascontiguousarray(t, dtype=np.float64).tobytes()


class TestAudioInput:
    """``audio_input`` runs every MFCC stage on the frames the net reads alone;
    each is the frame of the all-frames MFCC, bit for bit."""

    @pytest.fixture(scope="class", params=[120_000, 260_000], ids=["short", "long"])
    def wav(self, request, tmp_path_factory):
        rng = np.random.default_rng(request.param)
        n = request.param
        x = 0.4 * np.sin(2 * np.pi * 523.0 * np.arange(n) / 16000) + rng.normal(0, 0.05, n)
        path = tmp_path_factory.mktemp("wav") / "a.wav"
        dsp.write_wav(path, dsp.AudioClip(samples=np.clip(x, -1.0, 1.0)))
        full = dsp.mfcc(dm.preprocess_audio(dsp.load_wav(path)))
        return path, full

    @pytest.mark.parametrize("n", [1, 2, 16, 389, 777, 778])
    def test_bitwise_the_subsampled_all_frames_mfcc(self, wav, n):
        """Also at 1 and 2 frames: the mel and DCT stages add their terms in
        an order that does not depend on the frame count."""
        path, full = wav
        got = dm.audio_input(path, n)
        assert got.shape == (n, 13, 1)
        assert got.tobytes() == full[dm.uniform_indices(778, n)].tobytes()

    def test_only_the_read_frames_are_computed(self, wav, monkeypatch):
        shapes = []
        power = dsp.power_spectrogram
        monkeypatch.setattr(dsp, "power_spectrogram",
                            lambda frames: shapes.append(frames.shape) or power(frames))
        dm.audio_input(wav[0], 16)
        assert shapes == [(16, 1024)]

    @pytest.mark.parametrize("n", [1, 16, 778])
    def test_result_owns_only_its_values(self, wav, n):
        path, full = wav
        out = dm.audio_input(path, n)
        assert out.flags.owndata and out.nbytes == n * 13 * 8
        assert full.flags.owndata and full.nbytes == 778 * 13 * 8


class TestPreprocessAudio:
    def test_exact_length_unchanged(self):
        x = np.arange(199936, dtype=np.float64) / 199936
        out = dm.preprocess_audio(dsp.AudioClip(samples=x))
        assert np.array_equal(out.samples, x)

    def test_short_clip_padded(self):
        out = dm.preprocess_audio(dsp.AudioClip(samples=np.ones(100)))
        assert out.samples.size == 199936
        assert out.samples[:100].all()
        assert not out.samples[100:].any()

    def test_long_clip_truncated(self):
        x = np.arange(1_000_000, dtype=np.float64)
        out = dm.preprocess_audio(dsp.AudioClip(samples=x))
        assert np.array_equal(out.samples, x[:199936])

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            dm.preprocess_audio(dsp.AudioClip(samples=np.zeros(0)))


class TestPreprocessVideo:
    def test_identity_at_target_shape(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 4, 8, 8))
        assert np.allclose(dm.preprocess_video(x, (1, 4, 8, 8)), x)

    def test_constant_preserved(self):
        x = np.full((2, 10, 12, 9), 0.625)
        out = dm.preprocess_video(x, (2, 4, 7, 5))
        assert np.allclose(out, 0.625)

    def test_uniform_indices_hand_case(self):
        got = dm.uniform_indices(100, 16).tolist()
        assert got == [0, 7, 13, 20, 26, 33, 40, 46, 53, 59, 66, 73, 79, 86, 92, 99]

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            dm.preprocess_video(np.zeros((2, 3, 4, 4)), (1, 3, 4, 4))

    def test_clamped_to_unit_interval(self):
        out = dm.preprocess_video(np.full((1, 2, 4, 4), 3.0), (1, 2, 4, 4))
        assert out.max() <= 1.0


class TestManifest:
    def test_roundtrip(self, tmp_path):
        rows = [dm.ManifestRow("a.ntc", "a.wav", 1), dm.ManifestRow("b.ntc", "b.wav", 0)]
        p = tmp_path / "m.csv"
        dm.write_manifest(p, rows)
        assert dm.read_manifest(p) == rows

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("foo,bar,baz\nx,y,1\n")
        with pytest.raises(FormatError, match="header"):
            dm.read_manifest(p)

    def test_bad_label(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("video,audio,label\nx,y,2\n")
        with pytest.raises(FormatError, match="label"):
            dm.read_manifest(p)


class TestSynth:
    def test_manifest_balance(self, tmp_path):
        manifest = dm.synth_dataset(10, "separable", seed=1, out_dir=tmp_path / "d")
        rows = dm.read_manifest(manifest)
        assert len(rows) == 20
        assert sum(r.label for r in rows) == 10

    def test_deterministic_bytes(self, tmp_path):
        m1 = dm.synth_dataset(3, "complementary", seed=5, out_dir=tmp_path / "a")
        m2 = dm.synth_dataset(3, "complementary", seed=5, out_dir=tmp_path / "b")
        r1, r2 = dm.read_manifest(m1), dm.read_manifest(m2)
        for a, b in zip(r1, r2):
            assert open(a.audio_path, "rb").read() == open(b.audio_path, "rb").read()
            assert open(a.video_path, "rb").read() == open(b.video_path, "rb").read()

    def test_separable_audio_linearly_separable_by_peak_bin(self, tmp_path):
        manifest = dm.synth_dataset(4, "separable", seed=2, out_dir=tmp_path / "d")
        for row in dm.read_manifest(manifest):
            clip = dm.preprocess_audio(dsp.load_wav(row.audio_path))
            power = dsp.power_spectrogram(dsp.frame_and_window(clip))
            peak = np.median(power.argmax(axis=1))
            predicted = 1 if peak > 42 else 0  # 440 Hz -> bin 28, 880 Hz -> bin 56
            assert predicted == row.label

    def test_complementary_corruption_alternates(self, tmp_path):
        manifest = dm.synth_dataset(4, "complementary", seed=3, out_dir=tmp_path / "d")
        rows = dm.read_manifest(manifest)
        # even indices within each class share one canonical noise waveform
        a0 = dsp.load_wav(rows[0].audio_path).samples
        a2 = dsp.load_wav(rows[2].audio_path).samples
        a4 = dsp.load_wav(rows[4].audio_path).samples  # other class, also corrupted
        assert np.array_equal(a0, a2)
        assert np.array_equal(a0, a4)
        # odd indices carry the class tone instead
        a1 = dsp.load_wav(rows[1].audio_path).samples
        assert not np.array_equal(a0, a1)
        v1 = dm.read_container(rows[1].video_path)
        v3 = dm.read_container(rows[3].video_path)
        assert np.array_equal(v1, v3)  # corrupted-video samples share the pattern
