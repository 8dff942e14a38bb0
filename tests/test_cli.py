"""Command-line interface tests: exit codes, round trips, reproducibility."""

import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from mdnn import data as dm
from mdnn import model_io, trainer
from mdnn.audio_net import audio_forward
from mdnn.cli import run
from mdnn.fusion import fused_forward
from mdnn.video_net import video_forward


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic dataset plus tiny trained model directories."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["synth", "--kind", "separable", "--n", "5",
                "--seed", "9", "--out", str(root / "data")]) == 0
    manifest = root / "data" / "manifest.csv"
    common = ["--data", str(manifest), "--tiny", "--epochs", "1"]
    assert run(["train", "--model", "audio", "--out", str(root / "audio")] + common) == 0
    assert run(["train", "--model", "video", "--out", str(root / "video")] + common) == 0
    assert run(["train", "--model", "fusion", "--out", str(root / "bundle"),
                "--video-dir", str(root / "video"), "--audio-dir", str(root / "audio")]
               + common) == 0
    return root


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["synth", "--kind", "separable"]) == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert run(["inspect", "--in", str(tmp_path / "nope.ntc")]) == 2

    def test_corrupt_container_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.ntc"
        p.write_bytes(b"XXXX\x01\x01\x01")
        assert run(["inspect", "--in", str(p)]) == 2

    def test_fusion_without_model_dirs_is_usage_error(self, tmp_path, capsys):
        assert run(["train", "--model", "fusion", "--data", "m.csv",
                    "--out", str(tmp_path / "o")]) == 1

    def test_help_is_success(self, capsys):
        assert run(["--help"]) == 0

    def test_synth_zero_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--kind", "separable", "--n", "0", "--out", str(out)]) == 1
        assert "n_per_class" in capsys.readouterr().err
        assert not out.exists()


class TestExtractInspect:
    def test_roundtrip(self, workspace, tmp_path, capsys):
        wav = dm.read_manifest(workspace / "data" / "manifest.csv")[0].audio_path
        out = tmp_path / "feats.ntc"
        assert run(["extract", "--in", wav, "--out", str(out)]) == 0
        assert run(["inspect", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "shape: (778, 13, 1)" in stdout
        assert dm.read_container(out).shape == (778, 13, 1)

    def test_extract_deterministic(self, workspace, tmp_path, capsys):
        wav = dm.read_manifest(workspace / "data" / "manifest.csv")[0].audio_path
        a, b = tmp_path / "a.ntc", tmp_path / "b.ntc"
        assert run(["extract", "--in", wav, "--out", str(a)]) == 0
        assert run(["extract", "--in", wav, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainEvalPredict:
    def test_model_directory_layout(self, workspace):
        for part in ("audio", "video"):
            d = workspace / part
            assert (d / "model.txt").exists()
            assert (d / "params.txt").exists()
            assert (d / "epochs.csv").exists()
        assert (workspace / "bundle" / "bundle.txt").exists()

    def test_eval_each_model(self, workspace, capsys):
        for part in ("audio", "video", "bundle"):
            assert run(["eval", "--model-dir", str(workspace / part),
                        "--data", str(workspace / "data" / "manifest.csv"),
                        "--split", "test"]) == 0
            assert "accuracy=" in capsys.readouterr().out

    def test_predict(self, workspace, capsys):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", row.video_path, "--audio", row.audio_path]) == 0
        stdout = capsys.readouterr().out
        assert "label:" in stdout and "fused:" in stdout

    def test_predict_matches_training_features(self, workspace, capsys):
        """predict reads its files through the same path as training and eval."""
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[3]
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", row.video_path, "--audio", row.audio_path]) == 0
        printed = capsys.readouterr().out.splitlines()
        vnet, anet, fnet = model_io.load_bundle(workspace / "bundle")
        clip = trainer.video_features([row], vnet.config)[0]
        feats = trainer.audio_features([row], anet.config)[0]
        for key, p in (("y_video", video_forward(vnet, clip)),
                       ("y_audio", audio_forward(anet, feats)),
                       ("fused", fused_forward(vnet, anet, fnet, clip, feats))):
            want = f"{key + ':':9s}[{p[0]:.6f}, {p[1]:.6f}]"
            assert want in printed, (want, printed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_predict_non_finite_video_is_numeric_failure(self, workspace, tmp_path,
                                                         capsys, bad):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        frames = dm.read_container(row.video_path)
        frames[0, 2, 5, 5] = bad
        video = tmp_path / "bad.ntc"
        dm.write_container(video, frames)
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", str(video), "--audio", row.audio_path]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_train_seed_reproducible(self, workspace, tmp_path, capsys):
        manifest = str(workspace / "data" / "manifest.csv")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["train", "--model", "audio", "--data", manifest, "--tiny",
                        "--epochs", "1", "--seed", "3", "--out", str(out)]) == 0
            outs.append((out / "epochs.csv").read_text())
        assert outs[0] == outs[1]


class TestConfigFile:
    def test_unknown_key_rejected(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("learning_rate=0.01\nbogus_key=1\n")
        assert run(["train", "--model", "audio", "--tiny", "--epochs", "1",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_flags_override_file(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=40\nbatch_size=4\n# comment\n")
        assert run(["train", "--model", "audio", "--tiny", "--epochs", "1",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert "epochs=1" in err      # flag wins
        assert "batch_size=4" in err  # file value survives

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_zero_epochs_is_usage_error(self, workspace, tmp_path, capsys, source):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=0\n")
        extra = ["--epochs", "0"] if source == "flag" else ["--config", str(cfg)]
        assert run(["train", "--model", "audio", "--tiny",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--out", str(tmp_path / "o")] + extra) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        (["--learning-rate", "nan"], "learning_rate"),
        (["--learning-rate", "inf"], "learning_rate"),
        ("beta1=1\n", "beta1"),
    ], ids=["nan_flag", "inf_flag", "file_beta1_1"])
    def test_out_of_range_value_is_usage_error(self, workspace, tmp_path, capsys,
                                               extra, key):
        """Values that would train into a NaN model are refused before training."""
        if isinstance(extra, str):
            cfg = tmp_path / "train.cfg"
            cfg.write_text(extra)
            extra = ["--config", str(cfg)]
        out = tmp_path / "o"
        assert run(["train", "--model", "video", "--tiny", "--epochs", "1",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--out", str(out)] + extra) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestDiagnostics:
    def test_param_count(self, capsys):
        assert run(["param-count", "--tiny"]) == 0
        stdout = capsys.readouterr().out
        assert "factored weights:" in stdout and "ratio:" in stdout

    def test_gradcheck_fusion_passes(self, capsys):
        assert run(["gradcheck", "--model", "fusion"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestTypedParseErrors:
    """Malformed or unreadable input files end as a data/format error, exit 2."""

    def test_config_value_not_a_number(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=abc\n")
        assert run(["train", "--model", "audio", "--tiny",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("part, edit", [
        ("audio", lambda t: t.replace("num_classes=2\n", "")),
        ("audio", lambda t: t.replace("conv_filters=16", "conv_filters=sixteen")),
        ("audio", lambda t: t.replace("kernel=3x3", "kernel=3xx3")),
        ("audio", lambda t: t.replace("kernel=3x3", "kernel=3")),
        ("video", lambda t: t.replace("input_shape=1x4x16x16", "input_shape=1x4x16")),
        ("audio", lambda t: t.replace("dropout_rate=0.5", "dropout_rate=1.5")),
        ("video", lambda t: t.replace("stage_channels=8x16", "stage_channels=0x16")),
    ], ids=["missing_key", "non_numeric", "bad_tuple", "short_kernel", "short_input_shape",
            "dropout_out_of_range", "zero_channels"])
    def test_bad_model_txt(self, workspace, tmp_path, capsys, part, edit):
        model = tmp_path / part
        shutil.copytree(workspace / part, model)
        (model / "model.txt").write_text(edit((model / "model.txt").read_text()))
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert "model.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command, target", [
        ("train", "data/manifest.csv"),
        ("train", "train.cfg"),
        ("eval", "audio/model.txt"),
        ("eval", "audio/params.txt"),
        ("predict", "bundle/bundle.txt"),
    ], ids=["manifest", "config_file", "model_txt", "params_txt", "bundle_txt"])
    def test_non_utf8_text_file(self, workspace, tmp_path, capsys, command, target):
        """A text file with a byte that is not UTF-8 is a data error naming it."""
        for part in ("data", "audio", "bundle"):
            shutil.copytree(workspace / part, tmp_path / part)
        (tmp_path / "train.cfg").write_text("epochs=1\n")
        path = tmp_path / target
        path.write_bytes(path.read_bytes() + b"\xff\n")
        manifest = str(tmp_path / "data" / "manifest.csv")
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        argv = {
            "train": ["train", "--model", "audio", "--tiny", "--data", manifest,
                      "--config", str(tmp_path / "train.cfg"), "--out", str(tmp_path / "o")],
            "eval": ["eval", "--model-dir", str(tmp_path / "audio"), "--data", manifest],
            "predict": ["predict", "--model-dir", str(tmp_path / "bundle"),
                        "--video", row.video_path, "--audio", row.audio_path],
        }[command]
        assert run(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_manifest_label_not_a_number(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("video,audio,label\nv.ntc,a.wav,x\n")
        assert run(["eval", "--model-dir", str(workspace / "audio"),
                    "--data", str(manifest)]) == 2
        assert "label" in capsys.readouterr().err

    def test_eval_non_finite_parameter(self, workspace, tmp_path, capsys):
        net = model_io.load_net(workspace / "audio")
        net.params["dense2/b"][0] = np.nan
        model_io.save_net(tmp_path / "audio", net)
        assert run(["eval", "--model-dir", str(tmp_path / "audio"),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert "dense2__b.ntc" in capsys.readouterr().err

    def test_eval_fusion_subdirectory(self, workspace, capsys):
        assert run(["eval", "--model-dir", str(workspace / "bundle" / "fusion"),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert "bundle" in capsys.readouterr().err

    def test_inspect_directory(self, tmp_path, capsys):
        assert run(["inspect", "--in", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_container_dims_overflow_int64(self, tmp_path, capsys):
        # 2^21 * 2^21 * 2^22 = 2^64 wraps to 0 in int64; the payload is empty
        p = tmp_path / "huge.ntc"
        p.write_bytes(b"MDNN" + struct.pack("<BBB3I", 1, 1, 3, 2 ** 21, 2 ** 21, 2 ** 22))
        assert run(["inspect", "--in", str(p)]) == 2
        assert "payload" in capsys.readouterr().err

    def test_predict_truncated_wav(self, workspace, tmp_path, capsys):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        wav = tmp_path / "half.wav"
        blob = Path(row.audio_path).read_bytes()
        wav.write_bytes(blob[:len(blob) // 2])
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", row.video_path, "--audio", str(wav)]) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(2, 8, 16, 16), (8, 16, 16)],
                             ids=["two_channels", "rank_3"])
    def test_predict_video_shape_mismatch(self, workspace, tmp_path, capsys, shape):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        clip = tmp_path / "clip.ntc"
        dm.write_container(clip, np.random.default_rng(0).random(shape))
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", str(clip), "--audio", row.audio_path]) == 2
        assert str(clip) in capsys.readouterr().err
