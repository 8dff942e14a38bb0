"""Command-line interface tests: exit codes, round trips, reproducibility."""

import argparse
import dataclasses
import shutil
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mdnn import data as dm
from mdnn import model_io, trainer
from mdnn.audio_net import TINY_AUDIO_CONFIG, audio_forward, build_audio_net
from mdnn.cli import build_parser, run
from mdnn.errors import ConfigError, FormatError
from mdnn.fusion import build_fusion_head, fused_forward
from mdnn.layers import Dense, Net
from mdnn.trainer import TrainConfig
from mdnn.video_net import VideoNetConfig, build_video_net, video_forward

from conftest import param_sha256, python_run, python_stdout


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

    @pytest.mark.parametrize("argv, message", [
        (["train", "--seed", "-1"], "rng_seed must be >= 0, got -1"),
        (["train", "--config", "{cfg}"], "rng_seed must be >= 0, got -3"),
        (["train", "--split-seed", "-1"], "split seed must be >= 0, got -1"),
        (["eval", "--split-seed", "-1"], "split seed must be >= 0, got -1"),
        (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["train_seed", "config_rng_seed", "train_split_seed", "eval_split_seed",
            "synth_seed"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys, argv, message):
        """A negative seed is refused, naming it, before anything is written."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text("rng_seed=-3\n")
        manifest = str(workspace / "data" / "manifest.csv")
        out = tmp_path / "o"
        rest = {"train": ["--model", "audio", "--tiny", "--epochs", "1", "--data", manifest,
                          "--out", str(out)],
                "eval": ["--model-dir", str(workspace / "audio"), "--data", manifest],
                "synth": ["--kind", "separable", "--n", "1", "--out", str(out)]}[argv[0]]
        assert run([a.format(cfg=cfg) for a in argv] + rest) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_synth_zero_samples_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run(["synth", "--kind", "separable", "--n", "0", "--out", str(out)]) == 1
        assert "n_per_class" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """``run`` parses with one parser per process; no call leaves state in it."""

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        def resolved(extra):
            assert run(["train", "--model", "audio", "--tiny", "--data",
                        str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]
                       + extra) == 2
            line, = (ln for ln in capsys.readouterr().err.splitlines()
                     if ln.startswith("resolved config: "))
            return dict(kv.split("=") for kv in line.split()[2:])

        first = resolved(["--batch-size", "3", "--epochs", "2"])
        assert (first["batch_size"], first["epochs"]) == ("3", "2")
        second = resolved([])
        assert (second["batch_size"], second["epochs"]) == ("8", "50")

    def test_predict_after_usage_errors(self, workspace, tmp_path, capsys):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        predict = ["predict", "--model-dir", str(workspace / "bundle"),
                   "--video", row.video_path, "--audio", row.audio_path]
        assert run(predict) == 0
        first = capsys.readouterr().out
        assert run(["--help"]) == 0
        assert run(["frobnicate"]) == 1
        assert run(["train", "--model", "fusion", "--data", "m.csv",
                    "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()
        assert run(predict) == 0
        assert capsys.readouterr().out == first


class TestExtractInspect:
    def test_roundtrip(self, workspace, tmp_path, capsys):
        wav = dm.read_manifest(workspace / "data" / "manifest.csv")[0].audio_path
        out = tmp_path / "feats.ntc"
        assert run(["extract", "--in", wav, "--out", str(out)]) == 0
        assert run(["inspect", "--in", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "shape: (778, 13, 1)" in stdout
        assert dm.read_container(out).shape == (778, 13, 1)

    def test_inspect_empty_container(self, tmp_path, capsys):
        """A container with a zero-length axis is valid and has no range."""
        p = tmp_path / "empty.ntc"
        dm.write_container(p, np.zeros((3, 0)))
        assert run(["inspect", "--in", str(p)]) == 0
        assert capsys.readouterr().out == "shape: (3, 0)\nno values\n"

    @pytest.mark.parametrize("values, out", [
        ([1.0, np.inf, -np.inf], "non-finite: nan=0 +inf=1 -inf=1\n"
                                 "min: 1  max: 1  mean: 1\n"),
        ([1e308, 1e308], "min: 1e+308  max: 1e+308  mean: 1e+308\n"),
        ([np.nan, np.inf, 2.0, 4.0], "non-finite: nan=1 +inf=1 -inf=0\n"
                                     "min: 2  max: 4  mean: 3\n"),
    ], ids=["both_infinities", "near_float_max", "nan_and_inf"])
    def test_inspect_non_finite_and_huge_values(self, tmp_path, capsys, values, out):
        """Non-finite values are counted; the mean is over the finite ones and
        cannot overflow, and no floating-point warning is raised."""
        p = tmp_path / "t.ntc"
        dm.write_container(p, np.array(values))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["inspect", "--in", str(p)]) == 0
        assert capsys.readouterr().out == "shape: ({},)\n".format(len(values)) + out

    def test_extract_deterministic(self, workspace, tmp_path, capsys):
        wav = dm.read_manifest(workspace / "data" / "manifest.csv")[0].audio_path
        a, b = tmp_path / "a.ntc", tmp_path / "b.ntc"
        assert run(["extract", "--in", wav, "--out", str(a)]) == 0
        assert run(["extract", "--in", wav, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainEvalPredict:
    def test_model_directory_layout(self, workspace):
        """A model directory is model.txt and params.ntc; a bundle is
        bundle.txt and three such parts.  Training adds its epochs.csv."""
        for part in ("audio", "video", "bundle/video", "bundle/audio", "bundle/fusion"):
            files = sorted(p.name for p in (workspace / part).iterdir())
            assert files == ["epochs.csv"] * (part in ("audio", "video")) + [
                "model.txt", "params.ntc"]
        assert sorted(p.name for p in (workspace / "bundle").iterdir()) == [
            "audio", "bundle.txt", "epochs.csv", "fusion", "video"]

    def test_predict_reads_each_bundle_file_once(self, workspace, monkeypatch, capsys):
        """One predict reads bundle.txt and the three model.txt files as text,
        and the three params.ntc containers, each once."""
        row, bundle = dm.read_manifest(workspace / "data" / "manifest.csv")[0], workspace / "bundle"
        texts, containers = [], []
        for module, name, calls in ((dm, "read_text", texts), (model_io, "read_text", texts),
                                    (dm, "read_container", containers),
                                    (model_io, "read_container", containers)):
            def counted(path, _read=getattr(module, name), _calls=calls):
                _calls.append(Path(path))
                return _read(path)
            monkeypatch.setattr(module, name, counted)
        assert run(["predict", "--model-dir", str(bundle),
                    "--video", row.video_path, "--audio", row.audio_path]) == 0
        assert sorted(texts) == [bundle / "audio" / "model.txt", bundle / "bundle.txt",
                                 bundle / "fusion" / "model.txt", bundle / "video" / "model.txt"]
        assert sorted(p for p in containers if bundle in p.parents) == [
            bundle / part / "params.ntc" for part in ("audio", "fusion", "video")]

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
        assert f"{video}: video contains non-finite values" in capsys.readouterr().err

    def test_overflowing_bundle_is_numeric_failure(self, workspace, tmp_path):
        """A bundle whose video parameters are scaled by 1e150, its hashes
        recomputed, loads (every value is finite) but its video outputs
        overflow to nan: predict and eval end as a numeric failure, exit 3,
        printing no nan as a probability or counting one as class 0.  Run as
        the installed command runs, without pytest's warnings-as-errors."""
        vnet, anet, fnet = model_io.load_bundle(workspace / "bundle")
        for p in vnet.params.values():
            p *= 1e150
        model_io.save_bundle(tmp_path / "bundle", vnet, anet, fnet)
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        data = ["--data", str(workspace / "data" / "manifest.csv"), "--split", "train"]
        for argv in (["predict", "--model-dir", str(tmp_path / "bundle"),
                      "--video", row.video_path, "--audio", row.audio_path],
                     ["eval", "--model-dir", str(tmp_path / "bundle" / "video"), *data]):
            done = python_run("-m", "mdnn.cli", *argv)
            assert done.returncode == 3, (argv, done.stdout, done.stderr)
            assert "numeric failure" in done.stderr and "Traceback" not in done.stderr
            assert "nan" not in done.stdout
            # the one line, no NumPy warning before it
            assert done.stderr.count("\n") == 1 and "Warning" not in done.stderr

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

    def test_seed_from_file_or_flag_is_the_seed_used(self, workspace, tmp_path, capsys):
        """``rng_seed`` in a config file trains exactly as ``--seed`` does, the
        flag wins over the file, and the printed config names the seed that
        ran."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text("rng_seed=5\n")
        runs = {"file": ["--config", str(cfg)], "flag": ["--seed", "5"], "default": [],
                "flag_over_file": ["--config", str(cfg), "--seed", "0"]}
        models = {}
        for name, extra in runs.items():
            out = tmp_path / name
            assert run(["train", "--model", "audio", "--tiny", "--epochs", "1",
                        "--data", str(workspace / "data" / "manifest.csv"),
                        "--out", str(out)] + extra) == 0
            seed = 0 if name in ("default", "flag_over_file") else 5
            line, = (ln for ln in capsys.readouterr().err.splitlines()
                     if ln.startswith("resolved config: "))
            assert dict(kv.split("=") for kv in line.split()[2:])["rng_seed"] == str(seed)
            models[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.ntc"))}
        assert models["file"] == models["flag"]
        assert models["default"] == models["flag_over_file"]
        assert models["file"] != models["default"]

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
    ], ids=["nan_flag", "inf_flag"])
    def test_out_of_range_value_is_usage_error(self, workspace, tmp_path, capsys,
                                               extra, key):
        """Values that would train into a NaN model are refused before training."""
        out = tmp_path / "o"
        assert run(["train", "--model", "video", "--tiny", "--epochs", "1",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--out", str(out)] + extra) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["beta1=0.9", "beta2=0.999", "eps=1e-8"],
                             ids=["beta1", "beta2", "eps"])
    def test_adam_constant_line_refused(self, workspace, tmp_path, capsys, line):
        """Adam's beta1, beta2 and eps are constants of the trainer: a config
        line for one, even at its value, is an unknown key, a data error that
        names its line, and nothing is trained."""
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"epochs=1\n{line}\n")
        out = tmp_path / "o"
        assert run(["train", "--model", "video", "--tiny",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--config", str(cfg), "--out", str(out)]) == 2
        key = line.split("=")[0]
        assert f"{cfg}:2: unknown key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    def test_each_setting_is_one_train_flag(self):
        """Every ``TrainConfig`` field is set by exactly one ``train`` flag of
        the same dest (or the same key in a config file); the other flags
        choose the run's data, models and output."""
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["train"]._actions if a.dest != "help"]
        run_flags = {"model", "data", "config", "split_seed", "out", "tiny",
                     "video_dir", "audio_dir"}
        assert len(dests) == len(set(dests))
        assert {f.name for f in dataclasses.fields(TrainConfig)} == set(dests) - run_flags


class TestDiagnostics:
    def test_param_count(self, capsys):
        assert run(["param-count", "--tiny"]) == 0
        stdout = capsys.readouterr().out
        assert "factored weights:" in stdout and "ratio:" in stdout

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kilobytes on Linux")
    def test_full_scale_param_count_writes_no_parameters(self):
        """The counts depend only on the architecture, so the paper-scale
        video net is built without initialising it: peak RSS rises by far
        less than its 123 MB of parameters."""
        code = ("import resource; from mdnn.cli import run; "
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
                "status = run(['param-count']); "
                "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
                "print(status, (after - before) * 1024)")
        out = python_stdout(code).splitlines()
        assert out[0].startswith("factored weights:")
        exit_code, rss_rise = map(int, out[-1].split())
        assert exit_code == 0
        assert rss_rise < 60_000_000

    def test_gradcheck_fusion_passes(self, capsys):
        assert run(["gradcheck", "--model", "fusion"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_has_no_tiny_flag(self, capsys):
        """gradcheck always runs its own small models; it takes no --tiny."""
        assert run(["gradcheck", "--model", "video", "--tiny"]) == 1
        assert "--tiny" in capsys.readouterr().err


class TestTypedParseErrors:
    """Malformed or unreadable input files end as a data/format error, exit 2."""

    def test_config_value_not_a_number(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=abc\n")
        assert run(["train", "--model", "audio", "--tiny",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("part, edit, says", [
        ("audio", lambda t: t.replace("dense1_width=64\n", ""), "missing key 'dense1_width'"),
        ("audio", lambda t: t.replace("conv_filters=16", "conv_filters=sixteen"),
         "conv_filters='sixteen' is not a valid int"),
        ("video", lambda t: t.replace("stage_channels=8x16", "stage_channels=8xx16"),
         "stage_channels='8xx16' is not a valid tuple"),
        ("video", lambda t: t.replace("input_shape=1x4x16x16", "input_shape=1x4x16"),
         "input_shape needs 4 entries"),
        ("video", lambda t: t.replace("stage_channels=8x16", "stage_channels=0x16"),
         "every size >= 1"),
        ("audio", lambda t: t.replace("dense1_width=64", "dense1_width=0"), "dense1_width=0"),
        ("audio", lambda t: t.replace("dense1_width=64", "dense1_width=-3"), "dense1_width=-3"),
        ("audio", lambda t: t.replace("frames=16", "frames=4"), "need frames >= 5"),
        ("video", lambda t: t.replace("blocks_per_stage=1", "blocks_per_stage=0"),
         "blocks_per_stage=0"),
        # a line that model.txt carried before the value it names became a
        # constant of the net: an unknown key, refused and not ignored
        ("audio", lambda t: t + "kernel=3\n", "unknown key 'kernel'"),
        ("audio", lambda t: t + "dropout_rate=1.5\n", "unknown key 'dropout_rate'"),
        ("audio", lambda t: t + "num_classes=-1\n", "unknown key 'num_classes'"),
        ("video", lambda t: t + "num_classes=-1\n", "unknown key 'num_classes'"),
        ("video", lambda t: t + "num_classes=3\n", "unknown key 'num_classes'"),
        ("audio", lambda t: t + "input_shape=16x13x2\n", "unknown key 'input_shape'"),
        ("audio", lambda t: t + "input_shape=16x13x0\n", "unknown key 'input_shape'"),
        # the whole audio record of that layout is refused at its first such key
        ("audio", lambda t: t.replace(
            "frames=16\nconv_filters=16\ndense1_width=64\n",
            "input_shape=16x13x1\nconv_filters=16\nkernel=3x3\ndropout_rate=0.5\n"
            "dense1_width=64\nnum_classes=2\n"), "model.txt:2: unknown key 'input_shape'"),
    ], ids=["missing_key", "non_numeric", "bad_tuple", "short_input_shape", "zero_channels",
            "zero_width", "negative_width", "too_few_frames", "zero_blocks",
            "short_kernel", "dropout_out_of_range", "audio_negative_classes",
            "video_negative_classes", "three_classes", "two_audio_channels",
            "zero_audio_channels", "earlier_audio_layout"])
    def test_bad_model_txt(self, workspace, tmp_path, capsys, part, edit, says):
        model = tmp_path / part
        shutil.copytree(workspace / part, model)
        (model / "model.txt").write_text(edit((model / "model.txt").read_text()))
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        err = capsys.readouterr().err
        assert str(model / "model.txt") in err and says in err

    def test_too_many_blocks_refused_before_building(self, workspace, tmp_path, capsys,
                                                     monkeypatch):
        """A video model.txt whose blocks_per_stage needs more parameter
        tensors than its params= line names is refused before the net is
        built, whose time and memory grow with the blocks."""
        def build(config, rng_seed):
            raise AssertionError("built the net")

        monkeypatch.setitem(model_io.KINDS, "video", (VideoNetConfig, build))
        model = tmp_path / "video"
        shutil.copytree(workspace / "video", model)
        text = (model / "model.txt").read_text()
        (model / "model.txt").write_text(
            text.replace("blocks_per_stage=1", "blocks_per_stage=4000"))
        lineno = text.splitlines().index("blocks_per_stage=1") + 1
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert (f"{model / 'model.txt'}:{lineno}: blocks_per_stage=4000 needs more "
                "parameter tensors than the" in capsys.readouterr().err)

    def test_unknown_model_txt_key(self, workspace, tmp_path, capsys):
        """A key that is not in the model's architecture (here a misspelt
        one) is refused, naming its line, and not ignored."""
        model = tmp_path / "audio"
        shutil.copytree(workspace / "audio", model)
        text = (model / "model.txt").read_text()
        (model / "model.txt").write_text(text + "dense1_widht=8\n")
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{model / 'model.txt'}:{len(text.splitlines()) + 1}: unknown key" in err
        assert "dense1_widht" in err

    def test_malformed_model_txt_line_names_its_line(self, workspace, tmp_path, capsys):
        model = tmp_path / "audio"
        shutil.copytree(workspace / "audio", model)
        text = (model / "model.txt").read_text()
        (model / "model.txt").write_text(text.replace("conv_filters=16", "conv_filters 16"))
        lineno = text.splitlines().index("conv_filters=16") + 1
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert f"{model / 'model.txt'}:{lineno}: expected key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("target, key, value", [
        ("train.cfg", "epochs", "3"),
        ("audio/model.txt", "dense1_width", None),
        ("bundle/bundle.txt", "video_sha256", None),
    ], ids=["config_file", "model_txt", "bundle_txt"])
    def test_repeated_key(self, workspace, tmp_path, capsys, target, key, value):
        """A key given twice is refused, naming both lines, instead of the
        last one winning; even a repeat of the same value (None) is."""
        for part in ("audio", "bundle"):
            shutil.copytree(workspace / part, tmp_path / part)
        (tmp_path / "train.cfg").write_text("epochs=1\nbatch_size=4\n")
        path = tmp_path / target
        lines = path.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if ln.startswith(key + "="))
        repeat = lines[first] if value is None else f"{key}={value}"
        path.write_text("\n".join(lines + [repeat]) + "\n")
        manifest = str(workspace / "data" / "manifest.csv")
        row = dm.read_manifest(manifest)[0]
        argv = {
            "train.cfg": ["train", "--model", "audio", "--tiny", "--data", manifest,
                          "--config", str(path), "--out", str(tmp_path / "o")],
            "audio/model.txt": ["eval", "--model-dir", str(tmp_path / "audio"),
                                "--data", manifest],
            "bundle/bundle.txt": ["predict", "--model-dir", str(tmp_path / "bundle"),
                                  "--video", row.video_path, "--audio", row.audio_path],
        }[target]
        assert run(argv) == 2
        assert (f"{path}:{len(lines) + 1}: key {key!r} repeats line {first + 1}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    # (held, needed): the values params.ntc holds and the architecture needs,
    # relative to the saved model's count
    @pytest.mark.parametrize("part, edit, held, needed", [
        ("audio", lambda d: dm.write_container(
            d / "params.ntc", dm.read_container(d / "params.ntc")[:-1]), -1, 0),
        # a second input channel for each of the stem's 8 spatial 3x3 filters
        ("video", lambda d: (d / "model.txt").write_text((d / "model.txt").read_text().replace(
            "input_shape=1x4x16x16", "input_shape=2x4x16x16")), 0, 8 * 3 * 3),
    ], ids=["parameter_file", "two_video_channels"])
    def test_parameter_shape_mismatch(self, workspace, tmp_path, capsys, part, edit, held,
                                      needed):
        """A params.ntc whose value count does not fit the architecture that
        model.txt describes is a format error naming the file and both counts."""
        model = tmp_path / part
        shutil.copytree(workspace / part, model)
        edit(model)
        n = sum(p.size for p in model_io.load_net(workspace / part).params.values())
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert (f"{model / 'params.ntc'}: shape ({n + held},), expected ({n + needed},), "
                "the architecture's value count" in capsys.readouterr().err)

    def test_flipped_parameter_byte(self, workspace, tmp_path, capsys):
        """A single model whose params.ntc payload has one bit flipped, here
        the lowest mantissa byte of the first value, which stays finite, is
        refused by its hash."""
        model = tmp_path / "audio"
        shutil.copytree(workspace / "audio", model)
        blob = bytearray((model / "params.ntc").read_bytes())
        blob[11] ^= 0x01  # 7 header bytes and one u32 dim, then the payload
        (model / "params.ntc").write_bytes(bytes(blob))
        assert np.isfinite(dm.read_container(model / "params.ntc")[0])
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert (f"{model / 'params.ntc'}: parameter hash mismatch with model.txt"
                in capsys.readouterr().err)

    @staticmethod
    def architecture_only(model_txt: Path):
        """Cut ``model_txt`` back to its kind and architecture lines, as the
        earlier layouts wrote it."""
        lines = model_txt.read_text().splitlines(True)
        model_txt.write_text("".join(ln for ln in lines if not ln.startswith("params")))

    def test_earlier_layout_names_the_missing_container(self, workspace, tmp_path, capsys):
        """A directory of one .ntc file per parameter (no params.ntc, no hash
        line) is a format error naming params.ntc, and is not read."""
        model = tmp_path / "audio"
        model.mkdir()
        net = model_io.load_net(workspace / "audio")
        shutil.copy(workspace / "audio" / "model.txt", model)
        self.architecture_only(model / "model.txt")
        for name, value in net.params.items():
            dm.write_container(model / (name.replace("/", "__") + ".ntc"), value)
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert (f"{model / 'params.ntc'}: missing; a directory of one .ntc file per "
                "parameter is the earlier layout" in capsys.readouterr().err)

    def test_params_txt_layout_names_model_txt(self, workspace, tmp_path, capsys):
        """The three-file layout (model.txt of the architecture alone,
        params.ntc, and params.txt holding the names and sha256=<hex>) is a
        format error naming model.txt's missing key."""
        model = tmp_path / "audio"
        shutil.copytree(workspace / "audio", model)
        net = model_io.load_net(model)
        self.architecture_only(model / "model.txt")
        (model / "params.txt").write_text("".join(n + "\n" for n in net.params)
                                          + f"sha256={param_sha256(net)}\n")
        assert run(["eval", "--model-dir", str(model),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert f"{model / 'model.txt'}: missing key 'params'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, target", [
        ("train", "data/manifest.csv"),
        ("train", "train.cfg"),
        ("eval", "audio/model.txt"),
        ("predict", "bundle/bundle.txt"),
    ], ids=["manifest", "config_file", "model_txt", "bundle_txt"])
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

    def test_manifest_path_with_nul_byte(self, workspace, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("video,audio,label\n" + "v.ntc,a\0.wav,1\n" * 3)
        assert run(["eval", "--model-dir", str(workspace / "audio"),
                    "--data", str(manifest)]) == 2
        assert "NUL byte" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_too_short_to_split(self, workspace, tmp_path, capsys, command, rows):
        """Fewer than 3 rows cannot be split into train, val and test: a
        data error naming the manifest, not a usage error."""
        source = workspace / "data" / "manifest.csv"
        manifest = tmp_path / "m.csv"
        manifest.write_text("".join(source.read_text().splitlines(True)[:1 + rows]))
        assert len(dm.read_manifest(manifest)) == rows
        argv = {"train": ["train", "--model", "audio", "--tiny", "--epochs", "1",
                          "--out", str(tmp_path / "o")],
                "eval": ["eval", "--model-dir", str(workspace / "audio")]}[command]
        assert run(argv + ["--data", str(manifest)]) == 2
        assert f"{manifest}: need at least 3 items to split, got {rows}" in \
            capsys.readouterr().err

    def test_eval_names_the_bad_wav_of_a_manifest(self, workspace, tmp_path, capsys):
        """One unreadable WAV among a manifest's rows is a data error whose
        message names that file, not only what is wrong with it."""
        rows = dm.read_manifest(workspace / "data" / "manifest.csv")
        bad = tmp_path / "junk.wav"
        bad.write_bytes(b"junk")
        i = trainer.split_dataset(len(rows))[2][0]  # a row of the test split
        rows[i] = dataclasses.replace(rows[i], audio_path=str(bad))
        dm.write_manifest(tmp_path / "m.csv", rows)
        assert run(["eval", "--model-dir", str(workspace / "audio"),
                    "--data", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: not a RIFF/WAVE file\n"

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
        assert (f"{tmp_path / 'audio' / 'params.ntc'}: non-finite values in dense2/b"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("name", list(build_audio_net(TINY_AUDIO_CONFIG, None).params))
    def test_non_finite_parameter_names_its_tensor(self, workspace, tmp_path, capsys, name,
                                                   at, bad):
        """The one finiteness pass over params.ntc names the tensor holding
        the first bad value, at either end of every tensor."""
        net = model_io.load_net(workspace / "audio")
        net.params[name].flat[at] = bad
        model_io.save_net(tmp_path / "audio", net)
        assert run(["eval", "--model-dir", str(tmp_path / "audio"),
                    "--data", str(workspace / "data" / "manifest.csv")]) == 2
        assert (f"{tmp_path / 'audio' / 'params.ntc'}: non-finite values in {name}\n"
                in capsys.readouterr().err)

    def test_loaded_gradients_are_fresh_zeros(self, workspace):
        """Each loaded net's gradients are zero float64 C-contiguous arrays of
        their parameters' shapes, sharing no memory with any parameter."""
        nets = model_io.load_bundle(workspace / "bundle")
        params = [p for net in nets for p in net.params.values()]
        for net in nets:
            assert net.grads.keys() == net.params.keys()
            for key, g in net.grads.items():
                assert g.shape == net.params[key].shape and g.dtype == np.float64
                assert g.flags.c_contiguous and not g.any()
                assert not any(np.shares_memory(g, p) for p in params)

    def test_load_draws_no_initialization(self, workspace, monkeypatch):
        """Loading builds the architecture without a random draw that the
        files then overwrite; ``load_bundle`` checks each net's parameter
        hash against the one saved."""
        def he_uniform(*args):
            raise AssertionError("load drew an initialization")
        monkeypatch.setattr("mdnn.layers.he_uniform", he_uniform)
        assert len(model_io.load_bundle(workspace / "bundle")) == 3

    @pytest.mark.parametrize("video_dir, audio_dir, named", [
        ("audio", "video", "audio"),
        ("bundle/fusion", "audio", "bundle/fusion"),
    ], ids=["swapped", "fusion_as_video"])
    def test_train_fusion_frozen_model_of_wrong_kind(self, workspace, tmp_path, capsys,
                                                     video_dir, audio_dir, named):
        """A frozen model of another kind than its flag's is refused, naming
        its directory, before any feature is computed."""
        assert run(["train", "--model", "fusion", "--tiny", "--epochs", "1",
                    "--data", str(workspace / "data" / "manifest.csv"),
                    "--video-dir", str(workspace / video_dir),
                    "--audio-dir", str(workspace / audio_dir),
                    "--out", str(tmp_path / "o")]) == 2
        assert f"{workspace / named}: model kind is " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bundle_parts_swapped_with_their_hashes(self, workspace, tmp_path, capsys):
        """A bundle whose video and audio models trade places, hashes too,
        is refused at load, naming the part that holds the wrong kind."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workspace / "bundle", bundle)
        (bundle / "video").rename(bundle / "tmp")
        (bundle / "audio").rename(bundle / "video")
        (bundle / "tmp").rename(bundle / "audio")
        text = (bundle / "bundle.txt").read_text()
        (bundle / "bundle.txt").write_text(text.replace("video_sha256", "tmp").replace(
            "audio_sha256", "video_sha256").replace("tmp", "audio_sha256"))
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        assert run(["predict", "--model-dir", str(bundle),
                    "--video", row.video_path, "--audio", row.audio_path]) == 2
        assert (f"{bundle / 'video'}: model kind is 'audio', expected 'video'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines + ["vidoe_sha256=00"], "{path}:5: unknown key 'vidoe_sha256'"),
        (lambda lines: [ln for ln in lines if not ln.startswith("audio_sha256=")],
         "{path}: missing key 'audio_sha256'"),
    ], ids=["unknown_key", "missing_key"])
    def test_bundle_txt_keys(self, workspace, tmp_path, capsys, edit, message):
        """bundle.txt holds concat_order and one <part>_sha256 per part:
        any other key is refused, naming its line, and a missing one is
        named as missing."""
        bundle = tmp_path / "bundle"
        shutil.copytree(workspace / "bundle", bundle)
        path = bundle / "bundle.txt"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        assert run(["predict", "--model-dir", str(bundle),
                    "--video", row.video_path, "--audio", row.audio_path]) == 2
        assert message.format(path=path) in capsys.readouterr().err

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

    def test_predict_out_of_memory(self, workspace, monkeypatch, capsys):
        """An input that cannot be allocated (say, a model.txt input shape of
        1x4x100000x100000) is a data error, not a traceback.  The allocation
        is simulated: a real one could get the process killed instead."""
        def too_large(path, shape):
            raise MemoryError("Unable to allocate 298. GiB for an array")
        monkeypatch.setattr(dm, "video_input", too_large)
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", row.video_path, "--audio", row.audio_path]) == 2
        assert "error: out of memory: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(1, 0, 16, 16), (1, 4, 0, 16), (1, 4, 16, 0)],
                             ids=["no_frames", "zero_height", "zero_width"])
    def test_predict_empty_video_axis(self, workspace, tmp_path, capsys, shape):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        clip = tmp_path / "clip.ntc"
        dm.write_container(clip, np.zeros(shape))
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", str(clip), "--audio", row.audio_path]) == 2
        assert "at least one frame" in capsys.readouterr().err

    def test_save_net_of_no_kind_writes_nothing(self, tmp_path):
        """A net that no builder of ``model_io.KINDS`` made has no config and
        so no model kind: ``save_net`` refuses it before writing a file,
        rather than recording it as a fusion head that cannot load."""
        with pytest.raises(ConfigError, match="no model kind"):
            model_io.save_net(tmp_path / "d", Net([("d", Dense(6, 3))], (6,)))
        assert not (tmp_path / "d").exists()

    def test_save_bundle_of_swapped_parts_writes_nothing(self, tmp_path):
        """Audio and video nets given in each other's place are refused by
        ``save_bundle`` before its first write, not saved as a bundle that
        ``load_bundle`` then refuses."""
        vnet = build_video_net(VideoNetConfig((1, 2, 5, 5), (2, 3), 1), rng_seed=1)
        anet = build_audio_net(TINY_AUDIO_CONFIG, rng_seed=2)
        with pytest.raises(ConfigError, match="must be of kinds"):
            model_io.save_bundle(tmp_path / "b", anet, vnet, build_fusion_head(3))
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("save, stop", [("save_net", k) for k in range(3)]
                             + [("save_bundle", k) for k in range(8)]
                             + [("save_bundle_same_params", k) for k in range(8)])
    def test_interrupted_save_loads_old_new_or_neither(self, workspace, tmp_path,
                                                       monkeypatch, capsys, save, stop):
        """A save over an existing model that stops after ``stop`` of its file
        writes (2 for a model, 7 for a bundle) leaves a directory that loads
        as the old model, as the new one (all replaced), or not at all: a
        FormatError, exit 2 through the CLI; never as a mix.  The new video
        net reads 8 frames, not 4, with the same parameter shapes, so its
        model.txt alone does not change what params.ntc must hold.  In
        ``save_net`` and ``save_bundle`` every parameter changes too, so only
        a save stopped before its first write loads as old.
        ``save_bundle_same_params`` keeps the video and audio parameters and
        changes the fusion head's: its first write gives video/params.ntc the
        same bytes (old), its second the 8-frame video model.txt, which the
        old bundle.txt's hash refuses until bundle.txt is replaced."""
        if save == "save_net":  # the models as 1-tuples of nets, as bundles are 3-tuples
            target, writes, load = tmp_path / "video", 2, lambda d: (model_io.load_net(d),)
            shutil.copytree(workspace / "video", target)
        else:
            target, writes, load = tmp_path / "bundle", 7, model_io.load_bundle
            shutil.copytree(workspace / "bundle", target)
        old, new = load(target), list(load(target))
        new[0] = build_video_net(dataclasses.replace(old[0].config, input_shape=(1, 8, 16, 16)),
                                 rng_seed=None)
        for name, p in new[0].params.items():
            p[...] = old[0].params[name]
        for net in new[2:] if save == "save_bundle_same_params" else new:
            for p in net.params.values():
                p += 1.0

        def fingerprint(nets):
            return [(getattr(net, "config", None), net.param_bytes()) for net in nets]

        written, write = [], model_io._write

        def stopping_write(path, *chunks):
            if len(written) == stop:
                raise OSError("No space left on device")
            written.append(path.name)
            write(path, *chunks)

        monkeypatch.setattr(model_io, "_write", stopping_write)
        save_fn = model_io.save_net if save == "save_net" else model_io.save_bundle
        if stop < writes:
            with pytest.raises(OSError):
                save_fn(target, *new)
        else:
            save_fn(target, *new)
        assert len(written) == min(stop, writes)
        try:
            got = fingerprint(load(target))
            outcome = ("old" if got == fingerprint(old) else
                       "new" if got == fingerprint(new) else "mix")
        except FormatError:
            outcome = "refused"
            row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
            assert run(["eval", "--model-dir", str(target), "--data",
                        str(workspace / "data" / "manifest.csv")] if save == "save_net" else
                       ["predict", "--model-dir", str(target),
                        "--video", row.video_path, "--audio", row.audio_path]) == 2
            err = capsys.readouterr().err
            assert str(target) in err
            if save == "save_bundle_same_params":
                assert f"{target / 'video' / 'model.txt'}: hash mismatch with bundle.txt" in err
        unchanged = 2 if save == "save_bundle_same_params" else 1  # writes that keep old loading
        assert outcome == ("old" if stop < unchanged else "new" if stop == writes else "refused")

    @pytest.mark.parametrize("shape", [(2, 8, 16, 16), (8, 16, 16)],
                             ids=["two_channels", "rank_3"])
    def test_predict_video_shape_mismatch(self, workspace, tmp_path, capsys, shape):
        row = dm.read_manifest(workspace / "data" / "manifest.csv")[0]
        clip = tmp_path / "clip.ntc"
        dm.write_container(clip, np.random.default_rng(0).random(shape))
        assert run(["predict", "--model-dir", str(workspace / "bundle"),
                    "--video", str(clip), "--audio", row.audio_path]) == 2
        assert str(clip) in capsys.readouterr().err
