"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
Diagnostics go to stderr, results to stdout.  Every run prints its fully
resolved configuration so invocations are reproducible from the log alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import dsp, model_io, trainer
from .audio_net import (GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG,
                        AudioNetConfig, audio_forward, build_audio_net)
from .errors import (DomainError, FormatError, GradientCheckError, InputError,
                     MdnnError, TrainingError)
from .fusion import FUSION_INPUT_DIM, build_fusion_head, concat_outputs
from .ops import gradient_check
from .trainer import SplitSpec, TrainConfig
from .video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG,
                        VideoNetConfig, build_video_net, param_count,
                        video_forward)

TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _read_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(datamod.read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value")
        k, v = (s.strip() for s in line.split("=", 1))
        if k not in TRAIN_FIELDS:
            raise FormatError(f"{path}:{lineno}: unknown key {k!r}")
        out[k] = model_io.parse_field(TRAIN_FIELDS[k], v, f"{path}:{lineno}")
    return out


def _train_config(args) -> TrainConfig:
    """Config file values, overridden by explicit flags, over the defaults."""
    values = {}
    if args.config:
        values.update(_read_config_file(args.config))
    for key in TRAIN_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = TrainConfig(**values)
    print("resolved config: " + " ".join(
        f"{f.name}={getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)),
        file=sys.stderr)
    return cfg


def _model_configs(tiny: bool):
    return ((TINY_VIDEO_CONFIG, TINY_AUDIO_CONFIG) if tiny
            else (VideoNetConfig(), AudioNetConfig()))


def cmd_extract(args) -> int:
    datamod.write_container(args.outfile,
                            datamod.audio_input(args.infile, dsp.REFERENCE_FRAMES))
    print(f"wrote {args.outfile}")
    return 0


def cmd_inspect(args) -> int:
    t = datamod.read_container(args.infile)
    print(f"shape: {t.shape}")
    print(f"min: {t.min():.6g}  max: {t.max():.6g}  mean: {t.mean():.6g}")
    return 0


def cmd_synth(args) -> int:
    manifest = datamod.synth_dataset(args.n, args.kind, args.seed, args.out)
    print(f"wrote {manifest}")
    return 0


def _load_split(args, rows):
    splits = trainer.split_dataset(len(rows), SplitSpec(seed=args.split_seed))
    named = dict(zip(("train", "val", "test"), splits))
    return {k: [rows[i] for i in idx] for k, idx in named.items()}


def _task(kind: str, net, frozen=None):
    """(features(rows), forward(x, mode)) for a model of ``kind``; forward takes
    one sample or an N x ... batch of them.  ``frozen`` is the (video, audio)
    pair whose outputs a fusion head reads."""
    if kind == "video":
        return ((lambda rows: trainer.video_features(rows, net.config)),
                lambda x, mode="eval": video_forward(net, x, mode))
    if kind == "audio":
        return ((lambda rows: trainer.audio_features(rows, net.config)),
                lambda x, mode="eval": audio_forward(net, x, mode))
    return ((lambda rows: trainer.fusion_features(rows, *frozen)),
            lambda x, mode="eval": net.run(x, (FUSION_INPUT_DIM,), mode))


def cmd_train(args) -> int:
    cfg = dataclasses.replace(_train_config(args), rng_seed=args.seed)
    parts = _load_split(args, datamod.read_manifest(args.data))
    video_cfg, audio_cfg = _model_configs(args.tiny)
    out = Path(args.out)

    frozen = None
    if args.model == "video":
        net = build_video_net(video_cfg, rng_seed=cfg.rng_seed)
    elif args.model == "audio":
        net = build_audio_net(audio_cfg, rng_seed=cfg.rng_seed)
    else:
        frozen = (model_io.load_net(args.video_dir), model_io.load_net(args.audio_dir))
        net = build_fusion_head(rng_seed=cfg.rng_seed)
    features, forward = _task(args.model, net, frozen)
    sets = {k: trainer.paired(features(rows), rows) for k, rows in parts.items()}
    loss_kind = "sigmoid" if args.model == "audio" else "onehot"
    logs = trainer.train_net(net, sets["train"], sets["val"], cfg,
                             forward_fn=forward, loss_kind=loss_kind)
    if frozen:
        model_io.save_bundle(out, *frozen, net)
    else:
        model_io.save_net(out, net)
    trainer.write_epoch_log_csv(out / "epochs.csv", logs)
    last = logs[-1]
    print(f"final train_loss={last.train_loss:.6f} val_accuracy={last.val_accuracy}")
    return 0


def _print_report(prefix, r: trainer.MetricsReport):
    def fmt(v):
        return "undefined" if v is None else f"{v:.4f}"
    print(f"{prefix} accuracy={fmt(r.accuracy)} precision={fmt(r.precision)} "
          f"recall={fmt(r.recall)} (tp={r.tp} fp={r.fp} fn={r.fn} tn={r.tn})")


def cmd_eval(args) -> int:
    rows = datamod.read_manifest(args.data)
    part = _load_split(args, rows)[args.split]
    model_dir = Path(args.model_dir)
    frozen = None
    if (model_dir / "bundle.txt").exists():
        vnet, anet, net = model_io.load_bundle(model_dir)
        frozen = (vnet, anet)
    else:
        net = model_io.load_net(model_dir)
        if model_io.model_kind(net) == "fusion":
            raise FormatError(f"{model_dir}: a fusion head is evaluated through "
                              "its bundle directory, the parent of this one")
    features, forward = _task(model_io.model_kind(net), net, frozen)
    report = trainer.evaluate(forward, trainer.paired(features(part), part))
    _print_report(f"{args.split}:", report)
    return 0


def cmd_predict(args) -> int:
    vnet, anet, fnet = model_io.load_bundle(args.model_dir)
    yv = video_forward(vnet, datamod.video_input(args.video, vnet.config.input_shape))
    ya = audio_forward(anet, datamod.audio_input(args.audio, anet.config.input_shape[0]))
    p = fnet.forward(concat_outputs(yv, ya), mode="eval")
    label = int(np.argmax(p))
    print(f"label: {label} ({'positive' if label == 1 else 'negative'})")
    print(f"y_video: [{yv[0]:.6f}, {yv[1]:.6f}]")
    print(f"y_audio: [{ya[0]:.6f}, {ya[1]:.6f}]")
    print(f"fused:   [{p[0]:.6f}, {p[1]:.6f}]")
    return 0


def cmd_param_count(args) -> int:
    video_cfg, _ = _model_configs(args.tiny)
    net = build_video_net(video_cfg, rng_seed=0)
    factored = param_count(net, "factored")
    full = param_count(net, "full3d_equivalent")
    print(f"factored weights:         {factored}")
    print(f"full-3D equivalent:       {full}")
    print(f"ratio:                    {factored / full:.4f}")
    return 0


def cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(7)
    if args.model == "audio":
        net = build_audio_net(GRADCHECK_AUDIO_CONFIG, rng_seed=1)
        x = rng.standard_normal((1,) + GRADCHECK_AUDIO_CONFIG.input_shape[:2])
    elif args.model == "video":
        net = build_video_net(GRADCHECK_VIDEO_CONFIG, rng_seed=1)
        x = rng.random(GRADCHECK_VIDEO_CONFIG.input_shape)
    else:
        net = build_fusion_head(rng_seed=1)
        x = rng.uniform(0.05, 0.95, 4)
    net.jitter(11)
    report = gradient_check(net, x, tolerance=1e-4)
    for name, err in report["per_tensor"].items():
        print(f"{name:32s} max_rel_err={err:.3e}")
    print(f"max over tensors: {report['max_rel_err']:.3e} "
          f"({'PASS' if report['ok'] else 'FAIL'})")
    if not report["ok"]:
        raise GradientCheckError(f"max relative error {report['max_rel_err']:.3e} "
                                 f"exceeds {report['tolerance']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mdnn",
                                description="multimodal late-fusion classifier toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("extract", help="WAV -> MFCC tensor container")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", dest="outfile", required=True)
    s.set_defaults(fn=cmd_extract)

    s = sub.add_parser("inspect", help="print shape and value range of a container")
    s.add_argument("--in", dest="infile", required=True)
    s.set_defaults(fn=cmd_inspect)

    s = sub.add_parser("synth", help="generate a synthetic dataset")
    s.add_argument("--kind", choices=["separable", "complementary"], required=True)
    s.add_argument("--n", type=int, required=True, help="samples per class")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_synth)

    s = sub.add_parser("train", help="train one model")
    s.add_argument("--model", choices=["video", "audio", "fusion"], required=True)
    s.add_argument("--data", required=True, help="manifest CSV")
    s.add_argument("--config", help="key=value training config file")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--split-seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--tiny", action="store_true", help="use the small test architectures")
    s.add_argument("--epochs", type=int)
    s.add_argument("--batch-size", dest="batch_size", type=int,
                   help="samples per minibatch (default 8); each minibatch runs as one "
                        "forward and one backward pass whose layer caches hold every "
                        "sample, so peak memory grows with it")
    s.add_argument("--learning-rate", dest="learning_rate", type=float)
    s.add_argument("--regularization", choices=["none", "L1", "L2"])
    s.add_argument("--reg-lambda", dest="reg_lambda", type=float)
    s.add_argument("--video-dir", help="frozen video model (fusion training)")
    s.add_argument("--audio-dir", help="frozen audio model (fusion training)")
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("eval", help="evaluate a model directory on a split")
    s.add_argument("--model-dir", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--split", choices=["train", "val", "test"], default="test")
    s.add_argument("--split-seed", type=int, default=0)
    s.set_defaults(fn=cmd_eval)

    s = sub.add_parser("predict", help="classify one video/audio pair")
    s.add_argument("--model-dir", required=True, help="fusion bundle directory")
    s.add_argument("--video", required=True, help="frame tensor container")
    s.add_argument("--audio", required=True, help="WAV file")
    s.set_defaults(fn=cmd_predict)

    s = sub.add_parser("param-count", help="factored vs full-3D weight counts")
    s.add_argument("--tiny", action="store_true")
    s.set_defaults(fn=cmd_param_count)

    s = sub.add_parser("gradcheck", help="finite-difference gradient check")
    s.add_argument("--model", choices=["audio", "video", "fusion"], required=True)
    s.add_argument("--tiny", action="store_true",
                   help="accepted for symmetry; gradcheck always uses small models")
    s.set_defaults(fn=cmd_gradcheck)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        if args.fn is cmd_train and args.model == "fusion" and not (
                args.video_dir and args.audio_dir):
            parser.error("fusion training requires --video-dir and --audio-dir")
        return args.fn(args)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    except (FormatError, InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingError, GradientCheckError, DomainError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MdnnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
