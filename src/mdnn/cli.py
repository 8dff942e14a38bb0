"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
``run`` sets every exit code: a command returns nothing, and ``run`` maps
its success to 0 and each error it raises to that error's code.
An input too large to fit in memory (a ``MemoryError``) is a data error, exit 2.
Diagnostics go to stderr, results to stdout.  Every run prints its fully
resolved configuration so invocations are reproducible from the log alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import data as datamod
from . import dsp, model_io, trainer
from .audio_net import GRADCHECK_AUDIO_CONFIG, TINY_AUDIO_CONFIG, build_audio_net
from .errors import (ConfigError, DomainError, FormatError, GradientCheckError,
                     InputError, MdnnError, TrainingError)
from .fusion import CONCAT_ORDER, build_fusion_head
from .ops import gradient_check
from .trainer import SplitSpec, TrainConfig
from .video_net import (GRADCHECK_VIDEO_CONFIG, TINY_VIDEO_CONFIG,
                        VideoNetConfig, build_video_net, param_count)

def _read_config_file(path) -> dict:
    return model_io.parse_fields(dataclasses.fields(TrainConfig), model_io.read_kv(path), path)


def _train_config(args) -> TrainConfig:
    """Config file values, overridden by each field's flag, over the defaults."""
    values = _read_config_file(args.config) if args.config else {}
    fields = dataclasses.fields(TrainConfig)
    for f in fields:
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = flag
    cfg = TrainConfig(**values)
    print("resolved config: " + " ".join(f"{f.name}={getattr(cfg, f.name)}" for f in fields),
          file=sys.stderr)
    return cfg


def cmd_extract(args):
    datamod.write_container(args.outfile,
                            datamod.audio_input(args.infile, dsp.REFERENCE_FRAMES))
    print(f"wrote {args.outfile}")


def cmd_inspect(args):
    t = datamod.read_container(args.infile)
    print(f"shape: {t.shape}")
    if t.size == 0:
        print("no values")
        return
    finite = t[np.isfinite(t)]
    if t.size > finite.size:
        print(f"non-finite: nan={np.count_nonzero(np.isnan(t))} "
              f"+inf={np.count_nonzero(t == np.inf)} -inf={np.count_nonzero(t == -np.inf)}")
    if finite.size:
        # a sum of x / n cannot overflow where the sum of x would
        mean = np.sum(finite / finite.size)
        print(f"min: {finite.min():.6g}  max: {finite.max():.6g}  mean: {mean:.6g}")


def cmd_synth(args):
    manifest = datamod.synth_dataset(args.n, args.kind, args.seed, args.out)
    print(f"wrote {manifest}")


def _load_split(args, rows):
    spec = SplitSpec(seed=args.split_seed)  # a negative seed is a usage error
    try:
        splits = trainer.split_dataset(len(rows), spec)
    except ConfigError as e:  # too few rows: the manifest is at fault
        raise FormatError(f"{args.data}: {e}") from e
    named = dict(zip(("train", "val", "test"), splits))
    return {k: [rows[i] for i in idx] for k, idx in named.items()}


def _pairs(kind: str, rows, net, frozen=None) -> list:
    """(input, onehot label) pairs of manifest ``rows`` for a model of ``kind``;
    ``frozen`` is the (video, audio) pair whose outputs a fusion head reads."""
    if kind == "fusion":
        return trainer.paired(trainer.fusion_features(rows, *frozen), rows)
    features = trainer.video_features if kind == "video" else trainer.audio_features
    return trainer.paired(features(rows, net.config), rows)


def cmd_train(args):
    cfg = _train_config(args)
    parts = _load_split(args, datamod.read_manifest(args.data))
    out = Path(args.out)

    frozen = None
    if args.model == "fusion":
        frozen = tuple(map(model_io.load_part, (args.video_dir, args.audio_dir), CONCAT_ORDER))
    cls, build = model_io.KINDS[args.model]  # the paper's architecture, or --tiny's
    tiny = {"video": TINY_VIDEO_CONFIG, "audio": TINY_AUDIO_CONFIG} if args.tiny else {}
    net = build(config=tiny.get(args.model, cls()), rng_seed=cfg.rng_seed)
    sets = {k: _pairs(args.model, rows, net, frozen) for k, rows in parts.items()}
    logs = trainer.train_net(net, sets["train"], sets["val"], cfg)
    if frozen:
        model_io.save_bundle(out, *frozen, net)
    else:
        model_io.save_net(out, net)
    trainer.write_epoch_log_csv(out / "epochs.csv", logs)
    last = logs[-1]
    print(f"final train_loss={last.train_loss:.6f} val_accuracy={last.val_accuracy}")


def _print_report(prefix, r: trainer.MetricsReport):
    def fmt(v):
        return "undefined" if v is None else f"{v:.4f}"
    print(f"{prefix} accuracy={fmt(r.accuracy)} precision={fmt(r.precision)} "
          f"recall={fmt(r.recall)} (tp={r.tp} fp={r.fp} fn={r.fn} tn={r.tn})")


def cmd_eval(args):
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
    report = trainer.evaluate(net.run, _pairs(model_io.model_kind(net), part, net, frozen))
    _print_report(f"{args.split}:", report)


def cmd_predict(args):
    vnet, anet, fnet = model_io.load_bundle(args.model_dir)
    # the eval path's features of one row; its label is not read
    x, = trainer.fusion_features([datamod.ManifestRow(args.video, args.audio, 0)], vnet, anet)
    p = fnet.run(x)
    label = int(np.argmax(p))
    yv, ya = x[:2], x[2:]
    print(f"label: {label} ({'positive' if label == 1 else 'negative'})")
    print(f"y_video: [{yv[0]:.6f}, {yv[1]:.6f}]")
    print(f"y_audio: [{ya[0]:.6f}, {ya[1]:.6f}]")
    print(f"fused:   [{p[0]:.6f}, {p[1]:.6f}]")


def cmd_param_count(args):
    config = TINY_VIDEO_CONFIG if args.tiny else VideoNetConfig()
    net = build_video_net(config=config, rng_seed=None)  # counts need no values
    factored = param_count(net, "factored")
    full = param_count(net, "full3d_equivalent")
    print(f"factored weights:         {factored}")
    print(f"full-3D equivalent:       {full}")
    print(f"ratio:                    {factored / full:.4f}")


def cmd_gradcheck(args):
    rng = np.random.default_rng(7)
    if args.model == "audio":
        net = build_audio_net(config=GRADCHECK_AUDIO_CONFIG, rng_seed=1)
        x = rng.standard_normal(net.input_shape)
    elif args.model == "video":
        net = build_video_net(config=GRADCHECK_VIDEO_CONFIG, rng_seed=1)
        x = rng.random(net.input_shape)
    else:
        net = build_fusion_head(rng_seed=1)
        x = rng.uniform(0.05, 0.95, net.input_shape)
    net.jitter(11)
    report = gradient_check(net, x, tolerance=1e-4)
    for name, err in report["per_tensor"].items():
        print(f"{name:32s} max_rel_err={err:.3e}")
    print(f"max over tensors: {report['max_rel_err']:.3e} "
          f"({'PASS' if report['ok'] else 'FAIL'})")
    if not report["ok"]:
        raise GradientCheckError(f"max relative error {report['max_rel_err']:.3e} "
                                 f"exceeds {report['tolerance']}")


@functools.cache  # one parser per process; parse_args keeps no state between calls
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
    s.add_argument("--seed", dest="rng_seed", type=int,
                   help="seed of initialisation, dropout and shuffling (default 0)")
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
    s.set_defaults(fn=cmd_gradcheck)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.fn is cmd_train and args.model == "fusion" and not (
                args.video_dir and args.audio_dir):
            parser.error("fusion training requires --video-dir and --audio-dir")
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # underflow is fine
            args.fn(args)
        return 0
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    except (FormatError, InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (TrainingError, GradientCheckError, DomainError, FloatingPointError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except MdnnError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
