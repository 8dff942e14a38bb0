"""Model persistence: one tensor container per parameter plus text manifests.

A model directory holds ``model.txt`` (kind + architecture as key=value
lines), ``params.txt`` (parameter names in serialization order) and one
``.ntc`` file per parameter.  A fusion bundle is a directory with the three
model subdirectories and ``bundle.txt`` recording the concatenation order and
a SHA-256 of each sub-model's parameter bytes, so frozen-sub-model integrity
is checkable at load time.  ``read_kv`` reads every key=value file of the
program, training config files included.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from .audio_net import AudioNetConfig, build_audio_net
from .data import read_container, read_text, write_container
from .errors import ConfigError, FormatError, ParameterError
from .fusion import CONCAT_ORDER, build_fusion_head
from .layers import Net
from .video_net import VideoNetConfig, build_video_net


def _kv_write(path, mapping: dict):
    with open(path, "w") as f:
        for k, v in mapping.items():
            f.write(f"{k}={v}\n")


def read_kv(path) -> dict[str, tuple[str, int]]:
    """key -> (value, line number) of each key=value line of the text file
    ``path``, both sides stripped; blank lines and ``#`` comments are skipped.
    A line without ``=``, or a key given twice, is a FormatError naming the
    line (and the first, for a repeat).  The one reader of ``model.txt``,
    ``bundle.txt`` and training config files."""
    out = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in out:
            raise FormatError(f"{path}:{lineno}: key {key!r} repeats line {out[key][1]}")
        out[key] = value, lineno
    return out


def _check_keys(lines: dict, keys, path):
    """FormatError for a key of ``read_kv(path)``'s ``lines`` not in ``keys``, or one missing."""
    for key in [*lines, *keys]:  # every key given, then every key wanted
        if key not in keys:
            raise FormatError(f"{path}:{lines[key][1]}: unknown key {key!r}")
        if key not in lines:
            raise FormatError(f"{path}: missing key {key!r}")


def parse_fields(fields, lines: dict, path) -> dict:
    """The values of ``read_kv(path)``'s ``lines`` as the dataclass
    ``fields``, each of the type of its default: a tuple default reads as
    x-joined ints, any other as its own type (int, float or str).  A key that
    is not one of the fields, or a value of the wrong type, is a FormatError
    naming its line."""
    fields = {f.name: f for f in fields}
    out = {}
    for key, (text, lineno) in lines.items():
        field, where = fields.get(key), f"{path}:{lineno}"
        if field is None:
            raise FormatError(f"{where}: unknown key {key!r}")
        try:
            if isinstance(field.default, tuple):
                out[key] = tuple(int(p) for p in text.split("x"))
            else:
                out[key] = type(field.default)(text)
        except ValueError:
            raise FormatError(f"{where}: {key}={text!r} is not a valid "
                              f"{type(field.default).__name__}") from None
    return out


# model kind -> (config dataclass, builder); a net without a config is a fusion head
_KINDS = {"audio": (AudioNetConfig, build_audio_net),
          "video": (VideoNetConfig, build_video_net)}
_PARTS = ("video", "audio", "fusion")  # a bundle's model subdirectories


def model_kind(net: Net) -> str:
    cfg = getattr(net, "config", None)
    return next((k for k, (cls, _) in _KINDS.items() if isinstance(cfg, cls)), "fusion")


def _arch_mapping(net: Net) -> dict:
    out = {"kind": model_kind(net)}
    cfg = getattr(net, "config", None)
    for f in dataclasses.fields(cfg) if cfg is not None else ():
        value = getattr(cfg, f.name)  # a tuple as x-joined ints, as parse_fields reads it
        out[f.name] = "x".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return out


def _build_from_lines(lines: dict, path) -> Net:
    """The net a model.txt's ``read_kv`` lines describe, its parameters left
    at zero (no random draw) for ``load_net`` to fill."""
    kind = lines.pop("kind", (None,))[0]
    if kind == "fusion":
        _check_keys(lines, (), path)  # a fusion head has no other key
        return build_fusion_head(rng_seed=None)
    if kind not in _KINDS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    cls, build = _KINDS[kind]
    _check_keys(lines, [f.name for f in dataclasses.fields(cls)], path)
    try:
        return build(cls(**parse_fields(dataclasses.fields(cls), lines, path)), rng_seed=None)
    except (ConfigError, ParameterError) as e:
        raise FormatError(f"{path}: {e}") from None


def _param_filename(name: str) -> str:
    return name.replace("/", "__").replace(".", "-") + ".ntc"


def param_sha256(net: Net) -> str:
    return hashlib.sha256(net.param_bytes()).hexdigest()


def save_net(directory, net: Net):
    """Write ``net`` into ``directory``, over any model already there.
    ``params.txt`` is the commit marker: it is removed first and written
    last, so a save that stops part way leaves a directory ``load_net``
    refuses, never a mix of two models."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "params.txt").unlink(missing_ok=True)
    _kv_write(directory / "model.txt", _arch_mapping(net))
    names = list(net.params)
    for name in names:
        write_container(directory / _param_filename(name), net.params[name])
    (directory / "params.txt").write_text("".join(n + "\n" for n in names))


def load_net(directory) -> Net:
    directory = Path(directory)
    path = directory / "model.txt"
    net = _build_from_lines(read_kv(path), path)
    names = read_text(directory / "params.txt").split()
    if names != list(net.params):
        raise FormatError(f"{directory}: parameter list does not match architecture")
    for name in names:
        path = directory / _param_filename(name)
        value, param = read_container(path), net.params[name]
        if value.shape != param.shape:
            raise FormatError(f"{path}: shape {value.shape} does not match the "
                              f"architecture's {param.shape}")
        if not np.all(np.isfinite(value)):
            raise FormatError(f"{path}: non-finite parameter values")
        param[...] = value
    return net


def load_part(directory, part: str) -> Net:
    """``load_net``, refusing a model of any kind but ``part`` (``model_kind``)."""
    net = load_net(directory)
    if model_kind(net) != part:
        raise FormatError(f"{directory}: model kind is {model_kind(net)!r}, expected {part!r}")
    return net


def save_bundle(directory, video_net: Net, audio_net: Net, fusion_net: Net):
    directory = Path(directory)
    nets = dict(zip(_PARTS, (video_net, audio_net, fusion_net)))
    for part, net in nets.items():
        save_net(directory / part, net)
    _kv_write(directory / "bundle.txt", {"concat_order": ",".join(CONCAT_ORDER)}
              | {f"{part}_sha256": param_sha256(net) for part, net in nets.items()})


def load_bundle(directory):
    directory, path = Path(directory), Path(directory) / "bundle.txt"
    meta = read_kv(path)  # key -> (value, line number)
    _check_keys(meta, ["concat_order"] + [f"{part}_sha256" for part in _PARTS], path)
    if meta["concat_order"][0] != ",".join(CONCAT_ORDER):
        raise FormatError(f"{directory}: unexpected concat order {meta['concat_order'][0]!r}")
    nets = {}
    for part in _PARTS:
        nets[part] = load_part(directory / part, part)
        if param_sha256(nets[part]) != meta[f"{part}_sha256"][0]:
            raise FormatError(f"{directory}: {part} parameter hash mismatch")
    return tuple(nets.values())
