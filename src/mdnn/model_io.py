"""Model persistence: one tensor container per parameter plus text manifests.

A model directory holds ``model.txt`` (kind + architecture as key=value
lines), ``params.txt`` (parameter names in serialization order) and one
``.ntc`` file per parameter.  A fusion bundle is a directory with the three
model subdirectories and ``bundle.txt`` recording the concatenation order and
a SHA-256 of each sub-model's parameter bytes, so frozen-sub-model integrity
is checkable at load time.
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


def _kv_read(path) -> dict:
    out = {}
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FormatError(f"{path}: expected key=value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _format_field(value) -> str:
    """A config field value as model.txt and config files spell it."""
    return "x".join(map(str, value)) if isinstance(value, tuple) else str(value)


def parse_field(field: dataclasses.Field, text: str, where) -> object:
    """Parse ``text`` as the type of ``field``'s default: a tuple default reads
    as x-joined ints, any other as its own type (int, float or str)."""
    try:
        if isinstance(field.default, tuple):
            return tuple(int(p) for p in text.split("x"))
        return type(field.default)(text)
    except ValueError:
        raise FormatError(f"{where}: {field.name}={text!r} is not a valid "
                          f"{type(field.default).__name__}") from None


# model kind -> (config dataclass, builder); a net without a config is a fusion head
_KINDS = {"audio": (AudioNetConfig, build_audio_net),
          "video": (VideoNetConfig, build_video_net)}


def model_kind(net: Net) -> str:
    cfg = getattr(net, "config", None)
    return next((k for k, (cls, _) in _KINDS.items() if isinstance(cfg, cls)), "fusion")


def _arch_mapping(net: Net) -> dict:
    out = {"kind": model_kind(net)}
    cfg = getattr(net, "config", None)
    if cfg is not None:
        out.update((f.name, _format_field(getattr(cfg, f.name)))
                   for f in dataclasses.fields(cfg))
    return out


def _build_from_mapping(m: dict, where) -> Net:
    kind = m.get("kind")
    if kind == "fusion":
        return build_fusion_head(rng_seed=0)
    if kind not in _KINDS:
        raise FormatError(f"{where}: unknown model kind {kind!r}")
    cls, build = _KINDS[kind]
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in m:
            raise FormatError(f"{where}: missing key {f.name!r}")
        kwargs[f.name] = parse_field(f, m[f.name], where)
    try:
        return build(cls(**kwargs), rng_seed=0)
    except (ConfigError, ParameterError) as e:
        raise FormatError(f"{where}: {e}") from None


def _param_filename(name: str) -> str:
    return name.replace("/", "__").replace(".", "-") + ".ntc"


def param_sha256(net: Net) -> str:
    return hashlib.sha256(net.param_bytes()).hexdigest()


def save_net(directory, net: Net):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _kv_write(directory / "model.txt", _arch_mapping(net))
    names = list(net.params)
    (directory / "params.txt").write_text("".join(n + "\n" for n in names))
    for name in names:
        write_container(directory / _param_filename(name), net.params[name])


def load_net(directory) -> Net:
    directory = Path(directory)
    net = _build_from_mapping(_kv_read(directory / "model.txt"), directory / "model.txt")
    names = read_text(directory / "params.txt").split()
    if names != list(net.params):
        raise FormatError(f"{directory}: parameter list does not match architecture")
    for name in names:
        path = directory / _param_filename(name)
        value = read_container(path)
        if not np.all(np.isfinite(value)):
            raise FormatError(f"{path}: non-finite parameter values")
        net.set_param(name, value)
    net.zero_grad()
    return net


def save_bundle(directory, video_net: Net, audio_net: Net, fusion_net: Net):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_net(directory / "video", video_net)
    save_net(directory / "audio", audio_net)
    save_net(directory / "fusion", fusion_net)
    _kv_write(directory / "bundle.txt", {
        "concat_order": ",".join(CONCAT_ORDER),
        "video_sha256": param_sha256(video_net),
        "audio_sha256": param_sha256(audio_net),
        "fusion_sha256": param_sha256(fusion_net),
    })


def load_bundle(directory):
    directory = Path(directory)
    meta = _kv_read(directory / "bundle.txt")
    if meta.get("concat_order") != ",".join(CONCAT_ORDER):
        raise FormatError(f"{directory}: unexpected concat order {meta.get('concat_order')!r}")
    nets = {}
    for part in ("video", "audio", "fusion"):
        nets[part] = load_net(directory / part)
        digest = param_sha256(nets[part])
        if digest != meta.get(f"{part}_sha256"):
            raise FormatError(f"{directory}: {part} parameter hash mismatch")
    return nets["video"], nets["audio"], nets["fusion"]
