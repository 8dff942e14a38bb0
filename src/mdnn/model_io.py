"""Model persistence: one parameter container and one text record per model.

A model directory holds ``params.ntc``, a rank-1 container of every
parameter in namespace order (its payload is ``Net.param_bytes()``; the
shapes come from the architecture), and ``model.txt``, the commit record:
kind and architecture, then ``params`` (the names, comma-joined) and
``params_sha256`` (of the payload), as key=value lines.  ``KINDS`` names the
kind of each builder's config, whose fields are the architecture (the fusion
head's ``FusionHeadConfig`` has none); ``save_net`` writes no net of no kind.
A fusion bundle holds a model directory per kind and ``bundle.txt``: the
concatenation order and the SHA-256 of each part's ``model.txt``, which
covers the part whole.
``read_kv`` reads every key=value file, config files included.

Each file is written to ``<name>.tmp``, then moved onto its name with
``os.replace``: ``params.ntc``, then ``model.txt``; a bundle's three parts,
then ``bundle.txt``.  A save stopped by an exception or a kill loads as the
old model, the new one, or not at all (FormatError): a newer ``params.ntc``
fails the old ``model.txt``'s hash, a newer part the old ``bundle.txt``'s.
No ``fsync`` is done, so a power loss is not covered.  Earlier layouts (one
``.ntc`` file per parameter, or a ``params.txt``) do not load: save again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np

from .audio_net import AudioNetConfig, build_audio_net
from .data import container_header, read_container, read_text
from .errors import ConfigError, FormatError
from .fusion import CONCAT_ORDER, FusionHeadConfig, build_fusion_head
from .layers import Net
from .video_net import VideoNetConfig, build_video_net


def _write(path: Path, *chunks: bytes):
    """Write ``chunks`` to ``<name>.tmp`` beside ``path``, then move it onto
    ``path``: the file is always whole, old or new.  Every save writes here."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.writelines(chunks)
    os.replace(tmp, path)


def _lines_bytes(lines) -> bytes:
    return "".join(f"{line}\n" for line in lines).encode()


def read_kv(path, text: str | None = None) -> dict[str, tuple[str, int]]:
    """key -> (value, line number) of each key=value line of the text file
    ``path`` (or of its ``text``, if read), both sides stripped; blank lines
    and ``#`` comments are skipped.
    A line without ``=``, or a key given twice, is a FormatError naming the
    line (and the first, for a repeat).  The one reader of ``model.txt``,
    ``bundle.txt`` and training config files."""
    out = {}
    text = read_text(path) if text is None else text
    for lineno, line in enumerate(text.splitlines(), 1):
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


# model kind -> (config dataclass, builder), in bundle order: a bundle's
# model subdirectories are the kinds
KINDS = {"video": (VideoNetConfig, build_video_net),
         "audio": (AudioNetConfig, build_audio_net),
         "fusion": (FusionHeadConfig, build_fusion_head)}


def model_kind(net: Net) -> str:
    """The ``KINDS`` key of ``net.config``; ConfigError for a net of no kind."""
    for kind, (cls, _) in KINDS.items():
        if isinstance(net.config, cls):
            return kind
    raise ConfigError(f"a net of config {net.config!r} is of no model kind {tuple(KINDS)}")


def _model_txt(net: Net, payload: bytes) -> bytes:
    """``model.txt``'s bytes: kind, architecture, parameter names, payload hash."""
    out = {"kind": model_kind(net)}
    for f in dataclasses.fields(net.config):
        value = getattr(net.config, f.name)  # a tuple as x-joined ints, as parse_fields reads it
        out[f.name] = "x".join(map(str, value)) if isinstance(value, tuple) else str(value)
    out.update(params=",".join(net.params), params_sha256=hashlib.sha256(payload).hexdigest())
    return _lines_bytes(map("=".join, out.items()))


def _build_from_lines(lines: dict, path, tensors: int) -> Net:
    """The net a model.txt's ``read_kv`` lines describe, its parameters left
    at zero (no random draw) for ``load_net`` to fill.  A video architecture
    of more parameter tensors than ``tensors``, the ``params=`` name count,
    is refused before it is built, since building takes time and memory
    linear in its blocks: each residual block holds at least 8 tensors, and
    the stem and head 6."""
    kind = lines.pop("kind", (None,))[0]
    if kind not in KINDS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    cls, build = KINDS[kind]
    _check_keys(lines, [f.name for f in dataclasses.fields(cls)], path)
    try:
        config = cls(**parse_fields(dataclasses.fields(cls), lines, path))
    except ConfigError as e:
        raise FormatError(f"{path}: {e}") from None
    if kind == "video" and 8 * config.blocks_per_stage * len(config.stage_channels) + 6 > tensors:
        raise FormatError(f"{path}:{lines['blocks_per_stage'][1]}: blocks_per_stage="
                          f"{config.blocks_per_stage} needs more parameter tensors than "
                          f"the {tensors} params= names")
    return build(config=config, rng_seed=None)


def save_net(directory, net: Net) -> str:
    """Write ``net`` into ``directory``, over any model already there, and
    return the SHA-256 of its ``model.txt``; the module docstring has the order.
    A net of no kind (``model_kind``) is refused before anything is written."""
    directory = Path(directory)
    payload = net.param_bytes()
    record = _model_txt(net, payload)
    directory.mkdir(parents=True, exist_ok=True)
    _write(directory / "params.ntc", container_header((len(payload) // 8,)), payload)
    _write(directory / "model.txt", record)
    return hashlib.sha256(record).hexdigest()


def load_net(directory, model_sha256: str | None = None) -> Net:
    """The net ``model.txt`` describes, filled from ``params.ntc`` once its
    names, value count and SHA-256 match ``model.txt``'s; a ``model_sha256``
    must be that of the ``model.txt`` bytes.  Each file is read once.  One
    finiteness pass over the payload names the tensor of the first non-finite
    value; then each tensor is copied into the array the architecture
    allocated."""
    directory = Path(directory)
    path, ntc = directory / "model.txt", directory / "params.ntc"
    text = read_text(path)  # strict UTF-8, so text.encode() is the file's bytes
    if model_sha256 is not None and hashlib.sha256(text.encode()).hexdigest() != model_sha256:
        raise FormatError(f"{path}: hash mismatch with bundle.txt")
    if not ntc.exists():
        raise FormatError(f"{ntc}: missing; a directory of one .ntc file per "
                          "parameter is the earlier layout: save the model again")
    lines = read_kv(path, text)
    _check_keys(lines, [*lines, "params", "params_sha256"], path)  # both present
    (names, lineno), (digest, _) = lines.pop("params"), lines.pop("params_sha256")
    names = names.split(",")
    net = _build_from_lines(lines, path, len(names))
    if names != list(net.params):
        raise FormatError(f"{path}:{lineno}: expected params= the architecture's "
                          "parameter names, comma-joined in order")
    values = read_container(ntc)
    ends = np.cumsum([p.size for p in net.params.values()])
    if values.shape != (ends[-1],):
        raise FormatError(f"{ntc}: shape {values.shape}, expected ({ends[-1]},), "
                          "the architecture's value count")
    if hashlib.sha256(values).hexdigest() != digest:
        raise FormatError(f"{ntc}: parameter hash mismatch with model.txt")
    finite = np.isfinite(values)
    if not finite.all():  # name the tensor holding the first non-finite value
        first = int(np.argmin(finite))
        name = list(net.params)[np.searchsorted(ends, first, side="right")]
        raise FormatError(f"{ntc}: non-finite values in {name}")
    for param, end in zip(net.params.values(), ends):
        param[...] = values[end - param.size:end].reshape(param.shape)
    return net


def load_part(directory, part: str, model_sha256: str | None = None) -> Net:
    """``load_net``, refusing a model of any kind but ``part`` (``model_kind``)."""
    net = load_net(directory, model_sha256)
    if model_kind(net) != part:
        raise FormatError(f"{directory}: model kind is {model_kind(net)!r}, expected {part!r}")
    return net


def save_bundle(directory, video_net: Net, audio_net: Net, fusion_net: Net):
    directory = Path(directory)
    nets = list(zip(KINDS, (video_net, audio_net, fusion_net)))
    if [model_kind(net) for _, net in nets] != list(KINDS):  # before the first write
        raise ConfigError(f"the bundle's parts must be of kinds {list(KINDS)}, in that order")
    hashes = [f"{part}_sha256={save_net(directory / part, net)}" for part, net in nets]
    _write(directory / "bundle.txt", _lines_bytes([f"concat_order={','.join(CONCAT_ORDER)}",
                                                   *hashes]))


def load_bundle(directory):
    """The three parts of the bundle in ``directory``, each refused unless the
    SHA-256 of its ``model.txt`` is ``bundle.txt``'s for that part."""
    directory, path = Path(directory), Path(directory) / "bundle.txt"
    meta = read_kv(path)  # key -> (value, line number)
    _check_keys(meta, ["concat_order"] + [f"{part}_sha256" for part in KINDS], path)
    if meta["concat_order"][0] != ",".join(CONCAT_ORDER):
        raise FormatError(f"{directory}: unexpected concat order {meta['concat_order'][0]!r}")
    return tuple(load_part(directory / part, part, meta[f"{part}_sha256"][0]) for part in KINDS)
