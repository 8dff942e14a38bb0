"""Tracing from outside the program: timing shims on mdnn's public functions
and on the ``forward``/``backward`` of every ``Net`` and ``Net`` layer.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each public function of the traced modules with a shim, on *every* module
attribute bound to that function, because ``cli``, ``fusion`` and
``trainer`` import functions by name and patching only the defining module
would miss their calls.  Nets returned by a shimmed function while tracing is
on get their ``forward``/``backward``/``zero_grad`` and their layers'
``forward``/``backward`` wrapped on the instance.

A span is ``[name, start, end, parent, op, tag, extra]``: ``op`` is the
operation index (-1 for set-up, -2 for tear-down), ``tag`` the net kind or
forward mode, ``extra`` a computed count (FLOPs or bytes).  Spans are kept in
memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

import flops

MODULES = ("cli", "model_io", "data", "dsp", "audio_net", "video_net",
           "fusion", "trainer", "layers", "ops")

SETUP_OP = -1
TEARDOWN_OP = -2


def net_kind(net) -> str:
    """'video', 'audio' or 'fusion', from the type of the net's config."""
    name = type(getattr(net, "config", None)).__name__
    if name.startswith("Video"):
        return "video"
    if name.startswith("Audio"):
        return "audio"
    return "fusion"


# Computed work per call, from argument and result shapes only ("computed",
# never measured).  Each hook returns a number or None.

def _conv2d_flop(args, kwargs, result):
    w = np.shape(args[1])
    return 2.0 * math.prod(w) * (np.size(result) / w[0])


def _conv2d_backward_flop(args, kwargs, result):
    # grad_weights and grad_cols are each one GEMM of the forward's size
    w = np.shape(args[2])
    return 4.0 * math.prod(w) * (np.size(args[0]) / w[0])


def _fft_flop(args, kwargs, result):
    frames = np.atleast_2d(args[0])
    n = frames.shape[-1]
    return 5.0 * n * math.log2(n) * (frames.size / n)


def _container_bytes(args, kwargs, result):
    return float(np.asarray(result).nbytes)


HOOKS = {
    "ops.conv2d": _conv2d_flop,
    "ops.conv2d_backward": _conv2d_backward_flop,
    "dsp.power_spectrogram": _fft_flop,
    "data.read_container": _container_bytes,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = SETUP_OP
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.functions: dict[str, object] = {}  # canonical name -> original
        self.layer_io: dict[str, tuple] = {}  # span name -> (flops.describe, in, out shape)
        self.fp_warnings = 0
        self._net_cls = None
        self._patched: list[tuple] = []
        self._old_err = None

    # ----- spans ---------------------------------------------------------

    def _open(self, name, tag=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op, tag, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # ----- installation ----------------------------------------------------

    def install(self):
        """Shim every public function of MODULES wherever it is bound."""
        shims = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"mdnn.{short}")
            except ImportError:  # its metrics are reported absent
                continue
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                self.functions[name] = fn
                shims[fn] = self._function_shim(name, fn)
        try:
            self._net_cls = importlib.import_module("mdnn.layers").Net
        except (ImportError, AttributeError):
            self._net_cls = None
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mdnn" or modname.startswith("mdnn.")):
                continue
            for attr, val in list(vars(mod).items()):
                try:
                    shim = shims.get(val)
                except TypeError:  # unhashable module attribute
                    continue
                if shim is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, shim)

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _function_shim(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tag = None
            if args and tracer._net_cls is not None and isinstance(args[0], tracer._net_cls):
                tag = net_kind(args[0])
            idx = tracer._open(name, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                try:
                    tracer.spans[idx][6] = hook(args, kwargs, result)
                except (IndexError, TypeError, ValueError):
                    pass
            tracer._instrument_result(result)
            return result

        return shim

    def _instrument_result(self, result):
        if self._net_cls is None:
            return
        items = result if isinstance(result, (tuple, list)) else (result,)
        for item in items:
            if isinstance(item, self._net_cls):
                self.instrument_net(item)

    def instrument_net(self, net):
        if "forward" in vars(net):  # already shimmed on the instance
            return
        kind = net_kind(net)
        for meth in ("forward", "backward", "zero_grad"):
            bound = getattr(net, meth, None)
            if bound is not None:
                setattr(net, meth, self._method_shim(f"Net.{meth}", bound, kind))
        for lname, layer in getattr(net, "layers", ()):
            base = f"layers.{kind}.{lname}"
            if hasattr(layer, "forward"):
                layer.forward = self._method_shim(base + ".fwd", layer.forward, kind,
                                                  layer=layer)
            if hasattr(layer, "backward"):
                layer.backward = self._method_shim(base + ".bwd", layer.backward, kind)

    def _method_shim(self, name, bound, kind, layer=None):
        tracer = self

        def shim(*args, **kwargs):
            if not tracer.active:
                return bound(*args, **kwargs)
            mode = kwargs.get("mode", args[1] if len(args) > 1 else None)
            idx = tracer._open(name, kind if mode is None else f"{kind}:{mode}")
            try:
                result = bound(*args, **kwargs)
            finally:
                tracer._close(idx)
            if layer is not None and name not in tracer.layer_io and args:
                tracer.layer_io[name] = (flops.describe(layer), np.shape(args[0]),
                                         np.shape(result))
            return result

        return shim

    # ----- phases ----------------------------------------------------------

    def start(self):
        self.active = True
        self._old_err = np.seterr(over="call", divide="call", invalid="call")
        self._old_call = np.seterrcall(self._count_fp)

    def stop(self):
        if self._old_err is not None:
            np.seterr(**self._old_err)
            np.seterrcall(self._old_call)
            self._old_err = None
        self.active = False

    def _count_fp(self, kind, flag):
        self.fp_warnings += 1

    # ----- reduction ---------------------------------------------------------

    def summary(self, op_walls: dict[int, float]) -> dict:
        """Per-name aggregates; ``op_walls`` maps timed op index -> wall seconds."""
        n_ops = max(len(op_walls), 1)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        agg = defaultdict(lambda: {"n": 0, "op_calls": 0, "incl": 0.0, "self": 0.0,
                                   "extra": 0.0, "extra_time": 0.0})
        roots = defaultdict(float)
        for i, (name, t0, t1, parent, op, tag, extra) in enumerate(self.spans):
            dur = t1 - t0
            key = name if tag is None or name.startswith("layers.") else f"{name}[{tag}]"
            for k in {name, key}:
                a = agg[k]
                a["n"] += 1
                a["op_calls"] += op >= 0
                a["incl"] += dur
                a["self"] += dur - child[i]
                if extra is not None:
                    a["extra"] += extra
                    a["extra_time"] += dur
            if parent < 0 and op >= 0:
                roots[op] += dur
        coverage = [roots.get(op, 0.0) / wall for op, wall in op_walls.items() if wall > 0]
        return {
            "n_ops": n_ops,
            "agg": dict(agg),
            "coverage_min": min(coverage) if coverage else 0.0,
            "spans_in_ops": sum(1 for s in self.spans if s[4] >= 0),
        }

    def write(self, path, header: dict):
        """Write the header, then one span per line, as JSON."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, t0, t1, parent, op, tag, extra in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent,
                                    "op": op, "tag": tag, "extra": extra}) + "\n")
