"""Per-layer metrics of a traced run, by the rules their names follow:

- ``<module>.<fn>.calls``: calls per timed operation; ``.ms`` / ``.self_ms``:
  mean inclusive / self milliseconds per call, over every traced call;
- ``layers.<net>.<layer>.fwd_ms`` / ``.bwd_ms``: mean milliseconds per call;
  ``.gflop``: computed FLOPs of one forward; ``.gemm_frac``: time of the
  same-shape GEMMs over the forward's time;
- ``trainer.<net>.samples`` / ``.batches`` / ``.steps``: train-mode forwards,
  ``zero_grad`` calls and ``adam_step`` calls per operation, under
  ``trainer.train_net`` of that net;
- a few named ones (``trace.*``, ``trainer.forward_ms``, ...), in ``value``.

A metric whose function the program lacks reads 0 and is listed in
``absent``.
"""

from __future__ import annotations

import re

import flops

LAYER_RE = re.compile(r"^(layers\.(?:video|audio|fusion)\.\w+)\.(fwd_ms|bwd_ms|gflop|gemm_frac)$")
STAGE_RE = re.compile(r"^trainer\.(video|audio|fusion)\.(samples|batches|steps)$")
FUNC_RE = re.compile(r"^(\w+\.\w+)\.(calls|ms|self_ms)$")


class LayerReport:
    """Reduces a traced phase to the per_layer metrics of BENCHMARK.json."""

    def __init__(self, tracer, op_walls, untraced, traced, cached_bytes):
        self.tr = tracer
        self.summ = tracer.summary(op_walls)
        self.agg = self.summ["agg"]
        self.n_ops = self.summ["n_ops"]
        self.untraced, self.traced = untraced, traced
        self.cached_bytes = cached_bytes
        self.gemm_cache: dict[tuple, float] = {}
        self.absent: list[str] = []

    def _a(self, key, field):
        a = self.agg.get(key)
        return a[field] if a else 0.0

    def mean_ms(self, key, field="incl"):
        a = self.agg.get(key)
        return 1000.0 * a[field] / a["n"] if a else 0.0

    def per_op(self, key):
        return self._a(key, "op_calls") / self.n_ops

    def need(self, name, fn):
        if fn not in self.tr.functions:
            self.absent.append(name)
            return False
        return True

    def gemm_ref_seconds(self, gemms):
        total = 0.0
        for m, k, n, count in gemms:
            if (m, k, n) not in self.gemm_cache:
                self.gemm_cache[(m, k, n)] = flops.time_gemm(m, k, n)
            total += count * self.gemm_cache[(m, k, n)]
        return total

    def layer(self, base, what):
        span = base + (".bwd" if what == "bwd_ms" else ".fwd")
        if what in ("fwd_ms", "bwd_ms"):
            return self.mean_ms(span)
        if span not in self.tr.layer_io:
            return 0.0
        desc, ins, outs = self.tr.layer_io[span]
        if what == "gflop":
            flop = flops.layer_flop(desc, ins, outs)
            return (flop or 0.0) / 1e9
        gemms = flops.conv_gemms(desc, ins, outs)
        fwd = self.mean_ms(span) / 1000.0
        return self.gemm_ref_seconds(gemms) / fwd if gemms and fwd > 0 else 0.0

    def gemm_ref_gflops(self):
        flop = ref = 0.0
        for span, (desc, ins, outs) in self.tr.layer_io.items():
            gemms = flops.conv_gemms(desc, ins, outs)
            if gemms:
                flop += flops.layer_flop(desc, ins, outs)
                ref += self.gemm_ref_seconds(gemms)
        return flop / ref / 1e9 if ref > 0 else 0.0

    def _spans_under(self, name, ancestor_prefix):
        """Spans called ``name`` inside timed operations, with an ancestor whose
        name starts with ``ancestor_prefix``."""
        spans = self.tr.spans
        for s in spans:
            if s[0] != name or s[4] < 0:
                continue
            p = s[3]
            while p >= 0 and not spans[p][0].startswith(ancestor_prefix):
                p = spans[p][3]
            if p >= 0:
                yield s, spans[p]

    def in_training(self, name, kind=None):
        """Spans called ``name`` under ``trainer.train_net`` (of a ``kind`` net)."""
        return [s for s, parent in self._spans_under(name, "trainer.train_net")
                if kind is None or parent[5] == kind]

    def stage(self, kind, what):
        name = {"samples": "Net.forward", "batches": "Net.zero_grad",
                "steps": "trainer.adam_step"}[what]
        spans = self.in_training(name, kind)
        if what == "samples":
            spans = [s for s in spans if s[5] == f"{kind}:train"]
        return len(spans) / self.n_ops

    def value(self, name):
        ut, tt = self.untraced, self.traced
        special = {
            "trace.span_coverage_min": lambda: self.summ["coverage_min"],
            "trace.overhead_ms": lambda: tt.p50_norm_ms() - ut.p50_norm_ms(),
            "trace.overhead_pct": lambda: (100.0 * (tt.p50_norm_ms() / ut.p50_norm_ms() - 1.0)
                                           if ut.p50_norm_ms() > 0 else 0.0),
            "trace.spans_per_op": lambda: self.summ["spans_in_ops"] / self.n_ops,
            "ops.fp_warnings": lambda: float(self.tr.fp_warnings),
            "layers.cached_bytes": lambda: float(self.cached_bytes),
            "ops.gemm_ref.gflops": self.gemm_ref_gflops,
            "trainer.forward_ms": lambda: self._sum_ms("Net.forward[", ":train]"),
            "trainer.backward_ms": lambda: self.mean_ms("Net.backward"),
            "trainer.zero_grad.ms": lambda: self._mean_span_ms(self.in_training("Net.zero_grad")),
        }
        needs = {
            "ops.conv2d.gflops": ("ops.conv2d",
                                  lambda: self._gflops("ops.conv2d")),
            "dsp.fft.gflop": ("dsp.power_spectrogram",
                              lambda: self._a("dsp.power_spectrogram", "extra") / 1e9
                              / max(self._a("dsp.power_spectrogram", "n"), 1)),
            "dsp.fft.gflops": ("dsp.power_spectrogram",
                               lambda: self._gflops("dsp.power_spectrogram")),
            "model_io.bytes_read": ("data.read_container", lambda: sum(
                s[6] or 0.0 for s, _ in self._spans_under("data.read_container", "model_io."))
                / self.n_ops),
        }
        if name in special:
            return special[name]()
        if name in needs:
            fn, compute = needs[name]
            return compute() if self.need(name, fn) else 0.0
        m = LAYER_RE.match(name)
        if m:
            return self.layer(*m.groups())
        m = STAGE_RE.match(name)
        if m:
            return self.stage(*m.groups())
        m = FUNC_RE.match(name)
        if m:
            fn, what = m.groups()
            if not self.need(name, fn):
                return 0.0
            if what == "calls":
                return self.per_op(fn)
            return self.mean_ms(fn, "incl" if what == "ms" else "self")
        raise KeyError(f"no rule computes per-layer metric {name!r}")

    @staticmethod
    def _mean_span_ms(spans):
        return 1000.0 * sum(s[2] - s[1] for s in spans) / len(spans) if spans else 0.0

    def _sum_ms(self, prefix, suffix):
        keys = [k for k in self.agg if k.startswith(prefix) and k.endswith(suffix)]
        n = sum(self.agg[k]["n"] for k in keys)
        return 1000.0 * sum(self.agg[k]["incl"] for k in keys) / n if n else 0.0

    def _gflops(self, key):
        t = self._a(key, "extra_time")
        return self._a(key, "extra") / t / 1e9 if t > 0 else 0.0
