"""Analytic FLOPs of Net layers, their lowering to GEMMs, and the GEMM
roofline reference (Williams et al., CACM 2009).

All counts are computed from the input and output shapes a layer was
observed with, one multiply-add counting as two FLOPs; biases and
elementwise work are not counted.  Kernel sizes are read from the layer when
it has the attribute, otherwise the paper's 3x3 spatial / length-3 temporal
kernels are assumed.
"""

from __future__ import annotations

import math
import time

import numpy as np


def describe(layer) -> dict:
    """What the FLOP count needs from a layer, without keeping the layer alive."""
    inner = getattr(layer, "conv1", layer)
    kh, kw = getattr(inner, "spatial_kernel", (3, 3))
    w = getattr(layer, "params", {}).get("w")
    return {
        "block": hasattr(layer, "conv1"),
        "factored": hasattr(inner, "temporal_kernel"),
        "ks": kh * kw,
        "kt": getattr(inner, "temporal_kernel", 3),
        "w_shape": None if w is None else tuple(w.shape),
    }


def _unbatch(shape):
    """(N, C, T, H, W) -> N, (C, T, H, W); single-sample shapes get N = 1."""
    return (shape[0], shape[1:]) if len(shape) == 5 else (1, shape)


def conv_gemms(desc, in_shape, out_shape) -> list[tuple[int, int, int, int]]:
    """Lowered (M, K, N, count) GEMMs of one forward of a video-net layer.

    A (2+1)D factor pair lowers to one spatial GEMM per input frame
    (M = C_mid, K = C_in * kh * kw, N = H' * W') and one temporal GEMM
    (M = C_out, K = C_mid * kt, N = T' * H' * W'); C_mid = C_out.  A residual
    block is two such pairs plus, when it changes shape, a 1x1x1 projection
    (M = C_out, K = C_in, N = T' * H' * W').
    """
    if not desc["factored"] or len(in_shape) not in (4, 5) or len(out_shape) != len(in_shape):
        return []
    n, (cin, t, _, w) = _unbatch(in_shape)
    _, (cout, t2, h2, w2) = _unbatch(out_shape)
    ks, kt, hw = desc["ks"], desc["kt"], h2 * w2
    gemms = [(cout, cin * ks, hw, n * t), (cout, cout * kt, t2 * hw, n)]
    if desc["block"]:
        gemms += [(cout, cout * ks, hw, n * t2), (cout, cout * kt, t2 * hw, n)]
        if cin != cout or (t, w) != (t2, w2):
            gemms.append((cout, cin, t2 * hw, n))
    return gemms


def layer_flop(desc, in_shape, out_shape) -> float | None:
    """Analytic FLOPs of one forward call, or None for layers without GEMMs."""
    gemms = conv_gemms(desc, in_shape, out_shape)
    if gemms:
        return float(sum(2 * m * k * n * c for m, k, n, c in gemms))
    w = desc["w_shape"]
    if w is None:
        return None
    if len(w) == 2:  # Dense: (in, out)
        return 2.0 * math.prod(w) * (math.prod(in_shape) / w[0])
    if len(w) == 4:  # Conv2D: (C_out, C_in, kh, kw)
        return 2.0 * math.prod(w) * (math.prod(out_shape) / w[0])
    return None


def time_gemm(m: int, k: int, n: int, reps: int = 3) -> float:
    """Best-of-``reps`` seconds for one float64 (m x k) @ (k x n) product."""
    rng = np.random.default_rng(0)
    a = rng.random((m, k))
    b = rng.random((k, n))
    c = np.empty((m, n))
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b, out=c)
        best = min(best, time.perf_counter() - t0)
    return best
