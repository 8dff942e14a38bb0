"""Dense float64 numeric kernels and their hand-written backward passes.

All functions are pure: they never mutate their inputs and are bitwise
deterministic given identical inputs (and seeds, where randomness is involved).
Tensors are plain ``numpy.ndarray`` objects in float64, row-major.

Convolution is cross-correlation (no kernel flip).  The im2col-lowered path is
the production path; ``conv2d_direct`` is a nested-loop reference kept in the
package permanently so the two routes can always be compared.  A convolution
input is ``C x H x W`` behind any number of leading batch axes: every image of
the batch is lowered into the columns of one patch matrix, so one GEMM serves
the whole batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GradientCheckError, ParameterError

ACTIVATION_KINDS = ("relu", "sigmoid", "softmax_lastdim")

# Largest patch matrix one im2col builds from several images, in bytes: about
# that of one full-scale frame (64 channels, 3x3 kernel, 112x112 output:
# 58 MB).  A batch whose patch matrix would be larger is lowered in chunks of
# its images; an image is never split.
_COLS_BYTES = 64 << 20


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution."""

    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: str = "valid"  # "valid" | "same"
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ParameterError(f"kernel must be positive, got ({self.kernel_h}, {self.kernel_w})")
        if self.stride < 1:
            raise ParameterError(f"stride must be positive, got {self.stride}")
        if self.padding not in ("valid", "same"):
            raise ParameterError(f"padding must be 'valid' or 'same', got {self.padding!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ParameterError("channel counts must be positive")


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _pad_amounts(size: int, kernel: int, stride: int, padding: str) -> tuple[int, int]:
    """(before, after) padding; 'same' puts the extra pixel after (bottom/right)."""
    if padding == "valid":
        return 0, 0
    out = -(-size // stride)  # ceil
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def conv_out_size(size: int, kernel: int, stride: int, padding: str) -> int:
    p0, p1 = _pad_amounts(size, kernel, stride, padding)
    padded = size + p0 + p1
    if padded < kernel:
        raise DimensionError(f"kernel {kernel} larger than padded input {padded}")
    return (padded - kernel) // stride + 1


def _check_conv_shapes(x, w, b, spec: ConvSpec):
    if x.ndim < 3:
        raise DimensionError(f"conv2d input must be [batch x] C x H x W, got shape {x.shape}")
    if w.shape != (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w):
        raise DimensionError(
            f"weights shape {w.shape} does not match spec "
            f"({spec.out_channels}, {spec.in_channels}, {spec.kernel_h}, {spec.kernel_w})"
        )
    if b is not None and b.shape != (spec.out_channels,):
        raise DimensionError(f"bias shape {b.shape} != ({spec.out_channels},)")
    if x.shape[-3] != spec.in_channels:
        raise DimensionError(f"input has {x.shape[-3]} channels, spec expects {spec.in_channels}")


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: tuple[int, int], pw: tuple[int, int]) -> np.ndarray:
    """Unfold the padded patches of x[*B, C, H, W] into a (C*kh*kw, |B|*out_h*out_w)
    matrix; its columns run over the batch images, then output rows and columns."""
    if ph != (0, 0) or pw != (0, 0):  # zero border (np.pad costs more on small images)
        h, w = x.shape[-2:]
        xp = np.zeros(x.shape[:-2] + (h + sum(ph), w + sum(pw)))
        xp[..., ph[0]:ph[0] + h, pw[0]:pw[0] + w] = x
        x = xp
    *batch, c, hp, wp = x.shape
    *sb, sc, s1, s2 = x.strides
    out_h = (hp - kh) // sh + 1
    out_w = (wp - kw) // sw + 1
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, *batch, out_h, out_w),
        strides=(sc, s1, s2, *sb, s1 * sh, s2 * sw),
        writeable=False,
    )
    return patches.reshape(c * kh * kw, -1)


def _col2im_add(cols: np.ndarray, xp: np.ndarray, kh, kw, sh, sw, out_hw):
    """Adjoint of _im2col: scatter-add columns into the padded image
    xp[C, *B, Hp, Wp] (channel axis first)."""
    out_h, out_w = out_hw
    patches = cols.reshape(xp.shape[0], kh, kw, *xp.shape[1:-2], out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            xp[..., i:i + out_h * sh:sh, j:j + out_w * sw:sw] += patches[:, i, j]


def _batch_chunks(batch: tuple, image_bytes: int):
    """Index tuples over the ``batch`` axes, in order, each selecting a run of
    images whose patch matrices fit in _COLS_BYTES together (one image at
    least): whole rows of the first axis, or else a run within one row."""
    if not batch:
        yield ()
        return
    inner = math.prod(batch[1:])
    rows = _COLS_BYTES // max(image_bytes * inner, 1)
    if rows == 0 and len(batch) > 1:
        for a in range(batch[0]):
            for rest in _batch_chunks(batch[1:], image_bytes):
                yield (a,) + rest
        return
    step = max(rows, 1)
    for a in range(0, batch[0], step):
        yield (slice(a, a + step),)


def _lowered(x: np.ndarray, spec: ConvSpec, stride_hw):
    """Geometry of the convolution of x[*B, C, H, W] as (sh, sw, ph, pw, out_hw),
    and an iterator over the chunks of its batch as (index, column slice,
    patch matrix); the column slices tile the columns of the whole batch."""
    sh, sw = stride_hw if stride_hw is not None else (spec.stride, spec.stride)
    h, w = x.shape[-2:]
    ph = _pad_amounts(h, spec.kernel_h, sh, spec.padding)
    pw = _pad_amounts(w, spec.kernel_w, sw, spec.padding)
    if h + sum(ph) < spec.kernel_h or w + sum(pw) < spec.kernel_w:
        raise DimensionError(
            f"kernel ({spec.kernel_h}, {spec.kernel_w}) larger than padded input "
            f"{(h + sum(ph), w + sum(pw))}"
        )
    out_hw = ((h + sum(ph) - spec.kernel_h) // sh + 1, (w + sum(pw) - spec.kernel_w) // sw + 1)
    image_cols = out_hw[0] * out_hw[1]
    image_bytes = 8 * spec.in_channels * spec.kernel_h * spec.kernel_w * image_cols

    def chunks():
        start = 0
        for idx in _batch_chunks(x.shape[:-3], image_bytes):
            sub = x[idx]
            stop = start + math.prod(sub.shape[:-3]) * image_cols
            yield idx, slice(start, stop), _im2col(sub, spec.kernel_h, spec.kernel_w,
                                                   sh, sw, ph, pw)
            start = stop

    return (sh, sw, ph, pw, out_hw), chunks()


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
           spec: ConvSpec, stride_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Cross-correlate x[*B, C, H, W] with weights[C',C,kh,kw] -> [*B, C', H', W'].

    im2col fast path, one GEMM per chunk of the batch (see _COLS_BYTES); the
    result is a view of channel-major memory (C' x B x H' x W').
    ``stride_hw`` optionally overrides the spec stride per axis (used by the
    temporal factor of (2+1)D convolutions, which strides one axis only).
    """
    x, weights = np.asarray(x, dtype=np.float64), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    _check_conv_shapes(x, weights, bias, spec)
    (*_, out_hw), chunks = _lowered(x, spec, stride_hw)
    batch = x.shape[:-3]
    w2 = weights.reshape(spec.out_channels, -1)
    out = np.empty((spec.out_channels, math.prod(batch) * out_hw[0] * out_hw[1]))
    for _, cols_slice, cols in chunks:
        np.matmul(w2, cols, out=out[:, cols_slice])
        del cols  # before the next chunk's is built
    if bias is not None:
        out += bias[:, None]
    return np.moveaxis(out.reshape(spec.out_channels, *batch, *out_hw), 0, -3)


def conv2d_direct(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  spec: ConvSpec, stride_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Nested-loop reference convolution; the permanent in-repo oracle."""
    x, weights = as_f64(x), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    _check_conv_shapes(x, weights, bias, spec)
    if x.ndim > 3:  # one image at a time
        return np.stack([conv2d_direct(xi, weights, bias, spec, stride_hw) for xi in x])
    (sh, sw, ph, pw, (out_h, out_w)), _ = _lowered(x, spec, stride_hw)
    xp = np.pad(x, ((0, 0), ph, pw))
    out = np.zeros((spec.out_channels, out_h, out_w))
    for co in range(spec.out_channels):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for ci in range(spec.in_channels):
                    for u in range(spec.kernel_h):
                        for v in range(spec.kernel_w):
                            acc += xp[ci, i * sh + u, j * sw + v] * weights[co, ci, u, v]
                out[co, i, j] = acc + (bias[co] if bias is not None else 0.0)
    return out


def conv2d_backward(grad_out: np.ndarray, saved_input: np.ndarray, weights: np.ndarray,
                    spec: ConvSpec, stride_hw: tuple[int, int] | None = None):
    """Gradients of the cross-correlation: (grad_input, grad_weights, grad_bias).

    ``saved_input`` is the x[*B, C, H, W] given to ``conv2d``; the weight and
    bias gradients are summed over the batch.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    x, weights = np.asarray(saved_input, dtype=np.float64), as_f64(weights)
    _check_conv_shapes(x, weights, None, spec)
    (sh, sw, ph, pw, out_hw), chunks = _lowered(x, spec, stride_hw)
    *batch, c, h, w = x.shape
    if grad_out.shape != (*batch, spec.out_channels, *out_hw):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} != {(*batch, spec.out_channels, *out_hw)}")
    g = np.moveaxis(grad_out, -3, 0).reshape(spec.out_channels, -1)
    grad_bias = g.sum(axis=1)
    w2 = weights.reshape(spec.out_channels, -1)
    grad_weights = np.zeros_like(w2)
    xp = np.zeros((c, *batch, h + sum(ph), w + sum(pw)))
    for idx, cols_slice, cols in chunks:
        grad_weights += g[:, cols_slice] @ cols.T
        del cols  # one patch-sized matrix at a time: this one, then grad_cols
        _col2im_add(w2.T @ g[:, cols_slice], xp[(slice(None),) + idx],
                    spec.kernel_h, spec.kernel_w, sh, sw, out_hw)
    grad_input = np.moveaxis(xp[..., ph[0]:ph[0] + h, pw[0]:pw[0] + w], 0, -3)
    return grad_input, grad_weights.reshape(weights.shape), grad_bias


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    x = as_f64(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp overflows to inf below -709: exactly 0.0
            return 1.0 / (1.0 + np.exp(-x))
    if kind == "softmax_lastdim":
        if x.shape[-1] < 1:
            raise DimensionError("softmax needs a nonempty last dimension")
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)
    raise ParameterError(f"unknown activation kind {kind!r}")


def activation_backward(grad_out: np.ndarray, saved_output: np.ndarray,
                        kind: str) -> np.ndarray:
    """The gradient from the forward's output alone: a ReLU output is > 0
    exactly where its input was."""
    grad_out = as_f64(grad_out)
    if kind == "relu":
        return grad_out * (saved_output > 0.0)
    if kind == "sigmoid":
        return grad_out * saved_output * (1.0 - saved_output)
    if kind == "softmax_lastdim":
        y = saved_output
        dot = (grad_out * y).sum(axis=-1, keepdims=True)
        return y * (grad_out - dot)
    raise ParameterError(f"unknown activation kind {kind!r}")


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= rate
    return keep / (1.0 - rate)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Per-channel mean over every non-channel axis of x[C, ...]."""
    x = as_f64(x)
    if x.ndim < 2:
        raise DimensionError(f"global_avg_pool needs at least 2 axes, got shape {x.shape}")
    return x.reshape(x.shape[0], -1).mean(axis=1)


def gradient_check(model, x: np.ndarray, tolerance: float = 1e-5, h: float = 1e-5,
                   seed: int = 0, check_input: bool = True) -> dict:
    """Compare every analytic gradient of ``model`` to central finite differences.

    ``model`` follows the layer-net protocol: ``forward(x, mode)``,
    ``backward(grad)`` returning the input gradient and filling per-parameter
    ``grads``, plus ordered ``params``/``grads`` dicts and ``zero_grad()``.
    The scalar objective is a fixed random projection of the output so every
    output component contributes.  Returns a report with per-tensor max
    relative error and an overall ``ok`` flag.
    """
    x = as_f64(x)
    rng = np.random.default_rng(seed)
    y0 = model.forward(x, mode="eval")
    proj = rng.standard_normal(y0.shape)

    def objective() -> float:
        return float(np.sum(model.forward(x, mode="eval") * proj))

    model.zero_grad()
    model.forward(x, mode="eval")
    grad_x = model.backward(proj.copy())

    def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
        if not (np.all(np.isfinite(analytic)) and np.all(np.isfinite(numeric))):
            raise GradientCheckError("non-finite gradient encountered")
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
        return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0

    def numeric_grad(arr: np.ndarray) -> np.ndarray:
        # central differences, perturbing ``arr`` in place one entry at a time
        numeric = np.zeros_like(arr)
        flat = arr.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = objective()
            flat[i] = orig - h
            fm = objective()
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2.0 * h)
        return numeric

    report = {"per_tensor": {}, "tolerance": tolerance}
    for name, p in model.params.items():
        report["per_tensor"][name] = rel_err(model.grads[name], numeric_grad(p))
    if check_input:
        report["per_tensor"]["<input>"] = rel_err(grad_x, numeric_grad(x))

    report["max_rel_err"] = max(report["per_tensor"].values(), default=0.0)
    report["ok"] = report["max_rel_err"] < tolerance
    return report
