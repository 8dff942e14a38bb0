"""Dense float64 numeric kernels and their hand-written backward passes.

All functions are pure: they never mutate their inputs and are bitwise
deterministic given identical inputs (and seeds, where randomness is involved).
Tensors are plain ``numpy.ndarray`` objects in float64, row-major.

Convolution is cross-correlation (no kernel flip).  The im2col-lowered path is
the production path; ``conv2d_direct`` is a nested-loop reference kept in the
package permanently so the two routes can always be compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GradientCheckError, ParameterError

ACTIVATION_KINDS = ("relu", "sigmoid", "softmax_lastdim")


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
    if x.ndim != 3:
        raise DimensionError(f"conv2d input must be C x H x W, got shape {x.shape}")
    if w.shape != (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w):
        raise DimensionError(
            f"weights shape {w.shape} does not match spec "
            f"({spec.out_channels}, {spec.in_channels}, {spec.kernel_h}, {spec.kernel_w})"
        )
    if b is not None and b.shape != (spec.out_channels,):
        raise DimensionError(f"bias shape {b.shape} != ({spec.out_channels},)")
    if x.shape[0] != spec.in_channels:
        raise DimensionError(f"input has {x.shape[0]} channels, spec expects {spec.in_channels}")


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: tuple[int, int], pw: tuple[int, int]) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold padded patches into a (C*kh*kw, out_h*out_w) matrix."""
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), ph, pw))
    hp, wp = xp.shape[1:]
    out_h = (hp - kh) // sh + 1
    out_w = (wp - kw) // sw + 1
    s0, s1, s2 = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s1 * sh, s2 * sw),
        writeable=False,
    )
    return patches.reshape(c * kh * kw, out_h * out_w), (out_h, out_w)


def _col2im(cols: np.ndarray, x_shape, kh, kw, sh, sw, ph, pw, out_hw) -> np.ndarray:
    """Adjoint of _im2col: scatter-add columns back into an image."""
    c, h, w = x_shape
    out_h, out_w = out_hw
    xp = np.zeros((c, h + ph[0] + ph[1], w + pw[0] + pw[1]))
    patches = cols.reshape(c, kh, kw, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            xp[:, i:i + out_h * sh:sh, j:j + out_w * sw:sw] += patches[:, i, j]
    return xp[:, ph[0]:ph[0] + h, pw[0]:pw[0] + w]


def _conv_geometry(x, spec: ConvSpec, stride_hw=None):
    sh, sw = stride_hw if stride_hw is not None else (spec.stride, spec.stride)
    ph = _pad_amounts(x.shape[1], spec.kernel_h, sh, spec.padding)
    pw = _pad_amounts(x.shape[2], spec.kernel_w, sw, spec.padding)
    if x.shape[1] + ph[0] + ph[1] < spec.kernel_h or x.shape[2] + pw[0] + pw[1] < spec.kernel_w:
        raise DimensionError(
            f"kernel ({spec.kernel_h}, {spec.kernel_w}) larger than padded input "
            f"{(x.shape[1] + sum(ph), x.shape[2] + sum(pw))}"
        )
    return sh, sw, ph, pw


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
           spec: ConvSpec, stride_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Cross-correlate x[C,H,W] with weights[C',C,kh,kw]; im2col fast path.

    ``stride_hw`` optionally overrides the spec stride per axis (used by the
    temporal factor of (2+1)D convolutions, which strides one axis only).
    """
    x, weights = as_f64(x), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    _check_conv_shapes(x, weights, bias, spec)
    sh, sw, ph, pw = _conv_geometry(x, spec, stride_hw)
    cols, out_hw = _im2col(x, spec.kernel_h, spec.kernel_w, sh, sw, ph, pw)
    out = weights.reshape(spec.out_channels, -1) @ cols
    if bias is not None:
        out += bias[:, None]
    return out.reshape(spec.out_channels, *out_hw)


def conv2d_direct(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  spec: ConvSpec, stride_hw: tuple[int, int] | None = None) -> np.ndarray:
    """Nested-loop reference convolution; the permanent in-repo oracle."""
    x, weights = as_f64(x), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    _check_conv_shapes(x, weights, bias, spec)
    sh, sw, ph, pw = _conv_geometry(x, spec, stride_hw)
    xp = np.pad(x, ((0, 0), ph, pw))
    out_h = (xp.shape[1] - spec.kernel_h) // sh + 1
    out_w = (xp.shape[2] - spec.kernel_w) // sw + 1
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
    """Gradients of the cross-correlation: (grad_input, grad_weights, grad_bias)."""
    grad_out, x, weights = as_f64(grad_out), as_f64(saved_input), as_f64(weights)
    _check_conv_shapes(x, weights, None, spec)
    sh, sw, ph, pw = _conv_geometry(x, spec, stride_hw)
    cols, out_hw = _im2col(x, spec.kernel_h, spec.kernel_w, sh, sw, ph, pw)
    if grad_out.shape != (spec.out_channels, *out_hw):
        raise DimensionError(f"grad_out shape {grad_out.shape} != {(spec.out_channels, *out_hw)}")
    g = grad_out.reshape(spec.out_channels, -1)
    grad_bias = g.sum(axis=1)
    grad_weights = (g @ cols.T).reshape(weights.shape)
    grad_cols = weights.reshape(spec.out_channels, -1).T @ g
    grad_input = _col2im(grad_cols, x.shape, spec.kernel_h, spec.kernel_w,
                         sh, sw, ph, pw, out_hw)
    return grad_input, grad_weights, grad_bias


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    x = as_f64(x)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if kind == "softmax_lastdim":
        if x.shape[-1] < 1:
            raise DimensionError("softmax needs a nonempty last dimension")
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)
    raise ParameterError(f"unknown activation kind {kind!r}")


def activation_backward(grad_out: np.ndarray, saved_input: np.ndarray,
                        saved_output: np.ndarray, kind: str) -> np.ndarray:
    grad_out = as_f64(grad_out)
    if kind == "relu":
        return grad_out * (saved_input > 0.0)
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
