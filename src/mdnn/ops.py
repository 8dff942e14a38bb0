"""Dense float64 numeric kernels and their hand-written backward passes.

All functions are pure: they never mutate their inputs and are bitwise
deterministic given identical inputs (and seeds, where randomness is involved).
Tensors are plain ``numpy.ndarray`` objects in float64, row-major.

Convolution is cross-correlation (no kernel flip).  The production path
lowers only the kernel-width axis (MEC: Cho & Brand, ICML 2017): a matrix of
C*kw rows, 3x the input for a 3x3 kernel and the padded input itself when
kw = 1, and kh GEMMs over its shifted row windows; the backward uses the same
matrix.  At a row stride sh above kh it keeps only the kh row phases the
kernel reads, so a 1x1 kernel of stride 2 copies only the rows it reads.  ``conv2d_direct`` is a nested-loop reference kept in the package
permanently so the two routes can always be compared.  A convolution input is
``C x H x W`` behind any number of leading batch axes.  The GEMMs run over the
whole batch if its lowered matrix and scratch product fit in LOWERED_VALUES
values, else over one item (a view) at a time; the weight gradient sums the
items in batch order either way, so every result keeps its bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GradientCheckError, ParameterError

# Values per block of an elementwise pass over a large tensor: 256 KiB of
# float64, so one block stays in L2 cache through all of the pass's operations
# and the whole tensor streams through memory once.
BLOCK_VALUES = 1 << 15

# Values of a convolution chunk's lowered matrix and output-sized scratch
# product: 4 MiB of float64.  A batch past it runs one item at a time.
LOWERED_VALUES = 1 << 19


def blocks(*arrays: np.ndarray):
    """Matching flat views of same-size C-contiguous ``arrays``, BLOCK_VALUES
    values at a time (the last run may be shorter).  Arrays that fit in one
    block come back whole, as the only tuple.  Writes reach the arrays."""
    size = arrays[0].size
    if size <= BLOCK_VALUES:
        return (arrays,)
    flats = [a.reshape(-1) for a in arrays]
    return (tuple(f[i:i + BLOCK_VALUES] for f in flats)
            for i in range(0, size, BLOCK_VALUES))


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution."""

    kernel_h: int
    kernel_w: int
    stride: tuple[int, int] = (1, 1)  # (sh, sw): rows, columns
    padding: str = "valid"  # "valid" | "same"
    in_channels: int = 1
    out_channels: int = 1

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ParameterError(f"kernel must be positive, got ({self.kernel_h}, {self.kernel_w})")
        if not (isinstance(self.stride, tuple) and len(self.stride) == 2
                and all(isinstance(s, int) and s >= 1 for s in self.stride)):
            raise ParameterError(f"stride must be two positive ints, got {self.stride!r}")
        if self.padding not in ("valid", "same"):
            raise ParameterError(f"padding must be 'valid' or 'same', got {self.padding!r}")
        if self.in_channels < 1 or self.out_channels < 1:
            raise ParameterError("channel counts must be positive")


def as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float64))


def _geometry(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, spec: ConvSpec):
    """(sh, sw, ph, pw, out_hw) of the convolution of x[*B, C, H, W] by the
    weights ``w`` and the bias ``b`` (None for none), after checking that
    their shapes fit ``spec``: ph and pw are (before, after) padding, and
    'same' puts the extra pixel after (bottom/right).  DimensionError for a
    kernel larger than its padded input, H checked before W."""
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
    pads, out = [], []
    for size, kernel, stride in zip(x.shape[-2:], (spec.kernel_h, spec.kernel_w), spec.stride):
        total = 0 if spec.padding == "valid" else max(  # ceil(size / stride) outputs
            (-(-size // stride) - 1) * stride + kernel - size, 0)
        if size + total < kernel:
            raise DimensionError(f"kernel {kernel} larger than padded input {size + total}")
        pads.append((total // 2, total - total // 2))
        out.append((size + total - kernel) // stride + 1)
    return (*spec.stride, *pads, tuple(out))


def _taps(size: int, k: int, stride: int, pad0: int, out: int):
    """(t, output slice, input slice) for each kernel offset t < k: output
    index o reads input index o*stride + t - pad0 wherever that is inside."""
    for t in range(k):
        lo = max(-((t - pad0) // stride), 0)
        hi = min((size - 1 + pad0 - t) // stride + 1, out)
        if lo < hi:
            start = lo * stride + t - pad0
            yield t, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _lowered(x: np.ndarray, spec: ConvSpec, geometry):
    """The lowered matrix L of x[*B, C, H, W], and the (L index, x index) pairs
    of its blocks that hold image pixels (the rest of L is zero padding).

    L[*B, C, kw, P, Q, W'] holds the padded image's pixel (q*sh + r, j*sw + v)
    at [..., v, r, q, j]: only the kernel-width axis is lowered, and the rows
    u, u + sh, ... that kernel row u reads are rows u//sh onwards of phase
    u % sh, so every GEMM operand is a view of L.  Only the P = min(sh, kh)
    phases that a kernel row reads are kept.
    """
    sh, sw, ph, pw, (out_h, out_w) = geometry
    *batch, c, h, w = x.shape
    phases, rows = min(sh, spec.kernel_h), out_h + (spec.kernel_h - 1) // sh
    pairs = [((..., v, r, lq, lj), (..., xi, xj))
             for v, lj, xj in _taps(w, spec.kernel_w, sw, pw[0], out_w)
             for r, lq, xi in _taps(h, phases, sh, ph[0], rows)]
    low = np.zeros((*batch, c, spec.kernel_w, phases, rows, out_w))
    for li, xi in pairs:
        low[li] = x[xi]
    return low, pairs


def _rows(u: int, sh: int, out_h: int) -> tuple:
    """Index of the rows of L that kernel row u reads, as [*B, C, kw, H', W']."""
    return ..., u % sh, slice(u // sh, u // sh + out_h), slice(None)


def _operand(low: np.ndarray, u: int, sh: int, out_h: int) -> np.ndarray:
    """The [*B, C*kw, H'*W'] view of L that kernel row u multiplies."""
    rows = low[_rows(u, sh, out_h)]
    return rows.reshape(*rows.shape[:-4], -1, rows.shape[-2] * rows.shape[-1])


def _item_values(spec: ConvSpec, geometry) -> int:
    """Values of one item's L and scratch product (C'*H'*W' or C*kw*H'*W')."""
    sh, (out_h, out_w), ckw = geometry[0], geometry[4], spec.in_channels * spec.kernel_w
    phases, rows = min(sh, spec.kernel_h), out_h + (spec.kernel_h - 1) // sh
    return (ckw * phases * rows + max(spec.out_channels, ckw) * out_h) * out_w


def _chunks(batch: tuple, item: int) -> list:
    """Indexes of views of ``batch``, in order: ``[...]`` if its lowered matrices
    fit in LOWERED_VALUES at ``item`` values an item, otherwise one per item."""
    return [...] if math.prod(batch) * item <= LOWERED_VALUES else list(np.ndindex(batch))


def conv2d(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
           spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x[*B, C, H, W] with weights[C',C,kh,kw] -> [*B, C', H', W'].

    Per chunk (``_chunks``), one lowered matrix L (``_lowered``) and kh GEMMs
    over its shifted row windows, summed: out = sum_u weights[:, :, u] @
    L[rows of u].  The result is contiguous (batch-major)."""
    x, weights = np.asarray(x, dtype=np.float64), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    geometry = _geometry(x, weights, bias, spec)
    sh, (out_h, out_w) = geometry[0], geometry[4]
    co = spec.out_channels
    out = np.empty((*x.shape[:-3], co, out_h * out_w))  # before the scratch it outlives
    for idx in _chunks(x.shape[:-3], _item_values(spec, geometry)):
        low, _ = _lowered(x[idx], spec, geometry)
        chunk, tmp = out[idx], None
        np.matmul(weights[:, :, 0].reshape(co, -1), _operand(low, 0, sh, out_h), out=chunk)
        for u in range(1, spec.kernel_h):  # one scratch product, reused
            tmp = np.matmul(weights[:, :, u].reshape(co, -1), _operand(low, u, sh, out_h), out=tmp)
            chunk += tmp
    if bias is not None:
        out += bias[:, None]
    return out.reshape(*x.shape[:-3], co, out_h, out_w)


def conv2d_direct(x: np.ndarray, weights: np.ndarray, bias: np.ndarray | None,
                  spec: ConvSpec) -> np.ndarray:
    """Nested-loop reference convolution; the permanent in-repo oracle."""
    x, weights = as_f64(x), as_f64(weights)
    bias = None if bias is None else as_f64(bias)
    sh, sw, ph, pw, (out_h, out_w) = _geometry(x, weights, bias, spec)
    if x.ndim > 3:  # one image at a time
        return np.stack([conv2d_direct(xi, weights, bias, spec) for xi in x])
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
                    spec: ConvSpec):
    """Gradients of the cross-correlation: (grad_input, grad_weights, grad_bias).

    ``saved_input`` is the x[*B, C, H, W] given to ``conv2d``; the weight and
    bias gradients are summed over the batch, the weights' in batch order even
    one item (``_chunks``) at a time.  Both use the forward's lowered matrix L:
    grad_weights[:, :, u] = grad_out @ L[rows of u].T, and the input gradient
    is the forward's adjoint, the products weights[:, :, u].T @ grad_out added
    into the same rows of an L-shaped matrix, whose blocks are then added onto
    zeros: +0.0 plus any value is never -0.0, so the result holds no -0.0.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    x, weights = np.asarray(saved_input, dtype=np.float64), as_f64(weights)
    geometry = _geometry(x, weights, None, spec)
    sh, (out_h, out_w) = geometry[0], geometry[4]
    *batch, c, h, w = x.shape
    co, kh, kw = spec.out_channels, spec.kernel_h, spec.kernel_w
    if grad_out.shape != (*batch, co, out_h, out_w):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} != {(*batch, co, out_h, out_w)}")
    g = grad_out.reshape(*batch, co, out_h * out_w)
    grad_bias = g.sum(axis=tuple(range(len(batch))) + (-1,))
    grad_weights = np.empty_like(weights)
    for n, idx in enumerate(_chunks(tuple(batch), _item_values(spec, geometry))):
        low, pairs = _lowered(x[idx], spec, geometry)
        gc, tmp = g[idx], None
        for u in range(kh):
            gw = np.matmul(gc, _operand(low, u, sh, out_h).swapaxes(-1, -2))
            gw = gw.sum(axis=tuple(range(gc.ndim - 2))).reshape(co, c, kw)
            if n == 0:
                grad_weights[:, :, u] = gw
            else:  # past the first item, the batch's sum goes on one item at a time
                grad_weights[:, :, u] += gw
        dlow = low  # the adjoint's matrix reuses L's memory
        dlow.fill(0.0)
        for u in range(kh):
            tmp = np.matmul(weights[:, :, u].reshape(co, -1).T, gc, out=tmp)
            dlow[_rows(u, sh, out_h)] += tmp.reshape(*gc.shape[:-2], c, kw, out_h, out_w)
        del tmp  # grad_input can take its memory
        grad_input = np.zeros(x.shape) if n == 0 else grad_input
        chunk = grad_input[idx]
        for li, xi in pairs:
            chunk[xi] += dlow[li]
    return grad_input, grad_weights, grad_bias


def activation(x: np.ndarray, kind: str) -> np.ndarray:
    """A net's output activation (``Net.output``): sigmoid or softmax_lastdim."""
    x = as_f64(x)
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


def gradient_check(model, x: np.ndarray, tolerance: float = 1e-5) -> dict:
    """Compare every analytic gradient of ``model`` to central finite differences.

    ``model`` follows the batch-first layer protocol: ``forward(xs, mode)`` on
    an N x ... batch, ``backward(grad)`` returning the batch's input gradient
    and writing per-parameter ``grads``, plus ordered ``params``/``grads``
    dicts.  ``x`` is one sample; the model runs it as the N=1 batch ``x[None]``,
    a view, so perturbing ``x`` perturbs the batch.
    The scalar objective is a fixed random projection of the output so every
    output component contributes.  Returns a report with per-tensor max
    relative error and an overall ``ok`` flag.
    """
    x = as_f64(x)
    xs = x[None]
    h, rng = 1e-5, np.random.default_rng(0)  # step; the projection's stream
    y0 = model.forward(xs, mode="eval")
    proj = rng.standard_normal(y0.shape)

    def objective() -> float:
        return float(np.sum(model.forward(xs, mode="eval") * proj))

    grad_x = model.backward(proj.copy())[0]  # the caches of y0's forward

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
    report["per_tensor"]["<input>"] = rel_err(grad_x, numeric_grad(x))

    report["max_rel_err"] = max(report["per_tensor"].values(), default=0.0)
    report["ok"] = report["max_rel_err"] < tolerance
    return report
