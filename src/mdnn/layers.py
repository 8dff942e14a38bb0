"""Layer objects with hand-written backward passes, composed into ``Net`` stacks.

Every layer is batch-first: ``forward`` takes an N x ... batch, ``backward``
the gradient of the whole batch's output, and the parameter gradients are
summed over the batch.  ``Net.forward``/``Net.backward`` run one unbatched
sample through a whole stack as the N=1 batch, and ``Net.run`` takes either
form; the two (2+1)D layers' ``forward`` also take one clip (``sample_or_batch``).

Parameters live on the layers as float64 arrays; a ``Composite`` (a ``Net``,
or a residual block inside one) exposes its children's as a single ordered
name -> array mapping (the serialization order).  Forward passes
save whatever the matching backward pass needs; ``backward`` must be called in
exact reverse order of ``forward``, which ``Net`` guarantees.
"""

from __future__ import annotations

import functools

import numpy as np

from . import ops
from .errors import DimensionError, ParameterError
from .ops import ConvSpec


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def sample_or_batch(forward):
    """Let the batch-first ``forward`` of a layer whose inputs have
    ``sample_ndim`` axes also take one unbatched sample, as the N=1 batch;
    the matching ``backward`` still takes that batch's gradient."""
    @functools.wraps(forward)
    def adapted(self, x, *args, **kwargs):
        if np.ndim(x) == self.sample_ndim:
            return forward(self, np.asarray(x)[None], *args, **kwargs)[0]
        return forward(self, x, *args, **kwargs)
    return adapted


class Layer:
    """Base layer: parameter dict, gradient dict, weight/bias distinction."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.weight_names: set[str] = set()  # regularized params; biases excluded

    def init_params(self, rng: np.random.Generator):
        pass

    def zero_grad(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def full3d_weight_count(self) -> int:
        """Weights with every (2+1)D factor pair counted as its full 3-D kernel."""
        return sum(self.params[w].size for w in self.weight_names)

    def forward(self, x, mode="eval"):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer on N x in_dim inputs: Y = X @ W + b."""

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__()
        self.in_dim, self.out_dim = in_dim, out_dim
        self.params = {"w": np.zeros((in_dim, out_dim)), "b": np.zeros(out_dim)}
        self.weight_names = {"w"}
        self.zero_grad()

    def init_params(self, rng):
        self.params["w"] = he_uniform(rng, (self.in_dim, self.out_dim), self.in_dim)
        self.params["b"] = np.zeros(self.out_dim)

    def forward(self, x, mode="eval"):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"dense expects shape (N, {self.in_dim}), got {x.shape}")
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad_out):
        self.grads["w"] += self._x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["w"].T


class Conv2D(Layer):
    """2-D convolution over N x C x H x W."""

    def __init__(self, spec: ConvSpec):
        super().__init__()
        self.spec = spec
        wshape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        self.params = {"w": np.zeros(wshape), "b": np.zeros(spec.out_channels)}
        self.weight_names = {"w"}
        self.zero_grad()

    def init_params(self, rng):
        s = self.spec
        fan_in = s.in_channels * s.kernel_h * s.kernel_w
        self.params["w"] = he_uniform(rng, self.params["w"].shape, fan_in)
        self.params["b"] = np.zeros(s.out_channels)

    def forward(self, x, mode="eval"):
        if x.ndim != 4:
            raise DimensionError(f"conv2d layer expects N x C x H x W, got shape {x.shape}")
        self._x = x
        return ops.conv2d(x, self.params["w"], self.params["b"], self.spec)

    def backward(self, grad_out):
        gi, gw, gb = ops.conv2d_backward(grad_out, self._x, self.params["w"], self.spec)
        self.grads["w"] += gw
        self.grads["b"] += gb
        return gi


class Activation(Layer):
    def __init__(self, kind: str):
        super().__init__()
        if kind not in ops.ACTIVATION_KINDS:
            raise ParameterError(f"unknown activation {kind!r}")
        self.kind = kind

    def forward(self, x, mode="eval"):
        self._x = x
        self._y = ops.activation(x, self.kind)
        return self._y

    def backward(self, grad_out):
        return ops.activation_backward(grad_out, self._x, self._y, self.kind)


class Dropout(Layer):
    """Inverted dropout; the mask stream is owned by ``reseed`` for determinism.

    A batch's mask is one draw of the batch's shape, so it equals the masks of
    its samples drawn one after another from the same stream.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = np.random.default_rng(0)

    def reseed(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def forward(self, x, mode="eval"):
        if mode == "train" and self.rate > 0.0:
            self._mask = ops.dropout_mask(x.shape, self.rate, self.rng)
        else:
            self._mask = None
        return x if self._mask is None else x * self._mask

    def backward(self, grad_out):
        return grad_out if self._mask is None else grad_out * self._mask


class Flatten(Layer):
    """N x ... -> N x (product of the rest)."""

    def forward(self, x, mode="eval"):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


class GlobalAvgPool(Layer):
    """N x C x ... -> N x C per-channel mean."""

    def forward(self, x, mode="eval"):
        self._shape = x.shape
        n, c = x.shape[:2]
        return ops.global_avg_pool(x.reshape(n * c, -1)).reshape(n, c)

    def backward(self, grad_out):
        count = int(np.prod(self._shape[2:]))
        return np.broadcast_to(grad_out.reshape(grad_out.shape + (1,) * (len(self._shape) - 2)),
                               self._shape) / count


class Conv2Plus1D(Layer):
    """Factorized space-time convolution on N x C x T x H x W.

    A 2-D spatial convolution of every frame (in -> mid channels), a ReLU,
    then a 1-D temporal convolution of every pixel (mid -> out channels).
    mid == out, so a 3x3x3 pair with equal channels c stores 9c^2 + 3c^2 =
    12c^2 weights versus 27c^2 for the unfactorized kernel.  Both factors use
    "same" padding.  The spatial factor lowers the N*T frames of the batch,
    and the temporal factor its N samples, into one im2col and one GEMM
    each (in chunks at full scale; see ``ops._COLS_BYTES``).
    """

    sample_ndim = 4

    def __init__(self, in_channels: int, out_channels: int,
                 spatial_kernel=(3, 3), temporal_kernel=3,
                 spatial_stride=1, temporal_stride=1):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.mid_channels = out_channels
        self.spatial_kernel = tuple(spatial_kernel)
        self.temporal_kernel = temporal_kernel
        self.spatial_stride = spatial_stride
        self.temporal_stride = temporal_stride
        kh, kw = self.spatial_kernel
        self.spatial_spec = ConvSpec(kh, kw, spatial_stride, "same",
                                     in_channels, self.mid_channels)
        self.temporal_spec = ConvSpec(temporal_kernel, 1, 1, "same",
                                      self.mid_channels, out_channels)
        self.params = {
            "ws": np.zeros((self.mid_channels, in_channels, kh, kw)),
            "bs": np.zeros(self.mid_channels),
            "wt": np.zeros((out_channels, self.mid_channels, temporal_kernel, 1)),
            "bt": np.zeros(out_channels),
        }
        self.weight_names = {"ws", "wt"}
        self.zero_grad()

    def init_params(self, rng):
        kh, kw = self.spatial_kernel
        self.params["ws"] = he_uniform(rng, self.params["ws"].shape, self.in_channels * kh * kw)
        self.params["bs"] = np.zeros(self.mid_channels)
        self.params["wt"] = he_uniform(rng, self.params["wt"].shape,
                                       self.mid_channels * self.temporal_kernel)
        self.params["bt"] = np.zeros(self.out_channels)

    @sample_or_batch
    def forward(self, x, mode="eval"):
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"expected (N, {self.in_channels}, T, H, W), got shape {x.shape}")
        self._x = x
        # frames as N x T x C x H x W views; the spatial output is mid-major
        mid = ops.conv2d(x.transpose(0, 2, 1, 3, 4), self.params["ws"], self.params["bs"],
                         self.spatial_spec).transpose(0, 2, 1, 3, 4)
        self._act = np.maximum(mid, 0.0, out=mid)  # also the ReLU's mask: act > 0
        n, c, tt, hh, ww = self._act.shape
        # each sample's pixels are the columns of one T x (H'*W') image
        self._flat = self._act.reshape(n, c, tt, hh * ww)
        out = ops.conv2d(self._flat, self.params["wt"], self.params["bt"], self.temporal_spec,
                         stride_hw=(self.temporal_stride, 1))
        return out.reshape(n, out.shape[1], out.shape[2], hh, ww)

    def backward(self, grad_out):
        n, c, tt, hh, ww = self._act.shape
        g = grad_out.reshape(grad_out.shape[:3] + (hh * ww,))
        gflat, gwt, gbt = ops.conv2d_backward(g, self._flat, self.params["wt"],
                                              self.temporal_spec,
                                              stride_hw=(self.temporal_stride, 1))
        self.grads["wt"] += gwt
        self.grads["bt"] += gbt
        gmid = gflat.reshape(n, c, tt, hh, ww) * (self._act > 0.0)
        gx, gws, gbs = ops.conv2d_backward(gmid.transpose(0, 2, 1, 3, 4),
                                           self._x.transpose(0, 2, 1, 3, 4),
                                           self.params["ws"], self.spatial_spec)
        self.grads["ws"] += gws
        self.grads["bs"] += gbs
        return gx.transpose(0, 2, 1, 3, 4)

    def factored_weight_count(self) -> int:
        return self.params["ws"].size + self.params["wt"].size

    def full3d_weight_count(self) -> int:
        kh, kw = self.spatial_kernel
        return self.temporal_kernel * kh * kw * self.in_channels * self.out_channels


class Projection(Layer):
    """Residual shortcut: a strided 1x1x1 channel projection on N x C x T x H x W."""

    def __init__(self, in_channels: int, out_channels: int,
                 spatial_stride=1, temporal_stride=1):
        super().__init__()
        self.in_channels, self.out_channels = in_channels, out_channels
        self.spatial_stride, self.temporal_stride = spatial_stride, temporal_stride
        self.params = {"w": np.zeros((out_channels, in_channels)), "b": np.zeros(out_channels)}
        self.weight_names = {"w"}
        self.zero_grad()

    def init_params(self, rng):
        self.params["w"] = he_uniform(rng, (self.out_channels, self.in_channels),
                                      self.in_channels)
        self.params["b"] = np.zeros(self.out_channels)

    def forward(self, x, mode="eval"):
        self._shape = x.shape
        ts, ss = self.temporal_stride, self.spatial_stride
        self._xs = x[:, :, ::ts, ::ss, ::ss]
        w, b = self.params["w"], self.params["b"]
        # one GEMM over the whole batch; the result is channel-major
        y = np.moveaxis(np.tensordot(w, self._xs, axes=([1], [1])), 0, 1)
        return y + b[:, None, None, None]

    def backward(self, grad_out):
        rest = [0, 2, 3, 4]
        self.grads["w"] += np.tensordot(grad_out, self._xs, axes=(rest, rest))
        self.grads["b"] += grad_out.sum(axis=tuple(rest))
        gs = np.moveaxis(np.tensordot(self.params["w"].T, grad_out, axes=([1], [1])), 0, 1)
        gx = np.zeros(self._shape)
        ts, ss = self.temporal_stride, self.spatial_stride
        gx[:, :, ::ts, ::ss, ::ss] = gs
        return gx


class Composite:
    """Named child layers whose parameters form one ordered namespace.

    A child's parameter ``p`` is exposed as ``<child><SEP><p>``; the children
    own the arrays, so the namespace is a view and never needs re-syncing.
    """

    SEP = "."

    def __init__(self, layers: list[tuple[str, Layer]]):
        self.layers = layers

    def _joined(self, attr: str) -> dict[str, np.ndarray]:
        return {f"{lname}{self.SEP}{pname}": arr
                for lname, layer in self.layers
                for pname, arr in getattr(layer, attr).items()}

    @property
    def params(self) -> dict[str, np.ndarray]:
        return self._joined("params")

    @property
    def grads(self) -> dict[str, np.ndarray]:
        return self._joined("grads")

    @property
    def weight_names(self) -> set[str]:
        return {f"{lname}{self.SEP}{w}" for lname, layer in self.layers
                for w in layer.weight_names}

    def init_params(self, rng: np.random.Generator):
        for _, layer in self.layers:
            layer.init_params(rng)
            layer.zero_grad()

    def zero_grad(self):
        for _, layer in self.layers:
            layer.zero_grad()

    def full3d_weight_count(self) -> int:
        return sum(layer.full3d_weight_count() for _, layer in self.layers)


class Residual2Plus1DBlock(Composite):
    """y = relu(conv2(relu(conv1(x))) + shortcut(x)) with (2+1)D convolutions.

    The shortcut is the identity when shape is preserved, otherwise a strided
    1x1x1 channel projection.  Parameters are named ``c1.*``, ``c2.*`` and
    ``proj.*``.  Inputs are N x C x T x H x W.
    """

    sample_ndim = 4

    def __init__(self, in_channels: int, out_channels: int,
                 spatial_stride=1, temporal_stride=1):
        self.conv1 = Conv2Plus1D(in_channels, out_channels,
                                 spatial_stride=spatial_stride,
                                 temporal_stride=temporal_stride)
        self.conv2 = Conv2Plus1D(out_channels, out_channels)
        self.projecting = (in_channels != out_channels
                           or spatial_stride != 1 or temporal_stride != 1)
        layers = [("c1", self.conv1), ("c2", self.conv2)]
        if self.projecting:
            self.proj = Projection(in_channels, out_channels, spatial_stride, temporal_stride)
            layers.append(("proj", self.proj))
        super().__init__(layers)

    @sample_or_batch
    def forward(self, x, mode="eval"):
        # the ReLUs run in place on the convolutions' fresh outputs; each result
        # is also its ReLU's mask (> 0) for the backward pass
        h = self.conv1.forward(x, mode)
        self._h = np.maximum(h, 0.0, out=h)
        h = self.conv2.forward(self._h, mode)
        s = self.proj.forward(x, mode) if self.projecting else x
        if h.shape != s.shape:
            raise DimensionError(f"residual branch {h.shape} vs shortcut {s.shape}")
        h += s
        self._y = np.maximum(h, 0.0, out=h)
        return self._y

    def backward(self, grad_out):
        g = grad_out * (self._y > 0.0)
        gb = self.conv2.backward(g)
        gb = gb * (self._h > 0.0)
        gx = self.conv1.backward(gb)
        return gx + (self.proj.backward(g) if self.projecting else g)


class Net(Composite):
    """Ordered layer stack with a flat, ordered parameter namespace.

    ``forward_batch``/``backward_batch`` run an N x ... batch through every
    layer once; ``forward``/``backward`` run one unbatched sample as the N=1
    batch; ``run`` takes either, telling them apart by the sample shape.
    """

    SEP = "/"

    def set_param(self, name: str, value: np.ndarray):
        lname, pname = name.split(self.SEP, 1)
        for ln, layer in self.layers:
            if ln == lname:
                if pname not in layer.params:
                    raise KeyError(name)
                if layer.params[pname].shape != value.shape:
                    raise DimensionError(
                        f"param {name}: shape {value.shape} != {layer.params[pname].shape}")
                layer.params[pname][...] = value
                return
        raise KeyError(name)

    def init_params(self, seed: int):
        super().init_params(np.random.default_rng(seed))

    def jitter(self, seed: int, scale: float = 0.05):
        """Nudge every parameter off special points (zero biases put ReLU
        pre-activations exactly on the kink, which breaks finite differences)."""
        rng = np.random.default_rng(seed)
        for p in self.params.values():
            p += rng.normal(0.0, scale, p.shape)

    def reseed_dropout(self, seed: int):
        for i, (_, layer) in enumerate(self.layers):
            if isinstance(layer, Dropout):
                layer.reseed(seed + i)

    def forward_batch(self, x, mode="eval"):
        for _, layer in self.layers:
            x = layer.forward(x, mode)
        return x

    def backward_batch(self, grad_out):
        g = grad_out
        for _, layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def forward(self, x, mode="eval"):
        return self.forward_batch(np.asarray(x)[None], mode)[0]

    def backward(self, grad_out):
        return self.backward_batch(np.asarray(grad_out)[None])[0]

    def run(self, x, sample_shape: tuple, mode="eval"):
        """Forward one sample of ``sample_shape`` or an (N,) + sample_shape
        batch; DimensionError for any other shape."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape == sample_shape:
            return self.forward(x, mode)
        if x.shape[1:] == sample_shape:
            return self.forward_batch(x, mode)
        raise DimensionError(f"input shape {x.shape} != expected {sample_shape} "
                             f"or (N,) + {sample_shape}")

    def param_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(v).tobytes() for v in self.params.values())
