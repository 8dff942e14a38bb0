"""Layer objects with hand-written backward passes, composed into ``Net`` stacks.

Every layer, ``Net`` included, is batch-first: ``forward`` takes an N x ...
batch, ``backward`` the gradient of the whole batch's output, and the
parameter gradients are summed over the batch.  A ``Net``'s ``forward`` and
``backward``, the one path of training and inference, run from the input to
the logits and back.  ``Net.run`` is the one way to a net's probabilities: it
checks that an input ends in the net's ``input_shape``, runs any leading axes
in front of it as the batch (one sample as the N=1 batch) and applies the
net's output activation (softmax or sigmoid), refusing a non-finite output
(DomainError).  A net takes samples in their data's layout; a ``Reshape``
layer gives the other layers the view they need.

Ownership: a layer allocates its float64 ``params`` and their ``grads`` once,
in ``Layer.__init__``; after that every write to them is in place
(``init_params``, the backward, ``model_io.load_net`` and Adam), so any
reference to one of these arrays stays valid for the layer's life.  Each
backward writes its parameter gradients, overwriting the last call's; until
the first backward they are fresh zero pages, which a net that only runs
forward (``predict``, ``eval``, a frozen fusion part) never touches.  A
``Composite`` (a ``Net``, a residual block inside one, or a ``Conv2Plus1D``
over its two ``Conv2D`` factors) is a layer whose ``params`` and ``grads`` are
plain dicts, built once, holding its children's own arrays under one ordered
namespace (the serialization order).  A forward saves the caches its
backward needs, and that backward reads them once and drops them, so a cache
lives from a forward to the backward that reads it (PyTorch's saved tensors
without ``retain_graph``): a net's backward frees each layer's caches as it
passes, and a second backward with no forward between raises (KeyError).  An
eval forward keeps its caches too, since ``ops.gradient_check`` runs a
backward after one.  ``backward`` must be called in exact reverse order of
``forward``, which ``Net`` guarantees.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .errors import DimensionError, DomainError, ParameterError
from .ops import ConvSpec


def _seeded_rng(seed: int, offset: int = 0) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed + offset)


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Base layer: parameter dict, gradient dict, weight/bias distinction.

    ``params`` and one gradient per parameter are allocated here, once.  A
    gradient is ``np.zeros`` of its parameter's shape: fresh pages that the
    OS zeroes when a backward first writes them.  A layer with parameters
    has a weight ``w`` over ``fan_in`` inputs per output and a bias ``b``;
    ``weight_names`` are the regularized params (biases excluded).
    """

    def __init__(self, params: dict[str, np.ndarray] | None = None, fan_in: int = 0):
        self.params = params or {}
        self.grads = {k: np.zeros(v.shape) for k, v in self.params.items()}
        self.weight_names = {"w"} & self.params.keys()
        self.fan_in = fan_in

    def init_params(self, rng: np.random.Generator):
        """He-uniform ``w`` over ``fan_in`` and zero ``b``, for a layer that has them."""
        if "w" in self.params:
            self.params["w"][...] = he_uniform(rng, self.params["w"].shape, self.fan_in)
            self.params["b"].fill(0.0)

    def full3d_weight_count(self) -> int:
        """Weights with every (2+1)D factor pair counted as its full 3-D kernel."""
        return sum(self.params[w].size for w in self.weight_names)

    def forward(self, x, mode="eval"):
        raise NotImplementedError

    def backward(self, grad_out):
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer on N x in_dim inputs: Y = X @ W + b.

    The backward writes X.T @ G into the weight gradient one block of rows
    (``ops.BLOCK_VALUES`` values, one row at least) at a time, each product
    straight into its rows of the gradient: a block keeps the product in
    cache, and no second weight-sized array is held.
    """

    def __init__(self, in_dim: int, out_dim: int):
        super().__init__({"w": np.zeros((in_dim, out_dim)), "b": np.zeros(out_dim)}, in_dim)
        self.in_dim, self.out_dim = in_dim, out_dim

    def forward(self, x, mode="eval"):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"dense expects shape (N, {self.in_dim}), got {x.shape}")
        self._x = x
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad_out):
        x = vars(self).pop("_x")
        step = max(1, ops.BLOCK_VALUES // self.out_dim)
        for start in range(0, self.in_dim, step):
            rows = slice(start, start + step)
            np.matmul(x[:, rows].T, grad_out, out=self.grads["w"][rows])
        np.sum(grad_out, axis=0, out=self.grads["b"])
        del x  # freed before the input gradient is allocated
        return grad_out @ self.params["w"].T


class Conv2D(Layer):
    """2-D convolution over [*B,] N x C x H x W; leading axes are batch axes (``ops.conv2d``)."""

    def __init__(self, spec: ConvSpec):
        wshape = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        super().__init__({"w": np.zeros(wshape), "b": np.zeros(spec.out_channels)},
                         spec.in_channels * spec.kernel_h * spec.kernel_w)
        self.spec = spec

    def forward(self, x, mode="eval"):
        if x.ndim < 4:
            raise DimensionError(f"conv2d layer expects N x C x H x W, got shape {x.shape}")
        self._x = x
        return ops.conv2d(x, self.params["w"], self.params["b"], self.spec)

    def backward(self, grad_out):
        gi, gw, gb = ops.conv2d_backward(grad_out, vars(self).pop("_x"), self.params["w"],
                                         self.spec)
        self.grads["w"][...] = gw
        self.grads["b"][...] = gb
        return gi


class ReLU(Layer):
    """max(x, 0); the backward's mask is x > 0, kept as bool (1 byte a value)."""

    def forward(self, x, mode="eval"):
        self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        return grad_out * vars(self).pop("_mask")


class Dropout(Layer):
    """Inverted dropout; ``Net.reseed_dropout`` seeds its mask stream ``rng``.

    A batch's mask is one draw of the batch's shape, so it equals the masks of
    its samples drawn one after another from the same stream.  The mask is
    bool; a value it keeps is scaled after the masking: (x * mask) * scale.
    """

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate, self.scale = rate, 1.0 / (1.0 - rate)
        self.rng = np.random.default_rng(0)

    def forward(self, x, mode="eval"):
        self._mask = None
        if mode == "train" and self.rate > 0.0:  # False with probability rate
            self._mask = self.rng.random(x.shape) >= self.rate
        return x if self._mask is None else (x * self._mask) * self.scale

    def backward(self, grad_out):
        mask = vars(self).pop("_mask")
        return grad_out if mask is None else (grad_out * mask) * self.scale


class Reshape(Layer):
    """N x ... -> N x ``shape`` as a view, one entry of which may be -1;
    DimensionError if a sample's values do not fill ``shape``."""

    def __init__(self, shape: tuple):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x, mode="eval"):
        self._shape = x.shape
        try:
            return x.reshape(x.shape[:1] + self.shape)
        except ValueError:
            raise DimensionError(f"cannot reshape {x.shape} to N x {self.shape}") from None

    def backward(self, grad_out):
        return grad_out.reshape(self._shape)


class GlobalAvgPool(Layer):
    """N x C x ... -> N x C per-channel mean."""

    def forward(self, x, mode="eval"):
        self._shape = x.shape
        n, c = x.shape[:2]
        return x.reshape(n * c, -1).mean(axis=1).reshape(n, c)

    def backward(self, grad_out):
        count = int(np.prod(self._shape[2:]))
        return np.broadcast_to(grad_out.reshape(grad_out.shape + (1,) * (len(self._shape) - 2)),
                               self._shape) / count


class Composite(Layer):
    """Named child layers whose parameters form one ordered namespace.

    A child's parameter and its gradient are entered under the class's
    ``KEY`` rule in ``params`` and ``grads``, built once here; the entries
    are the child's own arrays, which are only ever written in place, so the
    namespace never needs re-syncing.
    """

    KEY = "{child}.{param}"

    def __init__(self, layers: list[tuple[str, Layer]]):
        self.layers = layers
        self.params, self.grads, self.weight_names = {}, {}, set()
        for lname, layer in layers:
            for pname, arr in layer.params.items():
                key = self.KEY.format(child=lname, param=pname)
                self.params[key], self.grads[key] = arr, layer.grads[pname]
            self.weight_names.update(self.KEY.format(child=lname, param=w)
                                     for w in layer.weight_names)

    def init_params(self, rng: np.random.Generator):
        for _, layer in self.layers:
            layer.init_params(rng)

    def full3d_weight_count(self) -> int:
        return sum(layer.full3d_weight_count() for _, layer in self.layers)


def _framewise(fn, x: np.ndarray) -> np.ndarray:
    """``fn``, a ``Conv2D``'s forward or backward, over the frames of the
    channel-major N x C x T x H x W ``x`` as N x T x C x H x W views; the
    result comes back channel-major."""
    return fn(x.transpose(0, 2, 1, 3, 4)).transpose(0, 2, 1, 3, 4)


class Conv2Plus1D(Composite):
    """Factorized space-time convolution on N x C x T x H x W.

    A 2-D spatial convolution of every frame (in -> out channels), a ReLU,
    then a 1-D temporal convolution of every pixel (out -> out channels); the
    pair strides T, H and W by ``stride``.  The kernels are 3x3
    (``spatial_kernel``) and 3 (``temporal_kernel``), so a pair with equal
    channels c stores 9c^2 + 3c^2 = 12c^2 weights versus 27c^2 for the
    unfactorized kernel.  Both factors use "same" padding.  Each factor is
    one ``Conv2D`` over the whole batch: the spatial factor over its N x T
    frames, the temporal factor over its N samples, each a T x (H*W) image
    whose lowered matrix is the padded image itself (kernel width 1).
    The factors are the children ``s`` (spatial) and ``t`` (temporal).
    """

    KEY = "{param}{child}"  # ws, bs, wt, bt
    spatial_kernel, temporal_kernel = (3, 3), 3

    def __init__(self, in_channels: int, out_channels: int, stride=1):
        self.in_channels, self.out_channels = in_channels, out_channels
        self.spatial = Conv2D(ConvSpec(*self.spatial_kernel, (stride, stride), "same",
                                       in_channels, out_channels))
        self.temporal = Conv2D(ConvSpec(self.temporal_kernel, 1, (stride, 1), "same",
                                        out_channels, out_channels))
        super().__init__([("s", self.spatial), ("t", self.temporal)])

    def forward(self, x, mode="eval"):
        if x.ndim != 5 or x.shape[1] != self.in_channels:
            raise DimensionError(
                f"expected (N, {self.in_channels}, T, H, W), got shape {x.shape}")
        mid = _framewise(self.spatial.forward, x)
        self._act = np.maximum(mid, 0.0, out=mid)  # also the ReLU's mask: act > 0
        n, c, tt, hh, ww = self._act.shape
        # each sample's pixels are the columns of one T x (H'*W') image
        out = self.temporal.forward(self._act.reshape(n, c, tt, hh * ww))
        return out.reshape(n, out.shape[1], out.shape[2], hh, ww)

    def backward(self, grad_out):
        n, c, tt, hh, ww = self._act.shape
        gflat = self.temporal.backward(grad_out.reshape(grad_out.shape[:3] + (hh * ww,)))
        gmid = gflat.reshape(n, c, tt, hh, ww) * (vars(self).pop("_act") > 0.0)
        return _framewise(self.spatial.backward, gmid)

    def full3d_weight_count(self) -> int:
        kh, kw = self.spatial_kernel
        return self.temporal_kernel * kh * kw * self.in_channels * self.out_channels


class Residual2Plus1DBlock(Composite):
    """y = relu(conv2(relu(conv1(x))) + shortcut(x)) with (2+1)D convolutions.

    ``conv1`` and the shortcut stride T, H and W by ``stride``; the shortcut
    is the identity when shape is preserved, otherwise a projection (ResNet's
    option B), a 1x1 ``Conv2D`` of stride (stride, stride) over every stride-th
    frame; its gradient is added in place onto those frames of conv1's input
    gradient.  Parameters are named ``c1.*``, ``c2.*`` and ``proj.*``.
    """

    def __init__(self, in_channels: int, out_channels: int, stride=1):
        self.conv1 = Conv2Plus1D(in_channels, out_channels, stride)
        self.conv2 = Conv2Plus1D(out_channels, out_channels)
        self.stride, self.projecting = stride, in_channels != out_channels or stride != 1
        layers = [("c1", self.conv1), ("c2", self.conv2)]
        if self.projecting:
            self.proj = Conv2D(ConvSpec(1, 1, (stride, stride), "valid",
                                        in_channels, out_channels))
            layers.append(("proj", self.proj))
        super().__init__(layers)

    def forward(self, x, mode="eval"):
        # the ReLUs run in place on the convolutions' fresh outputs; each result
        # is also its ReLU's mask (> 0) for the backward pass
        h = self.conv1.forward(x, mode)
        self._h = np.maximum(h, 0.0, out=h)
        h = self.conv2.forward(self._h, mode)
        h += _framewise(self.proj.forward, x[:, :, ::self.stride]) if self.projecting else x
        self._y = np.maximum(h, 0.0, out=h)
        return self._y

    def backward(self, grad_out):
        g = grad_out * (vars(self).pop("_y") > 0.0)
        gb = self.conv2.backward(g)
        gb = gb * (vars(self).pop("_h") > 0.0)
        gx = self.conv1.backward(gb)
        if self.projecting:
            g = _framewise(self.proj.backward, g)
        gx[:, :, ::self.stride] += g  # gx holds no -0.0 (ops.conv2d_backward)
        return gx


class Net(Composite):
    """Ordered layer stack with a flat, ordered parameter namespace.

    ``forward``/``backward`` run an N x ... batch through every layer once,
    from the input to the logits and back.  ``input_shape`` is the shape of
    one sample; ``output`` is the activation kind (``ops.activation``) that
    ``run`` applies to the logits, None for none; ``config`` is the config of
    the ``model_io.KINDS`` builder that made the net, None for a hand-built one.
    """

    KEY = "{child}/{param}"

    def __init__(self, layers: list[tuple[str, Layer]], input_shape: tuple,
                 output: str | None = None, config=None):
        super().__init__(layers)
        self.input_shape, self.output, self.config = tuple(input_shape), output, config

    def init_params(self, seed: int | None):
        """He-uniform weights and zero biases drawn from ``seed``; None leaves
        every parameter as it is (zero in a new net, for ``load_net`` to fill).
        ParameterError for a negative seed."""
        if seed is not None:
            super().init_params(_seeded_rng(seed))

    def jitter(self, seed: int):
        """Nudge every parameter off special points (zero biases put ReLU
        pre-activations exactly on the kink, which breaks finite differences).
        ParameterError for a negative seed."""
        rng = _seeded_rng(seed)
        for p in self.params.values():
            p += rng.normal(0.0, 0.05, p.shape)

    def reseed_dropout(self, seed: int):
        """Seed each ``Dropout`` with ``seed`` plus its layer index, so a layer
        inserted before a ``Dropout`` changes that dropout's masks.
        ParameterError for a negative seed, if the net has a ``Dropout``."""
        for i, (_, layer) in enumerate(self.layers):
            if isinstance(layer, Dropout):
                layer.rng = _seeded_rng(seed, i)

    def forward(self, x, mode="eval"):
        for _, layer in self.layers:
            x = layer.forward(x, mode)
        return x

    def backward(self, grad_out):
        g = grad_out
        for _, layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def run(self, x, mode="eval"):
        """The probabilities of an input of shape lead + ``input_shape``: its
        samples run as one batch through ``forward`` and the ``output``
        activation, and the result keeps the leading axes ``lead``, none for
        one sample.  DimensionError if the trailing axes are not
        ``input_shape``, DomainError if an output is not finite."""
        x = np.asarray(x, dtype=np.float64)
        lead = x.shape[:max(0, x.ndim - len(self.input_shape))]
        if x.shape[len(lead):] != self.input_shape:
            raise DimensionError(f"input shape {x.shape} does not end in {self.input_shape}")
        y = self.forward(x.reshape((-1,) + self.input_shape), mode)
        if self.output is not None:
            y = ops.activation(y, self.output)
        if not np.isfinite(y).all():
            raise DomainError("non-finite network output: its parameters or input overflow")
        return y.reshape(lead + y.shape[1:])

    def param_bytes(self) -> bytes:
        return b"".join(np.ascontiguousarray(v).tobytes() for v in self.params.values())
