"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

Just enough machinery for a small encoder / dual-decoder convolutional
network and its loss pipeline: elementwise arithmetic, full reductions,
channel softmax / log-sum-exp, instance normalization, N-D cross-correlation
with its transpose, and factor-2 linear up-sampling.

Deliberate restrictions:
  * broadcasting is limited to python-scalar-with-tensor; any other shape
    mismatch is rejected (silent shape bugs are worse than verbosity),
  * reductions collapse to a scalar; per-axis statistics live inside the
    fused ops that need them,
  * the recorded graph belongs to one training step; ``backward`` walks it
    once in topological order.

Set ``GEOSEG_CHECK_FINITE=1`` to assert that every operation applied to
finite inputs produced finite outputs (slow; for debugging NaN hunts).
"""

import os
from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import ConfigError, ShapeError, TrainingAbort

_CHECK_FINITE = os.environ.get("GEOSEG_CHECK_FINITE", "0") == "1"

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference, target prep)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _scalar(x):
    return isinstance(x, (int, float, np.integer, np.floating))


class Tensor:
    """Dense N-D array node; records its producer for reverse mode."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction --------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if _CHECK_FINITE and not np.all(np.isfinite(out.data)):
            raise TrainingAbort("non-finite values produced by a forward operation")
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from a scalar; each graph node is visited once."""
        if self.shape != ():
            raise ShapeError(f"backward requires a scalar loss, got shape {self.shape}")
        if not np.isfinite(self.data):
            raise TrainingAbort("loss is non-finite; aborting backward pass")
        # iterative postorder so deep graphs cannot hit the recursion limit
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones((), dtype=np.float64))
        for node in reversed(order):
            if node._backward is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is not None and parent.requires_grad:
                    parent._accumulate(g)

    # -- elementwise arithmetic ----------------------------------------------

    def _check_same_shape(self, other, opname):
        if self.shape != other.shape:
            raise ShapeError(
                f"{opname}: shapes {self.shape} and {other.shape} differ "
                "(only scalar-with-tensor broadcasting is supported)")

    def __add__(self, other):
        if _scalar(other):
            return Tensor._make(self.data + other, (self,), lambda g: (g,))
        self._check_same_shape(other, "add")
        return Tensor._make(self.data + other.data, (self, other), lambda g: (g, g))

    __radd__ = __add__

    def __sub__(self, other):
        if _scalar(other):
            return Tensor._make(self.data - other, (self,), lambda g: (g,))
        self._check_same_shape(other, "sub")
        return Tensor._make(self.data - other.data, (self, other), lambda g: (g, -g))

    def __rsub__(self, other):
        return Tensor._make(other - self.data, (self,), lambda g: (-g,))

    def __mul__(self, other):
        if _scalar(other):
            return Tensor._make(self.data * other, (self,), lambda g: (g * other,))
        self._check_same_shape(other, "mul")
        a, b = self.data, other.data
        return Tensor._make(a * b, (self, other), lambda g: (g * b, g * a))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _scalar(other):
            return Tensor._make(self.data / other, (self,), lambda g: (g / other,))
        self._check_same_shape(other, "div")
        a, b = self.data, other.data
        return Tensor._make(a / b, (self, other),
                            lambda g: (g / b, -g * a / (b * b)))

    def square(self):
        a = self.data
        return Tensor._make(a * a, (self,), lambda g: (2.0 * a * g,))

    # -- activations -----------------------------------------------------------

    def relu(self):
        a = self.data
        return Tensor._make(np.maximum(a, 0.0), (self,),
                            lambda g: (g * (a > 0.0),))

    def tanh(self):
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, (self,),
                            lambda g: (g * (1.0 - out_data * out_data),))

    def sigmoid(self):
        # stable two-branch logistic
        a = self.data
        out_data = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                            np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
        return Tensor._make(out_data, (self,),
                            lambda g: (g * out_data * (1.0 - out_data),))

    # -- reductions ------------------------------------------------------------

    def sum(self):
        shape = self.shape
        return Tensor._make(self.data.sum(), (self,),
                            lambda g: (np.full(shape, g, dtype=np.float64),))

    def mean(self):
        shape = self.shape
        n = self.data.size
        return Tensor._make(self.data.mean(), (self,),
                            lambda g: (np.full(shape, g / n, dtype=np.float64),))

    # -- shape surgery ------------------------------------------------------------

    def narrow(self, axis, start, length):
        """Contiguous slice [start, start+length) along one axis."""
        if start < 0 or start + length > self.shape[axis]:
            raise ShapeError(
                f"narrow [{start}:{start + length}) out of range for axis {axis} "
                f"of shape {self.shape}")
        index = tuple(slice(None) if d != axis else slice(start, start + length)
                      for d in range(self.ndim))
        shape = self.shape

        def backward(g):
            full = np.zeros(shape, dtype=np.float64)
            full[index] = g
            return (full,)

        return Tensor._make(np.ascontiguousarray(self.data[index]), (self,), backward)


def concat(tensors, axis):
    """Concatenate along ``axis``; gradient splits back to the operands."""
    datas = [t.data for t in tensors]
    base = list(datas[0].shape)
    for d in datas[1:]:
        other = list(d.shape)
        if base[:axis] + base[axis + 1:] != other[:axis] + other[axis + 1:]:
            raise ShapeError(f"concat: shapes {datas[0].shape} and {d.shape} "
                             f"differ off axis {axis}")
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return Tensor._make(np.concatenate(datas, axis=axis), tuple(tensors), backward)


def softmax_channel(t):
    """Channel-axis softmax for [N, C, spatial...] tensors, C >= 2."""
    if t.ndim < 3 or t.shape[1] < 2:
        raise ShapeError(f"softmax_channel needs [N, C>=2, spatial...], got {t.shape}")
    z = t.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    p = e / e.sum(axis=1, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return Tensor._make(p, (t,), backward)


def logsumexp_channel(t):
    """Stable log-sum-exp over the channel axis; output keeps a size-1 channel."""
    z = t.data
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = e.sum(axis=1, keepdims=True)

    def backward(g):
        return (g * (e / s),)

    return Tensor._make(m + np.log(s), (t,), backward)


def instance_norm(t, eps=1e-5):
    """Normalize each (item, channel) slice over its spatial extent."""
    if t.ndim < 3:
        raise ShapeError(f"instance_norm needs [N, C, spatial...], got {t.shape}")
    axes = tuple(range(2, t.ndim))
    x = t.data
    mu = x.mean(axis=axes, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv

    def backward(g):
        gm = g.mean(axis=axes, keepdims=True)
        gym = (g * y).mean(axis=axes, keepdims=True)
        return (inv * (g - gm - y * gym),)

    return Tensor._make(y, (t,), backward)


# -- convolution ----------------------------------------------------------------


def _spatial_tuple(value, rank, name):
    if isinstance(value, int):
        value = (value,) * rank
    value = tuple(int(v) for v in value)
    if len(value) != rank:
        raise ShapeError(f"{name} {value} does not match spatial rank {rank}")
    return value


def _conv_args(op, x, kernel, bias, stride, ci_axis):
    """Check conv operands (input channels on kernel axis ``ci_axis``);
    returns the per-axis stride.  Messages name the op and both shapes."""
    shapes = f"{op}: input {x.shape}, kernel {kernel.shape}"
    if x.ndim not in (4, 5) or kernel.ndim != x.ndim:
        raise ShapeError(f"{shapes}: both need the same spatial rank, 2 or 3")
    if kernel.shape[ci_axis] != x.shape[1]:
        raise ShapeError(f"{shapes}: input channels differ from kernel axis "
                         f"{ci_axis}")
    stride = _spatial_tuple(stride, x.ndim - 2, "stride")
    if any(s < 1 for s in stride):
        raise ConfigError(f"{shapes}: stride must be >= 1 per axis, got {stride}")
    co = kernel.shape[1 - ci_axis]
    if bias is not None and bias.shape != (co,):
        raise ShapeError(f"{shapes}: bias {bias.shape} must be ({co},)")
    return stride


def _conv_node(y, x, kernel, bias, grads):
    """Node for conv output ``y`` plus ``bias`` per output channel;
    ``grads(g)`` returns the (input, kernel) gradients."""
    if bias is None:
        return Tensor._make(y, (x, kernel), grads)
    sum_axes = (0,) + tuple(range(2, y.ndim))
    y = y + bias.data.reshape((1, -1) + (1,) * (y.ndim - 2))
    return Tensor._make(y, (x, kernel, bias),
                        lambda g: grads(g) + (g.sum(axis=sum_axes),))


def conv_nd(x, kernel, bias=None, stride=1, padding=0):
    """N-D cross-correlation of [N,Ci,S...] with [Co,Ci,K...] plus bias.

    Output extent per axis: (in + 2*pad - k) // stride + 1.
    """
    stride = _conv_args("conv_nd", x, kernel, bias, stride, ci_axis=1)
    padding = _spatial_tuple(padding, x.ndim - 2, "padding")
    kspatial = kernel.shape[2:]
    for ext, p, k in zip(x.shape[2:], padding, kspatial):
        if ext + 2 * p < k:
            raise ShapeError(f"conv_nd: kernel {kernel.shape} does not fit padded "
                             f"input {x.shape} (padding {padding})")

    pads = [(0, 0), (0, 0)] + [(p, p) for p in padding]
    xp = np.pad(x.data, pads) if any(padding) else x.data
    kd = kernel.data
    padded_spatial = xp.shape[2:]
    inner = tuple([slice(None), slice(None)]
                  + [slice(p, sp - p) for p, sp in zip(padding, padded_spatial)])

    def grads(g):
        gx = np.ascontiguousarray(
            kernels.conv_bwd_input(g, kd, stride, padded_spatial)[inner])
        return gx, kernels.conv_bwd_kernel(xp, g, stride, kspatial)

    return _conv_node(kernels.conv_fwd(xp, kd, stride), x, kernel, bias, grads)


def conv_transpose_nd(x, kernel, bias=None, stride=1):
    """Adjoint of conv_nd: [N,Ci,S...] with kernel [Ci,Co,K...] -> [N,Co,S'...].

    Output extent per axis: (in - 1) * stride + k.  With the same kernel and
    stride this is the exact numerical adjoint of the zero-padding-free
    conv_nd (inner-product identity).
    """
    stride = _conv_args("conv_transpose_nd", x, kernel, bias, stride, ci_axis=0)
    kspatial = kernel.shape[2:]
    out_spatial = tuple((ext - 1) * s + k
                        for ext, s, k in zip(x.shape[2:], stride, kspatial))
    xd = x.data
    kd = kernel.data

    def grads(g):
        return (kernels.conv_fwd(g, kd, stride),
                kernels.conv_bwd_kernel(g, xd, stride, kspatial))

    y = kernels.conv_bwd_input(xd, kd, stride, out_spatial)
    return _conv_node(y, x, kernel, bias, grads)


def _upsample_plan(n):
    # align-corners-false linear interpolation, fixed factor 2:
    # source coordinate of output j is (j + 0.5) / 2 - 0.5, clamped
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n - 1)
    w1 = src - i0
    return i0, i1, 1.0 - w1, w1


def _upsample_axis_backward(g, axis):
    # adjoint of the factor-2 stencil: interior outputs blend 0.75/0.25 with
    # a neighbor, the clamped first/last output copy their edge input
    moved = np.moveaxis(g, axis, 0)
    even = moved[0::2]
    odd = moved[1::2]
    n = even.shape[0]
    gx = np.zeros((n,) + moved.shape[1:], dtype=np.float64)
    gx[0] += even[0]
    if n > 1:
        gx[1:] += 0.75 * even[1:]
        gx[:-1] += 0.25 * even[1:]
        gx[:-1] += 0.75 * odd[:-1]
        gx[1:] += 0.25 * odd[:-1]
    gx[n - 1] += odd[n - 1]
    return np.moveaxis(gx, 0, axis)


def interp_upsample(x):
    """Linear (bi/tri-linear) x2 up-sampling of the spatial axes."""
    if x.ndim not in (4, 5):
        raise ShapeError(f"interp_upsample supports rank 2 or 3, input is {x.shape}")
    axes = tuple(range(2, x.ndim))
    plans = [(axis, *_upsample_plan(x.shape[axis])) for axis in axes]

    data = x.data
    for axis, i0, i1, w0, w1 in plans:
        wshape = [1] * data.ndim
        wshape[axis] = -1
        data = (np.take(data, i0, axis=axis) * w0.reshape(wshape)
                + np.take(data, i1, axis=axis) * w1.reshape(wshape))

    def backward(g):
        for axis in reversed(axes):
            g = _upsample_axis_backward(g, axis)
        return (np.ascontiguousarray(g),)

    return Tensor._make(data, (x,), backward)


# -- parameters and the optimizer -------------------------------------------------


class Parameter(Tensor):
    """Trainable tensor with a same-shaped momentum buffer.

    ``grad`` is pre-allocated to zeros so parameters untouched by a backward
    pass report an exactly-zero gradient.
    """

    __slots__ = ("momentum", "name")

    def __init__(self, data, name=""):
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        self.grad = np.zeros_like(self.data)
        self.momentum = np.zeros_like(self.data)
        self.name = name


class SGD:
    """SGD with classical momentum: buf <- mu*buf + g; w <- w - lr*buf."""

    def __init__(self, params, lr, momentum=0.9):
        if not 0 < lr < np.inf:
            raise ConfigError(f"learning rate must be positive and finite, "
                              f"got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.params = list(params)
        self.lr = float(lr)
        self.mu = float(momentum)

    def zero_grad(self):
        for p in self.params:
            p.grad = np.zeros_like(p.data)

    def step(self, lr=None):
        lr = self.lr if lr is None else float(lr)
        for p in self.params:
            g = p.grad
            if not np.all(np.isfinite(g)):
                raise TrainingAbort(
                    f"non-finite gradient for parameter {p.name or '<unnamed>'}; "
                    "step rejected")
            p.momentum *= self.mu
            p.momentum += g
            p.data -= lr * p.momentum


def mse(a, b):
    """Mean squared error over all elements (equal shapes required)."""
    return (a - b).square().mean()
