"""Minimal reverse-mode autodiff over dense numpy arrays.

Just enough machinery for a small encoder / dual-decoder convolutional
network and its loss pipeline: elementwise arithmetic, full reductions,
channel softmax / log-sum-exp, instance normalization fused with the ReLU
that always follows it (one node, closed-form backward), N-D
cross-correlation with its transpose, and factor-2 linear up-sampling as a
two-tap slice stencil along each axis.

Deliberate restrictions:
  * broadcasting is limited to python-scalar-with-tensor; any other shape
    mismatch is rejected (silent shape bugs are worse than verbosity),
  * reductions collapse to a scalar; per-axis statistics live inside the
    fused ops that need them,
  * the recorded graph belongs to one training step; ``backward`` walks it
    once in topological order and releases it as it goes.

Dtypes.  A tensor keeps a float array in its own dtype, float32 as float32
and float64 as float64; anything else (ints, bools, lists, python
scalars, floats wider than float64) becomes float64.  Every op computes,
and allocates its buffers, in its operands' dtype, and a python scalar
does not widen it, so a graph runs in the dtype of its leaves.  Training
is float64: its batches, parameters and checkpoints are.  Test-time
prediction runs a float32 copy of the network on float32 tiles
(``inference.sliding_window_infer``).  Operands of two dtypes compute in
the wider one, numpy's rule, so one float64 array in a float32 graph
widens everything downstream of it.

Release.  Right after an operation node's backward has run, the walk drops
the node's backward closure, with the arrays it saved, and its links to
its operands.  A node that nobody else holds is then freed, with its data
and its gradient, so an activation lives only until the backward of its
last consumer; a node the caller holds keeps its ``grad``.  A later
backward that reaches a released node raises ``GeoSegError`` before it
changes any gradient.  An instance-norm node saves no normalized copy:
it holds its operand's data, which the operand's node holds anyway, and
two numbers per (item, channel), and its backward rebuilds the rest.
A padded copy adopts its source: once ``conv_nd`` has copied its input
into its zero-padded array, or ``concat_padded`` its first operand into
the concatenation, the source node's ``data`` becomes the view of that
copy, which the graph holds anyway, so the two are one array.  Nothing
writes into an operation node's data, so the view stays equal to the
array it replaced.  Only an operation node of the caller's lane is
rebound, and only while a graph is recorded: leaves, ``no_grad`` results
and the other lane's nodes keep their arrays.  ``concat_padded`` leaves
its later operands, the network's skips, alone: other layers read them,
and a view would pin the concatenation until their backward.

Two lanes.  ``fork`` runs one function on a second thread, the worker,
while another runs on the caller's thread, and returns once both have
ended; it is the one way the two threads join.  Every node recorded on
the worker is in lane 1 and every other node in lane 0.  The network's
decoder 2 is lane 1 in training (``DualDecoderNet.forward``).  ``backward``
walks each lane on its own thread: the serial walk's reverse postorder,
restricted to the lane.  A node waits only for the gradients that the
other lane delivers to it; a lane that raises ends the other at its next
wait, and ``fork`` raises the failing lane's exception.  The
summation-order rule makes the result bit-identical to one thread's walk:
every node adds its incoming gradients in the serial walk's order,
whichever thread delivers them.  Parameters add into their own gradient
buffer, which ``SGD.zero_grad`` zero-fills.

Set ``GEOSEG_CHECK_FINITE=1`` to assert that every operation applied to
finite inputs produced finite outputs (slow; for debugging NaN hunts).
"""

import os
import threading
from collections import deque
from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import ConfigError, GeoSegError, ShapeError, TrainingAbort

_CHECK_FINITE = os.environ.get("GEOSEG_CHECK_FINITE", "0") == "1"

_grad_enabled = True

# glibc malloc settings made before the worker starts, as (mallopt
# parameter, value): at most one arena (M_ARENA_MAX), and fixed thresholds
# for mapping a block (M_MMAP_THRESHOLD, 32 MB, the ceiling of glibc's own
# adaptive value) and for trimming the heap top (M_TRIM_THRESHOLD, twice
# that).  With two threads the adaptive thresholds keep handing pages back
# and faulting them in again: 4,900-7,400 page faults and 15-29 ms of
# system time per default training step, and a step about 9% slower than
# with the fixed thresholds, which fault no page.  A second arena for the
# worker slowed single-thread eval after training under the adaptive
# thresholds, and raises the peak memory of training by about 1%.
_MALLOPT = ((-8, 1), (-3, 32 << 20), (-1, 64 << 20))


class _Lane(threading.local):
    # lane of the nodes this thread records: 1 on the worker thread
    index = 0


_lane = _Lane()
_worker = None


def _worker_pool():
    """The worker thread, started on first use, after ``_MALLOPT``."""
    global _worker
    if _worker is None:
        import ctypes
        from concurrent.futures import ThreadPoolExecutor
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):
            pass  # not glibc
        else:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            for param, value in _MALLOPT:
                mallopt(param, value)
        _worker = ThreadPoolExecutor(max_workers=1,
                                     thread_name_prefix="geoseg-lane1",
                                     initializer=setattr,
                                     initargs=(_lane, "index", 1))
    return _worker


def fork(main_fn, side_fn):
    """(main_fn(), side_fn()), with ``side_fn`` run on the worker thread
    as lane 1 while ``main_fn`` runs on this thread.  ``side_fn`` must not
    fork.  If either raises, or this thread is interrupted while it waits
    for the side function, the call raises once both have ended: the main
    function's error if it raised, else the side function's or the
    interrupt."""
    future = _worker_pool().submit(side_fn)
    try:
        return main_fn(), future.result()
    except BaseException:
        future.exception()  # waits for the side function to end
        raise


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


def _adopt(t, copy):
    # rebind t's data to ``copy``, an equal array that the graph holds,
    # when t is an operation node of this lane (see "Release")
    if _grad_enabled and t._backward is not None and t._lane == _lane.index:
        t.data = copy


def _as_float(data):
    # the dtype rule (see the module docstring): a float array no wider than
    # float64 keeps its dtype
    data = np.asarray(data)
    if data.dtype.kind == "f" and data.dtype.itemsize <= 8:
        return data
    return data.astype(np.float64)


def _scalar(x):
    return isinstance(x, (int, float, np.integer, np.floating))


class Tensor:
    """Dense N-D array node; records its producer for reverse mode."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward",
                 "_lane", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = _as_float(data)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._lane = 0

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
        return self.data.item()

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
            out._lane = _lane.index
        return out

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from a scalar; each graph node is visited once and
        released once its backward has run (see the module docstring).
        With lane-1 nodes in the graph, lane 1 runs on the worker thread."""
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
            if node._backward is _released:
                _released(None)  # raises before any gradient changes
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        order.reverse()
        self._accumulate(np.ones((), dtype=self.data.dtype))
        walk = _Walk(order)
        del order  # the walk alone holds the nodes, and drops each when done
        if walk.lanes[1]:
            fork(lambda: walk.run(0), lambda: walk.run(1))
        else:
            walk.run(0)

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

    def tanh(self):
        out_data = np.tanh(self.data)
        return Tensor._make(out_data, (self,),
                            lambda g: (g * (1.0 - out_data * out_data),))

    def sigmoid(self):
        # stable two-branch logistic, one exponential for both branches
        a = self.data
        e = np.exp(-np.abs(a))
        d = 1.0 + e
        out_data = np.where(a >= 0, 1.0 / d, e / d)
        return Tensor._make(out_data, (self,),
                            lambda g: (g * out_data * (1.0 - out_data),))

    # -- reductions ------------------------------------------------------------

    def sum(self):
        shape, dtype = self.shape, self.data.dtype
        return Tensor._make(self.data.sum(), (self,),
                            lambda g: (np.full(shape, g, dtype=dtype),))

    def mean(self):
        shape, dtype = self.shape, self.data.dtype
        n = self.data.size
        return Tensor._make(self.data.mean(), (self,),
                            lambda g: (np.full(shape, g / n, dtype=dtype),))

    # -- shape surgery ------------------------------------------------------------

    def narrow(self, axis, start, length):
        """Contiguous slice [start, start+length) along one axis."""
        if start < 0 or start + length > self.shape[axis]:
            raise ShapeError(
                f"narrow [{start}:{start + length}) out of range for axis {axis} "
                f"of shape {self.shape}")
        index = tuple(slice(None) if d != axis else slice(start, start + length)
                      for d in range(self.ndim))
        shape, dtype = self.shape, self.data.dtype

        def backward(g):
            full = np.zeros(shape, dtype=dtype)
            full[index] = g
            return (full,)

        return Tensor._make(np.ascontiguousarray(self.data[index]), (self,), backward)


def _released(g):
    # the backward of a node that a walk has released
    raise GeoSegError("backward reached a node that an earlier backward "
                      "released")


class _Inbox:
    """Gradients bound for a node that both lanes touch, added in the
    serial walk's order: ``expected`` lists the (consumer position, operand
    slot) of every edge into the node in that order."""

    __slots__ = ("node", "expected", "arrived", "added")

    def __init__(self, node):
        self.node = node
        self.expected = []
        self.arrived = {}
        self.added = 0


class _Walk:
    """One backward pass over ``order``, a graph's nodes in reverse
    postorder.  ``run(lane)`` applies the backward of each of the lane's
    operation nodes in that order and releases the node right after; the
    walk drops its own references to a node, its lane entry and its inbox,
    once the node is done.

    A node that one lane delivers gradients to and the other lane reads or
    also delivers to gets an inbox; the lane that reads it waits until its
    gradient is complete.  Every other node is written and read by one
    thread only, in the serial order.  A lane that raises stops the other
    one at its next wait: ``run`` returns there, and ``fork`` raises the
    failing lane's exception."""

    def __init__(self, order):
        ops = [(i, node) for i, node in enumerate(order)
               if node._backward is not None]
        touched = {}  # id(node) -> bit mask of the lanes that touch its grad
        for _, node in ops:
            for t in (node,) + node._parents:
                if t.requires_grad:
                    touched[id(t)] = touched.get(id(t), 0) | 1 << node._lane
        # per lane, (node, [(operand, inbox or None, edge key) or None per
        # operand]) in walk order
        self.lanes = (deque(), deque())
        self.inboxes = {}
        for i, node in ops:
            targets = []
            for j, p in enumerate(node._parents):
                if not p.requires_grad:
                    targets.append(None)
                    continue
                inbox = None
                if touched[id(p)] == 3:
                    inbox = self.inboxes.get(id(p))
                    if inbox is None:
                        inbox = self.inboxes[id(p)] = _Inbox(p)
                    inbox.expected.append((i, j))
                targets.append((p, inbox, (i, j)))
            self.lanes[node._lane].append((node, targets))
        self.cond = threading.Condition()
        self.failed = False

    def run(self, lane):
        entries = self.lanes[lane]
        try:
            while entries:
                node, targets = entries.popleft()
                inbox = self.inboxes.pop(id(node), None)
                if inbox is not None and not self._wait(inbox):
                    return
                for target, g in zip(targets, node._backward(node.grad)):
                    if target is None:
                        continue
                    parent, inbox, key = target
                    if inbox is not None:
                        self._deliver(inbox, key, g)
                    elif g is not None:
                        parent._accumulate(g)
                node._backward = _released
                node._parents = ()
        except BaseException:
            with self.cond:
                self.failed = True
                self.cond.notify_all()
            raise

    def _deliver(self, inbox, key, g):
        with self.cond:
            inbox.arrived[key] = g
            for key in inbox.expected[inbox.added:]:
                if key not in inbox.arrived:
                    break
                g = inbox.arrived.pop(key)
                if g is not None:
                    inbox.node._accumulate(g)
                inbox.added += 1
            else:  # the node's gradient is complete
                self.cond.notify_all()

    def _wait(self, inbox):
        """True once the inbox's node has its whole gradient, False once
        the other lane has failed."""
        with self.cond:
            self.cond.wait_for(lambda: self.failed
                               or inbox.added == len(inbox.expected))
            return not self.failed


def concat_padded(tensors):
    """Concatenate [N, C, spatial...] tensors along the channel axis into a
    result zero-padded by one voxel on both sides of every spatial axis, as
    ``conv_nd`` pads its input at ``padding=1``: a 3x3 convolution at
    ``padding=0`` then reads the result itself instead of a padded copy of
    it.  The gradient's interior splits back to the operands.  The first
    operand adopts its copy (see "Release" above)."""
    datas = [t.data for t in tensors]
    base = list(datas[0].shape)
    for d in datas[1:]:
        if base[:1] + base[2:] != list(d.shape[:1] + d.shape[2:]):
            raise ShapeError(f"concat_padded: shapes {datas[0].shape} and "
                             f"{d.shape} differ off the channel axis")
    sizes = [d.shape[1] for d in datas]
    splits = np.cumsum(sizes)[:-1]
    inner = (slice(None),) * 2 + tuple(slice(1, n + 1) for n in base[2:])
    out = np.zeros([base[0], sum(sizes)] + [n + 2 for n in base[2:]],
                   dtype=np.result_type(*datas))
    np.concatenate(datas, axis=1, out=out[inner])
    _adopt(tensors[0], out[(slice(None), slice(0, sizes[0])) + inner[2:]])

    def backward(g):
        return tuple(np.ascontiguousarray(p)
                     for p in np.split(g[inner], splits, axis=1))

    return Tensor._make(out, tuple(tensors), backward)


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


# added to each (item, channel) variance, so a constant slice normalizes to 0
_NORM_EPS = 1e-5


def instance_norm_relu(t):
    """ReLU of the instance normalization of [N, C, spatial...]: each
    (item, channel) slice is normalized over its spatial extent.

    One node.  It saves the operand's data, and the mean and inverse
    deviation per slice, not the normalized values: the backward rebuilds
    them with the forward's operations, bit for bit, masks the upstream
    gradient with the ReLU and applies the normalization's closed-form
    gradient in place.
    """
    if t.ndim < 3:
        raise ShapeError(f"instance_norm_relu needs [N, C, spatial...], "
                         f"got {t.shape}")
    shape = t.shape
    x = t.data.reshape(shape[:2] + (-1,))
    mu = x.mean(axis=2, keepdims=True)
    y = x - mu
    # the variance one item at a time, so that the square of one item, not
    # of the batch, lives next to y; each row's sum, then its division by
    # the row's length, are np.mean's own steps
    var = np.empty(shape[:2] + (1,), dtype=y.dtype)
    square = np.empty(y.shape[1:], dtype=y.dtype)
    for yi, vi in zip(y, var):
        np.add.reduce(np.multiply(yi, yi, out=square), axis=1, keepdims=True,
                      out=vi)
    del square  # gone before `y *= inv` allocates its broadcast buffer
    var /= y.shape[2]
    inv = 1.0 / np.sqrt(var + _NORM_EPS)
    y *= inv

    def backward(g):
        y = x - mu
        y *= inv
        gr = g.reshape(y.shape) * (y > 0.0)
        tmp = gr * y
        gym = tmp.mean(axis=2, keepdims=True)
        gr -= gr.mean(axis=2, keepdims=True)
        gr -= np.multiply(y, gym, out=tmp)
        gr *= inv
        return (gr.reshape(shape),)

    return Tensor._make(np.maximum(y, 0.0, out=y).reshape(shape), (t,),
                        backward)


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

    padded_spatial = tuple(ext + 2 * p for ext, p in zip(x.shape[2:], padding))
    inner = tuple([slice(None), slice(None)]
                  + [slice(p, sp - p) for p, sp in zip(padding, padded_spatial)])
    xp = x.data
    if any(padding):
        xp = np.zeros(x.shape[:2] + padded_spatial, dtype=x.data.dtype)
        xp[inner] = x.data
        _adopt(x, xp[inner])
    kd = kernel.data

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


def _on_axis(axis, start=None, stop=None, step=None):
    # index taking slice(start, stop, step) of `axis` and all of the others
    return (slice(None),) * axis + (slice(start, stop, step),)


def _upsample_axis(x, axis):
    # align-corners-false linear interpolation, fixed factor 2: output 2m
    # is 0.25*x[m-1] + 0.75*x[m] and output 2m+1 is 0.75*x[m] + 0.25*x[m+1],
    # clamped at the edges, where the first and last outputs copy x[0] and
    # x[n-1]
    out = np.empty(x.shape[:axis] + (2 * x.shape[axis],) + x.shape[axis + 1:],
                   dtype=x.dtype)
    even, odd = out[_on_axis(axis, 0, None, 2)], out[_on_axis(axis, 1, None, 2)]
    near, far = 0.75 * x, 0.25 * x
    head, tail = _on_axis(axis, None, -1), _on_axis(axis, 1, None)
    np.add(far[head], near[tail], out=even[tail])
    np.add(near[head], far[tail], out=odd[head])
    even[_on_axis(axis, 0, 1)] = x[_on_axis(axis, 0, 1)]
    odd[_on_axis(axis, -1, None)] = x[_on_axis(axis, -1, None)]
    return out


def _upsample_axis_backward(g, axis):
    # adjoint of _upsample_axis: each input sums the weighted outputs that
    # read it, in a fixed order that sets the rounding
    even, odd = g[_on_axis(axis, 0, None, 2)], g[_on_axis(axis, 1, None, 2)]
    head, tail = _on_axis(axis, None, -1), _on_axis(axis, 1, None)
    gx = np.zeros(even.shape, dtype=g.dtype)
    gx[_on_axis(axis, 0, 1)] += even[_on_axis(axis, 0, 1)]
    gx[tail] += 0.75 * even[tail]
    gx[head] += 0.25 * even[tail]
    gx[head] += 0.75 * odd[head]
    gx[tail] += 0.25 * odd[head]
    gx[_on_axis(axis, -1, None)] += odd[_on_axis(axis, -1, None)]
    return gx


def interp_upsample(x):
    """Linear (bi/tri-linear) x2 up-sampling of the spatial axes."""
    if x.ndim not in (4, 5):
        raise ShapeError(f"interp_upsample supports rank 2 or 3, input is {x.shape}")
    axes = range(2, x.ndim)
    data = x.data
    for axis in axes:
        data = _upsample_axis(data, axis)

    def backward(g):
        for axis in reversed(axes):
            g = _upsample_axis_backward(g, axis)
        return (g,)

    return Tensor._make(data, (x,), backward)


# -- parameters and the optimizer -------------------------------------------------


class Parameter(Tensor):
    """Trainable tensor with a same-shaped momentum buffer.

    ``grad`` is pre-allocated to zeros so parameters untouched by a backward
    pass report an exactly-zero gradient; a backward pass adds into that
    buffer in place.
    """

    __slots__ = ("momentum", "name")

    def __init__(self, data, name=""):
        super().__init__(np.array(data), requires_grad=True)
        self.grad = np.zeros_like(self.data)
        self.momentum = np.zeros_like(self.data)
        self.name = name

    def _accumulate(self, g):
        self.grad += g


class SGD:
    """SGD with classical momentum 0.9: buf <- 0.9*buf + g; w <- w - lr*buf.
    The rate is given per step; the schedule lives with the caller."""

    mu = 0.9

    def __init__(self, params):
        self.params = list(params)

    def zero_grad(self):
        for p in self.params:
            p.grad.fill(0.0)

    def step(self, lr):
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
