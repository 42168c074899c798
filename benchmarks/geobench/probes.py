"""Timing probes that attach to geoseg from outside.

Every probe is a wrapper installed on the module or class attribute that
the calling code looks up at call time, so nothing in the package is
edited.  ``Patches.restore`` puts every original object back.
"""

import ctypes
import math
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from geoseg import cli, inference, kernels, network, tensor, training

clock = time.perf_counter

# the named conv layers of a depth-3 DualDecoderNet, in forward order
DEPTH = 3
LAYERS = (["enc.stem"]
          + [f"enc.{kind}{level}" for level in range(1, DEPTH + 1)
             for kind in ("down", "block")]
          + [f"{dec}.{kind}{level}" for dec in ("dec1", "dec2")
             for level in range(DEPTH, 0, -1) for kind in ("up", "merge")]
          + [f"{dec}.{head}" for dec in ("dec1", "dec2")
             for head in ("seg_head", "sdm_head")])

# layer spans that a step or a case calls directly; the rest of an
# operation's time is reported as unattributed
TOP_LEVEL = {
    "step": ("training.sample_batch", "training.train_step",
             "network.save_checkpoint"),
    "case": ("inference.sliding_window_infer", "metrics.dice_jaccard",
             "metrics.surface_distances"),
}


def percentile(values, q):
    """Nearest-rank q-th percentile, or None when fewer than ten samples
    lie beyond it."""
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


class Patches:
    """Installs wrappers on attributes; ``restore`` undoes them in reverse."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = vars(owner)[name]
        setattr(owner, name, make_wrapper(original))
        self._saved.append((owner, name, original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class OpTimer:
    """Closed-loop operation times inside an enclosing call.

    An operation starts at an entry into the marker function and ends at
    the next entry, or when the enclosing call returns, so whatever the
    enclosing call does between markers (logging, checkpoints, metric
    files) counts in the operation that does it.
    """

    def __init__(self):
        self.samples = []      # seconds per completed operation
        self.failed = 0        # operations in progress when the call raised
        self._active = False
        self._open = None

    def enclosing(self, tracer=None, kind=None):
        """Wrapper maker for the enclosing call.  With a tracer, the call
        also runs in the tracer's ``kind`` scope."""
        def make(fn):
            def wrapper(*args, **kwargs):
                self._active, self._open = True, None
                try:
                    with tracer.scope(kind) if tracer else nullcontext():
                        result = fn(*args, **kwargs)
                except BaseException:
                    self.failed += self._open is not None
                    self._active, self._open = False, None
                    raise
                self._close(clock())
                self._active = False
                return result
            return wrapper
        return make

    def marker(self, fn):
        def wrapper(*args, **kwargs):
            if self._active:
                now = clock()
                self._close(now)
                self._open = now
            return fn(*args, **kwargs)
        return wrapper

    def _close(self, now):
        if self._open is not None:
            self.samples.append(now - self._open)
            self._open = None


def install_op_timers(patches, steps, cases, tracer=None):
    """Steps run from one ``sample_batch`` entry to the next inside
    ``train_loop``; cases from one ``sliding_window_infer`` entry to the
    next inside ``evaluate``.  A tracer is told which of the two it is in."""
    for owner in (training, cli):
        patches.wrap(owner, "train_loop", steps.enclosing(tracer, "step"))
    for owner in (inference, cli):
        patches.wrap(owner, "evaluate", cases.enclosing(tracer, "case"))
    patches.wrap(training, "sample_batch", steps.marker)
    patches.wrap(inference, "sliding_window_infer", cases.marker)


def reset_peak_rss():
    """Return freed heap pages to the system and restart the kernel's
    peak-RSS count of this process (Linux).  False if it cannot."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except (OSError, AttributeError):
        return False
    return True


def peak_rss_mb():
    """Peak resident memory since the last ``reset_peak_rss``, or of the
    whole process if there was none."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _prod(values):
    return math.prod(int(v) for v in values)


def _conv_fwd_flop(xp, k, stride):
    out = [(p - kk) // s + 1 for p, kk, s in zip(xp.shape[2:], k.shape[2:], stride)]
    return 2 * xp.shape[0] * k.shape[0] * k.shape[1] * _prod(out) * _prod(k.shape[2:])


def _conv_bwd_input_flop(gy, k, stride, padded_spatial):
    return 2 * gy.shape[0] * k.shape[0] * k.shape[1] * _prod(gy.shape[2:]) \
        * _prod(k.shape[2:])


def _conv_bwd_kernel_flop(xp, gy, stride, kernel_spatial):
    return 2 * gy.shape[0] * gy.shape[1] * xp.shape[1] * _prod(gy.shape[2:]) \
        * _prod(kernel_spatial)


KERNEL_FLOP = {"conv_fwd": _conv_fwd_flop,
               "conv_bwd_input": _conv_bwd_input_flop,
               "conv_bwd_kernel": _conv_bwd_kernel_flop}


def graph_nodes(root):
    """Operation nodes a backward pass from ``root`` visits."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return count


class Tracer:
    """Per-layer totals, kept apart for steps and for eval cases.

    ``totals[kind][name]`` sums milliseconds (names ending in ``ms``) or
    counts, where kind is "step" inside ``train_loop``, "case" inside
    ``evaluate`` and None elsewhere; the operation timers set it through
    ``scope``.  ``calls_ms`` sums whole train_loop and evaluate calls,
    which the CLI's own time is measured against.
    """

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.calls_ms = 0.0
        self._kind = None
        self._backward_kernel_s = None
        self._tiles = False

    def add(self, name, value):
        self.totals[self._kind][name] += value

    def install(self, patches):
        for name in KERNEL_FLOP:
            patches.wrap(kernels, name, self._kernel(name))
        patches.wrap(kernels, "edt_pass", self._edt)
        patches.wrap(tensor.Tensor, "backward", self._backward)
        patches.wrap(tensor.SGD, "step", self._timed("tensor.SGD.step"))
        patches.wrap(network.DualDecoderNet, "forward", self._forward)
        patches.wrap(network, "conv_nd", self._layer)
        patches.wrap(network, "conv_transpose_nd", self._layer)
        patches.wrap(training, "save_checkpoint", self._checkpoint)
        patches.wrap(training, "sdm_target", self._timed("geometry.sdm_target"))
        patches.wrap(training, "total_loss", self._loss)
        patches.wrap(training, "sample_batch", self._timed("training.sample_batch"))
        patches.wrap(training, "train_step", self._timed("training.train_step"))
        patches.wrap(inference, "sliding_window_infer", self._infer)
        patches.wrap(inference, "dice_jaccard", self._timed("metrics.dice_jaccard"))
        patches.wrap(inference, "surface_distances",
                     self._timed("metrics.surface_distances"))

    @contextmanager
    def scope(self, kind):
        outer, self._kind = self._kind, kind
        t0 = clock()
        try:
            yield
        finally:
            self.calls_ms += (clock() - t0) * 1e3
            self._kind = outer

    def _timed(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                self.add(f"{name}.ms", (clock() - t0) * 1e3)
                self.add(f"{name}.calls", 1)
                return result
            return wrapper
        return make

    def _kernel(self, name):
        flop = KERNEL_FLOP[name]

        def make(fn):
            def wrapper(*args):
                t0 = clock()
                result = fn(*args)
                dt = clock() - t0
                if self._backward_kernel_s is not None:
                    self._backward_kernel_s += dt
                self.add(f"kernels.{name}.ms", dt * 1e3)
                self.add(f"kernels.{name}.calls", 1)
                self.add(f"kernels.{name}.gflop", flop(*args) / 1e9)
                return result
            return wrapper
        return make

    def _edt(self, fn):
        def wrapper(f):
            t0 = clock()
            result = fn(f)
            self.add("kernels.edt_pass.ms", (clock() - t0) * 1e3)
            self.add("kernels.edt_pass.rows", f.shape[0])
            return result
        return wrapper

    def _backward(self, fn):
        def wrapper(root):
            self.add("tensor.graph_nodes", graph_nodes(root))
            self._backward_kernel_s = 0.0
            t0 = clock()
            try:
                fn(root)
            finally:
                dt = clock() - t0
                kernel_s, self._backward_kernel_s = self._backward_kernel_s, None
            self.add("tensor.backward.ms", dt * 1e3)
            self.add("tensor.backward.self_ms", (dt - kernel_s) * 1e3)
        return wrapper

    def _forward(self, fn):
        def wrapper(net, x):
            t0 = clock()
            result = fn(net, x)
            self.add("network.forward.ms", (clock() - t0) * 1e3)
            if self._tiles:
                self.add("inference.tiles", 1)
            return result
        return wrapper

    def _layer(self, fn):
        def wrapper(x, kernel, *args, **kwargs):
            t0 = clock()
            out = fn(x, kernel, *args, **kwargs)
            layer = kernel.name.removesuffix(".kernel")
            self.add(f"network.{layer}.fwd_ms", (clock() - t0) * 1e3)
            backward = out._backward
            if backward is not None:
                def timed_backward(g):
                    t1 = clock()
                    grads = backward(g)
                    self.add(f"network.{layer}.bwd_ms", (clock() - t1) * 1e3)
                    return grads
                out._backward = timed_backward
            return out
        return wrapper

    def _checkpoint(self, fn):
        def wrapper(path, *args, **kwargs):
            t0 = clock()
            fn(path, *args, **kwargs)
            self.add("network.save_checkpoint.ms", (clock() - t0) * 1e3)
            self.add("network.save_checkpoint.bytes", os.path.getsize(path))
        return wrapper

    def _loss(self, fn):
        def wrapper(outputs, batch, t, t_max, config):
            t0 = clock()
            result = fn(outputs, batch, t, t_max, config)
            ms = (clock() - t0) * 1e3
            self.add("losses.total_loss.ms", ms)
            self.add(f"losses.total_loss.{config.consistency}.ms", ms)
            return result
        return wrapper

    def _infer(self, fn):
        def wrapper(*args, **kwargs):
            self._tiles = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add("inference.sliding_window_infer.ms", (clock() - t0) * 1e3)
                self._tiles = False
        return wrapper
