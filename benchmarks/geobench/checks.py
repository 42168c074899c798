"""Correctness checks, run outside every timed span.

Each returns the number of operations it found wrong, so the caller can
count them in ``failed``; none of them raises on a wrong result.
"""

import csv
import math

import numpy as np
from scipy.ndimage import distance_transform_edt

from geoseg import network
from geoseg.cli import ABLATE_CONFIGS
from geoseg.geometry import boundary_voxels, exact_edt
from geoseg.tensor import Tensor
from geoseg.training import LOSS_CSV_HEADER

from .probes import Patches


def _spatial(value, rank):
    return (value,) * rank if isinstance(value, int) else tuple(value)


def _taps(k, stride, extents):
    """(kernel index, strided window) per kernel tap, over ``extents``
    output positions per axis."""
    for tap in np.ndindex(*k.shape[2:]):
        yield ((slice(None),) * 2 + tap,
               (slice(None),) * 2 + tuple(slice(t, t + s * (n - 1) + 1, s)
                                          for t, s, n in zip(tap, stride, extents)))


def conv_reference(x, k, b, stride, padding, g):
    """Cross-correlation, and its input, kernel and bias gradients for the
    upstream gradient ``g``, as one einsum per kernel tap."""
    rank = x.ndim - 2
    axes = [0] + list(range(2, x.ndim))
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in padding])
    out_sp = [(n - kk) // s + 1
              for n, kk, s in zip(xp.shape[2:], k.shape[2:], stride)]
    y = np.zeros((x.shape[0], k.shape[0], *out_sp))
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    for tap, window in _taps(k, stride, out_sp):
        y += np.einsum("nc...,oc->no...", xp[window], k[tap])
        gxp[window] += np.einsum("no...,oc->nc...", g, k[tap])
        gk[tap] = np.tensordot(g, xp[window], axes=(axes, axes))
    inner = (slice(None),) * 2 + tuple(slice(p, n - p)
                                       for p, n in zip(padding, xp.shape[2:]))
    return (y + b.reshape((1, -1) + (1,) * rank), gxp[inner], gk,
            g.sum(axis=tuple(axes)))


def conv_transpose_reference(x, k, b, stride, g):
    """Transposed convolution, and its input, kernel and bias gradients for
    the upstream gradient ``g``, as one scattered einsum per kernel tap."""
    rank = x.ndim - 2
    axes = [0] + list(range(2, x.ndim))
    out_sp = [(n - 1) * s + kk for n, s, kk in zip(x.shape[2:], stride, k.shape[2:])]
    y = np.zeros((x.shape[0], k.shape[1], *out_sp))
    gx, gk = np.zeros_like(x), np.zeros_like(k)
    for tap, window in _taps(k, stride, x.shape[2:]):
        y[window] += np.einsum("nc...,co->no...", x, k[tap])
        gx += np.einsum("no...,co->nc...", g[window], k[tap])
        gk[tap] = np.tensordot(x, g[window], axes=(axes, axes))
    return (y + b.reshape((1, -1) + (1,) * rank), gx, gk,
            g.sum(axis=tuple(axes)))


def check_conv_layers(net, images, seed=0):
    """Compare one call of every named conv layer with the einsum reference,
    at the shapes the forward pass of ``images`` gives it: the output, and
    the input, kernel and bias gradients that the call's backward returns
    for a fixed random upstream gradient.  Returns the names of layers that
    disagree or never ran."""
    calls = {}

    def capture(transpose):
        def make(fn):
            def wrapper(x, kernel, bias, **kwargs):
                out = fn(x, kernel, bias, **kwargs)
                calls.setdefault(kernel.name.removesuffix(".kernel"),
                                 (transpose, x.data, kernel.data, bias.data,
                                  kwargs.get("stride", 1),
                                  kwargs.get("padding", 0), out))
                return out
            return wrapper
        return make

    # grad mode, so that every captured output carries its backward
    with Patches() as patches:
        patches.wrap(network, "conv_nd", capture(False))
        patches.wrap(network, "conv_transpose_nd", capture(True))
        net.forward(Tensor(images))

    rng = np.random.default_rng(seed)
    bad = []
    for name in (n.removesuffix(".kernel") for n in net.params
                 if n.endswith(".kernel")):
        if name not in calls:
            bad.append(name)
            continue
        transpose, x, k, b, stride, padding, out = calls[name]
        rank = x.ndim - 2
        g = rng.standard_normal(out.shape)
        if transpose:
            refs = conv_transpose_reference(x, k, b, _spatial(stride, rank), g)
        else:
            refs = conv_reference(x, k, b, _spatial(stride, rank),
                                  _spatial(padding, rank), g)
        got = (out.data, *out._backward(g))
        if not all(_close(a, ref) for a, ref in zip(got, refs, strict=True)):
            bad.append(name)
    return bad


def _close(value, ref):
    value = np.asarray(value)
    scale = max(1.0, float(np.abs(ref).max()))
    return value.shape == ref.shape and np.abs(value - ref).max() <= 1e-10 * scale


def check_edt(pred, truth):
    """``exact_edt`` of both surfaces against scipy's transform; True if
    they agree (or the case has no surface to measure)."""
    for mask in (pred, truth):
        surface = boundary_voxels(mask)
        if not surface.any():
            continue
        if np.abs(exact_edt(surface) - distance_transform_edt(~surface)).max() > 1e-9:
            return False
    return True


def loss_rows(path):
    """Rows of a loss.csv after its header, or None if the header is wrong."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != LOSS_CSV_HEADER:
        return None
    return rows[1:]


def check_loss_csv(path, t_max):
    """Steps without exactly one finite loss.csv row, in order."""
    rows = loss_rows(path)
    if rows is None:
        return t_max
    bad = abs(len(rows) - t_max)
    for step, row in enumerate(rows[:t_max]):
        try:
            values = [float(v) for v in row[1:-1]]
        except ValueError:
            bad += 1
            continue
        if (row[0] != str(step) or len(values) != len(LOSS_CSV_HEADER) - 2
                or not all(map(math.isfinite, values))):
            bad += 1
    return bad


def ablation_wgc_dice(path):
    """Dice of the wgc mean row, or None unless ablation.csv has the five
    mean rows in order, each with a finite Dice."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    means = [r for r in rows if len(r) > 2 and r[1] == "mean"]
    if [r[0] for r in means] != list(ABLATE_CONFIGS):
        return None
    try:
        dice = [float(r[2]) for r in means]
    except ValueError:
        return None
    if not all(map(math.isfinite, dice)):
        return None
    return dice[-1]
