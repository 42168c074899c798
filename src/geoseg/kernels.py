"""Hot numeric kernels: N-D cross-correlation and the exact distance scan.

One numpy backend serves both spatial ranks.  Arrays are contiguous float64
in NC+spatial layout: inputs ``[N, Ci, S...]``, kernels ``[Co, Ci, K...]``,
outputs ``[N, Co, O...]``, with ``stride`` a per-spatial-axis tuple.  The
forward pass is one BLAS contraction over a strided sliding-window view;
the two backward passes loop over kernel taps and do one contraction per
tap against the strided window that tap touches.  The caller applies any
zero padding.  ``benchmarks/README.md`` describes how these kernels are
timed.
"""

import numpy as np

BACKEND = "numpy"

# squared-distance sentinel for "no seed in this row"; large enough to lose
# every min() against a real squared distance, small enough to stay finite
# through the envelope arithmetic
INF_SQ = 1e30


def _window(tap, stride, out_spatial):
    # the input positions kernel tap `tap` meets, one per output position
    return (slice(None), slice(None)) + tuple(
        slice(t, t + s * o, s) for t, s, o in zip(tap, stride, out_spatial))


def conv_fwd(xp, k, stride):
    rank = xp.ndim - 2
    spatial = tuple(range(2, 2 + rank))
    win = np.lib.stride_tricks.sliding_window_view(xp, k.shape[2:], axis=spatial)
    win = win[(slice(None), slice(None)) + tuple(slice(None, None, s) for s in stride)]
    taps = tuple(range(2 + rank, 2 + 2 * rank))
    out = np.tensordot(win, k, axes=((1,) + taps, (1,) + spatial))  # N,O...,Co
    return np.ascontiguousarray(np.moveaxis(out, -1, 1))


def conv_bwd_input(gy, k, stride, padded_spatial):
    n, out_spatial = gy.shape[0], gy.shape[2:]
    gx = np.zeros((n, k.shape[1]) + tuple(padded_spatial), dtype=gy.dtype)
    for tap in np.ndindex(*k.shape[2:]):
        contrib = np.tensordot(gy, k[(slice(None), slice(None)) + tap], axes=([1], [0]))
        gx[_window(tap, stride, out_spatial)] += np.moveaxis(contrib, -1, 1)
    return gx


def conv_bwd_kernel(xp, gy, stride, kernel_spatial):
    out_spatial = gy.shape[2:]
    gk = np.empty((gy.shape[1], xp.shape[1]) + tuple(kernel_spatial), dtype=xp.dtype)
    reduce_axes = [0] + list(range(2, gy.ndim))
    for tap in np.ndindex(*kernel_spatial):
        xs = xp[_window(tap, stride, out_spatial)]
        gk[(slice(None), slice(None)) + tap] = np.tensordot(
            gy, xs, axes=(reduce_axes, reduce_axes))
    return gk


def edt_pass(f):
    # brute-force 1D transform: out[r, p] = min_q (p - q)^2 + f[r, q]
    rows, n = f.shape
    idx = np.arange(n, dtype=np.float64)
    cost = (idx[None, :] - idx[:, None]) ** 2  # cost[q, p]
    out = np.empty_like(f)
    chunk = max(1, (1 << 22) // max(1, n * n))
    for r0 in range(0, rows, chunk):
        block = f[r0:r0 + chunk]
        out[r0:r0 + chunk] = (block[:, :, None] + cost[None, :, :]).min(axis=1)
    return out
