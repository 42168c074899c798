"""Hot numeric kernels: N-D cross-correlation and the exact distance scan.

One numpy backend serves both spatial ranks.  The interface is contiguous
float64 in NC+spatial layout: inputs ``[N, Ci, S...]``, kernels
``[Co, Ci, K...]``, outputs ``[N, Co, O...]``, with ``stride`` a
per-spatial-axis tuple.  The caller applies any zero padding.

Inside, each conv kernel works on channels-last data ``[N, S..., C]`` and
lowers to BLAS matrix products, the implicit-GEMM scheme of Chetlur et al.
(cuDNN, arXiv 1410.0759).  A kernel tap's strided window of a
channels-last array is a matrix ``[N*O..., C]`` whose rows are contiguous
channel vectors:

- ``conv_fwd``: one GEMM of the patch matrix ``[N*O..., K...*Ci]``,
  copied from a sliding-window view of the input, against the kernel
  reshaped to ``[Co, K...*Ci]``;
- ``conv_bwd_input``: one ``[N*O..., Co] @ [Co, Ci]`` GEMM per kernel tap,
  added into the strided window of ``gx`` that tap reaches;
- ``conv_bwd_kernel``: one ``[Co, N*O...] @ [N*O..., Ci]`` GEMM per kernel
  tap, against the strided window of the input that tap reads.  One
  patch-matrix GEMM here measured slower inside a training step: its
  patch matrix is K... times the input, the per-tap windows one time.

Each function transposes its arguments to channels-last on entry and its
result back to a contiguous NC+spatial array on exit.  The rest of the
package stays NC, and so does this interface: ``tensor.conv_nd`` and
``conv_transpose_nd`` look these functions up at call time, and the
benchmark (``benchmarks/README.md``) wraps them there, checks every conv
layer against NC einsum references (``checks.check_conv_layers``) and
counts each call's FLOP from its NC argument shapes
(``probes.KERNEL_FLOP`` reads ``xp.shape[2:]`` as the spatial axes).
"""

import numpy as np

BACKEND = "numpy"

# squared-distance sentinel for "no seed in this row"; large enough to lose
# every min() against a real squared distance, small enough to stay finite
# through the envelope arithmetic
INF_SQ = 1e30


def _channels_last(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def _channels_first(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 1))


def _window(tap, stride, out_spatial):
    # the channels-last positions kernel tap `tap` meets, one per output
    return (slice(None),) + tuple(
        slice(t, t + s * o, s) for t, s, o in zip(tap, stride, out_spatial))


def conv_fwd(xp, k, stride):
    kernel_spatial = k.shape[2:]
    rank = len(kernel_spatial)
    out_spatial = tuple((p - kk) // s + 1
                        for p, kk, s in zip(xp.shape[2:], kernel_spatial, stride))
    win = np.lib.stride_tricks.sliding_window_view(
        _channels_last(xp), kernel_spatial, axis=tuple(range(1, 1 + rank)))
    win = win[_window((0,) * rank, stride, out_spatial)]  # N,O...,Ci,K...
    cols = np.moveaxis(win, 1 + rank, -1).reshape(-1, k[0].size)  # N*O...,K...*Ci
    y = cols @ _channels_last(k).reshape(k.shape[0], -1).T  # N*O...,Co
    return _channels_first(y.reshape((xp.shape[0],) + out_spatial + (k.shape[0],)))


def conv_bwd_input(gy, k, stride, padded_spatial):
    n, co, out_spatial = gy.shape[0], gy.shape[1], gy.shape[2:]
    ci = k.shape[1]
    g = _channels_last(gy).reshape(-1, co)  # N*O...,Co
    gx = np.zeros((n,) + tuple(padded_spatial) + (ci,), dtype=gy.dtype)
    for tap in np.ndindex(*k.shape[2:]):
        contrib = g @ k[(slice(None), slice(None)) + tap]  # N*O...,Ci
        gx[_window(tap, stride, out_spatial)] += contrib.reshape(
            (n,) + out_spatial + (ci,))
    return _channels_first(gx)


def conv_bwd_kernel(xp, gy, stride, kernel_spatial):
    co, ci, out_spatial = gy.shape[1], xp.shape[1], gy.shape[2:]
    x = _channels_last(xp)
    g = _channels_last(gy).reshape(-1, co).T  # Co,N*O...
    gk = np.empty((co,) + tuple(kernel_spatial) + (ci,), dtype=xp.dtype)
    for tap in np.ndindex(*kernel_spatial):
        gk[(slice(None),) + tap] = g @ x[_window(tap, stride, out_spatial)].reshape(-1, ci)
    return _channels_first(gk)


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
