"""Hot numeric kernels: N-D cross-correlation and the exact distance transform.

One numpy backend serves both spatial ranks.  The interface is contiguous
float32 or float64 in NC+spatial layout: inputs ``[N, Ci, S...]``, kernels
``[Co, Ci, K...]``, outputs ``[N, Co, O...]``, with ``stride`` a
per-spatial-axis tuple.  Every buffer and result takes the dtype of the
operands, which the caller gives one dtype.  The caller applies any zero
padding.

The conv kernels stay in that layout.  They lower to accumulating BLAS
matrix products over shifted views of the input, one product per kernel
tap: the low-memory GEMM convolution of Anderson et al. (arXiv
1709.03395), with no patch matrix and no layout transposes.  Every output
position is a column of a flat grid:

- At unit stride the grid is the padded input's own extent.  Output ``o``
  is column ``ravel(o)`` of the flattened input, and the first ``L``
  columns, up to the last valid output, hold every output plus the row
  tails: the positions past the end of each output row (and plane), which
  the result drops.  Kernel tap ``t`` reads the zero-copy slice
  ``flat[:, :, off:off+L]``, ``off = ravel(t)``, whose last column is the
  input's last element for the last tap.
- At any other stride the grid is the output extent itself, and a tap's
  column matrix is its strided window of the input, gathered once.

With ``K_t = k[..., t]`` (``[Co, Ci]``) and ``x_t`` the tap's
``[N, Ci, L]`` column matrix:

- ``conv_fwd``: ``y += K_t @ x_t``.  The valid outputs come back through
  one strided view of the grid and one contiguous copy.
- ``conv_bwd_input``: ``gx_t += K_t.T @ g``, where ``g`` is the upstream
  gradient placed on the grid with zero row tails and ``gx_t`` is the
  tap's window of ``gx``.
- ``conv_bwd_kernel``: ``gk[..., t] = sum_n g[n] @ x_t[n].T``.

On full-resolution layers the accumulating adds of the first two kernels
cost about as much as the products.  So the accumulator and each tap's
product span whole rows of the grid, which makes every add one contiguous
pass (numpy runs a strided 2-D add about 2.5x slower), and the batch runs
in blocks of samples that keep both in cache across the taps.

``tensor.conv_nd`` and ``conv_transpose_nd`` look these functions up at
call time.  The benchmark (``benchmarks/README.md``) wraps them there,
checks every conv layer against NC einsum references
(``checks.check_conv_layers``) and counts each call's FLOP from its NC
argument shapes (``probes.KERNEL_FLOP``).

``edt_pass`` is the package's one exact Euclidean distance transform:
scipy's feature transform (Maurer et al., IEEE TPAMI 2003) names each
voxel's nearest seed, and the squared integer offsets to it are summed in
int64, so every value is exact.
"""

import math

import numpy as np

BACKEND = "numpy"

# working set of one block of samples in the conv kernels: its input, its
# accumulator and one tap's product, sized to stay in a 2 MB per-core L2
BLOCK_BYTES = 1 << 20


def _grid(spatial, stride, out_spatial):
    # extent of the grid whose flat columns hold the outputs
    return tuple(spatial) if all(s == 1 for s in stride) else tuple(out_spatial)


def _flat_offsets(spatial, indices):
    # flat offset of each index in a C-ordered array of extent `spatial`
    strides = [math.prod(spatial[a + 1:]) for a in range(len(spatial))]
    return [sum(i * s for i, s in zip(index, strides)) for index in indices]


def _span(grid, out_spatial):
    # columns L of the flat grid up to and including the last valid output
    return _flat_offsets(grid, [[o - 1 for o in out_spatial]])[0] + 1


def _valid(a, out_spatial):
    return a[(slice(None), slice(None)) + tuple(slice(0, o) for o in out_spatial)]


def _columns(a, length=None):
    # the first `length` flat columns of a [N, C, S...] array: [N, C, L]
    return a.reshape(a.shape[:2] + (math.prod(a.shape[2:]),))[:, :, :length]


def _window(tap, stride, out_spatial):
    # the strided positions kernel tap `tap` meets, one per output
    return (slice(None), slice(None)) + tuple(
        slice(t, t + s * o, s) for t, s, o in zip(tap, stride, out_spatial))


def _tap_sources(spatial, kernel_spatial, stride, out_spatial):
    """Kernel taps in C order, and where each one's columns lie in an array
    of extent ``spatial``: at unit stride the flat offset of its shifted
    view (an int), otherwise its strided window."""
    taps = list(np.ndindex(*kernel_spatial))
    if all(s == 1 for s in stride):
        return taps, _flat_offsets(spatial, taps)
    return taps, [_window(t, stride, out_spatial) for t in taps]


def _tap_columns(a, sources, length):
    """Yield each tap's [N, C, L] column matrix of ``a``: a zero-copy slice
    of the flattened array at a flat offset, or a strided window, gathered."""
    flat = _columns(a)
    for src in sources:
        if isinstance(src, int):
            yield flat[:, :, src:src + length]
        else:
            yield _columns(a[src])


def _on_grid(gy, grid):
    # gy [N, C, O...] as the [N, C, L] columns of the grid, row tails zero
    out_spatial = gy.shape[2:]
    if grid == out_spatial:
        return _columns(gy)
    buf = np.zeros(gy.shape[:2] + grid, dtype=gy.dtype)
    _valid(buf, out_spatial)[...] = gy
    return _columns(buf, _span(grid, out_spatial))


def _matmul(a, b, out):
    # a [M, C] @ b [N, C, L] into out [N, M, L]; with C == 1 this is an
    # outer product, which a broadcast multiply runs about 10x faster
    if a.shape[1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _block_size(n, per_sample_bytes):
    """Samples per block: as many as fit their working set in BLOCK_BYTES,
    at least one.  Each block runs every tap before the next starts, so its
    accumulator stays in cache across the taps, and the per-tap product
    buffer is allocated for one block only."""
    return max(1, min(n, BLOCK_BYTES // max(1, per_sample_bytes)))


def conv_fwd(xp, k, stride):
    n, co, kernel_spatial = xp.shape[0], k.shape[0], k.shape[2:]
    out_spatial = tuple((p - kk) // s + 1
                        for p, kk, s in zip(xp.shape[2:], kernel_spatial, stride))
    grid = _grid(xp.shape[2:], stride, out_spatial)
    length = _span(grid, out_spatial)
    # accumulator and per-tap product share the grid, so each add is one
    # contiguous pass; their row tails are never read
    y = np.zeros((n, co) + grid, dtype=xp.dtype)
    step = _block_size(n, xp[:1].nbytes + 2 * y[:1].nbytes)
    tmp = np.zeros((step,) + y.shape[1:], dtype=y.dtype)
    y_cols, tmp_cols = _columns(y, length), _columns(tmp, length)
    taps, sources = _tap_sources(xp.shape[2:], kernel_spatial, stride, out_spatial)
    # contiguous tap matrices, so that numpy hands every product to BLAS
    mats = [np.ascontiguousarray(k[(...,) + t]) for t in taps]
    for lo in range(0, n, step):
        yb = y[lo:lo + step]
        tb = tmp[:len(yb)]
        yb_cols, tb_cols = y_cols[lo:lo + step], tmp_cols[:len(yb)]
        columns = _tap_columns(xp[lo:lo + step], sources, length)
        for i, (kt, x_tap) in enumerate(zip(mats, columns)):
            _matmul(kt, x_tap, tb_cols if i else yb_cols)
            if i:
                yb += tb
    return np.ascontiguousarray(_valid(y, out_spatial))


def conv_bwd_input(gy, k, stride, padded_spatial):
    n, ci, out_spatial = gy.shape[0], k.shape[1], gy.shape[2:]
    grid = _grid(padded_spatial, stride, out_spatial)
    g = _on_grid(gy, grid)
    gx = np.zeros((n, ci) + tuple(padded_spatial), dtype=gy.dtype)
    step = _block_size(n, 2 * gx[:1].nbytes + g[:1].nbytes)
    tmp = np.zeros((step, ci) + grid, dtype=gy.dtype)
    tmp_cols = _columns(tmp, g.shape[2])
    taps, sources = _tap_sources(padded_spatial, k.shape[2:], stride, out_spatial)
    mats = [np.ascontiguousarray(k[(...,) + t].T) for t in taps]
    for lo in range(0, n, step):
        gxb = gx[lo:lo + step]
        tb = tmp[:len(gxb)]
        gx_flat, tb_flat = gxb.reshape(-1), tb.reshape(-1)
        for kt, src in zip(mats, sources):
            _matmul(kt, g[lo:lo + step], tmp_cols[:len(gxb)])
            if isinstance(src, int):
                # one contiguous add of the shifted flat arrays; the product's
                # row tails are zero, so what spills into the next row adds nothing
                gx_flat[src:] += tb_flat[:gx_flat.size - src]
            else:
                gxb[src] += tb
    return gx


def conv_bwd_kernel(xp, gy, stride, kernel_spatial):
    co, ci, out_spatial = gy.shape[1], xp.shape[1], gy.shape[2:]
    g = _on_grid(gy, _grid(xp.shape[2:], stride, out_spatial))
    gk = np.empty((co, ci) + tuple(kernel_spatial), dtype=xp.dtype)
    taps, sources = _tap_sources(xp.shape[2:], kernel_spatial, stride, out_spatial)
    for tap, x_tap in zip(taps, _tap_columns(xp, sources, g.shape[2])):
        gk[(...,) + tap] = (g @ x_tap.transpose(0, 2, 1)).sum(axis=0)
    return gk


def edt_pass(seeds):
    """Squared Euclidean distance (int64) from every voxel of the bool N-D
    array ``seeds`` to its nearest True voxel; at least one must be True.

    It is not a conv kernel.  It lives in this module under this name
    because the benchmark's tracer wraps ``kernels.edt_pass`` (one
    positional argument), so every caller looks it up here at call time.
    """
    # importing scipy.ndimage is most of geoseg start-up, so only the first
    # transform pays for it
    from scipy.ndimage import distance_transform_edt
    nearest = distance_transform_edt(~seeds, return_distances=False,
                                     return_indices=True)
    return sum(np.square(near - at, dtype=np.int64)
               for near, at in zip(nearest, np.indices(seeds.shape, sparse=True)))
