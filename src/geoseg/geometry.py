"""Exact Euclidean distance transforms and signed-distance machinery.

The signed distance map of a binary mask assigns every voxel its exact
Euclidean distance (in voxel units) to the object boundary: negative
strictly inside, zero on the boundary, positive strictly outside.  The
boundary is the set of foreground voxels with at least one face-adjacent
background voxel inside the grid.  Masks without such a boundary
(all-foreground or all-background) are degenerate: they receive the
sentinel +-grid-diagonal instead of an error.

Every transform is ``_edt_squared_from``: the linear seed scan
(``kernels.seed_pass``) along the last axis, then the generic
``kernels.edt_pass`` along each other axis.  The full field serves
``exact_edt`` and the signed distance maps; the surface metrics ask for
the last pass, along axis 0, only at the voxels they read.
"""

import numpy as np

from . import kernels
from .errors import ConfigError, DataError


def _as_binary(mask):
    arr = np.asarray(mask)
    if arr.dtype != bool and not np.isin(arr, (0, 1)).all():
        raise DataError("mask values must be strictly binary (0/1)")
    return arr.astype(bool)


def _along(g, axis, pass_fn):
    # apply a row kernel to every 1-D line of g along `axis`
    moved = np.ascontiguousarray(np.moveaxis(g, axis, -1))
    rows = pass_fn(moved.reshape(-1, moved.shape[-1]))
    return np.moveaxis(rows.reshape(moved.shape), -1, axis)


def _edt_squared_from(seeds, at=None):
    """Exact squared distance to the nearest seed voxel, one pass per axis.

    The last axis takes the linear seed scan, every other axis the generic
    ``edt_pass``.  Given a bool mask ``at``, axis 0's pass is evaluated only
    at its voxels, and their values come back in ``np.nonzero`` (C) order,
    equal to the full field's ``[at]``.
    """
    if at is None or seeds.ndim > 1:
        g = _along(seeds, seeds.ndim - 1, kernels.seed_pass)
    else:  # a 1-D query: axis 0 is the only axis, and it is queried
        g = np.where(seeds, 0.0, kernels.INF_SQ)
    for axis in range(0 if at is None else 1, g.ndim - 1):
        g = _along(g, axis, kernels.edt_pass)
    if at is None:
        return np.ascontiguousarray(g)
    # each query voxel's axis-0 line of g is a column of g as [n0, rest]
    n0 = g.shape[0]
    lines = np.ascontiguousarray(g).reshape(n0, -1)
    p0, col = np.nonzero(at.reshape(n0, -1))
    q = np.arange(n0, dtype=np.float64)[:, None]
    out = np.empty(len(p0))
    step = max(1, kernels.EDT_BLOCK_ELEMENTS // n0)
    for lo in range(0, len(p0), step):
        cost = (q - p0[lo:lo + step]) ** 2
        out[lo:lo + step] = (lines[:, col[lo:lo + step]] + cost).min(axis=0)
    return out


def exact_edt_squared(mask):
    """Squared Euclidean distance to the nearest foreground voxel (int64)."""
    fg = _as_binary(mask)
    if not fg.any():
        raise DataError("exact_edt requires at least one foreground voxel")
    # finite winners are exact integers carried in float64
    return np.rint(_edt_squared_from(fg)).astype(np.int64)


def exact_edt(mask):
    """Euclidean distance field to the nearest foreground voxel."""
    return np.sqrt(exact_edt_squared(mask).astype(np.float64))


def boundary_voxels(mask):
    """Foreground voxels with a face-adjacent background voxel in the grid."""
    fg = _as_binary(mask)
    bnd = np.zeros(fg.shape, dtype=bool)
    for axis in range(fg.ndim):
        lo = [slice(None)] * fg.ndim
        hi = [slice(None)] * fg.ndim
        lo[axis] = slice(None, -1)
        hi[axis] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        bnd[lo] |= fg[lo] & ~fg[hi]
        bnd[hi] |= fg[hi] & ~fg[lo]
    return bnd


def grid_diagonal(shape):
    """Diagonal length of the voxel grid; the degenerate-map sentinel value."""
    return float(np.sqrt(sum(float(n) * n for n in shape)))


def signed_distance_map(mask):
    """Signed Euclidean distance to the mask boundary (voxel units).

    Degenerate masks (no boundary) get +-grid-diagonal everywhere; the sign
    still follows the inside-negative convention.
    """
    fg = _as_binary(mask)
    bnd = boundary_voxels(fg)
    if not bnd.any():
        diag = grid_diagonal(fg.shape)
        return np.where(fg, -diag, diag).astype(np.float64)
    d = np.sqrt(np.rint(_edt_squared_from(bnd)))
    sdm = np.where(fg, -d, d)
    sdm[bnd] = 0.0
    return sdm


def normalize_sdm(sdm):
    """Scale a signed distance map into [-1, 1]; exact zeros stay zero."""
    scale = float(np.abs(sdm).max())
    return sdm / scale if scale > 0 else sdm.copy()


def sdm_target(mask):
    """Normalized signed distance map of a ground-truth mask."""
    return normalize_sdm(signed_distance_map(mask))


def approx_inverse(z, k):
    """Smooth map sigmoid(-k*z) from normalized signed distances to
    foreground probability.

    Distances are negative inside the object, so inside voxels approach
    probability 1, outside voxels 0, and the boundary (z = 0) sits at 0.5.

    Takes and returns a Tensor; gradients flow through.
    """
    if not 0 < k < np.inf:
        raise ConfigError(f"approx_inverse sharpness k must be positive and "
                          f"finite, got {k}")
    return (z * -float(k)).sigmoid()


def boundary_weights(sdm_pred, rho):
    """Exponential boundary emphasis exp(-rho * |predicted distance|).

    Takes and returns an ndarray: the weights are a constant, so no
    gradient flows through them and the optimizer cannot shrink a weighted
    loss by inflating the predicted distances instead of improving
    agreement.
    """
    if not 0 < rho < np.inf:
        raise ConfigError(f"boundary weight rho must be positive and finite, "
                          f"got {rho}")
    return np.exp(-float(rho) * np.abs(sdm_pred))
