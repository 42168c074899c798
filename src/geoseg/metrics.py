"""Volumetric overlap and surface-distance metrics.

Surfaces use the same face-adjacency boundary convention as the signed
distance maps, and distances are exact (integer squared arithmetic under
the square root), so desk-scale results can be checked against brute-force
all-pairs computation with no tolerance games.

Only the distances at one surface's voxels are read, so the transform of
the other surface runs its seed scan and inner passes in full and its last
pass (axis 0) only at those voxels (``geometry._edt_squared_from`` with
``at``).
"""

import numpy as np

from .errors import ShapeError, UndefinedMetricError
from .geometry import _edt_squared_from, boundary_voxels


def _binary_pair(a, b):
    a = np.asarray(a).astype(bool)
    b = np.asarray(b).astype(bool)
    if a.shape != b.shape:
        raise ShapeError(f"mask shapes {a.shape} and {b.shape} differ")
    return a, b


def dice_jaccard(pred_mask, true_mask):
    """Overlap ratios; the both-empty pair scores (1.0, 1.0) by convention."""
    a, b = _binary_pair(pred_mask, true_mask)
    inter = float(np.logical_and(a, b).sum())
    sa, sb = float(a.sum()), float(b.sum())
    if sa + sb == 0:
        return 1.0, 1.0
    dice = 2.0 * inter / (sa + sb)
    union = sa + sb - inter
    jaccard = inter / union if union > 0 else 1.0
    return dice, jaccard


def surface_distances(pred_mask, true_mask, percentile=95.0):
    """(ASD, HD at ``percentile``) over the pooled symmetric surface distances.

    Distances run from every surface voxel of one mask to the nearest
    surface voxel of the other, both directions pooled; ASD is the mean and
    the Hausdorff variant the linearly interpolated percentile.  Raises
    UndefinedMetricError when either mask is empty or has no surface.
    """
    a, b = _binary_pair(pred_mask, true_mask)
    if not a.any() or not b.any():
        raise UndefinedMetricError("surface distances need two non-empty masks")
    sa, sb = boundary_voxels(a), boundary_voxels(b)
    if not sa.any() or not sb.any():
        raise UndefinedMetricError("mask has no face-adjacency surface")
    # in C order, the same values in the same order as exact_edt(sb)[sa]
    d_ab = np.sqrt(np.rint(_edt_squared_from(sb, at=sa)))
    d_ba = np.sqrt(np.rint(_edt_squared_from(sa, at=sb)))
    pooled = np.concatenate([d_ab, d_ba])
    return float(pooled.mean()), float(np.percentile(pooled, percentile))
