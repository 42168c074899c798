"""Volumetric overlap and surface-distance metrics.

Surfaces use the same face-adjacency boundary convention as the signed
distance maps, and distances are exact (integer squared arithmetic under
the square root), so desk-scale results can be checked against brute-force
all-pairs computation with no tolerance games.

Each direction reads the transform of one surface (``kernels.edt_pass``)
at the other surface's voxels.  Both transforms run on the bounding box
of the two surfaces only: every seed and every query voxel lies inside
it, so each nearest-seed distance is the same as on the whole grid, and
the box's C order of the query voxels is the grid's.
"""

import numpy as np

from . import kernels
from .errors import ShapeError, UndefinedMetricError
from .geometry import boundary_voxels


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
    box = tuple(slice(i.min(), i.max() + 1) for i in np.nonzero(sa | sb))
    sa, sb = sa[box], sb[box]
    d_ab = np.sqrt(kernels.edt_pass(sb)[sa])
    d_ba = np.sqrt(kernels.edt_pass(sa)[sb])
    pooled = np.concatenate([d_ab, d_ba])
    return float(pooled.mean()), float(np.percentile(pooled, percentile))
