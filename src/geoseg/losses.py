"""Loss terms for dual-decoder geometry-aware consistency training.

Supervised part (labeled items only): Dice + cross-entropy on both
segmentation heads, plus mean-squared error of both distance heads against
the normalized signed-distance target.  Consistency part (all items): the
cross-decoder, cross-task disagreement between each segmentation map and
the distance-derived segmentation map of the other decoder, optionally
weighted by the exponential boundary emphasis.  A ramp-up schedule grows
the consistency weight over training, as lambda_max * exp(-5 * (1 - t/t_max)).

All means are per-voxel so the mixing coefficients stay crop-size free.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .geometry import approx_inverse, boundary_weights
from .tensor import Tensor, logsumexp_channel, mse

CONSISTENCY_MODES = ("none", "mc", "gc", "wgc")
LOSS_TERMS = ("loss_seg", "loss_sdf", "loss_sup", "loss_cons", "lambda",
              "loss_total")


def coerce_float_fields(cfg):
    """Store each field of the config dataclass ``cfg`` whose default is a
    float as a float, so equal configs (a rate of 1 and of 1.0) also write
    the same config.json and hash equal."""
    for f in fields(cfg):
        if type(f.default) is float:
            object.__setattr__(cfg, f.name, float(getattr(cfg, f.name)))


@dataclass(frozen=True)
class LossConfig:
    rho: float = 2.0            # boundary weight sharpness
    k: float = 1500.0           # distance-to-probability sharpness
    beta: float = 0.3           # distance-task weight in the supervised loss
    lambda_max: float = 0.1     # consistency weight at the end of ramp-up
    consistency: str = "wgc"    # none | mc | gc | wgc

    def __post_init__(self):
        # written so that NaN fails each check
        for name in ("rho", "k", "lambda_max"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got "
                                  f"{getattr(self, name)}")
        if not 0 <= self.beta < np.inf:
            raise ConfigError(f"beta must be non-negative and finite, got "
                              f"{self.beta}")
        if self.consistency not in CONSISTENCY_MODES:
            raise ConfigError(f"consistency must be one of {CONSISTENCY_MODES}, "
                              f"got {self.consistency!r}")
        coerce_float_fields(self)


def _constant(target, like=None):
    t = Tensor(np.asarray(target, dtype=np.float64))
    if like is not None and t.shape != like.shape:
        raise ShapeError(f"target shape {t.shape} does not match prediction "
                         f"shape {like.shape}")
    return t


def _with_channel(y):
    # masks / distance targets travel channel-less; predictions carry [N,1,...]
    return np.asarray(y, dtype=np.float64)[:, None]


def dice_loss(pred_fg, target_fg, eps=1e-5):
    """Soft Dice loss 1 - (2*sum(p*t) + eps) / (sum(p) + sum(t) + eps)."""
    t = _constant(target_fg, like=pred_fg)
    inter = (pred_fg * t).sum()
    denom = pred_fg.sum() + t.sum()
    return 1.0 - (inter * 2.0 + eps) / (denom + eps)


def cross_entropy_loss(seg_logits, target_fg):
    """Mean voxel-wise cross-entropy from 2-channel logits.

    Computed with the log-sum-exp form, so no probability is ever passed
    through a bare log.
    """
    if seg_logits.ndim < 3 or seg_logits.shape[1] != 2:
        raise ShapeError(f"expected [N,2,spatial...] logits, got {seg_logits.shape}")
    y = np.asarray(target_fg, dtype=np.float64)
    if y.shape != seg_logits.shape[:1] + seg_logits.shape[2:]:
        raise ShapeError(f"target shape {y.shape} does not match logits "
                         f"shape {seg_logits.shape}")
    yc = y[:, None]
    lse = logsumexp_channel(seg_logits)
    z0 = seg_logits.narrow(1, 0, 1)
    z1 = seg_logits.narrow(1, 1, 1)
    z_true = z0 * Tensor(1.0 - yc) + z1 * Tensor(yc)
    return (lse - z_true).mean()


def seg_supervised_loss(outputs, y):
    """Supervised segmentation loss: 0.5 * (dice + ce) summed over decoders."""
    yc = _with_channel(y)
    return (dice_loss(outputs.seg1, yc) + cross_entropy_loss(outputs.logits1, y)
            + dice_loss(outputs.seg2, yc)
            + cross_entropy_loss(outputs.logits2, y)) * 0.5


def sdf_supervised_loss(outputs, sdm_target):
    """Mean of the two distance-head MSEs against the normalized target."""
    t = Tensor(_with_channel(sdm_target))
    return (mse(outputs.sdm1, t) + mse(outputs.sdm2, t)) * 0.5


def geometry_consistency_loss(outputs, k, weights=(1.0, 1.0)):
    """Cross-decoder, cross-task consistency.

    Mean over voxels of w1 * (seg1 - inv(sdm2))^2 + w2 * (seg2 - inv(sdm1))^2,
    inv being ``approx_inverse``, with gradients flowing through both
    operands of each term.  The default python-scalar unit weights give the
    unweighted (gc) loss exactly; the boundary-weighted (wgc) loss passes
    each decoder's ``boundary_weights`` of its own predicted distance map,
    computed from the map's values and so constants in the gradient.
    """
    w1, w2 = weights
    t1 = (outputs.seg1 - approx_inverse(outputs.sdm2, k)).square()
    t2 = (outputs.seg2 - approx_inverse(outputs.sdm1, k)).square()
    return (t1 * w1 + t2 * w2).mean()


def mutual_consistency_loss(outputs):
    """Same-task cross-decoder consistency (ablation baseline)."""
    return mse(outputs.seg1, outputs.seg2) + mse(outputs.sdm1, outputs.sdm2)


def ramp_up(t, t_max, lambda_max):
    """Consistency weight lambda(t) = lambda_max * exp(-5 * (1 - t/t_max)).

    t beyond t_max clamps to t_max, so the weight never overshoots.
    """
    if t_max <= 0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    if t < 0:
        raise ConfigError(f"step index must be non-negative, got {t}")
    frac = min(float(t), float(t_max)) / float(t_max)
    return float(lambda_max * np.exp(-5.0 * (1.0 - frac)))


def consistency_loss(outputs, config):
    """Dispatch on the configured consistency mode; None when disabled."""
    if config.consistency == "none":
        return None
    if config.consistency == "mc":
        return mutual_consistency_loss(outputs)
    if config.consistency == "gc":
        return geometry_consistency_loss(outputs, config.k)
    weights = (Tensor(boundary_weights(outputs.sdm1.data, config.rho)),
               Tensor(boundary_weights(outputs.sdm2.data, config.rho)))
    return geometry_consistency_loss(outputs, config.k, weights)


def total_loss(outputs, batch, t, t_max, config):
    """Assemble the full training objective for one batch.

    The supervised part sees only the labeled slice of the batch; the
    consistency part sees every item.  Returns (total, terms): the scalar
    graph, whose backward releases it, and a dict of plain floats keyed by
    ``LOSS_TERMS`` in that order: the columns of training's loss.csv.
    """
    n_lab = batch.n_labeled
    if n_lab == 0:
        raise ConfigError("batch contains no labeled items; supervised loss "
                          "is undefined")
    lab = outputs.labeled_slice(n_lab)
    l_seg = seg_supervised_loss(lab, batch.masks)
    l_sdf = sdf_supervised_loss(lab, batch.sdm_targets)
    l_sup = l_seg + l_sdf * config.beta
    lam = ramp_up(t, t_max, config.lambda_max)
    l_cons = consistency_loss(outputs, config)
    if l_cons is None:
        total = l_sup
        cons_value = 0.0
    else:
        total = l_sup + l_cons * lam
        cons_value = l_cons.item()
    return total, dict(zip(LOSS_TERMS, (l_seg.item(), l_sdf.item(),
                                        l_sup.item(), cons_value, lam,
                                        total.item())))
