"""Geometry-aware semi-supervised segmentation at desk scale.

A dual-decoder encoder-decoder network jointly predicts a segmentation map
and a signed distance map; cross-decoder, cross-task consistency with
exponential boundary weighting leverages unlabeled images.  Everything runs
on synthetic low-contrast phantoms with an exact-arithmetic metric suite
and a reproducible experiment harness.
"""

from .geometry import (approx_inverse, boundary_weights, exact_edt,
                       normalize_sdm, sdm_target, signed_distance_map)
from .kernels import BACKEND
from .losses import LossConfig, ramp_up, total_loss
from .network import DualDecoderNet, NetworkConfig
from .tensor import SGD, Parameter, Tensor, no_grad
from .training import TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "DualDecoderNet", "LossConfig", "NetworkConfig", "Parameter",
    "SGD", "Tensor", "TrainConfig", "approx_inverse", "boundary_weights",
    "exact_edt", "no_grad", "normalize_sdm", "ramp_up", "sdm_target",
    "signed_distance_map", "total_loss", "train_loop",
    "__version__",
]
