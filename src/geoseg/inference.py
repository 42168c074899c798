"""Sliding-window volumetric inference and per-case evaluation.

Windows tile the volume with the given stride, the final window per axis
clamped to the boundary; overlapping predictions are averaged uniformly by
visit count.  Volumes smaller than the window are zero-padded (trailing
edge) and un-padded after.  Each tile runs the encoder and the final
decoder (decoder 1) only, through ``DualDecoderNet.predict``: decoder 2
serves the training losses and no prediction reads it.  The averaged map
is that decoder's foreground probability, or its SDM with ``head="sdm"``;
thresholding at exactly 0.5 assigns background.

The maps are computed in float32 and averaged in float64.  The tiles run
through a float32 copy of the network (``DualDecoderNet.astype``, which
leaves the caller's network alone and returns a float32 one as it is),
made once per ``evaluate`` or per call for any other caller, on the
volume cast to float32, which is exact for every volume ``build-data``
writes, so each forward is float32 throughout (``tensor``, "Dtypes").
The sum of the maps and the visit count are float64.  Against the float64
network's tile average, default nets trained 40 steps (2D) or 8 (3D)
gave maps at most 9.0e-7 away on 128x128 and 24^3 cases, no probability
within 3.9e-6 of 0.5, and the same Dice, Jaccard, ASD and HD95 on all 28
cases.

A case's tiles run stacked along the batch axis, in the fewest
near-equal batches of at most ``TILE_BATCH_VOXELS`` voxels; a window
larger than that runs alone.  Batching saves the fixed per-call work
around each forward's small GEMMs.  The budget exists for memory: a
forward's activations grow with its batch.  With float64 activations,
twice the size of float32 ones, one batch of all nine 64x64 tiles of a
128x128 case raised peak RSS by about a quarter.  Every sample of a
batch is computed on its own, so each map is byte-identical to a one-tile
forward.  The batches run in corner order on the caller's thread, and
each batch's maps are summed into the average before the next batch
starts, so a case holds one forward's activations and one batch's maps
at a time; ``DualDecoderNet.predict`` frees each skip once decoder 1 has
merged it and each merge's input before its norm.
"""

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _write_atomic, _write_csv
from .errors import ConfigError, UndefinedMetricError
from .metrics import dice_jaccard, surface_distances
from .tensor import Tensor, no_grad

METRICS_SCHEMA = "metrics_v1"
METRICS = ("dice", "jaccard", "asd", "hd95")
METRICS_CSV_HEADER = ("case_id",) + METRICS + ("degenerate_flag", "schema")


def threshold_foreground(prob):
    """Binary mask from probabilities; exact 0.5 ties resolve to background."""
    return np.asarray(prob) > 0.5


def _tile_starts(size, window, stride):
    if size <= window:
        return [0]
    starts = list(range(0, size - window + 1, stride))
    if starts[-1] + window < size:
        starts.append(size - window)
    return starts


def check_window(window, stride, rank, depth):
    """Window and stride as per-axis tuples (an int applies to every axis);
    raises ConfigError unless both have ``rank`` axes, 1 <= stride <= window
    on each, and each window extent is divisible by 2^``depth``."""
    window = tuple(int(w) for w in (window if not isinstance(window, int)
                                    else (window,) * rank))
    stride = tuple(int(s) for s in (stride if not isinstance(stride, int)
                                    else (stride,) * rank))
    if len(window) != rank or len(stride) != rank:
        raise ConfigError(f"window {window} / stride {stride} do not match "
                          f"volume rank {rank}")
    if any(s < 1 or s > w for w, s in zip(window, stride)):
        raise ConfigError(f"need 1 <= stride <= window, got window {window} "
                          f"stride {stride}")
    multiple = 1 << depth
    if any(w % multiple for w in window):
        raise ConfigError(f"window {window} must be divisible by {multiple} "
                          "(2^depth)")
    return window, stride


HEADS = ("seg", "sdm")

# the most voxels one batched tile forward holds, unless a single window is
# larger: four 64x64 windows, as many voxels as a default training batch.
# The batches run one at a time, so this bounds a case's activations.
TILE_BATCH_VOXELS = 1 << 14


def sliding_window_infer(net, volume, window, stride, head="seg"):
    """Volume of the final decoder's ``head`` map ("seg" or "sdm"), averaged
    over overlapping window predictions."""
    if head not in HEADS:
        raise ConfigError(f"head must be one of {HEADS}, got {head!r}")
    volume = np.asarray(volume, dtype=np.float32)
    window, stride = check_window(window, stride, volume.ndim,
                                  net.config.depth)
    net = net.astype(np.float32)

    original = volume.shape
    pad = [max(0, w - n) for n, w in zip(original, window)]
    if any(pad):
        volume = np.pad(volume, [(0, p) for p in pad])

    prob = np.zeros(volume.shape, dtype=np.float64)
    count = np.zeros(volume.shape, dtype=np.float64)
    axes_starts = [_tile_starts(n, w, s)
                   for n, w, s in zip(volume.shape, window, stride)]
    tiles = [tuple(slice(o, o + w) for o, w in zip(corner, window))
             for corner in itertools.product(*axes_starts)]
    # the fewest batches within the budget, their sizes differing by <= 1
    per_batch = max(1, TILE_BATCH_VOXELS // math.prod(window))
    batches = np.array_split(np.arange(len(tiles)),
                             -(-len(tiles) // per_batch))

    def add(batch):
        # the batch's input and maps die on return, before the next batch
        x = Tensor(np.stack([volume[tiles[i]] for i in batch])[:, None])
        for i, tile_out in zip(batch, net.predict(x)[head].data):
            prob[tiles[i]] += tile_out[0]
            count[tiles[i]] += 1.0

    with no_grad():
        for batch in batches:
            add(batch)
    prob /= count
    return prob[tuple(slice(0, n) for n in original)]


# -- per-case evaluation -------------------------------------------------------


@dataclass
class CaseMetrics:
    case_id: str
    dice: float
    jaccard: float
    asd: float | None
    hd95: float | None
    degenerate: bool


@dataclass
class MetricReport:
    cases: list
    aggregate: dict
    n_cases: int
    n_degenerate: int


def evaluate(net, records, window, stride, out_dir=None):
    """Per-case metrics and their mean for every test record with a mask.

    The network is cast to float32 once, before the first case, and every
    case runs through that copy.  Cases where a surface metric is undefined
    (empty prediction or truth) carry a None sentinel and the degenerate
    flag; aggregates average over the defined cases only.
    """
    net = net.astype(np.float32)
    cases = []
    for record in records:
        if record.mask is None:
            raise ConfigError(f"record {record.case_id} has no ground-truth mask")
        prob = sliding_window_infer(net, record.image, window, stride)
        pred = threshold_foreground(prob)
        truth = record.mask.astype(bool)
        dice, jaccard = dice_jaccard(pred, truth)
        try:
            asd, hd95 = surface_distances(pred, truth)
            degenerate = False
        except UndefinedMetricError:
            asd, hd95, degenerate = None, None, True
        cases.append(CaseMetrics(case_id=record.case_id, dice=dice,
                                 jaccard=jaccard, asd=asd, hd95=hd95,
                                 degenerate=degenerate))

    report = MetricReport(cases=cases,
                          aggregate=mean_defined([vars(c) for c in cases]),
                          n_cases=len(cases),
                          n_degenerate=sum(c.degenerate for c in cases))
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def mean_defined(rows):
    """Each of ``METRICS`` averaged over the rows (dicts) where it is not
    None; None where no row defines it."""
    defined = {key: [row[key] for row in rows if row[key] is not None]
               for key in METRICS}
    return {key: float(np.mean(v)) if v else None for key, v in defined.items()}


def write_report(report, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "metrics.csv", [METRICS_CSV_HEADER] + [
        [c.case_id, c.dice, c.jaccard, c.asd, c.hd95, int(c.degenerate),
         METRICS_SCHEMA] for c in report.cases])
    doc = {"schema": METRICS_SCHEMA, "aggregate": report.aggregate,
           "n_cases": report.n_cases, "n_degenerate": report.n_degenerate,
           "cases": [vars(c) for c in report.cases]}
    _write_atomic({out_dir / "metrics.json": json.dumps(doc, indent=1) + "\n"})
