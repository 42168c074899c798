"""End-to-end training: batch assembly, augmentation, optimization, logging.

The optimizer recipe is fixed: SGD with momentum 0.9 (``tensor.SGD``),
the rate divided by 10 every ``lr_decay_every`` steps, and every drawn
crop randomly flipped and rotated.

One training run is a single logical writer: step t's parameter update is
applied before step t+1's forward pass.  The tuple (seed, config, data)
fully determines the loss trace; the batch RNG state is checkpointed so a
resumed run continues bit-for-bit like an unbroken one.

Every run writes its directory, laid out as:
    config.json      resolved config snapshot, written before any compute
    loss.csv         one row per step (see LOSS_CSV_HEADER), replaced whole
                     before each checkpoint and when the loop ends
    checkpoints/     step-tagged checkpoints before t_max, plus final.ckpt
    summary.json     the last step's loss terms, wall time, seed, config hash
"""

import hashlib
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels
from .data import _write_atomic, _write_csv
from .errors import ConfigError, DataError, FileFormatError, TrainingAbort
from .geometry import sdm_target
from .losses import LOSS_TERMS, LossConfig, coerce_float_fields, total_loss
from .network import DualDecoderNet, NetworkConfig, net_from_checkpoint, \
    save_checkpoint
from .tensor import SGD, Tensor

LOSS_SCHEMA = "loss_v1"
LOSS_CSV_HEADER = ("step", *LOSS_TERMS, "schema")
_BATCH_STREAM = 7919  # batch RNG substream tag


@dataclass
class TrainConfig:
    t_max: int = 300
    labeled_per_batch: int = 2
    unlabeled_per_batch: int = 2
    crop: tuple = (64, 64)
    base_lr: float = 0.01
    lr_decay_every: int = 125
    seed: int = 0
    checkpoint_every: int = 100
    loss: LossConfig = field(default_factory=LossConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self):
        if any(isinstance(c, bool) or not isinstance(c, numbers.Integral)
               for c in self.crop):
            raise ConfigError(f"crop extents must be ints, got {self.crop!r}")
        self.crop = tuple(int(c) for c in self.crop)
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if self.labeled_per_batch < 1:
            raise ConfigError("need at least one labeled item per batch")
        if self.unlabeled_per_batch < 0:
            raise ConfigError("unlabeled_per_batch must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.crop) != self.network.rank:
            raise ConfigError(f"crop {self.crop} does not match network rank "
                              f"{self.network.rank}")
        multiple = 1 << self.network.depth
        if any(c < 1 or c % multiple for c in self.crop):
            raise ConfigError(f"crop extents {self.crop} must be positive "
                              f"multiples of {multiple} (2^depth)")
        if not 0 < self.base_lr < np.inf:
            raise ConfigError(f"base_lr must be positive and finite, got "
                              f"{self.base_lr}")
        if self.lr_decay_every < 1:
            raise ConfigError("lr_decay_every must be >= 1")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        coerce_float_fields(self)


# the JSON values a config field accepts, by the type of its default: an int
# field takes no float (NaN and Infinity are floats) or bool, a float field
# an int, the crop a list (or asdict's tuple) of ints
_JSON_TYPES = {int: (lambda v: type(v) is int, "an int"),
               float: (lambda v: type(v) in (int, float), "a number"),
               tuple: (lambda v: type(v) in (list, tuple)
                       and all(type(c) is int for c in v), "a list of ints")}


def _check_keys(doc, cls, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    for f in fields(cls):
        accepts, kind = _JSON_TYPES.get(type(f.default), (None, None))
        if accepts and f.name in doc and not accepts(doc[f.name]):
            raise ConfigError(f"{where}.{f.name} must be {kind}, got "
                              f"{doc[f.name]!r}")


def check_config_keys(doc):
    """Reject a config document that is not an object, has unknown keys or
    has a number or crop value of the wrong JSON type."""
    _check_keys(doc, TrainConfig, "config")
    for name, cls in (("loss", LossConfig), ("network", NetworkConfig)):
        if name in doc:
            _check_keys(doc[name], cls, f"config.{name}")


def config_from_dict(doc):
    """The TrainConfig of a config document; absent keys take defaults."""
    check_config_keys(doc)
    try:
        return TrainConfig(**{**doc,
                              "loss": LossConfig(**doc.get("loss", {})),
                              "network": NetworkConfig(**doc.get("network", {}))})
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config value: {e}") from None


def config_hash(cfg):
    canon = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def lr_schedule(t, cfg):
    """Stepwise decay: base_lr * 0.1^(t // lr_decay_every)."""
    return cfg.base_lr * 0.1 ** (t // cfg.lr_decay_every)


# -- batch assembly -----------------------------------------------------------


@dataclass
class Batch:
    images: np.ndarray            # [N, 1, spatial...], float64
    masks: np.ndarray             # [n_labeled, spatial...], float64 in {0,1}
    sdm_targets: np.ndarray       # [n_labeled, spatial...], float64 in [-1,1]

    @property
    def n_labeled(self):
        # labeled items are the batch's first items
        return len(self.masks)


def _check_crop(shape, crop):
    if len(shape) != len(crop):
        raise DataError(f"crop {crop} rank does not match volume {shape}")
    if any(v < c for v, c in zip(shape, crop)):
        raise DataError(f"volume {shape} is smaller than crop {crop}")


def random_crop(volume, mask, crop, rng):
    """Uniformly random corner crop; identical window for image and mask."""
    _check_crop(volume.shape, crop)
    corner = [int(rng.integers(0, v - c + 1))
              for v, c in zip(volume.shape, crop)]
    window = tuple(slice(o, o + c) for o, c in zip(corner, crop))
    return (np.ascontiguousarray(volume[window]),
            None if mask is None else np.ascontiguousarray(mask[window]))


def draw_augment_decisions(rng, shape):
    """Per-axis flips (p=0.5 each) and an in-plane right-angle rotation."""
    flips = tuple(bool(rng.random() < 0.5) for _ in shape)
    if shape[0] == shape[1]:
        rot_k = int(rng.integers(0, 4))
    else:
        rot_k = 2 * int(rng.integers(0, 2))  # non-square plane: 0 or 180 degrees
    return flips, rot_k


def apply_augment(arr, decisions):
    flips, rot_k = decisions
    for axis, flip in enumerate(flips):
        if flip:
            arr = np.flip(arr, axis=axis)
    if rot_k:
        arr = np.rot90(arr, k=rot_k, axes=(0, 1))
    return np.ascontiguousarray(arr)


def augment(image, mask, rng):
    """Flip/rotate image (and mask, identically); masks stay binary."""
    decisions = draw_augment_decisions(rng, image.shape)
    return (apply_augment(image, decisions),
            None if mask is None else apply_augment(mask, decisions))


def check_pools(split, cfg):
    """Raise DataError unless the split's pools can fill ``cfg``'s batches
    with crops of every volume they hold."""
    if not split.labeled:
        raise DataError("the dataset has no labeled-train records")
    if cfg.unlabeled_per_batch > 0 and not split.unlabeled:
        raise DataError("the dataset has no unlabeled-train records for the batch")
    for shape in {r.image.shape for r in split.labeled + split.unlabeled}:
        _check_crop(shape, cfg.crop)


def _draw_item(pool, cfg, rng):
    """A crop of a record drawn from ``pool``, augmented; (image, mask), the
    mask None for an unlabeled record."""
    record = pool[int(rng.integers(len(pool)))]
    img, msk = random_crop(record.image, record.mask, cfg.crop, rng)
    return augment(img, msk, rng)


def sample_batch(split, cfg, rng):
    """Labeled items first, then unlabeled, sampled with replacement."""
    check_pools(split, cfg)
    labeled = [_draw_item(split.labeled, cfg, rng)
               for _ in range(cfg.labeled_per_batch)]
    unlabeled = [_draw_item(split.unlabeled, cfg, rng)[0]
                 for _ in range(cfg.unlabeled_per_batch)]
    masks = [msk for _, msk in labeled]
    return Batch(images=np.stack([img for img, _ in labeled] + unlabeled)
                 .astype(np.float64)[:, None],
                 masks=np.stack(masks).astype(np.float64),
                 sdm_targets=np.stack([sdm_target(msk) for msk in masks])
                 .astype(np.float64))


# -- the optimization loop ---------------------------------------------------------


def train_step(net, opt, batch, t, cfg):
    """Forward, loss, backward, SGD update with the scheduled rate; returns
    the step's loss terms.  With no consistency term no loss reads the
    unlabeled items, so only the labeled ones are forwarded.

    The step holds its graph only through the loss root: the backward
    releases every node as it goes, so an activation is freed once the
    backward of its last consumer has run, and nothing the step returns
    refers to a node."""
    images = batch.images
    if cfg.loss.consistency == "none":
        images = images[:batch.n_labeled]
    root, terms = total_loss(net.forward(Tensor(images)), batch, t,
                             cfg.t_max, cfg.loss)
    for name, value in terms.items():
        if not np.isfinite(value):
            raise TrainingAbort(f"{name} became non-finite at step {t}")
    opt.zero_grad()
    root.backward()
    opt.step(lr_schedule(t, cfg))
    return terms


@dataclass
class TrainResult:
    net: DualDecoderNet
    rows: list


def _save_training_checkpoint(path, net, rng, next_step, cfg_hash):
    meta = {"step": next_step, "rng_state": rng.bit_generator.state,
            "config_hash": cfg_hash}
    save_checkpoint(path, net, meta=meta)


def resume_state(path, cfg, rng):
    """Load a checkpoint to resume from, momentum buffers included; returns
    (net, next step) and sets ``rng`` to the checkpointed batch RNG state.
    Enforces matching config and checks the step and RNG state before
    anything is written."""
    net, _, meta = net_from_checkpoint(path)
    if meta.get("config_hash") != config_hash(cfg):
        raise ConfigError("checkpoint was produced by a different config; "
                          "refusing to resume")
    step = meta.get("step")
    if type(step) is not int or not 0 <= step <= cfg.t_max:
        raise FileFormatError(f"{path}: meta 'step' must be an int in "
                              f"[0, {cfg.t_max}], got {step!r}")
    try:
        rng.bit_generator.state = meta.get("rng_state")
    except (TypeError, ValueError, KeyError, OverflowError) as e:
        raise FileFormatError(f"{path}: meta 'rng_state' is not a batch RNG "
                              f"state ({e})") from None
    if step == cfg.t_max:
        raise ConfigError(f"{path}: run already finished at step {step} "
                          f"(t_max {cfg.t_max}); nothing to resume")
    return net, step


def _kept_loss_csv(path, t_start):
    """The header and rows 0..t_start-1 of a loss.csv, as lists of cells."""
    try:
        lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    except FileNotFoundError:
        raise FileFormatError(f"cannot resume at step {t_start}: "
                              f"{path} is missing") from None
    except UnicodeDecodeError:
        raise FileFormatError(f"cannot resume: {path} is not a loss CSV") from None
    if not lines or lines[0].rstrip("\r\n") != ",".join(LOSS_CSV_HEADER):
        raise FileFormatError(f"cannot resume: {path} does not start with "
                              f"the {LOSS_SCHEMA} header")
    kept = lines[1:1 + t_start]
    steps = [line.split(",", 1)[0] for line in kept]
    if steps != [str(t) for t in range(t_start)] or \
            not all(line.endswith("\n") for line in kept):
        raise FileFormatError(f"cannot resume at step {t_start}: {path} does "
                              f"not log steps 0..{t_start - 1} in order")
    return [line.rstrip("\r\n").split(",") for line in lines[:1 + t_start]]


def train_loop(split, cfg, out_dir, resume_from=None):
    """Run cfg.t_max optimization steps into the run directory ``out_dir``;
    returns the trained network and its loss rows.

    Writes the config snapshot first, then cadenced checkpoints before
    step ``t_max``, each after the loss CSV of every step before it, the
    loss CSV once more when the loop ends or raises, and the final
    checkpoint and summary.
    With ``resume_from``, ``out_dir`` must be the run's own directory: its
    loss CSV keeps the rows before the checkpoint's step and continues.
    Both are checked before ``out_dir`` is made or written.
    """
    check_pools(split, cfg)
    cfg_hash = config_hash(cfg)
    rng = np.random.default_rng([cfg.seed, _BATCH_STREAM])
    if resume_from is not None:
        net, t_start = resume_state(resume_from, cfg, rng)
    else:
        net = DualDecoderNet(cfg.network)
        t_start = 0
    opt = SGD(net.parameters())

    out_dir = Path(out_dir)
    log = ([LOSS_CSV_HEADER] if resume_from is None
           else _kept_loss_csv(out_dir / "loss.csv", t_start))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic({out_dir / "config.json":
                   json.dumps(asdict(cfg), indent=1, sort_keys=True) + "\n"})
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)

    rows = []
    started = time.perf_counter()
    try:
        for t in range(t_start, cfg.t_max):
            batch = sample_batch(split, cfg, rng)
            terms = train_step(net, opt, batch, t, cfg)
            rows.append((t, *terms.values()))
            log.append(rows[-1] + (LOSS_SCHEMA,))
            if (t + 1) % cfg.checkpoint_every == 0 and t + 1 < cfg.t_max:
                # a resume from this checkpoint needs every earlier row on disk
                _write_csv(out_dir / "loss.csv", log)
                _save_training_checkpoint(ckpt_dir / f"step_{t + 1:06d}.ckpt",
                                          net, rng, t + 1, cfg_hash)
    finally:
        # a run that stops keeps the row of every step it finished
        _write_csv(out_dir / "loss.csv", log)

    wall = time.perf_counter() - started
    summary = {"schema": "summary_v1", "seed": cfg.seed,
               "config_hash": cfg_hash,
               "backend": kernels.BACKEND, "steps_run": cfg.t_max - t_start,
               "wall_seconds": wall,
               "final": terms}
    _save_training_checkpoint(ckpt_dir / "final.ckpt", net, rng, cfg.t_max,
                              cfg_hash)
    _write_atomic({out_dir / "summary.json":
                   json.dumps(summary, indent=1) + "\n"})
    return TrainResult(net=net, rows=rows)
