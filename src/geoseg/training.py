"""End-to-end training: batch assembly, augmentation, optimization, logging.

One training run is a single logical writer: step t's parameter update is
applied before step t+1's forward pass.  The tuple (seed, config, data)
fully determines the loss trace; the batch RNG state is checkpointed so a
resumed run continues bit-for-bit like an unbroken one.

Run directory layout:
    config.json      resolved config snapshot, written before any compute
    loss.csv         one row per step (see LOSS_CSV_HEADER)
    checkpoints/     step-tagged checkpoints plus final.ckpt
    summary.json     final losses, wall time, seed, config hash
"""

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, FileFormatError, TrainingAbort
from .geometry import sdm_target
from .losses import LossConfig, total_loss
from .network import DualDecoderNet, NetworkConfig, save_checkpoint
from .tensor import SGD, Tensor

LOSS_SCHEMA = "loss_v1"
LOSS_CSV_HEADER = ("step", "loss_seg", "loss_sdf", "loss_sup", "loss_cons",
                   "lambda", "loss_total", "schema")
_BATCH_STREAM = 7919  # batch RNG substream tag


@dataclass
class TrainConfig:
    t_max: int = 300
    labeled_per_batch: int = 2
    unlabeled_per_batch: int = 2
    crop: tuple = (64, 64)
    base_lr: float = 0.01
    lr_decay: float = 0.1
    lr_decay_every: int = 125
    momentum: float = 0.9
    seed: int = 0
    checkpoint_every: int = 100
    augment: bool = True
    augment_unlabeled: bool = True
    keep_degenerate_crops: bool = True
    loss: LossConfig = field(default_factory=LossConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self):
        self.crop = tuple(int(c) for c in self.crop)
        if self.t_max < 1:
            raise ConfigError(f"t_max must be >= 1, got {self.t_max}")
        if self.labeled_per_batch < 1:
            raise ConfigError("need at least one labeled item per batch")
        if self.unlabeled_per_batch < 0:
            raise ConfigError("unlabeled_per_batch must be >= 0")
        if len(self.crop) != self.network.rank:
            raise ConfigError(f"crop {self.crop} does not match network rank "
                              f"{self.network.rank}")
        multiple = 1 << self.network.depth
        if any(c % multiple for c in self.crop):
            raise ConfigError(f"crop extents {self.crop} must be divisible by "
                              f"{multiple} (2^depth)")
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.lr_decay_every < 1:
            raise ConfigError("lr_decay_every must be >= 1")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")


def config_to_dict(cfg):
    return asdict(cfg)


def _check_keys(doc, cls, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got "
                          f"{type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def check_config_keys(doc):
    """Reject a config document that is not an object or has unknown keys."""
    _check_keys(doc, TrainConfig, "config")
    for name, cls in (("loss", LossConfig), ("network", NetworkConfig)):
        if name in doc:
            _check_keys(doc[name], cls, f"config.{name}")


def config_from_dict(doc):
    check_config_keys(doc)
    doc = dict(doc)
    try:
        doc["crop"] = tuple(doc["crop"])
        doc["loss"] = LossConfig(**doc["loss"])
        doc["network"] = NetworkConfig(**doc["network"])
        return TrainConfig(**doc)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config value: {e}") from None


def config_hash(cfg):
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def lr_schedule(t, cfg):
    """Stepwise decay: base_lr * lr_decay^(t // lr_decay_every)."""
    return cfg.base_lr * cfg.lr_decay ** (t // cfg.lr_decay_every)


# -- batch assembly -----------------------------------------------------------


@dataclass
class Batch:
    images: np.ndarray            # [N, 1, spatial...], float64
    masks: np.ndarray             # [n_labeled, spatial...], float64 in {0,1}
    sdm_targets: np.ndarray       # [n_labeled, spatial...], float64 in [-1,1]
    labeled_flags: list
    degenerate_flags: list        # per labeled item

    @property
    def n_labeled(self):
        return int(sum(self.labeled_flags))


def random_crop(volume, mask, crop, rng):
    """Uniformly random corner crop; identical window for image and mask."""
    if volume.ndim != len(crop):
        raise DataError(f"crop {crop} rank does not match volume {volume.shape}")
    if any(v < c for v, c in zip(volume.shape, crop)):
        raise DataError(f"volume {volume.shape} is smaller than crop {crop}")
    corner = [int(rng.integers(0, v - c + 1))
              for v, c in zip(volume.shape, crop)]
    window = tuple(slice(o, o + c) for o, c in zip(corner, crop))
    img = np.ascontiguousarray(volume[window])
    if mask is None:
        return img, None
    return img, np.ascontiguousarray(mask[window])


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
    image = apply_augment(image, decisions)
    if mask is not None:
        mask = apply_augment(mask, decisions)
    return image, mask


def _labeled_item(split, cfg, rng):
    attempts = 20 if not cfg.keep_degenerate_crops else 1
    for attempt in range(attempts):
        record = split.labeled[int(rng.integers(len(split.labeled)))]
        img, msk = random_crop(record.image, record.mask, cfg.crop, rng)
        if cfg.augment:
            img, msk = augment(img, msk, rng)
        target = sdm_target(msk)
        if not target.degenerate or cfg.keep_degenerate_crops:
            return img, msk, target
    return img, msk, target  # accept the last attempt rather than fail


def sample_batch(split, cfg, rng):
    """Labeled items first, then unlabeled, sampled with replacement."""
    if not split.labeled:
        raise DataError("labeled pool is empty")
    if cfg.unlabeled_per_batch > 0 and not split.unlabeled:
        raise DataError("unlabeled pool is empty but the batch needs "
                        "unlabeled items")
    images, masks, targets, degenerate = [], [], [], []
    for _ in range(cfg.labeled_per_batch):
        img, msk, target = _labeled_item(split, cfg, rng)
        images.append(img)
        masks.append(msk)
        targets.append(target.values)
        degenerate.append(target.degenerate)
    for _ in range(cfg.unlabeled_per_batch):
        record = split.unlabeled[int(rng.integers(len(split.unlabeled)))]
        img, _ = random_crop(record.image, None, cfg.crop, rng)
        if cfg.augment and cfg.augment_unlabeled:
            img, _ = augment(img, None, rng)
        images.append(img)
    flags = [True] * cfg.labeled_per_batch + [False] * cfg.unlabeled_per_batch
    return Batch(images=np.stack(images).astype(np.float64)[:, None],
                 masks=np.stack(masks).astype(np.float64),
                 sdm_targets=np.stack(targets).astype(np.float64),
                 labeled_flags=flags, degenerate_flags=degenerate)


# -- the optimization loop ---------------------------------------------------------


def train_step(net, opt, batch, t, cfg):
    """Forward, loss, backward, SGD update with the scheduled rate."""
    outputs = net.forward(Tensor(batch.images))
    breakdown = total_loss(outputs, batch, t, cfg.t_max, cfg.loss)
    for name in ("loss_seg", "loss_sdf", "loss_sup", "loss_cons", "loss_total"):
        if not np.isfinite(getattr(breakdown, name)):
            raise TrainingAbort(f"{name} became non-finite at step {t}")
    opt.zero_grad()
    breakdown.total.backward()
    opt.step(lr=lr_schedule(t, cfg))
    return breakdown


@dataclass
class TrainResult:
    net: DualDecoderNet
    rows: list
    out_dir: Path | None
    summary: dict


def _format_row(step, breakdown):
    return [str(step)] + [format(v, ".17g") for v in breakdown.csv_values()] \
        + [LOSS_SCHEMA]


def _save_training_checkpoint(path, net, opt, rng, next_step, cfg_hash):
    extras = {f"momentum/{p.name}": p.momentum for p in opt.params}
    meta = {"step": next_step, "rng_state": rng.bit_generator.state,
            "config_hash": cfg_hash}
    save_checkpoint(path, net, extra_tensors=extras, meta=meta)


def resume_state(path, cfg):
    """Load a checkpoint for resumption; enforces matching config."""
    from .network import load_checkpoint
    config, tensors, meta = load_checkpoint(path)
    if meta.get("config_hash") != config_hash(cfg):
        raise ConfigError("checkpoint was produced by a different config; "
                          "refusing to resume")
    net = DualDecoderNet(config)
    net.load_state(tensors)
    for p in net.parameters():
        mom = tensors.get(f"momentum/{p.name}")
        if mom is not None:
            p.momentum = np.ascontiguousarray(mom, dtype=np.float64)
    return net, meta


def _continue_loss_csv(path, t_start):
    """Open a run's loss.csv for appending from step ``t_start``.

    The header and the rows of steps 0..t_start-1 stay byte for byte; rows
    of later steps, logged after the checkpoint being resumed, are cut off.
    """
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
    csv_file = open(path, "a", newline="")
    csv_file.truncate(sum(len(line) for line in lines[:1 + t_start]))
    return csv_file


def train_loop(split, cfg, out_dir=None, resume_from=None):
    """Run cfg.t_max optimization steps; returns the trained network.

    With ``out_dir`` set, writes the config snapshot first, then the
    per-step loss CSV, cadenced checkpoints, and a final summary.  With
    ``resume_from`` too, ``out_dir`` must be the run's own directory: its
    loss CSV keeps the rows before the checkpoint's step and continues.
    """
    if not split.labeled:
        raise DataError("training split has no labeled records")
    cfg_hash = config_hash(cfg)
    rng = np.random.default_rng([cfg.seed, _BATCH_STREAM])
    if resume_from is not None:
        net, meta = resume_state(resume_from, cfg)
        rng.bit_generator.state = meta["rng_state"]
        t_start = int(meta["step"])
    else:
        net = DualDecoderNet(cfg.network)
        t_start = 0
    opt = SGD(net.parameters(), lr=cfg.base_lr, momentum=cfg.momentum)

    writer = None
    csv_file = None
    ckpt_dir = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(
            json.dumps(config_to_dict(cfg), indent=1, sort_keys=True) + "\n")
        ckpt_dir = out_dir / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        if resume_from is None:
            csv_file = open(out_dir / "loss.csv", "w", newline="")
            csv.writer(csv_file).writerow(LOSS_CSV_HEADER)
        else:
            csv_file = _continue_loss_csv(out_dir / "loss.csv", t_start)
        writer = csv.writer(csv_file)

    rows = []
    started = time.perf_counter()
    try:
        for t in range(t_start, cfg.t_max):
            batch = sample_batch(split, cfg, rng)
            breakdown = train_step(net, opt, batch, t, cfg)
            rows.append((t,) + breakdown.csv_values())
            if writer is not None:
                writer.writerow(_format_row(t, breakdown))
            if ckpt_dir is not None and (t + 1) % cfg.checkpoint_every == 0:
                # a resume from this checkpoint needs every earlier row on disk
                csv_file.flush()
                os.fsync(csv_file.fileno())
                _save_training_checkpoint(ckpt_dir / f"step_{t + 1:06d}.ckpt",
                                          net, opt, rng, t + 1, cfg_hash)
    finally:
        if csv_file is not None:
            csv_file.close()

    wall = time.perf_counter() - started
    summary = {"schema": "summary_v1", "seed": cfg.seed,
               "config_hash": cfg_hash, "momentum": cfg.momentum,
               "backend": kernels.BACKEND, "steps_run": cfg.t_max - t_start,
               "wall_seconds": wall,
               "final": dict(zip(LOSS_CSV_HEADER[1:-1], rows[-1][1:])) if rows
               else None}
    if out_dir is not None:
        _save_training_checkpoint(ckpt_dir / "final.ckpt", net, opt, rng,
                                  cfg.t_max, cfg_hash)
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=1) + "\n")
    return TrainResult(net=net, rows=rows, out_dir=out_dir, summary=summary)
