"""Batch assembly, augmentation, schedules, and the training loop."""

import shutil
from dataclasses import asdict, fields

import numpy as np
import pytest

from geoseg import training
from geoseg.data import build_dataset, load_split
from geoseg.errors import ConfigError, DataError, TrainingAbort
from geoseg.losses import LossConfig, ramp_up, total_loss
from geoseg.network import NetworkConfig
from geoseg.tensor import SGD, Tensor
from geoseg.training import (Batch, TrainConfig, apply_augment, augment,
                             config_from_dict, config_hash, lr_schedule,
                             random_crop, sample_batch, train_loop)

rng = np.random.default_rng(53)


def tiny_config(**over):
    base = dict(t_max=8, labeled_per_batch=2, unlabeled_per_batch=2,
                crop=(32, 32), checkpoint_every=4, seed=5,
                loss=LossConfig(k=20.0),
                network=NetworkConfig(rank=2, width=2, depth=2, seed=5))
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def split(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_ds")
    manifest = build_dataset(out, n_labeled=3, n_unlabeled=4, n_test=2,
                             shape=(32, 32), seed=99)
    return load_split(manifest)


# -- cropping and augmentation ------------------------------------------------


def test_crop_identity_when_sizes_match():
    vol = rng.standard_normal((12, 12))
    img, _ = random_crop(vol, None, (12, 12), np.random.default_rng(0))
    np.testing.assert_array_equal(img, vol)


def test_crop_rejects_undersized_volume():
    with pytest.raises(DataError, match=r"\(8, 8\).*\(16, 16\)"):
        random_crop(np.zeros((8, 8)), None, (16, 16), np.random.default_rng(0))


def test_crop_corners_uniform_chi_square():
    # 5x5 volume, 4x4 crop: four equiprobable corners; chi-square on 10^4
    # draws, df=3, critical value 11.345 at p=0.01
    vol = np.arange(25.0).reshape(5, 5)
    gen = np.random.default_rng(2024)
    counts = np.zeros((2, 2))
    for _ in range(10_000):
        img, _ = random_crop(vol, None, (4, 4), gen)
        counts[int(img[0, 0] // 5), int(img[0, 0] % 5)] += 1
    stat = ((counts - 2500.0) ** 2 / 2500.0).sum()
    assert stat < 11.345, f"chi-square {stat:.2f} suggests non-uniform corners"


class _NoOpDraws:
    """Stub RNG whose draws always select the identity transform."""

    def random(self, *args, **kwargs):
        return 0.9

    def integers(self, *args, **kwargs):
        return 0


def test_augment_identity_draw_returns_input():
    img = rng.standard_normal((8, 8))
    mask = (rng.random((8, 8)) < 0.5).astype(np.uint8)
    img2, mask2 = augment(img, mask, _NoOpDraws())
    np.testing.assert_array_equal(img, img2)
    np.testing.assert_array_equal(mask, mask2)


def test_augment_flips_are_involutions():
    img = rng.standard_normal((6, 6))
    decisions = ((True, True), 0)
    np.testing.assert_array_equal(
        apply_augment(apply_augment(img, decisions), decisions), img)


def test_augment_preserves_mask_statistics():
    gen = np.random.default_rng(8)
    for _ in range(20):
        img = rng.standard_normal((8, 8))
        mask = (rng.random((8, 8)) < 0.3).astype(np.uint8)
        img2, mask2 = augment(img, mask, gen)
        assert mask2.sum() == mask.sum()
        assert set(np.unique(mask2)) <= {0, 1}
        assert sorted(img2.ravel()) == sorted(img.ravel())


def test_augment_non_square_plane_restricts_rotation():
    gen = np.random.default_rng(3)
    img = rng.standard_normal((4, 8))
    for _ in range(10):
        img2, _ = augment(img, None, gen)
        assert img2.shape == (4, 8)


# -- batch assembly --------------------------------------------------------------


def test_batch_canonical_order_and_flags(split):
    cfg = tiny_config()
    batch = sample_batch(split, cfg, np.random.default_rng(1))
    assert batch.images.shape == (4, 1, 32, 32)
    assert batch.masks.shape == (2, 32, 32)
    assert batch.sdm_targets.shape == (2, 32, 32)
    assert batch.n_labeled == 2


def test_batch_supervised_only_composition(split):
    cfg = tiny_config(labeled_per_batch=1, unlabeled_per_batch=0)
    batch = sample_batch(split, cfg, np.random.default_rng(1))
    assert batch.images.shape == (1, 1, 32, 32)
    assert batch.masks.shape == (1, 32, 32)
    assert batch.n_labeled == 1


def test_batch_sequence_deterministic(split):
    cfg = tiny_config()
    a = [sample_batch(split, cfg, np.random.default_rng(7)) for _ in range(3)]
    b = [sample_batch(split, cfg, np.random.default_rng(7)) for _ in range(3)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.images, y.images)
        np.testing.assert_array_equal(x.sdm_targets, y.sdm_targets)


def test_degenerate_crop_flagged():
    # an all-background labeled volume yields a degenerate SDM target
    record = type("R", (), {})()
    record.image = rng.standard_normal((32, 32)).astype(np.float32)
    record.mask = np.zeros((32, 32), dtype=np.uint8)
    split = type("S", (), {})()
    split.labeled = [record]
    split.unlabeled = []
    cfg = tiny_config(labeled_per_batch=1, unlabeled_per_batch=0)
    batch = sample_batch(split, cfg, np.random.default_rng(0))
    # the +grid-diagonal sentinel normalizes to exactly 1
    np.testing.assert_array_equal(batch.sdm_targets, 1.0)


def test_empty_pool_rejected(split):
    empty = type("S", (), {"labeled": [], "unlabeled": []})()
    with pytest.raises(DataError):
        sample_batch(empty, tiny_config(), np.random.default_rng(0))


def test_train_loop_checks_the_pools_before_writing(split, tmp_path):
    no_unlabeled = type(split)(labeled=split.labeled, unlabeled=[],
                               test=split.test)
    with pytest.raises(DataError, match="no unlabeled-train records"):
        train_loop(no_unlabeled, tiny_config(), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


# -- schedule ----------------------------------------------------------------------


def test_lr_schedule_paper_constants():
    cfg = tiny_config(t_max=6000, lr_decay_every=2500)
    assert lr_schedule(0, cfg) == 0.01
    assert lr_schedule(2499, cfg) == 0.01
    assert abs(lr_schedule(2500, cfg) - 0.001) < 1e-18
    assert abs(lr_schedule(5000, cfg) - 0.0001) < 1e-18


@pytest.mark.parametrize("crop", [(32.7, 32), (32, 32.0), (True, 32),
                                  ("32", 32)])
def test_non_int_crop_is_a_config_error(crop):
    with pytest.raises(ConfigError, match="crop extents must be ints"):
        tiny_config(crop=crop)


def test_numpy_int_crop_becomes_python_ints():
    crop = tiny_config(crop=(np.int64(32), np.int32(32))).crop
    assert crop == (32, 32) and all(type(c) is int for c in crop)


def test_config_round_trip():
    cfg = tiny_config()
    assert config_from_dict(asdict(cfg)) == cfg


def test_default_config_hash_is_pinned():
    assert config_hash(TrainConfig()) == \
        "ea6125c05aa828937a4ab71a38e0a49189d42726d5681afb18d2b1fc24090e2f"


# each float field spelled as a JSON int, and the same value as a float
INT_SPELLED_FLOATS = [({"base_lr": 1}, {"base_lr": 1.0}),
                      ({"loss": {"rho": 2}}, {"loss": {"rho": 2.0}}),
                      ({"loss": {"k": 20}}, {"loss": {"k": 20.0}}),
                      ({"loss": {"beta": 0}}, {"loss": {"beta": 0.0}}),
                      ({"loss": {"lambda_max": 1}}, {"loss": {"lambda_max": 1.0}})]


@pytest.mark.parametrize("as_int, as_float", INT_SPELLED_FLOATS,
                         ids=[str(a) for a, _ in INT_SPELLED_FLOATS])
def test_int_and_float_spellings_hash_equal(as_int, as_float):
    a, b = config_from_dict(as_int), config_from_dict(as_float)
    assert a == b and config_hash(a) == config_hash(b)


# every config field, by section: a new knob must edit this list, and
# should come with a caller outside the tests that sets a second value
CONFIG_SURFACE = {
    TrainConfig: ["t_max", "labeled_per_batch", "unlabeled_per_batch", "crop",
                  "base_lr", "lr_decay_every", "seed", "checkpoint_every",
                  "loss", "network"],
    LossConfig: ["rho", "k", "beta", "lambda_max", "consistency"],
    NetworkConfig: ["rank", "width", "depth", "seed"],
}


def test_config_surface_is_pinned():
    for cls, names in CONFIG_SURFACE.items():
        assert [f.name for f in fields(cls)] == names, cls.__name__
    leaves = [name for names in CONFIG_SURFACE.values() for name in names
              if name not in ("loss", "network")]
    assert len(leaves) == 17


# -- the loop ----------------------------------------------------------------------


def test_train_loop_row_count_and_lambda_column(split, tmp_path):
    cfg = tiny_config(t_max=10)
    result = train_loop(split, cfg, out_dir=tmp_path / "run")
    assert len(result.rows) == 10
    for t, *vals in result.rows:
        lam = vals[4]
        assert lam == ramp_up(t, cfg.t_max, cfg.loss.lambda_max)
    csv_lines = (tmp_path / "run" / "loss.csv").read_text().splitlines()
    assert len(csv_lines) == 11  # header + rows
    assert csv_lines[0].startswith("step,loss_seg")
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "summary.json").exists()


def test_train_loop_deterministic_rows(split, tmp_path):
    cfg = tiny_config(t_max=4)
    a = train_loop(split, cfg, tmp_path / "a").rows
    b = train_loop(split, cfg, tmp_path / "b").rows
    assert a == b


def test_resume_matches_unbroken_run(split, tmp_path):
    # a copy of the run resumed from its step-4 checkpoint writes the same
    # loss.csv and final checkpoint bytes as the unbroken run
    cfg = tiny_config(t_max=8, checkpoint_every=4)
    full = train_loop(split, cfg, tmp_path / "full")
    shutil.copytree(tmp_path / "full", tmp_path / "resumed")
    ckpt = tmp_path / "resumed" / "checkpoints" / "step_000004.ckpt"
    resumed = train_loop(split, cfg, tmp_path / "resumed", resume_from=ckpt)
    assert resumed.rows == full.rows[4:]
    for name in ("loss.csv", "checkpoints/final.ckpt"):
        assert (tmp_path / "resumed" / name).read_bytes() == \
            (tmp_path / "full" / name).read_bytes()


def _unbroken_log(split, cfg, out_dir):
    """The lines of the loss.csv bytes of an unbroken run of ``cfg``,
    header first."""
    train_loop(split, cfg, out_dir)
    return (out_dir / "loss.csv").read_bytes().splitlines(keepends=True)


def test_each_checkpoint_finds_its_earlier_loss_rows_on_disk(split, tmp_path,
                                                              monkeypatch):
    # a crash after any checkpoint must leave the rows a resume from it
    # needs, as the unbroken run wrote them, and no later row
    cfg = tiny_config(t_max=4, checkpoint_every=2)
    unbroken = _unbroken_log(split, cfg, tmp_path / "unbroken")
    on_disk = {}

    def save(path, net, meta=None):
        on_disk[path.name] = (tmp_path / "run" / "loss.csv").read_bytes()

    monkeypatch.setattr(training, "save_checkpoint", save)
    train_loop(split, cfg, out_dir=tmp_path / "run")
    assert on_disk == {"step_000002.ckpt": b"".join(unbroken[:3]),
                       "final.ckpt": b"".join(unbroken)}


@pytest.mark.parametrize("t_max, steps", [(8, [4]), (10, [4, 8])])
def test_finished_run_keeps_each_resume_point_before_t_max(split, tmp_path,
                                                           t_max, steps):
    # the state at t_max is final.ckpt alone, which no run resumes from
    cfg = tiny_config(t_max=t_max, checkpoint_every=4)
    train_loop(split, cfg, out_dir=tmp_path / "run")
    assert sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir()) \
        == ["final.ckpt"] + [f"step_{n:06d}.ckpt" for n in steps]


def test_loss_csv_is_written_once_per_state(split, tmp_path, monkeypatch):
    # a 4-step run checkpointing every 2 writes the header and 2 rows
    # before its step-2 checkpoint, and all 4 rows once as it ends
    written = []
    write = training._write_csv

    def spy(path, rows):
        written.append(len(rows))
        write(path, rows)

    monkeypatch.setattr(training, "_write_csv", spy)
    train_loop(split, tiny_config(t_max=4, checkpoint_every=2),
               out_dir=tmp_path / "run")
    assert written == [3, 5]


@pytest.mark.parametrize("stop", [TrainingAbort, KeyboardInterrupt])
def test_stopped_run_keeps_the_rows_of_its_finished_steps(split, tmp_path,
                                                         monkeypatch, stop):
    # a run stopped in step 3, after its step-2 checkpoint, logs steps 0..2
    # as the unbroken run did, and leaves no temp file
    cfg = tiny_config(t_max=4, checkpoint_every=2)
    unbroken = _unbroken_log(split, cfg, tmp_path / "unbroken")
    step = training.train_step

    def stop_in_step_3(net, opt, batch, t, cfg):
        if t == 3:
            raise stop("stopped in step 3")
        return step(net, opt, batch, t, cfg)

    monkeypatch.setattr(training, "train_step", stop_in_step_3)
    with pytest.raises(stop):
        train_loop(split, cfg, out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "loss.csv").read_bytes() == \
        b"".join(unbroken[:4])
    assert not (tmp_path / "run" / ".loss.csv.tmp").exists()


def test_supervised_overfit_sanity(split, tmp_path):
    # one labeled item, supervised-only: the segmentation loss must at least
    # halve over 200 steps on this tiny net
    cfg = tiny_config(t_max=200, labeled_per_batch=1, unlabeled_per_batch=0,
                      checkpoint_every=1000,
                      loss=LossConfig(consistency="none", k=20.0))
    one = type("S", (), {"labeled": split.labeled[:1], "unlabeled": [],
                         "test": []})()
    result = train_loop(one, cfg, tmp_path / "run")
    first = np.mean([r[1] for r in result.rows[:10]])
    last = np.mean([r[1] for r in result.rows[-10:]])
    assert last < 0.5 * first, f"L_seg {first:.4f} -> {last:.4f}"


def test_information_barrier_unlabeled_images(split):
    # zeroing the unlabeled images' content changes only the consistency term
    from geoseg.network import DualDecoderNet
    cfg = tiny_config()
    net = DualDecoderNet(cfg.network)
    batch = sample_batch(split, cfg, np.random.default_rng(11))
    zeroed = Batch(images=batch.images.copy(), masks=batch.masks,
                   sdm_targets=batch.sdm_targets)
    zeroed.images[2:] = 0.0
    out_a = net.forward(Tensor(batch.images))
    out_b = net.forward(Tensor(zeroed.images))
    _, terms_a = total_loss(out_a, batch, 3, 8, cfg.loss)
    _, terms_b = total_loss(out_b, zeroed, 3, 8, cfg.loss)
    assert terms_a["loss_sup"] == terms_b["loss_sup"]
    assert terms_a["loss_seg"] == terms_b["loss_seg"]
    assert terms_a["loss_cons"] != terms_b["loss_cons"]


def _full_batch_step(net, opt, batch, t, cfg):
    # the step with every batch item forwarded, unlabeled ones included
    outputs = net.forward(Tensor(batch.images))
    root, terms = total_loss(outputs, batch, t, cfg.t_max, cfg.loss)
    opt.zero_grad()
    root.backward()
    opt.step(lr_schedule(t, cfg))
    return terms


@pytest.mark.parametrize("rank", [2, 3])
def test_supervised_step_forwards_only_labeled_items(rank, tmp_path):
    # with no consistency term the unlabeled items feed no loss: skipping
    # them leaves every logged value and every parameter bit-identical
    from geoseg.network import DualDecoderNet
    shape = (16,) * rank
    ds = load_split(build_dataset(tmp_path, n_labeled=2, n_unlabeled=2,
                                  n_test=1, shape=shape, seed=7))
    cfg = tiny_config(crop=shape, loss=LossConfig(consistency="none", k=20.0),
                      network=NetworkConfig(rank=rank, width=2, depth=2, seed=5))
    nets = [DualDecoderNet(cfg.network) for _ in range(2)]
    opts = [SGD(n.parameters()) for n in nets]
    seen = []
    forward = nets[0].forward
    nets[0].forward = lambda x: seen.append(x.data.shape[0]) or forward(x)
    gen = np.random.default_rng(3)
    for t in range(3):
        batch = sample_batch(ds, cfg, gen)
        assert len(batch.images) == 4
        got = training.train_step(nets[0], opts[0], batch, t, cfg)
        want = _full_batch_step(nets[1], opts[1], batch, t, cfg)
        assert got == want
    assert seen == [2, 2, 2]
    for p, q in zip(nets[0].parameters(), nets[1].parameters()):
        assert p.data.tobytes() == q.data.tobytes(), p.name
        assert p.momentum.tobytes() == q.momentum.tobytes(), p.name
