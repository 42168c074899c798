"""Metric oracles and sliding-window inference contracts."""

import csv
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest

from geoseg import inference, network
from geoseg.data import VolumeRecord
from geoseg.errors import ConfigError, UndefinedMetricError
from geoseg.geometry import sdm_target
from geoseg.inference import (HEADS, TILE_BATCH_VOXELS, evaluate,
                              sliding_window_infer, threshold_foreground)
from geoseg.metrics import dice_jaccard, surface_distances
from geoseg.network import DualDecoderNet, NetworkConfig
from geoseg.tensor import SGD, Tensor
from geoseg.training import Batch, TrainConfig, train_step
from helpers import (assert_bitwise_equal, brute_force_surface_distances,
                     per_tile_sliding_window, random_blob_mask,
                     record_arrays, sliding_tiles)

rng = np.random.default_rng(61)


# -- overlap metrics ----------------------------------------------------------


def test_dice_jaccard_identical_masks():
    mask = random_blob_mask(rng, (16, 16))
    assert dice_jaccard(mask, mask) == (1.0, 1.0)


def test_dice_jaccard_disjoint_masks():
    a = np.zeros((10, 10), bool)
    b = np.zeros((10, 10), bool)
    a[:3] = True
    b[6:] = True
    assert dice_jaccard(a, b) == (0.0, 0.0)


def test_dice_jaccard_half_overlap_hand_case():
    a = np.zeros((20, 10), bool)
    b = np.zeros((20, 10), bool)
    a[:10] = True            # |A| = 100
    b[5:15] = True           # |B| = 100, |A & B| = 50
    dice, jaccard = dice_jaccard(a, b)
    assert dice == 0.5
    assert abs(jaccard - 1.0 / 3.0) < 1e-15


def test_dice_jaccard_both_empty_convention():
    empty = np.zeros((5, 5), bool)
    assert dice_jaccard(empty, empty) == (1.0, 1.0)


def test_jaccard_dice_identity():
    for _ in range(50):
        a = rng.random((9, 9)) < rng.uniform(0, 1)
        b = rng.random((9, 9)) < rng.uniform(0, 1)
        dice, jaccard = dice_jaccard(a, b)
        if dice < 2.0:
            assert abs(jaccard - dice / (2.0 - dice)) < 1e-12


# -- surface distances -----------------------------------------------------------


def test_surface_identical_masks_zero():
    mask = random_blob_mask(rng, (14, 14))
    assert surface_distances(mask, mask) == (0.0, 0.0)


def test_surface_single_voxels_three_apart():
    a = np.zeros((9, 9), bool)
    b = np.zeros((9, 9), bool)
    a[4, 2] = True
    b[4, 5] = True
    asd, hd95 = surface_distances(a, b)
    assert asd == 3.0 and hd95 == 3.0


@pytest.mark.parametrize("shape", [(12, 13), (10, 9, 8), (16, 16, 16)])
def test_surface_matches_brute_force(shape):
    for _ in range(6):
        a = random_blob_mask(rng, shape)
        b = random_blob_mask(rng, shape)
        got = surface_distances(a, b)
        want = brute_force_surface_distances(a, b)
        np.testing.assert_allclose(got, want, atol=1e-9)


def _mask_with_surface(shape):
    # neither empty nor full, so some foreground voxel has a face-adjacent
    # background voxel: the grid is face-connected
    mask = rng.random(shape) < rng.uniform(0.2, 0.8)
    on, off = rng.choice(mask.size, 2, replace=False)
    mask.flat[on], mask.flat[off] = True, False
    return mask


@pytest.mark.parametrize("shape", [(1, 13), (11, 1), (1, 9, 7), (6, 1, 5),
                                   (8, 1, 1)])
def test_surface_matches_brute_force_with_length_one_axes(shape):
    for _ in range(6):
        a, b = _mask_with_surface(shape), _mask_with_surface(shape)
        got = surface_distances(a, b)
        want = brute_force_surface_distances(a, b)
        np.testing.assert_allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("shape", [(40, 36), (24, 20, 22)])
def test_surface_spurious_blob_far_from_truth(shape):
    # a stray blob in the far corner: its surface voxels lie far from every
    # true surface voxel, and the distances must stay exact
    truth = np.zeros(shape, bool)
    truth[tuple(slice(2, 2 + n // 4) for n in shape)] = True
    pred = truth.copy()
    pred[tuple(slice(n - 4, n - 1) for n in shape)] = True
    got = surface_distances(pred, truth)
    want = brute_force_surface_distances(pred, truth)
    np.testing.assert_allclose(got, want, atol=1e-9)
    assert got[1] > 0.5 * np.sqrt(sum(n * n for n in shape))


def _box_mask(shape, lo, hi, holes):
    # the box [lo, hi) with a random fraction ``holes`` of its voxels
    # unset, except its low corner; no box fills its grid, so each mask
    # has a surface
    mask = np.zeros(shape, bool)
    mask[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
    mask &= rng.random(shape) >= holes
    mask[tuple(lo)] = True
    return mask


# (id, shape, the boxes of masks a and b as (low corner, high corner)):
# surfaces on the grid's edges, surfaces far apart inside the grid, and
# grids with length-1 axes, each a bounding box of the two surfaces that
# the transforms are cropped to
CROP_LAYOUTS = [
    ("edges-2d", (20, 17), ((0, 0), (6, 17)), ((12, 9), (20, 17))),
    ("edges-3d", (9, 12, 10), ((0, 0, 0), (9, 4, 3)),
     ((5, 8, 6), (9, 12, 10))),
    ("far-apart-2d", (40, 36), ((3, 4), (7, 9)), ((29, 26), (34, 31))),
    ("far-apart-3d", (24, 20, 22), ((2, 3, 2), (6, 7, 5)),
     ((17, 13, 16), (21, 17, 20))),
    ("length-one-2d", (1, 30), ((0, 2), (1, 6)), ((0, 19), (1, 30))),
    ("length-one-3d", (7, 1, 25), ((1, 0, 0), (3, 1, 5)),
     ((4, 0, 18), (7, 1, 23))),
]


@pytest.mark.parametrize("holes", [0.0, 0.3])
@pytest.mark.parametrize("shape, box_a, box_b",
                         [case[1:] for case in CROP_LAYOUTS],
                         ids=[case[0] for case in CROP_LAYOUTS])
def test_cropped_transforms_match_brute_force(shape, box_a, box_b, holes):
    for _ in range(3):
        a, b = _box_mask(shape, *box_a, holes), _box_mask(shape, *box_b, holes)
        for percentile in (95.0, 100.0):
            got = surface_distances(a, b, percentile)
            want = brute_force_surface_distances(a, b, percentile)
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_percentile_100_is_exact_hausdorff():
    a = random_blob_mask(rng, (15, 14))
    b = random_blob_mask(rng, (15, 14))
    _, hd100 = surface_distances(a, b, percentile=100.0)
    _, want = brute_force_surface_distances(a, b, percentile=100.0)
    assert abs(hd100 - want) < 1e-12


def test_surface_empty_mask_is_undefined():
    mask = random_blob_mask(rng, (8, 8))
    with pytest.raises(UndefinedMetricError):
        surface_distances(np.zeros((8, 8), bool), mask)
    with pytest.raises(UndefinedMetricError):
        surface_distances(np.ones((8, 8), bool), mask)  # no surface either


# -- sliding window ----------------------------------------------------------------


class _ConstantNet:
    """Stub producing a constant foreground probability everywhere."""

    def __init__(self, value, depth=2):
        self.config = NetworkConfig(rank=2, width=2, depth=depth, seed=0)
        self.value = value

    def astype(self, dtype):
        return self  # no parameters

    def predict(self, x):
        const = Tensor(np.full((x.shape[0], 1) + x.shape[2:], self.value))
        return {"seg": const, "sdm": const}


class _ImageNet:
    """Stub whose foreground probability is the clipped input image."""

    def __init__(self, depth=2):
        self.config = NetworkConfig(rank=2, width=2, depth=depth, seed=0)

    def astype(self, dtype):
        return self  # no parameters

    def predict(self, x):
        prob = Tensor(np.clip(x.data, 0.0, 1.0))
        return {"seg": prob, "sdm": prob}


def real_net(seed=3):
    return DualDecoderNet(NetworkConfig(rank=2, width=2, depth=2, seed=seed))


def test_window_covering_volume_equals_single_forward():
    net = real_net()
    vol = rng.standard_normal((16, 16))
    got = sliding_window_infer(net, vol, (16, 16), (16, 16))
    want = net.forward(Tensor(vol[None, None])).seg1.data[0, 0]
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_window_larger_than_volume_pads_and_unpads():
    net = real_net()
    vol = rng.standard_normal((10, 12))
    got = sliding_window_infer(net, vol, (16, 16), (16, 16))
    padded = np.zeros((16, 16))
    padded[:10, :12] = vol
    want = net.forward(Tensor(padded[None, None])).seg1.data[0, 0]
    np.testing.assert_allclose(got, want[:10, :12], atol=1e-6)


def test_non_overlapping_tiles_predicted_once():
    net = real_net()
    vol = rng.standard_normal((32, 32)).astype(np.float32)
    got = sliding_window_infer(net, vol, (16, 16), (16, 16))
    net32 = net.astype(np.float32)
    for i in (0, 16):
        for j in (0, 16):
            tile = vol[i:i + 16, j:j + 16]
            want = net32.forward(Tensor(tile[None, None])).seg1.data[0, 0]
            assert_bitwise_equal(got[i:i + 16, j:j + 16],
                                 want.astype(np.float64))


# (id, rank, volume, window, stride, the tile corners that stride gives:
# the last tile per axis clamps to the edge, an axis shorter than the
# window is zero-padded to it)
TILINGS = [
    ("overlapping-2d", 2, (24, 20), (16, 16), (8, 8),
     [(0, 0), (0, 4), (8, 0), (8, 4)]),
    ("padded-2d", 2, (12, 20), (16, 16), (8, 8), [(0, 0), (0, 4)]),
    ("overlapping-padded-3d", 3, (12, 6, 10), (8, 8, 8), (4, 4, 4),
     [(0, 0, 0), (0, 0, 2), (4, 0, 0), (4, 0, 2)]),
]
FULL_NET_HEADS = {"seg": lambda out: out.seg1, "sdm": lambda out: out.sdm1}


def _tile_average(net, vol, window, corners, head):
    """The full network's decoder-1 ``head`` map of each tile at
    ``corners``, in the dtype of ``net`` and ``vol``, averaged in float64
    over the zero-padded volume."""
    padded = np.zeros([max(n, w) for n, w in zip(vol.shape, window)],
                      dtype=vol.dtype)
    padded[tuple(slice(0, n) for n in vol.shape)] = vol
    total, count = np.zeros(padded.shape), np.zeros(padded.shape)
    for corner in corners:
        sl = tuple(slice(o, o + w) for o, w in zip(corner, window))
        out = net.forward(Tensor(padded[sl][None, None]))
        total[sl] += FULL_NET_HEADS[head](out).data[0, 0]
        count[sl] += 1.0
    assert count.min() == 1.0
    total /= count
    return total[tuple(slice(0, n) for n in vol.shape)]


@pytest.mark.parametrize("head", sorted(FULL_NET_HEADS))
@pytest.mark.parametrize("rank, shape, window, stride, corners",
                         [case[1:] for case in TILINGS],
                         ids=[case[0] for case in TILINGS])
def test_sliding_window_is_the_tile_average_of_the_full_forward(
        head, rank, shape, window, stride, corners):
    # inference runs the encoder and decoder 1 only, in float32; its maps
    # are the float32 full network's decoder-1 maps bit for bit
    net = DualDecoderNet(NetworkConfig(rank=rank, width=2, depth=2, seed=9))
    vol = rng.standard_normal(shape).astype(np.float32)
    got = sliding_window_infer(net, vol, window, stride, head=head)
    assert_bitwise_equal(got, _tile_average(net.astype(np.float32), vol,
                                            window, corners, head))


# bound on |float32 inference - float64 tile average|, absolute, as both
# heads lie in [-1, 1] (softmax, tanh): 1e-5, a margin of 9 over the
# largest difference measured on these tilings, 1.1e-6 (sdm, 3D, net
# seeds 0-5; the seg maps 2.8e-7).  Default nets trained 40 steps (2D)
# or 8 (3D) measured at most 9.0e-7 on 128x128 cases and 2.7e-7 on 24^3
# ones.  1.1e-6 is 18 float32 unit roundoffs (2^-24), from rounding the
# volume and every layer's output.
FLOAT32_MAP_BOUND = 1e-5


@pytest.mark.parametrize("head", sorted(FULL_NET_HEADS))
@pytest.mark.parametrize("rank, shape, window, stride, corners",
                         [case[1:] for case in TILINGS],
                         ids=[case[0] for case in TILINGS])
def test_float32_inference_is_near_the_float64_tile_average(
        head, rank, shape, window, stride, corners):
    net = DualDecoderNet(NetworkConfig(rank=rank, width=2, depth=2, seed=9))
    vol = rng.standard_normal(shape)
    got = sliding_window_infer(net, vol, window, stride, head=head)
    want = _tile_average(net, vol, window, corners, head)
    assert want.dtype == np.float64
    assert np.abs(got - want).max() <= FLOAT32_MAP_BOUND


def test_the_float32_copy_is_named_and_leaves_the_net_alone():
    net = real_net()
    before = {name: p.data.copy() for name, p in net.params.items()}
    net32 = net.astype(np.float32)
    assert net32.config == net.config and list(net32.params) == list(net.params)
    for name, p in net32.params.items():
        assert p.name == name and p.data.dtype == np.float32
        assert p.data.tobytes() == before[name].astype(np.float32).tobytes()
        assert net.params[name].data.dtype == np.float64
        assert_bitwise_equal(net.params[name].data, before[name])


def test_astype_to_the_dtype_held_is_the_net_itself():
    net = real_net()
    before = {name: p.data.copy() for name, p in net.params.items()}
    assert net.astype(np.float64) is net
    net32 = net.astype(np.float32)
    assert net32 is not net and net32.astype(np.float32) is net32
    # back to float64: again a copy, under the same names, of the float32
    # values, and the float32 net keeps its own arrays
    net64 = net32.astype(np.float64)
    assert net64 is not net32 and list(net64.params) == list(net.params)
    for name, p in net64.params.items():
        assert p.name == name and p.data.dtype == np.float64
        assert p.data is not net32.params[name].data
        assert_bitwise_equal(p.data, before[name].astype(np.float32)
                             .astype(np.float64))
        assert net32.params[name].data.dtype == np.float32
        assert_bitwise_equal(net.params[name].data, before[name])


@pytest.mark.parametrize("rank, shape, window, stride",
                         [case[1:5] for case in TILINGS],
                         ids=[case[0] for case in TILINGS])
def test_float32_inference_makes_no_float64_array_but_its_average(
        monkeypatch, rank, shape, window, stride):
    # the one float64 arrays are the sum of the maps and the visit count,
    # at the padded volume's shape
    net = DualDecoderNet(NetworkConfig(rank=rank, width=2, depth=2, seed=9))
    vol = rng.standard_normal(shape)
    made = record_arrays(monkeypatch)
    sliding_window_infer(net, vol, window, stride)
    padded = tuple(max(n, w) for n, w in zip(shape, window))
    floats = [a for a in made if a.dtype.kind == "f"]
    assert len(floats) > 50
    assert [(a.dtype, a.shape) for a in floats if a.dtype != np.float32] \
        == [(np.dtype(np.float64), padded)] * 2


class _CountingNet:
    """A real network that logs the thread and the input batch of each
    ``predict`` call."""

    def __init__(self, net):
        self.net, self.config, self.calls = net, net.config, []

    def astype(self, dtype):
        # the copy logs into this stub's calls
        copy = _CountingNet(self.net.astype(dtype))
        copy.calls = self.calls
        return copy

    def predict(self, x):
        self.calls.append((threading.get_ident(), x.data.copy()))
        return self.net.predict(x)


def assert_batches_ran_in_order(calls, volume, window, stride, sizes):
    """Batch k stacks the next ``sizes[k]`` tiles in corner order, and
    this thread ran every batch, in order."""
    padded, tiles = sliding_tiles(volume, window, stride)
    ends = np.cumsum(sizes)
    assert ends[-1] == len(tiles)
    batches = [np.stack([padded[sl] for sl in tiles[end - n:end]])[:, None]
               for n, end in zip(sizes, ends)]
    assert [t for t, _ in calls] == [threading.get_ident()] * len(sizes)
    for (_, x), batch in zip(calls, batches):
        assert_bitwise_equal(x, batch)


# (id, rank, volume, window, stride, the batch sizes TILE_BATCH_VOXELS
# gives: the fewest batches, near-equal; a window over budget runs alone)
BATCHINGS = [
    ("2d-one-batch", 2, (24, 20), (16, 16), (8, 8), [4]),
    ("2d-padded", 2, (12, 20), (16, 16), (8, 8), [2]),
    ("2d-nine-tiles", 2, (128, 128), (64, 64), (32, 32), [3, 3, 3]),
    ("2d-clamped-uneven", 2, (120, 64), (64, 64), (16, 16), [3, 2]),
    ("3d-padded-clamped", 3, (12, 6, 10), (8, 8, 8), (4, 4, 4), [4]),
    ("3d-clamped-uneven", 3, (44, 16, 16), (16, 16, 16), (8, 8, 8), [3, 2]),
    ("3d-over-budget", 3, (44, 32, 32), (32, 32, 32), (8, 8, 8), [1, 1, 1]),
]


@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("rank, shape, window, stride, batches",
                         [case[1:] for case in BATCHINGS],
                         ids=[case[0] for case in BATCHINGS])
def test_batched_tiles_match_per_tile_inference(head, rank, shape, window,
                                                stride, batches):
    net = _CountingNet(DualDecoderNet(NetworkConfig(rank=rank, width=2,
                                                    depth=2, seed=5)))
    vol = rng.standard_normal(shape).astype(np.float32)
    got = sliding_window_infer(net, vol, window, stride, head=head)
    assert_batches_ran_in_order(net.calls, vol, window, stride, batches)
    tile = math.prod(window)
    assert max(batches) * tile <= max(tile, TILE_BATCH_VOXELS)
    assert_bitwise_equal(got, per_tile_sliding_window(
        net.net.astype(np.float32), vol, window, stride, head))


def test_tiles_split_into_the_fewest_near_equal_batches(monkeypatch):
    # ten 16x16 tiles under a budget of three and a bit: 3+3+2+2, not 3+3+3+1
    monkeypatch.setattr(inference, "TILE_BATCH_VOXELS", 4 * 256 - 1)
    net = _CountingNet(real_net())
    vol = rng.standard_normal((16, 88)).astype(np.float32)
    got = sliding_window_infer(net, vol, (16, 16), (16, 8))
    assert_batches_ran_in_order(net.calls, vol, (16, 16), (16, 8), [3, 3, 2, 2])
    assert_bitwise_equal(got, per_tile_sliding_window(
        net.net.astype(np.float32), vol, (16, 16), (16, 8)))


def test_a_case_holds_one_batchs_maps_at_a_time(monkeypatch):
    # 64 one-tile 3D batches: each batch's maps are summed into the
    # average and dropped before the next batch runs
    monkeypatch.setattr(inference, "TILE_BATCH_VOXELS", 12 ** 3)
    sizes = []
    predict = DualDecoderNet.predict
    monkeypatch.setattr(DualDecoderNet, "predict", lambda self, x: (
        sizes.append(x.shape[0]), predict(self, x))[1])
    net = DualDecoderNet(NetworkConfig(rank=3, width=2, depth=2, seed=5))
    vol = rng.standard_normal((24, 24, 24))
    sliding_window_infer(net, vol, (12,) * 3, (4,) * 3)
    tracemalloc.start()
    try:
        sliding_window_infer(net, vol, (12,) * 3, (4,) * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [1] * 128
    # against the case's 64 maps as float64 arrays: 0.577-0.578 of them
    # (volume seeds 0-5), prob and count 0.25 of that, and the bound
    # exceeds it by 21%.  Keeping every batch's maps until the case ends
    # gives 1.59.
    assert peak < 0.7 * 64 * 12 ** 3 * 8


def test_unknown_head_is_a_config_error():
    with pytest.raises(ConfigError, match="head"):
        sliding_window_infer(real_net(), np.zeros((16, 16)), (16, 16),
                             (16, 16), head="seg2")


def _record_layer_names(monkeypatch):
    """Names of the conv layers run from now on, in call order."""
    names = []
    for fn in ("conv_nd", "conv_transpose_nd"):
        def wrapper(x, kernel, *args, _real=getattr(network, fn), **kwargs):
            names.append(kernel.name.removesuffix(".kernel"))
            return _real(x, kernel, *args, **kwargs)
        monkeypatch.setattr(network, fn, wrapper)
    return names


def test_evaluate_runs_no_decoder_2_layer(monkeypatch):
    cfg = TrainConfig()
    net = DualDecoderNet(cfg.network)
    layers = {n.removesuffix(".kernel") for n in net.params
              if n.endswith(".kernel")}
    assert len(layers) == 23
    names = _record_layer_names(monkeypatch)
    record = VolumeRecord("c0", "test", rng.standard_normal((24, 16)),
                          random_blob_mask(rng, (24, 16)))
    evaluate(net, [record], (16, 16), (8, 8))
    assert set(names) == {n for n in layers if not n.startswith("dec2.")}

    # a training step still runs every layer
    names.clear()
    masks = (rng.random((1, 16, 16)) < 0.4) * 1.0
    batch = Batch(images=rng.standard_normal((2, 1, 16, 16)), masks=masks,
                  sdm_targets=np.stack([sdm_target(m) for m in masks]))
    train_step(net, SGD(net.parameters()), batch, 0, cfg)
    assert set(names) == layers


def test_constant_network_invariant_to_stride():
    vol = rng.standard_normal((24, 24))
    net = _ConstantNet(0.37)
    a = sliding_window_infer(net, vol, (8, 8), (8, 8))
    b = sliding_window_infer(net, vol, (8, 8), (4, 4))
    c = sliding_window_infer(net, vol, (8, 8), (3, 3))
    np.testing.assert_allclose(a, 0.37)
    np.testing.assert_allclose(b, 0.37)
    np.testing.assert_allclose(c, 0.37)


def test_window_constraints_validated():
    net = real_net()
    vol = np.zeros((16, 16))
    with pytest.raises(ConfigError):
        sliding_window_infer(net, vol, (8, 8), (9, 9))   # stride > window
    with pytest.raises(ConfigError):
        sliding_window_infer(net, vol, (10, 10), (5, 5))  # not divisible


def test_threshold_tie_resolves_to_background():
    prob = np.array([0.4999, 0.5, 0.5001])
    np.testing.assert_array_equal(threshold_foreground(prob),
                                  [False, False, True])


# -- evaluation --------------------------------------------------------------------


def _records(n, shape=(16, 16)):
    out = []
    for i in range(n):
        mask = random_blob_mask(rng, shape).astype(np.uint8)
        out.append(VolumeRecord(case_id=f"case_{i:04d}", split="test",
                                image=mask.astype(np.float32), mask=mask))
    return out


def test_evaluate_perfect_predictions(tmp_path):
    records = _records(3)
    report = evaluate(_ImageNet(), records, (16, 16), (16, 16),
                      out_dir=tmp_path)
    assert report.n_cases == 3 and report.n_degenerate == 0
    for case in report.cases:
        assert case.dice == 1.0 and case.jaccard == 1.0
        assert case.asd == 0.0 and case.hd95 == 0.0
    assert report.aggregate["dice"] == 1.0 and report.aggregate["asd"] == 0.0


def test_evaluate_report_rows_and_aggregate_mean(tmp_path):
    records = _records(4)
    report = evaluate(_ConstantNet(0.9), records, (16, 16), (16, 16),
                      out_dir=tmp_path)
    assert len(report.cases) == 4
    dices = [c.dice for c in report.cases]
    assert abs(report.aggregate["dice"] - np.mean(dices)) < 1e-15

    with open(tmp_path / "metrics.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["case_id", "dice", "jaccard", "asd", "hd95",
                       "degenerate_flag", "schema"]
    assert len(rows) == 5
    doc = json.loads((tmp_path / "metrics.json").read_text())
    assert set(doc["aggregate"]) == {"dice", "jaccard", "asd", "hd95"}


def test_evaluate_flags_degenerate_surface_cases(tmp_path):
    record = VolumeRecord(case_id="allfg", split="test",
                          image=np.ones((16, 16), np.float32),
                          mask=np.ones((16, 16), np.uint8))
    report = evaluate(_ConstantNet(0.9), [record], (16, 16), (16, 16),
                      out_dir=tmp_path)
    case = report.cases[0]
    assert case.dice == 1.0
    assert case.asd is None and case.hd95 is None and case.degenerate
    assert report.n_degenerate == 1
    with open(tmp_path / "metrics.csv") as f:
        row = list(csv.reader(f))[1]
    assert row[3] == "" and row[4] == "" and row[5] == "1"


def test_evaluate_makes_one_float32_copy_for_all_its_cases(monkeypatch,
                                                          tmp_path):
    # one copy for four multi-tile cases, and the maps and metrics files
    # of a copy per case, byte for byte
    net = real_net(seed=4)
    records = _records(4, shape=(24, 20))
    copies, maps = [], []
    astype, infer = DualDecoderNet.astype, inference.sliding_window_infer

    def counting_astype(self, dtype):
        copy = astype(self, dtype)
        if copy is not self:
            copies.append(copy)
        return copy

    monkeypatch.setattr(DualDecoderNet, "astype", counting_astype)
    monkeypatch.setattr(inference, "sliding_window_infer",
                        lambda *args: maps.append(infer(*args)) or maps[-1])
    report = evaluate(net, records, (16, 16), (8, 8), out_dir=tmp_path / "one")
    assert len(copies) == 1 and len(maps) == len(records)
    assert {p.data.dtype for p in copies[0].parameters()} == {np.dtype("f4")}
    assert 0 < report.aggregate["dice"] < 1 and report.n_degenerate == 0

    # the float64 net handed to each case, which casts it again
    monkeypatch.setattr(inference, "sliding_window_infer",
                        lambda _, *args: infer(net, *args))
    evaluate(net, records, (16, 16), (8, 8), out_dir=tmp_path / "per-case")
    assert len(copies) == 2 + len(records)
    for record, got in zip(records, maps):
        assert_bitwise_equal(got, infer(net, record.image, (16, 16), (8, 8)))
    for name in ("metrics.csv", "metrics.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "per-case" / name).read_bytes()


def test_evaluate_requires_masks():
    record = VolumeRecord(case_id="x", split="test",
                          image=np.zeros((16, 16), np.float32), mask=None)
    with pytest.raises(ConfigError):
        evaluate(_ConstantNet(0.5), [record], (16, 16), (16, 16))
