"""Dual-decoder network contracts: shapes, ranges, determinism, checkpoints."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from geoseg import network
from geoseg.errors import FileFormatError, ShapeError
from geoseg.geometry import sdm_target
from geoseg.losses import LossConfig, total_loss
from geoseg.network import (DualDecoderNet, NetworkConfig, load_checkpoint,
                            net_from_checkpoint, save_checkpoint)
from geoseg.tensor import SGD, Tensor, conv_nd, interp_upsample, no_grad
from geoseg.training import Batch, TrainConfig
from helpers import assert_bitwise_equal, assert_grads_match, fd_gradient

rng = np.random.default_rng(31)


def small_net(rank=2, width=4, depth=2, seed=5):
    return DualDecoderNet(NetworkConfig(rank=rank, width=width, depth=depth,
                                        seed=seed))


def test_output_shapes_2d():
    net = DualDecoderNet(NetworkConfig(rank=2, width=8, depth=3, seed=0))
    out = net.forward(Tensor(rng.standard_normal((1, 1, 64, 64))))
    for t in (out.seg1, out.seg2, out.sdm1, out.sdm2):
        assert t.shape == (1, 1, 64, 64)
    assert out.logits1.shape == (1, 2, 64, 64)


def test_output_shapes_3d():
    net = small_net(rank=3, width=2, depth=2, seed=1)
    out = net.forward(Tensor(rng.standard_normal((1, 1, 32, 32, 16))))
    assert out.seg1.shape == (1, 1, 32, 32, 16)


def test_batch_dimension_preserved():
    net = small_net()
    out = net.forward(Tensor(rng.standard_normal((4, 1, 16, 16))))
    assert out.seg1.shape[0] == 4


def test_output_ranges_and_finiteness():
    net = small_net(seed=3)
    out = net.forward(Tensor(rng.standard_normal((2, 1, 16, 16)) * 5.0))
    for t in (out.seg1, out.seg2):
        assert np.isfinite(t.data).all()
        assert (t.data >= 0.0).all() and (t.data <= 1.0).all()
    for t in (out.sdm1, out.sdm2):
        assert np.isfinite(t.data).all()
        assert (t.data > -1.0).all() and (t.data < 1.0).all()


def test_decoder_outputs_differ_at_init():
    net = small_net(seed=9)
    out = net.forward(Tensor(rng.standard_normal((2, 1, 16, 16))))
    assert np.abs(out.seg1.data - out.seg2.data).mean() > 0.0


def test_build_determinism_and_seed_sensitivity():
    a = small_net(seed=7)
    b = small_net(seed=7)
    c = small_net(seed=8)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert any(not np.array_equal(a.params[n].data, c.params[n].data)
               for n in a.params)


def test_forward_determinism_bitwise():
    x = rng.standard_normal((2, 1, 16, 16))
    out1 = small_net(seed=2).forward(Tensor(x))
    out2 = small_net(seed=2).forward(Tensor(x))
    np.testing.assert_array_equal(out1.seg1.data, out2.seg1.data)
    np.testing.assert_array_equal(out1.sdm2.data, out2.sdm2.data)


def test_divisibility_error_names_required_multiple():
    net = small_net(depth=2)
    with pytest.raises(ShapeError, match="divisible by 4"):
        net.forward(Tensor(rng.standard_normal((1, 1, 10, 12))))


def test_predict_returns_decoder_one():
    net = small_net(seed=4)
    x = Tensor(rng.standard_normal((1, 1, 16, 16)))
    out = net.forward(x)
    pred = net.predict(x)
    assert_bitwise_equal(pred["seg"].data, out.seg1.data)
    assert_bitwise_equal(pred["sdm"].data, out.sdm1.data)
    assert not np.array_equal(pred["seg"].data, out.seg2.data)


def test_gradient_step_touches_every_branch():
    net = small_net(seed=6)
    opt = SGD(net.parameters())
    spatial = (16, 16)
    masks = (rng.random((2,) + spatial) < 0.4).astype(np.float64)
    targets = np.stack([sdm_target(m) for m in masks])
    batch = Batch(images=rng.standard_normal((4, 1) + spatial),
                  masks=masks, sdm_targets=targets)
    before = {name: p.data.copy() for name, p in net.params.items()}
    out = net.forward(Tensor(batch.images))
    bd = total_loss(out, batch, 50, 100, LossConfig(k=9.0))
    opt.zero_grad()
    bd.total.backward()
    opt.step(0.05)
    for prefix in ("enc.", "dec1.", "dec2."):
        changed = any(not np.array_equal(before[n], p.data)
                      for n, p in net.params.items() if n.startswith(prefix))
        assert changed, f"no parameter under {prefix} moved"


def test_whole_network_gradients_match_finite_differences():
    net = DualDecoderNet(NetworkConfig(width=2, depth=1, seed=21))
    x = Tensor(rng.standard_normal((2, 1, 8, 8)))
    weights = [rng.standard_normal((2, 1, 8, 8)) for _ in range(4)]

    def loss():
        out = net.forward(x)
        return sum(((head * Tensor(w)).sum() for head, w in
                    zip((out.seg1, out.seg2, out.sdm1, out.sdm2), weights)),
                   Tensor(0.0))

    loss().backward()
    for name in ("enc.stem.kernel", "enc.block1.bias", "dec1.up1.kernel",
                 "dec1.merge1.bias", "dec2.up1.kernel", "dec2.merge1.kernel",
                 "dec1.seg_head.bias", "dec2.sdm_head.kernel"):
        p = net.params[name]
        assert_grads_match(p.grad, fd_gradient(lambda: loss().item(), p.data))


@pytest.mark.parametrize("rank", [2, 3])
def test_dec2_up_layer_equals_upsample_then_conv(rank, monkeypatch):
    # decoder 2's width-1 conv runs on the coarse grid, before the linear
    # x2 upsampling; since both are linear and each upsampled output's
    # weights sum to one (so the bias passes through), the layer equals
    # the conv on the upsampled grid up to rounding, in its value and in
    # its input, kernel and bias gradients
    net = small_net(rank=rank, width=4, depth=2, seed=8)
    k, b = net.params["dec2.up1.kernel"], net.params["dec2.up1.bias"]
    x = rng.standard_normal((2, 8) + (4,) * rank)
    g = rng.standard_normal((2, 4) + (8,) * rank)

    def run(layer):
        xt = Tensor(x, requires_grad=True)
        k.grad, b.grad = np.zeros_like(k.data), np.zeros_like(b.data)
        out = layer(xt)
        (out * Tensor(g)).sum().backward()
        return out.data, xt.grad, k.grad, b.grad

    conv_inputs = []

    def recording_conv(t, *args, **kwargs):
        conv_inputs.append(t.shape)
        return conv_nd(t, *args, **kwargs)

    monkeypatch.setattr(network, "conv_nd", recording_conv)
    got = run(lambda t: net._up(t, "dec2", 1))
    assert conv_inputs == [x.shape]
    want = run(lambda t: conv_nd(interp_upsample(t), k, b))
    for value, ref in zip(got, want, strict=True):
        assert value.shape == ref.shape
        assert np.abs(value - ref).max() <= 1e-12 * np.abs(ref).max()


def _backward_nodes(root):
    # operation nodes a backward pass from root visits
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(p for p in node._parents if p.requires_grad)
    return count


def test_default_train_step_records_125_graph_nodes():
    # one fused instance-norm+ReLU node per conv block (19 of them); two
    # nodes per block would make 144
    cfg = TrainConfig()
    net = DualDecoderNet(cfg.network)
    n = cfg.labeled_per_batch + cfg.unlabeled_per_batch
    masks = (rng.random((cfg.labeled_per_batch,) + cfg.crop) < 0.4) * 1.0
    batch = Batch(images=rng.standard_normal((n, 1) + cfg.crop), masks=masks,
                  sdm_targets=np.stack([sdm_target(m) for m in masks]))
    out = net.forward(Tensor(batch.images))
    total = total_loss(out, batch, 0, cfg.t_max, cfg.loss).total
    assert _backward_nodes(total) == 125


# -- checkpoint container ------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    net = small_net(seed=12)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, extra_tensors={"extra/rngish": np.arange(4)},
                    meta={"step": 3})
    config, tensors, meta = load_checkpoint(path)
    assert config == net.config
    assert meta["step"] == 3
    np.testing.assert_array_equal(tensors["extra/rngish"], np.arange(4))
    restored, _, _ = net_from_checkpoint(path)
    for name in net.params:
        np.testing.assert_array_equal(restored.params[name].data,
                                      net.params[name].data)


def test_checkpoint_bytes_keep_the_version_1_layout(tmp_path):
    # the version-1 container layout stands: the header keys come in the
    # same order and the payload bytes are what earlier versions wrote; the
    # digest also pins the header's network config, which no longer has
    # in_channels or normalization, so checkpoints that do fail to load
    net = DualDecoderNet(NetworkConfig(width=2, depth=1))
    path = tmp_path / "n.ckpt"
    save_checkpoint(path, net, meta={"step": 3},
                    extra_tensors={"extra/u8": np.arange(3, dtype=np.uint8)})
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    assert hashlib.sha256(blob[:8 + hlen]).hexdigest() == \
        "ab3232578403ab7b36adb23f144dfe41c37ba34a3d8632ca2229af9a2b8d6814"
    assert list(json.loads(blob[8:8 + hlen])) == \
        ["format", "version", "network", "meta", "tensors"]
    tensors = [p.data.astype("<f8") for p in net.params.values()]
    assert blob[8 + hlen:] == b"".join(t.tobytes() for t in tensors) + \
        bytes([0, 1, 2])


def test_checkpoint_restored_net_same_forward(tmp_path):
    net = small_net(seed=13)
    x = rng.standard_normal((1, 1, 16, 16))
    want = net.forward(Tensor(x)).seg1.data
    save_checkpoint(tmp_path / "n.ckpt", net)
    restored, _, _ = net_from_checkpoint(tmp_path / "n.ckpt")
    np.testing.assert_array_equal(restored.forward(Tensor(x)).seg1.data, want)


def test_checkpoint_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    blob = b'{"format": "something-else", "tensors": {}}'
    path.write_bytes(len(blob).to_bytes(8, "little") + blob)
    with pytest.raises(FileFormatError, match="format"):
        load_checkpoint(path)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    net = small_net(seed=14)
    path = tmp_path / "trunc.ckpt"
    save_checkpoint(path, net)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FileFormatError, match="size"):
        load_checkpoint(path)


def test_checkpoint_header_longer_than_file_rejected(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes((1 << 20).to_bytes(8, "little") + b"xx")
    with pytest.raises(FileFormatError):
        load_checkpoint(path)


def test_predict_frees_each_skip_once_merged():
    # one 3x64x64 predict at the default config peaked at 6.34 MiB while
    # every skip lived until decoder 1 returned
    net = DualDecoderNet(NetworkConfig())
    x = Tensor(rng.standard_normal((3, 1, 64, 64)))
    with no_grad():
        tracemalloc.start()
        try:
            net.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= (6.34 - 1.0) * 2**20
