"""The two lanes: decoder 2 runs on the worker thread in forward and in
backward, with gradients bit-identical to one thread's walk, and a failure
in either lane ends both and reaches the caller.  The backward releases each
node as it goes, so a training step keeps no node once it returns, and a
padded copy adopts the array it copies, so a step holds each once."""

import gc
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import geoseg
from geoseg import inference, kernels, network, tensor, training
from geoseg.cli import main
from geoseg.errors import GeoSegError, TrainingAbort
from geoseg.geometry import sdm_target
from geoseg.inference import sliding_window_infer
from geoseg.losses import CONSISTENCY_MODES, LossConfig, total_loss
from geoseg.network import DualDecoderNet, NetworkConfig
from geoseg.tensor import SGD, Parameter, Tensor, fork
from geoseg.training import Batch, TrainConfig, train_step
from helpers import (assert_bitwise_equal, per_tile_sliding_window,
                     serial_backward)

rng = np.random.default_rng(53)

# a hang fails the test after this many seconds instead of blocking it
TIMEOUT_S = 60


def make_batch(rank, extent, n_labeled=2, n_unlabeled=2):
    spatial = (extent,) * rank
    masks = (rng.random((n_labeled,) + spatial) < 0.4).astype(np.float64)
    return Batch(images=rng.standard_normal((n_labeled + n_unlabeled, 1)
                                            + spatial),
                 masks=masks,
                 sdm_targets=np.stack([sdm_target(m) for m in masks]))


@pytest.mark.parametrize("rank,extent", [(2, 16), (3, 8)], ids=["2d", "3d"])
@pytest.mark.parametrize("mode", CONSISTENCY_MODES)
def test_backward_equals_the_serial_walk_bitwise(rank, extent, mode):
    net = DualDecoderNet(NetworkConfig(rank=rank, width=4, depth=2, seed=3))
    batch = make_batch(rank, extent)
    # with no consistency term only the labeled items are forwarded, as in
    # training
    images = batch.images[:batch.n_labeled] if mode == "none" else batch.images
    config = LossConfig(consistency=mode, k=20.0)

    def loss():
        out = net.forward(Tensor(images))
        assert (out.seg1._lane, out.seg2._lane) == (0, 1)
        return total_loss(out, batch, 60, 100, config)[0]

    want = serial_backward(loss())
    opt = SGD(net.parameters())
    runs = []
    for _ in range(2):
        opt.zero_grad()
        loss().backward()
        runs.append({name: p.grad.copy() for name, p in net.params.items()})
    for name, p in net.params.items():
        assert_bitwise_equal(runs[0][name], want[id(p)])
        assert_bitwise_equal(runs[1][name], runs[0][name])


def _slow(t, c):
    # t * c, whose backward first sleeps, so its lane delivers late
    def backward(g):
        time.sleep(0.05)
        return (g * c,)
    return Tensor._make(t.data * c, (t,), backward)


@pytest.mark.parametrize("slow_lane", [0, 1])
def test_gradient_sums_follow_the_serial_order_whichever_lane_delivers_first(
        slow_lane):
    # x receives 1e16 and -1e16 from lane 0 and 1 from lane 1; 1e16 + 1
    # rounds to 1e16, so the sum depends on the order of the adds.  The
    # serial walk adds the terms' gradients in the order of the terms, and
    # the slow lane delivers its terms last, out of that order.
    x = Parameter([1.0])

    def term(c, lane):
        return _slow(x, c) if lane == slow_lane else x * c

    (a, c), b = fork(lambda: (term(1e16, 0), term(-1e16, 0)),
                     lambda: term(1.0, 1))
    assert (a._lane, b._lane, c._lane) == (0, 1, 0)
    terms = (a, b, c) if slow_lane == 1 else (a, c, b)
    root = (terms[0] + terms[1] + terms[2]).sum()
    want = serial_backward(root)[id(x)]
    serial = (1e16 + 1.0) - 1e16 if slow_lane == 1 else (1e16 - 1e16) + 1.0
    arrival = (1e16 - 1e16) + 1.0 if slow_lane == 1 else (1.0 + 1e16) - 1e16
    assert want.tolist() == [serial] and serial != arrival
    root.backward()
    assert_bitwise_equal(x.grad, want)


def _random_two_lane_graph(seed):
    """Nodes, the first a parameter, and a scalar root over them.  In each
    of four rounds both lanes add nodes that combine random earlier nodes
    of either lane with scales from 1e-6 to 1e6, so most nodes get
    gradients from both lanes and their sums depend on the order of the
    adds."""
    rng = np.random.default_rng(seed)
    x = Parameter(rng.standard_normal(16))
    pool = [x]

    def build(seed):
        lane_rng = np.random.default_rng(seed)
        made = []
        for _ in range(3):
            p, q = (pool[i] for i in lane_rng.integers(len(pool), size=2))
            c1, c2 = (lane_rng.choice([-1.0, 1.0], 2)
                      * 10.0 ** lane_rng.uniform(-6, 6, 2))
            made.append(p * c1 + q * c2)
        return made

    for _ in range(4):
        seeds = rng.integers(1 << 30, size=2)
        made0, made1 = fork(lambda: build(seeds[0]), lambda: build(seeds[1]))
        pool += made0 + made1
    return pool, sum((t.sum() for t in pool[1:]), Tensor(0.0))


def _is_released(t):
    return t._backward is tensor._released and t._parents == ()


def test_random_two_lane_graphs_match_the_serial_walk_under_frequent_switches():
    # three callers share the one worker; a thread switch every microsecond
    # interleaves the two lanes' deliveries as finely as it can.  The walk
    # releases every operation node it runs, and the nodes held here keep
    # their gradients.
    failures = []

    def check(seeds):
        for seed in seeds:
            nodes, root = _random_two_lane_graph(seed)
            want = serial_backward(root)
            root.backward()
            if any(t.grad.tobytes() != want[id(t)].tobytes() for t in nodes) \
                    or not all(map(_is_released, nodes[1:] + [root])):
                failures.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(range(k, 30, 3),),
                                    daemon=True) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads), "a lane hung"
    finally:
        sys.setswitchinterval(interval)
    assert failures == []


def test_parameter_gradients_accumulate_in_their_own_buffer():
    net = DualDecoderNet(NetworkConfig(width=4, depth=2, seed=4))
    opt = SGD(net.parameters())
    buffers = {name: p.grad for name, p in net.params.items()}
    batch = make_batch(2, 16)
    for _ in range(2):
        opt.zero_grad()
        assert all(not p.grad.any() for p in net.parameters())
        out = net.forward(Tensor(batch.images))
        root, _ = total_loss(out, batch, 60, 100, LossConfig())
        root.backward()
        assert all(p.grad is buffers[name] for name, p in net.params.items())
        assert all(p.grad.any() for p in net.parameters())


# -- release ----------------------------------------------------------------------


def test_a_step_keeps_no_node_once_it_returns(monkeypatch):
    # an encoder skip, a decoder 2 merge output (lane 1) and the loss root
    # die with the step, freed by reference counting alone
    net = DualDecoderNet(NetworkConfig(width=4, depth=2, seed=5))
    refs = {}
    encode, conv_nd, loss = net.encode, network.conv_nd, training.total_loss

    def kept_encode(x):
        h, skips = encode(x)
        refs["skip"] = weakref.ref(skips[0])
        return h, skips

    def kept_conv_nd(x, kernel, *args, **kwargs):
        out = conv_nd(x, kernel, *args, **kwargs)
        if kernel.name == "dec2.merge1.kernel":
            assert out._lane == 1
            refs["merge"] = weakref.ref(out)
        return out

    def kept_loss(*args):
        root, terms = loss(*args)
        refs["root"] = weakref.ref(root)
        return root, terms

    monkeypatch.setattr(net, "encode", kept_encode)
    monkeypatch.setattr(network, "conv_nd", kept_conv_nd)
    monkeypatch.setattr(training, "total_loss", kept_loss)
    gc.disable()
    try:
        terms = train_step(net, SGD(net.parameters()), make_batch(2, 16),
                           0, TrainConfig(crop=(16, 16)))
        assert sorted(refs) == ["merge", "root", "skip"]
        assert [name for name, ref in refs.items() if ref() is not None] == []
    finally:
        gc.enable()
    assert all(type(v) is float for v in terms.values())


def _step_memory(cfg, extent):
    """(held, peak) bytes of live arrays over a default 2+2 step of
    ``cfg``, after one warm-up step."""
    net = DualDecoderNet(cfg.network)
    opt, batch = SGD(net.parameters()), make_batch(cfg.network.rank, extent)
    train_step(net, opt, batch, 0, cfg)
    tracemalloc.start()
    try:
        terms = train_step(net, opt, batch, 1, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(type(v) is float for v in terms.values())
    return held, peak


def test_a_default_step_frees_its_graph_as_its_backward_runs():
    # a default 2+2, 64x64 step, after one warm-up step: with its whole graph
    # alive until the walk ended and the next step began, it peaked at
    # 77.1 MiB of arrays and held 75.8 MiB after it returned; released node
    # by node it peaked at 45.3-45.5 MiB, at 36.8-37.1 MiB once the norm
    # nodes saved no normalized copy, and at 32.5-32.8 MiB once padded
    # copies adopted their sources; the bound leaves about 10%
    held, peak = _step_memory(TrainConfig(), 64)
    assert held < 2**20
    assert peak <= 36 * 2**20


def test_a_default_3d_step_holds_each_activation_once():
    # a 2+2, 16^3 wgc step at the default width and depth peaked at
    # 33.6 MiB of arrays while each block input and up-path norm output
    # lived next to its padded copy, and at 30.7 MiB once the copies
    # adopted them; the bound leaves about 7%
    cfg = TrainConfig(crop=(16,) * 3, network=NetworkConfig(rank=3))
    held, peak = _step_memory(cfg, 16)
    assert held < 2**20
    assert peak <= 33 * 2**20


def _traced(monkeypatch, net, run):
    """``run()``, a pass of ``net``, with every conv layer's operands
    recorded as {layer: [(operand, its data at the call), ...]} (a merge
    conv's are its concat's operands) and the array that each ``conv_nd``
    kernel read as {layer: array}."""
    operands, reads, concats = {}, {}, {}
    layer = {id(p.data): name.removesuffix(".kernel")
             for name, p in net.params.items()}
    conv_nd, concat_padded = network.conv_nd, network.concat_padded
    conv_fwd = kernels.conv_fwd

    def traced_conv_nd(t, kernel, *args, **kwargs):
        operands[kernel.name.removesuffix(".kernel")] = concats.pop(
            id(t), [(t, t.data)])
        return conv_nd(t, kernel, *args, **kwargs)

    def traced_concat_padded(tensors):
        datas = [(t, t.data) for t in tensors]
        out = concat_padded(tensors)
        concats[id(out)] = datas
        return out

    def traced_conv_fwd(xp, kd, stride):
        reads[layer[id(kd)]] = xp
        return conv_fwd(xp, kd, stride)

    with monkeypatch.context() as m:
        m.setattr(network, "conv_nd", traced_conv_nd)
        m.setattr(network, "concat_padded", traced_concat_padded)
        m.setattr(kernels, "conv_fwd", traced_conv_fwd)
        return run(), operands, reads


@pytest.mark.parametrize("rank,extent", [(2, 64), (3, 16)], ids=["2d", "3d"])
def test_a_padded_copy_adopts_the_block_input_or_up_path_output_it_copies(
        monkeypatch, rank, extent):
    # a default forward: each block conv's padded input and each merge's
    # concat hold the one copy of the array they were built from
    net = DualDecoderNet(NetworkConfig(rank=rank))
    x = Tensor(rng.standard_normal((4, 1) + (extent,) * rank))
    _, operands, reads = _traced(monkeypatch, net, lambda: net.forward(x))
    levels = range(1, net.config.depth + 1)
    adopters = [f"enc.block{level}" for level in levels] + [
        f"{dec}.merge{level}" for dec in ("dec1", "dec2") for level in levels]
    for name in adopters:
        source, before = operands[name][0]
        assert np.shares_memory(source.data, reads[name]), name
        assert source.data.shape == before.shape, name
    # no other operand is rebound
    assert {(name, i) for name, ops in operands.items()
            for i, (t, before) in enumerate(ops) if t.data is not before} \
        == {(name, 0) for name in adopters}


def test_leaves_skips_and_no_grad_tensors_keep_their_arrays(monkeypatch):
    net = DualDecoderNet(NetworkConfig())
    params = {name: p.data for name, p in net.params.items()}
    x = Tensor(rng.standard_normal((4, 1, 64, 64)))
    image = x.data
    _, operands, _ = _traced(monkeypatch, net, lambda: net.forward(x))
    [(stem_input, before)] = operands["enc.stem"]
    assert stem_input is x and before is image and x.data is image
    for dec in ("dec1", "dec2"):
        for level in range(1, net.config.depth + 1):
            skip, before = operands[f"{dec}.merge{level}"][1]
            assert skip.data is before, (dec, level)
    with tensor.no_grad():
        _, operands, _ = _traced(monkeypatch, net, lambda: net.predict(x))
    # the stem, 3 downs, 3 blocks, decoder 1's 3 merges and 2 heads
    assert len(operands) == 12
    assert [name for name, ops in operands.items()
            for t, before in ops if t.data is not before] == []
    assert all(p.data is params[name] for name, p in net.params.items())


def test_a_node_is_adopted_only_by_its_own_lane_while_recording():
    kernel = Parameter(rng.standard_normal((2, 2, 3, 3)))
    h = Tensor(rng.standard_normal((1, 2, 8, 8)), requires_grad=True) * 1.0
    before = h.data
    fork(lambda: None, lambda: tensor.conv_nd(h, kernel, padding=1))
    with tensor.no_grad():
        tensor.conv_nd(h, kernel, padding=1)
        tensor.concat_padded([h, h])
    assert h.data is before
    tensor.conv_nd(h, kernel, padding=1)
    assert h.data is not before and np.array_equal(h.data, before)


def test_a_backward_that_reaches_a_released_node_changes_no_gradient():
    net = DualDecoderNet(NetworkConfig(width=4, depth=2, seed=3))
    batch = make_batch(2, 16)
    out = net.forward(Tensor(batch.images))
    root, _ = total_loss(out, batch, 60, 100, LossConfig(k=20.0))
    root.backward()
    want = {name: p.grad.copy() for name, p in net.params.items()}
    bias = net.params["dec2.seg_head.bias"]
    # the same root again, and a new root over a released lane-1 output
    # and a parameter that a partial walk would add to
    for again in (root, out.sdm2.sum() + bias.sum()):
        with pytest.raises(GeoSegError, match="released"):
            again.backward()
        for name, p in net.params.items():
            assert_bitwise_equal(p.grad, want[name])
    assert root.grad.tolist() == 1.0


# -- failures -------------------------------------------------------------------


class Boom(Exception):
    pass


def run_bounded(fn):
    """The exception ``fn()`` raises on a thread of its own, or None; fails
    if it has not returned after TIMEOUT_S."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as e:  # the test inspects it
            raised.append(e)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT_S)
    assert not thread.is_alive(), "a lane hung"
    return raised[0] if raised else None


def _forward_raises(error):
    def wrap(fn):
        def wrapper(*args, **kwargs):
            raise error
        return wrapper
    return wrap


def _backward_raises(error):
    def wrap(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)

            def backward(g):
                raise error
            out._backward = backward
            return out
        return wrapper
    return wrap


# decoder 2 alone calls interp_upsample and decoder 1 alone
# conv_transpose_nd, so each fails in one lane
LANE_LAYERS = {1: "interp_upsample", 0: "conv_transpose_nd"}


def _train_one_step(net, opt, batch):
    train_step(net, opt, batch, 0, TrainConfig(crop=(16, 16)))


@pytest.mark.parametrize("phase", [_forward_raises, _backward_raises],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("lane", [0, 1])
@pytest.mark.parametrize("error_type", [Boom, KeyboardInterrupt],
                         ids=["error", "interrupt"])
def test_a_failing_lane_ends_both_and_reaches_the_caller(
        monkeypatch, phase, lane, error_type):
    error = error_type(f"lane {lane} failed")
    net = DualDecoderNet(NetworkConfig(width=4, depth=2, seed=5))
    opt = SGD(net.parameters())
    batch = make_batch(2, 16)
    original = getattr(network, LANE_LAYERS[lane])
    monkeypatch.setattr(network, LANE_LAYERS[lane], phase(error)(original))
    assert run_bounded(lambda: _train_one_step(net, opt, batch)) is error
    # the worker is free again: the next step runs both lanes to the end
    monkeypatch.setattr(network, LANE_LAYERS[lane], original)
    assert run_bounded(lambda: _train_one_step(net, opt, batch)) is None


def test_check_finite_aborts_from_the_worker(monkeypatch):
    # GEOSEG_CHECK_FINITE=1 sets the flag when the module is imported
    monkeypatch.setattr(tensor, "_CHECK_FINITE", True)
    net = DualDecoderNet(NetworkConfig(width=4, depth=2, seed=5))
    net.params["dec2.up1.kernel"].data[:] = np.nan
    error = run_bounded(lambda: _train_one_step(net, SGD(net.parameters()),
                                                make_batch(2, 16)))
    assert isinstance(error, TrainingAbort)


def _python(code, tmp_path, **env):
    """Run ``code`` in a fresh interpreter that imports this geoseg; fails
    if the process has not exited after TIMEOUT_S, as it would if a blocked
    worker stalled interpreter exit."""
    env = {**os.environ, **env,
           "PYTHONPATH": str(Path(geoseg.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=TIMEOUT_S)


def test_cli_reports_a_lane_1_abort_in_one_line_and_exits(tmp_path):
    assert main(["build-data", "--labeled", "2", "--unlabeled", "2", "--test",
                 "1", "--shape", "16x16", "--seed", "3", "--out",
                 str(tmp_path / "data")]) == 0
    code = ("import sys\n"
            "import numpy as np\n"
            "from geoseg import cli, network\n"
            "upsample = network.interp_upsample\n"
            "network.interp_upsample = lambda x: upsample(x) * np.nan\n"
            "sys.exit(cli.main(['train', '--manifest', 'data', '--out', 'run',"
            " '--t-max', '2', '--width', '2', '--depth', '2', '--crop',"
            " '16x16']))\n")
    done = _python(code, tmp_path, GEOSEG_CHECK_FINITE="1")
    assert done.returncode != 0
    lines = done.stderr.splitlines()
    assert lines == ["error category=training message=non-finite values "
                     "produced by a forward operation"]


def test_an_interrupt_while_the_main_thread_waits_ends_the_step(tmp_path):
    # lane 1's first backward blocks until the main thread has been
    # interrupted (SIGINT) while it waits for lane 1's gradients
    code = """
import os, signal, threading, time
import numpy as np
from geoseg import network
from geoseg.geometry import sdm_target
from geoseg.network import DualDecoderNet, NetworkConfig
from geoseg.tensor import SGD
from geoseg.training import Batch, TrainConfig, train_step

entered, release = threading.Event(), threading.Event()
upsample = network.interp_upsample

def blocking_upsample(x):
    out = upsample(x)
    backward = out._backward
    def blocked(g):
        entered.set()
        release.wait(30)
        return backward(g)
    out._backward = blocked
    return out

def interrupt():
    entered.wait(30)
    time.sleep(0.3)
    os.kill(os.getpid(), signal.SIGINT)
    time.sleep(0.3)
    release.set()

network.interp_upsample = blocking_upsample
rng = np.random.default_rng(0)
masks = (rng.random((2, 16, 16)) < 0.4) * 1.0
batch = Batch(images=rng.standard_normal((4, 1, 16, 16)), masks=masks,
              sdm_targets=np.stack([sdm_target(m) for m in masks]))
net = DualDecoderNet(NetworkConfig(width=4, depth=2))
threading.Thread(target=interrupt, daemon=True).start()
try:
    train_step(net, SGD(net.parameters()), batch, 0, TrainConfig(crop=(16, 16)))
except KeyboardInterrupt:
    print("interrupted")
"""
    done = _python(code, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, "interrupted\n", "")


def test_an_interrupt_while_fork_joins_waits_for_the_side_function(tmp_path):
    # SIGINT reaches the main thread while fork waits for the side
    # function's result
    code = """
import os, signal, threading, time
from geoseg.tensor import fork

ended = []

def side():
    time.sleep(1.0)
    ended.append(True)

threading.Timer(0.3, os.kill, (os.getpid(), signal.SIGINT)).start()
try:
    fork(lambda: None, side)
except KeyboardInterrupt:
    print("interrupted", ended)
"""
    done = _python(code, tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "interrupted [True]\n", "")


# -- sliding-window inference ---------------------------------------------------


def test_cli_eval_reports_a_non_finite_forward_in_one_line(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # 25 windows of 32x32 on a 64x64 case make two batches, both on this
    # thread, whose first transposed conv turns non-finite here and only
    # here
    assert main(["build-data", "--labeled", "2", "--unlabeled", "2", "--test",
                 "1", "--shape", "64x64", "--seed", "3", "--out",
                 str(tmp_path / "data")]) == 0
    checkpoint = tmp_path / "net.ckpt"
    network.save_checkpoint(checkpoint, DualDecoderNet(
        NetworkConfig(width=2, depth=2)))
    caller = threading.get_ident()
    upsample = network.conv_transpose_nd

    def nan_on_the_caller(*args, **kwargs):
        out = upsample(*args, **kwargs)
        return out * np.nan if threading.get_ident() == caller else out

    monkeypatch.setattr(network, "conv_transpose_nd", nan_on_the_caller)
    monkeypatch.setattr(tensor, "_CHECK_FINITE", True)
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(checkpoint), "--manifest",
                 str(tmp_path / "data" / "manifest.json"), "--window",
                 "32x32", "--stride", "8x8", "--out", str(tmp_path / "ev")])
    assert code != 0
    assert capsys.readouterr().err.splitlines() == [
        "error category=training message=non-finite values produced by a "
        "forward operation"]


def test_one_tile_batches_match_per_tile_inference_under_frequent_switches(
        monkeypatch):
    # 64 one-tile batches summed into one average while the interpreter
    # switches threads every microsecond
    monkeypatch.setattr(inference, "TILE_BATCH_VOXELS", 16 * 16)
    net = DualDecoderNet(NetworkConfig(width=2, depth=2, seed=5))
    vol = rng.standard_normal((72, 72)).astype(np.float32)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert run_bounded(lambda: got.append(sliding_window_infer(
            net, vol, (16, 16), (8, 8)))) is None
    finally:
        sys.setswitchinterval(interval)
    assert_bitwise_equal(got[0], per_tile_sliding_window(
        net.astype(np.float32), vol, (16, 16), (8, 8)))
