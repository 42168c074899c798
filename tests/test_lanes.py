"""The two lanes: decoder 2 runs on the worker thread in forward and in
backward, with gradients bit-identical to one thread's walk, and a failure
in either lane ends both and reaches the caller."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import geoseg
from geoseg import network, tensor
from geoseg.cli import main
from geoseg.errors import TrainingAbort
from geoseg.geometry import sdm_target
from geoseg.losses import CONSISTENCY_MODES, LossConfig, total_loss
from geoseg.network import DualDecoderNet, NetworkConfig
from geoseg.tensor import SGD, Parameter, Tensor, fork
from geoseg.training import Batch, TrainConfig, train_step
from helpers import assert_bitwise_equal, serial_backward

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
        return total_loss(out, batch, 60, 100, config).total

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


def test_random_two_lane_graphs_match_the_serial_walk_under_frequent_switches():
    # three callers share the one worker; a thread switch every microsecond
    # interleaves the two lanes' deliveries as finely as it can
    failures = []

    def check(seeds):
        for seed in seeds:
            nodes, root = _random_two_lane_graph(seed)
            want = serial_backward(root)
            root.backward()
            if any(t.grad.tobytes() != want[id(t)].tobytes() for t in nodes):
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
        total_loss(out, batch, 60, 100, LossConfig()).total.backward()
        assert all(p.grad is buffers[name] for name, p in net.params.items())
        assert all(p.grad.any() for p in net.parameters())


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
