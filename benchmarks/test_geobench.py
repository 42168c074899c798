"""Tests of the benchmark itself: its helpers, its probes and a smoke run
of every workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geoseg import cli, inference, kernels, network, tensor, training
from geoseg.data import build_dataset, load_split
from geoseg.network import DualDecoderNet, NetworkConfig
from geoseg.training import TrainConfig

from geobench import checks, report, workloads
from geobench.probes import OpTimer, Patches, Tracer, install_op_timers, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PATCHED = (cli, inference, kernels, network, tensor, training, tensor.Tensor,
           tensor.SGD, network.DualDecoderNet)


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(20, 0, -1)), 50) == 10
    assert percentile(list(range(19)), 50) is None


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(report.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(report.PER_LAYER)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["unit"] == report.unit(m["name"]), m["name"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _snapshot():
    return {(owner, name): value for owner in PATCHED
            for name, value in vars(owner).items()}


def test_traced_run_removes_every_wrapper(tmp_path):
    before = _snapshot()
    run = workloads.run_workload("train2d", 5, 0, True, True, tmp_path)
    assert not run.problems
    assert run.tracer.totals["step"]["kernels.conv_bwd_kernel.calls"] > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key[1] for key in before if after[key] is not before[key]] == []


def _tiny_run(split, out_dir, probe):
    cfg = TrainConfig(t_max=3, crop=(16, 16), labeled_per_batch=1,
                      unlabeled_per_batch=1, seed=2,
                      network=NetworkConfig(width=2, depth=2, seed=2))
    with Patches() as patches:
        if probe:
            tracer = Tracer()
            install_op_timers(patches, OpTimer(), OpTimer(), tracer)
            tracer.install(patches)
        training.train_loop(split, cfg, out_dir=out_dir)
    return (out_dir / "loss.csv").read_bytes()


def test_probes_keep_loss_rows_bit_identical(tmp_path):
    split = load_split(build_dataset(tmp_path / "data", 2, 2, 1, (16, 16), 4))
    plain = _tiny_run(split, tmp_path / "plain", probe=False)
    probed = _tiny_run(split, tmp_path / "probed", probe=True)
    assert plain.count(b"\n") == 4
    assert probed == plain


@pytest.mark.parametrize("kernel", ["conv_fwd", "conv_bwd_input",
                                    "conv_bwd_kernel"])
def test_conv_check_catches_a_wrong_kernel(monkeypatch, kernel):
    net = DualDecoderNet(NetworkConfig(width=2, depth=2, seed=1))
    images = np.random.default_rng(0).standard_normal((2, 1, 16, 16))
    assert checks.check_conv_layers(net, images) == []
    original = getattr(kernels, kernel)
    monkeypatch.setattr(kernels, kernel,
                        lambda *args: original(*args) * (1 + 1e-8))
    assert checks.check_conv_layers(net, images) == [
        n.removesuffix(".kernel") for n in net.params if n.endswith(".kernel")]


@pytest.mark.parametrize("name,trace", [("train2d", 0), ("eval2d", 1),
                                        ("ablate3d", 1)])
def test_smoke_run_of_each_workload(name, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert "metric error_rate 0.0 ratio" in proc.stdout


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "train2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
