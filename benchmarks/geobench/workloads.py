"""The three workloads and the closed loop that times them.

Each workload has a set-up (dataset build, ``load_split``, net init and,
for eval2d, a short training run) and one user-level call that the loop
repeats until the run's seconds are spent: a training run plus its eval
(train2d), one ``evaluate`` over the test split (eval2d), or one
``geoseg ablate`` command (ablate3d).  Every call is started only when the
previous one has returned.  Each workload's inputs come from its seed
alone, and a call repeated with the same seed must reproduce its outputs
exactly, which the checks verify.
"""

import json
import shutil
import statistics
import traceback
from dataclasses import replace

import numpy as np

from geoseg import cli, data, inference, training
from geoseg.network import DualDecoderNet, NetworkConfig, net_from_checkpoint
from geoseg.training import TrainConfig

from . import checks
from .probes import (OpTimer, Patches, Tracer, clock, install_op_timers,
                     peak_rss_mb, reset_peak_rss)

SETUP_REPEATS = 9


class Train2D:
    """The default training config (2 labeled + 2 unlabeled, 64x64 crop,
    width 8, depth 3, wgc) writing loss.csv and checkpoints, then a
    full-window eval of the trained net.  It saves a checkpoint every 10
    steps, not every 100 as the default does, so that a 30-step run saves
    some and ``save_checkpoint`` shows in the step percentiles."""

    name, primary = "train2d", "step"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.counts = (2, 2, 2) if smoke else (8, 8, 96)
        self.shape = (64, 64)
        self.cfg = TrainConfig(t_max=2 if smoke else 30, seed=seed,
                               checkpoint_every=10,
                               network=NetworkConfig(seed=seed))

    def setup(self, work):
        self.split, times = build_and_load(work / "data", self.counts,
                                           self.shape, self.seed)
        # a user's set-up includes net init; train_loop builds its own net
        self.net = DualDecoderNet(self.cfg.network)
        return times

    def prepare(self, work):
        return 0

    def call(self, work):
        result = training.train_loop(self.split, self.cfg, out_dir=work)
        self.net = result.net
        return inference.evaluate(self.net, self.split.test, self.shape,
                                  self.shape)

    def check(self, work, report):
        return (checks.check_loss_csv(work / "loss.csv", self.cfg.t_max),
                checks.loss_rows(work / "loss.csv"), report.aggregate["dice"])

    def check_inputs(self):
        rng = np.random.default_rng(self.seed)
        return self.net, training.sample_batch(self.split, self.cfg, rng).images


class Eval2D(Train2D):
    """Sliding-window eval of 128x128 phantoms with 64x64 windows at
    stride 32: nine overlapping batch-1 tiles per case under no_grad, then
    exact Dice/Jaccard/ASD/HD95.  The net is trained on 64x64 phantoms, as
    in train2d, during set-up; larger training phantoms would need a longer
    run for a Dice that is steady across seeds."""

    name, primary = "eval2d", "case"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.counts = (2, 2, 1) if smoke else (8, 8, 1)
        self.test_counts = (1, 0, 2) if smoke else (1, 0, 16)
        self.window, self.stride = (64, 64), (32, 32)
        self.cfg = replace(self.cfg, t_max=2 if smoke else 40)

    def setup(self, work):
        times = super().setup(work)
        test, more = build_and_load(work / "test", self.test_counts, (128, 128),
                                    self.seed)
        self.test = test.test
        return {name: times[name] + more[name] for name in times}

    def prepare(self, work):
        self.net = training.train_loop(self.split, self.cfg,
                                       out_dir=work / "train").net
        return checks.check_loss_csv(work / "train" / "loss.csv", self.cfg.t_max)

    def call(self, work):
        return inference.evaluate(self.net, self.test, self.window, self.stride)

    def check(self, work, report):
        cases = [(c.dice, c.jaccard, c.asd, c.hd95) for c in report.cases]
        return 0, cases, report.aggregate["dice"]

    def check_inputs(self):
        tile = self.test[0].image[:self.window[0], :self.window[1]]
        return self.net, np.asarray(tile, dtype=np.float64)[None, None]


class Ablate3D:
    """``geoseg ablate`` in-process on 24^3 phantoms: five members (seg,
    seg+sdf, mc, gc, wgc) each train a rank-3 net on 16^3 crops and
    evaluate it."""

    name, primary = "ablate3d", "call"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.counts = (1, 1, 1) if smoke else (4, 4, 12)
        self.shape = (16 if smoke else 24,) * 3
        self.t_max = 1 if smoke else 8
        # lr 0.1 moves an 8-step run far enough from its initialization
        # that the Dice of the wgc member is steady across seeds
        self.config = {"network": {"rank": 3, "width": 8}, "crop": [16, 16, 16],
                       "base_lr": 0.1, "checkpoint_every": 4}

    def setup(self, work):
        self.split, times = build_and_load(work / "data", self.counts,
                                           self.shape, self.seed)
        (work / "config.json").write_text(json.dumps(self.config))
        # a user's set-up includes net init; each ablate member builds its own
        DualDecoderNet(NetworkConfig(rank=3, seed=self.seed))
        self.setup_dir = work
        return times

    def prepare(self, work):
        return 0

    def call(self, work):
        self.last_work = work
        return cli.main(["ablate", "--manifest", str(self.setup_dir / "data"),
                         "--out", str(work),
                         "--config", str(self.setup_dir / "config.json"),
                         "--seeds", str(self.seed), "--t-max", str(self.t_max)])

    def check(self, work, code):
        if code != 0:
            return 1, None, None
        bad = sum(checks.check_loss_csv(run / "loss.csv", self.t_max)
                  for run in sorted((work / "runs").iterdir()))
        dice = checks.ablation_wgc_dice(work / "ablation.csv")
        return bad + (dice is None), (work / "ablation.csv").read_bytes(), dice

    def check_inputs(self):
        run = self.last_work / "runs" / f"wgc_s{self.seed}"
        net, _, _ = net_from_checkpoint(run / "checkpoints" / "final.ckpt")
        cfg = training.config_from_dict(
            json.loads((run / "config.json").read_text()))
        rng = np.random.default_rng(self.seed)
        return net, training.sample_batch(self.split, cfg, rng).images


WORKLOADS = {w.name: w for w in (Train2D, Eval2D, Ablate3D)}


def build_and_load(work, counts, shape, seed):
    """Build a dataset and load it; returns (split, set-up times)."""
    t0 = clock()
    manifest = data.build_dataset(work, *counts, shape, seed)
    t1 = clock()
    split = data.load_split(manifest)
    return split, {"data.build_dataset.s": t1 - t0,
                   "data.load_split.s": clock() - t1}


class Run:
    """Samples, failures and traces of one benchmark run."""

    def __init__(self, workload, trace):
        self.workload = workload
        self.steps, self.cases = OpTimer(), OpTimer()
        self.tracer = Tracer() if trace else None
        self.setup_s, self.data_s = None, {}
        # e2e samples come from untraced calls only; traced ones feed the
        # per-layer metrics and the tracing overhead
        self.samples = {False: {"step": [], "case": [], "call": []},
                        True: {"step": [], "case": [], "call": []}}
        self.failed = 0
        self.raised = 0
        self.problems = []
        self.dice = None
        self.surfaces = []
        self.peak_rss_mb = []   # per untraced call
        self.rss_span = None

    @property
    def attempted(self):
        """Steps, cases and CLI calls, including any that raised."""
        kinds = ("step", "case", "call") if self.workload.primary == "call" \
            else ("step", "case")
        return self.raised + sum(len(traced[kind]) for kind in kinds
                                 for traced in self.samples.values())

    def fail(self, count, what):
        if count:
            self.failed += count
            self.problems.append(f"{count} x {what}")

    def _timed(self, traced, fn, *args):
        """Run fn with the operation timers (and, if traced, the tracer)
        installed; returns (result, wall seconds)."""
        steps0, cases0 = len(self.steps.samples), len(self.cases.samples)
        with Patches() as patches:
            install_op_timers(patches, self.steps, self.cases,
                              self.tracer if traced else None)
            if traced:
                self.tracer.install(patches)
            if not self.surfaces and not traced:
                patches.wrap(inference, "surface_distances", self._capture)
            t0 = clock()
            try:
                result = fn(*args)
            finally:
                wall = clock() - t0
                bucket = self.samples[traced]
                bucket["step"] += self.steps.samples[steps0:]
                bucket["case"] += self.cases.samples[cases0:]
        return result, wall

    def _capture(self, fn):
        def wrapper(pred, truth, *args, **kwargs):
            self.surfaces.append((pred, truth))
            return fn(pred, truth, *args, **kwargs)
        return wrapper

    def setup(self, work):
        """Set up several times for a steady median, then prepare once
        (eval2d trains its net there; traced in a traced run)."""
        walls = []
        for i in range(SETUP_REPEATS):
            times, wall = self._timed(False, self.workload.setup, work / f"setup{i}")
            walls.append(wall)
            for name, value in times.items():
                self.data_s.setdefault(name, []).append(value)
        bad, wall = self._timed(self.tracer is not None, self.workload.prepare,
                                work / f"setup{SETUP_REPEATS - 1}")
        self.fail(bad, "set-up step without a finite loss.csv row")
        self.setup_s = statistics.median(walls) + wall

    def loop(self, work, seconds):
        """Repeat the workload's call until ``seconds`` are spent; a traced
        run alternates untraced and traced calls.  Where the system allows
        it, the peak resident memory is restarted before each call, so the
        peak of a call is its own and not that of the set-up."""
        reference = None
        start = clock()
        i = 0
        while (i == 0 or clock() - start < seconds
               or (self.tracer is not None and i < 2)):
            traced = self.tracer is not None and i % 2 == 1
            call_dir = work / f"call{i}"
            self.rss_span = "call" if reset_peak_rss() else "process"
            try:
                result, wall = self._timed(traced, self.workload.call, call_dir)
            except Exception:
                traceback.print_exc()
                self.raised = max(1, self.steps.failed + self.cases.failed)
                self.fail(self.raised, f"{self.workload.name} call raised")
                return
            self.samples[traced]["call"].append(wall)
            if not traced:
                self.peak_rss_mb.append(peak_rss_mb())
            bad, outputs, dice = self.workload.check(call_dir, result)
            self.fail(bad, "operation failed its check")
            if reference is None:
                reference, self.dice = outputs, dice
            elif outputs != reference or dice != self.dice:
                self.fail(1, "repeated call did not reproduce its outputs")
            if i > 0:
                shutil.rmtree(work / f"call{i - 1}", ignore_errors=True)
            i += 1

    def check_after(self):
        """Checks on the sampled conv calls and eval surfaces."""
        net, images = self.workload.check_inputs()
        bad = checks.check_conv_layers(net, images)
        self.fail(len(bad), f"conv layer output or gradient differs from "
                            f"einsum reference ({', '.join(bad)})")
        edt_bad = sum(not checks.check_edt(p, t) for p, t in self.surfaces)
        self.fail(edt_bad, "exact_edt differs from scipy distance_transform_edt")
        if not self.surfaces:
            self.fail(1, "no eval case reached surface_distances")


def run_workload(name, seed, seconds, trace, smoke, work):
    workload = WORKLOADS[name](seed, smoke)
    run = Run(workload, trace)
    run.setup(work)
    run.loop(work, seconds)
    if not run.problems:
        run.check_after()
    return run
