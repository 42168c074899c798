"""Metric names, units, values and the run's environment.

The result line carries the end-to-end metrics (untraced run) or the
per-layer metrics (traced run) that BENCHMARK.json declares, so every
workload reports the same names.  The report lines above it also give the
metrics that exist on one workload only, such as percentiles, the
ablation's CLI self time and the per-mode loss split.
"""

import ctypes
import glob
import os
import platform
import statistics

import numpy as np
import scipy

from geoseg import kernels

from .probes import KERNEL_FLOP, LAYERS, TOP_LEVEL, percentile

END_TO_END = ("setup_s", "train_step_ms", "eval_case_ms", "call_wall_s",
              "dice", "peak_rss_mb")

_STEP_LAYER = (
    [f"kernels.{k}.{m}" for k in KERNEL_FLOP for m in ("ms", "calls", "gflop", "gflop_s")]
    + ["kernels.edt_pass.ms", "kernels.edt_pass.rows",
       "tensor.backward.ms", "tensor.backward.self_ms", "tensor.graph_nodes",
       "tensor.SGD.step.ms", "network.forward.ms",
       "network.save_checkpoint.ms", "network.save_checkpoint.bytes"]
    + [f"network.{layer}.{d}_ms" for layer in LAYERS for d in ("fwd", "bwd")]
    + ["geometry.sdm_target.ms", "geometry.sdm_target.calls",
       "losses.total_loss.ms", "training.sample_batch.ms",
       "training.train_step.ms", "trace.unattributed_ms"])
_CASE_LAYER = (
    [f"kernels.{k}.{m}" for k in ("conv_fwd", "conv_bwd_input")
     for m in ("ms", "calls", "gflop", "gflop_s")]
    + ["kernels.edt_pass.ms", "kernels.edt_pass.rows", "network.forward.ms",
       "inference.sliding_window_infer.ms", "inference.tiles",
       "inference.tile_ms", "metrics.surface_distances.ms",
       "metrics.dice_jaccard.ms", "trace.unattributed_ms"])

# every layer metric that all three workloads exercise, so each traced run
# reports the same names: steps run in train2d, in ablate3d and in eval2d's
# set-up training; cases in all three evals
PER_LAYER = tuple([f"step.{n}" for n in _STEP_LAYER]
                  + [f"case.{n}" for n in _CASE_LAYER]
                  + ["data.build_dataset.s", "data.load_split.s",
                     "trace.overhead_frac"])


def unit(name):
    if ".share." in name:
        return "ratio"
    last = name.rsplit(".", 1)[-1]
    if last.endswith("ms"):
        return "ms"
    if last == "s" or (last.endswith("_s") and last != "gflop_s"):
        return "s"
    return {"gflop": "GFLOP", "gflop_s": "GFLOP/s", "bytes": "B",
            "overhead_frac": "ratio", "dice": "ratio", "error_rate": "ratio",
            "peak_rss_mb": "MB"}.get(last, "count")


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(run, import_s):
    """Every end-to-end metric, the declared ones first."""
    steps = run.samples[False]["step"]
    cases = run.samples[False]["case"]
    calls = run.samples[False]["call"]
    values = {
        "setup_s": import_s + run.setup_s,
        "train_step_ms": _median(steps) * 1e3,
        "eval_case_ms": _median(cases) * 1e3,
        "call_wall_s": _median(calls),
        "dice": run.dice,
        "peak_rss_mb": _median(run.peak_rss_mb),
    }
    for name, samples in (("train_step_p90_ms", steps), ("eval_case_p90_ms", cases)):
        p90 = percentile(samples, 90)
        if p90 is not None:
            values[name] = p90 * 1e3
    if run.workload.name == "ablate3d":
        values["ablate_wall_s"] = values["call_wall_s"]
    values["error_rate"] = run.failed / max(1, run.attempted)
    return values


def per_layer(run):
    """Per-layer metrics of the traced calls: ``step.*`` per training
    step, ``case.*`` per eval case."""
    traced = run.samples[True]
    totals = run.tracer.totals
    values = {}
    for kind in ("step", "case"):
        n = len(traced[kind])
        if not n:
            continue
        t = totals[kind]
        for name, total in t.items():
            values[f"{kind}.{name}"] = total / n
        values[f"{kind}.trace.op_ms"] = sum(traced[kind]) * 1e3 / n
        for k in KERNEL_FLOP:
            if t.get(f"kernels.{k}.ms"):
                values[f"{kind}.kernels.{k}.gflop_s"] = \
                    t[f"kernels.{k}.gflop"] / (t[f"kernels.{k}.ms"] / 1e3)
        if t.get("inference.tiles"):
            values[f"{kind}.inference.tile_ms"] = \
                t["inference.sliding_window_infer.ms"] / t["inference.tiles"]
        top = sum(t.get(f"{name}.ms", 0.0) for name in TOP_LEVEL[kind])
        values[f"{kind}.trace.unattributed_ms"] = (sum(traced[kind]) * 1e3 - top) / n
    for name, samples in run.data_s.items():
        values[name] = _median(samples)
    primary = run.workload.primary
    values["trace.overhead_frac"] = (_median(traced[primary])
                                     / _median(run.samples[False][primary]) - 1)
    if run.workload.name == "ablate3d":
        values["cli.ablate.self_s"] = (sum(traced["call"])
                                       - run.tracer.calls_ms / 1e3) / len(traced["call"])
    return values


def shares(values):
    """Kernel shares of a step and of a case, as fractions."""
    out = {}
    for kind in ("step", "case"):
        whole = values.get(f"{kind}.trace.op_ms")
        if not whole:
            continue
        bwd = sum(values.get(f"{kind}.kernels.{k}.ms", 0.0)
                  for k in ("conv_bwd_input", "conv_bwd_kernel"))
        out[f"{kind}.share.conv_fwd"] = values.get(f"{kind}.kernels.conv_fwd.ms", 0.0) / whole
        out[f"{kind}.share.conv_bwd"] = bwd / whole
        out[f"{kind}.share.edt_pass"] = values.get(f"{kind}.kernels.edt_pass.ms", 0.0) / whole
    return out


def _blas_threads():
    # numpy's bundled OpenBLAS reports its own thread count
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed, rss_span):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine(),
            "backend": kernels.BACKEND, "seed": seed,
            "peak_rss_span": rss_span}
