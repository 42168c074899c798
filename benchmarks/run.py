"""Benchmark of geoseg: run one workload in this process, or all in turn.

    python3 benchmarks/run.py --workload train2d --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --seed 1        # every workload, each in a fresh process

A run prints report lines (environment, every metric with its unit, any
failed check) and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a run that
alternates untraced and traced calls.  The package is imported from the
``src/`` directory next to this one; without it the run exits with code 2.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads: the workloads' matrix products
# are small, so a second thread gains little, and a run on one core is
# less disturbed by other load on a small host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train2d", "eval2d", "ablate3d")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measure for this long (at least one call)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum sizes, for testing the benchmark itself")
    return parser.parse_args(argv)


def import_geoseg():
    """Import geoseg from this checkout's sources and nowhere else."""
    if not (SRC / "geoseg" / "__init__.py").is_file():
        print(f"benchmark: no geoseg sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import geoseg
    if Path(geoseg.__file__).resolve().parent != SRC / "geoseg":
        print(f"benchmark: imported geoseg from {geoseg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds(repeats=9):
    """Median time a fresh interpreter takes to import geoseg and its CLI."""
    code = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import geoseg.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-B", "-c", code, str(SRC)],
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(repeats))


def _line(name, value, unit):
    return f"metric {name} {value!r} {unit}"


def run_one(args):
    sys.dont_write_bytecode = True
    import_geoseg()
    from geobench import report, workloads
    import_s = None if args.trace else import_seconds()

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = workloads.run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(report.environment(args.seed, run.rss_span),
                              sort_keys=True))
    if args.trace:
        values = report.per_layer(run)
        values.update(report.shares(values))
        declared = report.PER_LAYER
    else:
        values = report.end_to_end(run, import_s)
        declared = report.END_TO_END
    for name in sorted(values):
        print(_line(name, values[name], report.unit(name)))
    metrics = {name: values.get(name, 0.0) for name in declared}
    for name, value in metrics.items():
        if value is None or not math.isfinite(value):
            run.fail(1, f"metric {name} was not measured")
    for problem in run.problems:
        print(f"problem {problem}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct, "attempted": run.attempted,
        "failed": min(run.failed, max(1, run.attempted)),
        "metrics": {name: {"value": value, "unit": report.unit(name)}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
