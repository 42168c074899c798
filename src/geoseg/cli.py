"""Command-line harness: dataset build, training, evaluation, experiments.

Commands: build-data, train, eval, ablate, sweep-rho, export-maps.
Config precedence is defaults < --config file < command-line flags, and the
fully resolved config is archived in the run directory before any compute,
so every run is reproducible from its own artifacts.  ``CONFIG_FLAGS``
names each flag that sets a config field, with its parser and that field;
``build_parser`` and ``_resolve_train_config`` both read the rows of it
that a command takes (``COMMAND_FLAGS``).

Exit status is 0 on success; failures print one machine-parsable line
``error category=<cat> message=...`` to stderr and return nonzero; an
allocation numpy refuses is category ``memory``.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import SPLITS, PhantomParams, _write_atomic, _write_csv, \
    build_dataset, check_build, load_manifest, load_split, parse_json, \
    read_array, write_array
from .errors import ConfigError, DataError, GeoSegError, ShapeError
from .geometry import boundary_weights, sdm_target
from .inference import METRICS, check_window, evaluate, mean_defined, \
    sliding_window_infer
from .network import net_from_checkpoint
from .training import check_config_keys, check_pools, config_from_dict, \
    train_loop

ABLATE_SCHEMA = "ablate_v1"
SWEEP_SCHEMA = "sweep_v1"
ABLATE_CONFIGS = ("seg", "seg+sdf", "mc", "gc", "wgc")
# loss overrides of the supervised-only ablation members; the others set
# only the consistency term named after them
_ABLATE_LOSS = {"seg": {"consistency": "none", "beta": 0.0},
                "seg+sdf": {"consistency": "none"}}
_MODES = {"supervised-only": "none", "mc": "mc", "gc": "gc", "wgc": "wgc"}


def _parse_extents(text):
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"cannot parse extents {text!r}; expected e.g. 64x64")


def _parse_list(text, cast):
    try:
        return [cast(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ConfigError(f"cannot parse list {text!r}")


def _parse_mode(mode):
    if mode not in _MODES:
        raise argparse.ArgumentTypeError(f"choose from {', '.join(_MODES)}")
    return _MODES[mode]


# (flag, parser, the config field it sets); a loss or network field is
# written "section.field"
CONFIG_FLAGS = (
    ("--t-max", int, "t_max"),
    ("--crop", _parse_extents, "crop"),
    ("--lr", float, "base_lr"),
    ("--lr-decay-every", int, "lr_decay_every"),
    ("--labeled-per-batch", int, "labeled_per_batch"),
    ("--unlabeled-per-batch", int, "unlabeled_per_batch"),
    ("--checkpoint-every", int, "checkpoint_every"),
    ("--mode", _parse_mode, "loss.consistency"),
    ("--rho", float, "loss.rho"),
    ("--k", float, "loss.k"),
    ("--beta", float, "loss.beta"),
    ("--lambda-max", float, "loss.lambda_max"),
    ("--width", int, "network.width"),
    ("--depth", int, "network.depth"),
)
# the rows each command takes: every ablate member sets loss.consistency,
# and every sweep-rho member it and loss.rho, so their flags would be ignored
COMMAND_FLAGS = {command: [row for row in CONFIG_FLAGS if row[0] not in unread]
                 for command, unread in [("train", ()), ("ablate", ("--mode",)),
                                         ("sweep-rho", ("--mode", "--rho"))]}


def _check_out(path, force):
    # the command's writers make the directory
    out = Path(path)
    if out.exists() and any(out.iterdir()) and not force:
        raise DataError(f"output directory {out} is not empty; pass --force "
                        "to reuse it")
    return out


def _resolve_train_config(args, seed=None):
    doc = {}
    if args.config:
        doc = parse_json(Path(args.config).read_bytes(), ConfigError,
                         f"config {args.config} is not valid JSON")
        check_config_keys(doc)
    flags = [(path, getattr(args, path))
             for _, _, path in COMMAND_FLAGS[args.command]]
    for path, value in [("seed", seed), ("network.seed", seed)] + flags:
        if value is not None:
            section, _, name = path.rpartition(".")
            (doc.setdefault(section, {}) if section else doc)[name] = value
    return config_from_dict(doc)


def _load_dataset(path, splits, cfg=None):
    """The dataset at ``path`` as (shape, split), with only the volumes of
    ``splits`` read; its pools must fill ``cfg``'s batches, and it must
    have test records if ``splits`` holds the test split."""
    manifest = load_manifest(path, splits)
    split = load_split(manifest)
    if cfg is not None:
        check_pools(split, cfg)
    if "test" in splits and not split.test:
        raise DataError(f"{path}: the dataset has no test records")
    return manifest.shape, split


def _default_window(shape, depth):
    multiple = 1 << depth
    return tuple(-(-n // multiple) * multiple for n in shape)


def _eval_window(args, shape, net):
    if net.config.rank != len(shape):
        raise ConfigError(f"checkpoint is a rank-{net.config.rank} network, "
                          f"the dataset's volumes are {shape}")
    whole = _default_window(shape, net.config.depth)
    window = _parse_extents(args.window) if args.window else whole
    stride = _parse_extents(args.stride) if args.stride else window
    window, stride = check_window(window, stride, len(shape),
                                  net.config.depth)
    # a larger window would only pad every case with zeros
    if any(w > n for w, n in zip(window, whole)):
        raise ConfigError(f"window {window} is larger than the volumes "
                          f"{shape} rounded up to {whole}")
    return window, stride


def _train_and_eval(split, cfg, run_dir, shape):
    # the trained net goes out of scope on return, before the next run trains
    net = train_loop(split, cfg, out_dir=run_dir).net
    window = _default_window(shape, net.config.depth)
    return evaluate(net, split.test, window, window, out_dir=run_dir).aggregate


def _run_grid(args, column, schema, csv_name, members, mean_rows):
    """Train and evaluate one run per (member, seed); write ``csv_name``.

    ``members`` lists (label, run-dir stem, loss overrides) triples; each
    run goes to ``runs/<stem>_s<seed>``.  The CSV has one row per run, then
    one mean row per member when ``mean_rows(len(seeds))`` holds.  Every
    run's config is built, and so checked, before ``--out`` is prepared.
    """
    base = _resolve_train_config(args)
    seeds = _parse_list(args.seeds, int)
    grid = [(label, [(f"{stem}_s{seed}",
                      replace(base, seed=seed, loss=replace(base.loss, **loss),
                              network=replace(base.network, seed=seed)))
                     for seed in seeds])
            for label, stem, loss in members]
    runs = [run for _, member_runs in grid for run, _ in member_runs]
    if not runs:
        raise ConfigError(f"empty experiment grid: {len(members)} member(s), "
                          f"seeds {args.seeds!r}")
    repeated = sorted({run for run in runs if runs.count(run) > 1})
    if repeated:
        raise ConfigError(f"experiment grid repeats run dir(s) {repeated}: "
                          "seeds and members must be distinct")
    # every run shares the base config's batch sizes
    shape, split = _load_dataset(args.manifest, SPLITS, base)
    out = _check_out(args.out, args.force)
    results = [(label, [_train_and_eval(split, cfg, out / "runs" / run, shape)
                        for run, cfg in member_runs])
               for label, member_runs in grid]
    table = [(label, seed, agg) for label, aggs in results
             for seed, agg in zip(seeds, aggs)]
    if mean_rows(len(seeds)):
        table += [(label, "mean", mean_defined(aggs)) for label, aggs in results]
    _write_csv(out / csv_name, [(column, "seed") + METRICS + ("schema",)] + [
        [label, seed] + [agg[key] for key in METRICS] + [schema]
        for label, seed, agg in table])
    return out / csv_name, seeds


# -- commands -------------------------------------------------------------


def cmd_build_data(args):
    shape = _parse_extents(args.shape)
    params = PhantomParams(**{name: getattr(args, name) for name in
                              ("noise_sigma", "blur_sigma", "contrast")
                              if getattr(args, name) is not None})
    counts = (args.labeled, args.unlabeled, args.test)
    check_build(*counts, shape, args.seed)
    out = _check_out(args.out, args.force)
    manifest = build_dataset(out, *counts, shape, args.seed, params)
    print(f"wrote {len(manifest.records)} records to {out}")
    return 0


def cmd_train(args):
    cfg = _resolve_train_config(args, args.seed)
    _, split = _load_dataset(args.manifest,
                             ("labeled-train", "unlabeled-train"), cfg)
    out = _check_out(args.out, args.force)
    result = train_loop(split, cfg, out_dir=out,
                        resume_from=args.resume_from)
    print(f"trained {cfg.t_max} steps -> {out} "
          f"(final loss {result.rows[-1][-1]:.5f})")
    return 0


def cmd_eval(args):
    shape, split = _load_dataset(args.manifest, ("test",))
    net, _, _ = net_from_checkpoint(args.checkpoint)
    window, stride = _eval_window(args, shape, net)
    out = _check_out(args.out, args.force)
    report = evaluate(net, split.test, window, stride, out_dir=out)
    agg = report.aggregate
    print(f"evaluated {report.n_cases} cases: dice={agg['dice']:.4f} "
          f"jaccard={agg['jaccard']:.4f}")
    return 0


def cmd_ablate(args):
    members = [(name, name.replace("+", "_"),
                _ABLATE_LOSS.get(name, {"consistency": name}))
               for name in ABLATE_CONFIGS]
    path, seeds = _run_grid(args, "config", ABLATE_SCHEMA, "ablation.csv",
                            members, lambda n_seeds: True)
    print(f"ablation over {len(seeds)} seed(s) -> {path}")
    return 0


def cmd_sweep_rho(args):
    values = _parse_list(args.values, float)
    members = [(format(v, "g"), f"rho{v:g}", {"consistency": "wgc", "rho": v})
               for v in values]
    path, _ = _run_grid(args, "rho", SWEEP_SCHEMA, "sweep.csv", members,
                        lambda n_seeds: n_seeds > 1)
    print(f"rho sweep over {values} -> {path}")
    return 0


def write_pgm(path, image):
    """Plain 8-bit binary grayscale (P5): magic, dimensions, maxval, raw."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ConfigError(f"PGM slices must be 2D, got {image.shape}")
    h, w = image.shape
    _write_atomic({path: f"P5\n{w} {h}\n255\n".encode("ascii")
                   + image.tobytes()})


def _mid_slice(volume):
    if volume.ndim == 2:
        return volume
    return volume[..., volume.shape[-1] // 2]


def weights_to_pixels(weights, rho):
    """Linear map [exp(-rho), 1] -> [0, 255], rounded to nearest."""
    wmin = float(np.exp(-rho))
    scaled = (weights - wmin) / (1.0 - wmin) * 255.0
    return np.rint(scaled).astype(np.uint8)


def _predicted_sdm(checkpoint, image_path):
    """Decoder 1's SDM of the whole image, run as a single window."""
    net, _, _ = net_from_checkpoint(checkpoint)
    image, spacing = read_array(image_path)
    window = _default_window(image.shape, net.config.depth)
    sdm = sliding_window_infer(net, image, window, window, head="sdm")
    return sdm, spacing


def cmd_export_maps(args):
    if (bool(args.mask), bool(args.checkpoint), bool(args.image)) not in (
            (True, False, False), (False, True, True)):
        raise ConfigError("export-maps takes --mask alone, or --checkpoint "
                          "with --image")
    rhos = _parse_list(args.rho, float)
    if args.mask:
        mask, spacing = read_array(args.mask)
        if mask.ndim not in (2, 3):
            raise ShapeError(f"{args.mask}: a mask must be 2D or 3D, got "
                             f"shape {mask.shape}")
        sdm = sdm_target(mask)
    else:
        sdm, spacing = _predicted_sdm(args.checkpoint, args.image)

    # slice pixels are derived from the float32 volumes as written, so the
    # image recomputes exactly from the exported data; every map is computed,
    # and every rho checked, before --out is prepared
    sdm32 = sdm.astype(np.float32)
    maps = [(rho, boundary_weights(sdm32.astype(np.float64), rho)
             .astype(np.float32)) for rho in rhos]
    out = _check_out(args.out, args.force)
    out.mkdir(parents=True, exist_ok=True)
    write_array(out / "sdm.vol", sdm32, spacing)
    sdm_px = np.rint((_mid_slice(sdm32).astype(np.float64) + 1.0)
                     / 2.0 * 255.0).astype(np.uint8)
    write_pgm(out / "sdm_slice.pgm", sdm_px)
    for rho, weights32 in maps:
        tag = f"rho{rho:g}"
        write_array(out / f"weights_{tag}.vol", weights32, spacing)
        write_pgm(out / f"weights_{tag}_slice.pgm",
                  weights_to_pixels(_mid_slice(weights32).astype(np.float64),
                                    rho))
    print(f"exported sdm + {len(rhos)} weight map(s) to {out}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--force", action="store_true",
                        help="reuse a non-empty output directory")


    parser = argparse.ArgumentParser(
        prog="geoseg",
        description="geometry-aware semi-supervised segmentation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-data", parents=[common],
                       help="generate a synthetic phantom dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labeled", type=int, required=True)
    p.add_argument("--unlabeled", type=int, required=True)
    p.add_argument("--test", type=int, required=True)
    p.add_argument("--shape", default="64x64")
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--blur-sigma", dest="blur_sigma", type=float, default=None)
    p.add_argument("--contrast", type=float, default=None)
    p.set_defaults(func=cmd_build_data)

    p = sub.add_parser("train", parents=[common],
                       help="run one training configuration")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume-from", dest="resume_from", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--window", default=None, help="e.g. 64x64")
    p.add_argument("--stride", default=None, help="e.g. 18x18")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[common],
                       help="run the five-configuration ablation")
    p.add_argument("--seeds", default="0,1,2")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep-rho", parents=[common],
                       help="sweep the boundary-weight sharpness")
    p.add_argument("--values", default="1.0,1.5,2.0,2.5,3.0")
    p.add_argument("--seeds", default="0")
    p.set_defaults(func=cmd_sweep_rho)

    p = sub.add_parser("export-maps", parents=[common],
                       help="export SDM / weight volumes and slice images")
    p.add_argument("--mask", default=None,
                   help="volume container (.vol) of a mask")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--image", default=None,
                   help="volume container (.vol) of an image")
    p.add_argument("--rho", default="1,2,3")
    p.set_defaults(func=cmd_export_maps)

    # train, ablate and sweep-rho share these; ablate and sweep-rho take
    # their seeds from --seeds
    for command, rows in COMMAND_FLAGS.items():
        p = sub.choices[command]
        p.add_argument("--manifest", required=True)
        p.add_argument("--config", default=None, help="JSON config file")
        for flag, parse, path in rows:
            p.add_argument(flag, dest=path, type=parse)
    # a flag must be spelled out: as a prefix, a flag a command does not
    # take (ablate's --seed) would parse as another (--seeds)
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


def main(argv=None):
    try:
        # a flag's parser may raise ConfigError (--crop 8y8)
        args = build_parser().parse_args(argv)
        return args.func(args) or 0
    except (GeoSegError, OSError, MemoryError) as e:
        category = (e.category if isinstance(e, GeoSegError)
                    else "memory" if isinstance(e, MemoryError) else "io")
        print(f"error category={category} message={e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
