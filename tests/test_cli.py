"""Command-line surface: every subcommand end to end on tiny runs."""

import argparse
import csv
import hashlib
import json
import shutil
from dataclasses import asdict, fields

import numpy as np
import pytest

from geoseg.cli import CONFIG_FLAGS, build_parser, main, weights_to_pixels
from geoseg.data import read_array, write_array
from geoseg.losses import LossConfig
from geoseg.network import DualDecoderNet, NetworkConfig, \
    net_from_checkpoint, save_checkpoint
from geoseg.tensor import Tensor, no_grad
from geoseg.training import TrainConfig
from helpers import random_blob_mask

rng = np.random.default_rng(71)


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    code = run(["build-data", "--labeled", "2", "--unlabeled", "2", "--test",
                "1", "--shape", "16x16", "--seed", "3", "--out", str(out),
                "--force"])
    assert code == 0
    return out


TINY = ["--t-max", "2", "--width", "2", "--depth", "2", "--crop", "16x16",
        "--labeled-per-batch", "1", "--unlabeled-per-batch", "1", "--k", "20"]


def test_build_data_manifest_and_refusal(tmp_path, capsys):
    out = tmp_path / "fresh" / "nested"   # missing parents get created
    code = run(["build-data", "--labeled", "4", "--unlabeled", "36", "--test",
                "10", "--shape", "16x16", "--seed", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "manifest.json").read_text())
    assert len(doc["records"]) == 50
    capsys.readouterr()

    code = run(["build-data", "--labeled", "1", "--unlabeled", "1", "--test",
                "1", "--shape", "16x16", "--out", str(out)])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error category=")
    assert "--force" in err


def test_train_emits_run_artifacts(dataset, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(dataset), "--out", str(out),
                "--seed", "4"] + TINY)
    assert code == 0
    with open(out / "loss.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 3  # header + t_max rows
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["loss"]["rho"] == 2.0
    assert snapshot["loss"]["beta"] == 0.3
    assert snapshot["seed"] == 4
    assert (out / "checkpoints" / "final.ckpt").exists()


def test_train_paper_default_flags_reach_snapshot(dataset, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(dataset), "--out", str(out),
                "--rho", "2.0", "--k", "1500", "--beta", "0.3"]
               + TINY[:8])  # keep k override out: TINY sets k=20
    assert code == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["loss"]["rho"] == 2.0
    assert snapshot["loss"]["k"] == 1500
    assert snapshot["loss"]["beta"] == 0.3


def test_train_supervised_only_mode_disables_consistency(dataset, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(dataset), "--out", str(out),
                "--mode", "supervised-only"] + TINY)
    assert code == 0
    with open(out / "loss.csv") as f:
        rows = list(csv.DictReader(f))
    assert all(float(r["loss_cons"]) == 0.0 for r in rows)
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["loss"]["consistency"] == "none"


def test_eval_emits_metric_files(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert run(["train", "--manifest", str(dataset), "--out", str(run_dir)]
               + TINY) == 0
    out = tmp_path / "eval"
    code = run(["eval", "--checkpoint", str(run_dir / "checkpoints" / "final.ckpt"),
                "--manifest", str(dataset), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert set(doc["aggregate"]) == {"dice", "jaccard", "asd", "hd95"}
    assert doc["n_cases"] == 1


def _train_four_steps(dataset, out, *extra):
    return run(["train", "--manifest", str(dataset), "--out", str(out),
                "--t-max", "4", "--checkpoint-every", "2"] + TINY[2:]
               + list(extra))


@pytest.fixture(scope="module")
def four_step_run(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run") / "run"
    assert _train_four_steps(dataset, out) == 0
    return out


def _resume_at_step_two(dataset, out):
    return _train_four_steps(dataset, out, "--force", "--resume-from",
                             str(out / "checkpoints" / "step_000002.ckpt"))


def test_resumed_run_logs_the_loss_csv_of_an_unbroken_run(dataset, four_step_run,
                                                          tmp_path):
    out = tmp_path / "run"
    shutil.copytree(four_step_run, out)
    unbroken = (out / "loss.csv").read_bytes()
    assert _resume_at_step_two(dataset, out) == 0
    assert (out / "loss.csv").read_bytes() == unbroken
    # a crash right after the step-2 checkpoint leaves exactly steps 0 and 1
    (out / "loss.csv").write_bytes(unbroken[:unbroken.index(b"\n2,") + 1])
    assert _resume_at_step_two(dataset, out) == 0
    assert (out / "loss.csv").read_bytes() == unbroken
    # a crash in step 3 leaves a partial row after the step-2 checkpoint
    (out / "loss.csv").write_bytes(unbroken[:unbroken.index(b"\n3,") + 3])
    assert _resume_at_step_two(dataset, out) == 0
    assert (out / "loss.csv").read_bytes() == unbroken


BAD_RESUME_LOGS = [
    ("missing", None, "loss.csv is missing"),
    ("other-header", lambda b: b.replace(b"loss_seg", b"loss_dice", 1),
     "does not start with the loss_v1 header"),
    ("no-row-before-resume", lambda b: b[:b.index(b"\n1,") + 1],
     "does not log steps 0..1 in order"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in BAD_RESUME_LOGS],
                         ids=[case[0] for case in BAD_RESUME_LOGS])
def test_resume_without_the_earlier_loss_rows_is_an_io_error(
        dataset, four_step_run, tmp_path, capsys, edit, message):
    out = tmp_path / "run"
    shutil.copytree(four_step_run, out)
    log = out / "loss.csv"
    if edit is None:
        log.unlink()
    else:
        log.write_bytes(edit(log.read_bytes()))
    capsys.readouterr()
    assert _resume_at_step_two(dataset, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert message in err


def _edit_entries(header, edit):
    return {**header, "tensors": {name: edit(entry)
                                  for name, entry in header["tensors"].items()}}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _without_tensors(header, prefix):
    return {**header, "tensors": {name: entry for name, entry
                                  in header["tensors"].items()
                                  if not name.startswith(prefix)}}


def _with_removed_network_keys(header):
    # the network config of a checkpoint written while these keys existed
    return {**header, "network": {**header["network"], "in_channels": 1,
                                  "normalization": "instance"}}


BAD_CHECKPOINT_HEADERS = [
    ("header-not-object", lambda h: [h]),
    ("no-tensors", lambda h: _without(h, "tensors")),
    ("tensors-not-object", lambda h: {**h, "tensors": list(h["tensors"])}),
    ("entry-not-object", lambda h: _edit_entries(h, lambda e: 0)),
    ("offset-not-int", lambda h: _edit_entries(h, lambda e: {**e, "offset": "0"})),
    ("no-nbytes", lambda h: _edit_entries(h, lambda e: _without(e, "nbytes"))),
    ("shape-not-list", lambda h: _edit_entries(h, lambda e: {**e, "shape": 4})),
    ("no-dtype", lambda h: _edit_entries(h, lambda e: _without(e, "dtype"))),
    ("nbytes-not-shape", lambda h: _edit_entries(h, lambda e: {**e, "nbytes": e["nbytes"] + 8})),
    ("entry-past-payload", lambda h: _edit_entries(h, lambda e: {**e, "offset": 1 << 30})),
    ("extra-network-key", lambda h: {**h, "network": {**h["network"], "bogus": 1}}),
    ("missing-network-key", lambda h: {**h, "network": _without(h["network"], "width")}),
    ("mistyped-network-value", lambda h: {**h, "network": {**h["network"], "width": "2"}}),
    ("invalid-network-value", lambda h: {**h, "network": {**h["network"], "rank": 4}}),
    ("meta-not-object", lambda h: {**h, "meta": []}),
    ("removed-network-keys", _with_removed_network_keys),
    ("no-params", lambda h: _without_tensors(h, "param/")),
    ("no-momentum", lambda h: _without_tensors(h, "momentum/")),
    ("momentum-flattened",
     lambda h: _flatten_entry(h, "momentum/enc.stem.kernel")),
    # a network whose first kernel numpy refuses to allocate: the tensors
    # must fail their shape check before any parameter is drawn
    ("width-2**40", lambda h: {**h, "network": {**h["network"], "width": 2**40}}),
    # a depth whose parameter list alone would fill the memory
    ("depth-10**7", lambda h: {**h, "network": {**h["network"], "depth": 10**7}}),
]


def _rewrite_header(src, dst, edit):
    blob = src.read_bytes()
    hlen = int.from_bytes(blob[:8], "little")
    header = json.dumps(edit(json.loads(blob[8:8 + hlen]))).encode()
    dst.write_bytes(len(header).to_bytes(8, "little") + header + blob[8 + hlen:])
    return dst


@pytest.mark.parametrize("edit", [case[1] for case in BAD_CHECKPOINT_HEADERS],
                         ids=[case[0] for case in BAD_CHECKPOINT_HEADERS])
def test_malformed_checkpoint_header_is_an_io_error(dataset, four_step_run,
                                                    tmp_path, capsys, edit):
    ckpt = _rewrite_header(four_step_run / "checkpoints" / "final.ckpt",
                           tmp_path / "bad.ckpt", edit)
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1


def _edit_meta(edit):
    return lambda header: {**header, "meta": edit(dict(header["meta"]))}


def _edit_rng_state(edit):
    return _edit_meta(lambda m: {**m, "rng_state": edit(dict(m["rng_state"]))})


def _flatten_entry(header, name):
    entry = header["tensors"][name]
    flat = {**entry, "shape": [entry["nbytes"] // 8]}   # float64
    return {**header, "tensors": {**header["tensors"], name: flat}}


# (id, checkpoint, header edit, error category); the 4-step run's step-2
# checkpoint is valid as it stands, and final.ckpt is at t_max
BAD_RESUME_POINTS = [
    ("no-rng-state", "step_000002", _edit_meta(lambda m: _without(m, "rng_state")),
     "io"),
    ("rng-state-not-object", "step_000002",
     _edit_meta(lambda m: {**m, "rng_state": "seed"}), "io"),
    ("rng-state-other-generator", "step_000002",
     _edit_rng_state(lambda r: {**r, "bit_generator": "MT19937"}), "io"),
    ("rng-state-without-state", "step_000002",
     _edit_rng_state(lambda r: _without(r, "state")), "io"),
    ("rng-state-negative", "step_000002",
     _edit_rng_state(lambda r: {**r, "state": {**r["state"], "state": -1}}), "io"),
    ("no-step", "step_000002", _edit_meta(lambda m: _without(m, "step")), "io"),
    ("step-not-int", "step_000002", _edit_meta(lambda m: {**m, "step": "2"}), "io"),
    ("step-bool", "step_000002", _edit_meta(lambda m: {**m, "step": True}), "io"),
    ("step-negative", "step_000002", _edit_meta(lambda m: {**m, "step": -1}), "io"),
    ("step-past-t-max", "step_000002", _edit_meta(lambda m: {**m, "step": 5}), "io"),
    ("momentum-flattened", "step_000002",
     lambda h: _flatten_entry(h, "momentum/enc.stem.kernel"), "io"),
    ("momentum-missing", "step_000002",
     lambda h: _without_tensors(h, "momentum/"), "io"),
    ("removed-network-keys", "step_000002", _with_removed_network_keys, "io"),
    ("width-2**40", "step_000002",
     lambda h: {**h, "network": {**h["network"], "width": 2**40}}, "io"),
    ("depth-10**7", "step_000002",
     lambda h: {**h, "network": {**h["network"], "depth": 10**7}}, "io"),
    ("run-already-finished", "final", lambda h: h, "config"),
]


@pytest.mark.parametrize("name, edit, category",
                         [case[1:] for case in BAD_RESUME_POINTS],
                         ids=[case[0] for case in BAD_RESUME_POINTS])
def test_unusable_resume_point_is_a_one_line_error(dataset, four_step_run,
                                                   tmp_path, capsys, name,
                                                   edit, category):
    out = tmp_path / "run"
    shutil.copytree(four_step_run, out)
    ckpt = _rewrite_header(out / "checkpoints" / f"{name}.ckpt",
                           tmp_path / "resume.ckpt", edit)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert _train_four_steps(dataset, out, "--force", "--resume-from",
                             str(ckpt)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error category={category} message=")
    assert err.count("\n") == 1
    # nothing in the run dir was written
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("first", ["config-int", "flag-float"])
def test_int_and_float_spellings_resume_each_other(dataset, tmp_path, first):
    # the same loss values as JSON ints in a config file and as float flags
    config = tmp_path / "ints.json"
    config.write_text('{"loss": {"rho": 2, "lambda_max": 1}}')
    spellings = {"config-int": ["--config", str(config)],
                 "flag-float": ["--rho", "2", "--lambda-max", "1"]}
    (second,) = set(spellings) - {first}
    out = tmp_path / "run"
    assert _train_four_steps(dataset, out, *spellings[first]) == 0
    unbroken = (out / "loss.csv").read_bytes()
    snapshot = json.loads((out / "config.json").read_text())
    assert type(snapshot["loss"]["rho"]) is float
    assert _train_four_steps(dataset, out, "--force", "--resume-from",
                             str(out / "checkpoints" / "step_000002.ckpt"),
                             *spellings[second]) == 0
    assert (out / "loss.csv").read_bytes() == unbroken


# (id, checkpoint, extra flags, error category, error text): each resume
# into an --out that does not exist fails before --out is made
FAILED_FRESH_RESUMES = [
    ("missing-checkpoint", None, [], "io", "nope.ckpt"),
    ("other-config", "step_000002", ["--lr", "0.5"], "config",
     "different config"),
    ("no-loss-csv", "step_000002", [], "io", "loss.csv is missing"),
]


@pytest.mark.parametrize("name, flags, category, message",
                         [case[1:] for case in FAILED_FRESH_RESUMES],
                         ids=[case[0] for case in FAILED_FRESH_RESUMES])
def test_failed_resume_leaves_no_out(dataset, four_step_run, tmp_path, capsys,
                                     name, flags, category, message):
    ckpt = (tmp_path / "nope.ckpt" if name is None
            else four_step_run / "checkpoints" / f"{name}.ckpt")
    out = tmp_path / "fresh"
    capsys.readouterr()
    assert _train_four_steps(dataset, out, "--resume-from", str(ckpt),
                             *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error category={category} message=")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


def _edit_volume_entry(edit):
    return lambda h: _edit_entries(h, edit)


# container edits, then the volume's own: its one tensor and its spacing
BAD_VOLUME_HEADERS = [
    ("header-not-object", lambda h: [h]),
    ("no-dtype", _edit_volume_entry(lambda e: _without(e, "dtype"))),
    ("dtype-not-string", _edit_volume_entry(lambda e: {**e, "dtype": ["uint8"]})),
    ("no-shape", _edit_volume_entry(lambda e: _without(e, "shape"))),
    ("shape-not-list", _edit_volume_entry(lambda e: {**e, "shape": 576})),
    ("shape-negative", _edit_volume_entry(lambda e: {**e, "shape": [-24, -24]})),
    ("shape-float", _edit_volume_entry(lambda e: {**e, "shape": [24.0, 24]})),
    # 2**64 bytes, which a product in int64 wraps to the 0 of nbytes
    ("shape-wraps-int64", _edit_volume_entry(
        lambda e: {**e, "shape": [2**32, 2**32], "nbytes": 0})),
    # no voxels, but an extent that no numpy shape can hold
    ("shape-beyond-intp", _edit_volume_entry(
        lambda e: {**e, "shape": [0, 2**70], "nbytes": 0})),
    ("tensor-renamed", lambda h: {**h, "tensors": {"mask": h["tensors"]["volume"]}}),
    ("no-spacing", lambda h: _without(h, "spacing")),
    ("spacing-not-list", lambda h: {**h, "spacing": 1.0}),
    ("spacing-short", lambda h: {**h, "spacing": [1.0]}),
    ("spacing-not-number", lambda h: {**h, "spacing": ["1", 1.0]}),
]


@pytest.mark.parametrize("edit", [case[1] for case in BAD_VOLUME_HEADERS],
                         ids=[case[0] for case in BAD_VOLUME_HEADERS])
def test_malformed_volume_header_is_an_io_error(tmp_path, capsys, edit):
    volume = tmp_path / "mask.vol"
    write_array(volume, np.zeros((24, 24), np.uint8), (1.0, 1.0))
    _rewrite_header(volume, volume, edit)
    capsys.readouterr()
    code = run(["export-maps", "--mask", str(volume), "--out",
                str(tmp_path / "maps")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1


def _edit_records(edit):
    return lambda doc: {**doc, "records": [edit(r) for r in doc["records"]]}


def _edit_counts(edit):
    return lambda doc: {**doc, "counts": edit(doc["counts"])}


BAD_MANIFESTS = [
    ("manifest-not-object", lambda d: [d]),
    ("no-seed", lambda d: _without(d, "seed")),
    ("shape-not-list", lambda d: {**d, "shape": "16x16"}),
    ("counts-not-object", lambda d: {**d, "counts": [2, 2, 1]}),
    ("counts-disagree-with-records", _edit_counts(lambda c: {"labeled": 99})),
    ("count-one-too-many", _edit_counts(lambda c: {**c, "test": c["test"] + 1})),
    ("count-not-int", _edit_counts(lambda c: {**c, "test": float(c["test"])})),
    ("counts-extra-key", _edit_counts(lambda c: {**c, "audit": 0})),
    ("digests-not-object", lambda d: {**d, "digests": None}),
    ("no-records", lambda d: _without(d, "records")),
    ("records-not-list", lambda d: {**d, "records": {}}),
    ("record-not-object", _edit_records(lambda r: r["case_id"])),
] + [(f"record-without-{key}", _edit_records(lambda r, key=key: _without(r, key)))
     for key in ("case_id", "split", "image", "mask", "spacing")] + [
    ("case-id-not-string", _edit_records(lambda r: {**r, "case_id": 7})),
    ("split-not-string", _edit_records(lambda r: {**r, "split": None})),
    ("image-not-string", _edit_records(lambda r: {**r, "image": [r["image"]]})),
    ("mask-not-string", _edit_records(lambda r: {**r, "mask": 1})),
    ("spacing-not-list", _edit_records(lambda r: {**r, "spacing": 1.0})),
]


# JSON nested deeper than the parser's recursion limit: 100,000 arrays
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def _deep_container(path):
    path.write_bytes(len(DEEP_JSON).to_bytes(8, "little") + DEEP_JSON)


def _deep_test_volume(data, tmp_path):
    _deep_container(data / "volumes" / "case_0004.image.vol")
    _redigest(data / "volumes", "case_0004.image.vol")


# (id, damage to a copy of the dataset or to the checkpoint eval reads)
DEEP_JSON_FILES = [
    ("checkpoint", lambda data, tmp_path: _deep_container(tmp_path / "c.ckpt")),
    ("test-volume", _deep_test_volume),
    ("manifest",
     lambda data, tmp_path: (data / "manifest.json").write_bytes(DEEP_JSON)),
]


@pytest.mark.parametrize("damage", [case[1] for case in DEEP_JSON_FILES],
                         ids=[case[0] for case in DEEP_JSON_FILES])
def test_deeply_nested_json_is_an_io_error(dataset, four_step_run, tmp_path,
                                           capsys, damage):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    ckpt = tmp_path / "c.ckpt"
    shutil.copy(four_step_run / "checkpoints" / "final.ckpt", ckpt)
    damage(data, tmp_path)
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(ckpt), "--manifest", str(data),
                "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("edit", [case[1] for case in BAD_MANIFESTS],
                         ids=[case[0] for case in BAD_MANIFESTS])
def test_malformed_manifest_is_an_io_error(dataset, tmp_path, capsys, edit):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    capsys.readouterr()
    code = run(["train", "--manifest", str(data), "--out", str(tmp_path / "run")]
               + TINY)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_version_1_manifest_asks_for_a_rebuild(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    manifest = data / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    "version": 1}))
    capsys.readouterr()
    code = run(["train", "--manifest", str(data), "--out", str(tmp_path / "run")]
               + TINY)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1
    assert "build-data" in err
    assert not (tmp_path / "run").exists()


def _drop_split(tag):
    # the manifest stays consistent: its count of the split drops to 0
    key = tag.removesuffix("-train")
    return lambda d: {**d, "counts": {**d["counts"], key: 0},
                      "records": [r for r in d["records"] if r["split"] != tag]}


def _edit_first(split, edit):
    """Edit the manifest's first record of ``split``."""
    def apply(doc):
        first = next(r for r in doc["records"] if r["split"] == split)
        return {**doc, "records": [edit(r) if r is first else r
                                   for r in doc["records"]]}
    return apply


def _flip_last_byte(name):
    """Flip the last byte of the dataset's volume ``name``."""
    def apply(volumes):
        blob = bytearray((volumes / name).read_bytes())
        blob[-1] ^= 0xFF
        (volumes / name).write_bytes(bytes(blob))
    return apply


def _delete(name):
    return lambda volumes: (volumes / name).unlink()


def _redigest(volumes, name):
    """Set the manifest digest of the dataset's volume ``name`` to that of
    its bytes, so that only the volume's content is at fault."""
    manifest = volumes.parent / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["digests"][name] = hashlib.sha256(
        (volumes / name).read_bytes()).hexdigest()
    manifest.write_text(json.dumps(doc))


def _replace_volume(name, arr):
    """Rewrite the dataset's volume ``name`` as ``arr``, with its manifest
    digest updated."""
    def apply(volumes):
        write_array(volumes / name, arr, (1.0,) * arr.ndim)
        _redigest(volumes, name)
    return apply


def _with_nan(shape):
    arr = np.zeros(shape, np.float32)
    arr[(1,) * len(shape)] = np.nan
    return arr


def _square_mask(shape, value):
    # a mask whose foreground is ``value``, not 1
    arr = np.zeros(shape, np.uint8)
    arr[tuple(slice(4, 12) for _ in shape)] = value
    return arr


ALL_COMMANDS = ("train", "eval", "ablate", "sweep-rho")
TRAINING_COMMANDS = ("train", "ablate", "sweep-rho")
TEST_COMMANDS = ("eval", "ablate", "sweep-rho")
# (id, manifest edit, volume damage, category, commands the defect stops);
# a command left out does not use the pool the defect empties or damages:
# train reads the training records' volumes alone, eval the test records'.
# case_0000 is labeled and case_0004 the test case; the dataset's volumes
# are 16x16
DATASET_DEFECTS = [
    ("unknown-split-tag", _edit_first("test", lambda r: {**r, "split": "val"}),
     None, "io", ALL_COMMANDS),
    ("no-test-records", _drop_split("test"), None, "data", TEST_COMMANDS),
    ("empty-unlabeled-pool", _drop_split("unlabeled-train"), None, "data",
     TRAINING_COMMANDS),
    ("no-labeled-records", _drop_split("labeled-train"), None, "data",
     TRAINING_COMMANDS),
    ("test-record-without-mask", _edit_first("test", lambda r: {**r, "mask": None}),
     None, "io", ALL_COMMANDS),
    ("unlabeled-record-with-mask",
     _edit_first("unlabeled-train",
                 lambda r: {**r, "mask": "case_0000.mask.vol"}),
     None, "io", ALL_COMMANDS),
    ("digest-mismatch", None, _flip_last_byte("case_0000.image.vol"), "data",
     TRAINING_COMMANDS),
    ("missing-volume", None, _delete("case_0000.image.vol"), "data",
     TRAINING_COMMANDS),
    ("mask-not-the-image-shape", None,
     _replace_volume("case_0000.mask.vol", np.zeros((8, 8), np.uint8)), "data",
     TRAINING_COMMANDS),
    ("image-not-finite", None,
     _replace_volume("case_0000.image.vol", _with_nan((16, 16))), "data",
     TRAINING_COMMANDS),
    ("mask-not-binary", None,
     _replace_volume("case_0000.mask.vol", _square_mask((16, 16), 2)), "data",
     TRAINING_COMMANDS),
    ("test-digest-mismatch", None, _flip_last_byte("case_0004.image.vol"),
     "data", TEST_COMMANDS),
    ("test-volume-missing", None, _delete("case_0004.mask.vol"), "data",
     TEST_COMMANDS),
    ("test-mask-not-the-image-shape", None,
     _replace_volume("case_0004.mask.vol", np.zeros((8, 8), np.uint8)), "data",
     TEST_COMMANDS),
    ("test-image-not-finite", None,
     _replace_volume("case_0004.image.vol", _with_nan((16, 16))), "data",
     TEST_COMMANDS),
    ("test-mask-not-binary", None,
     _replace_volume("case_0004.mask.vol", _square_mask((16, 16), 255)),
     "data", TEST_COMMANDS),
]
DEFECT_CASES = [(f"{defect}-{command}", command, *case)
                for defect, *case, commands in DATASET_DEFECTS
                for command in commands]


@pytest.mark.parametrize("command, edit, damage, category",
                         [case[1:] for case in DEFECT_CASES],
                         ids=[case[0] for case in DEFECT_CASES])
def test_dataset_defect_stops_the_command_before_out(
        dataset, four_step_run, tmp_path, capsys, command, edit, damage,
        category):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    if edit is not None:
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    if damage is not None:
        damage(data / "volumes")
    out = tmp_path / "out"
    flags = {"train": TINY, "ablate": TINY + ["--seeds", "0"],
             "sweep-rho": TINY + ["--values", "2", "--seeds", "0"],
             "eval": ["--checkpoint",
                      str(four_step_run / "checkpoints" / "final.ckpt")]}
    capsys.readouterr()
    code = run([command, "--manifest", str(data), "--out", str(out)]
               + flags[command])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error category={category} message=")
    assert err.count("\n") == 1
    assert not out.exists()


def test_eval_reads_only_the_test_volumes(dataset, four_step_run, tmp_path):
    # every training volume gone, the manifest intact: eval writes the
    # metrics of the whole dataset
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    for record in doc["records"]:
        if record["split"] != "test":
            for name in (record["image"], record["mask"]):
                if name is not None:
                    (data / "volumes" / name).unlink()
    checkpoint = ["--checkpoint",
                  str(four_step_run / "checkpoints" / "final.ckpt")]
    for source, out in ((dataset, "whole"), (data, "test-only")):
        assert run(["eval", "--manifest", str(source),
                    "--out", str(tmp_path / out)] + checkpoint) == 0
    for name in ("metrics.csv", "metrics.json"):
        assert (tmp_path / "test-only" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()


def test_train_reads_no_test_volume(dataset, tmp_path):
    # every test volume gone, the manifest intact: train writes the loss
    # rows of the whole dataset
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    doc = json.loads((data / "manifest.json").read_text())
    for record in doc["records"]:
        if record["split"] == "test":
            for name in (record["image"], record["mask"]):
                (data / "volumes" / name).unlink()
    for source, out in ((dataset, "whole"), (data, "no-test")):
        assert run(["train", "--manifest", str(source),
                    "--out", str(tmp_path / out)] + TINY) == 0
    assert (tmp_path / "no-test" / "loss.csv").read_bytes() \
        == (tmp_path / "whole" / "loss.csv").read_bytes()


# (id, flags that override TINY's, config file, error text); the
# dataset's volumes are 16x16
CROP_MISFITS = [
    ("crop-larger-than-the-volumes", ["--crop", "32x32"], None,
     "smaller than crop"),
    ("crop-rank-not-the-datasets", ["--crop", "16x16x16"],
     '{"network": {"rank": 3}}', "rank does not match"),
]


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-rho"])
@pytest.mark.parametrize("flags, config, message",
                         [case[1:] for case in CROP_MISFITS],
                         ids=[case[0] for case in CROP_MISFITS])
def test_crop_that_does_not_fit_the_dataset_stops_before_out(
        dataset, tmp_path, capsys, command, flags, config, message):
    out = tmp_path / "out"
    argv = [command, "--manifest", str(dataset), "--out", str(out)] + TINY \
        + flags + {"train": [], "ablate": ["--seeds", "0"],
                   "sweep-rho": ["--values", "2", "--seeds", "0"]}[command]
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        argv += ["--config", str(tmp_path / "config.json")]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=data message=")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_ablate_schema(dataset, tmp_path):
    out = tmp_path / "abl"
    code = run(["ablate", "--manifest", str(dataset), "--out", str(out),
                "--seeds", "0"] + TINY)
    assert code == 0
    with open(out / "ablation.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["config", "seed", "dice", "jaccard", "asd", "hd95",
                       "schema"]
    body = rows[1:]
    assert [r[0] for r in body[:5]] == ["seg", "seg+sdf", "mc", "gc", "wgc"]
    assert len(body) == 10  # 5 configs x 1 seed + 5 mean rows
    mean_rows = [r for r in body if r[1] == "mean"]
    assert [r[0] for r in mean_rows] == ["seg", "seg+sdf", "mc", "gc", "wgc"]
    assert all(r[-1] == "ablate_v1" for r in body)


def test_sweep_rho_single_value(dataset, tmp_path):
    out = tmp_path / "sweep"
    code = run(["sweep-rho", "--manifest", str(dataset), "--out", str(out),
                "--values", "2.0", "--seeds", "5"] + TINY)
    assert code == 0
    with open(out / "sweep.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0][:2] == ["rho", "seed"]
    assert len(rows) == 2  # single train+eval, no mean rows
    assert rows[1][0] == "2" and rows[1][1] == "5"
    assert (out / "runs" / "rho2_s5").is_dir()


def _check_mean_rows(path, labels, seeds):
    """Each label's mean row holds, per metric, the mean of its per-seed
    cells over the seeds where the metric is defined ("" if none is)."""
    with open(path) as f:
        body = list(csv.reader(f))[1:]
    runs = body[:len(labels) * len(seeds)]
    assert [(r[0], r[1]) for r in runs] == [(label, str(seed)) for label in labels
                                            for seed in seeds]
    means = body[len(runs):]
    assert [(r[0], r[1]) for r in means] == [(label, "mean") for label in labels]
    for mean in means:
        cells = [r[2:6] for r in runs if r[0] == mean[0]]
        for col, got in enumerate(mean[2:6]):
            vals = [float(c[col]) for c in cells if c[col] != ""]
            if vals:
                assert float(got) == np.mean(vals)
            else:
                assert got == ""


def test_ablate_mean_rows_average_the_seeds(dataset, tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", "--manifest", str(dataset), "--out", str(out),
                "--seeds", "0,1"] + TINY) == 0
    _check_mean_rows(out / "ablation.csv",
                     ["seg", "seg+sdf", "mc", "gc", "wgc"], [0, 1])


def test_sweep_rho_mean_rows_average_the_seeds(dataset, tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep-rho", "--manifest", str(dataset), "--out", str(out),
                "--values", "1.5,2.5", "--seeds", "0,1"] + TINY) == 0
    _check_mean_rows(out / "sweep.csv", ["1.5", "2.5"], [0, 1])
    assert sorted(p.name for p in (out / "runs").iterdir()) == [
        "rho1.5_s0", "rho1.5_s1", "rho2.5_s0", "rho2.5_s1"]


BAD_CONFIGS = [
    ("truncated-json", '{"t_max": 3', "not valid JSON"),
    ("not-json", "t_max = 3", "not valid JSON"),
    ("array-document", "[1, 2]", "must be a JSON object"),
    ("unknown-top-level-key", '{"bogus": 1}', "unknown config key(s): bogus"),
    ("unknown-loss-key", '{"loss": {"bogus": 1}}',
     "unknown config.loss key(s): bogus"),
    ("unknown-network-key", '{"network": {"width": 4, "bogus": 1}}',
     "unknown config.network key(s): bogus"),
    ("loss-not-object", '{"loss": 5}', "config.loss must be a JSON object"),
    ("removed-deterministic-key", '{"deterministic": true}',
     "unknown config key(s): deterministic"),
    ("removed-keep-degenerate-crops-key", '{"keep_degenerate_crops": true}',
     "unknown config key(s): keep_degenerate_crops"),
    ("removed-augment-unlabeled-key", '{"augment_unlabeled": false}',
     "unknown config key(s): augment_unlabeled"),
    ("int-field-nan", '{"checkpoint_every": NaN}',
     "config.checkpoint_every must be an int"),
    ("int-field-float", '{"network": {"width": 4.0}}',
     "config.network.width must be an int"),
    ("float-field-bool", '{"loss": {"rho": true}}',
     "config.loss.rho must be a number"),
    ("mistyped-crop", '{"crop": 5}', "config.crop must be a list of ints"),
    ("crop-float", '{"crop": [32.7, 32]}', "config.crop must be a list of ints"),
    ("crop-string", '{"crop": ["32", 32]}', "config.crop must be a list of ints"),
    ("negative-seed", '{"seed": -1}', "seed must be >= 0"),
    ("negative-network-seed", '{"network": {"seed": -3}}', "seed must be >= 0"),
    ("removed-sign-mode-key", '{"loss": {"sign_mode": "inside-negative"}}',
     "unknown config.loss key(s): sign_mode"),
    ("removed-dice-eps-key", '{"loss": {"dice_eps": 1e-5}}',
     "unknown config.loss key(s): dice_eps"),
    ("removed-normalization-key", '{"network": {"normalization": "instance"}}',
     "unknown config.network key(s): normalization"),
    ("removed-in-channels-key", '{"network": {"in_channels": 1}}',
     "unknown config.network key(s): in_channels"),
    ("in-channels-not-one", '{"network": {"in_channels": 2}}',
     "unknown config.network key(s): in_channels"),
    ("removed-lr-decay-key", '{"lr_decay": 0.1}',
     "unknown config key(s): lr_decay"),
    ("removed-momentum-key", '{"momentum": 0.9}',
     "unknown config key(s): momentum"),
    ("removed-augment-key", '{"augment": true}',
     "unknown config key(s): augment"),
    ("removed-ramp-power-key", '{"loss": {"ramp_power": 1}}',
     "unknown config.loss key(s): ramp_power"),
    ("nested-too-deep", "[" * 100_000 + "]" * 100_000, "not valid JSON"),
    ("depth-10**30", '{"network": {"depth": %d}}' % 10**30,
     "depth must be in [1, 62]"),
    # the test's --width 4 overrides a width in the file, so the shape check
    # is reached through the depth: width 4 at depth 40 has a 2^83-element
    # kernel
    ("network-too-large", '{"network": {"depth": 40}}',
     "too large for an array"),
]


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-rho"])
@pytest.mark.parametrize("text, message",
                         [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_malformed_config_is_a_config_error(tmp_path, capsys, command, text,
                                            message):
    config = tmp_path / "config.json"
    config.write_text(text)
    code = run([command, "--manifest", str(tmp_path / "absent"),
                "--out", str(tmp_path / "out"), "--config", str(config),
                "--beta", "0.5", "--width", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=config message=")
    assert message in err
    assert not (tmp_path / "out").exists()


def _assert_config_error_before_out(capsys, code, out):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=config message=")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-rho"])
@pytest.mark.parametrize("flag", ["--depth", "--width"])
def test_network_numpy_cannot_hold_is_a_config_error(tmp_path, capsys,
                                                     command, flag):
    out = tmp_path / "out"
    code = run([command, "--manifest", str(tmp_path / "absent"), "--out",
                str(out), flag, str(10**30)])
    _assert_config_error_before_out(capsys, code, out)


def _assert_memory_error(capsys, code):
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=memory message=Unable to allocate ")
    assert err.count("\n") == 1


def test_allocation_numpy_refuses_is_a_memory_error(tmp_path, capsys):
    # a terabyte request, which the kernel refuses at once: a 10^12-voxel
    # phantom (an eval window past the case is refused before it pads,
    # BAD_EVAL_WINDOWS)
    data = tmp_path / "data"
    build = ["build-data", "--labeled", "1", "--unlabeled", "0", "--test",
             "1", "--out", str(data), "--shape"]
    _assert_memory_error(capsys, run(build + ["1000000x1000000"]))
    assert not data.exists() or list(data.iterdir()) == []
    # so the same command at a valid shape needs no --force
    assert run(build + ["16x16"]) == 0
    assert (data / "manifest.json").is_file()


# (id, eval flags); the 4-step run's net has depth 2, so windows are
# multiples of 4, and the dataset is 2D, of 16x16 cases
BAD_EVAL_WINDOWS = [
    ("zero-window", ["--window", "0x0"]),
    ("stride-past-window", ["--window", "8x8", "--stride", "16x16"]),
    ("window-not-multiple", ["--window", "10x10"]),
    ("rank-mismatch", ["--window", "16x16x16"]),
    ("unparsable-window", ["--window", "sixteen"]),
    ("window-past-the-case", ["--window", "4194304x4194304"]),
    ("window-a-step-past-the-case", ["--window", "16x20"]),
]


@pytest.mark.parametrize("flags", [case[1] for case in BAD_EVAL_WINDOWS],
                         ids=[case[0] for case in BAD_EVAL_WINDOWS])
def test_bad_eval_window_is_a_config_error(dataset, four_step_run, tmp_path,
                                           capsys, flags):
    out = tmp_path / "eval"
    capsys.readouterr()
    code = run(["eval", "--checkpoint",
                str(four_step_run / "checkpoints" / "final.ckpt"),
                "--manifest", str(dataset), "--out", str(out)] + flags)
    _assert_config_error_before_out(capsys, code, out)


def test_eval_of_a_3d_net_on_2d_data_is_a_config_error(dataset, tmp_path,
                                                       capsys):
    ckpt = tmp_path / "net3d.ckpt"
    save_checkpoint(ckpt, DualDecoderNet(NetworkConfig(rank=3, width=2,
                                                       depth=1)))
    out = tmp_path / "eval"
    capsys.readouterr()
    code = run(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset),
                "--out", str(out)])
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("crop", ["0x0", "-8x-8", "0x64"])
def test_nonpositive_crop_is_a_config_error(tmp_path, capsys, crop):
    out = tmp_path / "out"
    code = run(["train", "--manifest", str(tmp_path / "absent"), "--out",
                str(out), f"--crop={crop}"])
    _assert_config_error_before_out(capsys, code, out)


# every float field of TrainConfig and LossConfig, with its flag if it has one
FLOAT_FIELDS = [("base_lr", "--lr"), ("loss.rho", "--rho"),
                ("loss.k", "--k"), ("loss.beta", "--beta"),
                ("loss.lambda_max", "--lambda-max")]
NON_FINITE = [(f"{field}-{value}-{via}", field, flag, value, via)
              for field, flag in FLOAT_FIELDS for value in ("nan", "inf")
              for via in ("config", "flag") if via == "config" or flag]


@pytest.mark.parametrize("field, flag, value, via",
                         [case[1:] for case in NON_FINITE],
                         ids=[case[0] for case in NON_FINITE])
def test_non_finite_float_field_is_a_config_error(tmp_path, capsys, field,
                                                  flag, value, via):
    out = tmp_path / "out"
    argv = ["train", "--manifest", str(tmp_path / "absent"), "--out", str(out)]
    if via == "flag":
        argv.append(f"{flag}={value}")
    else:
        *section, key = field.split(".")
        doc = {key: float(value)}   # json writes NaN / Infinity
        for name in section:
            doc = {name: doc}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv += ["--config", str(config)]
    _assert_config_error_before_out(capsys, run(argv), out)


@pytest.mark.parametrize("flag, value", [
    ("--contrast", "nan"), ("--contrast", "inf"), ("--noise-sigma", "nan"),
    ("--noise-sigma", "inf"), ("--noise-sigma", "-1"), ("--blur-sigma", "nan"),
    ("--blur-sigma", "inf"), ("--blur-sigma", "-1")])
def test_bad_phantom_param_is_a_config_error(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    code = run(["build-data", "--labeled", "1", "--unlabeled", "0", "--test",
                "1", "--shape", "16x16", "--out", str(out), f"{flag}={value}"])
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("flags", [
    ["--labeled", "0"], ["--test", "0"], ["--unlabeled", "-1"],
    ["--shape", "8x8"], ["--shape", "16"], ["--shape", "16x16x16x16"],
    ["--seed", "-1"]],
    ids=["labeled-0", "test-0", "unlabeled--1", "shape-8x8", "shape-16",
         "shape-16x16x16x16", "seed--1"])
def test_bad_build_data_input_is_a_config_error(tmp_path, capsys, flags):
    out = tmp_path / "data"
    argv = {"--labeled": "1", "--unlabeled": "0", "--test": "1",
            "--shape": "16x16", **dict([flags])}
    code = run(["build-data", "--out", str(out)]
               + [part for item in argv.items() for part in item])
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("command, flag, value", [
    ("ablate", "--seeds", ""), ("ablate", "--seeds", "0,0"),
    ("sweep-rho", "--seeds", ""), ("sweep-rho", "--seeds", "1,1"),
    ("sweep-rho", "--values", ""), ("sweep-rho", "--values", "1,1"),
    ("sweep-rho", "--values", "2,2.0"), ("sweep-rho", "--values", "1,nan")])
def test_empty_or_duplicate_grid_is_a_config_error(dataset, tmp_path, capsys,
                                                   command, flag, value):
    out = tmp_path / "out"
    code = run([command, "--manifest", str(dataset), "--out", str(out),
                f"{flag}={value}"] + TINY)
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--seed", "-1"), ("ablate", "--seeds", "-1"),
    ("sweep-rho", "--seeds", "0,-1")])
def test_negative_seed_is_a_config_error(tmp_path, capsys, command, flag,
                                         value):
    out = tmp_path / "out"
    code = run([command, "--manifest", str(tmp_path / "absent"), "--out",
                str(out), f"{flag}={value}"])
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("command", ["train", "ablate", "sweep-rho"])
@pytest.mark.parametrize("flag, value", [("--sign-mode", "literal"),
                                         ("--norm", "none")])
def test_removed_flags_fail_to_parse(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run([command, "--manifest", str(tmp_path / "absent"), "--out",
             str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


# (command, the flags it needs to parse, a flag it does not read): only
# build-data and train read --seed (ablate and sweep-rho read --seeds), and
# only train, ablate and sweep-rho read --config
UNREAD_FLAGS = [
    ("build-data", ["--labeled", "1", "--unlabeled", "0", "--test", "1"],
     "--config", "cfg.json"),
    ("eval", ["--checkpoint", "c.ckpt", "--manifest", "m"], "--config",
     "cfg.json"),
    ("eval", ["--checkpoint", "c.ckpt", "--manifest", "m"], "--seed", "9"),
    ("export-maps", ["--mask", "m.vol"], "--config", "cfg.json"),
    ("export-maps", ["--mask", "m.vol"], "--seed", "9"),
    ("ablate", ["--manifest", "m"], "--seed", "9"),
    ("sweep-rho", ["--manifest", "m"], "--seed", "9"),
    # every ablate member sets the consistency term, and every sweep-rho
    # member it and rho
    ("ablate", ["--manifest", "m"], "--mode", "gc"),
    ("sweep-rho", ["--manifest", "m"], "--mode", "gc"),
    ("sweep-rho", ["--manifest", "m"], "--rho", "9"),
    # the momentum and the ramp exponent are fixed
    ("train", ["--manifest", "m"], "--momentum", "0.5"),
    ("ablate", ["--manifest", "m"], "--momentum", "0.5"),
    ("sweep-rho", ["--manifest", "m"], "--momentum", "0.5"),
    ("train", ["--manifest", "m"], "--ramp-power", "2"),
    ("ablate", ["--manifest", "m"], "--ramp-power", "2"),
    ("sweep-rho", ["--manifest", "m"], "--ramp-power", "2"),
]


@pytest.mark.parametrize("command, needed, flag, value", UNREAD_FLAGS,
                         ids=[f"{c[0]}{c[2]}" for c in UNREAD_FLAGS])
def test_flags_a_command_does_not_read_fail_to_parse(tmp_path, capsys,
                                                     command, needed, flag,
                                                     value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run([command] + needed + ["--out", str(out), flag, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


TRAIN_CONFIG_FLAGS = [
    "--t-max", "--crop", "--lr", "--lr-decay-every", "--labeled-per-batch",
    "--unlabeled-per-batch", "--checkpoint-every", "--mode", "--rho", "--k",
    "--beta", "--lambda-max", "--width", "--depth"]
COMMAND_OPTIONS = {
    "train": ["-h", "--help", "--out", "--force", "--seed", "--resume-from",
              "--manifest", "--config"] + TRAIN_CONFIG_FLAGS,
    "ablate": ["-h", "--help", "--out", "--force", "--seeds", "--manifest",
               "--config"] + [f for f in TRAIN_CONFIG_FLAGS if f != "--mode"],
    "sweep-rho": ["-h", "--help", "--out", "--force", "--values", "--seeds",
                  "--manifest", "--config"]
    + [f for f in TRAIN_CONFIG_FLAGS if f not in ("--mode", "--rho")],
}


def test_each_config_flag_names_a_config_field():
    sections = {"": TrainConfig, "loss": LossConfig, "network": NetworkConfig}
    for flag, _, path in CONFIG_FLAGS:
        section, _, name = path.rpartition(".")
        assert name in {f.name for f in fields(sections[section])}, flag
    assert [row[0] for row in CONFIG_FLAGS] == TRAIN_CONFIG_FLAGS
    assert len({row[2] for row in CONFIG_FLAGS}) == len(CONFIG_FLAGS)


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_option_strings(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [s for a in sub.choices[command]._actions
               for s in a.option_strings]
    assert options == COMMAND_OPTIONS[command]
    assert len([f for f in options if f in TRAIN_CONFIG_FLAGS]) == {
        "train": 14, "ablate": 13, "sweep-rho": 12}[command]


def test_every_config_flag_sets_its_field(dataset, tmp_path):
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(dataset), "--out", str(out),
                "--seed", "6", "--t-max", "3", "--crop", "16x16",
                "--lr", "0.02", "--lr-decay-every", "2",
                "--labeled-per-batch", "3", "--unlabeled-per-batch", "1",
                "--checkpoint-every", "3", "--mode", "supervised-only",
                "--rho", "1.5", "--k", "99", "--beta", "0.2",
                "--lambda-max", "0.4", "--width", "3",
                "--depth", "2"])
    assert code == 0
    want = TrainConfig(
        t_max=3, labeled_per_batch=3, unlabeled_per_batch=1, crop=(16, 16),
        base_lr=0.02, lr_decay_every=2, seed=6,
        checkpoint_every=3,
        loss=LossConfig(rho=1.5, k=99.0, beta=0.2, lambda_max=0.4,
                        consistency="none"),
        network=NetworkConfig(width=3, depth=2, seed=6))
    assert (out / "config.json").read_text() == json.dumps(
        asdict(want), indent=1, sort_keys=True) + "\n"


def test_config_file_sections_merge_with_flags(dataset, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"loss": {"rho": 1.5}, "network": {"width": 3}}')
    out = tmp_path / "run"
    code = run(["train", "--manifest", str(dataset), "--out", str(out),
                "--config", str(config)] + TINY[:2] + TINY[4:])
    assert code == 0
    snapshot = json.loads((out / "config.json").read_text())
    assert snapshot["loss"]["rho"] == 1.5 and snapshot["loss"]["k"] == 20
    assert snapshot["network"]["width"] == 3
    assert "deterministic" not in snapshot


def _parse_pgm(path):
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n")
    header, rest = blob.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    return np.frombuffer(rest, dtype=np.uint8).reshape(h, w)


def test_export_maps_from_mask(tmp_path):
    from geoseg.geometry import boundary_voxels
    mask = random_blob_mask(rng, (24, 24)).astype(np.uint8)
    write_array(tmp_path / "mask.vol", mask, (1.0, 1.0))
    out = tmp_path / "maps"
    code = run(["export-maps", "--mask", str(tmp_path / "mask.vol"),
                "--rho", "1,2,3", "--out", str(out)])
    assert code == 0

    sdm, _ = read_array(out / "sdm.vol")
    assert sdm.dtype == np.float32

    means = []
    for rho in (1, 2, 3):
        weights, _ = read_array(out / f"weights_rho{rho}.vol")
        means.append(weights.mean())
        pixels = _parse_pgm(out / f"weights_rho{rho}_slice.pgm")
        # the 255 maxima sit exactly on the boundary voxels
        np.testing.assert_array_equal(pixels == 255, boundary_voxels(mask))
        # pixel values recompute exactly from the exported volume
        want = weights_to_pixels(weights.astype(np.float64), float(rho))
        np.testing.assert_array_equal(pixels, want)
    assert means[0] > means[1] > means[2]


def test_export_maps_non_finite_rho_is_a_config_error(tmp_path, capsys):
    write_array(tmp_path / "mask.vol", random_blob_mask(rng, (24, 24)).astype(
        np.uint8), (1.0, 1.0))
    for rho in ("1,nan", "inf"):
        out = tmp_path / "maps"
        code = run(["export-maps", "--mask", str(tmp_path / "mask.vol"),
                    "--rho", rho, "--out", str(out)])
        _assert_config_error_before_out(capsys, code, out)


def test_export_maps_mask_with_image_is_a_config_error(tmp_path, capsys):
    mask = random_blob_mask(rng, (24, 24)).astype(np.uint8)
    write_array(tmp_path / "mask.vol", mask, (1.0, 1.0))
    write_array(tmp_path / "image.vol", mask.astype(np.float32), (1.0, 1.0))
    out = tmp_path / "maps"
    code = run(["export-maps", "--mask", str(tmp_path / "mask.vol"),
                "--image", str(tmp_path / "image.vol"), "--out", str(out)])
    _assert_config_error_before_out(capsys, code, out)


@pytest.mark.parametrize("shape", [(24,), (4, 4, 4, 4)], ids=["1d", "4d"])
def test_export_maps_mask_not_2d_or_3d_stops_before_out(tmp_path, capsys,
                                                        shape):
    write_array(tmp_path / "mask.vol", np.ones(shape, np.uint8),
                (1.0,) * len(shape))
    out = tmp_path / "maps"
    capsys.readouterr()
    code = run(["export-maps", "--mask", str(tmp_path / "mask.vol"),
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=shape message=")
    assert err.count("\n") == 1
    assert not out.exists()


def test_export_maps_requires_one_source(tmp_path, capsys):
    code = run(["export-maps", "--out", str(tmp_path / "m")])
    assert code != 0
    assert "error category=config" in capsys.readouterr().err


def test_export_maps_from_checkpoint(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert run(["train", "--manifest", str(dataset), "--out", str(run_dir)]
               + TINY) == 0
    image = next((dataset / "volumes").glob("*.image.vol"))
    out = tmp_path / "maps"
    code = run(["export-maps", "--checkpoint",
                str(run_dir / "checkpoints" / "final.ckpt"),
                "--image", str(image), "--rho", "2", "--out", str(out)])
    assert code == 0
    assert (out / "weights_rho2.vol").exists()
    assert (out / "sdm_slice.pgm").exists()


def test_export_maps_of_a_non_finite_image_stops_before_out(
        four_step_run, tmp_path, capsys):
    write_array(tmp_path / "image.vol", _with_nan((16, 16)), (1.0, 1.0))
    out = tmp_path / "maps"
    capsys.readouterr()
    code = run(["export-maps", "--checkpoint",
                str(four_step_run / "checkpoints" / "final.ckpt"), "--image",
                str(tmp_path / "image.vol"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=data message=")
    assert "non-finite" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_export_maps_from_checkpoint_is_decoder_one_sdm(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert run(["train", "--manifest", str(dataset), "--out", str(run_dir)]
               + TINY) == 0
    # 18x21 pads to 20x24 at depth 2
    image = rng.standard_normal((18, 21)).astype(np.float32)
    write_array(tmp_path / "image.vol", image, (1.0, 1.0))
    ckpt = run_dir / "checkpoints" / "final.ckpt"
    out = tmp_path / "maps"
    assert run(["export-maps", "--checkpoint", str(ckpt), "--image",
                str(tmp_path / "image.vol"), "--rho", "2", "--out",
                str(out)]) == 0
    # the float32 forward's map, which the average over one window keeps
    net, _, _ = net_from_checkpoint(ckpt)
    padded = np.zeros((1, 1, 20, 24), dtype=np.float32)
    padded[0, 0, :18, :21] = image
    with no_grad():
        sdm1 = net.astype(np.float32).forward(
            Tensor(padded)).sdm1.data[0, 0, :18, :21]
    assert read_array(out / "sdm.vol")[0].tobytes() == sdm1.astype("<f4").tobytes()
