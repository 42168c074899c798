"""Command-line surface: every subcommand end to end on tiny runs."""

import csv
import json

import numpy as np
import pytest

from geoseg.cli import main, weights_to_pixels
from geoseg.data import read_array, write_array
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
    ("mistyped-crop", '{"crop": 5}', "invalid config value"),
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
                "--rho", "2.0", "--width", "4"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=config message=")
    assert message in err
    assert not (tmp_path / "out").exists()


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
    write_array(tmp_path / "mask", mask, (1.0, 1.0))
    out = tmp_path / "maps"
    code = run(["export-maps", "--mask", str(tmp_path / "mask.json"),
                "--rho", "1,2,3", "--out", str(out)])
    assert code == 0

    sdm, _ = read_array(out / "sdm.json")
    assert sdm.dtype == np.float32

    means = []
    for rho in (1, 2, 3):
        weights, _ = read_array(out / f"weights_rho{rho}.json")
        means.append(weights.mean())
        pixels = _parse_pgm(out / f"weights_rho{rho}_slice.pgm")
        # the 255 maxima sit exactly on the boundary voxels
        np.testing.assert_array_equal(pixels == 255, boundary_voxels(mask))
        # pixel values recompute exactly from the exported volume
        want = weights_to_pixels(weights.astype(np.float64), float(rho))
        np.testing.assert_array_equal(pixels, want)
    assert means[0] > means[1] > means[2]


def test_export_maps_requires_one_source(tmp_path, capsys):
    code = run(["export-maps", "--out", str(tmp_path / "m")])
    assert code != 0
    assert "error category=config" in capsys.readouterr().err


def test_export_maps_from_checkpoint(dataset, tmp_path):
    run_dir = tmp_path / "run"
    assert run(["train", "--manifest", str(dataset), "--out", str(run_dir)]
               + TINY) == 0
    image_json = next((dataset / "volumes").glob("*.image.json"))
    out = tmp_path / "maps"
    code = run(["export-maps", "--checkpoint",
                str(run_dir / "checkpoints" / "final.ckpt"),
                "--image", str(image_json), "--rho", "2", "--out", str(out)])
    assert code == 0
    assert (out / "weights_rho2.raw").exists()
    assert (out / "sdm_slice.pgm").exists()
