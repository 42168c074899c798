"""Truncation fuzz over the three on-disk formats.

A checkpoint (8-byte header length, JSON header, tensor payload), a volume
(JSON header plus raw payload) and a dataset manifest are each cut short:
every JSON document and the checkpoint header at every byte, each payload
at every 7th or 13th byte.  Every cut must be refused with a GeoSegError.
The one cut left out removes only a trailing newline, which leaves the
JSON before it complete.
"""

import shutil

import pytest

from geoseg.cli import main
from geoseg.data import build_dataset, load_manifest, read_array
from geoseg.errors import GeoSegError
from geoseg.network import DualDecoderNet, NetworkConfig, load_checkpoint, \
    save_checkpoint

IMAGE = "data/volumes/case_0000.image"


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """A 16x16 two-record dataset and a width-2, depth-1 checkpoint."""
    root = tmp_path_factory.mktemp("fuzz")
    build_dataset(root / "data", n_labeled=1, n_unlabeled=0, n_test=1,
                  shape=(16, 16), seed=0)
    save_checkpoint(root / "net.ckpt",
                    DualDecoderNet(NetworkConfig(width=2, depth=1)))
    return root


@pytest.fixture
def work(originals, tmp_path):
    shutil.copytree(originals, tmp_path / "work")
    return tmp_path / "work"


def _json_cuts(blob):
    return range(len(blob.rstrip(b"\n")))


def _payload_cuts(blob, start=0):
    return [n for n in range(start, len(blob))
            if (n - start) % 7 == 0 or (n - start) % 13 == 0]


def _checkpoint_cuts(blob):
    payload = 8 + int.from_bytes(blob[:8], "little")
    return [*range(payload), *_payload_cuts(blob, payload)]


def _load_checkpoint(work):
    load_checkpoint(work / "net.ckpt")


def _load_volume(work):
    read_array(work / f"{IMAGE}.json")


def _load_manifest(work):
    load_manifest(work / "data")


# (id, file cut, its cut positions, load)
FORMATS = [
    ("checkpoint", "net.ckpt", _checkpoint_cuts, _load_checkpoint),
    ("volume-header", f"{IMAGE}.json", _json_cuts, _load_volume),
    ("volume-payload", f"{IMAGE}.raw", _payload_cuts, _load_volume),
    ("manifest", "data/manifest.json", _json_cuts, _load_manifest),
]


@pytest.mark.parametrize("rel, cuts, load", [case[1:] for case in FORMATS],
                         ids=[case[0] for case in FORMATS])
def test_every_truncation_is_refused(work, rel, cuts, load):
    target = work / rel
    blob = target.read_bytes()
    positions = cuts(blob)
    assert len(positions) > 100
    for n in positions:
        target.write_bytes(blob[:n])
        with pytest.raises(GeoSegError):
            load(work)


# (id, file cut in half, command reading it)
CLI_CASES = [
    ("checkpoint", "net.ckpt",
     lambda w: ["eval", "--checkpoint", w / "net.ckpt", "--manifest",
                w / "data"]),
    ("volume", f"{IMAGE}.json",
     lambda w: ["export-maps", "--checkpoint", w / "net.ckpt", "--image",
                w / f"{IMAGE}.json"]),
    ("manifest", "data/manifest.json",
     lambda w: ["train", "--manifest", w / "data", "--t-max", "1"]),
]


@pytest.mark.parametrize("rel, argv", [case[1:] for case in CLI_CASES],
                         ids=[case[0] for case in CLI_CASES])
def test_truncated_file_is_a_one_line_cli_error(work, capsys, rel, argv):
    target = work / rel
    blob = target.read_bytes()
    target.write_bytes(blob[:len(blob) // 2])
    capsys.readouterr()
    code = main([str(a) for a in argv(work)] + ["--out", str(work / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error category=io message=")
    assert err.count("\n") == 1
