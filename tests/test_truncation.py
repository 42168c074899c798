"""Truncation fuzz over the two on-disk formats.

A checkpoint and a volume are both containers (8-byte header length, JSON
header, tensor payload); a dataset manifest is a JSON document.  Each is
cut short: the manifest and each container's length and header at every
byte, each container payload at every 7th or 13th byte.  The volume's
header and payload cuts are separate rows.  Every cut must be
refused with a GeoSegError.  The one cut left out removes only the
manifest's trailing newline, which leaves the JSON before it complete.
"""

import shutil

import pytest

from geoseg.cli import main
from geoseg.data import build_dataset, load_manifest, read_array
from geoseg.errors import GeoSegError
from geoseg.network import DualDecoderNet, NetworkConfig, load_checkpoint, \
    save_checkpoint

IMAGE = "data/volumes/case_0000.image.vol"


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


def _header_cuts(blob):
    return range(8 + int.from_bytes(blob[:8], "little"))


def _body_cuts(blob):
    return _payload_cuts(blob, 8 + int.from_bytes(blob[:8], "little"))


def _container_cuts(blob):
    return [*_header_cuts(blob), *_body_cuts(blob)]


def _load_checkpoint(work):
    load_checkpoint(work / "net.ckpt")


def _load_volume(work):
    read_array(work / IMAGE)


def _load_manifest(work):
    load_manifest(work / "data")


# (id, file cut, its cut positions, load)
FORMATS = [
    ("checkpoint", "net.ckpt", _container_cuts, _load_checkpoint),
    ("volume-header", IMAGE, _header_cuts, _load_volume),
    ("volume-payload", IMAGE, _body_cuts, _load_volume),
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
    ("volume", IMAGE,
     lambda w: ["export-maps", "--checkpoint", w / "net.ckpt", "--image",
                w / IMAGE]),
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
