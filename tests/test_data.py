"""Container round-trips, atomic writes, phantom generator, dataset manifests."""

import ast
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geoseg
from geoseg import data
from geoseg.data import (PhantomParams, build_dataset, generate_phantom,
                         load_manifest, load_split, read_array, write_array)
from geoseg.errors import DataError, FileFormatError
from geoseg.network import DualDecoderNet, NetworkConfig, load_checkpoint, \
    save_checkpoint

rng = np.random.default_rng(41)


# -- volume container ----------------------------------------------------------


def test_array_round_trip_float32(tmp_path):
    arr = rng.standard_normal((9, 7)).astype(np.float32)
    write_array(tmp_path / "vol.vol", arr, (1.0, 1.0))
    back, spacing = read_array(tmp_path / "vol.vol")
    assert back.dtype == np.float32 and spacing == (1.0, 1.0)
    assert back.tobytes() == arr.tobytes()


def test_array_round_trip_uint8(tmp_path):
    arr = (rng.random((4, 5, 6)) < 0.5).astype(np.uint8)
    write_array(tmp_path / "m.vol", arr, (1.0, 1.0, 2.5))
    back, _ = read_array(tmp_path / "m.vol")
    assert back.dtype == np.uint8
    np.testing.assert_array_equal(back, arr)


def _payload(path):
    blob = path.read_bytes()
    return blob[8 + int.from_bytes(blob[:8], "little"):]


def test_payload_size_is_shape_times_itemsize(tmp_path):
    arr = np.zeros((32, 32, 16), dtype=np.float32)
    write_array(tmp_path / "v.vol", arr, (1, 1, 1))
    assert len(_payload(tmp_path / "v.vol")) == 32 * 32 * 16 * 4


def test_truncated_payload_rejected(tmp_path):
    arr = np.zeros((8, 8), dtype=np.float32)
    write_array(tmp_path / "v.vol", arr, (1, 1))
    vol = tmp_path / "v.vol"
    vol.write_bytes(vol.read_bytes()[:-4])
    with pytest.raises(FileFormatError, match="payload"):
        read_array(vol)


def _write_raw_container(path, header, payload=b""):
    blob = json.dumps(header).encode()
    path.write_bytes(len(blob).to_bytes(8, "little") + blob + payload)


def test_bad_magic_rejected(tmp_path):
    _write_raw_container(tmp_path / "v.vol", {"format": "nope"})
    with pytest.raises(FileFormatError, match="format"):
        read_array(tmp_path / "v.vol")


def test_checkpoint_is_not_a_volume(tmp_path):
    (tmp_path / "c.ckpt").write_bytes(data.encode_container(
        "geoseg-checkpoint", {"volume": np.zeros(2)}, {"spacing": [1.0]}))
    with pytest.raises(FileFormatError, match="format"):
        read_array(tmp_path / "c.ckpt")


def test_unknown_dtype_rejected(tmp_path):
    header = {"format": "geoseg-volume", "version": 1, "spacing": [1.0],
              "tensors": {"volume": {"shape": [2], "dtype": "float16",
                                     "offset": 0, "nbytes": 4}}}
    _write_raw_container(tmp_path / "v.vol", header, b"\x00" * 4)
    with pytest.raises(FileFormatError, match="dtype"):
        read_array(tmp_path / "v.vol")


@pytest.mark.parametrize("tensors", [{}, {"image": np.zeros(2, np.uint8)},
                                     {"volume": np.zeros(2, np.uint8),
                                      "extra": np.zeros(2, np.uint8)}],
                         ids=["none", "misnamed", "two"])
def test_volume_holds_exactly_one_tensor(tmp_path, tensors):
    (tmp_path / "v.vol").write_bytes(data.encode_container(
        "geoseg-volume", tensors, {"spacing": [1.0]}))
    with pytest.raises(FileFormatError, match="one tensor"):
        read_array(tmp_path / "v.vol")


def test_unsupported_write_dtype_rejected(tmp_path):
    with pytest.raises(FileFormatError):
        write_array(tmp_path / "v.vol", np.zeros(3, dtype=np.int32), (1,))
    assert list(tmp_path.iterdir()) == []


# -- atomic writes ----------------------------------------------------------------


def test_failed_fsync_leaves_the_old_file_and_no_temp_file(tmp_path,
                                                            monkeypatch):
    target = tmp_path / "v.vol"
    write_array(target, np.arange(6, dtype=np.uint8), (1.0,))
    before = target.read_bytes()

    def broken_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(data.os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk full"):
        write_array(target, np.zeros(100, dtype=np.float32), (1.0,))
    assert target.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["v.vol"]


def test_atomic_write_replaces_each_file_whole(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.bin"
    data._write_atomic({a: "old\n"})
    data._write_atomic({a: b"new", b: b"\x00\x01"})
    assert a.read_bytes() == b"new" and b.read_bytes() == b"\x00\x01"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]


def test_atomic_write_syncs_each_directory_once_after_the_renames(
        tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    events, real_fsync, real_replace = [], os.fsync, os.replace

    def fsync(fd):
        events.append(("sync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("rename", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(data.os, "fsync", fsync)
    monkeypatch.setattr(data.os, "replace", replace)
    files = [tmp_path / "a", sub / "b", tmp_path / "c"]
    data._write_atomic({path: "x" for path in files})
    # a renamed file keeps the inode its temp file had
    assert events == ([("sync", p.stat().st_ino) for p in files]
                      + [("rename", p.name) for p in files]
                      + [("sync", tmp_path.stat().st_ino),
                         ("sync", sub.stat().st_ino)])


# The writer runs in a child process whose os.fsync SIGKILLs the process
# on its call number ``kill_at`` (1-based): a crash after the new bytes are
# written but before they replace the old files.
_KILLED_WRITER = """
import os, signal, sys
from pathlib import Path
from geoseg.data import build_dataset
from geoseg.network import DualDecoderNet, NetworkConfig, save_checkpoint

root, what, kill_at = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
calls, real_fsync = 0, os.fsync

def fsync(fd):
    global calls
    calls += 1
    if calls == kill_at:
        os.kill(os.getpid(), signal.SIGKILL)
    real_fsync(fd)

os.fsync = fsync
if what == "checkpoint":
    save_checkpoint(root / "net.ckpt",
                    DualDecoderNet(NetworkConfig(width=2, depth=1, seed=1)))
else:
    # another seed and one more test case than the original
    build_dataset(root / "data", 1, 1, 2, (16, 16), seed=1)
"""


def _run_killed_writer(root, what, kill_at):
    env = {**os.environ, "PYTHONPATH": str(Path(geoseg.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _KILLED_WRITER, str(root),
                           what, str(kill_at)], env=env, capture_output=True)
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()


def test_writer_killed_mid_write_leaves_the_previous_files(tmp_path):
    save_checkpoint(tmp_path / "net.ckpt",
                    DualDecoderNet(NetworkConfig(width=2, depth=1, seed=0)))
    build_dataset(tmp_path / "data", 1, 1, 1, (16, 16), seed=0)

    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    _run_killed_writer(tmp_path, "checkpoint", kill_at=1)
    # the rebuild syncs 8 volumes, the audit manifest, then the manifest
    _run_killed_writer(tmp_path, "dataset", kill_at=10)

    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
             and not p.name.startswith(".")}
    assert after == before
    load_checkpoint(tmp_path / "net.ckpt")
    assert len(load_manifest(tmp_path / "data").records) == 3
    # what the kills left behind sits under hidden names no reader opens
    left = sorted(p.name for p in tmp_path.rglob(".*"))
    assert len(left) == 11 and all(name.endswith(".tmp") for name in left)
    assert ".manifest.json.tmp" in left and ".net.ckpt.tmp" in left


def _is_write(call):
    """Whether a call writes a file: write_text, write_bytes, or an open
    whose mode is not a read-only constant."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(path, mode) and os.open(path, flags); Path.open(mode)
    low_level = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in ("os", "io"))
    pos = 1 if low_level else 0
    mode = call.args[pos] if len(call.args) > pos else next(
        (k.value for k in call.keywords if k.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt"))


def _file_writes(source):
    """(enclosing function, line) of every file write in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call) and _is_write(child):
                found.append((scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


def test_write_guard_sees_every_kind_of_write():
    source = ("def f(p):\n p.write_text('x')\n p.write_bytes(b'')\n"
              " open(p, 'w')\n open(p, mode='ab')\n p.open('r+')\n"
              " os.open(p, os.O_WRONLY)\n open(p)\n open(p, 'rb')\n"
              " p.open()\n p.read_text()\n")
    assert _file_writes(source) == [("f", n) for n in range(2, 8)]


# the only place that may write a file: the atomic writer
_WRITERS = {("data.py", "_write_atomic")}


def test_every_file_write_goes_through_the_atomic_writer():
    package = Path(geoseg.__file__).parent
    writes = {(path.name, scope, line)
              for path in sorted(package.glob("*.py"))
              for scope, line in _file_writes(path.read_text())}
    assert {(name, scope) for name, scope, _ in writes} == _WRITERS, writes


# -- phantom generator ------------------------------------------------------------


def test_phantom_clean_settings_give_two_level_image():
    params = PhantomParams(noise_sigma=0.0, blur_sigma=0.0)
    image, mask = generate_phantom((32, 32), np.random.default_rng(3), params)
    levels = np.unique(image)
    assert len(levels) == 2
    threshold = params.bg_level + params.contrast / 2
    np.testing.assert_array_equal((image > threshold).astype(np.uint8), mask)


def test_phantom_fixed_seed_bit_identical():
    a_img, a_mask = generate_phantom((24, 24), np.random.default_rng(17))
    b_img, b_mask = generate_phantom((24, 24), np.random.default_rng(17))
    assert a_img.tobytes() == b_img.tobytes()
    assert a_mask.tobytes() == b_mask.tobytes()


def test_phantom_foreground_fraction_band():
    params = PhantomParams()
    lo, hi = params.fg_frac
    for i in range(100):
        _, mask = generate_phantom((32, 32), np.random.default_rng([99, i]),
                                   params)
        assert lo <= mask.mean() <= hi


def test_phantom_rejects_tiny_shapes():
    from geoseg.errors import ConfigError
    with pytest.raises(ConfigError):
        generate_phantom((8, 8), np.random.default_rng(0))


def test_phantom_mask_binary_3d():
    image, mask = generate_phantom((16, 16, 16), np.random.default_rng(5))
    assert set(np.unique(mask)) <= {0, 1}
    assert image.shape == mask.shape == (16, 16, 16)


# -- dataset builder ---------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    manifest = build_dataset(out, n_labeled=4, n_unlabeled=6, n_test=3,
                             shape=(32, 32), seed=123)
    return out, manifest


def test_dataset_counts_and_tags(dataset):
    _, manifest = dataset
    assert len(manifest.records) == 13
    by_split = {}
    for r in manifest.records:
        by_split.setdefault(r.split, []).append(r)
    assert len(by_split["labeled-train"]) == 4
    assert len(by_split["unlabeled-train"]) == 6
    assert len(by_split["test"]) == 3


def test_dataset_split_disjoint_case_ids(dataset):
    _, manifest = dataset
    ids = [r.case_id for r in manifest.records]
    assert len(ids) == len(set(ids))


def test_unlabeled_records_expose_no_mask(dataset):
    out, manifest = dataset
    split = load_split(manifest)
    assert all(r.mask is None for r in split.unlabeled)
    assert all(r.mask is not None for r in split.labeled + split.test)
    # manifest itself never references the audit sidecar
    text = (out / "manifest.json").read_text()
    assert "audit" not in text


def test_unlabeled_masks_sealed_in_audit_sidecar(dataset):
    out, manifest = dataset
    unlabeled = [r for r in manifest.records if r.split == "unlabeled-train"]
    assert all(r.mask is None for r in unlabeled)
    for r in unlabeled:
        assert (out / "audit" / f"{r.case_id}.mask.vol").exists()


def _manifest_doc(root):
    return json.loads((root / "manifest.json").read_text())


def test_rebuild_same_seed_identical_digests(tmp_path, dataset):
    out, _ = dataset
    build_dataset(tmp_path / "rebuild", n_labeled=4, n_unlabeled=6, n_test=3,
                  shape=(32, 32), seed=123)
    digests = _manifest_doc(out)["digests"]
    assert len(digests) == 20   # 13 images, 7 masks
    assert _manifest_doc(tmp_path / "rebuild")["digests"] == digests


# the manifest digests of build_dataset(out, 2, 1, 1, shape, 3) with the
# default phantom parameters: every dataset built from the defaults, and so
# every benchmark dice and loss.csv row, depends on these bytes
DEFAULT_DIGESTS = {
    (64, 64): {
        "case_0000.image.vol": "b229be3088a605284570fb6eca76cfc53fe6cd6eddbf77411188e3400e0af5fd",
        "case_0000.mask.vol": "419e59520b79b50f630ff7257c1b88aa849bd626befc2602dca4888486b4ca67",
        "case_0001.image.vol": "bad502d4e84bea4625fd20f3aba7b3491297adceaa42f040c6845adf65834dce",
        "case_0001.mask.vol": "c7c288d997c9019a369d67c1fcdb61d242e13e60939aaa95e51ceb1d80242932",
        "case_0002.image.vol": "3a76061f3ca37e93d2d9691b9621cea75b05b7cb57b744d83e174a31ac258d60",
        "case_0003.image.vol": "6e84cd482ca935b06f3f73cb7c5295f4a633cbda523ffa9c9d30d17fdac8f98f",
        "case_0003.mask.vol": "c2371c2c9beb732a8ff12c24b0e0544fea0bd5522ccc965e7b9b380267b01dac",
    },
    (24, 24, 24): {
        "case_0000.image.vol": "05c5ce7f0dd0ef0c460cceec38e4c814c68ed48459bf1650f2f6c309408a274a",
        "case_0000.mask.vol": "7d2d5da395a92db026dd8f322210a9833e9c566dea14ceb27e9128635cb0e1f9",
        "case_0001.image.vol": "361a09e3f4e424592eacbb9acc5f2c98a79ae7e382d4660094f5d6493ff8fed3",
        "case_0001.mask.vol": "df1d83d5b5cfd36ee315abb66487cfe3f4c758c10a59e8e4b6fe16089aedbcea",
        "case_0002.image.vol": "1a28c45543a42138b37bac3dec64ada667b55665818e2a0bbbd1ac4b82b57f5e",
        "case_0003.image.vol": "b8e186385dc4821971582b2ee0362c52091cb0b206eed0c51e054337ac188200",
        "case_0003.mask.vol": "285c29d7d0b40fc0a021b32d6e58f98e89fdc369ec0236c1392f307732751e08",
    },
}


@pytest.mark.parametrize("shape", DEFAULT_DIGESTS,
                         ids=["x".join(map(str, s)) for s in DEFAULT_DIGESTS])
def test_default_phantoms_reproduce_the_committed_digests(tmp_path, shape):
    build_dataset(tmp_path, 2, 1, 1, shape, 3)
    assert _manifest_doc(tmp_path)["digests"] == DEFAULT_DIGESTS[shape]


def test_dataset_load_reads_each_volume_once(tmp_path, monkeypatch):
    build_dataset(tmp_path, n_labeled=2, n_unlabeled=2, n_test=2,
                  shape=(16, 16), seed=5)
    listed = sorted(_manifest_doc(tmp_path)["digests"])
    reads, real_read = [], Path.read_bytes

    def read_bytes(path):
        reads.append(path.name)
        return real_read(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    fresh = load_split(build_dataset(tmp_path / "again", 2, 2, 2, (16, 16), 5))
    assert reads == []   # a build hands back what it wrote
    split = load_split(load_manifest(tmp_path))
    # the manifest, then each volume once
    assert reads[0] == "manifest.json" and len(reads) == 11
    assert sorted(reads[1:]) == listed
    for got, want in zip(split.labeled + split.unlabeled + split.test,
                         fresh.labeled + fresh.unlabeled + fresh.test):
        assert got.case_id == want.case_id and got.split == want.split
        assert got.image.tobytes() == want.image.tobytes()
        assert (got.mask is None) == (want.mask is None)
        assert got.mask is None or got.mask.tobytes() == want.mask.tobytes()


def test_manifest_verification_catches_corruption(tmp_path):
    build_dataset(tmp_path, n_labeled=1, n_unlabeled=1, n_test=1,
                  shape=(16, 16), seed=7)
    victim = next((tmp_path / "volumes").glob("*.image.vol"))
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="digest"):
        load_manifest(tmp_path)


def test_ten_percent_labeled_regime_shape(tmp_path):
    manifest = build_dataset(tmp_path, n_labeled=4, n_unlabeled=36, n_test=10,
                             shape=(16, 16), seed=1,
                             params=PhantomParams(max_objects=1))
    assert _manifest_doc(tmp_path)["counts"] == {"labeled": 4, "unlabeled": 36,
                                                 "test": 10}
    assert len(manifest.records) == 50
