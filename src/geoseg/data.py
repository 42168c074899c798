"""Synthetic low-contrast phantoms, the container file format, and manifests.

Phantoms are unions of one to three randomly rotated ellipses/ellipsoids
with a smoothly perturbed boundary.  The image is a two-level field whose
boundary band is blurred (low contrast exactly where segmentation is hard)
plus additive Gaussian noise; the mask keeps the crisp geometry.

Volumes and checkpoints share one bit-exact container file: an 8-byte
little-endian header length, a JSON header (format tag, version, the
format's own fields, then per-tensor shape/dtype/offset/nbytes), then the
concatenated little-endian payload.  A volume is a container of one tensor
with its voxel spacing in the header.  Every artifact but a run's
``loss.csv`` stream is written through ``_write_atomic``, so a crash
mid-write leaves the previous file in place.
A dataset is a directory with a manifest: labeled-train and test records
reference their masks, unlabeled-train masks are written to a sealed
``audit/`` directory that the manifest never mentions.
"""

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigError, DataError, FileFormatError

VOLUME_FORMAT = "geoseg-volume"
MANIFEST_FORMAT = "geoseg-manifest"
MANIFEST_VERSION = 2
_DTYPES = {"float64": "<f8", "float32": "<f4", "uint8": "|u1", "int64": "<i8"}


def _write_atomic(files):
    """Replace each path of ``files`` ({path: bytes, or str written as
    UTF-8}) with its data: write each to a hidden temp file beside it, fsync
    them all, rename each over its path, in order, then fsync each directory
    renamed into.  A reader sees an old file or a new one, never a part; a
    crash before the renames leaves every old file, and one after the
    directory syncs every new one, even on power loss.  On an exception the
    temp files are removed and the exception re-raised."""
    tmps = {}
    try:
        for path, data in files.items():
            path = Path(path)
            tmps[path] = tmp = path.with_name(f".{path.name}.tmp")
            with open(tmp, "wb") as f:
                f.write(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp in tmps.values():
            fd = os.open(tmp, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
        for directory in dict.fromkeys(path.parent for path in tmps):
            fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def _write_csv(path, rows):
    """Write ``rows`` as one CSV file, with csv's CRLF line ends."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_atomic({path: text.getvalue()})


# -- container -------------------------------------------------------------


def encode_container(tag, tensors, fields):
    """The bytes of a container file holding ``tensors`` ({name: array}).

    The header's keys are format, version, the keys of ``fields`` in their
    order, then tensors.
    """
    entries = {}
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype = arr.dtype.name
        if dtype not in _DTYPES:
            raise FileFormatError(f"unsupported dtype {dtype} for tensor "
                                  f"{name!r}; use one of {sorted(_DTYPES)}")
        raw = np.ascontiguousarray(arr).astype(_DTYPES[dtype]).tobytes()
        entries[name] = {"shape": list(arr.shape), "dtype": dtype,
                         "offset": len(payload), "nbytes": len(raw)}
        payload.extend(raw)
    header = {"format": tag, "version": 1, **fields, "tensors": entries}
    blob = json.dumps(header).encode("utf-8")
    return len(blob).to_bytes(8, "little") + blob + payload


def _is_count(value):
    return type(value) is int and value >= 0


def _check_header(path, header, tag, payload_len):
    """Raise FileFormatError unless the header is a ``tag`` container's and
    each tensor entry spans exactly its shape's bytes inside a payload of
    ``payload_len`` bytes."""
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header is not a JSON object")
    if header.get("format") != tag:
        raise FileFormatError(f"{path}: bad format tag "
                              f"{header.get('format')!r}, expected {tag!r}")
    tensors = header.get("tensors")
    if not isinstance(tensors, dict):
        raise FileFormatError(f"{path}: header 'tensors' is not an object")
    for name, entry in tensors.items():
        if not (isinstance(entry, dict) and _is_count(entry.get("offset"))
                and _is_count(entry.get("nbytes"))
                and isinstance(entry.get("shape"), list)
                and all(_is_count(n) for n in entry["shape"])):
            raise FileFormatError(f"{path}: tensor {name!r} needs integer "
                                  "offset and nbytes and a list shape")
        dtype = entry.get("dtype")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise FileFormatError(f"{path}: unknown dtype {dtype!r} for {name}")
        expect = int(np.prod(entry["shape"], dtype=np.int64)) * np.dtype(dtype).itemsize
        if entry["nbytes"] != expect or \
                entry["offset"] + entry["nbytes"] > payload_len:
            raise FileFormatError(f"{path}: payload size mismatch for {name}")


def read_container(path, tag, digest=None):
    """Read a ``tag`` container; returns (header, {name: array}).  With a
    ``digest``, the file's bytes must have that SHA-256 hex digest."""
    blob = Path(path).read_bytes()
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise DataError(f"digest mismatch for {path}")
    if len(blob) < 8:
        raise FileFormatError(f"{path}: too short to be a {tag} file")
    hlen = int.from_bytes(blob[:8], "little")
    if 8 + hlen > len(blob):
        raise FileFormatError(f"{path}: header length {hlen} exceeds file size")
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"{path}: unreadable header ({e})") from None
    payload = memoryview(blob)[8 + hlen:]
    _check_header(path, header, tag, len(payload))
    tensors = {}
    for name, entry in header["tensors"].items():
        dtype = entry["dtype"]
        end = entry["offset"] + entry["nbytes"]
        arr = np.frombuffer(payload[entry["offset"]:end], dtype=_DTYPES[dtype])
        # astype copies, so loaded tensors are writable and natively ordered
        tensors[name] = arr.reshape(entry["shape"]).astype(dtype)
    return header, tensors


def encode_volume(arr, spacing):
    """The bytes of a volume container: ``arr`` and its voxel spacing."""
    return encode_container(VOLUME_FORMAT, {"volume": arr},
                            {"spacing": list(spacing)})


def write_array(path, arr, spacing):
    """Write one volume container file."""
    _write_atomic({path: encode_volume(arr, spacing)})


def read_array(path, digest=None):
    """Read a volume container back; returns (array, spacing).  With a
    ``digest``, the file's bytes must have that SHA-256 hex digest."""
    header, tensors = read_container(path, VOLUME_FORMAT, digest)
    if list(tensors) != ["volume"]:
        raise FileFormatError(f"{path}: a volume holds one tensor named "
                              f"'volume', got {list(tensors)}")
    arr, spacing = tensors["volume"], header.get("spacing")
    if not (isinstance(spacing, list) and len(spacing) == arr.ndim
            and all(type(v) in (int, float) for v in spacing)):
        raise FileFormatError(f"{path}: header 'spacing' must be a list of "
                              f"{arr.ndim} numbers, got {spacing!r}")
    return arr, tuple(spacing)


# -- records and manifest ----------------------------------------------------


@dataclass
class VolumeRecord:
    case_id: str
    image: np.ndarray
    mask: np.ndarray | None
    spacing: tuple
    split: str


@dataclass
class RecordEntry:
    case_id: str
    split: str
    image: str            # file name of the image container
    mask: str | None
    spacing: tuple


@dataclass
class Manifest:
    root: Path
    seed: int
    shape: tuple
    counts: dict
    records: list
    digests: dict
    volumes: dict         # file name -> (array, spacing), read once


# -- phantom generator ----------------------------------------------------------


@dataclass(frozen=True)
class PhantomParams:
    max_objects: int = 3
    radius_frac: tuple = (0.16, 0.32)
    center_margin: float = 0.30     # object centers stay this fraction off the edges
    perturb_amp: float = 0.35
    perturb_scale: float = 0.12     # boundary wobble correlation length (fraction)
    bg_level: float = 0.1
    contrast: float = 0.8
    blur_sigma: float = 1.5
    noise_sigma: float = 0.25
    fg_frac: tuple = (0.05, 0.40)
    max_retries: int = 50

    def __post_init__(self):
        # written so that NaN fails each check
        for name in ("blur_sigma", "noise_sigma"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be non-negative and finite, "
                                  f"got {getattr(self, name)}")
        if not -np.inf < self.contrast < np.inf:
            raise ConfigError(f"contrast must be finite, got {self.contrast}")


def _ellipsoid_field(shape, rng, params):
    ndim = len(shape)
    coords = np.indices(shape).astype(np.float64)
    field = np.full(shape, np.inf)
    n_obj = int(rng.integers(1, params.max_objects + 1))
    for _ in range(n_obj):
        center = rng.uniform(params.center_margin, 1.0 - params.center_margin,
                             size=ndim) * np.array(shape)
        radii = rng.uniform(*params.radius_frac, size=ndim) * np.array(shape)
        rot, _ = np.linalg.qr(rng.standard_normal((ndim, ndim)))
        centered = coords - center.reshape((ndim,) + (1,) * ndim)
        rotated = np.einsum("ij,j...->i...", rot, centered)
        q = sum((rotated[i] / radii[i]) ** 2 for i in range(ndim))
        field = np.minimum(field, q)
    return field


def generate_phantom(shape, rng, params=PhantomParams()):
    """One phantom (image float32, mask uint8) from a dedicated RNG stream."""
    if any(n < 16 for n in shape):
        raise ConfigError(f"phantom shape {shape} must be >= 16 per axis")
    lo, hi = params.fg_frac
    for _ in range(params.max_retries):
        field = _ellipsoid_field(shape, rng, params)
        if params.perturb_amp > 0 and params.perturb_scale > 0:
            wobble = gaussian_filter(rng.standard_normal(shape),
                                     sigma=params.perturb_scale * min(shape))
            std = wobble.std()
            if std > 0:
                wobble /= std
            field = field + params.perturb_amp * wobble
        mask = field <= 1.0
        if lo <= mask.mean() <= hi:
            break
    else:
        raise DataError(f"phantom foreground fraction stayed outside "
                        f"[{lo}, {hi}] after {params.max_retries} attempts")
    soft = mask.astype(np.float64)
    if params.blur_sigma > 0:
        soft = gaussian_filter(soft, sigma=params.blur_sigma)
    image = params.bg_level + params.contrast * soft
    if params.noise_sigma > 0:
        image = image + params.noise_sigma * rng.standard_normal(shape)
    return image.astype(np.float32), mask.astype(np.uint8)


# -- dataset builder --------------------------------------------------------------


def build_dataset(out_dir, n_labeled, n_unlabeled, n_test, shape, seed,
                  params=PhantomParams(), spacing=None):
    """Generate a split dataset on disk and return its manifest.

    Unlabeled-train masks are withheld from the manifest; they go to the
    sealed ``audit/`` directory so experiments cannot accidentally touch them.
    """
    if n_labeled < 1 or n_test < 1 or n_unlabeled < 0:
        raise ConfigError("need n_labeled >= 1, n_test >= 1, n_unlabeled >= 0")
    out_dir = Path(out_dir)
    volumes_dir = out_dir / "volumes"
    audit = out_dir / "audit"
    volumes_dir.mkdir(parents=True, exist_ok=True)
    audit.mkdir(parents=True, exist_ok=True)
    spacing = tuple(spacing) if spacing is not None else (1.0,) * len(shape)

    plan = ([("labeled-train", True)] * n_labeled
            + [("unlabeled-train", False)] * n_unlabeled
            + [("test", True)] * n_test)
    records, files, volumes = [], {}, {}
    for idx, (split, keep_mask) in enumerate(plan):
        rng = np.random.default_rng([seed, idx])
        image, mask = generate_phantom(shape, rng, params)
        case_id = f"case_{idx:04d}"
        image_name, mask_name = f"{case_id}.image.vol", f"{case_id}.mask.vol"
        files[volumes_dir / image_name] = encode_volume(image, spacing)
        files[(volumes_dir if keep_mask else audit) / mask_name] = \
            encode_volume(mask, spacing)
        volumes[image_name] = (image, spacing)
        if keep_mask:
            volumes[mask_name] = (mask, spacing)
        records.append(RecordEntry(case_id=case_id, split=split,
                                   image=image_name,
                                   mask=mask_name if keep_mask else None,
                                   spacing=spacing))
    digests = {path: hashlib.sha256(blob).hexdigest()
               for path, blob in files.items()}
    files[audit / "audit_manifest.json"] = json.dumps(
        {"note": "withheld unlabeled-train masks, for audit only",
         "digests": {p.name: d for p, d in digests.items() if p.parent == audit}},
        indent=1) + "\n"
    manifest = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION,
                "seed": seed, "shape": list(shape),
                "counts": {"labeled": n_labeled, "unlabeled": n_unlabeled,
                           "test": n_test},
                "phantom_params": asdict(params),
                "records": [asdict(r) for r in records],
                "digests": {p.name: d for p, d in digests.items()
                            if p.parent == volumes_dir}}
    # renamed last, the manifest commits the build
    files[out_dir / "manifest.json"] = json.dumps(manifest, indent=1) + "\n"
    _write_atomic(files)
    return Manifest(root=out_dir, seed=seed, shape=tuple(shape),
                    counts=manifest["counts"], records=records,
                    digests=manifest["digests"], volumes=volumes)


# JSON types of a manifest record's fields (RecordEntry's, spacing a list)
_RECORD_TYPES = {"case_id": str, "split": str, "image": str,
                 "mask": (str, type(None)), "spacing": list}


def _check_manifest(path, doc):
    """Raise FileFormatError unless the manifest has every field
    load_manifest reads, of the type it is read as."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: manifest is not a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise FileFormatError(f"{path}: bad format tag {doc.get('format')!r}")
    if doc.get("version") != MANIFEST_VERSION:
        raise FileFormatError(f"{path}: manifest version {doc.get('version')!r} "
                              f"is not {MANIFEST_VERSION}; rebuild the dataset "
                              "with build-data")
    shape = doc.get("shape")
    if not (type(doc.get("seed")) is int and isinstance(shape, list)
            and all(_is_count(n) for n in shape)
            and isinstance(doc.get("counts"), dict)
            and isinstance(doc.get("digests"), dict)):
        raise FileFormatError(f"{path}: manifest needs an int 'seed', a list "
                              "'shape' of non-negative ints and 'counts' and "
                              "'digests' objects")
    records = doc.get("records")
    if not isinstance(records, list):
        raise FileFormatError(f"{path}: manifest 'records' is not a list")
    for i, record in enumerate(records):
        if not (isinstance(record, dict) and all(
                key in record and isinstance(record[key], kind)
                for key, kind in _RECORD_TYPES.items())):
            raise FileFormatError(
                f"{path}: record {i} needs the keys {list(_RECORD_TYPES)} "
                "with string case_id/split/image, string-or-null mask and "
                "list spacing")


def load_manifest(path):
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        doc = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"{path}: unreadable manifest ({e})") from None
    _check_manifest(path, doc)
    root = path.parent
    records = [RecordEntry(case_id=r["case_id"], split=r["split"],
                           image=r["image"], mask=r["mask"],
                           spacing=tuple(r["spacing"]))
               for r in doc["records"]]
    return Manifest(root=root, seed=doc["seed"], shape=tuple(doc["shape"]),
                    counts=doc["counts"], records=records,
                    digests=doc["digests"],
                    volumes=_read_volumes(root / "volumes", records,
                                          doc["digests"]))


def _read_volumes(directory, records, digests):
    """Read every file the records reference, once: it must exist and its
    bytes must match the recorded digest.  Returns {name: (array, spacing)}."""
    volumes = {}
    for entry in records:
        for rel in (entry.image, entry.mask):
            if rel is None:
                continue
            path = directory / rel
            if not path.exists():
                raise DataError(f"manifest references missing file {path}")
            want = digests.get(rel)
            if want is None:
                raise DataError(f"manifest has no digest for {rel}")
            volumes[rel] = read_array(path, want)
    return volumes


@dataclass
class DatasetSplit:
    labeled: list
    unlabeled: list
    test: list


def load_split(manifest):
    """Every record of the manifest, with the volumes it has read."""
    split = DatasetSplit(labeled=[], unlabeled=[], test=[])
    for entry in manifest.records:
        image, spacing = manifest.volumes[entry.image]
        mask = None if entry.mask is None else manifest.volumes[entry.mask][0]
        record = VolumeRecord(case_id=entry.case_id, image=image, mask=mask,
                              spacing=spacing, split=entry.split)
        if entry.split == "labeled-train":
            split.labeled.append(record)
        elif entry.split == "unlabeled-train":
            split.unlabeled.append(record)
        elif entry.split == "test":
            split.test.append(record)
        else:
            raise DataError(f"unknown split tag {entry.split!r}")
    return split
