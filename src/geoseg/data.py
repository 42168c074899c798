"""Synthetic low-contrast phantoms, the container file format, and manifests.

Phantoms are unions of one to three randomly rotated ellipses/ellipsoids
with a smoothly perturbed boundary.  The image is a two-level field whose
boundary band is blurred (low contrast exactly where segmentation is hard)
plus additive Gaussian noise; the mask keeps the crisp geometry.

Volumes and checkpoints share one bit-exact container file: an 8-byte
little-endian header length, a JSON header (format tag, version, the
format's own fields, then per-tensor shape/dtype/offset/nbytes), then the
concatenated little-endian payload.  A volume is a container of one tensor
with its voxel spacing in the header.  Every artifact is written whole
through ``_write_atomic``, a run's ``loss.csv`` at each checkpoint and when
its loop ends, so a crash mid-write leaves the previous file in place.
Every CSV table is written by ``_write_csv``, which alone formats a cell.
A dataset is a directory with a manifest: labeled-train and test records
reference their masks, unlabeled-train masks are written to a sealed
``audit/`` directory that the manifest never mentions.  Loading a dataset
checks the whole manifest, then reads and digest-checks once every volume
of the splits asked for (``train`` asks for the training splits, ``eval``
for the test split), and checks that each mask holds only 0 and 1; each
loaded record carries its arrays, and ``load_split`` only groups the
records by split.  scipy is imported on the first phantom, so
the commands that build none do not load it.
"""

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

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
    """Write ``rows`` as one CSV file, with csv's CRLF line ends: a float
    cell (numpy's float64 included) as 17 significant digits, which read
    back as the same float, None as an empty cell, any other cell as csv
    writes it."""
    text = io.StringIO()
    csv.writer(text).writerows(
        [format(v, ".17g") if isinstance(v, float) else v for v in row]
        for row in rows)
    _write_atomic({path: text.getvalue()})


def parse_json(data, error, what):
    """The JSON document in the UTF-8 bytes ``data``; raises ``error``
    with ``what`` and the reason if they do not decode or parse, nesting
    too deep for the parser included."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise error(f"{what} ({e})") from None


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


def _fits_an_array(shape, itemsize):
    """Whether numpy can hold an array of ``shape``: the product of its
    nonzero extents times ``itemsize`` bytes fits in ``np.intp``."""
    return math.prod(n for n in shape if n) * itemsize <= np.iinfo(np.intp).max


def _check_header(path, header, tag, payload_len):
    """Raise FileFormatError unless the header is a ``tag`` container's and
    each tensor entry spans exactly its shape's bytes inside a payload of
    ``payload_len`` bytes, and numpy can hold an array of that shape
    (``_fits_an_array``)."""
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
        shape, itemsize = entry["shape"], np.dtype(dtype).itemsize
        if not _fits_an_array(shape, itemsize):
            raise FileFormatError(f"{path}: tensor {name!r} shape {shape} "
                                  "is too large")
        if entry["nbytes"] != math.prod(shape) * itemsize or \
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
    header = parse_json(blob[8:8 + hlen], FileFormatError,
                        f"{path}: unreadable header")
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
    ``digest``, the file's bytes must have that SHA-256 hex digest.  A float
    volume must hold finite values only."""
    header, tensors = read_container(path, VOLUME_FORMAT, digest)
    if list(tensors) != ["volume"]:
        raise FileFormatError(f"{path}: a volume holds one tensor named "
                              f"'volume', got {list(tensors)}")
    arr, spacing = tensors["volume"], header.get("spacing")
    if not (isinstance(spacing, list) and len(spacing) == arr.ndim
            and all(type(v) in (int, float) for v in spacing)):
        raise FileFormatError(f"{path}: header 'spacing' must be a list of "
                              f"{arr.ndim} numbers, got {spacing!r}")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise DataError(f"{path}: volume holds a non-finite value")
    return arr, tuple(spacing)


# -- records and manifest ----------------------------------------------------


# the split tags, in the order of DatasetSplit's pools
SPLITS = ("labeled-train", "unlabeled-train", "test")
# the manifest's 'counts' key of each split tag, in the same order
_COUNT_KEYS = ("labeled", "unlabeled", "test")


@dataclass
class VolumeRecord:
    case_id: str
    split: str
    image: np.ndarray
    mask: np.ndarray | None     # None for an unlabeled-train record


@dataclass
class Manifest:
    shape: tuple
    records: list               # VolumeRecords, in manifest order


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
    # importing scipy.ndimage is most of geoseg start-up, and only phantom
    # building needs it
    from scipy.ndimage import gaussian_filter
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


def check_build(n_labeled, n_unlabeled, n_test, shape, seed):
    """Raise ConfigError unless build_dataset can build these split sizes
    and phantom shape from this seed."""
    if n_labeled < 1 or n_test < 1 or n_unlabeled < 0:
        raise ConfigError("need n_labeled >= 1, n_test >= 1, n_unlabeled >= 0")
    if len(shape) not in (2, 3) or min(shape) < 16:
        raise ConfigError(f"phantom shape {shape} needs 2 or 3 axes, each >= 16")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def build_dataset(out_dir, n_labeled, n_unlabeled, n_test, shape, seed,
                  params=PhantomParams()):
    """Generate a split dataset on disk and return its manifest.

    Unlabeled-train masks are withheld from the manifest; they go to the
    sealed ``audit/`` directory so experiments cannot accidentally touch them.
    """
    check_build(n_labeled, n_unlabeled, n_test, shape, seed)
    out_dir = Path(out_dir)
    volumes_dir = out_dir / "volumes"
    audit = out_dir / "audit"
    spacing = [1.0] * len(shape)

    plan = ([("labeled-train", True)] * n_labeled
            + [("unlabeled-train", False)] * n_unlabeled
            + [("test", True)] * n_test)
    records, entries, files = [], [], {}
    for idx, (split, keep_mask) in enumerate(plan):
        rng = np.random.default_rng([seed, idx])
        image, mask = generate_phantom(shape, rng, params)
        case_id = f"case_{idx:04d}"
        image_name, mask_name = f"{case_id}.image.vol", f"{case_id}.mask.vol"
        files[volumes_dir / image_name] = encode_volume(image, spacing)
        files[(volumes_dir if keep_mask else audit) / mask_name] = \
            encode_volume(mask, spacing)
        records.append(VolumeRecord(case_id, split, image,
                                    mask if keep_mask else None))
        entries.append({"case_id": case_id, "split": split, "image": image_name,
                        "mask": mask_name if keep_mask else None,
                        "spacing": spacing})
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
                "records": entries,
                "digests": {p.name: d for p, d in digests.items()
                            if p.parent == volumes_dir}}
    # renamed last, the manifest commits the build
    files[out_dir / "manifest.json"] = json.dumps(manifest, indent=1) + "\n"
    # made only now, so that a build that fails leaves nothing behind
    volumes_dir.mkdir(parents=True, exist_ok=True)
    audit.mkdir(exist_ok=True)
    _write_atomic(files)
    return Manifest(shape=tuple(shape), records=records)


# JSON types of a manifest record's fields
_RECORD_TYPES = {"case_id": str, "split": str, "image": str,
                 "mask": (str, type(None)), "spacing": list}


def _check_manifest(path, doc):
    """Raise FileFormatError unless the manifest has every field of its
    format, of the type it is read as, each record a known split tag and a
    mask exactly when its split has one, and 'counts' the number of records
    of each split."""
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
        if record["split"] not in SPLITS:
            raise FileFormatError(f"{path}: record {i} has unknown split tag "
                                  f"{record['split']!r}, expected one of {SPLITS}")
        if (record["mask"] is None) != (record["split"] == "unlabeled-train"):
            raise FileFormatError(f"{path}: record {i}: unlabeled-train records "
                                  "list no mask, the others list one")
    counts = {key: sum(r["split"] == tag for r in records)
              for key, tag in zip(_COUNT_KEYS, SPLITS)}
    if doc["counts"] != counts or any(type(n) is not int
                                      for n in doc["counts"].values()):
        raise FileFormatError(f"{path}: manifest 'counts' {doc['counts']} do "
                              f"not match its records' split tags {counts}")


def load_manifest(path, splits=SPLITS):
    """The dataset at ``path`` (its directory or its manifest.json): the
    manifest is checked whole, then each volume of the records of
    ``splits`` is read once, and only those records are loaded; a volume
    must exist, its bytes must match the manifest's digest and its shape
    must be the manifest's, and a mask must hold only 0 and 1."""
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    doc = parse_json(path.read_bytes(), FileFormatError,
                     f"{path}: unreadable manifest")
    _check_manifest(path, doc)
    shape = tuple(doc["shape"])

    def read(name, mask=False):
        file = path.parent / "volumes" / name
        if not file.exists():
            raise DataError(f"manifest references missing file {file}")
        if name not in doc["digests"]:
            raise DataError(f"manifest has no digest for {name}")
        arr = read_array(file, doc["digests"][name])[0]
        if arr.shape != shape:
            raise DataError(f"{file} has shape {arr.shape}, not {shape}")
        if mask and not ((arr == 0) | (arr == 1)).all():
            raise DataError(f"{file}: a mask must hold only 0 and 1")
        return arr

    records = [VolumeRecord(r["case_id"], r["split"], read(r["image"]),
                            None if r["mask"] is None else read(r["mask"], True))
               for r in doc["records"] if r["split"] in splits]
    return Manifest(shape=shape, records=records)


@dataclass
class DatasetSplit:
    labeled: list
    unlabeled: list
    test: list


def load_split(manifest):
    """The manifest's records, grouped by split in manifest order."""
    pools = {tag: [] for tag in SPLITS}
    for record in manifest.records:
        pools[record.split].append(record)
    return DatasetSplit(*pools.values())
