"""Synthetic low-contrast phantoms, the volume file format, and manifests.

Phantoms are unions of one to three randomly rotated ellipses/ellipsoids
with a smoothly perturbed boundary.  The image is a two-level field whose
boundary band is blurred (low contrast exactly where segmentation is hard)
plus additive Gaussian noise; the mask keeps the crisp geometry.

Volumes are stored as a JSON sidecar header plus a raw little-endian
payload, chosen so round-trips are bit-exact and testable with zero imaging
dependencies.  A dataset is a directory with a manifest: labeled-train and
test records reference their masks, unlabeled-train masks are written to a
sealed ``audit/`` sidecar that the manifest never mentions.
"""

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import ConfigError, DataError, FileFormatError

VOLUME_FORMAT = "geoseg-volume"
MANIFEST_FORMAT = "geoseg-manifest"
_DTYPES = {"float32": "<f4", "uint8": "|u1"}


# -- volume container ------------------------------------------------------


def write_array(base, arr, spacing):
    """Write ``base``.json + ``base``.raw; returns {relname: sha256}."""
    base = Path(base)
    arr = np.asarray(arr)
    if arr.dtype.name not in _DTYPES:
        raise FileFormatError(f"unsupported volume dtype {arr.dtype.name}; "
                              f"use one of {sorted(_DTYPES)}")
    raw = np.ascontiguousarray(arr).astype(_DTYPES[arr.dtype.name]).tobytes()
    header = {"format": VOLUME_FORMAT, "version": 1,
              "shape": list(arr.shape), "dtype": arr.dtype.name,
              "spacing": list(spacing), "byte_order": "little"}
    raw_path = base.with_suffix(base.suffix + ".raw")
    json_path = base.with_suffix(base.suffix + ".json")
    raw_path.write_bytes(raw)
    json_path.write_text(json.dumps(header) + "\n")
    return {json_path.name: _sha256(json_path), raw_path.name: _sha256(raw_path)}


def _is_count(value):
    return type(value) is int and value >= 0


def _check_volume_header(path, header):
    """Raise FileFormatError unless the header has every field read_array
    reads, of the type it is read as."""
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header is not a JSON object")
    if header.get("format") != VOLUME_FORMAT:
        raise FileFormatError(f"{path}: bad format tag {header.get('format')!r}")
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise FileFormatError(f"{path}: unknown dtype {dtype!r}")
    shape, spacing = header.get("shape"), header.get("spacing")
    if not (isinstance(shape, list) and all(_is_count(n) for n in shape)):
        raise FileFormatError(f"{path}: header 'shape' must be a list of "
                              f"non-negative ints, got {shape!r}")
    if not (isinstance(spacing, list) and len(spacing) == len(shape)
            and all(type(v) in (int, float) for v in spacing)):
        raise FileFormatError(f"{path}: header 'spacing' must be a list of "
                              f"{len(shape)} numbers, got {spacing!r}")


def read_array(json_path):
    """Read a volume pair back; returns (array, spacing)."""
    json_path = Path(json_path)
    try:
        header = json.loads(json_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"{json_path}: unreadable header ({e})") from None
    _check_volume_header(json_path, header)
    dtype = header["dtype"]
    raw_path = json_path.with_suffix(".raw")
    raw = raw_path.read_bytes()
    shape = tuple(header["shape"])
    expect = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    if len(raw) != expect:
        raise FileFormatError(f"{raw_path}: payload is {len(raw)} bytes, header "
                              f"shape {shape} ({dtype}) needs {expect}")
    arr = np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(shape)
    return arr.astype(dtype, copy=False), tuple(header["spacing"])


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    image: str            # relative path of the image header json
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


def write_volume(record, directory):
    """Write one record's arrays under ``directory``; returns (entry, digests)."""
    directory = Path(directory)
    digests = {}
    image_base = directory / f"{record.case_id}.image"
    digests.update(write_array(image_base, record.image, record.spacing))
    mask_rel = None
    if record.mask is not None:
        mask_base = directory / f"{record.case_id}.mask"
        digests.update(write_array(mask_base, record.mask, record.spacing))
        mask_rel = f"{record.case_id}.mask.json"
    entry = RecordEntry(case_id=record.case_id, split=record.split,
                        image=f"{record.case_id}.image.json", mask=mask_rel,
                        spacing=tuple(record.spacing))
    return entry, digests


def read_volume(directory, entry):
    """Load a manifest entry back into a VolumeRecord."""
    directory = Path(directory)
    image, spacing = read_array(directory / entry.image)
    mask = None
    if entry.mask is not None:
        mask, _ = read_array(directory / entry.mask)
    return VolumeRecord(case_id=entry.case_id, image=image, mask=mask,
                        spacing=spacing, split=entry.split)


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
    sealed ``audit/`` sidecar so experiments cannot accidentally touch them.
    """
    if n_labeled < 1 or n_test < 1 or n_unlabeled < 0:
        raise ConfigError("need n_labeled >= 1, n_test >= 1, n_unlabeled >= 0")
    out_dir = Path(out_dir)
    volumes = out_dir / "volumes"
    audit = out_dir / "audit"
    volumes.mkdir(parents=True, exist_ok=True)
    audit.mkdir(parents=True, exist_ok=True)
    spacing = tuple(spacing) if spacing is not None else (1.0,) * len(shape)

    plan = ([("labeled-train", True)] * n_labeled
            + [("unlabeled-train", False)] * n_unlabeled
            + [("test", True)] * n_test)
    records, digests, audit_digests = [], {}, {}
    for idx, (split, keep_mask) in enumerate(plan):
        rng = np.random.default_rng([seed, idx])
        image, mask = generate_phantom(shape, rng, params)
        case_id = f"case_{idx:04d}"
        record = VolumeRecord(case_id=case_id, image=image,
                              mask=mask if keep_mask else None,
                              spacing=spacing, split=split)
        entry, d = write_volume(record, volumes)
        records.append(entry)
        digests.update(d)
        if not keep_mask:
            audit_digests.update(write_array(audit / f"{case_id}.mask", mask,
                                             spacing))
    (audit / "audit_manifest.json").write_text(json.dumps(
        {"note": "withheld unlabeled-train masks, for audit only",
         "digests": audit_digests}, indent=1) + "\n")

    manifest = {"format": MANIFEST_FORMAT, "version": 1, "seed": seed,
                "shape": list(shape),
                "counts": {"labeled": n_labeled, "unlabeled": n_unlabeled,
                           "test": n_test},
                "phantom_params": asdict(params),
                "records": [asdict(r) for r in records],
                "digests": digests}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return load_manifest(out_dir / "manifest.json")


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
    manifest = Manifest(root=root, seed=doc["seed"], shape=tuple(doc["shape"]),
                        counts=doc["counts"], records=records,
                        digests=doc["digests"])
    verify_manifest(manifest)
    return manifest


def verify_manifest(manifest):
    """Every referenced file must exist and match its recorded digest."""
    volumes = manifest.root / "volumes"
    for entry in manifest.records:
        refs = [entry.image, entry.image.replace(".json", ".raw")]
        if entry.mask is not None:
            refs += [entry.mask, entry.mask.replace(".json", ".raw")]
        for rel in refs:
            path = volumes / rel
            if not path.exists():
                raise DataError(f"manifest references missing file {path}")
            want = manifest.digests.get(rel)
            if want is None:
                raise DataError(f"manifest has no digest for {rel}")
            if _sha256(path) != want:
                raise DataError(f"digest mismatch for {path}")


@dataclass
class DatasetSplit:
    labeled: list
    unlabeled: list
    test: list


def load_split(manifest):
    """Load every record eagerly (desk-scale volumes are small)."""
    volumes = manifest.root / "volumes"
    split = DatasetSplit(labeled=[], unlabeled=[], test=[])
    for entry in manifest.records:
        record = read_volume(volumes, entry)
        if entry.split == "labeled-train":
            split.labeled.append(record)
        elif entry.split == "unlabeled-train":
            split.unlabeled.append(record)
        elif entry.split == "test":
            split.test.append(record)
        else:
            raise DataError(f"unknown split tag {entry.split!r}")
    return split
