"""Shared-encoder, dual-decoder segmentation network.

Both decoders are structurally identical and consume the same encoder
features, but they up-sample differently: decoder 1 uses learned transposed
convolutions, decoder 2 uses linear interpolation followed by a width-1
convolution.  Each decoder ends in a 2-channel segmentation head (softmax)
and a 1-channel signed-distance head (tanh).  Skip connections from every
encoder resolution feed both decoders.

The checkpoint container is a single file: an 8-byte little-endian header
length, a JSON header (format tag, network config, metadata, per-tensor
shape/dtype/offset), then the concatenated little-endian raw payload.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, FileFormatError, ShapeError
from .tensor import (Parameter, Tensor, concat, conv_nd, conv_transpose_nd,
                     instance_norm, interp_upsample, softmax_channel)

CHECKPOINT_FORMAT = "geoseg-checkpoint"
_DTYPES = {"float64": "<f8", "float32": "<f4", "uint8": "|u1", "int64": "<i8"}


@dataclass(frozen=True)
class NetworkConfig:
    rank: int = 2
    in_channels: int = 1
    width: int = 8
    depth: int = 3
    normalization: str = "instance"
    seed: int = 0

    def __post_init__(self):
        if self.rank not in (2, 3):
            raise ConfigError(f"rank must be 2 or 3, got {self.rank}")
        if self.width < 2:
            raise ConfigError(f"width must be >= 2, got {self.width}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.normalization not in ("none", "instance"):
            raise ConfigError(f"normalization must be none|instance, "
                              f"got {self.normalization!r}")
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")


@dataclass
class DualDecoderOutputs:
    """Per-decoder heads for one batch; all four maps are [N,1,spatial...]."""

    seg1: Tensor
    seg2: Tensor
    sdm1: Tensor
    sdm2: Tensor
    logits1: Tensor = field(repr=False, default=None)
    logits2: Tensor = field(repr=False, default=None)

    def labeled_slice(self, n):
        """First n batch items (the canonical labeled prefix)."""
        return DualDecoderOutputs(
            seg1=self.seg1.narrow(0, 0, n), seg2=self.seg2.narrow(0, 0, n),
            sdm1=self.sdm1.narrow(0, 0, n), sdm2=self.sdm2.narrow(0, 0, n),
            logits1=self.logits1.narrow(0, 0, n),
            logits2=self.logits2.narrow(0, 0, n))


def select_final(outputs):
    """Final segmentation map: the transposed-convolution decoder's output."""
    return outputs.seg1


class DualDecoderNet:
    def __init__(self, config):
        self.config = config
        self.params = {}
        rng = np.random.default_rng(config.seed)
        r = config.rank
        w, d = config.width, config.depth
        chans = [w * (1 << level) for level in range(d + 1)]

        self._new_conv(rng, "enc.stem", w, config.in_channels, (3,) * r)
        for level in range(1, d + 1):
            self._new_conv(rng, f"enc.down{level}", chans[level],
                           chans[level - 1], (2,) * r)
            self._new_conv(rng, f"enc.block{level}", chans[level],
                           chans[level], (3,) * r)
        for dec in ("dec1", "dec2"):
            for level in range(d, 0, -1):
                ci, co = chans[level], chans[level - 1]
                if dec == "dec1":
                    # transpose kernel layout is [C_in, C_out, k...]
                    self._new_conv(rng, f"{dec}.up{level}", co, ci, (2,) * r,
                                   transpose=True)
                else:
                    self._new_conv(rng, f"{dec}.up{level}", co, ci, (1,) * r)
                self._new_conv(rng, f"{dec}.merge{level}", co, 2 * co, (3,) * r)
            self._new_conv(rng, f"{dec}.seg_head", 2, w, (1,) * r)
            self._new_conv(rng, f"{dec}.sdm_head", 1, w, (1,) * r)

    def _new_conv(self, rng, name, co, ci, kspatial, transpose=False):
        # seeded uniform fan-in initialization for kernel and bias
        shape = ((ci, co) if transpose else (co, ci)) + kspatial
        fan_in = ci * int(np.prod(kspatial))
        bound = 1.0 / np.sqrt(fan_in)
        self.params[f"{name}.kernel"] = Parameter(
            rng.uniform(-bound, bound, size=shape), name=f"{name}.kernel")
        self.params[f"{name}.bias"] = Parameter(
            rng.uniform(-bound, bound, size=(co,)), name=f"{name}.bias")

    def parameters(self):
        return list(self.params.values())

    def _norm(self, t):
        return instance_norm(t) if self.config.normalization == "instance" else t

    def _conv(self, t, name, stride=1, padding=0):
        return conv_nd(t, self.params[f"{name}.kernel"],
                       self.params[f"{name}.bias"], stride=stride,
                       padding=padding)

    def _block(self, t, name, stride=1, padding=0):
        return self._norm(self._conv(t, name, stride, padding)).relu()

    def forward(self, x):
        """Run the network on a [N,C,spatial...] batch tensor."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.ndim != self.config.rank + 2:
            raise ShapeError(f"expected [N,C,{self.config.rank} spatial dims], "
                             f"got shape {x.shape}")
        multiple = 1 << self.config.depth
        for ext in x.shape[2:]:
            if ext % multiple:
                raise ShapeError(
                    f"spatial extents {x.shape[2:]} must be divisible by "
                    f"{multiple} (2^depth) for depth {self.config.depth}")

        h = self._block(x, "enc.stem", padding=1)
        skips = []
        for level in range(1, self.config.depth + 1):
            skips.append(h)
            h = self._block(h, f"enc.down{level}", stride=2)
            h = self._block(h, f"enc.block{level}", padding=1)

        seg1, logits1, sdm1 = self._decode(h, skips, "dec1")
        seg2, logits2, sdm2 = self._decode(h, skips, "dec2")
        return DualDecoderOutputs(seg1=seg1, seg2=seg2, sdm1=sdm1, sdm2=sdm2,
                                  logits1=logits1, logits2=logits2)

    def _decode(self, h, skips, dec):
        for level in range(self.config.depth, 0, -1):
            name = f"{dec}.up{level}"
            if dec == "dec1":
                up = conv_transpose_nd(h, self.params[f"{name}.kernel"],
                                       self.params[f"{name}.bias"], stride=2)
                h = self._norm(up).relu()
            else:
                h = self._block(interp_upsample(h), name)
            h = concat([h, skips[level - 1]], axis=1)
            h = self._block(h, f"{dec}.merge{level}", padding=1)
        logits = self._conv(h, f"{dec}.seg_head")
        seg = softmax_channel(logits).narrow(1, 1, 1)
        sdm = self._conv(h, f"{dec}.sdm_head").tanh()
        return seg, logits, sdm

    def state_tensors(self):
        return {f"param/{name}": p.data for name, p in self.params.items()}

    def load_state(self, tensors):
        for name, p in self.params.items():
            arr = tensors.get(f"param/{name}")
            if arr is None:
                raise FileFormatError(f"checkpoint is missing parameter {name}")
            if arr.shape != p.data.shape:
                raise FileFormatError(f"checkpoint parameter {name} has shape "
                                      f"{arr.shape}, expected {p.data.shape}")
            p.data = np.ascontiguousarray(arr, dtype=np.float64)
            p.grad = np.zeros_like(p.data)
            p.momentum = np.zeros_like(p.data)


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(path, net, extra_tensors=None, meta=None):
    """Write the network (plus optional extra arrays) as one binary file."""
    tensors = dict(net.state_tensors())
    if extra_tensors:
        tensors.update(extra_tensors)
    entries = {}
    payload = bytearray()
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        dtype = arr.dtype.name
        if dtype not in _DTYPES:
            raise FileFormatError(f"unsupported checkpoint dtype {dtype}")
        raw = np.ascontiguousarray(arr).astype(_DTYPES[dtype]).tobytes()
        entries[name] = {"shape": list(arr.shape), "dtype": dtype,
                         "offset": len(payload), "nbytes": len(raw)}
        payload.extend(raw)
    header = {"format": CHECKPOINT_FORMAT, "version": 1,
              "network": asdict(net.config), "meta": meta or {},
              "tensors": entries}
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(len(blob).to_bytes(8, "little"))
        f.write(blob)
        f.write(bytes(payload))


def _is_count(value):
    return type(value) is int and value >= 0


def _check_header(path, header, payload_len):
    """Raise FileFormatError unless every header field loading reads is
    present and of the type it is read as, and each tensor entry spans
    exactly its shape's bytes inside a payload of ``payload_len`` bytes."""
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise FileFormatError(f"{path}: bad format tag "
                              f"{header.get('format')!r}")
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
    network = header.get("network")
    keys = {f.name: type(f.default) for f in fields(NetworkConfig)}
    if not isinstance(network, dict) or set(network) != set(keys) or any(
            type(network[k]) is not t for k, t in keys.items()):
        raise FileFormatError(f"{path}: header 'network' must have exactly "
                              f"the keys {sorted(keys)}, typed as NetworkConfig's")
    if not isinstance(header.get("meta", {}), dict):
        raise FileFormatError(f"{path}: header 'meta' is not an object")


def load_checkpoint(path):
    """Read a checkpoint; returns (NetworkConfig, tensors, meta)."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 8:
        raise FileFormatError(f"{path}: too short to be a checkpoint")
    hlen = int.from_bytes(blob[:8], "little")
    if 8 + hlen > len(blob):
        raise FileFormatError(f"{path}: header length {hlen} exceeds file size")
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FileFormatError(f"{path}: unreadable header ({e})") from None
    payload = blob[8 + hlen:]
    _check_header(path, header, len(payload))
    tensors = {}
    for name, entry in header["tensors"].items():
        dtype = entry["dtype"]
        end = entry["offset"] + entry["nbytes"]
        arr = np.frombuffer(payload[entry["offset"]:end], dtype=_DTYPES[dtype])
        # astype copies, so loaded tensors are writable and natively ordered
        tensors[name] = arr.reshape(entry["shape"]).astype(dtype)
    try:
        config = NetworkConfig(**header["network"])
    except ConfigError as e:
        raise FileFormatError(f"{path}: invalid network config ({e})") from None
    return config, tensors, header.get("meta", {})


def net_from_checkpoint(path):
    """Rebuild a network from a checkpoint file."""
    config, tensors, meta = load_checkpoint(path)
    net = DualDecoderNet(config)
    net.load_state(tensors)
    return net, tensors, meta
