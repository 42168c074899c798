"""Shared-encoder, dual-decoder segmentation network.

It takes single-channel images, and every conv block ends in instance
normalization fused with ReLU (``tensor.instance_norm_relu``).  Both
decoders are structurally identical and consume the same encoder
features, but they up-sample differently: decoder 1 uses learned transposed
convolutions, decoder 2 a width-1 convolution followed by linear
interpolation.  The two commute, since both are linear and each
interpolated output's weights sum to one (so the bias passes through), and
the convolution runs first, on a quarter (2D) or an eighth (3D) of the
positions.  Each decoder ends in a 2-channel segmentation head (softmax)
and a 1-channel signed-distance head (tanh).  Skip connections from every
encoder resolution feed both decoders.

``forward`` runs the encoder and both decoders, as training needs.  The
decoders read the same encoder features and never each other, so decoder
2 runs on a second thread while decoder 1 runs on the caller's
(``tensor.fork``); its nodes are lane 1, so ``Tensor.backward`` runs it
concurrently too.  Decoder 1 (``FINAL_DECODER``) makes the test-time
prediction; ``predict`` runs the encoder and that decoder alone, since
nothing reads decoder 2 there.  Sliding-window inference runs its tile
batches through it one after another, on the caller's thread
(``inference.sliding_window_infer``).

``decode`` consumes the skip list it is handed, popping each skip once it
is merged, so without a graph (``predict`` under ``no_grad``) each skip is
freed as soon as it is used.  ``forward`` hands each decoder its own copy
of the list; in training the graph holds each skip until the backward has
run, and released, every layer that reads it (``Tensor.backward``).  A
merge's concatenation is zero-padded as it is built
(``tensor.concat_padded``), so its 3x3 convolution makes no padded copy of
it, and without a graph it is freed before the merge's norm.  One 3-tile
64x64 ``predict`` at the default config peaks at about 1.8 MiB of arrays
in float32, the dtype inference runs it in (``astype``), and 3.5 MiB in
float64.  In training the concatenation adopts the up path's norm output
that it copies, and an encoder block's padded input the down layer's
output, so each is held once (``tensor``, "Release").  A skip keeps its
own array: the next down layer and the other decoder read it too.  A
default 2+2, 64x64 training step peaks at about 32.5 MiB of arrays.

A checkpoint is one container file of ``data.encode_container`` whose
header carries the network config and free-form metadata next to every
parameter and its momentum buffer (``state_tensors``).
"""

import copy
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import _fits_an_array, _write_atomic, encode_container, \
    read_container
from .errors import ConfigError, FileFormatError, ShapeError
from .tensor import (Parameter, Tensor, concat_padded, conv_nd,
                     conv_transpose_nd, fork, instance_norm_relu,
                     interp_upsample, softmax_channel)

CHECKPOINT_FORMAT = "geoseg-checkpoint"
# (name prefix, Parameter attribute) of each kind of checkpointed tensor
_STATE = (("param/", "data"), ("momentum/", "momentum"))


@dataclass(frozen=True)
class NetworkConfig:
    rank: int = 2
    width: int = 8
    depth: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.rank not in (2, 3):
            raise ConfigError(f"rank must be 2 or 3, got {self.rank}")
        if self.width < 2:
            raise ConfigError(f"width must be >= 2, got {self.width}")
        # an input extent is a positive multiple of 2^depth, and no numpy
        # axis is longer than 2^63 - 1
        if not 1 <= self.depth <= 62:
            raise ConfigError(f"depth must be in [1, 62], got {self.depth}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name, shape, _ in _param_shapes(self):
            if not _fits_an_array(shape, np.dtype(np.float64).itemsize):
                raise ConfigError(f"width {self.width} at depth {self.depth} "
                                  f"gives {name} the shape {shape}, too large "
                                  f"for an array")


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


# the decoder whose maps are the prediction: decoder 1, the
# transposed-convolution decoder
FINAL_DECODER = 1


def _param_shapes(config):
    """(name, shape, fan-in) of every parameter of a ``config`` network, in
    the order ``DualDecoderNet`` draws them: each conv's kernel, then its
    bias.  A transposed kernel is laid out [C_in, C_out, k...]."""
    r, w, d = config.rank, config.width, config.depth
    chans = [w * (1 << level) for level in range(d + 1)]
    shapes = []

    def conv(name, co, ci, k, transpose=False):
        kernel = ((ci, co) if transpose else (co, ci)) + (k,) * r
        shapes.extend([(f"{name}.kernel", kernel, ci * k ** r),
                       (f"{name}.bias", (co,), ci * k ** r)])

    conv("enc.stem", w, 1, 3)
    for level in range(1, d + 1):
        conv(f"enc.down{level}", chans[level], chans[level - 1], 2)
        conv(f"enc.block{level}", chans[level], chans[level], 3)
    for dec in ("dec1", "dec2"):
        for level in range(d, 0, -1):
            ci, co = chans[level], chans[level - 1]
            if dec == "dec1":
                conv(f"{dec}.up{level}", co, ci, 2, transpose=True)
            else:
                conv(f"{dec}.up{level}", co, ci, 1)
            conv(f"{dec}.merge{level}", co, 2 * co, 3)
        conv(f"{dec}.seg_head", 2, w, 1)
        conv(f"{dec}.sdm_head", 1, w, 1)
    return shapes


class DualDecoderNet:
    def __init__(self, config):
        # seeded uniform fan-in initialization of every kernel and bias
        self.config = config
        self.params = {}
        rng = np.random.default_rng(config.seed)
        for name, shape, fan_in in _param_shapes(config):
            bound = 1.0 / np.sqrt(fan_in)
            self.params[name] = Parameter(
                rng.uniform(-bound, bound, size=shape), name=name)

    def parameters(self):
        return list(self.params.values())

    def astype(self, dtype):
        """This network if every parameter holds ``dtype``; else a copy
        whose parameters are ``dtype`` ``Parameter``s under their own names,
        leaving this network alone.  Test-time prediction runs a float32
        copy, made once per ``inference.evaluate``."""
        if all(p.data.dtype == dtype for p in self.params.values()):
            return self
        net = copy.copy(self)
        net.params = {name: Parameter(p.data.astype(dtype), name=name)
                      for name, p in self.params.items()}
        return net

    def _conv(self, t, name, stride=1, padding=0):
        return conv_nd(t, self.params[f"{name}.kernel"],
                       self.params[f"{name}.bias"], stride=stride,
                       padding=padding)

    def _block(self, t, name, stride=1, padding=0):
        return instance_norm_relu(self._conv(t, name, stride, padding))

    def encode(self, x):
        """Encoder pass on a [N,C,spatial...] batch tensor: the bottleneck
        features and the skip tensors, finest resolution first."""
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
        return h, skips

    def decode(self, h, skips, dec):
        """One decoder's pass over ``encode``'s output: (seg, logits, sdm).
        Pops each skip from ``skips`` once it is merged, coarsest first."""
        for level in range(self.config.depth, 0, -1):
            h = instance_norm_relu(self._up(h, dec, level))
            h = concat_padded([h, skips.pop()])
            # two statements, so that without a graph the concat is freed
            # before the norm runs
            h = self._conv(h, f"{dec}.merge{level}")
            h = instance_norm_relu(h)
        logits = self._conv(h, f"{dec}.seg_head")
        seg = softmax_channel(logits).narrow(1, 1, 1)
        sdm = self._conv(h, f"{dec}.sdm_head").tanh()
        return seg, logits, sdm

    def _up(self, h, dec, level):
        # x2 up-sampling layer, before its norm+ReLU; decoder 2 convolves
        # first, on the coarse grid (see the module docstring)
        name = f"{dec}.up{level}"
        if dec == "dec1":
            return conv_transpose_nd(h, self.params[f"{name}.kernel"],
                                     self.params[f"{name}.bias"], stride=2)
        return interp_upsample(self._conv(h, name))

    def forward(self, x):
        """Run the encoder and both decoders on a [N,C,spatial...] batch,
        decoder 2 on the worker thread."""
        h, skips = self.encode(x)
        (seg1, logits1, sdm1), (seg2, logits2, sdm2) = fork(
            lambda: self.decode(h, list(skips), "dec1"),
            lambda: self.decode(h, list(skips), "dec2"))
        return DualDecoderOutputs(seg1=seg1, seg2=seg2, sdm1=sdm1, sdm2=sdm2,
                                  logits1=logits1, logits2=logits2)

    def predict(self, x):
        """The final decoder's maps of ``x`` as {"seg": ..., "sdm": ...},
        each [N,1,spatial...]; decoder 2 is not run."""
        seg, _, sdm = self.decode(*self.encode(x), f"dec{FINAL_DECODER}")
        return {"seg": seg, "sdm": sdm}

    def state_tensors(self):
        """(name, array) of every parameter as ``param/<name>``, then every
        momentum buffer as ``momentum/<name>``, in ``params`` order."""
        for prefix, attr in _STATE:
            for name, p in self.params.items():
                yield prefix + name, getattr(p, attr)

    def load_state(self, tensors):
        """Copy every tensor ``state_tensors`` names from a checkpoint's
        ``tensors``, each checked by ``net_from_checkpoint``, into the
        parameter's own array; zero each grad."""
        for name, p in self.params.items():
            for prefix, attr in _STATE:
                np.copyto(getattr(p, attr), tensors[prefix + name])
            p.grad.fill(0.0)


# -- checkpoint container ---------------------------------------------------


def save_checkpoint(path, net, meta=None):
    """Write the network, its momentum buffers and ``meta`` as one
    container file."""
    _write_atomic({path: encode_container(
        CHECKPOINT_FORMAT, dict(net.state_tensors()),
        {"network": asdict(net.config), "meta": meta or {}})})


def load_checkpoint(path):
    """Read a checkpoint; returns (NetworkConfig, tensors, meta)."""
    header, tensors = read_container(path, CHECKPOINT_FORMAT)
    network = header.get("network")
    keys = {f.name: type(f.default) for f in fields(NetworkConfig)}
    if not isinstance(network, dict) or set(network) != set(keys) or any(
            type(network[k]) is not t for k, t in keys.items()):
        raise FileFormatError(f"{path}: header 'network' must have exactly "
                              f"the keys {sorted(keys)}, typed as NetworkConfig's")
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise FileFormatError(f"{path}: header 'meta' is not an object")
    try:
        config = NetworkConfig(**network)
    except ConfigError as e:
        raise FileFormatError(f"{path}: invalid network config ({e})") from None
    return config, tensors, meta


def net_from_checkpoint(path):
    """Rebuild a network from a checkpoint file.  Every tensor that
    ``state_tensors`` names must be there, with the shape the header's
    config gives it, before any parameter is drawn: a header that claims a
    network too large to allocate fails here."""
    config, tensors, meta = load_checkpoint(path)
    for name, shape, _ in _param_shapes(config):
        for prefix, _ in _STATE:
            arr = tensors.get(prefix + name)
            if arr is None or arr.shape != shape:
                found = "missing" if arr is None else f"shape {arr.shape}"
                raise FileFormatError(f"checkpoint tensor {prefix}{name} is "
                                      f"{found}, expected shape {shape}")
    net = DualDecoderNet(config)
    net.load_state(tensors)
    return net, tensors, meta
