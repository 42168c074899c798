"""Shared test oracles: finite differences, nested loops, brute-force searches.

Everything here is deliberately independent of the library's own
implementations (nested python loops, all-pairs searches, scipy morphology)
so the tests compare two genuinely different routes to the same numbers.
"""

import itertools

import numpy as np
from scipy.ndimage import binary_erosion, generate_binary_structure

from geoseg.tensor import Parameter, Tensor


def fd_gradient(loss_fn, array, h=1e-6):
    """Central finite differences of a scalar closure w.r.t. one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = loss_fn()
        flat[i] = keep - h
        down = loss_fn()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def assert_grads_match(analytic, fd, rel=1e-4, abs_floor=1e-7):
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    tol = rel * np.maximum(np.abs(analytic), np.abs(fd)) + abs_floor
    bad = np.abs(analytic - fd) > tol
    assert not bad.any(), (
        f"{bad.sum()} of {bad.size} gradient entries off; worst "
        f"analytic={analytic[bad].flat[0]} fd={fd[bad].flat[0]}")


def conv_oracle(x, k, stride, pad):
    """Direct nested-loop cross-correlation (any spatial rank)."""
    rank = x.ndim - 2
    stride = (stride,) * rank if isinstance(stride, int) else tuple(stride)
    pad = (pad,) * rank if isinstance(pad, int) else tuple(pad)
    xp = np.pad(x, [(0, 0), (0, 0)] + [(p, p) for p in pad])
    n, ci = x.shape[:2]
    co = k.shape[0]
    kext = k.shape[2:]
    out_sp = tuple((xp.shape[2 + a] - kext[a]) // stride[a] + 1
                   for a in range(rank))
    out = np.zeros((n, co) + out_sp)
    for b in range(n):
        for o in range(co):
            for site in np.ndindex(*out_sp):
                acc = 0.0
                for c in range(ci):
                    for tap in np.ndindex(*kext):
                        src = tuple(stride[a] * site[a] + tap[a]
                                    for a in range(rank))
                        acc += xp[(b, c) + src] * k[(o, c) + tap]
                out[(b, o) + site] = acc
    return out


def _conv_grid(stride, out_sp, kext):
    """Yield (output site, kernel tap, input index) for every contribution."""
    rank = len(out_sp)
    stride = (stride,) * rank if isinstance(stride, int) else tuple(stride)
    for site in np.ndindex(*out_sp):
        for tap in np.ndindex(*kext):
            yield site, tap, tuple(stride[a] * site[a] + tap[a]
                                   for a in range(rank))


def conv_bwd_input_oracle(gy, k, stride, padded_spatial):
    """Nested-loop gradient of the unpadded cross-correlation w.r.t. its input."""
    n, co = gy.shape[:2]
    ci = k.shape[1]
    gx = np.zeros((n, ci) + tuple(padded_spatial))
    for b in range(n):
        for o in range(co):
            for c in range(ci):
                for site, tap, src in _conv_grid(stride, gy.shape[2:], k.shape[2:]):
                    gx[(b, c) + src] += gy[(b, o) + site] * k[(o, c) + tap]
    return gx


def conv_bwd_kernel_oracle(xp, gy, stride, kernel_spatial):
    """Nested-loop gradient of the unpadded cross-correlation w.r.t. its kernel."""
    n, co = gy.shape[:2]
    ci = xp.shape[1]
    gk = np.zeros((co, ci) + tuple(kernel_spatial))
    for b in range(n):
        for o in range(co):
            for c in range(ci):
                for site, tap, src in _conv_grid(stride, gy.shape[2:], kernel_spatial):
                    gk[(o, c) + tap] += gy[(b, o) + site] * xp[(b, c) + src]
    return gk


def instance_norm_relu_reference(x, g, eps=1e-5):
    """Instance normalization and ReLU as two separate steps, forward and
    backward, over the spatial axes of [N, C, spatial...]: returns the
    output and the input gradient for the upstream gradient ``g``."""
    axes = tuple(range(2, x.ndim))
    mu = x.mean(axis=axes, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = xc * inv
    gr = g * (y > 0.0)
    gm = gr.mean(axis=axes, keepdims=True)
    gym = (gr * y).mean(axis=axes, keepdims=True)
    return np.maximum(y, 0.0), inv * (gr - gm - y * gym)


def _linear_x2_sources(n):
    # source coordinate of output j is (j + 0.5) / 2 - 0.5, clamped
    src = np.clip((np.arange(2 * n) + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n - 1)
    w1 = src - i0
    return i0, i1, 1.0 - w1, w1


def upsample_reference(x, g):
    """Factor-2 align-corners-false linear up-sampling of the spatial axes
    by gathers of each output's two source samples, and its adjoint applied
    to the upstream gradient ``g``: returns (output, input gradient)."""
    axes = tuple(range(2, x.ndim))
    y = x
    for axis in axes:
        i0, i1, w0, w1 = _linear_x2_sources(y.shape[axis])
        wshape = [1] * y.ndim
        wshape[axis] = -1
        y = (np.take(y, i0, axis=axis) * w0.reshape(wshape)
             + np.take(y, i1, axis=axis) * w1.reshape(wshape))
    for axis in reversed(axes):
        moved = np.moveaxis(g, axis, 0)
        even, odd = moved[0::2], moved[1::2]
        n = even.shape[0]
        gx = np.zeros((n,) + moved.shape[1:])
        gx[0] += even[0]
        if n > 1:
            gx[1:] += 0.75 * even[1:]
            gx[:-1] += 0.25 * even[1:]
            gx[:-1] += 0.75 * odd[:-1]
            gx[1:] += 0.25 * odd[:-1]
        gx[n - 1] += odd[n - 1]
        g = np.moveaxis(gx, 0, axis)
    return y, g


def serial_backward(root):
    """Gradients of the scalar ``root`` from one thread's reverse walk, as
    {id(node): gradient}; node ``grad`` fields are left alone.

    The walk visits the nodes in reverse of an iterative postorder from the
    root, which pushes each node's operands in order.  Each operation node
    applies its backward once to its summed gradient, and each operand's
    sum takes the contributions in walk order, ``a + b`` at a time.  A
    parameter's sum starts from zeros, as a ``Parameter``'s gradient does.
    """
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents
                         if p.requires_grad and id(p) not in seen)
    grads = {id(root): np.ones(())}
    for node in order[::-1]:
        if node._backward is None:
            continue
        for operand, g in zip(node._parents, node._backward(grads[id(node)])):
            if g is None or not operand.requires_grad:
                continue
            if id(operand) in grads:
                grads[id(operand)] = grads[id(operand)] + g
            elif isinstance(operand, Parameter):
                grads[id(operand)] = np.zeros_like(operand.data) + g
            else:
                grads[id(operand)] = g
    return grads


def assert_bitwise_equal(got, want):
    """Same shape and the same float64 bit patterns, signed zeros included."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    same = got.view(np.uint64) == want.view(np.uint64)
    assert same.all(), (f"{(~same).sum()} of {same.size} entries differ; "
                        f"first got={got[~same][0]!r} want={want[~same][0]!r}")


def brute_force_edt_sq(mask):
    """All-pairs nearest-foreground squared distances, exact int64."""
    mask = np.asarray(mask).astype(bool)
    coords = np.indices(mask.shape).reshape(mask.ndim, -1).T.astype(np.int64)
    fg = np.argwhere(mask).astype(np.int64)
    best = np.full(coords.shape[0], np.iinfo(np.int64).max, dtype=np.int64)
    for start in range(0, fg.shape[0], 512):
        chunk = fg[start:start + 512]
        d = ((coords[:, None, :] - chunk[None, :, :]) ** 2).sum(axis=2)
        best = np.minimum(best, d.min(axis=1))
    return best.reshape(mask.shape)


def face_structure(ndim):
    return generate_binary_structure(ndim, 1)


def oracle_boundary(mask):
    """Foreground voxels with a face-adjacent background voxel, via erosion.

    border_value=1 so the grid edge never counts as background.
    """
    mask = np.asarray(mask).astype(bool)
    eroded = binary_erosion(mask, structure=face_structure(mask.ndim),
                            border_value=1)
    return mask & ~eroded


def brute_force_signed_distance(mask):
    mask = np.asarray(mask).astype(bool)
    bnd = oracle_boundary(mask)
    assert bnd.any(), "oracle needs a non-degenerate mask"
    d = np.sqrt(brute_force_edt_sq(bnd).astype(np.float64))
    signed = np.where(mask, -d, d)
    signed[bnd] = 0.0
    return signed


def brute_force_surface_distances(a, b, percentile=95.0):
    sa = np.argwhere(oracle_boundary(a)).astype(np.float64)
    sb = np.argwhere(oracle_boundary(b)).astype(np.float64)
    assert len(sa) and len(sb)
    d = np.sqrt(((sa[:, None, :] - sb[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(pooled.mean()), float(np.percentile(pooled, percentile))


def sliding_tiles(volume, window, stride):
    """(padded volume, its window slices in corner order).

    The volume is zero-padded at its trailing edges up to the window; tiles
    start at every multiple of the stride, plus one clamped to each axis's
    end.
    """
    shape = np.shape(volume)
    padded = np.zeros([max(n, w) for n, w in zip(shape, window)])
    padded[tuple(slice(0, n) for n in shape)] = volume
    axes = []
    for n, w, s in zip(padded.shape, window, stride):
        starts = list(range(0, n - w + 1, s))
        if starts[-1] != n - w:
            starts.append(n - w)
        axes.append(starts)
    return padded, [tuple(slice(o, o + w) for o, w in zip(corner, window))
                    for corner in itertools.product(*axes)]


def per_tile_sliding_window(net, volume, window, stride, head="seg"):
    """Sliding-window inference with one ``net.predict`` call per tile of
    ``sliding_tiles``; the maps are summed in corner order and divided by
    visit counts."""
    padded, tiles = sliding_tiles(volume, window, stride)
    total, count = np.zeros(padded.shape), np.zeros(padded.shape)
    for sl in tiles:
        total[sl] += net.predict(Tensor(padded[sl][None, None]))[head].data[0, 0]
        count[sl] += 1.0
    total /= count
    return total[tuple(slice(0, n) for n in np.shape(volume))]


def random_mask(rng, shape, p=None):
    """Random Bernoulli mask with at least one foreground voxel."""
    p = rng.uniform(0.15, 0.7) if p is None else p
    mask = rng.random(shape) < p
    if not mask.any():
        mask.flat[int(rng.integers(mask.size))] = True
    return mask


def random_blob_mask(rng, shape):
    """Connected-ish random ellipsoidal blob, non-degenerate by construction."""
    coords = np.indices(shape).astype(np.float64)
    center = np.array([rng.uniform(0.3, 0.7) * n for n in shape])
    radii = np.array([rng.uniform(0.15, 0.35) * n for n in shape])
    q = sum(((coords[i] - center[i]) / radii[i]) ** 2 for i in range(len(shape)))
    mask = q <= 1.0
    if not mask.any() or mask.all():
        return random_mask(rng, shape, p=0.4)
    return mask
