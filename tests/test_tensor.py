"""Autodiff engine: forward semantics, gradient correctness, the optimizer.

Every differentiable operation gets a central-finite-difference check at
h=1e-6 in double precision, relative tolerance 1e-4.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from geoseg import tensor
from geoseg.errors import ConfigError, ShapeError, TrainingAbort
from geoseg.tensor import (SGD, Parameter, Tensor, concat_padded,
                           conv_nd, conv_transpose_nd, instance_norm_relu,
                           interp_upsample, logsumexp_channel, mse, no_grad,
                           softmax_channel)
from helpers import (assert_bitwise_equal, assert_grads_match, fd_gradient,
                     instance_norm_relu_reference, record_arrays,
                     upsample_reference)

rng = np.random.default_rng(7)


def check_op(build_loss, *arrays):
    """FD-check a scalar graph against the recorded backward pass."""
    params = [Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)]
    build_loss(*params).backward()
    for p in params:
        fd = fd_gradient(lambda: build_loss(*params).item(), p.data)
        assert_grads_match(p.grad, fd)


# -- forward semantics -------------------------------------------------------


def test_elementwise_values():
    t = Tensor([1.0, 2.0, 3.0])
    assert t.mean().item() == 2.0
    assert t.sum().item() == 6.0
    assert Tensor(0.0).tanh().item() == 0.0
    assert Tensor(0.0).sigmoid().item() == 0.5


def test_item_takes_any_one_element_tensor():
    for shape in [(), (1,), (1, 1), (1, 1, 1, 1)]:
        got = Tensor(np.full(shape, -2.5)).item()
        assert type(got) is float and got == -2.5
    with pytest.raises(ShapeError, match=r"\(2, 1\)"):
        Tensor(np.zeros((2, 1))).item()


def test_sigmoid_equals_the_three_exponential_form_bitwise():
    # approx_inverse feeds it -k*sdm with k = 1500, so |a| reaches 1e3..1e4
    # where the exponential underflows
    a = np.concatenate([rng.uniform(-1e4, 1e4, 2000),
                        40.0 * rng.standard_normal(2000),
                        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.2,
                         -745.2, 1e4, -1e4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = Tensor(a).sigmoid().data
    want = np.where(a >= 0, 1.0 / (1.0 + np.exp(-np.abs(a))),
                    np.exp(-np.abs(a)) / (1.0 + np.exp(-np.abs(a))))
    assert_bitwise_equal(got, want)


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])


def test_scalar_broadcast_allowed():
    t = 2.0 * Tensor([1.0, 2.0]) + 1.0
    np.testing.assert_array_equal(t.data, [3.0, 5.0])


def test_softmax_channel_properties():
    z = Tensor(rng.standard_normal((2, 3, 4, 4)))
    p = softmax_channel(z).data
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    # shift invariance
    p2 = softmax_channel(z + 5.0).data
    np.testing.assert_allclose(p, p2, atol=1e-12)
    # equal logits -> uniform; saturation
    eq = softmax_channel(Tensor(np.zeros((1, 2, 1, 1)))).data
    np.testing.assert_allclose(eq, 0.5)
    sat = softmax_channel(Tensor(np.array([0.0, 20.0]).reshape(1, 2, 1, 1))).data
    assert abs(sat[0, 1, 0, 0] - 1.0) < 1e-8


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_backward_simple():
    p = Parameter([1.0, -2.0])
    p.square().sum().backward()
    np.testing.assert_array_equal(p.grad, [2.0, -4.0])


def test_unreachable_parameter_gradient_is_exactly_zero():
    used = Parameter([1.0, 2.0])
    unused = Parameter([3.0, 4.0])
    used.square().sum().backward()
    np.testing.assert_array_equal(unused.grad, [0.0, 0.0])


def test_node_reused_twice_accumulates_once_per_path():
    p = Parameter([3.0])
    y = p * 2.0
    (y * y).sum().backward()  # d/dp (2p)^2 = 8p = 24
    np.testing.assert_allclose(p.grad, [24.0])


def test_no_grad_blocks_recording():
    p = Parameter([1.0])
    with no_grad():
        out = p * 3.0
    assert not out.requires_grad and out._backward is None


# -- gradient checks (central differences, h=1e-6, rel 1e-4) -----------------


def test_grad_arithmetic():
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4)) + 2.0
    check_op(lambda x, y: ((x * y + x / y - y) * 0.7).sum(), a, b)


def test_grad_unary():
    a = rng.standard_normal((4, 5)) + 0.1
    check_op(lambda x: x.square().mean(), a)
    check_op(lambda x: x.tanh().sum(), a)
    check_op(lambda x: x.sigmoid().sum(), a)


def test_grad_narrow_concat():
    a = rng.standard_normal((4, 3, 2))
    b = rng.standard_normal((4, 2, 2))
    check_op(lambda x, y: (concat_padded([x, y]).square()).mean()
             + x.narrow(0, 1, 2).sum(), a, b)
    with pytest.raises(ShapeError):
        concat_padded([Tensor(a), Tensor(b[:, :, :1])])


@pytest.mark.parametrize("shapes", [((2, 3, 5, 4), (2, 2, 5, 4)),
                                    ((1, 2, 3, 4, 2), (1, 1, 3, 4, 2))],
                         ids=["2d", "3d"])
def test_padded_concat_is_the_padded_conv_input_bitwise(shapes):
    # a 3x3 conv at padding 0 over the padded concatenation equals the conv
    # at padding 1 over the plain one, in its output and every gradient
    a, b = (rng.standard_normal(s) for s in shapes)
    k = rng.standard_normal((3, shapes[0][1] + shapes[1][1])
                            + (3,) * (len(shapes[0]) - 2))
    bias = rng.standard_normal(3)
    g = rng.standard_normal(shapes[0][:1] + (3,) + shapes[0][2:])
    params = [Parameter(v.copy()) for v in (a, b, k, bias)]
    y = conv_nd(concat_padded(params[:2]), params[2], params[3])
    (y * Tensor(g)).sum().backward()
    plain = [Parameter(np.concatenate([a, b], axis=1))] + [
        Parameter(v.copy()) for v in (k, bias)]
    want = conv_nd(plain[0], plain[1], plain[2], padding=1)
    (want * Tensor(g)).sum().backward()
    assert_bitwise_equal(y.data, want.data)
    want_grads = (np.split(plain[0].grad, [shapes[0][1]], axis=1)
                  + [p.grad for p in plain[1:]])
    for p, want_grad in zip(params, want_grads):
        assert_bitwise_equal(p.grad, want_grad)


def test_grad_softmax_logsumexp():
    z = rng.standard_normal((2, 3, 3, 2))
    w = rng.standard_normal((2, 1, 3, 2))
    check_op(lambda x: (softmax_channel(x).square()).sum(), z)
    check_op(lambda x, y: (logsumexp_channel(x) * y).sum(), z, w)


def _away_from_relu_kink(shape):
    # each (item, channel) slice holds values v and -v with |v| >= 0.5, so
    # its mean is zero and normalizing only scales it; then a per-slice
    # scale and offset, so the op has to undo both
    half = shape[:2] + (int(np.prod(shape[2:])) // 2,)
    v = rng.uniform(0.5, 2.0, half) * rng.choice([-1.0, 1.0], half)
    z = rng.permuted(np.concatenate([v, -v], axis=2), axis=2).reshape(shape)
    return z * rng.uniform(0.5, 3.0, shape[:2] + (1,) * (len(shape) - 2)) \
        + rng.standard_normal(shape[:2] + (1,) * (len(shape) - 2))


def test_grad_instance_norm():
    for shape in [(2, 3, 4, 5), (1, 2, 2, 3, 4)]:
        x = _away_from_relu_kink(shape)
        axes = tuple(range(2, len(shape)))
        xc = x - x.mean(axis=axes, keepdims=True)
        assert (np.abs(xc) / xc.std(axis=axes, keepdims=True)).min() >= 1e-3
        w = rng.standard_normal(shape)
        check_op(lambda t: (instance_norm_relu(t) * Tensor(w)).sum()
                 + instance_norm_relu(t).square().mean(), x)


@pytest.mark.parametrize("shape", [(2, 3, 5, 4), (2, 2, 3, 4, 2)],
                         ids=["2d", "3d"])
def test_instance_norm_relu_is_bitwise_the_two_node_formula(shape):
    x = rng.standard_normal(shape) * 2.0 + 0.5
    x[1, 0] = 0.75  # a constant channel: zero variance, only eps is left
    g = rng.standard_normal(shape)
    t = Tensor(x, requires_grad=True)  # grad starts as None, not +0.0
    out = instance_norm_relu(t)
    (out * Tensor(g)).sum().backward()
    want_y, want_gx = instance_norm_relu_reference(x, g)
    assert_bitwise_equal(out.data, want_y)
    assert_bitwise_equal(t.grad, want_gx)
    assert not out.data[1, 0].any()


@pytest.mark.parametrize("shape", [(4, 8, 64, 64), (2, 4, 16, 16, 16)],
                         ids=["2d", "3d"])
def test_a_norm_node_keeps_no_second_full_size_array(shape):
    # the node holds its output, a view of its operand's data and two
    # numbers per (item, channel); a saved normalized copy would double it
    t = Tensor(rng.standard_normal(shape), requires_grad=True)
    tracemalloc.start()
    try:
        out = instance_norm_relu(t)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    assert held <= 1.1 * t.data.nbytes


def test_a_norm_forward_squares_one_item_at_a_time():
    # the variance's square of one item, not of the batch, lives next to
    # the output: a peak of 1.253x the operand's bytes, 2.002x with the
    # batch's square
    t = Tensor(rng.standard_normal((4, 8, 64, 64)), requires_grad=True)
    tracemalloc.start()
    try:
        instance_norm_relu(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * t.data.nbytes


def _three_array_norm_backward(x, g):
    # the norm's input gradient as its backward formed it with gr * y as a
    # third block-sized array
    shape = x.shape
    x = x.reshape(shape[:2] + (-1,))
    mu = x.mean(axis=2, keepdims=True)
    y = x - mu
    inv = 1.0 / np.sqrt((y * y).mean(axis=2, keepdims=True) + 1e-5)
    y *= inv
    gr = g.reshape(y.shape) * (y > 0.0)
    tmp = gr * y
    gym = tmp.mean(axis=2, keepdims=True)
    gr -= gr.mean(axis=2, keepdims=True)
    gr -= np.multiply(y, gym, out=tmp)
    gr *= inv
    return gr.reshape(shape)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(4, 8, 16, 16), (1, 3, 6, 5),
                                   (2, 2, 3, 4, 2)],
                         ids=["2d", "2d-one-item", "3d"])
def test_a_norm_backward_is_bitwise_its_three_array_formula(shape, dtype):
    x = (rng.standard_normal(shape) * 2.0 + 0.5).astype(dtype)
    x[0, 1] = 0.75  # a constant channel: zero variance, only eps is left
    g = rng.standard_normal(shape).astype(dtype)
    t = Tensor(x, requires_grad=True)
    (gx,) = instance_norm_relu(t)._backward(g)
    assert gx.dtype == dtype
    assert_bitwise_equal(gx, _three_array_norm_backward(x, g))


def test_a_norm_backward_holds_two_block_sized_arrays():
    # the rebuilt y and the masked gradient, which becomes the result, plus
    # one item's product: a peak of 2.252x the operand's bytes (seeds 0-3),
    # 3.065x with a third block-sized array for gr * y
    t = Tensor(rng.standard_normal((4, 8, 64, 64)), requires_grad=True)
    out = instance_norm_relu(t)
    g = rng.standard_normal(t.shape)
    tracemalloc.start()
    try:
        out._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * t.data.nbytes


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_grad_conv2d(stride, padding):
    x = rng.standard_normal((2, 2, 6, 5))
    k = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    check_op(lambda t, w, c: conv_nd(t, w, c, stride=stride,
                                     padding=padding).square().sum(), x, k, b)


def test_grad_conv3d():
    x = rng.standard_normal((1, 2, 4, 4, 4))
    k = rng.standard_normal((2, 2, 2, 2, 2))
    b = rng.standard_normal(2)
    check_op(lambda t, w, c: conv_nd(t, w, c, stride=2).square().sum(), x, k, b)


@pytest.mark.parametrize("stride", [1, 2])
def test_grad_conv_transpose(stride):
    x = rng.standard_normal((2, 3, 4, 4))
    k = rng.standard_normal((3, 2, 2, 2))
    b = rng.standard_normal(2)
    check_op(lambda t, w, c: conv_transpose_nd(t, w, c,
                                               stride=stride).square().sum(),
             x, k, b)


def test_grad_interp_upsample():
    x = rng.standard_normal((2, 2, 4, 3))
    check_op(lambda t: interp_upsample(t).square().sum(), x)
    x3 = rng.standard_normal((1, 2, 4, 4, 2))
    check_op(lambda t: interp_upsample(t).square().mean(), x3)


# -- convolution contracts ---------------------------------------------------


def test_conv_identity_kernel():
    x = Tensor(rng.standard_normal((1, 1, 5, 5)))
    k = Tensor(np.ones((1, 1, 1, 1)))
    np.testing.assert_allclose(conv_nd(x, k).data, x.data)


def test_conv_constant_field():
    x = Tensor(np.ones((1, 1, 5, 5)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    np.testing.assert_allclose(conv_nd(x, k).data, 9.0)


def test_conv_output_extent_formula():
    x = Tensor(rng.standard_normal((1, 1, 10, 9)))
    k = Tensor(rng.standard_normal((1, 1, 3, 3)))
    out = conv_nd(x, k, stride=2, padding=1)
    assert out.shape == (1, 1, (10 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)


def test_conv_channel_mismatch_names_both_shapes():
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    k = Tensor(rng.standard_normal((1, 3, 3, 3)))
    with pytest.raises(ShapeError, match=r"\(1, 2, 5, 5\).*\(1, 3, 3, 3\)"):
        conv_nd(x, k)


# (id, op, input shape, kernel shape, bias shape, stride, error).  The bad
# channel and bias cases would pass a check made on the other kernel axis.
BAD_CONV_OPERANDS = [
    ("conv-spatial-rank-1", conv_nd, (1, 2, 5), (3, 2, 3), None, 1, ShapeError),
    ("conv-kernel-rank", conv_nd, (1, 2, 5, 5), (3, 2, 3), None, 1, ShapeError),
    ("conv-channels", conv_nd, (1, 2, 5, 5), (2, 4, 3, 3), None, 1, ShapeError),
    ("conv-bias", conv_nd, (1, 2, 5, 5), (3, 2, 3, 3), (2,), 1, ShapeError),
    ("conv-stride-0", conv_nd, (1, 2, 5, 5), (3, 2, 3, 3), None, 0, ConfigError),
    ("transpose-spatial-rank-4", conv_transpose_nd, (1, 2, 3, 3, 3, 3),
     (2, 3, 2, 2, 2, 2), None, 1, ShapeError),
    ("transpose-kernel-rank", conv_transpose_nd, (1, 2, 4, 4), (2, 3, 2, 2, 2),
     None, 1, ShapeError),
    ("transpose-channels", conv_transpose_nd, (1, 2, 4, 4), (3, 2, 2, 2), None,
     1, ShapeError),
    ("transpose-bias", conv_transpose_nd, (1, 2, 4, 4), (2, 3, 2, 2), (2,), 2,
     ShapeError),
    ("transpose-stride-negative", conv_transpose_nd, (1, 2, 4, 4), (2, 3, 2, 2),
     None, (2, -1), ConfigError),
]


@pytest.mark.parametrize("op, x_shape, k_shape, b_shape, stride, error",
                         [case[1:] for case in BAD_CONV_OPERANDS],
                         ids=[case[0] for case in BAD_CONV_OPERANDS])
def test_malformed_conv_operand_names_op_and_shapes(op, x_shape, k_shape,
                                                    b_shape, stride, error):
    x, k = Tensor(np.zeros(x_shape)), Tensor(np.zeros(k_shape))
    b = None if b_shape is None else Tensor(np.zeros(b_shape))
    with pytest.raises(error) as info:
        op(x, k, b, stride=stride)
    message = str(info.value)
    assert op.__name__ in message
    assert str(x_shape) in message and str(k_shape) in message


def test_conv_kernel_too_large_rejected():
    x = Tensor(rng.standard_normal((1, 1, 4, 4)))
    k = Tensor(rng.standard_normal((1, 1, 6, 6)))
    with pytest.raises(ShapeError):
        conv_nd(x, k)


def test_conv_transpose_shape_formula():
    x = Tensor(rng.standard_normal((1, 1, 4, 4)))
    k = Tensor(rng.standard_normal((1, 1, 2, 2)))
    assert conv_transpose_nd(x, k, stride=2).shape == (1, 1, 8, 8)


def test_conv_transpose_impulse_response():
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 3] = 1.0
    k = rng.standard_normal((1, 1, 2, 2))
    out = conv_transpose_nd(Tensor(x), Tensor(k), stride=2).data
    np.testing.assert_allclose(out[0, 0, 4:6, 6:8], k[0, 0])
    out[0, 0, 4:6, 6:8] = 0.0
    assert np.all(out == 0.0)


@pytest.mark.parametrize("rank,stride", [(2, 1), (2, 2), (3, 2)])
def test_conv_transpose_is_adjoint_of_conv(rank, stride):
    spatial = (6,) * rank
    x = Tensor(rng.standard_normal((2, 3) + spatial))
    k = Tensor(rng.standard_normal((4, 3) + (2,) * rank))
    y_shape = conv_nd(x, k, stride=stride).shape
    y = Tensor(rng.standard_normal(y_shape))
    lhs = float((conv_nd(x, k, stride=stride).data * y.data).sum())
    rhs = float((x.data * conv_transpose_nd(y, k, stride=stride).data).sum())
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


# -- up-sampling contracts -----------------------------------------------------


def test_upsample_constant_maps_to_constant():
    x = Tensor(np.full((1, 1, 4, 4), 3.25))
    np.testing.assert_array_equal(interp_upsample(x).data, 3.25)


def test_upsample_shape_rule():
    assert interp_upsample(Tensor(np.zeros((1, 1, 4, 4)))).shape == (1, 1, 8, 8)


def test_upsample_ramp_matches_analytic_interpolation():
    # align-corners-false: output j samples the input at (j + 0.5)/2 - 0.5
    x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    # interior 3D axis of size 1 is untouched; use a 2-wide axis in 2D form
    got = interp_upsample(x).data[0, 0]
    src = np.clip((np.arange(4) + 0.5) / 2.0 - 0.5, 0.0, 1.0)
    want = np.interp(src, [0.0, 1.0], [0.0, 1.0])
    np.testing.assert_allclose(got[0], want)
    np.testing.assert_allclose(got[1], want)


@pytest.mark.parametrize("rank", [2, 3])
def test_upsample_is_bitwise_the_gather_formula(rank):
    # every extent in {1, 2, 3, 8} on every axis: all pairs in 2D, a
    # Latin square of them in 3D
    extents = [1, 2, 3, 8]
    if rank == 2:
        spatials = [(a, b) for a in extents for b in extents]
    else:
        spatials = [tuple(extents[(i + a) % 4] for a in range(3)) for i in range(4)]
    for spatial in spatials:
        x = rng.standard_normal((2, 3) + spatial)
        g = rng.standard_normal((2, 3) + tuple(2 * e for e in spatial))
        t = Tensor(x, requires_grad=True)
        out = interp_upsample(t)
        (out * Tensor(g)).sum().backward()
        want_y, want_gx = upsample_reference(x, g)
        assert_bitwise_equal(out.data, want_y)
        assert_bitwise_equal(t.grad, want_gx)


# -- optimizer ------------------------------------------------------------------


def test_sgd_step_no_momentum():
    # the first step has no momentum yet: a plain gradient step
    p = Parameter([1.0])
    p.grad = np.array([0.5])
    SGD([p]).step(0.1)
    np.testing.assert_allclose(p.data, [0.95])


def test_sgd_momentum_recurrence():
    # two steps of g=1 at lr=1 from w=0 with mu=0.9: w -> -1 -> -2.9
    p = Parameter([0.0])
    opt = SGD([p])
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step(1.0)
    np.testing.assert_allclose(p.data, [-2.9])


def test_sgd_zero_gradient_keeps_parameters():
    p = Parameter([1.5])
    opt = SGD([p])
    opt.zero_grad()
    opt.step(0.1)
    np.testing.assert_allclose(p.data, [1.5])


def test_sgd_rejects_non_finite_gradient():
    p = Parameter([1.0], name="w")
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingAbort, match="w"):
        SGD([p]).step(0.1)


@pytest.mark.parametrize("check", [True, False], ids=["on", "off"])
def test_check_finite_stops_a_forward_op_that_overflows(monkeypatch, check):
    # GEOSEG_CHECK_FINITE=1 sets the flag when the module is imported
    monkeypatch.setattr(tensor, "_CHECK_FINITE", check)
    x = Parameter([1e300, 1.0])
    with np.errstate(over="ignore"):
        if check:
            with pytest.raises(TrainingAbort, match="non-finite"):
                x * 1e10
        else:
            assert np.isinf((x * 1e10).data[0])


def test_mse_helper():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.zeros((2, 2)))
    assert mse(a, b).item() == 1.0


# -- dtypes ------------------------------------------------------------------


def test_a_float_array_keeps_its_dtype_and_anything_else_is_float64():
    for dtype in (np.float32, np.float64):
        a = rng.standard_normal((2, 3)).astype(dtype)
        assert Tensor(a).data is a
        p = Parameter(a, name="w")
        assert p.data is not a and p.name == "w"
        assert p.data.dtype == p.grad.dtype == p.momentum.dtype == dtype
    for data in ([1, 2], np.arange(3), np.ones(2, bool), 1.5, 2,
                 np.ones(2, np.longdouble)):
        assert Tensor(data).data.dtype == np.float64
        assert Parameter(data).data.dtype == np.float64


@pytest.mark.parametrize("rank", [2, 3])
def test_a_float32_graph_runs_and_differentiates_in_float32(monkeypatch,
                                                            rank):
    # every op, forward and backward, on float32 operands and python
    # scalars: no buffer, node or gradient is float64
    def param(*shape):
        return Parameter(rng.standard_normal(shape).astype(np.float32))

    k1, k2, k3 = (1,) * rank, (2,) * rank, (3,) * rank
    x = Tensor(rng.standard_normal((2, 1) + (4,) * rank).astype(np.float32))
    stem, stem_bias = param(4, 1, *k3), param(4)
    down, up, up_bias = param(4, 4, *k2), param(4, 2, *k2), param(2)
    width1, merge = param(2, 4, *k1), param(2, 6, *k3)
    params = [stem, stem_bias, down, up, up_bias, width1, merge]
    made = record_arrays(monkeypatch)
    h = instance_norm_relu(conv_nd(x, stem, stem_bias, padding=1))
    low = conv_nd(h, down, stride=2)
    dec1 = conv_transpose_nd(low, up, up_bias, stride=2)
    dec2 = interp_upsample(conv_nd(low, width1))
    y = conv_nd(concat_padded([dec1, h]), merge) - dec2 * 0.5
    seg = softmax_channel(y).narrow(1, 1, 1)
    lse = logsumexp_channel(y)
    loss = (mse(seg, lse.sigmoid()) + (seg.tanh() * 2.0 - 1.0).square().sum()
            / 3.0 + (1.0 - lse).mean() + (seg / (seg + 1.0)).mean())
    loss.backward()
    assert made and {a.dtype for a in made} == {np.dtype(np.float32)}
    assert loss.data.dtype == np.float32
    assert all(p.grad.dtype == np.float32 for p in params)
