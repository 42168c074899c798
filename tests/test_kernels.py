"""Kernel-level checks against nested-loop and brute-force oracles."""

import math

import numpy as np
import pytest

from geoseg import kernels
from helpers import conv_bwd_input_oracle, conv_bwd_kernel_oracle, conv_oracle

rng = np.random.default_rng(42)


def test_backend_selected():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_fwd_2d_matches_nested_loop_oracle(stride):
    x = rng.standard_normal((2, 3, 7, 6))
    k = rng.standard_normal((4, 3, 3, 3))
    got = kernels.conv_fwd(x, k, (stride, stride))
    want = conv_oracle(x, k, stride, 0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv_fwd_3d_matches_nested_loop_oracle():
    x = rng.standard_normal((1, 2, 6, 5, 4))
    k = rng.standard_normal((3, 2, 2, 2, 2))
    got = kernels.conv_fwd(x, k, (1, 1, 1))
    want = conv_oracle(x, k, 1, 0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _nc_result(got, shape):
    # every kernel hands back a C-contiguous float64 NC+spatial array
    assert got.shape == shape
    assert got.dtype == np.float64 and got.flags.c_contiguous
    return got


CASES = [
    ("2d-stride1", (2, 3, 9, 8), (4, 3, 3, 3), (1, 1)),
    ("2d-stride2", (2, 3, 9, 8), (4, 3, 3, 3), (2, 2)),
    ("3d-stride2", (2, 2, 6, 6, 4), (3, 2, 2, 2, 2), (2, 2, 2)),
    ("2d-one-input-channel", (2, 1, 9, 8), (4, 1, 3, 3), (1, 1)),
    ("2d-1x1-one-output-channel", (2, 3, 7, 6), (1, 3, 1, 1), (1, 1)),
    ("3d-3x3x3-stride1", (1, 2, 5, 6, 5), (3, 2, 3, 3, 3), (1, 1, 1)),
    ("3d-stride2-odd-extent", (1, 2, 7, 6, 5), (3, 2, 2, 2, 2), (2, 2, 2)),
    # the shifted-view lowering's edge cases; at unit stride the last tap's
    # view ends on the last element of the flattened input
    ("3d-stride1-non-cubic", (2, 3, 4, 6, 5), (2, 3, 2, 3, 2), (1, 1, 1)),
    ("2d-mixed-stride-1x2", (2, 3, 7, 9), (4, 3, 3, 2), (1, 2)),
    ("3d-mixed-stride-2x1x1", (1, 2, 7, 5, 6), (3, 2, 3, 2, 2), (2, 1, 1)),
    ("2d-3x3-one-output-channel", (2, 4, 6, 7), (1, 4, 3, 3), (1, 1)),
    ("2d-one-channel-each", (3, 1, 5, 8), (1, 1, 2, 3), (1, 1)),
    ("2d-batch-of-three", (3, 3, 6, 7), (4, 3, 3, 3), (1, 1)),
    ("2d-1x1-stride2", (2, 3, 7, 6), (5, 3, 1, 1), (2, 2)),
    ("3d-1x1x1", (2, 3, 3, 4, 5), (2, 3, 1, 1, 1), (1, 1, 1)),
    ("2d-one-row", (2, 2, 1, 9), (3, 2, 1, 4), (1, 1)),
    ("2d-kernel-fills-input", (2, 2, 3, 4), (3, 2, 3, 4), (1, 1)),
    ("2d-empty-batch", (0, 2, 5, 6), (3, 2, 3, 3), (1, 1)),
]


def _case_arrays(x_shape, k_shape, stride):
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    out_spatial = tuple((n - kk) // s + 1
                        for n, kk, s in zip(x_shape[2:], k_shape[2:], stride))
    gy = rng.standard_normal((x_shape[0], k_shape[0]) + out_spatial)
    return x, k, gy


def _run_kernels(x, k, gy, stride):
    return (kernels.conv_fwd(x, k, stride),
            kernels.conv_bwd_input(gy, k, stride, x.shape[2:]),
            kernels.conv_bwd_kernel(x, gy, stride, k.shape[2:]))


def _assert_match_oracles(x, k, gy, stride, y, gx, gk):
    # float64 results of the three kernels against the nested-loop oracles
    np.testing.assert_allclose(y, conv_oracle(x, k, stride, 0),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        gx, conv_bwd_input_oracle(gy, k, stride, x.shape[2:]),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        gk, conv_bwd_kernel_oracle(x, gy, stride, k.shape[2:]),
        rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_shape, k_shape, stride",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_conv_kernels_match_nested_loop_oracles(x_shape, k_shape, stride):
    x, k, gy = _case_arrays(x_shape, k_shape, stride)
    inputs = [a.copy() for a in (x, k, gy)]

    y, gx, gk = _run_kernels(x, k, gy, stride)
    _assert_match_oracles(x, k, gy, stride, _nc_result(y, gy.shape),
                          _nc_result(gx, x_shape), _nc_result(gk, k_shape))
    # no kernel writes into its arguments or hands back a view of one
    for before, after in zip(inputs, (x, k, gy)):
        np.testing.assert_array_equal(after, before)
    for result in (y, gx, gk):
        assert not any(np.may_share_memory(result, a) for a in (x, k, gy))


# float32 bound, derived before it was first checked: every
# output of conv_fwd, and every input gradient of conv_bwd_input (the
# transposed conv's forward), is a sum of at most R products, R the
# reduction length: Ci x kernel taps, or Co x kernel taps.  Summed in any
# order with each product and partial sum rounded, its error is at most
# gamma_R * sum(|a| |b|), gamma_R = R u / (1 - R u) with the unit roundoff
# u = 2^-24 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1).
# The test allows 2 R u * sum(|a| |b|): a margin of 2 over R u, which
# covers gamma_R's denominator (under 1.01 for R u < 0.01) and the float64
# oracle's own rounding, 2^29 times smaller.
FLOAT32_U = 2.0 ** -24
FLOAT32_MARGIN = 2.0


@pytest.mark.parametrize("x_shape, k_shape, stride",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_float32_conv_fwd_and_transposed_forward_match_the_oracles(
        x_shape, k_shape, stride):
    x, k, gy = (a.astype(np.float32) for a in _case_arrays(x_shape, k_shape,
                                                            stride))
    y = kernels.conv_fwd(x, k, stride)
    gx = kernels.conv_bwd_input(gy, k, stride, x_shape[2:])
    for got in (y, gx):
        assert got.dtype == np.float32 and got.flags.c_contiguous
    _assert_float32_within_bound(x, k, gy, stride, y, gx)


def _assert_float32_within_bound(x, k, gy, stride, y, gx):
    # the oracles run in float64 on the same float32 values
    x64, k64, gy64 = (a.astype(np.float64) for a in (x, k, gy))
    reduction = k.shape[1] * math.prod(k.shape[2:])
    bound = (FLOAT32_MARGIN * reduction * FLOAT32_U
             * conv_oracle(np.abs(x64), np.abs(k64), stride, 0))
    assert np.all(np.abs(y - conv_oracle(x64, k64, stride, 0)) <= bound)

    reduction = k.shape[0] * math.prod(k.shape[2:])
    bound = (FLOAT32_MARGIN * reduction * FLOAT32_U * conv_bwd_input_oracle(
        np.abs(gy64), np.abs(k64), stride, x.shape[2:]))
    assert np.all(np.abs(gx - conv_bwd_input_oracle(gy64, k64, stride,
                                                    x.shape[2:])) <= bound)


@pytest.mark.parametrize("x_shape, k_shape, stride",
                         [case[1:] for case in CASES if case[1][0] > 1],
                         ids=[case[0] for case in CASES if case[1][0] > 1])
def test_sample_blocking_does_not_change_results(monkeypatch, x_shape,
                                                 k_shape, stride):
    x, k, gy = _case_arrays(x_shape, k_shape, stride)
    whole = _run_kernels(x, k, gy, stride)
    # from one sample per block up to the whole batch, with a short last
    # block on the way where the batch size allows one
    for block_bytes in [1] + [1 << e for e in range(8, 17)]:
        monkeypatch.setattr(kernels, "BLOCK_BYTES", block_bytes)
        for got, want in zip(_run_kernels(x, k, gy, stride), whole):
            np.testing.assert_array_equal(got, want)


# shapes that share a memo key but for one field: the same input and
# kernel at stride 1 and 2, a 1x1 kernel at both, and 2D next to 3D
INTERLEAVED = ["2d-stride1", "2d-stride2", "2d-1x1-one-output-channel",
               "2d-1x1-stride2", "3d-3x3x3-stride1", "3d-stride2", "3d-1x1x1"]


def test_memoised_plans_give_each_shape_its_first_calls_bytes():
    cases = {case[0]: case[1:] for case in CASES}
    arrays, first = {}, {}
    for name in INTERLEAVED:
        for dtype in (np.float32, np.float64):
            arrays[name, dtype] = tuple(a.astype(dtype)
                                        for a in _case_arrays(*cases[name]))
    # a first call at each shape plans it afresh
    for (name, dtype), (x, k, gy) in arrays.items():
        kernels._tap_sources.cache_clear()
        kernels._span.cache_clear()
        first[name, dtype] = _run_kernels(x, k, gy, cases[name][2])
    # each shape in both dtypes, in turn, forward and back
    for order in (list(arrays), list(arrays)[::-1]):
        for key in order:
            x, k, gy = arrays[key]
            for got, want in zip(_run_kernels(x, k, gy, cases[key[0]][2]),
                                 first[key]):
                assert got.dtype == key[1]
                assert got.tobytes() == want.tobytes()
    assert kernels._tap_sources.cache_info().hits > 0
    assert kernels._span.cache_info().hits > 0
    # each cached plan is immutable, all the way down to its taps
    taps, sources = kernels._tap_sources((9, 8), (3, 3), (2, 2), (4, 3))
    assert isinstance(taps, tuple) and isinstance(sources, tuple)
    assert all(isinstance(t, tuple) for t in taps + sources)

    # and they meet the oracles at the tolerances of the tests above
    for name in INTERLEAVED:
        stride = cases[name][2]
        _assert_match_oracles(*arrays[name, np.float64], stride,
                              *first[name, np.float64])
        _assert_float32_within_bound(*arrays[name, np.float32], stride,
                                     *first[name, np.float32][:2])


def test_edt_pass_single_row_values():
    # seeds at 2 and 5: squared distances by hand
    seeds = np.zeros(7, dtype=bool)
    seeds[[2, 5]] = True
    out = kernels.edt_pass(seeds)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [4, 1, 0, 1, 1, 0, 1])


def test_edt_pass_length_one_rows():
    np.testing.assert_array_equal(kernels.edt_pass(np.array([True])), [0])
    seeds = np.array([[[True]], [[False]], [[False]]])
    np.testing.assert_array_equal(kernels.edt_pass(seeds), [[[0]], [[1]], [[4]]])
