"""Kernel-level checks against nested-loop and brute-force oracles."""

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


@pytest.mark.parametrize("x_shape, k_shape, stride", [
    ((2, 3, 9, 8), (4, 3, 3, 3), (1, 1)),
    ((2, 3, 9, 8), (4, 3, 3, 3), (2, 2)),
    ((2, 2, 6, 6, 4), (3, 2, 2, 2, 2), (2, 2, 2)),
], ids=["2d-stride1", "2d-stride2", "3d-stride2"])
def test_conv_kernels_match_nested_loop_oracles(x_shape, k_shape, stride):
    x = rng.standard_normal(x_shape)
    k = rng.standard_normal(k_shape)
    y = kernels.conv_fwd(x, k, stride)
    np.testing.assert_allclose(y, conv_oracle(x, k, stride, 0),
                               rtol=1e-12, atol=1e-12)
    gy = rng.standard_normal(y.shape)
    np.testing.assert_allclose(
        kernels.conv_bwd_input(gy, k, stride, x_shape[2:]),
        conv_bwd_input_oracle(gy, k, stride, x_shape[2:]),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        kernels.conv_bwd_kernel(x, gy, stride, k_shape[2:]),
        conv_bwd_kernel_oracle(x, gy, stride, k_shape[2:]),
        rtol=1e-12, atol=1e-12)


def test_edt_pass_matches_per_row_brute_force():
    f = np.where(rng.random((40, 17)) < 0.3, 0.0, kernels.INF_SQ)
    rows, n = f.shape
    want = np.array([[min((p - q) ** 2 + f[r, q] for q in range(n))
                      for p in range(n)] for r in range(rows)])
    np.testing.assert_array_equal(kernels.edt_pass(f), want)


def test_edt_pass_single_row_values():
    # seeds at 2 and 5: squared distances by hand
    f = np.full((1, 7), kernels.INF_SQ)
    f[0, 2] = 0.0
    f[0, 5] = 0.0
    out = kernels.edt_pass(f)
    np.testing.assert_array_equal(out[0], [4.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0])


def test_edt_pass_length_one_rows():
    f = np.array([[0.0], [kernels.INF_SQ]])
    out = kernels.edt_pass(f)
    assert out[0, 0] == 0.0 and out[1, 0] == kernels.INF_SQ
