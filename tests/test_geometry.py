"""Distance transforms, signed distance maps, the smooth inverse, weights."""

import numpy as np
import pytest
from scipy.special import expit

from geoseg import kernels
from geoseg.errors import ConfigError, DataError
from geoseg.geometry import (_edt_squared_from, approx_inverse, boundary_voxels, boundary_weights,
                             exact_edt, exact_edt_squared, grid_diagonal,
                             normalize_sdm, sdm_target, signed_distance_map)
from geoseg.tensor import Tensor
from helpers import (brute_force_edt_sq, brute_force_signed_distance,
                     oracle_boundary, random_blob_mask, random_mask)

rng = np.random.default_rng(11)


# -- exact EDT ---------------------------------------------------------------


def test_edt_single_center_voxel():
    mask = np.zeros((3, 3), dtype=np.uint8)
    mask[1, 1] = 1
    d = exact_edt(mask)
    assert d[1, 1] == 0.0
    assert d[0, 1] == d[1, 0] == d[1, 2] == d[2, 1] == 1.0
    np.testing.assert_allclose([d[0, 0], d[0, 2], d[2, 0], d[2, 2]],
                               np.sqrt(2.0))


def test_edt_all_foreground_is_zero():
    np.testing.assert_array_equal(exact_edt(np.ones((4, 5), np.uint8)), 0.0)


def test_edt_empty_foreground_rejected():
    with pytest.raises(DataError):
        exact_edt(np.zeros((4, 4), np.uint8))


def test_edt_rejects_non_binary():
    with pytest.raises(DataError):
        exact_edt(np.full((4, 4), 2))


@pytest.mark.parametrize("shape", [(9,), (7, 8), (6, 5, 4), (16, 16, 8)])
def test_edt_matches_brute_force_exactly(shape):
    for _ in range(25):
        mask = random_mask(rng, shape)
        np.testing.assert_array_equal(exact_edt_squared(mask),
                                      brute_force_edt_sq(mask))


@pytest.mark.parametrize("shape", [(9,), (1,), (7, 8), (1, 9), (9, 1),
                                   (6, 5, 4), (3, 17, 5), (1, 6, 1),
                                   (16, 16, 8)])
def test_edt_at_query_voxels_equals_full_field(shape):
    # the last pass evaluated only at `at` gives the full field's [at], bit
    # for bit, in C order
    for _ in range(10):
        seeds = random_mask(rng, shape, p=rng.choice([0.02, 0.3]))
        at = rng.random(shape) < rng.uniform(0.1, 0.9)
        got = _edt_squared_from(seeds, at=at)
        full = _edt_squared_from(seeds)
        assert got.tobytes() == full[at].tobytes()
        np.testing.assert_array_equal(np.rint(got).astype(np.int64),
                                      exact_edt_squared(seeds)[at])


def test_edt_at_query_voxels_across_gather_blocks(monkeypatch):
    # a budget of 20 elements makes blocks of 2 query voxels along 9 rows
    seeds = random_mask(rng, (9, 7, 5), p=0.05)
    at = rng.random(seeds.shape) < 0.5
    whole = _edt_squared_from(seeds, at=at)
    monkeypatch.setattr(kernels, "EDT_BLOCK_ELEMENTS", 20)
    got = _edt_squared_from(seeds, at=at)
    assert got.tobytes() == whole.tobytes()
    np.testing.assert_array_equal(got, brute_force_edt_sq(seeds)[at])


# -- boundary and signed maps -----------------------------------------------


def test_boundary_matches_erosion_oracle():
    for shape in [(8, 9), (6, 6, 5)]:
        for _ in range(20):
            mask = random_mask(rng, shape)
            np.testing.assert_array_equal(boundary_voxels(mask),
                                          oracle_boundary(mask))


def test_sdm_boundary_voxels_are_exactly_zero():
    mask = random_blob_mask(rng, (16, 16))
    sdm = signed_distance_map(mask)
    np.testing.assert_array_equal(sdm[boundary_voxels(mask)], 0.0)


def test_sdm_sign_pattern():
    for _ in range(25):
        mask = random_blob_mask(rng, (12, 13))
        sdm = signed_distance_map(mask)
        bnd = boundary_voxels(mask)
        inside = mask.astype(bool) & ~bnd
        outside = ~mask.astype(bool)
        assert (sdm[inside] < 0).all()
        assert (sdm[outside] > 0).all()
        assert (sdm[bnd] == 0).all()


def test_sdm_filled_square_interior_depth():
    # 5x5 foreground block in an 11x11 grid: the single innermost voxel sits
    # two face-steps from the block's outer ring
    mask = np.zeros((11, 11), dtype=np.uint8)
    mask[3:8, 3:8] = 1
    values = signed_distance_map(mask)
    assert values[5, 5] == -2.0
    assert (values == -2.0).sum() == 1


def test_sdm_matches_brute_force_oracle():
    for shape in [(10, 11), (7, 6, 5)]:
        for _ in range(15):
            mask = random_blob_mask(rng, shape)
            got = signed_distance_map(mask)
            want = brute_force_signed_distance(mask)
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_sdm_degenerate_all_background():
    mask = np.zeros((4, 6), dtype=np.uint8)
    sdm = signed_distance_map(mask)
    np.testing.assert_array_equal(sdm, grid_diagonal((4, 6)))


def test_sdm_degenerate_all_foreground():
    sdm = signed_distance_map(np.ones((4, 6), dtype=np.uint8))
    np.testing.assert_array_equal(sdm, -grid_diagonal((4, 6)))


# -- normalization -----------------------------------------------------------


def test_normalize_scales_by_max_abs():
    mask = np.zeros((8, 8), dtype=np.uint8)
    mask[2:5, 2:5] = 1
    sdm = signed_distance_map(mask)
    sdm[0, 0] = 6.0   # craft extremes {-?, +6}
    sdm[4, 4] = -3.0
    normed = normalize_sdm(np.clip(sdm, -3.0, 6.0))
    assert normed.max() == 1.0
    assert normed.min() == -0.5


def test_normalize_preserves_zeros_and_range():
    for _ in range(10):
        mask = random_blob_mask(rng, (14, 14))
        sdm = signed_distance_map(mask)
        normed = normalize_sdm(sdm)
        assert np.abs(normed).max() == 1.0
        np.testing.assert_array_equal(normed == 0.0, sdm == 0.0)


def test_normalize_degenerate_is_all_ones():
    sdm = signed_distance_map(np.zeros((5, 5), dtype=np.uint8))
    np.testing.assert_array_equal(normalize_sdm(sdm), 1.0)


# -- smooth inverse ------------------------------------------------------------


def _inverse(z, k):
    return approx_inverse(Tensor(z), k).data


def test_approx_inverse_at_zero_is_half():
    for k in (1.0, 100.0, 1500.0):
        assert _inverse(np.zeros(3), k)[0] == 0.5


def test_approx_inverse_saturation_default_mode():
    assert _inverse(np.array([-1.0]), 1500.0)[0] > 1.0 - 1e-6
    assert _inverse(np.array([0.01]), 1500.0)[0] < 1e-6


def test_approx_inverse_monotone_and_bounded():
    z = np.linspace(-1.0, 1.0, 201)
    p = _inverse(z, 10.0)
    assert (np.diff(p) < 0).all()          # decreasing in z
    assert (p > 0).all() and (p < 1).all()


@pytest.mark.parametrize("k", [1.0, 25.0, 1500.0])
def test_approx_inverse_matches_expit(k):
    # an independent logistic; k=1500 drives |k*z| far past exp's overflow
    z = np.concatenate([rng.uniform(-1, 1, size=64), [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(_inverse(z, k), expit(-k * z),
                               rtol=1e-12, atol=1e-300)


def test_approx_inverse_rejects_bad_k():
    for k in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            approx_inverse(Tensor(np.zeros(2)), k)


def test_round_trip_mask_recovery():
    # threshold(inverse(normalized sdm)) == mask except on boundary voxels,
    # which sit at exactly 0.5 and resolve to background
    for _ in range(10):
        mask = random_blob_mask(rng, (16, 16)).astype(bool)
        prob = _inverse(sdm_target(mask), 1500.0)
        recovered = prob > 0.5
        bnd = boundary_voxels(mask)
        np.testing.assert_array_equal(recovered[~bnd], mask[~bnd])
        assert not recovered[bnd].any()


# -- boundary weights -------------------------------------------------------------


def test_weight_law_values():
    assert boundary_weights(np.zeros(1), 2.0)[0] == 1.0
    assert abs(boundary_weights(np.ones(1), 2.0)[0] - np.exp(-2.0)) < 1e-12


def test_weight_sharpness_ordering():
    # larger rho concentrates weight near the boundary
    w_soft = boundary_weights(np.array([0.5]), 1.0)[0]
    w_sharp = boundary_weights(np.array([0.5]), 3.0)[0]
    assert w_soft > w_sharp


def test_weight_range_and_monotonicity():
    d = np.linspace(-1, 1, 101)
    w = boundary_weights(d, 2.0)
    assert w.max() == 1.0 and w.min() >= np.exp(-2.0) - 1e-15
    half = w[50:]
    assert (np.diff(half) < 0).all()


def test_weights_carry_no_gradient():
    # an ndarray of a prediction's values: no graph can reach through it
    sdm_pred = Tensor(rng.uniform(-1, 1, size=(4, 4)), requires_grad=True)
    w = boundary_weights(sdm_pred.data, 2.0)
    assert type(w) is np.ndarray and w.shape == (4, 4)


def test_weights_reject_bad_rho():
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            boundary_weights(np.zeros(2), rho)
