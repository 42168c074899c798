"""Loss formulas against independent numpy evaluations, plus gradients."""

import numpy as np
import pytest

from geoseg.errors import ConfigError
from geoseg.geometry import boundary_weights
from geoseg.losses import (LOSS_TERMS, LossConfig, cross_entropy_loss,
                           dice_loss, geometry_consistency_loss,
                           mutual_consistency_loss, ramp_up,
                           sdf_supervised_loss, seg_supervised_loss,
                           total_loss)
from geoseg.network import DualDecoderOutputs
from geoseg.tensor import Parameter, Tensor, softmax_channel
from geoseg.training import LOSS_CSV_HEADER, Batch
from helpers import assert_grads_match, fd_gradient

rng = np.random.default_rng(23)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def make_outputs(seg1, seg2, sdm1, sdm2, logits1=None, logits2=None):
    def chan(a):
        return Tensor(np.asarray(a, dtype=np.float64))

    def logits_for(p):
        if p is None:
            return None
        z1 = np.log(np.clip(p, 1e-9, 1 - 1e-9) / np.clip(1 - p, 1e-9, 1))
        z = np.concatenate([np.zeros_like(z1), z1], axis=1)
        return Tensor(z)

    return DualDecoderOutputs(
        seg1=chan(seg1), seg2=chan(seg2), sdm1=chan(sdm1), sdm2=chan(sdm2),
        logits1=logits_for(logits1 if logits1 is not None else seg1),
        logits2=logits_for(logits2 if logits2 is not None else seg2))


def random_outputs(n=2, spatial=(6, 5)):
    shape = (n, 1) + spatial
    return make_outputs(rng.uniform(0.05, 0.95, shape),
                        rng.uniform(0.05, 0.95, shape),
                        rng.uniform(-0.9, 0.9, shape),
                        rng.uniform(-0.9, 0.9, shape))


# -- dice --------------------------------------------------------------------


def test_dice_perfect_prediction_near_zero():
    target = (rng.random((1, 1, 12, 12)) < 0.5).astype(np.float64)
    assert target.sum() >= 100 or True  # density 0.5 on 144 voxels
    loss = dice_loss(Tensor(target), target)
    assert loss.item() < 1e-4


def test_dice_disjoint_masks_near_one():
    pred = np.zeros((1, 1, 20, 10))
    target = np.zeros_like(pred)
    pred[0, 0, :10] = 1.0
    target[0, 0, 10:] = 1.0
    eps = 1e-5
    want = 1.0 - eps / (200.0 + eps)
    assert abs(dice_loss(Tensor(pred), target, eps).item() - want) < 1e-12


def test_dice_half_probability_hand_value():
    pred = np.full((1, 1, 2, 2), 0.5)
    target = np.zeros((1, 1, 2, 2))
    target[0, 0, 0, :] = 1.0
    eps = 1e-5
    want = 1.0 - (2.0 * 1.0 + eps) / (2.0 + 2.0 + eps)
    assert abs(dice_loss(Tensor(pred), target, eps).item() - want) < 1e-12


# -- cross-entropy ------------------------------------------------------------


def test_ce_perfect_one_hot_near_zero():
    target = (rng.random((2, 4, 4)) < 0.5).astype(np.float64)
    logits = np.stack([40.0 * (1 - target), 40.0 * target], axis=1)
    assert cross_entropy_loss(Tensor(logits), target).item() < 1e-10


def test_ce_uniform_prediction_is_ln2():
    logits = np.zeros((1, 2, 3, 3))
    target = (rng.random((1, 3, 3)) < 0.5).astype(np.float64)
    assert abs(cross_entropy_loss(Tensor(logits), target).item()
               - np.log(2.0)) < 1e-12


def test_ce_quarter_probability_is_ln4():
    logits = np.array([np.log(3.0), 0.0]).reshape(1, 2, 1, 1)
    target = np.ones((1, 1, 1))
    assert abs(cross_entropy_loss(Tensor(logits), target).item()
               - np.log(4.0)) < 1e-12


# -- supervised compositions -----------------------------------------------------


def test_seg_supervised_perfect_decoders():
    target = (rng.random((1, 8, 8)) < 0.4).astype(np.float64)
    shape = (1, 1, 8, 8)
    out = make_outputs(target.reshape(shape), target.reshape(shape),
                       np.zeros(shape), np.zeros(shape))
    assert seg_supervised_loss(out, target).item() < 1e-3


def test_seg_supervised_composes_dice_and_ce():
    target = (rng.random((1, 6, 6)) < 0.5).astype(np.float64)
    shape = (1, 1, 6, 6)
    perfect = target.reshape(shape)
    uniform = np.full(shape, 0.5)
    out = make_outputs(perfect, uniform, np.zeros(shape), np.zeros(shape))
    got = seg_supervised_loss(out, target).item()
    want = 0.5 * (dice_loss(out.seg1, perfect).item()
                  + cross_entropy_loss(out.logits1, target).item()
                  + dice_loss(out.seg2, perfect).item()
                  + cross_entropy_loss(out.logits2, target).item())
    assert abs(got - want) < 1e-12


def test_seg_supervised_symmetric_in_decoder_order():
    target = (rng.random((1, 6, 6)) < 0.5).astype(np.float64)
    a = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    b = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    z = np.zeros((1, 1, 6, 6))
    fwd = seg_supervised_loss(make_outputs(a, b, z, z), target).item()
    rev = seg_supervised_loss(make_outputs(b, a, z, z), target).item()
    assert abs(fwd - rev) < 1e-12


def test_sdf_supervised_values():
    shape = (1, 1, 5, 5)
    target = rng.uniform(-1, 1, (1, 5, 5))
    exact = target.reshape(shape)
    out = make_outputs(np.full(shape, 0.5), np.full(shape, 0.5), exact, exact)
    assert sdf_supervised_loss(out, target).item() == 0.0
    out = make_outputs(np.full(shape, 0.5), np.full(shape, 0.5),
                       exact + 0.1, exact)
    assert abs(sdf_supervised_loss(out, target).item() - 0.005) < 1e-12


def test_sdf_supervised_random_hand_value():
    shape = (2, 1, 4, 4)
    target = rng.uniform(-1, 1, (2, 4, 4))
    s1 = rng.uniform(-1, 1, shape)
    s2 = rng.uniform(-1, 1, shape)
    out = make_outputs(np.full(shape, 0.5), np.full(shape, 0.5), s1, s2)
    want = 0.5 * (np.mean((s1 - target[:, None]) ** 2)
                  + np.mean((s2 - target[:, None]) ** 2))
    assert abs(sdf_supervised_loss(out, target).item() - want) < 1e-12


# -- consistency -----------------------------------------------------------------


def _wgc(out, rho, k):
    # the boundary-weighted loss, weighted as the wgc mode weights it
    weights = (Tensor(boundary_weights(out.sdm1.data, rho)),
               Tensor(boundary_weights(out.sdm2.data, rho)))
    return geometry_consistency_loss(out, k=k, weights=weights)


def test_gc_zero_at_exact_agreement():
    shape = (1, 1, 6, 6)
    sdm1 = rng.uniform(-0.5, 0.5, shape)
    sdm2 = rng.uniform(-0.5, 0.5, shape)
    k = 7.0
    out = make_outputs(_sigmoid(-k * sdm2), _sigmoid(-k * sdm1), sdm1, sdm2)
    assert geometry_consistency_loss(out, k=k).item() < 1e-15


def test_gc_constant_offsets():
    shape = (1, 1, 4, 4)
    z = np.zeros(shape)  # inverse of zero distance is exactly 0.5
    out = make_outputs(np.full(shape, 0.7), np.full(shape, 0.3), z, z)
    assert abs(geometry_consistency_loss(out, k=5.0).item() - 0.08) < 1e-12


def test_gc_random_hand_value():
    out = random_outputs()
    k = 11.0
    want = np.mean((out.seg1.data - _sigmoid(-k * out.sdm2.data)) ** 2
                   + (out.seg2.data - _sigmoid(-k * out.sdm1.data)) ** 2)
    assert abs(geometry_consistency_loss(out, k=k).item() - want) < 1e-12


def test_wgc_equals_gc_when_distances_are_zero():
    shape = (2, 1, 5, 5)
    out = make_outputs(rng.uniform(0, 1, shape), rng.uniform(0, 1, shape),
                       np.zeros(shape), np.zeros(shape))
    gc = geometry_consistency_loss(out, k=9.0).item()
    wgc = _wgc(out, 2.0, 9.0).item()
    assert wgc == gc


def test_wgc_vanishes_for_large_rho():
    shape = (1, 1, 4, 4)
    sdm = np.full(shape, 0.5)
    out = make_outputs(rng.uniform(0, 1, shape), rng.uniform(0, 1, shape),
                       sdm, sdm)
    assert _wgc(out, 1e3, 9.0).item() < 1e-200


def test_wgc_random_hand_value():
    out = random_outputs()
    rho, k = 2.0, 13.0
    w1 = np.exp(-rho * np.abs(out.sdm1.data))
    w2 = np.exp(-rho * np.abs(out.sdm2.data))
    want = np.mean(w1 * (out.seg1.data - _sigmoid(-k * out.sdm2.data)) ** 2
                   + w2 * (out.seg2.data - _sigmoid(-k * out.sdm1.data)) ** 2)
    got = _wgc(out, rho, k).item()
    assert abs(got - want) < 1e-12


def test_wgc_never_exceeds_gc():
    for _ in range(10):
        out = random_outputs()
        gc = geometry_consistency_loss(out, k=9.0).item()
        wgc = _wgc(out, 2.0, 9.0).item()
        assert wgc <= gc + 1e-15


def test_wgc_converges_to_gc_as_rho_vanishes():
    out = random_outputs()
    gc = geometry_consistency_loss(out, k=9.0).item()
    wgc = _wgc(out, 1e-6, 9.0).item()
    assert abs(wgc - gc) / gc < 1e-4


def test_mc_values():
    shape = (1, 1, 6, 6)
    seg = rng.uniform(0, 1, shape)
    sdm = rng.uniform(-1, 1, shape)
    same = make_outputs(seg, seg, sdm, sdm)
    assert mutual_consistency_loss(same).item() == 0.0
    shifted = make_outputs(seg, np.clip(seg + 0.1, 0, 1.1), sdm, sdm)
    assert abs(mutual_consistency_loss(shifted).item() - 0.01) < 1e-12


def test_mc_random_hand_value():
    out = random_outputs()
    want = (np.mean((out.seg1.data - out.seg2.data) ** 2)
            + np.mean((out.sdm1.data - out.sdm2.data) ** 2))
    assert abs(mutual_consistency_loss(out).item() - want) < 1e-12


# -- ramp-up --------------------------------------------------------------------

LAMBDA_MAX = LossConfig().lambda_max


def test_ramp_endpoints():
    assert abs(ramp_up(600, 600, LAMBDA_MAX) - 0.1) < 1e-9
    assert abs(ramp_up(0, 600, LAMBDA_MAX) - 0.1 * np.exp(-5.0)) < 1e-9
    assert abs(ramp_up(0, 600, LAMBDA_MAX) - 6.737946999085467e-4) < 1e-9


def test_ramp_monotone():
    values = [ramp_up(t, 999, LAMBDA_MAX) for t in range(1000)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_ramp_clamps_beyond_t_max():
    assert ramp_up(750, 600, LAMBDA_MAX) == ramp_up(600, 600, LAMBDA_MAX)


def test_ramp_rejects_negative_step():
    with pytest.raises(ConfigError):
        ramp_up(-1, 100, LAMBDA_MAX)


# -- assembly ---------------------------------------------------------------------


def _toy_batch(n_lab=2, n_unlab=2, spatial=(8, 8)):
    masks = (rng.random((n_lab,) + spatial) < 0.4).astype(np.float64)
    from geoseg.geometry import sdm_target
    targets = np.stack([sdm_target(m) for m in masks])
    images = rng.standard_normal((n_lab + n_unlab, 1) + spatial)
    return Batch(images=images, masks=masks, sdm_targets=targets)


@pytest.mark.parametrize("mode", ["none", "wgc"])
def test_total_loss_returns_the_graph_and_terms_named_by_loss_terms(mode):
    # loss.csv's columns are the terms' names, in order, between step and
    # schema
    out = random_outputs(n=4, spatial=(8, 8))
    root, terms = total_loss(out, _toy_batch(), 5, 100,
                             LossConfig(consistency=mode))
    assert type(root) is Tensor and root.shape == ()
    assert type(terms) is dict and tuple(terms) == LOSS_TERMS
    assert all(type(v) is float for v in terms.values())
    assert LOSS_CSV_HEADER == ("step", *LOSS_TERMS, "schema")


def test_total_loss_supervised_only_mode():
    batch = _toy_batch()
    out = random_outputs(n=4, spatial=(8, 8))
    _, terms = total_loss(out, batch, 5, 100, LossConfig(consistency="none"))
    assert terms["loss_cons"] == 0.0
    assert abs(terms["loss_total"] - terms["loss_sup"]) < 1e-12


def test_total_loss_at_t_max_uses_point_one():
    batch = _toy_batch()
    out = random_outputs(n=4, spatial=(8, 8))
    cfg = LossConfig(k=9.0)
    _, terms = total_loss(out, batch, 100, 100, cfg)
    wgc = _wgc(out, cfg.rho, cfg.k).item()
    assert abs(terms["lambda"] - 0.1) < 1e-12
    assert abs(terms["loss_total"] - (terms["loss_sup"] + 0.1 * wgc)) < 1e-9


def test_total_loss_breakdown_identity():
    batch = _toy_batch()
    for mode in ("mc", "gc", "wgc"):
        out = random_outputs(n=4, spatial=(8, 8))
        cfg = LossConfig(consistency=mode, k=9.0)
        _, terms = total_loss(out, batch, 37, 200, cfg)
        assert abs(terms["loss_sup"] - (terms["loss_seg"]
                                        + cfg.beta * terms["loss_sdf"])) < 1e-12
        assert abs(terms["loss_total"] - (terms["loss_sup"] + terms["lambda"]
                                          * terms["loss_cons"])) < 1e-9
        assert terms["loss_total"] >= 0.0


def test_total_loss_rejects_unlabeled_only_batch():
    spatial = (8, 8)
    batch = Batch(images=rng.standard_normal((2, 1) + spatial),
                  masks=np.zeros((0,) + spatial),
                  sdm_targets=np.zeros((0,) + spatial))
    out = random_outputs(n=2, spatial=spatial)
    with pytest.raises(ConfigError):
        total_loss(out, batch, 0, 10, LossConfig())


# -- gradients through the losses ---------------------------------------------


def _param_outputs(n=1, spatial=(3, 4)):
    """Outputs wired through softmax/tanh from raw parameters."""
    shape2 = (n, 2) + spatial
    shape1 = (n, 1) + spatial
    p_log1 = Parameter(rng.standard_normal(shape2), name="log1")
    p_log2 = Parameter(rng.standard_normal(shape2), name="log2")
    p_raw1 = Parameter(rng.standard_normal(shape1), name="raw1")
    p_raw2 = Parameter(rng.standard_normal(shape1), name="raw2")

    def build():
        return DualDecoderOutputs(
            seg1=softmax_channel(p_log1).narrow(1, 1, 1),
            seg2=softmax_channel(p_log2).narrow(1, 1, 1),
            sdm1=p_raw1.tanh(), sdm2=p_raw2.tanh(),
            logits1=p_log1, logits2=p_log2)

    return build, (p_log1, p_log2, p_raw1, p_raw2)


def _fd_check(build_loss, params):
    loss = build_loss()
    loss.backward()
    for p in params:
        fd = fd_gradient(lambda: build_loss().item(), p.data)
        assert_grads_match(p.grad, fd)
        p.grad = np.zeros_like(p.data)


def test_grad_every_loss_term():
    spatial = (3, 4)
    y = (rng.random((1,) + spatial) < 0.5).astype(np.float64)
    sdm_t = rng.uniform(-1, 1, (1,) + spatial)
    build, params = _param_outputs(spatial=spatial)
    k = 9.0

    _fd_check(lambda: seg_supervised_loss(build(), y), params)
    _fd_check(lambda: sdf_supervised_loss(build(), sdm_t), params)
    _fd_check(lambda: geometry_consistency_loss(build(), k=k), params)
    _fd_check(lambda: mutual_consistency_loss(build()), params)

    # weighted form: freeze the weights at their recorded values, exactly as
    # the graph treats them
    frozen = build()
    w1 = np.exp(-2.0 * np.abs(frozen.sdm1.data))
    w2 = np.exp(-2.0 * np.abs(frozen.sdm2.data))
    _fd_check(lambda: geometry_consistency_loss(
        build(), k=k, weights=(Tensor(w1), Tensor(w2))), params)
