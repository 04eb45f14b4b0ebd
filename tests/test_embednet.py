"""Encoder wiring, loss values against hand oracles, and the training loops."""

import dataclasses
import functools
import inspect
import math
import re
import shutil
import threading
import tracemalloc

import numpy as np
import pytest

import morphkit.gradcore as gc
from gradcheck import finite_difference_check
from morphkit import embednet as en
from morphkit import geometry as geo
from morphkit import imaging as im


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def tiny_cfg(n_classes=3):
    return en.EncoderConfig(input_size=16, channels=(4, 8), strides=(2, 2),
                            d_a=8, d_g=8, d_f=16, n_classes=n_classes)


def vec_with_cosine(base, target_cos, r):
    """A vector whose cosine against ``base`` is exactly ``target_cos``."""
    u = base / np.linalg.norm(base)
    v = r.normal(size=base.shape)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return target_cos * u + math.sqrt(1 - target_cos ** 2) * v


# ---------------------------------------------------------------------------
# encoder


def test_encode_deterministic():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=1)
    x = rng(2).uniform(-1, 1, size=(2, 3, 16, 16))
    a = en.encode(cfg, params, x)
    b = en.encode(cfg, params, x)
    assert np.array_equal(a.z_a, b.z_a)
    assert np.array_equal(a.z_g, b.z_g)
    assert np.array_equal(a.z_f, b.z_f)


@pytest.mark.parametrize("cfg", [tiny_cfg(), en.EncoderConfig.desk(10)],
                         ids=["tiny", "desk"])
def test_encode_empty_batch_gives_empty_embeddings(cfg):
    # the conv product's reshape(-1, 0) raised numpy's "cannot reshape array
    # of size 0" here
    params = en.init_params(cfg, seed=1)
    out = en.encode(cfg, params, np.empty((0, 3, cfg.input_size, cfg.input_size)))
    assert (out.z_a.shape, out.z_g.shape, out.z_f.shape) == \
        ((0, cfg.d_a), (0, cfg.d_g), (0, cfg.d_f))


def test_encode_zero_params_zero_embeddings():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=1)
    for name, t in params.tensors.items():
        t[:] = 0.0
    out = en.encode(cfg, params, rng(3).uniform(-1, 1, size=(3, 16, 16)))
    assert np.array_equal(out.z_a, np.zeros(8))
    assert np.array_equal(out.z_g, np.zeros(8))
    assert np.array_equal(out.z_f, np.zeros(16))


def test_branch_independence():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=4)
    x = rng(5).uniform(-1, 1, size=(2, 3, 16, 16))
    before = en.encode(cfg, params, x)
    params.tensors["fc_a_w"] += 0.5
    after = en.encode(cfg, params, x)
    assert np.array_equal(before.z_g, after.z_g)
    assert not np.array_equal(before.z_a, after.z_a)


def test_depth_split_gradient_isolation():
    # L_a gradients w.r.t. landmark-branch FC weights are exactly zero,
    # and the landmark loss's attract term ignores the appearance branch
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=6)
    r = rng(7)
    za_x, _, _ = en.build_encoder(cfg, gc.leaf("x"))
    za_h, _, _ = en.build_encoder(cfg, gc.leaf("x_hat"))
    bindings = dict(params.tensors)
    bindings["x"] = r.uniform(-1, 1, size=(2, 3, 16, 16))
    bindings["x_hat"] = r.uniform(-1, 1, size=(2, 3, 16, 16))
    grads = gc.value_and_grad(en.appearance_loss(za_x, za_h), bindings,
                              ["fc_g_w", "fc_g_b", "fc_a_w"])[1]
    assert np.array_equal(grads["fc_g_w"], 0 * grads["fc_g_w"])
    assert np.array_equal(grads["fc_g_b"], 0 * grads["fc_g_b"])
    assert np.abs(grads["fc_a_w"]).max() > 0
    _, zg_p, _ = en.build_encoder(cfg, gc.leaf("x"))
    _, zg_h, _ = en.build_encoder(cfg, gc.leaf("x_hat"))
    attract = -gc.cosine_similarity(zg_p, zg_h).mean()
    grads = gc.value_and_grad(attract, bindings, ["fc_a_w", "fc_g_w"])[1]
    assert np.array_equal(grads["fc_a_w"], 0 * grads["fc_a_w"])
    assert np.abs(grads["fc_g_w"]).max() > 0


# ---------------------------------------------------------------------------
# the cached encoder plan


def fresh_graph_encode(cfg, params, images):
    """Reference: build the encoder graph afresh and evaluate its three
    output nodes, as ``encode`` did before it cached the graph."""
    x = np.asarray(images, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    za, zg, zf = en.build_encoder(cfg, gc.leaf("x"))
    bindings = dict(params.tensors)
    bindings["x"] = x
    va, vg, vf = gc.evaluate_many([za, zg, zf], bindings)
    if single:
        va, vg, vf = va[0], vg[0], vf[0]
    return en.EmbeddingTriple(z_a=va, z_g=vg, z_f=vf)


def assert_same_bytes(a, b):
    for name in ("z_a", "z_g", "z_f"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("hwc", [False, True], ids=["nchw", "hwc_view"])
@pytest.mark.parametrize("batch", [None, 1, 3, 8], ids=["single", "1", "3", "8"])
def test_encode_byte_equal_to_fresh_graph(batch, hwc):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=21)
    lead = () if batch is None else (batch,)
    r = rng(22)
    if hwc:
        # what ``to_chw`` hands over: a transposed view of an (H, W, 3) image
        x = np.moveaxis(r.uniform(-1, 1, size=lead + (112, 112, 3)), -1, -3)
        assert not x.flags.c_contiguous
    else:
        x = r.uniform(-1, 1, size=lead + (3, 112, 112))
    for _ in range(2):  # the first call builds the plan, the second reuses it
        assert_same_bytes(en.encode(cfg, params, x),
                          fresh_graph_encode(cfg, params, x))


def test_encode_batch1_agrees_with_batches_of_8():
    """The bench ``verify`` check in tier-1: batch-1 embeddings of 8-bit
    faces match batched ones (of 8, as in training) within 1e-9 x
    max(1, max |z|).  A float32 encode misses it, by 3.7e-9 on these faces."""
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=29)
    images = im.from_uint8(rng(30).integers(0, 256, size=(12, 3, 112, 112),
                                            dtype=np.uint8))
    single = np.stack([en.encode(cfg, params, x).z_f for x in images])
    batched = np.concatenate([en.encode(cfg, params, images[i:i + 8]).z_f
                              for i in (0, 8)])
    assert single.dtype == batched.dtype == np.float64
    tol = 1e-9 * max(1.0, float(np.abs(single).max()))
    assert np.abs(batched - single).max() <= tol


def test_encoder_graph_built_once_per_config(monkeypatch):
    calls = []
    build = en.build_encoder

    def counting(cfg, x):
        calls.append(cfg)
        return build(cfg, x)

    monkeypatch.setattr(en, "build_encoder", counting)
    en._encoder_plan.cache_clear()
    cfg, other = tiny_cfg(), tiny_cfg(n_classes=4)
    x = rng(23).uniform(-1, 1, size=(3, 16, 16))
    params = {c: en.init_params(c, 24) for c in (cfg, other)}
    for _ in range(4):
        for c in (cfg, other):
            en.encode(c, params[c], x)
    # an equal config built anew shares the plan
    en.encode(tiny_cfg(), params[cfg], x)
    assert calls == [cfg, other]


def test_profile_through_encode_one_row_per_layer():
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=25)
    x = rng(26).uniform(-1, 1, size=(3, 112, 112))
    plain = en.encode(cfg, params, x)
    with gc.profile() as prof:
        profiled = en.encode(cfg, params, x)
    assert_same_bytes(plain, profiled)
    for i in range(len(cfg.channels)):
        assert prof.stats[("im2col", f"conv{i}_w")][1::2] == [1, 0]
        assert prof.stats[("conv_bias_relu", f"conv{i}_w")][1::2] == [1, 0]
    for branch in "agf":
        assert prof.stats[("matmul", f"fc_{branch}_w")][1::2] == [1, 0]
        assert prof.stats[("add", f"fc_{branch}_b")][1::2] == [1, 0]


@pytest.mark.parametrize("shape", [
    (3, 224, 224), (2, 3, 224, 224), (3, 113, 113), (4, 112, 112),
    (1, 4, 112, 112), (112, 112), (112, 112, 3), (1, 1, 3, 112, 112)])
def test_encode_rejects_wrong_shape_and_keeps_plan(shape):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=27)
    x = rng(28).uniform(-1, 1, size=(3, 112, 112))
    before = en.encode(cfg, params, x)
    bad = np.zeros(shape)
    with pytest.raises(ValueError) as err:
        en.encode(cfg, params, bad)
    assert str(shape) in str(err.value) and "(3, 112, 112)" in str(err.value)
    assert_same_bytes(en.encode(cfg, params, x), before)


@pytest.mark.parametrize("shape", [(16, 16), (16, 16, 4), (3, 16, 16, 1), (3, 16)])
def test_to_chw_rejects_non_hw3_image(shape):
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        en.to_chw(np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
def test_encode_and_to_chw_reject_non_float_images(dtype):
    # unchecked, an image read by read_ppm embedded its 0-255 values
    cfg = tiny_cfg()
    hwc = np.ones((16, 16, 3), dtype=dtype)
    for call, image in ((en.to_chw, hwc),
                        (functools.partial(en.encode, cfg, en.init_params(cfg, 0)),
                         hwc.transpose(2, 0, 1))):
        with pytest.raises(ValueError) as err:
            call(image)
        assert str(np.dtype(dtype)) in str(err.value)
        assert "imaging.from_uint8" in str(err.value)


def test_list_valued_config_encodes_and_round_trips():
    cfg = en.EncoderConfig(input_size=16, channels=[4, 8], strides=[2, 2],
                           d_a=8, d_g=8, d_f=16, n_classes=3)
    assert cfg == tiny_cfg() and hash(cfg) == hash(tiny_cfg())
    params = en.init_params(cfg, seed=29)
    x = rng(30).uniform(-1, 1, size=(2, 3, 16, 16))
    assert_same_bytes(en.encode(cfg, params, x),
                      fresh_graph_encode(cfg, params, x))
    meta = en.config_meta(cfg, en.MarginConfig(), en.LossWeights())
    assert meta["enc.channels"] == "4,8" and meta["enc.strides"] == "2,2"
    assert en.config_from_meta({k: str(v) for k, v in meta.items()})[0] == cfg


# ---------------------------------------------------------------------------
# loss values


def test_appearance_loss_identical_pairs():
    z = rng(8).normal(size=(5, 8))
    out = gc.evaluate_many(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                           {"a": z, "b": z.copy()})[0]
    np.testing.assert_allclose(out, -1.0, atol=1e-12)


def test_appearance_loss_orthogonal_pairs():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 3.0], [1.0, 0.0]])
    out = gc.evaluate_many(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                           {"a": a, "b": b})[0]
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_appearance_loss_mixed_batch():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])  # identical and opposite
    out = gc.evaluate_many(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                           {"a": a, "b": b})[0]
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def landmark_loss_value(zp, zh, zx, phi, alpha_g=9.4):
    node = en.landmark_loss(gc.leaf("p"), gc.leaf("h"), gc.leaf("x"),
                            gc.leaf("phi"), alpha_g)
    return gc.evaluate_many(node, {"p": zp, "h": zh, "x": zx, "phi": phi})[0]


def test_landmark_loss_hinge_inactive():
    r = rng(9)
    zp = r.normal(size=(3, 8))
    zx = np.stack([vec_with_cosine(zp[i], 0.4, r) for i in range(3)])
    out = landmark_loss_value(zp, zp.copy(), zx, np.full(3, 1.0), alpha_g=9.4)
    np.testing.assert_allclose(out, -1.0, atol=1e-9)


def test_landmark_loss_hinge_fully_active():
    z = rng(10).normal(size=(4, 8))
    out = landmark_loss_value(z, z.copy(), z.copy(), np.zeros(4))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_landmark_loss_hand_case():
    # Phi values (0.9, 0.5) with alpha_g*phi = 0.2 -> -0.9 + 0.3 = -0.6
    r = rng(11)
    zp = r.normal(size=(1, 16))
    zh = vec_with_cosine(zp[0], 0.9, r)[None]
    zx = vec_with_cosine(zp[0], 0.5, r)[None]
    out = landmark_loss_value(zp, zh, zx, np.array([0.2]), alpha_g=1.0)
    np.testing.assert_allclose(out, -0.6, atol=1e-9)


def id_loss_value(zf, labels, w, margins, n_classes):
    node = en.id_loss(gc.leaf("zf"), gc.leaf("labels"), gc.leaf("w"),
                      margins, n_classes)
    return gc.evaluate_many(node, {"zf": zf, "labels": labels.astype(float), "w": w})[0]


def test_id_loss_degenerate_margins_is_softmax_ce():
    r = rng(12)
    zf = r.normal(size=(6, 16))
    w = r.normal(size=(4, 16))
    labels = r.integers(0, 4, size=6)
    margins = en.MarginConfig(m1=1.0, m2=0.0, m3=0.0, s=64.0)
    out = id_loss_value(zf, labels, w, margins, 4)
    cosm = (zf / np.linalg.norm(zf, axis=1, keepdims=True)) @ \
        (w / np.linalg.norm(w, axis=1, keepdims=True)).T
    logits = 64.0 * cosm
    lse = np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1)) \
        + logits.max(1)
    expect = (lse - logits[np.arange(6), labels]).mean()
    np.testing.assert_allclose(out, expect, rtol=1e-7)


def test_id_loss_single_class_is_zero():
    r = rng(13)
    out = id_loss_value(r.normal(size=(3, 8)), np.zeros(3, dtype=int),
                        r.normal(size=(1, 8)), en.MarginConfig(), 1)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_id_loss_aligned_two_class_hand_oracle():
    # z aligned with W_0 (theta_0 = 0, theta_1 = pi/2), paper margins, s = 64
    w = np.array([[1.0, 0.0], [0.0, 1.0]])
    zf = np.array([[2.5, 0.0]])
    m = en.MarginConfig(m1=0.9, m2=0.4, m3=0.15, s=64.0)
    out = id_loss_value(zf, np.array([0]), w, m, 2)
    t = 64.0 * (math.cos(0.4) - 0.15)
    expect = -math.log(math.exp(t) / (math.exp(t) + 1.0))
    np.testing.assert_allclose(out, expect, atol=1e-9)


def test_id_loss_scale_invariant_in_zf():
    r = rng(14)
    zf = r.normal(size=(5, 16))
    w = r.normal(size=(3, 16))
    labels = r.integers(0, 3, size=5)
    a = id_loss_value(zf, labels, w, en.MarginConfig(), 3)
    b = id_loss_value(17.3 * zf, labels, w, en.MarginConfig(), 3)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_stage1_loss_reduces_to_id_terms():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=15)
    r = rng(16)
    n = 3
    bindings = dict(params.tensors)
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(n, 3, 16, 16))
    bindings["labels"] = r.integers(0, 3, size=n).astype(float)
    bindings["labels_prime"] = r.integers(0, 3, size=n).astype(float)
    bindings["phi"] = r.uniform(0.05, 0.2, size=n)
    zero = en.LossWeights(lambda1_a=0.0, lambda1_g=0.0)
    total = gc.evaluate_many(en.stage1_graph(cfg, en.MarginConfig(), zero), bindings)[0]
    _, _, zf_x = en.build_encoder(cfg, gc.leaf("x"))
    _, _, zf_p = en.build_encoder(cfg, gc.leaf("x_prime"))
    cw = gc.leaf("class_w")
    ids = gc.evaluate_many(
        en.id_loss(zf_x, gc.leaf("labels"), cw, en.MarginConfig(), 3)
        + en.id_loss(zf_p, gc.leaf("labels_prime"), cw, en.MarginConfig(), 3),
        bindings)[0]
    np.testing.assert_allclose(total, ids, rtol=1e-12)


def test_stage1_param_gradients_unchanged_by_image_leaves():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=19)
    r = rng(20)
    n = 4
    bindings = dict(params.tensors)
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(n, 3, 16, 16))
    bindings["labels"] = r.integers(0, 3, size=n).astype(float)
    bindings["labels_prime"] = r.integers(0, 3, size=n).astype(float)
    bindings["phi"] = r.uniform(0.05, 0.2, size=n)
    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = gc.value_and_grad(graph, bindings, params.names())
    loss_x, grads_x = gc.value_and_grad(graph, bindings, params.names() + ["x"])
    assert loss == loss_x
    assert grads_x["x"].shape == bindings["x"].shape
    assert np.abs(grads_x["x"]).max() > 0
    for name in params.names():
        assert grads[name].tobytes() == grads_x[name].tobytes(), name


def test_stage1_loss_linear_in_lambda_a():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=17)
    r = rng(18)
    bindings = dict(params.tensors)
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(2, 3, 16, 16))
    bindings["labels"] = np.array([0.0, 1.0])
    bindings["labels_prime"] = np.array([1.0, 2.0])
    bindings["phi"] = np.array([0.1, 0.2])
    m, w = en.MarginConfig(), en.LossWeights()
    base = gc.evaluate_many(en.stage1_graph(cfg, m, w), bindings)[0]
    doubled = gc.evaluate_many(
        en.stage1_graph(cfg, m, en.LossWeights(lambda1_a=2 * w.lambda1_a)),
        bindings)[0]
    za_x, _, _ = en.build_encoder(cfg, gc.leaf("x"))
    za_h, _, _ = en.build_encoder(cfg, gc.leaf("x_hat"))
    l_a = gc.evaluate_many(en.appearance_loss(za_x, za_h), bindings)[0]
    np.testing.assert_allclose(doubled - base, w.lambda1_a * l_a, rtol=1e-9)


# ---------------------------------------------------------------------------
# critics and MI loss


def test_critic_zero_weights_scores_zero():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=19)
    for name in params.names():
        if name.startswith("crit_a_"):
            params.tensors[name][:] = 0.0
    r = rng(20)
    node = en.critic_score(gc.leaf("zi"), gc.leaf("zj"), "crit_a_")
    bindings = dict(params.tensors)
    bindings["zi"] = r.normal(size=(4, 8))
    bindings["zj"] = r.normal(size=(4, 8))
    np.testing.assert_array_equal(gc.evaluate_many(node, bindings)[0], np.zeros(4))


def test_critic_deterministic_and_possibly_asymmetric():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=21)
    r = rng(22)
    node = en.critic_score(gc.leaf("zi"), gc.leaf("zj"), "crit_a_")
    b1 = dict(params.tensors, zi=r.normal(size=(3, 8)), zj=r.normal(size=(3, 8)))
    s1 = gc.evaluate_many(node, b1)[0]
    s2 = gc.evaluate_many(node, b1)[0]
    assert np.array_equal(s1, s2)
    swapped = gc.evaluate_many(node, dict(b1, zi=b1["zj"], zj=b1["zi"]))[0]
    assert swapped.shape == s1.shape  # asymmetry permitted, no crash


def mi_value(gen, imp):
    return gc.evaluate_many(en.mi_loss(gc.leaf("g"), gc.leaf("i")),
                            {"g": np.asarray(gen, float), "i": np.asarray(imp, float)})[0]


def test_mi_loss_constant_scores_zero():
    for c in (-3.0, 0.0, 5.5, 1000.0):
        assert abs(mi_value([c, c, c], [c, c])) <= 1e-12


def test_mi_loss_hand_cases():
    np.testing.assert_allclose(mi_value([1.0, 1.0], [0.0]), -1.0, atol=1e-12)
    expect = -(2.0 - math.log((1.0 + math.exp(2.0)) / 2.0))
    np.testing.assert_allclose(mi_value([2.0], [0.0, 2.0]), expect, atol=1e-12)


def test_mi_loss_genuine_shift_monotonicity():
    r = rng(23)
    for _ in range(100):
        gen = r.normal(size=r.integers(1, 6))
        imp = r.normal(size=r.integers(1, 6))
        delta = float(r.uniform(0.01, 1.0))
        assert mi_value(gen + delta, imp) < mi_value(gen, imp)


def test_stage2_loss_reduces_to_id_when_weights_zero():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=24)
    r = rng(25)
    weights = en.LossWeights(lambda2_a=0.0, lambda2_g=0.0)
    graph = en.stage2_graph(cfg, en.MarginConfig(), weights)
    bindings = dict(params.tensors)
    bindings["x"] = r.uniform(-1, 1, size=(5, 3, 16, 16))
    bindings["gen_i"] = np.array([0.0])
    bindings["gen_j"] = np.array([1.0])
    bindings["imp_i"] = np.array([2.0])
    bindings["imp_j"] = np.array([4.0])
    bindings["real_idx"] = np.array([0.0, 1.0, 2.0, 3.0])
    bindings["real_labels"] = np.array([0.0, 0.0, 1.0, 2.0])
    total = gc.evaluate_many(graph, bindings)[0]
    _, _, zf = en.build_encoder(cfg, gc.leaf("x"))
    ids = gc.evaluate_many(
        en.id_loss(gc.take_rows(zf, gc.leaf("real_idx")), gc.leaf("real_labels"),
                   gc.leaf("class_w"), en.MarginConfig(), 3), bindings)[0]
    np.testing.assert_allclose(total, ids, rtol=1e-12)


def test_stage2_constant_critics_mi_terms_vanish():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=26)
    for br in ("a", "g"):
        params.tensors[f"crit_{br}_fc_w"][:] = 0.0
        params.tensors[f"crit_{br}_fc_b"][:] = 0.0
        params.tensors[f"crit_{br}_out_w"][:] = 0.0
        params.tensors[f"crit_{br}_out_b"][:] = 2.5  # constant critic
    r = rng(27)
    bindings = dict(params.tensors)
    bindings["x"] = r.uniform(-1, 1, size=(4, 3, 16, 16))
    bindings["gen_i"] = np.array([0.0])
    bindings["gen_j"] = np.array([1.0])
    bindings["imp_i"] = np.array([2.0])
    bindings["imp_j"] = np.array([3.0])
    bindings["real_idx"] = np.array([0.0, 1.0])
    bindings["real_labels"] = np.array([0.0, 1.0])
    m = en.MarginConfig()
    full = gc.evaluate_many(en.stage2_graph(cfg, m, en.LossWeights()), bindings)[0]
    id_only = gc.evaluate_many(
        en.stage2_graph(cfg, m, en.LossWeights(lambda2_a=0, lambda2_g=0)),
        bindings)[0]
    np.testing.assert_allclose(full, id_only, atol=1e-12)


def _stage2_graph_unrolled(cfg, margins, weights):
    """The stage-2 builder with its four critic scores written out."""
    za, zg, zf = en.build_encoder(cfg, gc.leaf("x"))
    gen_i, gen_j = gc.leaf("gen_i"), gc.leaf("gen_j")
    imp_i, imp_j = gc.leaf("imp_i"), gc.leaf("imp_j")
    a_gen = en.critic_score(gc.take_rows(za, gen_i), gc.take_rows(za, gen_j),
                            "crit_a_")
    a_imp = en.critic_score(gc.take_rows(za, imp_i), gc.take_rows(za, imp_j),
                            "crit_a_")
    g_gen = en.critic_score(gc.take_rows(zg, gen_i), gc.take_rows(zg, gen_j),
                            "crit_g_")
    g_imp = en.critic_score(gc.take_rows(zg, imp_i), gc.take_rows(zg, imp_j),
                            "crit_g_")
    l2_a = en.mi_loss(a_gen, a_imp)
    l2_g = en.mi_loss(g_gen, g_imp)
    zf_real = gc.take_rows(zf, gc.leaf("real_idx"))
    l_id = en.id_loss(zf_real, gc.leaf("real_labels"), gc.leaf("class_w"),
                      margins, cfg.n_classes)
    total = weights.lambda2_a * l2_a + weights.lambda2_g * l2_g + l_id
    return gc.Graph(total)


def test_stage2_graph_same_as_unrolled_builder():
    cfg = tiny_cfg()
    args = (cfg, en.MarginConfig(), en.LossWeights())
    graph, ref = en.stage2_graph(*args), _stage2_graph_unrolled(*args)

    def sequence(g):
        return [(n.op, n.name, len(n.inputs),
                 {k: v for k, v in n.params.items() if k != "value"})
                for n in g.nodes]
    assert sequence(graph) == sequence(ref)
    params = en.init_params(cfg, seed=28)
    r = rng(29)
    bindings = dict(params.tensors)
    bindings["x"] = r.uniform(-1, 1, size=(5, 3, 16, 16))
    for name in ("gen_i", "gen_j", "imp_i", "imp_j"):
        bindings[name] = r.integers(0, 5, size=3).astype(float)
    bindings["real_idx"] = np.array([0.0, 1.0, 3.0])
    bindings["real_labels"] = np.array([0.0, 2.0, 1.0])
    loss, grads = gc.value_and_grad(graph, bindings, params.names())
    loss_ref, grads_ref = gc.value_and_grad(ref, bindings, params.names())
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    for name in params.names():
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


# ---------------------------------------------------------------------------
# gradient checks over all losses


def gradcheck_report(seed, max_coords=6):
    """Finite-difference errors for every loss graph at one seed.

    Returns an ordered dict of loss name -> max relative error.
    """
    r = rng(seed)
    cfg = tiny_cfg()
    margins = en.MarginConfig()
    weights = en.LossWeights()
    n, d = 4, 8
    report = {}

    def check(name, graph, bindings, wrt):
        report[name] = finite_difference_check(
            graph, bindings, wrt, eps=1e-5, max_coords=max_coords, seed=seed)

    za_x, za_h = gc.leaf("za_x"), gc.leaf("za_h")
    check("L1_a", en.appearance_loss(za_x, za_h),
          {"za_x": r.normal(size=(n, d)), "za_h": r.normal(size=(n, d))},
          ["za_x", "za_h"])

    zg_p, zg_h, zg_x = gc.leaf("zg_p"), gc.leaf("zg_h"), gc.leaf("zg_x")
    check("L1_g",
          en.landmark_loss(zg_p, zg_h, zg_x, gc.leaf("phi"), weights.alpha_g),
          {"zg_p": r.normal(size=(n, d)), "zg_h": r.normal(size=(n, d)),
           "zg_x": r.normal(size=(n, d)), "phi": r.uniform(0.02, 0.3, size=n)},
          ["zg_p", "zg_h", "zg_x"])

    zf, cw = gc.leaf("zf"), gc.leaf("class_w")
    check("L1_id",
          en.id_loss(zf, gc.leaf("labels"), cw, margins, cfg.n_classes),
          {"zf": r.normal(size=(n, cfg.d_f)),
           "class_w": r.normal(size=(cfg.n_classes, cfg.d_f)),
           "labels": r.integers(0, cfg.n_classes, size=n).astype(float)},
          ["zf", "class_w"])

    params = en.init_params(cfg, seed)
    s1 = en.stage1_graph(cfg, margins, weights)
    bindings = dict(params.tensors)
    size = cfg.input_size
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(n, 3, size, size))
    bindings["labels"] = r.integers(0, cfg.n_classes, size=n).astype(float)
    bindings["labels_prime"] = r.integers(0, cfg.n_classes, size=n).astype(float)
    bindings["phi"] = r.uniform(0.02, 0.3, size=n)
    check("L1_t", s1, bindings, params.names())

    for branch in ("a", "g"):
        zi, zj, wi, wj = (gc.leaf("zi"), gc.leaf("zj"),
                          gc.leaf("wi"), gc.leaf("wj"))
        loss = en.mi_loss(en.critic_score(zi, zj, f"crit_{branch}_"),
                          en.critic_score(wi, wj, f"crit_{branch}_"))
        cb = {k: v for k, v in params.tensors.items()
              if k.startswith(f"crit_{branch}_")}
        cb.update({"zi": r.normal(size=(n, d)), "zj": r.normal(size=(n, d)),
                   "wi": r.normal(size=(n, d)), "wj": r.normal(size=(n, d))})
        check(f"L2_{branch}", loss, cb, list(cb))

    s2 = en.stage2_graph(cfg, margins, weights)
    b2 = dict(params.tensors)
    b2["x"] = r.uniform(-1, 1, size=(5, 3, size, size))
    b2["gen_i"] = np.array([0.0, 1.0])
    b2["gen_j"] = np.array([2.0, 3.0])
    b2["imp_i"] = np.array([0.0, 2.0])
    b2["imp_j"] = np.array([4.0, 4.0])
    b2["real_idx"] = np.array([0.0, 1.0, 2.0, 3.0])
    b2["real_labels"] = r.integers(0, cfg.n_classes, size=4).astype(float)
    check("L2_t", s2, b2, params.names())
    return report


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_all_losses(seed):
    report = gradcheck_report(seed=seed)
    assert sorted(report) == sorted(
        ["L1_a", "L1_g", "L1_id", "L1_t", "L2_a", "L2_g", "L2_t"])
    for name, err in report.items():
        assert err <= 1e-3, f"{name}: {err}"


def test_gradcheck_detects_injected_fault(monkeypatch):
    # analytic gradients biased by 5% must push every loss over the gate
    value_and_grad = gc.value_and_grad

    def biased(*args):
        value, grads = value_and_grad(*args)
        return value, {name: 1.05 * g for name, g in grads.items()}
    monkeypatch.setattr(gc, "value_and_grad", biased)
    report = gradcheck_report(seed=0)
    assert min(report.values()) > 1e-3


# ---------------------------------------------------------------------------
# training loops (tiny synthetic data)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyset")
    cfg = im.SynthConfig(subjects=4, captures=2, morphs_per_subject=1,
                         seed=5, size=16)
    rows = im.synth_dataset(cfg, out)
    return rows, out


def train_cfg():
    return tiny_cfg(n_classes=4)


def test_stage1_zero_lr_keeps_init(tiny_dataset):
    rows, root = tiny_dataset
    cfg = train_cfg()
    sched = gc.LrSchedule(initial=0.0)
    params, _ = en.train_stage1(rows, root, cfg, en.MarginConfig(),
                                en.LossWeights(), sched, epochs=1,
                                batch_size=8, seed=3)
    init = en.init_params(cfg, 3)
    for k in init.names():
        assert np.array_equal(params[k], init[k]), k


@pytest.mark.parametrize("stage", [1, 2])
def test_every_step_of_a_run_updates_at_the_initial_rate(tiny_dataset,
                                                         monkeypatch, stage):
    # six epochs: a step decay every 5 epochs would cut the rate at epoch 5
    rows, root = tiny_dataset
    rates = []
    sgd_update = gc.sgd_update

    def recording(params, grads, lr):
        rates.append(lr)
        return sgd_update(params, grads, lr)
    monkeypatch.setattr(gc, "sgd_update", recording)
    _, history = _run_stage(stage, rows, root,
                            schedule=gc.LrSchedule(initial=0.03), epochs=6)
    assert len(history) == 6
    assert len(rates) >= 6 and set(rates) == {0.03}


def test_stage1_deterministic(tiny_dataset):
    rows, root = tiny_dataset
    cfg = train_cfg()
    sched = gc.LrSchedule(initial=0.05)
    kw = dict(margins=en.MarginConfig(), weights=en.LossWeights(),
              schedule=sched, epochs=2, batch_size=4, seed=9)
    p1, h1 = en.train_stage1(rows, root, cfg, **kw)
    p2, h2 = en.train_stage1(rows, root, cfg, **kw)
    for k in p1.names():
        assert np.array_equal(p1[k], p2[k]), k
    assert [s.loss for s in h1] == [s.loss for s in h2]


def test_stage2_zero_epochs_equals_init(tiny_dataset):
    rows, root = tiny_dataset
    cfg = train_cfg()
    init = en.init_params(cfg, 11)
    params, _ = en.train_stage2(rows, root, cfg, en.MarginConfig(),
                                en.LossWeights(), gc.LrSchedule(initial=0.01),
                                epochs=0, batch_size=16, seed=11, init=init)
    for k in init.names():
        assert np.array_equal(params[k], init[k]), k


def test_stage2_requires_morphs(tiny_dataset):
    rows, root = tiny_dataset
    only_real = [r for r in rows if r.kind == "real"]
    with pytest.raises(ValueError, match="morph"):
        en.train_stage2(only_real, root, train_cfg(), en.MarginConfig(),
                        en.LossWeights(), gc.LrSchedule(), 1, 16, 0,
                        init=en.init_params(train_cfg(), 0))


def test_stage2_leaves_init_unchanged(tiny_dataset):
    rows, root = tiny_dataset
    cfg = train_cfg()
    init = en.init_params(cfg, 13)
    before = init.copy()
    params, _ = en.train_stage2(
        rows, root, cfg, en.MarginConfig(), en.LossWeights(),
        gc.LrSchedule(initial=0.01), epochs=2, batch_size=16, seed=13,
        init=init)
    for k in before.names():
        assert init[k].tobytes() == before[k].tobytes(), k
    assert any(not np.array_equal(params[k], before[k]) for k in before.names())


def _init_missing_critic(cfg):
    init = en.init_params(cfg, 0)
    del init.tensors["crit_a_fc_w"]
    return init


def _init_with_extra(cfg):
    init = en.init_params(cfg, 0)
    init.tensors["extra_w"] = np.zeros((2, 3))
    return init


@pytest.mark.parametrize("make_init,message", [
    # unchecked, the first step fails to broadcast (6, 5) with (6, 4) in numpy
    (lambda cfg: en.init_params(tiny_cfg(5), 0),
     "stage-2 init tensor 'class_w': init has (5, 16), "
     "the encoder config expects (4, 16)"),
    # unchecked, the first step raises GradcoreError: unbound leaf
    (_init_missing_critic,
     "stage-2 init tensor 'crit_a_fc_w': init has no tensor, "
     "the encoder config expects (8, 64)"),
    # unchecked, it trains and returns the stray tensor
    (_init_with_extra,
     "stage-2 init tensor 'extra_w': init has (2, 3), "
     "the encoder config expects no tensor"),
], ids=["misshapen", "missing", "extra"])
def test_stage2_rejects_init_of_another_config(tiny_dataset, monkeypatch,
                                               make_init, message):
    rows, root = tiny_dataset
    cfg = train_cfg()
    monkeypatch.setattr(en, "_load_checked", lambda *args: pytest.fail(
        "faces loaded before init was checked"))
    with pytest.raises(ValueError) as err:
        en.train_stage2(rows, root, cfg, en.MarginConfig(), en.LossWeights(),
                        gc.LrSchedule(), 1, 8, 0, init=make_init(cfg))
    assert str(err.value) == message


def _run_stage(stage, rows, root, cfg=None, **overrides):
    cfg = cfg or train_cfg()
    kw = dict(margins=en.MarginConfig(), weights=en.LossWeights(),
              schedule=gc.LrSchedule(initial=0.01), epochs=1, batch_size=8,
              seed=17)
    kw.update(overrides)
    if stage == 1:
        return en.train_stage1(rows, root, cfg, **kw)
    return en.train_stage2(rows, root, cfg, init=en.init_params(cfg, 17), **kw)


def test_public_calls_stay_on_the_callers_thread(tmp_path, monkeypatch):
    # the bench traces public functions through their module attributes and
    # keeps one span stack, so the worker thread may call none of them
    threads = {}

    def record(fn, name):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    for module in (geo, im, gc, en):
        for name, fn in list(vars(module).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and fn.__module__ == module.__name__):
                monkeypatch.setattr(module, name, record(fn, f"{module.__name__}.{name}"))
    rows = im.synth_dataset(im.SynthConfig(subjects=4, captures=2,
                                           morphs_per_subject=1, seed=5, size=16),
                            tmp_path)
    _run_stage(1, rows, tmp_path)
    _run_stage(2, rows, tmp_path)
    assert {"morphkit.geometry.warp_images", "morphkit.imaging.build_triplet",
            "morphkit.gradcore.value_and_grad"} <= threads.keys()
    assert set().union(*threads.values()) == {threading.get_ident()}


_ONE_CLASS = "training needs at least 2 classes, the manifest has 1"
_MORE_CLASSES = "config says 5 classes, manifest has 4"


def _one_subject(rows):
    # two captures and one morph of s000: one class
    return [r for r in rows if r.subject_id == "s000"]


def _one_capture_each(rows):
    return [r for r in rows if "_c1." not in r.path]


# unchecked, more classes than subjects train a class row no label reaches
@pytest.mark.parametrize("stage,pick,n_classes,message", [
    pytest.param(1, _one_subject, 1, _ONE_CLASS, id="1"),
    pytest.param(2, _one_subject, 1, _ONE_CLASS, id="2"),
    pytest.param(1, list, 5, _MORE_CLASSES, id="1-more-classes-than-subjects"),
    pytest.param(2, list, 5, _MORE_CLASSES, id="2-more-classes-than-subjects"),
    pytest.param(2, _one_capture_each, 4, "no subject has two real captures",
                 id="2-one-capture-each"),
])
def test_single_class_errors(tiny_dataset, stage, pick, n_classes, message):
    rows, root = tiny_dataset
    with pytest.raises(ValueError) as err:
        _run_stage(stage, pick(rows), root, cfg=tiny_cfg(n_classes))
    assert str(err.value) == message


# 8 reals at batch 3 give stage-1 steps of 3, 3 and 2 triplets; 4 genuine
# and 8 imposter pairs at batch 5 give stage-2 steps of 5, 4 and 3 pairs
_UNEQUAL_STEPS = {1: (3, [3, 3, 2]), 2: (5, [5, 4, 3])}


@pytest.mark.parametrize("stage", [1, 2])
def test_training_runs_and_logs(tiny_dataset, monkeypatch, stage):
    rows, root = tiny_dataset
    batch_size, steps = _UNEQUAL_STEPS[stage]
    value_and_grad = gc.value_and_grad
    bind = getattr(en, f"_bind_stage{stage}_batch")
    built, step_log, bound = [], [], []

    def binding(*args):
        bound.append(args)
        built.append(bind(*args))
        return built[-1]

    def recording(graph, bindings, wrt):
        # each step computes in float32 on the very leaves its batch was built
        # as, and updates float64 params
        assert {v.dtype for v in bindings.values()} == {np.dtype(np.float32)}
        leaves = built.pop()
        assert all(bindings[k] is v for k, v in leaves.items())
        loss, grads = value_and_grad(graph, bindings, wrt)
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}
        n = (len(bindings["labels"]) if stage == 1
             else len(bindings["gen_i"]) + len(bindings["imp_i"]))
        step_log.append((loss, n))
        return loss, grads

    monkeypatch.setattr(en, f"_bind_stage{stage}_batch", binding)
    monkeypatch.setattr(gc, "value_and_grad", recording)
    schedule = gc.LrSchedule(initial=0.01)
    params, history = _run_stage(stage, rows, root, schedule=schedule, epochs=3,
                                 batch_size=batch_size)
    assert all(t.dtype == np.float64 for t in params.tensors.values())
    assert len(history) == 3
    assert [n for _, n in step_log] == steps * 3 and not built
    for e, stats in enumerate(history):
        epoch_steps = step_log[e * len(steps):(e + 1) * len(steps)]
        weighted = sum(loss * n for loss, n in epoch_steps) / sum(steps)
        assert stats.epoch == e
        assert np.isfinite(stats.loss)
        assert stats.loss == pytest.approx(weighted, rel=1e-12, abs=0)
    if stage == 2:
        # each pair indexes one face list, the reals then the morphs
        for e in range(3):
            rounds = bound[e * len(steps):(e + 1) * len(steps)]
            labels = rounds[0][3]
            n_reals = len(labels)
            assert len(rounds[0][2]) > n_reals
            genuine = [p for gen, _, _, _ in rounds for p in gen]
            imposters = [p for _, imp, _, _ in rounds for p in imp]
            assert all(i < n_reals and j < n_reals and labels[i] == labels[j]
                       for i, j in genuine)
            assert all(i < n_reals for i, _ in imposters)
            assert sum(j < n_reals and labels[i] != labels[j]
                       for i, j in imposters) == len(genuine)
            assert sum(j >= n_reals for _, j in imposters) == len(genuine)


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("missing", ["morph_image", "landmarks", "both"])
def test_training_checks_manifest_files_first(tiny_dataset, tmp_path,
                                              monkeypatch, stage, missing):
    rows, src = tiny_dataset
    root = tmp_path / "set"
    shutil.copytree(src, root)
    morph = next(r for r in rows if r.kind == "morph")
    real = next(r for r in rows if r.kind == "real")
    gone = {"morph_image": [morph.path], "landmarks": [real.landmarks_path],
            "both": [morph.path, real.landmarks_path]}[missing]
    for rel in gone:
        (root / rel).unlink()

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before the file check")

    monkeypatch.setattr(gc, "value_and_grad", no_step)
    with pytest.raises(FileNotFoundError) as err:
        _run_stage(stage, rows, root)
    message = str(err.value)
    assert message.startswith(f"{len(gone)} manifest file(s) missing")
    for rel in gone:
        assert str(root / rel) in message


@pytest.mark.parametrize("stage", [1, 2])
def test_training_zero_epochs_returns_initial_params(tiny_dataset, stage):
    rows, root = tiny_dataset
    params, history = _run_stage(stage, rows, root, epochs=0)
    assert history == []
    for name, value in en.init_params(train_cfg(), 17).tensors.items():
        assert params.tensors[name].tobytes() == value.tobytes()


# ---------------------------------------------------------------------------
# the float64 batch construction the float32 one replaced, kept as its
# oracle: each leaf scaled by ``from_uint8`` in float64, which ``_fit`` casts
# as it binds, and x_hat warped from the float64 x


def _float64_leaf(faces):
    return im.from_uint8(np.stack(faces))


def _float64_stage1_batch(batch, faces):
    x = _float64_leaf([faces[t.index_a] for t in batch])
    x_hat = np.empty_like(x)
    for out, image, t in zip(x_hat, x, batch):
        out[...] = im.build_triplet(image.transpose(1, 2, 0), t).transpose(2, 0, 1)
    return {"x": x, "x_prime": _float64_leaf([faces[t.index_g] for t in batch]),
            "x_hat": x_hat,
            "labels": np.array([t.label_a for t in batch], dtype=float),
            "labels_prime": np.array([t.label_g for t in batch], dtype=float),
            "phi": np.array([geo.phi_g(t.lms_a, t.lms_g) for t in batch])}


def _float64_stage2_batch(gen_batch, imp_batch, faces, labels):
    unique = {}
    leaves = {}
    for side, pairs in (("gen", gen_batch), ("imp", imp_batch)):
        rows_ij = [(unique.setdefault(i, len(unique)),
                    unique.setdefault(j, len(unique))) for i, j in pairs]
        leaves[f"{side}_i"] = np.array([a for a, _ in rows_ij], dtype=np.float64)
        leaves[f"{side}_j"] = np.array([b for _, b in rows_ij], dtype=np.float64)
    leaves["x"] = _float64_leaf([faces[k] for k in unique])
    real_rows = [(row, k) for row, k in enumerate(unique) if k < len(labels)]
    leaves["real_idx"] = np.array([row for row, _ in real_rows], dtype=np.float64)
    leaves["real_labels"] = np.array([labels[k] for _, k in real_rows],
                                     dtype=np.float64)
    return leaves


def _bind_float64_leaves(monkeypatch, on_batch=None):
    """Route both stages through the float64 oracle binders; ``on_batch``
    sees each stage number and batch of leaves."""
    for stage, oracle in ((1, _float64_stage1_batch), (2, _float64_stage2_batch)):
        def bind(*args, stage=stage, oracle=oracle):
            leaves = oracle(*args)
            if on_batch:
                on_batch(stage, leaves)
            return leaves
        monkeypatch.setattr(en, f"_bind_stage{stage}_batch", bind)


# the two training loops written out from their sampling rules, each batch
# bound by the float64 binder of its stage


def _class_indices(reals):
    subjects = sorted({r.subject_id for r in reals})
    return [subjects.index(r.subject_id) for r in reals]


def _oracle_stage1(rows, root, cfg, schedule, epochs, batch_size, seed):
    reals = [r for r in rows if r.kind == "real"]
    faces = [im.read_ppm(root / r.path).transpose(2, 0, 1) for r in reals]
    pool = [(geo.load_landmarks(root / r.landmarks_path), c)
            for r, c in zip(reals, _class_indices(reals))]
    rng = np.random.Generator(np.random.PCG64([seed, 1]))

    def triplet(index):
        lms, label = pool[index]
        other = geo.nearest_neighbor(lms, pool, exclude_class=label)
        delta = rng.normal(0.0, np.sqrt(3.0), size=(lms.shape[0], 2))
        return im.Triplet(index, other, label, pool[other][1], lms,
                          pool[other][0], delta)

    def epoch_batches():
        triplets = [triplet(i) for i in range(len(pool))]
        shuffled = [triplets[i] for i in rng.permutation(len(triplets))]
        n_steps = max(1, math.ceil(len(shuffled) / batch_size))
        for batch in en._chunks(shuffled, n_steps):
            yield _float64_stage1_batch(batch, faces), len(batch)

    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    return en._fit(graph, en.init_params(cfg, seed), schedule, epochs,
                   epoch_batches)


def _oracle_stage2(rows, root, cfg, schedule, epochs, batch_size, seed, init):
    reals = [r for r in rows if r.kind == "real"]
    morphs = [r for r in rows if r.kind == "morph"]
    genuine, cross = en._stage2_pools(reals, morphs)
    labels = _class_indices(reals)
    faces = [im.read_ppm(root / r.path).transpose(2, 0, 1)
             for r in reals + morphs]
    n_reals = len(reals)
    rng = np.random.Generator(np.random.PCG64([seed, 2]))

    def epoch_batches():
        n_gen = len(genuine)
        cross_pick = [cross[k] for k in rng.integers(0, len(cross), n_gen)]
        # real i with morph m, which is face n_reals + m
        morph_pick = [(int(k) % n_reals, n_reals + int(k) // n_reals)
                      for k in rng.integers(0, n_reals * len(morphs), n_gen)]
        imposters = cross_pick + morph_pick
        n_rounds = max(1, min(len(genuine), len(imposters),
                              math.ceil((len(genuine) + len(imposters)) / batch_size)))
        for gen_batch, imp_batch in zip(en._chunks(genuine, n_rounds),
                                        en._chunks(imposters, n_rounds)):
            yield (_float64_stage2_batch(gen_batch, imp_batch, faces, labels),
                   len(gen_batch) + len(imp_batch))

    graph = en.stage2_graph(cfg, en.MarginConfig(), en.LossWeights())
    return en._fit(graph, init.copy(), schedule, epochs, epoch_batches)


# 8 reals: stage-1 batch 4 divides them, 3 leaves a short batch; 4 genuine and
# 8 imposter pairs: stage-2 batch 6 gives steps of 6, 6, and 5 of 5, 4, 3
@pytest.mark.parametrize("seed", [17, 29])
@pytest.mark.parametrize("stage,batch_size", [(1, 4), (1, 3), (2, 6), (2, 5)])
def test_training_byte_equal_to_float_oracle(tiny_dataset, stage, batch_size,
                                             seed):
    rows, root = tiny_dataset
    cfg = train_cfg()
    schedule = gc.LrSchedule(initial=0.05)
    params, history = _run_stage(stage, rows, root, schedule=schedule, epochs=2,
                                 batch_size=batch_size, seed=seed)
    init = en.init_params(cfg, seed if stage == 1 else 17)
    if stage == 1:
        want, want_history = _oracle_stage1(rows, root, cfg, schedule, 2,
                                            batch_size, seed)
    else:
        want, want_history = _oracle_stage2(rows, root, cfg, schedule, 2,
                                            batch_size, seed, init)
    assert [s.loss for s in history] == [s.loss for s in want_history]
    assert any(not np.array_equal(want[k], init[k]) for k in init.names())
    for k in want.names():
        assert params[k].tobytes() == want[k].tobytes(), k


def test_load_checked_holds_faces_as_channel_major_planes(tiny_dataset):
    rows, root = tiny_dataset
    (reals, morphs), faces = en._load_checked(rows, root, train_cfg(),
                                              "real", "morph")
    assert len(faces) == len(reals) + len(morphs) > 0
    for r, face in zip(reals + morphs, faces):
        assert face.dtype == np.uint8 and face.shape == (3, 16, 16)
        assert face.flags.c_contiguous
        want = im.read_ppm(root / r.path).transpose(2, 0, 1)
        assert face.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 8, 15])
def test_float_leaf_table_is_from_uint8_cast_to_float32(n):
    levels = np.arange(256, dtype=np.uint8)
    assert en._LEVELS32.dtype == np.float32
    assert en._LEVELS32.tobytes() == im.from_uint8(levels).astype(np.float32).tobytes()
    # two faces that hold every level in every channel, then contiguous
    # faces, flipped views and crops of a larger array, all (3, S, S)
    big = rng(n).integers(0, 256, size=(n, 3, 24, 24), dtype=np.uint8)
    faces = ([np.stack([levels.reshape(16, 16), levels.reshape(16, 16).T,
                        levels[::-1].reshape(16, 16)]),
              np.full((3, 16, 16), 255, np.uint8)]
             + [big[i, :, 4:20, 4:20] if i % 3 == 0
                else big[i, :, 8:, 8:][:, ::-1] if i % 3 == 1
                else np.ascontiguousarray(big[i, :, :16, :16])
                for i in range(n)])[:n]
    leaf = en._float_leaf(faces)
    assert leaf.dtype == np.float32 and leaf.shape == (n, 3, 16, 16)
    assert leaf.flags.c_contiguous
    assert leaf.tobytes() == _float64_leaf(faces).astype(np.float32).tobytes()


def test_float32_leaves_lower_the_traced_peak(tmp_path, monkeypatch):
    # the float64 oracle's batch stays alive next to its float32 copy through
    # each step; built in float32, that batch is never made.  Here the gap is
    # 0.96 (stage 1) and 1.00 (stage 2) of the float64 batch bytes; at batch
    # 8 the stage-1 peak moves to the x_hat warp of the next batch, and the
    # gap is 0.34-0.42 of them at 48-80 px, 0.75 at 112 px
    rows = im.synth_dataset(im.SynthConfig(subjects=6, captures=3,
                                           morphs_per_subject=2, seed=3,
                                           size=48), tmp_path)
    cfg = en.EncoderConfig.desk(6, input_size=48)
    init = en.init_params(cfg, 5)
    kw = dict(margins=en.MarginConfig(), weights=en.LossWeights(),
              schedule=gc.LrSchedule(initial=0.01), epochs=1, batch_size=16,
              seed=5)
    fits = {1: lambda: en.train_stage1(rows, tmp_path, cfg, **kw),
            2: lambda: en.train_stage2(rows, tmp_path, cfg, init=init, **kw)}

    def traced_peaks():
        peaks = {}
        for stage, fit in fits.items():
            tracemalloc.start()
            try:
                fit()
                peaks[stage] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peaks

    shipped = traced_peaks()
    batch_bytes = {1: [], 2: []}
    with monkeypatch.context() as m:
        _bind_float64_leaves(m, lambda stage, leaves: batch_bytes[stage].append(
            sum(v.nbytes for v in leaves.values())))
        oracle = traced_peaks()
    for stage in fits:
        assert oracle[stage] - shipped[stage] >= 0.5 * max(batch_bytes[stage]), stage


@pytest.mark.parametrize("stage", [1, 2])
@pytest.mark.parametrize("size", [24, 8])
def test_training_rejects_faces_of_another_shape(tiny_dataset, monkeypatch,
                                                 stage, size):
    # unchecked, the encoder's reshape fails inside the graph
    rows, root = tiny_dataset
    cfg = dataclasses.replace(train_cfg(), input_size=size)

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran before the shape check")

    monkeypatch.setattr(gc, "value_and_grad", no_step)
    first = next(r for r in rows if r.kind == "real")
    with pytest.raises(ValueError) as err:
        _run_stage(stage, rows, root, cfg=cfg)
    assert str(err.value) == (f"{root / first.path}: face of shape (16, 16, 3), "
                              f"the encoder config expects {(size, size, 3)}")


def test_stage1_rejects_landmark_file_of_another_count(tiny_dataset, tmp_path):
    # unchecked, neighbour mining fails on shapes (134,) and (136,)
    rows, src = tiny_dataset
    root = tmp_path / "set"
    shutil.copytree(src, root)
    first, short = [r for r in rows if r.kind == "real"][:2]
    lines = (root / short.landmarks_path).read_text().splitlines(keepends=True)
    (root / short.landmarks_path).write_text("".join(lines[:-1]))
    with pytest.raises(ValueError) as err:
        _run_stage(1, rows, root)
    assert str(err.value) == (f"{root / short.landmarks_path}: 67 landmarks, "
                              f"expected 68 as in {root / first.landmarks_path}")


def test_stage1_traced_peak_does_not_grow_with_float_faces(tmp_path):
    # one epoch at 4 and 12 subjects, batch 4 at both: the 24 extra faces may
    # add their uint8 bytes and landmarks, not float copies of faces and
    # intermediates (the float path grew by ~52 float faces here)
    peaks = {}
    for subjects in (12, 4):
        root = tmp_path / f"s{subjects}"
        rows = im.synth_dataset(im.SynthConfig(subjects=subjects, captures=3,
                                               morphs_per_subject=0, seed=7,
                                               size=32), root)
        cfg = en.EncoderConfig.desk(subjects, input_size=32)
        tracemalloc.start()
        try:
            en.train_stage1(rows, root, cfg, en.MarginConfig(), en.LossWeights(),
                            gc.LrSchedule(initial=0.01), epochs=1, batch_size=4,
                            seed=1)
            peaks[subjects] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    float_face = 32 * 32 * 3 * 8
    assert (peaks[12] - peaks[4]) / float_face < 12


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_cfg()
    params = en.init_params(cfg, 17)
    meta = en.config_meta(cfg, en.MarginConfig(), en.LossWeights())
    meta.update({"stage": "1", "seed": "17"})
    path = tmp_path / "checkpoint.mkpt"
    gc.ParamStore(params.tensors, meta=meta).save(path)
    loaded = gc.ParamStore.load(path)
    meta2 = loaded.meta
    for k in params.names():
        assert np.array_equal(loaded[k], params[k])
    assert en.config_from_meta(meta2) == (cfg, en.MarginConfig(), en.LossWeights())
    assert meta2["stage"] == "1"
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_cut_at_every_byte_names_path(tmp_path):
    # a cut inside the meta once loaded as a shorter value (margin.s=6.0)
    path = tmp_path / "checkpoint.mkpt"
    meta = en.config_meta(tiny_cfg(), en.MarginConfig(), en.LossWeights())
    gc.ParamStore({"w": np.arange(3.0)}, meta=meta).save(path)
    data = path.read_bytes()
    assert en.config_from_meta(gc.ParamStore.load(path).meta)[1].s == 64.0
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(gc.GradcoreError) as err:
            gc.ParamStore.load(path)
        assert str(path) in str(err.value)


def _nondefault_meta():
    return en.config_meta(tiny_cfg(), en.MarginConfig(m1=1.0, s=32.0),
                          en.LossWeights(alpha_g=0.1, lambda2_g=2.5))


def test_config_from_meta_roundtrip():
    meta = _nondefault_meta()
    assert en.config_from_meta(meta) == (
        tiny_cfg(), en.MarginConfig(m1=1.0, s=32.0),
        en.LossWeights(alpha_g=0.1, lambda2_g=2.5))
    # as read back from a checkpoint, every value a string
    assert en.config_from_meta({k: str(v) for k, v in meta.items()}) == \
        en.config_from_meta(meta)


@pytest.mark.parametrize("key", sorted(_nondefault_meta()))
def test_config_from_meta_missing_key_names_it(key):
    meta = _nondefault_meta()
    del meta[key]
    with pytest.raises(ValueError, match=f"no '{key}'"):
        en.config_from_meta(meta)


@pytest.mark.parametrize("key,value", [
    ("enc.channels", "8,16,x"), ("enc.strides", ""), ("enc.d_a", "3.5"),
    ("margin.s", "abc"), ("loss.alpha_g", "")])
def test_config_from_meta_malformed_key_names_it(key, value):
    meta = dict(_nondefault_meta(), **{key: value})
    with pytest.raises(ValueError, match=f"'{key}={value}'"):
        en.config_from_meta(meta)


# the rule of each field of the five configs and of the two training loop
# sizes, as its ValueError states it; the bad values below are derived from it
_FIELD_RULES = {
    "EncoderConfig": dict.fromkeys(
        ("input_size", "channels", "strides", "d_a", "d_g", "d_f", "n_classes"),
        "an integer >= 1"),
    "MarginConfig": {"m1": "finite", "m2": "finite", "m3": "finite",
                     "s": "finite and > 0"},
    "LossWeights": dict.fromkeys(
        ("alpha_g", "lambda1_a", "lambda1_g", "lambda2_a", "lambda2_g"),
        "finite and >= 0"),
    "LrSchedule": {"initial": "finite and >= 0"},
    "SynthConfig": {"subjects": "an integer >= 2", "captures": "an integer >= 1",
                    "morphs_per_subject": "an integer >= 0",
                    "seed": "an integer >= 0", "size": "an integer >= 8"},
    "train_stage1": {"epochs": "an integer >= 0", "batch_size": "an integer >= 1"},
    "train_stage2": {"epochs": "an integer >= 0", "batch_size": "an integer >= 1"},
}
_CONFIGS = {"EncoderConfig": en.EncoderConfig, "MarginConfig": en.MarginConfig,
            "LossWeights": en.LossWeights, "LrSchedule": gc.LrSchedule,
            "SynthConfig": im.SynthConfig}
_OUT_OF_RANGE = {"finite": (), "finite and > 0": (0.0, -1.0),
                 "finite and >= 0": (-1e-9,)}
# further bad values, kept from the per-config tests the table replaced; a
# tuple is a whole layer list.  Unchecked, captures=0 and batch_size 0 divided
# by zero, and epochs -1 returned untrained params
_LOOP_SIZES = {"batch_size": [("range", -2)],
               "epochs": [("type", 1.5), ("type", None)]}
_MORE_BAD = {
    "EncoderConfig": {"d_g": [("range", -4)], "channels": [("range", (-4, 8))],
                      "strides": [("range", (-1, 2))]},
    "MarginConfig": {"s": [("range", -64.0)]},
    "LossWeights": {"lambda1_a": [("range", -1.0)]},
    "LrSchedule": {"initial": [("range", -0.1)]},
    "SynthConfig": {"captures": [("range", -2)], "size": [("range", 0)],
                    "morphs_per_subject": [("type", "1")], "seed": [("type", 1.5)]},
    "train_stage1": _LOOP_SIZES, "train_stage2": _LOOP_SIZES,
}
_META_TAGS = {cls.__name__: tag for cls, tag in en._META_TAGS}


def _bad_field_cases(meta=False):
    """(owner, field, rule, bad value) of each case; with ``meta``, only the
    range and non-finite values of the configs a checkpoint's meta holds."""
    for owner, rules in _FIELD_RULES.items():
        for field, rule in rules.items():
            if rule.startswith("an integer"):
                bad = [("bool", True), ("type", 2.0),
                       ("range", int(rule.rpartition(" ")[2]) - 1)]
            else:
                bad = [("bool", True), ("type", "0.5"), ("finite", math.nan),
                       ("finite", math.inf), ("finite", -math.inf),
                       *(("range", v) for v in _OUT_OF_RANGE[rule])]
            bad += _MORE_BAD.get(owner, {}).get(field, [])
            default = getattr(_CONFIGS[owner](), field) if owner in _CONFIGS else None
            for kind, value in bad:
                if meta and (owner not in _META_TAGS or kind in ("bool", "type")):
                    continue
                case = f"{owner}.{field}-{kind}-{value!r}"
                if isinstance(default, tuple) and not isinstance(value, tuple):
                    value = (default[0], value) + default[2:]  # among good items
                yield pytest.param(owner, field, rule, value, id=case)
    if meta:
        return
    # a layer list that is no tuple or list is refused whole (5 and None
    # raised a bare TypeError, and "8,16" was split into its characters)
    for field in ("channels", "strides"):
        for value in (5, "8,16", None):
            yield pytest.param("EncoderConfig", field, "a tuple", value,
                               id=f"EncoderConfig.{field}-whole-{value!r}")


# read_ppm reads 3-channel faces only, every conv is 3 x 3, and every caller
# used critics 64 wide
_ENCODER_CONSTANTS = {"in_channels": 3, "kernel": 3, "critic_hidden": 64}


@pytest.mark.parametrize("name", list(_ENCODER_CONSTANTS))
def test_encoder_trunk_constants_are_not_settings(name):
    value = _ENCODER_CONSTANTS[name]
    assert getattr(en.EncoderConfig, name) == getattr(tiny_cfg(), name) == value
    with pytest.raises(TypeError, match=name):
        en.EncoderConfig(**{name: value})
    assert f"enc.{name}" not in _nondefault_meta()


@pytest.mark.parametrize("key,value,error", [
    ("enc.in_channels", "1", "names no EncoderConfig field"),
    ("enc.kernel", "5", "names no EncoderConfig field"),
    ("enc.critic_hidden", "32", "names no EncoderConfig field"),
    # a trunk constant is no field, so meta that holds it is refused even
    # at the constant's own value
    ("enc.in_channels", "3", "names no EncoderConfig field"),
    ("enc.kernel", "3", "names no EncoderConfig field"),
    ("enc.critic_hidden", "64", "names no EncoderConfig field"),
    ("enc.typo_d_a", "8", "names no EncoderConfig field"),
    ("loss.typo", "1", "names no LossWeights field")])
def test_config_from_meta_refuses_a_key_no_config_defines(key, value, error):
    # unchecked, each loaded silently as the config without that key
    with pytest.raises(ValueError) as err:
        en.config_from_meta(dict(_nondefault_meta(), **{key: value}))
    assert str(err.value) == f"checkpoint meta '{key}={value}' {error}"


def test_field_rule_table_names_every_config_field():
    for owner, cls in _CONFIGS.items():
        assert list(_FIELD_RULES[owner]) == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("owner,field,rule,value", _bad_field_cases())
def test_every_config_field_and_loop_size_rejects_bad_values(monkeypatch, owner,
                                                             field, rule, value):
    # unchecked before, EncoderConfig took a float or a bool size and
    # init_params died on numpy's TypeError, and MarginConfig, LossWeights and
    # LrSchedule took a bool for a real
    if owner in _CONFIGS:
        with pytest.raises(ValueError) as err:
            _CONFIGS[owner](**{field: value})
        label = f"{owner}.{field}"
    else:
        monkeypatch.setattr(en, "_load_checked", lambda *args: pytest.fail(
            "data loaded before the loop sizes were checked"))
        with pytest.raises(ValueError) as err:
            _run_stage(int(owner[-1]), [], None, **{field: value})
        label = field
    assert str(err.value) == f"{label} must be {rule}, got {value!r}"


@pytest.mark.parametrize("owner,field,rule,value", _bad_field_cases(meta=True))
def test_config_from_meta_rejects_every_bad_range_and_non_finite_value(
        owner, field, rule, value):
    # unchecked, a zero size ended in numpy's errors once the config was used,
    # and a NaN scale or a negative weight trained on without complaint
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    with pytest.raises(ValueError) as err:
        en.config_from_meta(dict(_nondefault_meta(),
                                 **{f"{_META_TAGS[owner]}.{field}": text}))
    assert str(err.value) == f"{owner}.{field} must be {rule}, got {value!r}"
