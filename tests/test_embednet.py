"""Encoder wiring, loss values against hand oracles, and the training loops."""

import math
import re
import shutil

import numpy as np
import pytest

import morphkit.gradcore as gc
from morphkit import embednet as en
from morphkit import imaging as im


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def tiny_cfg(n_classes=3):
    return en.EncoderConfig(input_size=16, channels=(4, 8), strides=(2, 2),
                            d_a=8, d_g=8, d_f=16, n_classes=n_classes,
                            critic_hidden=6)


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


def test_list_valued_config_encodes_and_round_trips():
    cfg = en.EncoderConfig(input_size=16, channels=[4, 8], strides=[2, 2],
                           d_a=8, d_g=8, d_f=16, n_classes=3, critic_hidden=6)
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
    out = gc.evaluate(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                      {"a": z, "b": z.copy()})
    np.testing.assert_allclose(out, -1.0, atol=1e-12)


def test_appearance_loss_orthogonal_pairs():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[0.0, 3.0], [1.0, 0.0]])
    out = gc.evaluate(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                      {"a": a, "b": b})
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_appearance_loss_mixed_batch():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, -1.0]])  # identical and opposite
    out = gc.evaluate(en.appearance_loss(gc.leaf("a"), gc.leaf("b")),
                      {"a": a, "b": b})
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def landmark_loss_value(zp, zh, zx, phi, alpha_g=9.4):
    node = en.landmark_loss(gc.leaf("p"), gc.leaf("h"), gc.leaf("x"),
                            gc.leaf("phi"), alpha_g)
    return gc.evaluate(node, {"p": zp, "h": zh, "x": zx, "phi": phi})


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
    return gc.evaluate(node, {"zf": zf, "labels": labels.astype(float), "w": w})


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
    total = gc.evaluate(en.stage1_graph(cfg, en.MarginConfig(), zero), bindings)
    _, _, zf_x = en.build_encoder(cfg, gc.leaf("x"))
    _, _, zf_p = en.build_encoder(cfg, gc.leaf("x_prime"))
    cw = gc.leaf("class_w")
    ids = gc.evaluate(
        en.id_loss(zf_x, gc.leaf("labels"), cw, en.MarginConfig(), 3)
        + en.id_loss(zf_p, gc.leaf("labels_prime"), cw, en.MarginConfig(), 3),
        bindings)
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
    base = gc.evaluate(en.stage1_graph(cfg, m, w), bindings)
    doubled = gc.evaluate(
        en.stage1_graph(cfg, m, en.LossWeights(lambda1_a=2 * w.lambda1_a)),
        bindings)
    za_x, _, _ = en.build_encoder(cfg, gc.leaf("x"))
    za_h, _, _ = en.build_encoder(cfg, gc.leaf("x_hat"))
    l_a = gc.evaluate(en.appearance_loss(za_x, za_h), bindings)
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
    np.testing.assert_array_equal(gc.evaluate(node, bindings), np.zeros(4))


def test_critic_deterministic_and_possibly_asymmetric():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=21)
    r = rng(22)
    node = en.critic_score(gc.leaf("zi"), gc.leaf("zj"), "crit_a_")
    b1 = dict(params.tensors, zi=r.normal(size=(3, 8)), zj=r.normal(size=(3, 8)))
    s1 = gc.evaluate(node, b1)
    s2 = gc.evaluate(node, b1)
    assert np.array_equal(s1, s2)
    swapped = gc.evaluate(node, dict(b1, zi=b1["zj"], zj=b1["zi"]))
    assert swapped.shape == s1.shape  # asymmetry permitted, no crash


def mi_value(gen, imp):
    return gc.evaluate(en.mi_loss(gc.leaf("g"), gc.leaf("i")),
                       {"g": np.asarray(gen, float), "i": np.asarray(imp, float)})


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
    total = gc.evaluate(graph, bindings)
    _, _, zf = en.build_encoder(cfg, gc.leaf("x"))
    ids = gc.evaluate(
        en.id_loss(gc.take_rows(zf, gc.leaf("real_idx")), gc.leaf("real_labels"),
                   gc.leaf("class_w"), en.MarginConfig(), 3), bindings)
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
    full = gc.evaluate(en.stage2_graph(cfg, m, en.LossWeights()), bindings)
    id_only = gc.evaluate(
        en.stage2_graph(cfg, m, en.LossWeights(lambda2_a=0, lambda2_g=0)),
        bindings)
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


def gradcheck_report(seed, inject_fault=False, max_coords=6):
    """Finite-difference errors for every loss graph at one seed.

    Returns an ordered dict of loss name -> max relative error.  With
    ``inject_fault`` the first loss's analytic gradient is deliberately
    scaled, which must push its error over any sane gate.
    """
    r = rng(seed)
    cfg = tiny_cfg()
    margins = en.MarginConfig()
    weights = en.LossWeights()
    n, d = 4, 8
    report = {}

    def check(name, node_or_graph, bindings, wrt):
        g = node_or_graph if isinstance(node_or_graph, gc.Graph) \
            else gc.Graph(node_or_graph)
        if inject_fault and not report:
            g = gc.Graph(gc.grad_scale(g.output, 1.05))
        report[name] = gc.finite_difference_check(
            g, bindings, wrt, eps=1e-5, max_coords=max_coords, seed=seed)

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


def test_gradcheck_detects_injected_fault():
    report = gradcheck_report(seed=0, inject_fault=True)
    assert max(report.values()) > 1e-3


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
    sched = gc.LrSchedule(initial=0.0, floor=0.0)
    params, _ = en.train_stage1(rows, root, cfg, en.MarginConfig(),
                                en.LossWeights(), sched, epochs=1,
                                batch_size=8, seed=3)
    init = en.init_params(cfg, 3)
    for k in init.names():
        assert np.array_equal(params[k], init[k]), k


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


def test_stage1_single_class_errors(tiny_dataset):
    rows, root = tiny_dataset
    sub = [r for r in rows if r.subject_id == "s000"]
    with pytest.raises(ValueError, match="2 classes"):
        en.train_stage1(sub, root, tiny_cfg(1), en.MarginConfig(),
                        en.LossWeights(), gc.LrSchedule(), 1, 4, 0)


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


def test_stage2_runs_and_logs(tiny_dataset):
    rows, root = tiny_dataset
    cfg = train_cfg()
    init = en.init_params(cfg, 15)
    seen = []
    params, history = en.train_stage2(
        rows, root, cfg, en.MarginConfig(), en.LossWeights(),
        gc.LrSchedule(initial=0.01), epochs=3, batch_size=16, seed=15,
        init=init, log=seen.append)
    assert len(history) == 3 and len(seen) == 3
    assert all(np.isfinite(s.loss) for s in history)


def _run_stage(stage, rows, root):
    cfg = train_cfg()
    kw = dict(margins=en.MarginConfig(), weights=en.LossWeights(),
              schedule=gc.LrSchedule(initial=0.01), epochs=1, batch_size=8,
              seed=17)
    if stage == 1:
        return en.train_stage1(rows, root, cfg, **kw)
    return en.train_stage2(rows, root, cfg, init=en.init_params(cfg, 17), **kw)


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
    cfg2, margins2, weights2 = en.config_from_meta(meta2)
    assert cfg2 == cfg
    assert margins2 == en.MarginConfig()
    assert weights2 == en.LossWeights()
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
    ("enc.channels", "8,16,x"), ("enc.strides", ""), ("enc.kernel", "3.5"),
    ("margin.s", "abc"), ("loss.alpha_g", "")])
def test_config_from_meta_malformed_key_names_it(key, value):
    meta = dict(_nondefault_meta(), **{key: value})
    with pytest.raises(ValueError, match=f"'{key}={value}'"):
        en.config_from_meta(meta)
