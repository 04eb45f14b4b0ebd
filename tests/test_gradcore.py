"""Autodiff engine: forward values, gradients vs central differences, params."""

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import morphkit.gradcore as gc
from gradcheck import finite_difference_check
from test_embednet import tiny_cfg
from morphkit import embednet as en
from morphkit import geometry as geo


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# a plain conv node: the oracle the fused conv_bias_relu is checked against


def conv2d(x, w, stride=1, pad=0):
    """2-D convolution (cross-correlation) of NCHW input with FCkk filters."""
    return gc.Node("conv2d", (x, w), stride=int(stride), pad=int(pad))


def _conv2d_oracle_backward(g, v, out, p, need):
    # one node, so the columns are built again
    cols = gc._im2col(v[0], v[1], p["stride"], p["pad"])
    return gc._conv2d_backward(g, v[0], v[1], p["stride"], p["pad"], need[0], cols)


_CONV2D_RULE = gc._Rule(
    lambda v, p: gc._conv2d_forward(gc._im2col(v[0], v[1], p["stride"], p["pad"]),
                                    v[1]),
    _conv2d_oracle_backward)


@pytest.fixture
def conv2d_rule(monkeypatch):
    """Registers the ``conv2d`` op with the engine for one test."""
    monkeypatch.setitem(gc._RULES, "conv2d", _CONV2D_RULE)


# ---------------------------------------------------------------------------
# forward values


def test_identity_graph():
    x = gc.leaf("x")
    np.testing.assert_array_equal(gc.evaluate_many(x, {"x": [1.0, 2.0, 3.0]})[0],
                                  [1.0, 2.0, 3.0])


def test_cosine_self_is_one():
    v = rng(1).normal(size=(5, 7))
    out = gc.evaluate_many(gc.cosine_similarity(gc.leaf("v"), gc.leaf("v")), {"v": v})[0]
    np.testing.assert_allclose(out, np.ones(5), atol=1e-12)


def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = gc.evaluate_many(gc.matmul(gc.const(np.eye(2)), gc.leaf("m")), {"m": m})[0]
    np.testing.assert_array_equal(out, m)


def test_evaluate_deterministic():
    x = rng(2).normal(size=(4, 4))
    g = gc.relu(gc.matmul(gc.leaf("x"), gc.leaf("x"))).sum()
    a = gc.evaluate_many(g, {"x": x})[0]
    b = gc.evaluate_many(g, {"x": x})[0]
    assert np.array_equal(a, b)


def test_unbound_leaf_errors():
    with pytest.raises(gc.GradcoreError, match="unbound leaf"):
        gc.evaluate_many(gc.leaf("x") + gc.leaf("y"), {"x": 1.0})


def test_matmul_shape_mismatch_errors():
    with pytest.raises(gc.GradcoreError, match="matmul"):
        gc.evaluate_many(gc.matmul(gc.leaf("a"), gc.leaf("b")),
                         {"a": np.ones((2, 3)), "b": np.ones((2, 3))})


def test_nonfinite_aborts():
    # 1 / 0 is Inf, 0 / 0 is NaN
    for x in (1.0, 0.0):
        with pytest.raises(gc.NonFiniteError, match="produced by 'div'"):
            gc.evaluate_many(gc.leaf("x") / gc.leaf("y"), {"x": x, "y": 0.0})


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_forward_restores_numpy_error_state(bad):
    loss = gc.relu(gc.leaf("x") * gc.leaf("k")).sum()
    with np.errstate(all="raise"):
        before = np.geterr()
        assert gc.evaluate_many(loss, {"x": np.arange(3.0), "k": 2.0})[0] == 6.0
        assert np.geterr() == before
        # inf * 0 is NaN: under the caller's "raise" state numpy itself
        # would raise FloatingPointError, so the pass must override it
        with pytest.raises(gc.NonFiniteError, match="produced by 'mul'"):
            gc.evaluate_many(loss, {"x": np.array([bad, 0.0]), "k": 0.0})
        assert np.geterr() == before
        with pytest.raises(gc.NonFiniteError):
            gc.value_and_grad(loss, {"x": np.array([bad, 1.0]), "k": 1.0}, ["k"])
        assert np.geterr() == before


def test_nonfinite_gradient_aborts_naming_the_leaf():
    # 1 / 1e-200 is finite, but the y-gradient -1 / (y * y) is -Inf
    with pytest.raises(gc.NonFiniteError, match="gradient for leaf 'y'"):
        gc.value_and_grad(gc.leaf("x") / gc.leaf("y"),
                          {"x": 1.0, "y": 1e-200}, ["x", "y"])


def test_backward_restores_numpy_error_state():
    loss = gc.leaf("x") / gc.leaf("y")
    with np.errstate(all="raise"):
        before = np.geterr()
        assert gc.value_and_grad(loss, {"x": 1.0, "y": 2.0}, ["y"])[1]["y"] == -0.25
        assert np.geterr() == before
        # y * y underflows to 0 and x / 0 overflows: under the caller's
        # "raise" state numpy itself would raise FloatingPointError
        with pytest.raises(gc.NonFiniteError, match="leaf 'y'"):
            gc.value_and_grad(loss, {"x": 1.0, "y": 1e-200}, ["y"])
        assert np.geterr() == before


def test_graph_of_several_outputs_evaluates_like_node_list():
    x, w = gc.leaf("x"), gc.leaf("w")
    h = gc.matmul(x, w)
    outs = [gc.relu(h), h.sum(), gc.cos(h * 0.1)]
    bindings = {"x": rng(3).normal(size=(4, 3)), "w": rng(4).normal(size=(3, 2))}
    graph = gc.Graph(outs)
    assert graph.outputs == tuple(outs) and graph.output is outs[0]
    for a, b in zip(gc.evaluate_many(graph, bindings),
                    gc.evaluate_many(outs, bindings)):
        assert a.tobytes() == b.tobytes()
    with pytest.raises(gc.GradcoreError, match="one output, got 3"):
        gc.value_and_grad(graph, bindings, ["w"])
    with pytest.raises(gc.GradcoreError, match="at least one output"):
        gc.Graph([])


_NOT_CONSTRUCTORS = {
    "GradcoreError", "NonFiniteError", "Node", "Graph", "leaf", "const",
    "evaluate_many", "value_and_grad", "profile", "ParamSpec", "ParamStore",
    "sgd_update", "LrSchedule"}


def test_every_public_constructor_op_has_a_rule():
    x, y = gc.leaf("x"), gc.leaf("y")
    emitted = {
        "matmul": gc.matmul(x, y), "conv_bias_relu": gc.conv_bias_relu(x, y, x),
        "relu": gc.relu(x), "concat": gc.concat([x, y], 0),
        "slice_axis": gc.slice_axis(x, 0, 0, 1), "transpose2d": gc.transpose2d(x),
        "take_rows": gc.take_rows(x, [0.0]), "onehot": gc.onehot([0.0], 2),
        "l2norm": gc.l2norm(x), "cosine_similarity": gc.cosine_similarity(x, y),
        "softmax_cross_entropy": gc.softmax_cross_entropy(x, [0.0]),
        "acos": gc.acos(x), "cos": gc.cos(x), "clip": gc.clip(x, 0, 1),
        "logmeanexp": gc.logmeanexp(x),
    }
    sugar = [x + 1.0, x - 1.0, x * 2.0, 2.0 * x, x / y, -x, x.sum(), x.mean(),
             x.reshape((1,))]
    assert set(emitted) == set(gc.__all__) - _NOT_CONSTRUCTORS
    # conv_bias_relu emits its im2col node as an input
    ops = {n.op for n in gc.Graph([*emitted.values(), *sugar]).nodes}
    assert ops - {"leaf", "const"} == set(gc._RULES)


def test_every_rule_is_an_op_of_the_pipeline():
    # an op rule that no stage graph nor the encoder emits has no caller;
    # the AST guard cannot see that, as ``np.exp`` reads like ``gc.exp``
    cfg = tiny_cfg()
    args = (cfg, en.MarginConfig(), en.LossWeights())
    graphs = [en.stage1_graph(*args), en.stage2_graph(*args), en._encoder_plan(cfg)]
    ops = {n.op for g in graphs for n in g.nodes} - {"leaf", "const"}
    assert ops == set(gc._RULES)


def test_rule_flags_name_exactly_the_kink_column_and_self_checked_ops():
    def having(flag):
        return {op for op, rule in gc._RULES.items() if getattr(rule, flag)}
    assert having("kink") == {"relu", "conv_bias_relu", "clip"}
    # im2col's one reader, the fused conv, checks its own pre-activation
    assert having("checks_finite") == {"conv_bias_relu", "im2col"}


def test_op_without_rule_names_it():
    loss = gc.Node("bogus", (gc.leaf("x"),)).sum()
    with pytest.raises(gc.GradcoreError, match="unknown primitive 'bogus'"):
        gc.evaluate_many(loss, {"x": np.ones(2)})
    with pytest.raises(gc.GradcoreError, match="unknown primitive 'bogus'"):
        gc.value_and_grad(loss, {"x": np.ones(2)}, ["x"])


# ---------------------------------------------------------------------------
# gradients


def test_square_gradient():
    x = gc.leaf("x")
    grads = gc.value_and_grad(x * x, {"x": 3.0}, ["x"])[1]
    np.testing.assert_allclose(grads["x"], 6.0)


def test_mean_gradient_is_one_over_n():
    v = gc.leaf("v")
    grads = gc.value_and_grad(v.mean(), {"v": np.arange(5.0)}, ["v"])[1]
    np.testing.assert_allclose(grads["v"], np.full(5, 0.2))


def test_nonscalar_gradient_errors():
    with pytest.raises(gc.GradcoreError, match="scalar"):
        gc.value_and_grad(gc.leaf("x") * 2.0, {"x": np.ones(3)}, ["x"])


def test_gradient_linearity():
    r = rng(3)
    x = gc.leaf("x")
    g1 = (x * x).sum()
    g2 = gc.cos(x * 0.3).sum()
    xv = r.normal(size=6)
    ga = gc.value_and_grad(g1, {"x": xv}, ["x"])[1]["x"]
    gb = gc.value_and_grad(g2, {"x": xv}, ["x"])[1]["x"]
    gs = gc.value_and_grad(g1 + g2, {"x": xv}, ["x"])[1]["x"]
    np.testing.assert_allclose(gs, ga + gb, rtol=1e-12)


def test_gradient_wrt_unused_bound_leaf_is_zero():
    x, y = gc.leaf("x"), gc.leaf("y")
    grads = gc.value_and_grad((x * x).sum(), {"x": np.ones(3), "y": np.ones(2)},
                              ["y"])[1]
    np.testing.assert_array_equal(grads["y"], np.zeros(2))


def test_conv_input_gradient_computed_when_requested(conv2d_rule):
    r = rng(13)
    x, w = gc.leaf("x"), gc.leaf("w")
    loss = gc.relu(conv2d(x, w, stride=2, pad=1)).sum()
    bindings = {"x": r.normal(size=(2, 2, 6, 5)), "w": r.normal(size=(3, 2, 3, 3))}
    assert finite_difference_check(loss, bindings, ["x"], max_coords=20) <= 1e-6
    both = gc.value_and_grad(loss, bindings, ["x", "w"])[1]
    for name in ("x", "w"):
        only = gc.value_and_grad(loss, bindings, [name])[1]
        assert only[name].tobytes() == both[name].tobytes()


def test_cosine_loss_gradient_matches_fd():
    # appearance-style loss on raw embeddings: -mean(cos(a, b))
    r = rng(4)
    a, b = gc.leaf("a"), gc.leaf("b")
    loss = -gc.cosine_similarity(a, b).mean()
    bindings = {"a": r.normal(size=(6, 16)), "b": r.normal(size=(6, 16))}
    err = finite_difference_check(loss, bindings, ["a", "b"],
                                     eps=1e-5, max_coords=24)
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# finite differences


def test_fd_quadratic_is_exact():
    x = gc.leaf("x")
    err = finite_difference_check(x * x, {"x": 3.0}, ["x"], eps=1e-5)
    assert err <= 1e-8


def test_fd_relu_kink_excluded():
    # coordinate sitting on the kink must be skipped, the rest must check out
    x = gc.leaf("x")
    loss = gc.relu(x).sum()
    v = np.array([0.0, -1.0, 2.0, 0.5e-5, -0.5e-5])
    err = finite_difference_check(loss, {"x": v}, ["x"], eps=1e-5)
    assert err <= 1e-4


# fixed ids, in pytest's generated form: a case keeps its name when
# another is added or removed
ELEMENTWISE = [
    pytest.param("relu", lambda x: gc.relu(x), (0.2, 3.0),
                 id="relu-<lambda>-rng_range0"),
    pytest.param("cos", lambda x: gc.cos(x), (-3.0, 3.0),
                 id="cos-<lambda>-rng_range4"),
    pytest.param("acos", lambda x: gc.acos(x), (-0.9, 0.9),
                 id="acos-<lambda>-rng_range5"),
    pytest.param("clip", lambda x: gc.clip(x, -0.5, 0.5), (-2.0, 2.0),
                 id="clip-<lambda>-rng_range6"),
]


@pytest.mark.parametrize("name,make,rng_range", ELEMENTWISE)
def test_fd_elementwise_primitives(name, make, rng_range):
    # a 100-element leaf doubles as 100 random evaluation points
    lo, hi = rng_range
    v = rng(hash(name) % 2**32).uniform(lo, hi, size=100)
    loss = make(gc.leaf("x")).sum()
    err = finite_difference_check(loss, {"x": v}, ["x"], max_coords=100)
    assert err <= 1e-4


def test_fd_binary_and_structural_primitives():
    r = rng(7)
    a, b = gc.leaf("a"), gc.leaf("b")
    av, bv = r.normal(size=(4, 5)) + 2.0, r.normal(size=(4, 5)) + 3.0
    cases = [
        (a + b, {"a": av, "b": bv}),
        (a - b, {"a": av, "b": bv}),
        (a * b, {"a": av, "b": bv}),
        (a / b, {"a": av, "b": bv}),
        (gc.matmul(a, gc.transpose2d(b)), {"a": av, "b": bv}),
        (gc.concat([a, b], axis=1), {"a": av, "b": bv}),
        (gc.slice_axis(a, 1, 1, 4), {"a": av}),
        (a.reshape((2, 10)), {"a": av}),
        (gc.l2norm(a), {"a": av}),
        (gc.cosine_similarity(a, b), {"a": av, "b": bv}),
        (gc.logmeanexp(a), {"a": av}),
        (gc.take_rows(a, gc.const([2, 0, 2])), {"a": av}),
    ]
    for node, bindings in cases:
        loss = node.sum() if gc.evaluate_many(node, bindings)[0].ndim else node
        err = finite_difference_check(loss, bindings,
                                         [k for k in bindings], max_coords=10)
        assert err <= 1e-4, node.op


def test_fd_broadcast_bias():
    r = rng(8)
    x, b = gc.leaf("x"), gc.leaf("b")
    loss = ((x + b) * (x + b)).mean()
    bindings = {"x": r.normal(size=(3, 4, 2, 2)), "b": r.normal(size=(4, 1, 1))}
    assert finite_difference_check(loss, bindings, ["x", "b"]) <= 1e-4


def test_fd_softmax_cross_entropy():
    r = rng(9)
    logits = gc.leaf("z")
    labels = np.array([0, 2, 1])
    loss = gc.softmax_cross_entropy(logits, gc.const(labels)).mean()
    err = finite_difference_check(loss, {"z": r.normal(size=(3, 4))}, ["z"],
                                     max_coords=12)
    assert err <= 1e-4


def test_softmax_cross_entropy_matches_manual():
    r = rng(10)
    z = r.normal(size=(5, 3))
    lab = np.array([2, 0, 1, 1, 0])
    out = gc.evaluate_many(gc.softmax_cross_entropy(gc.leaf("z"), gc.const(lab)),
                           {"z": z})[0]
    # independent log-softmax computation
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    expect = -np.log(p[np.arange(5), lab])
    np.testing.assert_allclose(out, expect, rtol=1e-10)


def test_logmeanexp_stable_at_large_scores():
    v = np.array([1000.0, 1000.0, 999.0])
    out = gc.evaluate_many(gc.logmeanexp(gc.leaf("x")), {"x": v})[0]
    expect = 1000.0 + np.log((1 + 1 + np.exp(-1.0)) / 3)
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_conv2d_matches_naive_loops(conv2d_rule):
    r = rng(11)
    x = r.normal(size=(2, 2, 6, 5))
    w = r.normal(size=(3, 2, 3, 3))
    for stride, pad in [(1, 0), (1, 1), (2, 1)]:
        out = gc.evaluate_many(conv2d(gc.leaf("x"), gc.leaf("w"), stride, pad),
                               {"x": x, "w": w})[0]
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (x.shape[2] + 2 * pad - 3) // stride + 1
        ow = (x.shape[3] + 2 * pad - 3) // stride + 1
        ref = np.zeros((2, 3, oh, ow))
        for n in range(2):
            for f in range(3):
                for i in range(oh):
                    for j in range(ow):
                        patch = xp[n, :, i * stride:i * stride + 3,
                                   j * stride:j * stride + 3]
                        ref[n, f, i, j] = (patch * w[f]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-12)


# ---------------------------------------------------------------------------
# conv2d against the row-major im2col it replaced


def _im2col_rowmajor(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


def _conv2d_forward_rowmajor(x, w, stride, pad):
    f, _, kh, kw = w.shape
    cols, oh, ow = _im2col_rowmajor(x, kh, kw, stride, pad)
    out = cols @ w.reshape(f, -1).T
    return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)


def _conv2d_backward_rowmajor(g, x, w, stride, pad, need_dx, cols=None):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    cols, oh, ow = _im2col_rowmajor(x, kh, kw, stride, pad)
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
    dw = (gm.T @ cols).reshape(w.shape)
    if not need_dx:
        return None, dw
    dcols = (gm @ w.reshape(f, -1)).reshape(n, oh, ow, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, :, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                dcols[:, :, :, :, ki, kj].transpose(0, 3, 1, 2)
    dx = dxp[:, :, pad:pad + h, pad:pad + wd] if pad else dxp
    return dx, dw


def _conv2d_backward_taps(g, x, w, stride, pad, need_dx, cols):
    """``gc._conv2d_backward`` as it was before it summed dx in stride-phase
    planes: each tap's product is added straight into a strided view of
    the padded NHWC buffer, in the same tap order."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    cols = cols.reshape(c * kh * kw, n * oh * ow)
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
    dw = (gm.T @ cols.T).reshape(w.shape)
    if not need_dx:
        return None, dw
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    dxp = np.zeros((n, h + 2 * pad, wd + 2 * pad, c), np.result_type(gm, wt))
    for ki in range(kh):
        for kj in range(kw):
            dxp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                (gm @ wt[ki, kj]).reshape(n, oh, ow, c)
    return dxp[:, pad:pad + h, pad:pad + wd].transpose(0, 3, 1, 2), dw


def _nhwc_view(x):
    """The same values as NCHW ``x``, laid out NHWC as conv outputs are."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _assert_within_reorder_bound(new, ref, terms_abs, k):
    # two summation orders of the same k products differ by at most
    # 2 * gamma_k * sum|products| (gamma_k = k u / (1 - k u), u = 2**-53)
    u = 2.0 ** -53
    bound = 2.0 * k * u / (1.0 - k * u) * terms_abs
    assert np.all(np.abs(new - ref) <= bound)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 5), f=st.integers(1, 6),
       h=st.integers(1, 13), w=st.integers(1, 13), k=st.sampled_from([1, 3, 5]),
       stride=st.integers(1, 3), pad=st.integers(0, 2), need_dx=st.booleans(),
       nhwc=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv2d_matches_rowmajor_oracle(n, c, f, h, w, k, stride, pad, need_dx,
                                        nhwc, seed):
    r = rng(seed)
    x = r.normal(size=(n, c, h, w))
    if nhwc:
        x = _nhwc_view(x)
    wt = r.normal(size=(f, c, k, k))
    if h + 2 * pad < k or w + 2 * pad < k:
        with pytest.raises(ValueError):
            _conv2d_forward_rowmajor(x, wt, stride, pad)
        with pytest.raises(gc.GradcoreError, match="larger than padded input"):
            gc._im2col(x, wt, stride, pad)
        return
    cols_rm = _im2col_rowmajor(x, k, k, stride, pad)[0]
    cols = gc._im2col(x, wt, stride, pad)
    assert cols.flags.c_contiguous
    assert cols.reshape(c * k * k, -1).T.tobytes() == cols_rm.tobytes()
    ref = _conv2d_forward_rowmajor(x, wt, stride, pad)
    out = gc._conv2d_forward(cols, wt)
    assert out.shape == ref.shape
    # the forward GEMM passes BLAS a transposed operand; OpenBLAS's
    # small-matrix kernels and numpy's matrix-vector path (f == 1) sum those
    # in another order, so small shapes may differ in the last bits
    w2 = np.abs(wt.reshape(f, -1))
    terms = (np.abs(cols_rm) @ w2.T).reshape(n, *ref.shape[2:], f)
    _assert_within_reorder_bound(out, ref, terms.transpose(0, 3, 1, 2), c * k * k)
    g = r.normal(size=ref.shape)
    dx_ref, dw_ref = _conv2d_backward_rowmajor(g, x, wt, stride, pad, need_dx)
    dx, dw = gc._conv2d_backward(g, x, wt, stride, pad, need_dx, cols)
    if f > 1:
        assert dw.tobytes() == dw_ref.tobytes()
    else:
        gm = np.abs(g.transpose(0, 2, 3, 1).reshape(-1, f))
        terms = (gm.T @ np.abs(cols_rm)).reshape(wt.shape)
        _assert_within_reorder_bound(dw, dw_ref, terms, gm.shape[0])
    if not need_dx:
        assert dx is None and dx_ref is None
        return
    # dx is channel-last in memory, the layout of the conv output above it
    assert dx.shape == dx_ref.shape and dx.strides[1] == dx.itemsize
    if c > 1 and g[:, 0].size > 1:
        assert dx.tobytes() == dx_ref.tobytes()
    else:
        # dx takes one (N*oh*ow, F) @ (F, C) product per tap; with C == 1 or
        # a single output position numpy computes it with its matrix-vector
        # kernel, which sums the f products of a tap in another order.  The
        # taps are then added in the same order, so an element sums at most
        # f + k*k rounded terms.
        terms = _conv2d_backward_rowmajor(np.abs(g), x, np.abs(wt), stride,
                                          pad, True)[0]
        _assert_within_reorder_bound(dx, dx_ref, terms, f + k * k)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), c=st.integers(1, 5), f=st.integers(1, 6),
       h=st.integers(1, 13), w=st.integers(1, 13), k=st.sampled_from([1, 3, 5]),
       stride=st.integers(1, 3), pad=st.integers(0, 2), need_dx=st.booleans(),
       nhwc=st.booleans(), dtype=st.sampled_from([np.float32, np.float64]),
       seed=st.integers(0, 2**32 - 1))
def test_conv2d_backward_byte_equal_to_tap_oracle(n, c, f, h, w, k, stride, pad,
                                                  need_dx, nhwc, dtype, seed):
    # the phase planes hold each padded pixel's taps in the same order as
    # the strided adds did, so every dtype and shape keeps its bytes; odd
    # and even H + 2p leave a short or a full last plane row
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    r = rng(seed)
    x = r.normal(size=(n, c, h, w)).astype(dtype)
    if nhwc:
        x = _nhwc_view(x)
    wt = r.normal(size=(f, c, k, k)).astype(dtype)
    cols = gc._im2col(x, wt, stride, pad)
    oh, ow = gc._conv_out_hw(x, wt, stride, pad)
    g = r.normal(size=(n, f, oh, ow)).astype(dtype)
    dx, dw = gc._conv2d_backward(g, x, wt, stride, pad, need_dx, cols)
    dx_ref, dw_ref = _conv2d_backward_taps(g, x, wt, stride, pad, need_dx, cols)
    assert dw.dtype == dtype and dw.tobytes() == dw_ref.tobytes()
    if not need_dx:
        assert dx is None
        return
    assert dx.dtype == dtype and dx.shape == x.shape
    assert dx.strides[1] == dx.itemsize
    assert dx.tobytes() == dx_ref.tobytes()


def _unbroadcast_parent(grad, shape):
    """``_unbroadcast`` as it was before it copied to C order: sums the kept
    size-1 axes in ``grad``'s own memory order."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), f=st.integers(1, 9), h=st.integers(1, 15),
       w=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
def test_unbroadcast_bias_sum_independent_of_layout(n, f, h, w, seed):
    g = rng(seed).normal(size=(n, f, h, w)) * 10.0 ** rng(seed + 1).integers(
        -3, 4, size=(n, f, h, w))
    ref = gc._unbroadcast(g, (f, 1, 1))
    assert ref.tobytes() == _unbroadcast_parent(g, (f, 1, 1)).tobytes()
    padded = np.zeros((n, h + 2, w + 2, f))
    padded[:, 1:-1, 1:-1] = g.transpose(0, 2, 3, 1)
    for view in (_nhwc_view(g), padded[:, 1:-1, 1:-1].transpose(0, 3, 1, 2)):
        assert np.array_equal(view, g)
        assert gc._unbroadcast(view, (f, 1, 1)).tobytes() == ref.tobytes()


def _desk_conv(layer):
    """(channels in, channels out, input size) of a desk encoder conv layer."""
    cfg = en.EncoderConfig.desk(10)
    return ((3,) + cfg.channels)[layer], cfg.channels[layer], cfg.spatial_sizes()[layer]


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 7, 8, 12, 15, 16])
@pytest.mark.parametrize("layer", range(4))
def test_conv2d_desk_layers_byte_equal_to_oracle(layer, batch, dtype):
    """A desk conv layer's forward, dw and dx against the row-major oracle,
    and its dx against the tap oracle, in float64 and in float32, the dtype
    training binds."""
    c, f, size = _desk_conv(layer)
    r = rng(100 + 10 * layer + batch)
    x = r.uniform(-1, 1, size=(batch, c, size, size)).astype(dtype)
    if layer:
        x = _nhwc_view(x)
    wt = r.uniform(-0.2, 0.2, size=(f, c, 3, 3)).astype(dtype)
    cols = gc._im2col(x, wt, 2, 1)
    out = gc._conv2d_forward(cols, wt)
    assert cols.dtype == out.dtype == dtype
    assert out.tobytes() == _conv2d_forward_rowmajor(x, wt, 2, 1).tobytes()
    g = r.normal(size=out.shape).astype(dtype)
    dx, dw = gc._conv2d_backward(g, x, wt, 2, 1, True, cols)
    dx_ref, dw_ref = _conv2d_backward_rowmajor(g, x, wt, 2, 1, True)
    assert dw.dtype == dtype and dw.tobytes() == dw_ref.tobytes()
    assert dx.dtype == dtype
    assert dx.tobytes() == _conv2d_backward_taps(g, x, wt, 2, 1, True, cols)[0].tobytes()
    # the row-major dx sums in a float64 buffer from one (N*oh*ow, F) @
    # (F, C*9) product, which in float32 differs from the per-tap products
    # in the last bits, so only the tap oracle holds a float32 dx to its bytes
    if dtype == np.float64:
        assert dx.tobytes() == dx_ref.tobytes()


def _stage_bindings(stage, cfg, params, batch, seed):
    r = rng(seed)
    bindings = dict(params.tensors)
    images = ("x", "x_prime", "x_hat") if stage == 1 else ("x",)
    for name in images:
        bindings[name] = r.uniform(-1, 1, size=(batch, 3, cfg.input_size,
                                                cfg.input_size))
    if stage == 1:
        for name in ("labels", "labels_prime"):
            bindings[name] = r.integers(0, cfg.n_classes, size=batch).astype(float)
        bindings["phi"] = r.uniform(0.05, 0.2, size=batch)
    else:
        for name in ("gen_i", "gen_j", "imp_i", "imp_j", "real_idx"):
            bindings[name] = r.integers(0, batch, size=batch).astype(float)
        bindings["real_labels"] = r.integers(0, cfg.n_classes, size=batch).astype(float)
    return bindings


def _float32(bindings):
    """The bindings as a training step binds them (``embednet._fit``)."""
    return {k: np.asarray(v, dtype=np.float32) for k, v in bindings.items()}


# float64 against the row-major backward; float32, as a training step binds,
# against the tap oracle, as above
@pytest.mark.parametrize("as_bound,backward", [
    (dict, _conv2d_backward_rowmajor), (_float32, _conv2d_backward_taps)],
    ids=["float64", "float32"])
@pytest.mark.parametrize("batch", [1, 7, 8, 12, 15, 16])
@pytest.mark.parametrize("stage", [1, 2])
def test_stage_value_and_grad_byte_equal_to_oracle(stage, batch, as_bound,
                                                   backward, monkeypatch):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=20 + batch)
    bindings = as_bound(_stage_bindings(stage, cfg, params, batch, seed=30 + batch))
    build = en.stage1_graph if stage == 1 else en.stage2_graph
    graph = build(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = gc.value_and_grad(graph, bindings, params.names())
    # the row-major product, then the bias and relu as separate steps; the
    # backward oracle reads the columns of the graph's im2col node
    rule = gc._RULES["conv_bias_relu"]
    monkeypatch.setitem(gc._RULES, "conv_bias_relu", replace(rule, fwd=lambda v, p: (
        np.maximum(_conv2d_forward_rowmajor(v[0], v[1], p["stride"], p["pad"])
                   + v[2], 0.0))))
    monkeypatch.setattr(gc, "_conv2d_backward", backward)
    loss_ref, grads_ref = gc.value_and_grad(graph, bindings, params.names())
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    for name in params.names():
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


# ---------------------------------------------------------------------------
# compute dtype: a pass computes in the float dtype of its bindings


def _backward_column_dtypes(monkeypatch):
    """A list that gets the dtype of the columns, the value of the im2col
    node, that each ``conv_bias_relu`` backward receives."""
    dtypes = []
    rule = gc._RULES["conv_bias_relu"]

    def bwd(g, v, out, p, need):
        dtypes.append(v[3].dtype)
        return rule.bwd(g, v, out, p, need)
    monkeypatch.setitem(gc._RULES, "conv_bias_relu", replace(rule, bwd=bwd))
    return dtypes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("stage", [1, 2])
def test_float32_step_within_stated_bound_of_float64(stage, seed, monkeypatch):
    """The per-step bound of float32 training: at the same inputs, the loss
    is within 1e-5 relative and each gradient within 1e-4 x its max |g| of
    the float64 step."""
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=60 + seed)
    bindings = _stage_bindings(stage, cfg, params, 6, seed=70 + seed)
    build = en.stage1_graph if stage == 1 else en.stage2_graph
    graph = build(cfg, en.MarginConfig(), en.LossWeights())
    names = params.names()
    convs = sum(n.op == "conv_bias_relu" for n in graph.nodes)
    loss64, grads64 = gc.value_and_grad(graph, bindings, names)
    columns = _backward_column_dtypes(monkeypatch)
    loss32, grads32 = gc.value_and_grad(graph, _float32(bindings), names)
    # each conv backward read columns of this step's dtype, not the last's
    assert columns == [np.dtype(np.float32)] * convs
    assert abs(loss32 - loss64) <= 1e-5 * abs(loss64)
    # d loss / d crit_*_out_b is -1 + 1: the genuine mean and the logmeanexp
    # weights, which sum to 1, cancel, so only roundoff is left to compare
    cancelling = {"crit_a_out_b", "crit_g_out_b"} if stage == 2 else set()
    for name in names:
        assert grads32[name].dtype == np.float64, name
        err = np.abs(grads32[name] - grads64[name]).max()
        if name in cancelling:
            assert np.abs(grads64[name]).max() <= 1e-12 and err <= 1e-6, name
        else:
            assert err <= 1e-4 * np.abs(grads64[name]).max(), name
    # the columns followed the dtype, and back again
    columns.clear()
    loss, grads = gc.value_and_grad(graph, bindings, names)
    assert columns == [np.dtype(np.float64)] * convs
    assert np.float64(loss).tobytes() == np.float64(loss64).tobytes()
    for name in names:
        assert grads[name].tobytes() == grads64[name].tobytes(), name


@pytest.mark.parametrize("stage", [1, 2])
def test_float32_bindings_compute_in_float32(stage, monkeypatch):
    """No silent upcast: every forward value, the scalar consts' and the
    onehot's products included, every gradient a backward rule returns and
    the columns every conv backward reads are float32."""
    backward = set()
    columns = _backward_column_dtypes(monkeypatch)
    for op, rule in list(gc._RULES.items()):
        def bwd(*args, _bwd=rule.bwd, _op=op):
            grads = _bwd(*args)
            backward.update((_op, g.dtype) for g in grads if g is not None)
            return grads
        monkeypatch.setitem(gc._RULES, op, replace(rule, bwd=bwd))
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=80)
    bindings = _float32(_stage_bindings(stage, cfg, params, 5, seed=81))
    build = en.stage1_graph if stage == 1 else en.stage2_graph
    graph = build(cfg, en.MarginConfig(), en.LossWeights())
    values = gc._forward(graph.nodes, bindings)
    consts = [n for n in graph.nodes if n.op == "const"]
    assert consts and "onehot" in {n.op for n in graph.nodes}
    # a scalar const is a Python float, weak in numpy's type promotion
    assert all(type(values[n.uid]) is float for n in consts)
    upcast = {n.op for n in graph.nodes
              if n.op != "const" and values[n.uid].dtype != np.float32}
    assert not upcast
    gc.value_and_grad(graph, bindings, params.names())
    assert backward and {dtype for _, dtype in backward} == {np.dtype(np.float32)}
    assert columns and set(columns) == {np.dtype(np.float32)}


@pytest.mark.parametrize("stage", [1, 2])
def test_value_and_grad_frees_columns_and_values_at_last_use(stage, monkeypatch):
    """A conv's columns, the value of its im2col node, and its output are
    freed before the next conv backward runs, and the Graph holds no array
    once ``value_and_grad`` returns."""
    rule = gc._RULES["conv_bias_relu"]
    earlier = []  # weak references to the columns and out of earlier calls

    def bwd(g, v, out, p, need):
        assert all(ref() is None for ref in earlier)
        earlier.extend((weakref.ref(v[3]), weakref.ref(out)))
        return rule.bwd(g, v, out, p, need)
    monkeypatch.setitem(gc._RULES, "conv_bias_relu", replace(rule, bwd=bwd))
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=86)
    bindings = _float32(_stage_bindings(stage, cfg, params, 4, seed=87))
    build = en.stage1_graph if stage == 1 else en.stage2_graph
    graph = build(cfg, en.MarginConfig(), en.LossWeights())
    gc.value_and_grad(graph, bindings, params.names())
    assert len(earlier) == 2 * sum(n.op == "conv_bias_relu" for n in graph.nodes)
    held = [v for attr in vars(graph).values()
            for v in (attr.values() if isinstance(attr, dict) else [attr])]
    assert not any(isinstance(v, np.ndarray) for v in held)


def test_evaluate_many_frees_each_value_after_its_last_read(monkeypatch):
    """A forward-only pass holds one layer's columns at a time: an earlier
    layer's im2col value is freed before the next conv's forward runs, and
    the three outputs are kept, equal to a pass that keeps every value."""
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=88)
    bindings = dict(params.tensors, x=rng(89).uniform(-1, 1, size=(8, 3, 112, 112)))
    plan = en._encoder_plan(cfg)
    values = gc._forward(plan.nodes, bindings)
    want = [values[o.uid].tobytes() for o in plan.outputs]
    del values
    rule = gc._RULES["conv_bias_relu"]
    earlier = []  # weak references to the columns of earlier layers

    def fwd(v, p):
        assert all(ref() is None for ref in earlier)
        earlier.append(weakref.ref(v[3]))
        return rule.fwd(v, p)
    monkeypatch.setitem(gc._RULES, "conv_bias_relu", replace(rule, fwd=fwd))
    got = gc.evaluate_many(plan, bindings)
    assert len(earlier) == len(cfg.channels)
    assert [z.tobytes() for z in got] == want


def test_finite_difference_check_probes_in_float64():
    x, w = gc.leaf("x"), gc.leaf("w")
    loss = gc.cos(gc.matmul(x, w) * 0.3).sum()
    r = rng(84)
    b32 = {"x": r.normal(size=(2, 3)).astype(np.float32),
           "w": r.normal(size=(3, 2)).astype(np.float32)}
    b64 = {k: v.astype(np.float64) for k, v in b32.items()}
    assert (finite_difference_check(loss, b32, ["x", "w"])
            == finite_difference_check(loss, b64, ["x", "w"]))


@pytest.mark.parametrize("value", [np.array(1.5, dtype=np.float32),
                                   np.float32(1.5)])
def test_python_float_is_weak_in_numpy_promotion(value):
    # NEP 50, numpy's rule since 2.0 and the reason for its floor in
    # pyproject.toml: a 0-d float32 loss times a Python-float weight stays
    # float32 (numpy 1.x promotes it to float64)
    assert (value * 0.75).dtype == np.float32
    assert (0.75 * value + 1.0).dtype == np.float32


def test_value_and_grad_returns_float64_gradients_of_float32_bindings():
    x, w = gc.leaf("x"), gc.leaf("w")
    loss = (gc.matmul(x, w) * 0.5).sum()
    r = rng(82)
    bindings = {"x": r.normal(size=(3, 4)).astype(np.float32),
                "w": r.normal(size=(4, 2)).astype(np.float32),
                "unused": np.ones(5, dtype=np.float32)}
    value, grads = gc.value_and_grad(loss, bindings, ["x", "w", "unused"])
    assert type(value) is float
    assert all(g.dtype == np.float64 for g in grads.values())
    # the upcast is exact: the float32 gradient, widened
    want = 0.5 * bindings["x"].T @ np.ones((3, 2), dtype=np.float32)
    assert grads["w"].tobytes() == want.astype(np.float64).tobytes()
    assert np.array_equal(grads["unused"], np.zeros(5))


def test_value_and_grad_of_a_constant():
    # a scalar const is a Python float, and so is a product of them
    value, grads = gc.value_and_grad(gc.const(2.0) * 3.0, {"x": 1.0}, ["x"])
    assert value == 6.0 and np.array_equal(grads["x"], np.zeros(()))


@pytest.mark.parametrize("dtype", [np.int64, np.float16, ">f8"])
def test_leaf_of_another_dtype_binds_as_float64(dtype):
    v = np.arange(6.0).reshape(2, 3)
    out = gc.evaluate_many(gc.leaf("v") * 2.0, {"v": v.astype(dtype)})[0]
    assert out.dtype == np.float64 and np.array_equal(out, 2.0 * v)


# ---------------------------------------------------------------------------
# the fused conv + bias + relu node against relu(conv2d + b)


def _unfused(x, w, b, stride=1, pad=0):
    return gc.relu(conv2d(x, w, stride, pad) + b)


def _assert_same_value_and_grad(fused, unfused, bindings, wrt):
    loss, grads = gc.value_and_grad(fused, bindings, wrt)
    loss_ref, grads_ref = gc.value_and_grad(unfused, bindings, wrt)
    assert np.float64(loss).tobytes() == np.float64(loss_ref).tobytes()
    for name in wrt:
        assert grads[name].tobytes() == grads_ref[name].tobytes(), name


def _two_layer_graph(layer, stride, pad):
    """Two conv layers; the second sees the first's NHWC-in-memory output."""
    h = layer(gc.leaf("x"), gc.leaf("w0"), gc.leaf("b0"), stride, pad)
    h = layer(h, gc.leaf("w1"), gc.leaf("b1"), 1, 1)
    return gc.Graph((h * gc.leaf("r")).sum())


# the rule registration is the same for every example
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(c=st.integers(1, 4), f=st.integers(1, 5), f1=st.integers(1, 4),
       h=st.integers(1, 10), w=st.integers(1, 10), k=st.sampled_from([1, 3, 5]),
       stride=st.integers(1, 3), pad=st.integers(0, 2),
       batches=st.permutations(range(1, 17)), need_dx=st.booleans(),
       nhwc=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_conv_bias_relu_byte_equal_to_unfused(conv2d_rule, c, f, f1, h, w, k, stride,
                                             pad, batches, need_dx, nhwc, seed):
    assume(h + 2 * pad >= k and w + 2 * pad >= k)
    r = rng(seed)
    params = {"w0": r.normal(size=(f, c, k, k)), "b0": r.normal(size=(f, 1, 1)),
              "w1": r.normal(size=(f1, f, 3, 3)), "b1": r.normal(size=(f1, 1, 1))}
    wrt = list(params) + (["x"] if need_dx else [])
    # one graph each for every batch size, in random order: columns left
    # from another call or sized for another batch show as a byte difference
    fused = _two_layer_graph(gc.conv_bias_relu, stride, pad)
    unfused = _two_layer_graph(_unfused, stride, pad)
    oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    for n in batches:
        x = r.normal(size=(n, c, h, w))
        bindings = dict(params, x=_nhwc_view(x) if nhwc else x,
                        r=r.normal(size=(n, f1, oh, ow)))
        _assert_same_value_and_grad(fused, unfused, bindings, wrt)


@pytest.mark.parametrize("stage", [1, 2])
def test_stage_graphs_byte_equal_to_unfused_trunk(stage, monkeypatch, conv2d_rule):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=40 + stage)
    build = en.stage1_graph if stage == 1 else en.stage2_graph
    fused = build(cfg, en.MarginConfig(), en.LossWeights())
    monkeypatch.setattr(gc, "conv_bias_relu", _unfused)
    unfused = build(cfg, en.MarginConfig(), en.LossWeights())
    assert "conv_bias_relu" in {n.op for n in fused.nodes}
    assert "conv_bias_relu" not in {n.op for n in unfused.nodes}
    # shrink, then grow past the first batch
    for batch in (8, 3, 12):
        bindings = _stage_bindings(stage, cfg, params, batch, seed=50 + batch)
        _assert_same_value_and_grad(fused, unfused, bindings, params.names())


def test_fd_skips_probe_straddling_fused_relu_kink(monkeypatch):
    # pre-activations 0.5e-5 and 2 + 0.5e-5: a probe of x[0], w or b moves
    # the first by 1e-5 either way and so across the kink; one of x[1] not
    x, w, b = gc.leaf("x"), gc.leaf("w"), gc.leaf("b")
    loss = gc.conv_bias_relu(x, w, b).sum()
    bindings = {"x": np.array([[[[1.0, 3.0]]]]), "w": np.ones((1, 1, 1, 1)),
                "b": np.full((1, 1, 1), -1.0 + 0.5e-5)}
    assert finite_difference_check(loss, bindings, ["x", "w", "b"]) <= 1e-8
    rule = gc._RULES["conv_bias_relu"]
    monkeypatch.setitem(gc._RULES, "conv_bias_relu", replace(rule, kink=None))
    assert finite_difference_check(loss, bindings, ["x", "w", "b"]) > 0.1


@pytest.mark.parametrize("wval,bval", [(1e308, 0.0), (-1e308, 0.0),
                                       (1.0, -np.inf), (1.0, np.nan)])
def test_conv_bias_relu_nonfinite_preactivation_raises(wval, bval, conv2d_rule):
    # 18 products of 1e308 overflow the GEMM; relu would clamp -inf to 0
    bindings = {"x": np.ones((2, 2, 3, 3)), "w": np.full((1, 2, 3, 3), wval),
                "b": np.full((1, 1, 1), bval)}
    x, w, b = gc.leaf("x"), gc.leaf("w"), gc.leaf("b")
    for layer, ops in ((gc.conv_bias_relu, "conv_bias_relu"),
                       (_unfused, "conv2d|add")):
        loss = layer(x, w, b).sum()
        for run in (lambda: gc.evaluate_many(loss, bindings)[0],
                    lambda: gc.value_and_grad(gc.Graph(loss), bindings, ["w", "b"])):
            with pytest.raises(gc.NonFiniteError, match=f"produced by '({ops})'"):
                run()


def test_conv_bias_relu_rejects_other_bias_shapes():
    loss = gc.conv_bias_relu(gc.leaf("x"), gc.leaf("w"), gc.leaf("b")).sum()
    with pytest.raises(gc.GradcoreError, match=r"bias \(2,\) is not \(2, 1, 1\)"):
        gc.evaluate_many(loss, {"x": np.ones((1, 1, 3, 3)),
                                "w": np.ones((2, 1, 3, 3)), "b": np.zeros(2)})


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_fd_random_smooth_chains(seed):
    r = rng(seed)
    x = gc.leaf("x")
    loss = gc.logmeanexp(gc.cos(x * 0.5) + gc.acos(x * 0.4))
    err = finite_difference_check(loss, {"x": r.uniform(-2, 2, size=8)}, ["x"])
    assert err <= 1e-4


# ---------------------------------------------------------------------------
# profiler


def test_profile_one_row_per_layer_and_values_unchanged():
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=60)
    bindings = _stage_bindings(1, cfg, params, 2, seed=61)
    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = gc.value_and_grad(graph, bindings, params.names())
    with gc.profile() as prof:
        loss_p, grads_p = gc.value_and_grad(graph, bindings, params.names())
    assert np.float64(loss).tobytes() == np.float64(loss_p).tobytes()
    for name in params.names():
        assert grads[name].tobytes() == grads_p[name].tobytes(), name
    # three encoder passes share each layer's weights, so they share a row;
    # conv0 is labelled by its weights, not by the image leaf before them
    for i in range(len(cfg.channels)):
        fs, fc, bs, bc = prof.stats[("conv_bias_relu", f"conv{i}_w")]
        assert (fc, bc) == (3, 3) and fs > 0 and bs > 0
        # no gradient flows to the columns, so their backward never runs
        assert prof.stats[("im2col", f"conv{i}_w")][1::2] == [3, 0]
    assert prof.stats[("matmul", "fc_a_w")][1::2] == [3, 3]
    assert prof.stats[("add", "fc_a_b")][1::2] == [3, 3]
    assert not any(label in ("x", "x_prime", "x_hat") for _, label in prof.stats)
    assert sum(fc for _, fc, _, _ in prof.stats.values()) == sum(
        n.op not in ("leaf", "const") for n in graph.nodes)
    table = str(prof).splitlines()
    assert table[0].split() == ["op", "label", "fwd", "ms", "calls", "bwd", "ms", "calls"]
    assert len(table) == len(prof.stats) + 1


def test_profile_records_only_inside_innermost_block():
    x = gc.leaf("x")
    loss = gc.cos(x * gc.leaf("k")).sum()
    bindings = {"x": np.arange(3.0), "k": 0.5}
    with gc.profile() as outer:
        gc.evaluate_many(loss, bindings)
        with gc.profile() as inner:
            gc.value_and_grad(loss, bindings, ["x"])
        gc.evaluate_many(loss, bindings)
    gc.value_and_grad(loss, bindings, ["x"])
    assert {key: row[1::2] for key, row in outer.stats.items()} == {
        ("mul", "k"): [2, 0], ("cos", None): [2, 0], ("sum", None): [2, 0]}
    assert {key: row[1::2] for key, row in inner.stats.items()} == {
        ("mul", "k"): [1, 1], ("cos", None): [1, 1], ("sum", None): [1, 1]}


def test_profile_records_only_the_calling_threads_graphs():
    # A opens, B opens, A closes, B closes: each profile holds its own
    # thread's rows, and once both are closed nothing records
    x = gc.leaf("x")
    graphs = {"a": gc.cos(x).sum(), "b": (x * gc.leaf("k")).sum()}
    bindings = {"x": np.arange(3.0), "k": 0.5}
    a_open, b_open, a_closed = (threading.Event() for _ in range(3))
    profs, errors = {}, []

    def run(name, wait_before, opened, wait_inside):
        try:
            assert wait_before is None or wait_before.wait(60)
            with gc.profile() as profs[name]:
                gc.evaluate_many(graphs[name], bindings)
                opened.set()
                assert wait_inside.wait(60)
                gc.evaluate_many(graphs[name], bindings)
        except BaseException as err:  # reported on the main thread
            errors.append(err)
            opened.set()
        finally:
            if name == "a":
                a_closed.set()

    threads = [threading.Thread(target=run, args=("a", None, a_open, b_open)),
               threading.Thread(target=run, args=("b", a_open, b_open, a_closed))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors and not any(t.is_alive() for t in threads)
    gc.evaluate_many(gc.relu(x).sum(), bindings)
    assert {key: row[1::2] for key, row in profs["a"].stats.items()} == {
        ("cos", "x"): [2, 0], ("sum", None): [2, 0]}
    assert {key: row[1::2] for key, row in profs["b"].stats.items()} == {
        ("mul", "k"): [2, 0], ("sum", None): [2, 0]}


# ---------------------------------------------------------------------------
# parameters, SGD, serialization


def test_sgd_basic_step():
    p = gc.ParamStore(tensors={"p": np.array([1.0])})
    gc.sgd_update(p, {"p": np.array([2.0])}, 0.1)
    np.testing.assert_allclose(p["p"], [0.8])


def test_sgd_zero_lr_keeps_params():
    p = gc.ParamStore(tensors={"p": np.array([1.0, -2.0])})
    gc.sgd_update(p, {"p": np.array([5.0, 5.0])}, 0.0)
    np.testing.assert_array_equal(p["p"], [1.0, -2.0])


def test_sgd_missing_grad_errors():
    p = gc.ParamStore(tensors={"p": np.array([1.0]), "q": np.array([1.0])})
    with pytest.raises(gc.GradcoreError, match="missing gradient"):
        gc.sgd_update(p, {"p": np.array([1.0])}, 0.1)


@pytest.mark.parametrize("initial", [0.0, 1, np.float32(0.5), np.float64(1e-3)],
                         ids=["zero", "int", "float32", "float64"])
def test_lr_schedule_accepts_edge_values(initial):
    assert gc.LrSchedule(initial=initial).initial == initial


@pytest.mark.parametrize("field,value", [("decay", 0.9), ("every", 5),
                                         ("floor", 1e-6)])
def test_lr_schedule_has_no_decay_fields(field, value):
    # a run trains at one rate
    with pytest.raises(TypeError, match=field):
        gc.LrSchedule(**{field: value})
    assert not hasattr(gc.LrSchedule, "at")


def test_paramstore_seeded_init_bit_identical():
    specs = [gc.ParamSpec("w", (4, 3), fan_in=3), gc.ParamSpec("b", (4,))]
    a = gc.ParamStore.initialize(specs, seed=42)
    b = gc.ParamStore.initialize(specs, seed=42)
    for k in a.names():
        assert np.array_equal(a[k], b[k])
    c = gc.ParamStore.initialize(specs, seed=43)
    assert not np.array_equal(a["w"], c["w"])
    np.testing.assert_array_equal(a["b"], np.zeros(4))


def test_paramstore_roundtrip_bit_exact(tmp_path):
    r = rng(12)
    store = gc.ParamStore(tensors={
        "conv_w": r.normal(size=(3, 2, 3, 3)),
        "scalarish": np.asarray(np.pi).reshape(()),
        "bias": r.normal(size=(7,)),
    }, meta={"stage": 2, "note": "a=b\nc", "": "é"})
    path = tmp_path / "p.mkpt"
    store.save(path)
    with open(path, "rb") as f:
        assert f.read(5) == b"MKPT3"
    loaded = gc.ParamStore.load(path)
    assert loaded.names() == store.names()
    for k in store.names():
        assert np.array_equal(loaded[k], store[k])
        assert loaded[k].tobytes() == store[k].tobytes()
    assert loaded.meta == {"stage": "2", "note": "a=b\nc", "": "é"}


def test_paramstore_bad_magic(tmp_path):
    path = tmp_path / "junk.mkpt"
    path.write_bytes(b"NOPEx")
    with pytest.raises(gc.GradcoreError, match="magic"):
        gc.ParamStore.load(path)


def test_paramstore_truncated_at_every_byte(tmp_path):
    r = rng(14)
    store = gc.ParamStore(tensors={"w": r.normal(size=(2, 3)),
                                   "s": np.asarray(1.5).reshape(()),
                                   "b": r.normal(size=(2,))},
                          meta={"k": "v", "margin.s": 64.0})
    full = tmp_path / "full.mkpt"
    store.save(full)
    data = full.read_bytes()
    path = tmp_path / "cut.mkpt"
    # the counts in the header make a cut between two records an error too
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(gc.GradcoreError,
                           match="magic" if cut < 5 else "truncated") as err:
            gc.ParamStore.load(path)
        assert str(path) in str(err.value)
    path.write_bytes(data + b"\0")
    with pytest.raises(gc.GradcoreError, match="1 bytes after the last record"):
        gc.ParamStore.load(path)


def _two_tensor_checkpoint(tmp_path):
    r = rng(15)
    store = gc.ParamStore(tensors={"w": r.normal(size=(2, 3)),
                                   "b": r.normal(size=(3,))})
    path = tmp_path / "two.mkpt"
    store.save(path)
    return path, path.read_bytes()


def test_paramstore_corrupt_name_bytes(tmp_path):
    path, data = _two_tensor_checkpoint(tmp_path)
    bad = bytearray(data)
    bad[17] = 0xFF  # first byte of the first tensor's name
    path.write_bytes(bytes(bad))
    with pytest.raises(gc.GradcoreError, match="not UTF-8") as err:
        gc.ParamStore.load(path)
    assert str(path) in str(err.value)


def test_paramstore_corrupt_dimension_names_record(tmp_path):
    path, data = _two_tensor_checkpoint(tmp_path)
    bad = bytearray(data)
    bad[22:26] = (0xFFFF).to_bytes(4, "little")  # first dim of 'w'
    path.write_bytes(bytes(bad))
    with pytest.raises(gc.GradcoreError,
                       match=r"corrupt or truncated record #0 'w'") as err:
        gc.ParamStore.load(path)
    assert str(path) in str(err.value)


def test_paramstore_duplicate_name_rejected(tmp_path):
    path, data = _two_tensor_checkpoint(tmp_path)
    second = 13 + 4 + 1 + 4 + 8 + 8 * 6  # offset of the record of 'b'
    assert data[second + 4:second + 5] == b"b"
    bad = bytearray(data)
    bad[second + 4] = ord("w")
    path.write_bytes(bytes(bad))
    with pytest.raises(gc.GradcoreError, match="duplicate tensor 'w'"):
        gc.ParamStore.load(path)


@settings(max_examples=200, deadline=None)
@given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_paramstore_flipped_bytes_load_or_raise(tmp_path_factory, flips):
    path, data = _two_tensor_checkpoint(tmp_path_factory.mktemp("flip"))
    bad = bytearray(data)
    for pos, mask in flips:
        bad[pos % len(bad)] ^= mask
    assume(bad != data)  # flips of one byte may cancel out
    path.write_bytes(bytes(bad))
    with pytest.raises(gc.GradcoreError) as err:
        gc.ParamStore.load(path)
    assert str(path) in str(err.value)


def test_paramstore_single_bit_flip_anywhere_raises(tmp_path):
    # a flipped bit in tensor data or a meta value leaves every record well
    # formed (1.0 reads as 1.5e-05, "64.0" as "64/0"); only the CRC sees it
    store = gc.ParamStore(tensors={"w": np.array([1.0, -2.0])},
                          meta={"margin.s": 64.0})
    path = tmp_path / "p.mkpt"
    store.save(path)
    data = path.read_bytes()
    for bit in range(8 * len(data)):
        bad = bytearray(data)
        bad[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(bad))
        with pytest.raises(gc.GradcoreError) as err:
            gc.ParamStore.load(path)
        assert str(path) in str(err.value)
    path.write_bytes(data)
    assert gc.ParamStore.load(path).meta == {"margin.s": "64.0"}


# ---------------------------------------------------------------------------
# index leaves


@pytest.mark.parametrize("idx", [[0.0, 1.7], [-1.0], [3.0], [np.nan]])
def test_take_rows_rejects_bad_indices(idx):
    rows = gc.take_rows(gc.leaf("x"), gc.leaf("i"))
    with pytest.raises(gc.GradcoreError, match="integer indices in \\[0, 3\\)"):
        gc.evaluate_many(rows, {"x": np.arange(6.0).reshape(3, 2), "i": idx})


def test_take_rows_integral_floats_select_rows():
    x = np.arange(6.0).reshape(3, 2)
    out = gc.evaluate_many(gc.take_rows(gc.leaf("x"), gc.leaf("i")),
                           {"x": x, "i": [2.0, 0.0, 2.0]})[0]
    np.testing.assert_array_equal(out, x[[2, 0, 2]])
    loss = gc.take_rows(gc.leaf("x"), gc.leaf("i")).sum()
    grads = gc.value_and_grad(loss, {"x": x, "i": np.array([2.0, 0.0, 2.0])},
                              ["x"])[1]
    np.testing.assert_array_equal(grads["x"], [[1, 1], [0, 0], [2, 2]])


@pytest.mark.parametrize("labels", [[0.5], [4.0], [-1.0]])
def test_onehot_rejects_bad_labels(labels):
    with pytest.raises(gc.GradcoreError, match="integer indices in \\[0, 4\\)"):
        gc.evaluate_many(gc.onehot(gc.leaf("y"), 4), {"y": labels})


@pytest.mark.parametrize("labels", [[0.0, 2.5], [0.0, 3.0], [-1.0, 0.0]])
def test_softmax_cross_entropy_rejects_bad_labels(labels):
    loss = gc.softmax_cross_entropy(gc.leaf("z"), gc.leaf("y"))
    with pytest.raises(gc.GradcoreError, match="integer indices in \\[0, 3\\)"):
        gc.evaluate_many(loss, {"z": np.zeros((2, 3)), "y": labels})


# ---------------------------------------------------------------------------
# the worker thread of ``_in_parallel``


def test_in_parallel_runs_there_on_the_worker_in_the_callers_error_state():
    def state():
        return (threading.get_ident(), np.geterr(),
                signal.pthread_sigmask(signal.SIG_BLOCK, []))

    with np.errstate(all="raise"):
        there, here = gc._in_parallel(state, state)
    assert here[0] == threading.get_ident() != there[0]
    assert there[1] == here[1] == {k: "raise" for k in here[1]}
    # the bench's timer and Ctrl-C are left to the caller's thread
    assert {signal.SIGALRM, signal.SIGINT} <= there[2]
    assert signal.SIGALRM not in here[2]


def test_in_parallel_reraises_the_worker_error_after_here_and_recovers():
    done = []

    def there():
        raise ValueError("raised by there")

    def here():
        time.sleep(0.05)
        done.append("here")

    with pytest.raises(ValueError, match="raised by there"):
        gc._in_parallel(there, here)
    assert done == ["here"]
    assert gc._in_parallel(lambda: 1, lambda: 2) == (1, 2)


def test_in_parallel_waits_for_there_when_here_raises():
    done = []

    def there():
        time.sleep(0.05)
        done.append("there")

    def here():
        raise KeyError("raised by here")

    with pytest.raises(KeyError, match="raised by here"):
        gc._in_parallel(there, here)
    assert done == ["there"]
    assert gc._in_parallel(lambda: 1, lambda: 2) == (1, 2)


@pytest.mark.parametrize("shared", [
    lambda n: iter(range(n)),
    lambda n: iter(list(range(n))),
    lambda n: itertools.islice(itertools.count(), n),
], ids=["range", "list", "itertools"])
def test_in_parallel_halves_take_each_shared_item_once(shared):
    # both halves share one iterator whose next() is atomic; a Python loop,
    # not list(), so the threads switch between items
    items = shared(200_000)

    def drain():
        return [item for item in items]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        there, here = gc._in_parallel(drain, drain)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(there + here) == list(range(200_000))


def _warp_case():
    r = rng(41)
    src = r.uniform(2, 30, size=(12, 2))
    return r.uniform(0, 1, size=(36, 32, 3)), src, src + r.normal(0, 1.5, src.shape)


def _stage1_case():
    cfg = tiny_cfg()
    params = en.init_params(cfg, seed=42)
    r = rng(43)
    bindings = dict(params.tensors)
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(4, 3, 16, 16))
    for name in ("labels", "labels_prime"):
        bindings[name] = r.integers(0, 3, size=4).astype(float)
    bindings["phi"] = r.uniform(0.05, 0.2, size=4)
    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    return graph, bindings, params.names()


def _grad_bytes(graph, bindings, names):
    loss, grads = gc.value_and_grad(graph, bindings, names)
    return loss, {k: v.tobytes() for k, v in grads.items()}


def test_concurrent_callers_get_the_serial_bytes():
    # two callers contend for the one worker: the one that finds it busy
    # does all the work itself, and neither blocks the other
    img, src, tgt = _warp_case()
    case = _stage1_case()
    want = {"warp": geo.warp_image(img, src, tgt).tobytes(),
            "grad": _grad_bytes(*case)}
    got = {"warp": [], "grad": []}
    calls = {"warp": lambda: geo.warp_image(img, src, tgt).tobytes(),
             "grad": lambda: _grad_bytes(*case)}

    def repeat(name):
        for _ in range(20):
            got[name].append(calls[name]())

    threads = [threading.Thread(target=repeat, args=(name,)) for name in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name in calls:
        assert got[name] == [want[name]] * 20, name


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
def test_forked_child_starts_its_own_worker():
    img, src, tgt = _warp_case()
    want = geo.warp_image(img, src, tgt).tobytes()  # the parent's worker runs
    pid = os.fork()
    if pid == 0:
        # the child exits 0 only if it warps the same bytes on a worker of
        # its own; a hang ends at the alarm, any error exits 1
        code = 1
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(60)
            same = geo.warp_image(img, src, tgt).tobytes() == want
            code = 0 if same and gc._worker.pid == os.getpid() else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_import_starts_no_thread_and_no_logging():
    code = ("import sys, threading\n"
            "import morphkit, morphkit.embednet, morphkit.evalkit\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules,"
            " 'logging' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(gc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["1", "False", "False"]
