"""Micro-benchmarks of the hot spots: TPS warp and its grid kernel matrix,
one morph, the benchmark's synthetic set, bilinear sampling, triplet build,
one stage-1 batch of leaves, neighbour search, DET curve, each desk conv
layer at batch 8 and 15, a stage-2 image leaf, one batch-1 encode, one
scored verify pair and one step of each training stage.

Each runs a few rounds through pytest-benchmark's ``pedantic`` mode, so the
suite stays fast; ``pytest tests/test_microbench.py --benchmark-only`` prints
the timing table alone.  Each benchmark also checks its result, so a run
with ``--benchmark-disable`` still exercises the code once.  The two
training steps also run once under ``tracemalloc`` and record that step's
peak in ``extra_info["traced_peak_mb"]``, which ``--benchmark-json FILE``
writes beside the step's timings.
"""

import tracemalloc

import numpy as np
import pytest

import morphkit.gradcore as gc
from test_embednet import _float64_leaf
from test_gradcore import _desk_conv, _float32, _stage_bindings
from test_imaging import generate_morph_two_warps
from morphkit import embednet as en
from morphkit import evalkit as ev
from morphkit import geometry as geo
from morphkit import imaging as im


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_bench_warp_image_112(benchmark):
    r = rng(1)
    lms = im.canonical_landmarks(112)
    img = r.uniform(-1, 1, size=(112, 112, 3))
    tgt = lms + r.normal(0, 2.0, size=lms.shape)
    out = benchmark.pedantic(geo.warp_image, args=(img, lms, tgt),
                             rounds=5, iterations=1, warmup_rounds=1)
    assert out.shape == img.shape and np.isfinite(out).all()


def test_bench_generate_morph_112(benchmark):
    r = rng(15)
    lms = im.canonical_landmarks(112)
    lms_a = lms + r.normal(0, 2.0, size=lms.shape)
    lms_b = lms + r.normal(0, 2.0, size=lms.shape)
    img_a = r.uniform(-1, 1, size=(112, 112, 3))
    img_b = r.uniform(-1, 1, size=(112, 112, 3))
    rec = benchmark.pedantic(im.generate_morph, args=(img_a, lms_a, img_b, lms_b),
                             rounds=5, iterations=1, warmup_rounds=1)
    # the blend of the two contributors, each warped on its own
    want = generate_morph_two_warps(img_a, lms_a, img_b, lms_b)
    assert rec.image.tobytes() == want.image.tobytes()
    assert rec.landmarks.tobytes() == want.landmarks.tobytes()


def test_bench_synth_dataset_desk(benchmark, tmp_path):
    """The set-up of the ``train`` and ``verify`` benchmark workloads."""
    cfg = im.SynthConfig(subjects=10, captures=3, morphs_per_subject=2,
                         seed=16, size=112)
    rows = benchmark.pedantic(im.synth_dataset, args=(cfg, tmp_path),
                              rounds=3, iterations=1, warmup_rounds=0)
    assert [r.kind for r in rows].count("real") == 30
    morphs = [r for r in rows if r.kind == "morph"]
    assert len(morphs) == 20
    # the last morph (m = 1) is made from capture 1 of each contributor
    m = morphs[-1]
    sources = [(im.load_face(tmp_path / f"images/{sid}_c1.ppm"),
                geo.load_landmarks(tmp_path / f"landmarks/{sid}_c1.txt"))
               for sid in (m.source_a, m.source_b)]
    rec = im.generate_morph(*sources[0], *sources[1])
    assert np.array_equal(im.to_uint8(rec.image), im.read_ppm(tmp_path / m.path))


def test_bench_bilinear_sample_112(benchmark):
    r = rng(8)
    img = r.uniform(-1, 1, size=(112, 112, 3))
    xs, ys = np.meshgrid(np.arange(112.0), np.arange(112.0))
    coords = np.column_stack([xs.ravel(), ys.ravel()])
    coords += r.normal(0, 2.0, size=coords.shape)
    out = benchmark.pedantic(geo._bilinear_sample, args=(img, coords),
                             rounds=5, iterations=1, warmup_rounds=1)
    assert out.shape == (112 * 112, 3)
    # every sample lies within the range of its four taps, so of the image
    assert img.min() <= out.min() and out.max() <= img.max()


def test_bench_build_triplet_pool_30(benchmark):
    """One stage-1 triplet: the draw (neighbour mining and delta), then the warp."""
    r = rng(9)
    lms = im.canonical_landmarks(112)
    image = r.uniform(-1, 1, size=(112, 112, 3))
    pool = [(lms + r.normal(0, 2.0, size=lms.shape), i // 3) for i in range(30)]

    def draw_and_warp():
        t = im.draw_triplet(pool, 0, rng(10))
        return t, im.build_triplet(image, t)

    trip, intermediate = benchmark.pedantic(draw_and_warp, rounds=3,
                                            iterations=1, warmup_rounds=1)
    assert trip.label_g != pool[0][1]
    assert intermediate.shape == image.shape
    assert np.isfinite(intermediate).all()


def test_bench_bind_stage1_batch(benchmark):
    """One stage-1 batch of leaves at 112 px: 8 drawn triplets, so 8 x_hat
    warps, and the x and x' leaves."""
    r = rng(17)
    lms = im.canonical_landmarks(112)
    pool = [(lms + r.normal(0, 2.0, size=lms.shape), i // 3) for i in range(12)]
    faces = [r.integers(0, 256, size=(3, 112, 112), dtype=np.uint8)
             for _ in pool]
    batch = [im.draw_triplet(pool, i, r) for i in range(8)]
    leaves = benchmark.pedantic(en._bind_stage1_batch, args=(batch, faces),
                                rounds=5, iterations=1, warmup_rounds=1)
    x_hat = leaves["x_hat"]
    assert x_hat.shape == (8, 3, 112, 112) and x_hat.dtype == np.float32
    assert np.isfinite(x_hat).all()


def test_bench_nearest_neighbor_pool_2000(benchmark):
    r = rng(5)
    lms = im.canonical_landmarks(112)
    pool = [(lms + r.normal(0, 3.0, size=lms.shape), int(c))
            for c in r.integers(0, 200, size=2000)]
    query = lms + r.normal(0, 3.0, size=lms.shape)
    idx = benchmark.pedantic(geo.nearest_neighbor, args=(query, pool, 7),
                             rounds=5, iterations=1, warmup_rounds=1)
    dist = np.array([np.inf if c == 7 else np.linalg.norm(l - query)
                     for l, c in pool])
    assert idx == int(np.argmin(dist))


def test_bench_det_curve_40k(benchmark):
    r = rng(2)
    scores = ev.ScoreSet(genuine=r.normal(0.0, 1.0, size=20000),
                         attack=r.normal(1.5, 1.0, size=20000),
                         low_is_attack=False)
    curve = benchmark.pedantic(ev.det_curve, args=(scores,),
                               rounds=5, iterations=1, warmup_rounds=1)
    assert curve.thresholds.size == 40002
    assert curve.apcer[-1] == 1.0 and curve.bpcer[-1] == 0.0


def test_bench_det_curve_40k_tied(benchmark):
    r = rng(3)
    g = np.round(r.normal(0.62, 0.12, size=20000), 3)
    a = np.round(r.normal(0.38, 0.15, size=20000), 3)
    scores = ev.ScoreSet(genuine=g, attack=a)
    curve = benchmark.pedantic(ev.det_curve, args=(scores,),
                               rounds=5, iterations=1, warmup_rounds=1)
    distinct = np.unique(np.concatenate([g, a]))
    assert curve.thresholds.size == distinct.size + 2 < 2000
    assert np.array_equal(curve.thresholds[1:-1], -distinct[::-1])
    assert curve.apcer[-1] == 1.0 and curve.bpcer[-1] == 0.0


def _bench_step(benchmark, graph, bindings, names):
    """Times ``value_and_grad`` on one step, then records the ``tracemalloc``
    peak of one more step, in MB above its start; returns the timed result."""
    args = (graph, _float32(bindings), names)
    result = benchmark.pedantic(gc.value_and_grad, args=args,
                                rounds=3, iterations=1, warmup_rounds=1)
    tracemalloc.start()
    try:
        gc.value_and_grad(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark.extra_info["traced_peak_mb"] = peak / 2 ** 20
    return result


def test_bench_stage1_value_and_grad_batch8(benchmark):
    """One stage-1 step, in float32 as training runs it."""
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=3)
    bindings = _stage_bindings(1, cfg, params, 8, seed=4)
    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = _bench_step(benchmark, graph, bindings, params.names())
    assert np.isfinite(loss)
    assert sorted(grads) == sorted(params.names())


def test_bench_stage2_value_and_grad_batch14(benchmark):
    """One stage-2 step, in float32 as training runs it; a stage-2 round
    binds batches of 12-16 images."""
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=11)
    bindings = _stage_bindings(2, cfg, params, 14, seed=12)
    graph = en.stage2_graph(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = _bench_step(benchmark, graph, bindings, params.names())
    assert np.isfinite(loss)
    assert sorted(grads) == sorted(params.names())


def _conv_fwd_bwd(x, w, b, g, need_dx):
    cols = gc._im2col(x, w, 2, 1)
    out = gc._conv_bias_relu_forward(w, b, cols)
    return (out,) + gc._conv_bias_relu_backward(g, x, w, b, cols, out, 2, 1,
                                                need_dx)[:3]


def _bench_conv_layer(benchmark, layer, n):
    """One fused conv + bias + relu layer on the training path, in float32
    as a training step binds it: the im2col columns, the forward that reads
    them and the backward that reads them again."""
    c, f, size = _desk_conv(layer)
    r = rng(10 + layer)
    x = r.uniform(-1, 1, size=(n, c, size, size)).astype(np.float32)
    if layer:
        # conv outputs, and so the inputs of conv1-conv3, are NHWC in memory
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    w = r.uniform(-0.2, 0.2, size=(f, c, 3, 3)).astype(np.float32)
    b = r.uniform(-0.1, 0.1, size=(f, 1, 1)).astype(np.float32)
    g = r.normal(size=(n, f, size // 2, size // 2)).astype(np.float32)
    # training never asks for the image gradient, so conv0 skips dX
    out, dx, dw, db = benchmark.pedantic(
        _conv_fwd_bwd, args=(x, w, b, g, layer > 0),
        rounds=5, iterations=1, warmup_rounds=1)
    assert out.shape == g.shape and (out >= 0).all() and (out > 0).any()
    assert {out.dtype, dw.dtype, db.dtype} == {np.dtype(np.float32)}
    assert dw.shape == w.shape and np.isfinite(dw).all()
    assert db.shape == b.shape and np.isfinite(db).all()
    assert dx is None if layer == 0 else dx.shape == x.shape


@pytest.mark.parametrize("layer", range(4))
def test_bench_conv_layer_fwd_bwd_batch8(benchmark, layer):
    """A stage-1 encoder pass: batch 8."""
    _bench_conv_layer(benchmark, layer, 8)


@pytest.mark.parametrize("layer", range(4))
def test_bench_conv_layer_fwd_bwd_batch15(benchmark, layer):
    """A stage-2 step, which binds 12-16 unique images."""
    _bench_conv_layer(benchmark, layer, 15)


def test_bench_float_leaf_batch15(benchmark):
    """A stage-2 step's image leaf from 15 uint8 faces."""
    r = rng(16)
    faces = [r.integers(0, 256, size=(3, 112, 112), dtype=np.uint8)
             for _ in range(15)]
    leaf = benchmark.pedantic(en._float_leaf, args=(faces,),
                              rounds=10, iterations=1, warmup_rounds=1)
    assert leaf.tobytes() == _float64_leaf(faces).astype(np.float32).tobytes()


def test_bench_grid_kernel_matrix_112(benchmark):
    """The TPS kernel matrix of a 112 px pixel grid and 68 control points,
    the largest array of every warp."""
    ctrl = im.canonical_landmarks(112) + rng(17).normal(0, 2.0, size=(68, 2))
    # one control point on a pixel, so an r^2 = 0 entry is zeroed
    ctrl[0] = (40.0, 50.0)
    u = benchmark.pedantic(geo._grid_kernel_matrix, args=(112, 112, ctrl),
                           rounds=5, iterations=1, warmup_rounds=1)
    want = geo._kernel_matrix(geo._pixel_grid(112, 112), ctrl)
    assert u.tobytes() == want.tobytes()
    assert u[50 * 112 + 40, 0] == 0.0


def test_bench_encode_batch1(benchmark):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=6)
    img = rng(7).uniform(-1, 1, size=(3, 112, 112))
    emb = benchmark.pedantic(en.encode, args=(cfg, params, img),
                             rounds=10, iterations=1, warmup_rounds=1)
    assert emb.z_a.shape == (cfg.d_a,) and emb.z_f.shape == (cfg.d_f,)
    assert np.isfinite(emb.z_f).all()


def _verify_pair(cfg, params, trusted, questioned):
    """One differential pair as the ``verify`` workload scores it: two PPM
    reads, two batch-1 encodes and the cosine of the ID embeddings."""
    za = en.encode(cfg, params, en.to_chw(im.load_face(trusted))).z_f
    zb = en.encode(cfg, params, en.to_chw(im.load_face(questioned))).z_f
    return float(za @ zb / (np.linalg.norm(za) * np.linalg.norm(zb)))


def test_bench_verify_pair(benchmark, tmp_path):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=13)
    r = rng(14)
    paths = [tmp_path / "trusted.ppm", tmp_path / "questioned.ppm"]
    for path in paths:
        im.save_face(path, r.uniform(-1, 1, size=(112, 112, 3)))
    score = benchmark.pedantic(_verify_pair, args=(cfg, params, *paths),
                               rounds=10, iterations=1, warmup_rounds=1)
    # the pair scored from one batch-2 encode of the same images
    z = en.encode(cfg, params, np.stack(
        [en.to_chw(im.load_face(p)) for p in paths])).z_f
    ref = z[0] @ z[1] / (np.linalg.norm(z[0]) * np.linalg.norm(z[1]))
    assert -1.0 <= score <= 1.0 and abs(score - ref) <= 1e-12
