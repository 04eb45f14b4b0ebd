"""Micro-benchmarks of the hot spots: TPS warp, DET curve, one stage-1 step.

Each runs a few rounds through pytest-benchmark's ``pedantic`` mode, so the
suite stays fast; ``pytest tests/test_microbench.py --benchmark-only`` prints
the timing table alone.  Each benchmark also checks its result, so a run
with ``--benchmark-disable`` still exercises the code once.
"""

import numpy as np

import morphkit.gradcore as gc
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


def test_bench_det_curve_40k(benchmark):
    r = rng(2)
    scores = ev.ScoreSet(genuine=r.normal(0.0, 1.0, size=20000),
                         attack=r.normal(1.5, 1.0, size=20000),
                         low_is_attack=False)
    curve = benchmark.pedantic(ev.det_curve, args=(scores,),
                               rounds=5, iterations=1, warmup_rounds=1)
    assert curve.thresholds.size == 40002
    assert curve.apcer[-1] == 1.0 and curve.bpcer[-1] == 0.0


def test_bench_stage1_value_and_grad_batch8(benchmark):
    cfg = en.EncoderConfig.desk(10)
    params = en.init_params(cfg, seed=3)
    r = rng(4)
    n = 8
    bindings = dict(params.tensors)
    for name in ("x", "x_prime", "x_hat"):
        bindings[name] = r.uniform(-1, 1, size=(n, 3, 112, 112))
    bindings["labels"] = r.integers(0, 10, size=n).astype(float)
    bindings["labels_prime"] = r.integers(0, 10, size=n).astype(float)
    bindings["phi"] = r.uniform(0.05, 0.2, size=n)
    graph = en.stage1_graph(cfg, en.MarginConfig(), en.LossWeights())
    loss, grads = benchmark.pedantic(
        gc.value_and_grad, args=(graph, bindings, params.names()),
        rounds=3, iterations=1, warmup_rounds=1)
    assert np.isfinite(loss)
    assert sorted(grads) == sorted(params.names())
