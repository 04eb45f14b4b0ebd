"""Tests for the benchmark's own code: tracing, statistics, pairs, smoke runs."""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import measure  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wk  # noqa: E402
from morphkit import embednet, imaging  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# span self time


def S(name, start, end, parent=None):
    return tr.Span(name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [S("root", 0.0, 10.0), S("a", 1.0, 3.0, 0), S("b", 4.0, 8.0, 0),
             S("a.x", 1.5, 2.0, 1)]
    assert tr.self_times(spans) == pytest.approx([4.0, 1.5, 4.0, 0.5])


def test_self_time_merges_overlap_and_clips_children():
    # overlapping children count once; a child leaking past its parent is
    # clipped to the parent's interval
    spans = [S("root", 0.0, 10.0), S("a", 2.0, 6.0, 0), S("b", 5.0, 7.0, 0),
             S("c", 9.0, 12.0, 0)]
    assert tr.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert tr.nesting_violations(spans) == 1


def test_summarize_totals_per_name():
    spans = [S("op", 0.0, 4.0), S("f", 1.0, 2.0, 0), S("op", 5.0, 6.0),
             S("f", 5.0, 5.5, 2)]
    out = tr.summarize(spans)
    assert out["op"] == pytest.approx({"s": 5.0, "self_s": 3.5, "calls": 2})
    assert out["f"] == pytest.approx({"s": 1.5, "self_s": 1.5, "calls": 2})


def test_wrap_traces_calls_inside_a_module_and_restores():
    mod = types.ModuleType("fake")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x, scale=2):\n    return inner(x) * scale\n", mod.__dict__)
    originals = (mod.inner, mod.outer)
    ticks = iter(range(100))
    seen = []
    with tr.Tracer(clock=lambda: float(next(ticks))) as t:
        t.wrap(mod, "inner")
        t.wrap(mod, "outer",
               on_call=lambda tt, args, res: seen.append((args["scale"], res)))
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == originals
    assert [(s.name, s.parent) for s in t.spans] == [("fake.outer", None),
                                                     ("fake.inner", 0)]
    assert tr.nesting_violations(t.spans) == 0
    assert seen == [(2, 4)]


# ---------------------------------------------------------------------------
# percentile rule and computed work


@pytest.mark.parametrize("n,expected", [
    (0, None), (19, None), (20, "50"), (99, "75"), (100, "90"), (199, "90"),
    (200, "95"), (400, "95"), (999, "95"), (1000, "99"), (2000, "99.5"),
    (10000, "99.9")])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    assert measure.tail_percentile(n) == expected
    if expected is not None:
        assert measure.samples_beyond(n, expected) >= 10


def test_quartile_spread():
    assert measure.quartile_spread([10.0] * 5) == 0.0
    assert measure.quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(4 / 4)


def test_conv_flops_from_config():
    cfg = embednet.EncoderConfig(input_size=8, channels=(2, 4), strides=(2, 2),
                                 d_a=2, d_g=2, d_f=4, n_classes=2)
    # 8 -> 4 -> 2 output pixels; MACs = out^2 * c_out * c_in * 3 * 3
    macs = 4 * 4 * 2 * 3 * 9 + 2 * 2 * 4 * 2 * 9
    assert measure.conv_macs_per_image(cfg) == macs
    bindings = {"x": np.zeros((5, 3, 8, 8)), "x_hat": np.zeros((5, 3, 8, 8)),
                "conv0_w": np.zeros((2, 3, 3, 3)), "labels": np.zeros(5)}
    assert measure.encoder_images(cfg, bindings) == 10
    assert measure.conv_flops(cfg, 10, backward=True) == 3 * 2 * macs * 10


# ---------------------------------------------------------------------------
# differential pair protocol


def row(path, sid, kind="real", a="", b=""):
    return imaging.DatasetRow(path, sid, kind, a, b, path + ".txt")


def test_differential_pairs():
    rows = [row("s0c0", "s0"), row("s0c1", "s0"), row("s1c0", "s1"),
            row("s1c1", "s1"), row("s2c0", "s2"),
            row("m0", "s0", "morph", "s0", "s1"),
            row("m1", "s2", "morph", "s2", "s0")]
    pairs = wk.differential_pairs(rows)
    bona = [(p.trusted.path, p.questioned.path) for p in pairs if not p.attack]
    attack = [(p.trusted.path, p.questioned.path) for p in pairs if p.attack]
    assert bona == [("s0c0", "s0c1"), ("s1c0", "s1c1")]
    assert sorted(attack) == sorted([
        ("s0c0", "m0"), ("s0c1", "m0"), ("s1c0", "m0"), ("s1c1", "m0"),
        ("s2c0", "m1"), ("s0c0", "m1"), ("s0c1", "m1")])
    assert all(wk.is_differential_attack(p) for p in pairs if p.attack)
    outsider = wk.Pair(rows[4], rows[5], True)  # s2 did not contribute to m0
    assert not wk.is_differential_attack(outsider)


def test_score_file_round_trip(tmp_path):
    state = wk.EvalWorkload({"genuine": 7, "attack": 5}).setup(3, tmp_path)
    again = wk.read_score_file(state.path)
    assert np.array_equal(again.genuine, state.scores.genuine)
    assert np.array_equal(again.attack, state.scores.attack)
    assert again.genuine.size == 7 and again.attack.size == 5


# ---------------------------------------------------------------------------
# toy-size smoke runs


TOY = {
    "train": {"subjects": 3, "captures": 2, "morphs_per_subject": 1,
              "size": 16, "s1_epochs": 1, "s2_epochs": 1, "batch": 4},
    "verify": {"subjects": 3, "captures": 2, "morphs_per_subject": 1,
               "size": 16, "min_pairs": 12},
    "eval": {"genuine": 300, "attack": 200},
}


@pytest.mark.parametrize("workload", ["train", "verify", "eval"])
def test_smoke_untraced(workload, tmp_path):
    result, doc = harness.run(workload, 1, 0.0, 0, tmp_path, TOY[workload])
    assert doc["errors"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert doc["meta"]["seed"] == 1
    assert doc["meta"]["sizes"] == {**wk.WORKLOADS[workload].defaults,
                                    **TOY[workload]}
    # a second run of the same code and seed repeats the digest exactly
    again, doc2 = harness.run(workload, 1, 0.0, 0, tmp_path, TOY[workload])
    assert again["correct"] and doc2["digest"] == doc["digest"]


@pytest.mark.parametrize("workload", ["train", "verify", "eval"])
def test_smoke_traced(workload, tmp_path):
    result, doc = harness.run(workload, 2, 0.0, 1, tmp_path, TOY[workload])
    assert result["correct"], doc["errors"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "train":
        assert m["geometry.warp_image.calls"] > 0
        assert m["gradcore.value_and_grad.gflop_per_s"] > 0
        assert m["imaging.build_triplet.self_s"] <= m["imaging.build_triplet.s"]
    if workload == "verify":
        # two images per pair (set-up reads faces too); the end-of-run
        # checks are not traced
        pairs = doc["samples"]["traced_ops"]
        assert pairs >= TOY["verify"]["min_pairs"]
        assert m["imaging.load_face.calls"] >= 2 * pairs
        assert m["embednet.encode.calls"] == 2 * pairs
        assert m["gradcore.value_and_grad.calls"] == 0
    if workload == "eval":
        assert m["evalkit.det_curve.calls"] == wk.EvalWorkload.traced_ops
        assert m["geometry.warp_image.calls"] == 0


def test_digest_mismatch_with_earlier_run_fails(tmp_path):
    harness.run("eval", 4, 0.0, 0, tmp_path, TOY["eval"])
    path = tmp_path / "bench" / "results" / "digests.json"
    known = json.loads(path.read_text())
    path.write_text(json.dumps({k: "0" * 16 for k in known}))
    result, doc = harness.run("eval", 4, 0.0, 0, tmp_path, TOY["eval"])
    assert not result["correct"] and result["failed"] == 1
    assert "earlier run" in doc["errors"][0]


def test_digest_of_another_numpy_is_not_compared(tmp_path):
    harness.run("eval", 5, 0.0, 0, tmp_path, TOY["eval"])
    path = tmp_path / "bench" / "results" / "digests.json"
    known = json.loads(path.read_text())
    path.write_text(json.dumps(
        {k.replace(f"numpy={np.__version__}", "numpy=0.0"): "0" * 16
         for k in known}))
    result, doc = harness.run("eval", 5, 0.0, 0, tmp_path, TOY["eval"])
    assert result["correct"], doc["errors"]

