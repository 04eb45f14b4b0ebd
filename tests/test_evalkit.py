"""DET curve construction against brute-force recounts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkit import evalkit as ev


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def brute_force_curve(genuine, attack, low_is_attack):
    """Independent O(n^2) recount at every distinct score plus sentinels."""
    g = -np.asarray(genuine, float) if low_is_attack else np.asarray(genuine, float)
    a = -np.asarray(attack, float) if low_is_attack else np.asarray(attack, float)
    thresholds = [-np.inf] + sorted(set(g) | set(a)) + [np.inf]
    pts = []
    for t in thresholds:
        apcer = sum(1 for s in a if s <= t) / len(a)
        bpcer = sum(1 for s in g if s > t) / len(g)
        pts.append((t, apcer, bpcer))
    return pts


def brute_force_eer(pts):
    for k in range(1, len(pts)):
        d0 = pts[k - 1][1] - pts[k - 1][2]
        d1 = pts[k][1] - pts[k][2]
        if d0 == 0:
            return pts[k - 1][1]
        if d0 < 0 <= d1 or d0 <= 0 < d1:
            if d1 == 0:
                return pts[k][1]
            lam = d0 / (d0 - d1)
            return pts[k - 1][1] + lam * (pts[k][1] - pts[k - 1][1])
    raise AssertionError("no crossing found")


def test_perfect_separation_has_zero_zero_point():
    s = ev.ScoreSet(genuine=np.array([0.9, 0.8]), attack=np.array([0.1, 0.2]),
                    low_is_attack=True)
    curve = ev.det_curve(s)
    assert any(a == 0 and b == 0 for a, b in zip(curve.apcer, curve.bpcer))
    assert ev.d_eer(curve) == 0.0
    assert ev.bpcer_at_apcer(curve, 0.05) == 0.0
    assert ev.bpcer_at_apcer(curve, 0.5) == 0.0


def test_identical_scores_sum_to_one_and_eer_half():
    s = ev.ScoreSet(genuine=np.full(4, 0.3), attack=np.full(5, 0.3))
    curve = ev.det_curve(s)
    np.testing.assert_allclose(curve.apcer + curve.bpcer, 1.0)
    assert ev.d_eer(curve) == 0.5


def test_hand_case_eer_one_third():
    # attack {0.2, 0.6, 0.7} vs bona fide {0.3, 0.4, 0.8}, high score => attack
    s = ev.ScoreSet(genuine=np.array([0.3, 0.4, 0.8]),
                    attack=np.array([0.2, 0.6, 0.7]), low_is_attack=False)
    curve = ev.det_curve(s)
    assert ev.d_eer(curve) == pytest.approx(1 / 3, abs=1e-12)
    # brute force: no point has apcer <= 0.05 except the all-attack sentinel
    assert ev.bpcer_at_apcer(curve, 0.05) == 1.0


def test_empty_class_errors():
    with pytest.raises(ValueError, match="required"):
        ev.det_curve(ev.ScoreSet(genuine=np.array([]), attack=np.array([1.0])))


def test_bpcer_at_target_one_is_zero():
    r = rng(1)
    s = ev.ScoreSet(genuine=r.normal(size=20), attack=r.normal(size=20))
    assert ev.bpcer_at_apcer(ev.det_curve(s), 1.0) == 0.0


def test_matches_brute_force_on_random_sets():
    r = rng(2)
    for trial in range(200):
        low = bool(r.integers(0, 2))
        n_g = int(r.integers(1, 12))
        n_a = int(r.integers(1, 12))
        # duplicate-heavy integer scores exercise tie handling
        g = r.integers(-3, 4, size=n_g).astype(float)
        a = r.integers(-3, 4, size=n_a).astype(float)
        curve = ev.det_curve(ev.ScoreSet(genuine=g, attack=a, low_is_attack=low))
        pts = brute_force_curve(g, a, low)
        assert len(pts) == len(curve.thresholds)
        for (t, ap, bp), ti, ai, bi in zip(pts, curve.thresholds, curve.apcer,
                                           curve.bpcer):
            assert t == ti and ap == ai and bp == bi
        assert ev.d_eer(curve) == pytest.approx(brute_force_eer(pts), abs=1e-12)
        for target in (0.05, 0.1, 0.37, 1.0):
            expect = min(bp for _, ap, bp in pts if ap <= target)
            assert ev.bpcer_at_apcer(curve, target) == expect


TIED = st.sampled_from([-2.5, -1.0, 0.0, 0.125, 3.0])
SPREAD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.lists(TIED, min_size=1, max_size=30),
                           st.lists(TIED, min_size=1, max_size=30)),
                 st.tuples(st.lists(SPREAD, min_size=1, max_size=30),
                           st.lists(SPREAD, min_size=1, max_size=30))),
       st.booleans())
def test_det_curve_equals_loop_oracle(scores, low):
    g, a = scores
    curve = ev.det_curve(ev.ScoreSet(genuine=np.array(g), attack=np.array(a),
                                     low_is_attack=low))
    pts = brute_force_curve(g, a, low)
    assert len(pts) == len(curve.thresholds)
    for (t, ap, bp), ti, ai, bi in zip(pts, curve.thresholds, curve.apcer,
                                       curve.bpcer):
        assert t == ti and ap == ai and bp == bi


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_polarity_flip_invariance(seed):
    r = rng(seed)
    g = r.normal(size=8)
    a = r.normal(size=6)
    c1 = ev.det_curve(ev.ScoreSet(genuine=g, attack=a, low_is_attack=True))
    c2 = ev.det_curve(ev.ScoreSet(genuine=-g, attack=-a, low_is_attack=False))
    assert np.array_equal(c1.thresholds, c2.thresholds)
    assert np.array_equal(c1.apcer, c2.apcer)
    assert np.array_equal(c1.bpcer, c2.bpcer)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_bpcer_at_apcer_non_increasing_in_target(seed):
    r = rng(seed)
    curve = ev.det_curve(ev.ScoreSet(genuine=r.normal(size=10),
                                     attack=r.normal(size=10)))
    values = [ev.bpcer_at_apcer(curve, t) for t in (0.05, 0.1, 0.3, 0.7, 1.0)]
    assert all(x >= y for x, y in zip(values, values[1:]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_eer_within_unit_interval(seed):
    r = rng(seed)
    curve = ev.det_curve(ev.ScoreSet(genuine=r.normal(size=7),
                                     attack=r.normal(size=9)))
    assert 0.0 <= ev.d_eer(curve) <= 1.0


def test_curve_csv_roundtrip(tmp_path):
    r = rng(3)
    curve = ev.det_curve(ev.ScoreSet(genuine=r.normal(size=5),
                                     attack=r.normal(size=5)))
    path = tmp_path / "det.csv"
    ev.write_curve_csv(path, curve)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "threshold,apcer,bpcer"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.array_equal(parsed[:, 1], curve.apcer)
    assert np.array_equal(parsed[:, 2], curve.bpcer)


def test_summary_block_format():
    s = ev.ScoreSet(genuine=np.array([0.9, 0.8]), attack=np.array([0.1]))
    text = ev.summary_block(ev.det_curve(s))
    assert text.startswith("D-EER: 0.000000\n")
    assert "BPCER@APCER=5%: 0.000000" in text
    assert "BPCER@APCER=10%: 0.000000" in text
