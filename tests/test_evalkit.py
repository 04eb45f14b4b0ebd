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


def searchsorted_curve(scores):
    """The det_curve body before the merge: np.unique of both classes as the
    thresholds, then one binary search per threshold in each sorted class."""
    g, a = scores.canonical()
    thresholds = np.concatenate([[-np.inf],
                                 np.unique(np.concatenate([g, a])),
                                 [np.inf]])
    apcer = np.searchsorted(np.sort(a), thresholds, side="right") / a.size
    bpcer = (g.size - np.searchsorted(np.sort(g), thresholds, side="right")) / g.size
    return thresholds, apcer, bpcer


def assert_equals_searchsorted(scores):
    """Byte-equal to the oracle; a zero threshold whose run holds both 0.0
    and -0.0 is compared with ==, since either sort may put either first."""
    curve = ev.det_curve(scores)
    t, ap, bp = searchsorted_curve(scores)
    assert curve.apcer.tobytes() == ap.tobytes()
    assert curve.bpcer.tobytes() == bp.tobytes()
    assert np.array_equal(curve.thresholds, t)
    z = np.concatenate(scores.canonical())
    signs = np.signbit(z[z == 0])
    mixed_zero = signs.any() and not signs.all()
    keep = t != 0 if mixed_zero else slice(None)
    assert curve.thresholds[keep].tobytes() == t[keep].tobytes()
    return curve


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


@pytest.mark.parametrize("shape", [(), (4, 1), (2, 3)])
@pytest.mark.parametrize("bad", ["genuine", "attack"])
def test_scoreset_rejects_non_1d_scores(shape, bad):
    scores = {"genuine": np.linspace(0.0, 1.0, 4),
              "attack": np.linspace(0.5, 1.5, 5)}
    scores[bad] = np.full(shape, 0.5)
    g_shape = np.shape(scores["genuine"])
    a_shape = np.shape(scores["attack"])
    with pytest.raises(ValueError, match="1-D") as err:
        ev.det_curve(ev.ScoreSet(**scores))
    assert f"{g_shape} and {a_shape}" in str(err.value)


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


def draw_scores(r, kind, n):
    if kind == "tied":
        return r.choice([-2.5, -1.0, 0.0, 0.125, 3.0], size=n)
    if kind == "quantised":  # holds 0.0 and -0.0 once rounded
        return np.round(r.normal(0.0, 0.05, size=n), 3)
    return r.normal(size=n) * 10.0 ** r.integers(-6, 7, size=n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 3000),
       st.sampled_from(["tied", "quantised", "spread"]), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_det_curve_byte_equal_to_searchsorted(n_g, n_a, kind, low, seed):
    r = rng(seed)
    assert_equals_searchsorted(ev.ScoreSet(genuine=draw_scores(r, kind, n_g),
                                           attack=draw_scores(r, kind, n_a),
                                           low_is_attack=low))


@pytest.mark.parametrize("seed", [9105, 9201])
def test_det_curve_byte_equal_on_bench_eval_draw(seed):
    r = np.random.Generator(np.random.PCG64([seed, 3]))
    g = r.normal(0.62, 0.12, 20000)
    a = r.normal(0.38, 0.15, 20000)
    curve = assert_equals_searchsorted(ev.ScoreSet(genuine=g, attack=a))
    assert curve.thresholds.size == 40002


@pytest.mark.parametrize("g_zero, a_zero", [(-0.0, 0.0), (0.0, -0.0)])
def test_mixed_zero_threshold_keeps_the_genuine_zero(g_zero, a_zero):
    scores = ev.ScoreSet(genuine=np.array([g_zero, 1.0]),
                         attack=np.array([a_zero, -1.0]), low_is_attack=False)
    t = ev.det_curve(scores).thresholds
    assert t.tolist() == [-np.inf, -1.0, 0.0, 1.0, np.inf]
    assert np.signbit(t[2]) == np.signbit(g_zero)


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
