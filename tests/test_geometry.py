"""TPS fitting/warping, mining, phi_g, and alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkit import geometry as geo


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_landmarks(r, k=10, lo=0.0, hi=100.0):
    return r.uniform(lo, hi, size=(k, 2))


# ---------------------------------------------------------------------------
# TPS fitting


def test_tps_identity_fit():
    src = random_landmarks(rng(1))
    fit = geo.tps_fit(src, src, lam=0.0)
    np.testing.assert_allclose(fit.affine, [[0, 1, 0], [0, 0, 1]], atol=1e-9)
    np.testing.assert_allclose(fit.kernel_weights, 0.0, atol=1e-9)


def test_tps_pure_translation():
    src = random_landmarks(rng(2))
    fit = geo.tps_fit(src, src + np.array([5.0, 0.0]), lam=0.0)
    np.testing.assert_allclose(fit.affine, [[5, 1, 0], [0, 0, 1]], atol=1e-8)
    np.testing.assert_allclose(fit.kernel_weights, 0.0, atol=1e-8)


def test_tps_interpolates_random_targets():
    r = rng(3)
    src = random_landmarks(r)
    tgt = random_landmarks(r)
    fit = geo.tps_fit(src, tgt, lam=0.0)
    np.testing.assert_allclose(geo.tps_apply(fit, src), tgt, atol=1e-6)


def test_tps_affine_reproduction():
    # affine targets: kernel weights vanish and the affine part matches
    r = rng(4)
    src = random_landmarks(r, k=15)
    a = np.array([[1.2, -0.3], [0.4, 0.9]])
    b = np.array([3.0, -7.0])
    fit = geo.tps_fit(src, src @ a.T + b, lam=0.0)
    assert np.abs(fit.kernel_weights).max() <= 1e-8
    np.testing.assert_allclose(fit.affine[:, 0], b, atol=1e-7)
    np.testing.assert_allclose(fit.affine[:, 1:], a, atol=1e-8)


def test_tps_side_conditions():
    r = rng(5)
    fit = geo.tps_fit(random_landmarks(r), random_landmarks(r), lam=0.0)
    w = fit.kernel_weights
    assert np.abs(w.sum(axis=0)).max() <= 1e-8
    moments = fit.control_points.T @ w
    assert np.abs(moments).max() <= 1e-6


def test_tps_exactness_sweep():
    # 100 random fits at K=68, max control-point residual <= 1e-6 px
    r = rng(6)
    worst = 0.0
    for _ in range(100):
        src = random_landmarks(r, k=68, lo=0.0, hi=112.0)
        tgt = src + r.normal(0, 4.0, size=src.shape)
        fit = geo.tps_fit(src, tgt, lam=0.0)
        worst = max(worst, np.abs(geo.tps_apply(fit, src) - tgt).max())
    assert worst <= 1e-6


def test_tps_duplicate_points_error():
    src = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="singular"):
        geo.tps_fit(src, src + 1.0, lam=0.0)


def test_tps_collinear_points_error():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="singular"):
        geo.tps_fit(src, src[::-1], lam=0.0)


def test_tps_apply_cases():
    r = rng(7)
    src = random_landmarks(r)
    ident = geo.tps_fit(src, src, lam=0.0)
    p = np.array([12.3, 45.6])
    np.testing.assert_allclose(geo.tps_apply(ident, p), p, atol=1e-8)
    shift = geo.tps_fit(src, src + np.array([2.0, -3.0]), lam=0.0)
    mid = (src[0] + src[1]) / 2
    np.testing.assert_allclose(geo.tps_apply(shift, mid),
                               mid + np.array([2.0, -3.0]), atol=1e-7)


def kernel_matrix_oracle(pts_a, pts_b):
    """U(r) = r^2 log(r^2) through an (M, K, 2) difference tensor and a mask."""
    d = pts_a[:, None, :] - pts_b[None, :, :]
    r2 = (d * d).sum(axis=2)
    out = np.zeros_like(r2)
    nz = r2 > 0
    out[nz] = r2[nz] * np.log(r2[nz])
    return out


def pixel_grid(h, w):
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matrix_bit_identical_to_oracle(seed):
    r = rng(30 + seed)
    ctrl = random_landmarks(r, k=68, hi=40.0)
    ctrl[:3] = np.rint(ctrl[:3])  # on the pixel grid: r^2 = 0 there
    # 1681 grid rows span more than one of the kernel's 1024-row blocks
    for pts in (pixel_grid(41, 41), ctrl, random_landmarks(r, k=7, hi=40.0)):
        got = geo._kernel_matrix(pts, ctrl)
        want = kernel_matrix_oracle(pts, ctrl)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (geo._kernel_matrix(pixel_grid(41, 41), ctrl) == 0).sum() >= 3


def test_warp_image_bit_identical_with_oracle_kernel(monkeypatch):
    r = rng(34)
    img = r.uniform(-1, 1, size=(32, 28, 3))
    src = random_landmarks(r, k=12, hi=27.0)
    tgt = src + r.normal(0, 1.5, size=src.shape)
    tgt[:2] = np.rint(tgt[:2])  # control points of the inverse fit on pixels
    delta = r.normal(0, 0.5, size=src.shape)
    delta[:2] = 0.0
    got = geo.warp_image(img, src, tgt, delta=delta)
    monkeypatch.setattr(geo, "_kernel_matrix", kernel_matrix_oracle)
    want = geo.warp_image(img, src, tgt, delta=delta)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# image warping


def gradient_image(h=8, w=8, c=3):
    xs = np.linspace(-1, 1, w)
    img = np.broadcast_to(xs[None, :, None], (h, w, c)).copy()
    return img


def corner_landmarks(h, w, inset=0.0):
    return np.array([[inset, inset], [w - 1 - inset, inset],
                     [inset, h - 1 - inset], [w - 1 - inset, h - 1 - inset],
                     [(w - 1) / 2, (h - 1) / 2]])


def test_warp_identity_is_identity():
    r = rng(8)
    img = r.uniform(-1, 1, size=(12, 10, 3))
    lms = corner_landmarks(12, 10)
    out = geo.warp_image(img, lms, lms, delta=np.zeros_like(lms))
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_warp_constant_image_stays_constant():
    img = np.full((9, 9, 3), 0.25)
    r = rng(9)
    src = corner_landmarks(9, 9, inset=1.0)
    tgt = src + r.normal(0, 1.0, size=src.shape)
    out = geo.warp_image(img, src, tgt)
    np.testing.assert_allclose(out, 0.25, atol=1e-9)


def test_warp_pure_translation_matches_shift_oracle():
    img = gradient_image(8, 8)
    lms = corner_landmarks(8, 8)
    out = geo.warp_image(img, lms, lms + np.array([2.0, 0.0]))
    # brute-force: every output pixel (x, y) samples input at (x-2, y), edge clamped
    ref = np.empty_like(img)
    for y in range(8):
        for x in range(8):
            ref[y, x] = img[y, max(0, min(7, x - 2))]
    np.testing.assert_allclose(out, ref, atol=1e-6)


# ---------------------------------------------------------------------------
# perturbations


def test_perturbation_zero_variance():
    out = geo.sample_perturbation(rng(0), variance=0.0, k=68)
    np.testing.assert_array_equal(out, np.zeros((68, 2)))


def test_perturbation_matches_requested_variance():
    out = geo.sample_perturbation(rng(10), variance=3.0, k=50_000)
    assert abs(out.mean()) < 0.05
    assert abs(out.var() - 3.0) < 0.1


def test_perturbation_deterministic():
    a = geo.sample_perturbation(rng(11), 3.0, 68)
    b = geo.sample_perturbation(rng(11), 3.0, 68)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# nearest neighbor mining


def test_nn_exact_copy_wins():
    q = random_landmarks(rng(12))
    pool = [(q + 5.0, "b"), (q.copy(), "b"), (q.copy(), "a")]
    assert geo.nearest_neighbor(q, pool, exclude_class="a") == 1


def test_nn_hand_example_l2():
    q = np.array([[0.0, 0.0], [1.0, 1.0]])
    a = np.array([[0.0, 0.0], [1.0, 2.0]])
    b = np.array([[3.0, 3.0], [4.0, 4.0]])
    pool = [(a, "A"), (b, "B")]
    assert geo.nearest_neighbor(q, pool, exclude_class="Q", norm="l2") == 0


def test_nn_all_same_class_errors():
    q = random_landmarks(rng(13))
    pool = [(q.copy(), "a"), (q + 1.0, "a")]
    with pytest.raises(ValueError, match="no pool entry"):
        geo.nearest_neighbor(q, pool, exclude_class="a")


def test_nn_matches_exhaustive_oracle():
    r = rng(14)
    for trial in range(100):
        k = int(r.integers(3, 8))
        q = random_landmarks(r, k=k)
        pool = [(random_landmarks(r, k=k), int(r.integers(0, 3)))
                for _ in range(int(r.integers(2, 12)))]
        excl = int(r.integers(0, 3))
        if all(cls == excl for _, cls in pool):
            continue
        for norm in ("l2", "linf"):
            best, bd = None, np.inf
            for i, (lms, cls) in enumerate(pool):
                if cls == excl:
                    continue
                diff = (lms - q).ravel()
                d = max(abs(diff)) if norm == "linf" else float(np.linalg.norm(diff))
                if d < bd:
                    best, bd = i, d
            assert geo.nearest_neighbor(q, pool, excl, norm) == best


def test_nn_linf_differs_from_l2_when_constructed():
    q = np.zeros((2, 2))
    # a: small max-coordinate but large total; b: the opposite
    a = np.array([[0.9, 0.9], [0.9, 0.9]])
    b = np.array([[1.5, 0.0], [0.0, 0.0]])
    pool = [(a, 1), (b, 2)]
    assert geo.nearest_neighbor(q, pool, 0, norm="linf") == 0
    assert geo.nearest_neighbor(q, pool, 0, norm="l2") == 1


# ---------------------------------------------------------------------------
# phi_g


def test_phi_g_zero_for_identical():
    l = random_landmarks(rng(15))
    assert geo.phi_g(l, l) == 0.0


def test_phi_g_point_reflection_is_two():
    l = random_landmarks(rng(16))
    reflected = 2 * l.mean(axis=0) - l
    np.testing.assert_allclose(geo.phi_g(l, reflected), 2.0, rtol=1e-12)


def test_phi_g_hand_case():
    # numerator ||l - l'|| = 2; centroid (1, 0); denominator sqrt(2)
    l = np.array([[0.0, 0.0], [2.0, 0.0]])
    lp = np.array([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_allclose(geo.phi_g(l, lp), np.sqrt(2.0), rtol=1e-12)


def test_phi_g_degenerate_errors():
    l = np.ones((5, 2))
    with pytest.raises(ValueError, match="degenerate"):
        geo.phi_g(l, l + 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_phi_g_displacement_formula(seed):
    r = rng(seed)
    l = random_landmarks(r, k=6)
    d = r.normal(0, 2.0, size=l.shape)
    expect = np.linalg.norm(d) / np.linalg.norm(l - l.mean(axis=0))
    np.testing.assert_allclose(geo.phi_g(l, l + d), expect, rtol=1e-12)


# ---------------------------------------------------------------------------
# alignment


def template68(size=112.0):
    r = rng(99)
    return r.uniform(0.15 * size, 0.85 * size, size=(68, 2))


def test_align_identity():
    tpl = template68()
    img = rng(17).uniform(-1, 1, size=(112, 112, 3))
    out_img, out_lms = geo.align_face(img, tpl, tpl)
    np.testing.assert_allclose(out_lms, tpl, atol=1e-9)
    np.testing.assert_allclose(out_img, img, atol=1e-6)


def test_align_rotated_landmarks_recovered():
    tpl = template68()
    c = tpl.mean(axis=0)
    rot90 = np.array([[0.0, -1.0], [1.0, 0.0]])
    rotated = (rot90 @ (tpl - c).T).T + c
    img = np.zeros((112, 112, 3))
    _, out_lms = geo.align_face(img, rotated, tpl)
    np.testing.assert_allclose(out_lms, tpl, atol=1e-6)


def test_align_random_similarity_recovered():
    r = rng(18)
    tpl = template68()
    ang = r.uniform(-np.pi, np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = r.uniform(0.7, 1.4)
    shift = r.uniform(-10, 10, size=2)
    distorted = scale * (rot @ tpl.T).T + shift
    _, out_lms = geo.align_face(np.zeros((112, 112, 3)), distorted, tpl)
    np.testing.assert_allclose(out_lms, tpl, atol=1e-6)


def test_align_degenerate_errors():
    tpl = template68()
    with pytest.raises(ValueError, match="degenerate"):
        geo.align_face(np.zeros((4, 4, 3)), np.ones((68, 2)), tpl)


# ---------------------------------------------------------------------------
# landmark files


def test_landmark_file_roundtrip_exact(tmp_path):
    lms = rng(19).uniform(0, 112, size=(68, 2))
    path = tmp_path / "lms.txt"
    geo.save_landmarks(path, lms)
    loaded = geo.load_landmarks(path)
    assert np.array_equal(loaded, lms)
