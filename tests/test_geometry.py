"""TPS fitting/warping, mining, phi_g, and landmark files."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphkit import geometry as geo
from morphkit import imaging as im


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def random_landmarks(r, k=10, lo=0.0, hi=100.0):
    return r.uniform(lo, hi, size=(k, 2))


# ---------------------------------------------------------------------------
# TPS fitting


def test_tps_identity_fit():
    src = random_landmarks(rng(1))
    fit = geo.tps_fit(src, src)
    np.testing.assert_allclose(fit.affine, [[0, 1, 0], [0, 0, 1]], atol=1e-9)
    np.testing.assert_allclose(fit.kernel_weights, 0.0, atol=1e-9)


def test_tps_pure_translation():
    src = random_landmarks(rng(2))
    fit = geo.tps_fit(src, src + np.array([5.0, 0.0]))
    np.testing.assert_allclose(fit.affine, [[5, 1, 0], [0, 0, 1]], atol=1e-8)
    np.testing.assert_allclose(fit.kernel_weights, 0.0, atol=1e-8)


def test_tps_interpolates_random_targets():
    r = rng(3)
    src = random_landmarks(r)
    tgt = random_landmarks(r)
    fit = geo.tps_fit(src, tgt)
    np.testing.assert_allclose(geo.tps_apply(fit, src), tgt, atol=1e-6)


def test_tps_affine_reproduction():
    # affine targets: kernel weights vanish and the affine part matches
    r = rng(4)
    src = random_landmarks(r, k=15)
    a = np.array([[1.2, -0.3], [0.4, 0.9]])
    b = np.array([3.0, -7.0])
    fit = geo.tps_fit(src, src @ a.T + b)
    assert np.abs(fit.kernel_weights).max() <= 1e-8
    np.testing.assert_allclose(fit.affine[:, 0], b, atol=1e-7)
    np.testing.assert_allclose(fit.affine[:, 1:], a, atol=1e-8)


def test_tps_side_conditions():
    r = rng(5)
    fit = geo.tps_fit(random_landmarks(r), random_landmarks(r))
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
        fit = geo.tps_fit(src, tgt)
        worst = max(worst, np.abs(geo.tps_apply(fit, src) - tgt).max())
    assert worst <= 1e-6


def test_tps_duplicate_points_error():
    src = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="singular"):
        geo.tps_fit(src, src + 1.0)


def test_tps_collinear_points_error():
    src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(ValueError, match="singular"):
        geo.tps_fit(src, src[::-1])


def test_tps_near_duplicate_points_residual_error():
    # solvable, but the fit misses its targets by more than 1e-3 px
    r = rng(8)
    src = random_landmarks(r, k=10)
    src[1] = src[0] + 1e-6
    with pytest.raises(ValueError, match="numerically singular"):
        geo.tps_fit(src, src + r.normal(0, 3.0, size=src.shape))


def test_tps_fit_checks_residual_with_its_own_kernel(monkeypatch):
    # one kernel build per fit, and the residual check maps the control
    # points to the same bytes as tps_apply
    r = rng(9)
    src = random_landmarks(r, k=68, lo=0.0, hi=112.0)
    tgt = src + r.normal(0, 4.0, size=src.shape)
    kernels, mapped = [], []
    kernel_matrix, tps_map = geo._kernel_matrix, geo._tps_map
    monkeypatch.setattr(geo, "_kernel_matrix",
                        lambda a, b: kernels.append(a) or kernel_matrix(a, b))
    monkeypatch.setattr(geo, "_tps_map",
                        lambda t, pts, u: mapped.append(tps_map(t, pts, u))
                        or mapped[-1])
    fit = geo.tps_fit(src, tgt)
    monkeypatch.undo()
    assert len(kernels) == 1 and len(mapped) == 1
    assert mapped[0].tobytes() == geo.tps_apply(fit, src).tobytes()


def test_tps_apply_cases():
    r = rng(7)
    src = random_landmarks(r)
    ident = geo.tps_fit(src, src)
    p = np.array([12.3, 45.6])
    np.testing.assert_allclose(geo.tps_apply(ident, p), p, atol=1e-8)
    shift = geo.tps_fit(src, src + np.array([2.0, -3.0]))
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
    # a 41 x 41 pixel grid, the control points themselves, 7 free points
    for pts in (pixel_grid(41, 41), ctrl, random_landmarks(r, k=7, hi=40.0)):
        got = geo._kernel_matrix(pts, ctrl)
        want = kernel_matrix_oracle(pts, ctrl)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (geo._kernel_matrix(pixel_grid(41, 41), ctrl) == 0).sum() >= 3


def bilinear_sample_oracle(image, coords):
    """Bilinear sampling by two-array fancy indexing of an (H, W, C) image."""
    h, w = image.shape[:2]
    x = np.clip(coords[:, 0], 0.0, w - 1.0)
    y = np.clip(coords[:, 1], 0.0, h - 1.0)
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    x0i = x0.astype(np.int64)
    x1i = np.minimum(x0i + 1, w - 1)
    y0i = y0.astype(np.int64)
    y1i = np.minimum(y0i + 1, h - 1)
    fx = fx[:, None]
    fy = fy[:, None]
    top = image[y0i, x0i] * (1 - fx) + image[y0i, x1i] * fx
    bot = image[y1i, x0i] * (1 - fx) + image[y1i, x1i] * fx
    return top * (1 - fy) + bot * fy


def warp_image_oracle(image, source_lms, target_lms, delta=None):
    """The TPS warp evaluated point by point over the whole pixel grid."""
    img = np.asarray(image, dtype=np.float64)
    tgt = target_lms if delta is None else target_lms + delta
    fit = geo.tps_fit(tgt, source_lms)
    grid = pixel_grid(*img.shape[:2])
    coords = (fit.affine[:, 0] + grid @ fit.affine[:, 1:].T
              + kernel_matrix_oracle(grid, fit.control_points) @ fit.kernel_weights)
    return bilinear_sample_oracle(img, coords).reshape(img.shape)


def hwc_layout(img, layout):
    """The same pixels as a contiguous array or as a non-contiguous view."""
    if layout == "chw":  # as train_stage1 passes its CHW batches
        return np.transpose(np.ascontiguousarray(np.transpose(img, (2, 0, 1))),
                            (1, 2, 0))
    if layout == "strided":
        big = np.zeros((img.shape[0], 2 * img.shape[1], img.shape[2] + 1))
        big[:, ::2, :-1] = img
        return big[:, ::2, :-1]
    return img


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 130), w=st.integers(1, 130), c=st.sampled_from([1, 3]),
       k=st.integers(3, 24), on_pixels=st.integers(0, 4),
       use_delta=st.booleans(), layout=st.sampled_from(["c", "chw", "strided"]),
       seed=st.integers(0, 2**32 - 1))
@example(h=112, w=112, c=3, k=24, on_pixels=4, use_delta=True, layout="chw", seed=0)
@example(h=130, w=1, c=1, k=3, on_pixels=1, use_delta=False, layout="c", seed=1)
@example(h=1, w=130, c=3, k=5, on_pixels=2, use_delta=True, layout="strided", seed=2)
@example(h=1, w=1, c=1, k=3, on_pixels=1, use_delta=False, layout="c", seed=3)
def test_warp_image_bit_identical_to_pointwise_oracle(h, w, c, k, on_pixels,
                                                      use_delta, layout, seed):
    r = rng(seed)
    img = hwc_layout(r.uniform(-1, 1, size=(h, w, c)), layout)
    # control points of the inverse fit (target + delta) reach past the edges
    span = max(h, w)
    src = r.uniform(-0.2 * span - 2, 1.2 * span + 2, size=(k, 2))
    tgt = src + r.normal(0, 1.5, size=src.shape)
    delta = r.normal(0, 0.5, size=src.shape) if use_delta else None
    # some control points exactly on pixels, where r^2 = 0
    on_pixels = min(on_pixels, k)
    tgt[:on_pixels] = np.column_stack([r.integers(0, w, size=on_pixels),
                                       r.integers(0, h, size=on_pixels)])
    if delta is not None:
        delta[:on_pixels] = 0.0
    try:
        want = warp_image_oracle(img, src, tgt, delta=delta)
    except ValueError:  # collinear or near-singular draw: both must refuse it
        with pytest.raises(ValueError, match="singular"):
            geo.warp_image(img, src, tgt, delta=delta)
        return
    got = geo.warp_image(img, src, tgt, delta=delta)
    assert got.shape == want.shape == img.shape
    assert got.tobytes() == want.tobytes()


# (h, control points on a pixel); the last point's r^2 underflows to 0
@pytest.mark.parametrize("h, on_pixels", [(23, 5), (22, 5), (1, 3)])
def test_grid_kernel_matrix_bit_identical_with_control_points_on_pixels(h, on_pixels):
    # blocks of 10 rows, shared by the caller and the worker thread: 23 and
    # 22 rows end in a partial block, and 1 row is one block, which leaves
    # one thread without any
    r = rng(34)
    w = 47
    ctrl = np.vstack([[[0.0, 0.0], [w - 1.0, h - 1.0], [5.0, 7.0], [5.0, 9.0]],
                      r.uniform(-3, 50, size=(8, 2)), [[1e-200, 0.0]]])
    grid = pixel_grid(h, w)
    got = geo._grid_kernel_matrix(h, w, ctrl)
    assert got.tobytes() == kernel_matrix_oracle(grid, ctrl).tobytes()
    d = grid[:, None, :] - ctrl[None, :, :]
    assert ((d * d).sum(axis=2) == 0).sum() == on_pixels


@settings(max_examples=60, deadline=None)
@given(h=st.integers(1, 60), w=st.integers(1, 60),
       channels=st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3),
       k=st.integers(3, 24), on_pixels=st.integers(0, 4),
       layout=st.sampled_from(["c", "chw", "strided"]),
       seed=st.integers(0, 2**32 - 1))
@example(h=112, w=112, channels=[3, 3], k=24, on_pixels=4, layout="chw", seed=0)
@example(h=7, w=1, channels=[1, 3, 1], k=3, on_pixels=1, layout="strided", seed=1)
def test_warp_images_bit_identical_to_one_warp_image_per_source(h, w, channels, k,
                                                                on_pixels, layout,
                                                                seed):
    r = rng(seed)
    # (H, W, C) images in ``layout``, all warped onto one target
    images = [hwc_layout(r.uniform(-1, 1, size=(h, w, c)), layout)
              for c in channels]
    span = max(h, w)
    tgt = r.uniform(-0.2 * span - 2, 1.2 * span + 2, size=(k, 2))
    # some target points exactly on pixels, where r^2 = 0 in the shared kernel
    on_pixels = min(on_pixels, k)
    tgt[:on_pixels] = np.column_stack([r.integers(0, w, size=on_pixels),
                                       r.integers(0, h, size=on_pixels)])
    sources = [(img, tgt + r.normal(0, 1.5, size=tgt.shape)) for img in images]
    try:
        want = [geo.warp_image(img, lms, tgt) for img, lms in sources]
    except ValueError:  # a collinear or near-singular fit: both must refuse it
        with pytest.raises(ValueError, match="singular"):
            geo.warp_images(sources, tgt)
        return
    got = geo.warp_images(sources, tgt)
    assert len(got) == len(want)
    for g, wnt in zip(got, want):
        assert g.shape == wnt.shape
        assert g.tobytes() == wnt.tobytes()


@pytest.mark.parametrize("shape", [(1, 2), (5, 2)])
def test_warp_image_rejects_delta_of_another_shape(shape):
    # a (1, 2) delta would broadcast onto every landmark, a (5, 2) one fail
    # inside numpy; both are refused naming the two shapes
    lms = corner_landmarks(8, 8)[:4]
    delta = np.zeros(shape)
    with pytest.raises(ValueError) as err:
        geo.warp_image(np.zeros((8, 8, 3)), lms, lms, delta=delta)
    assert str(err.value) == ("delta must have the target landmarks' shape "
                              f"(4, 2), got {shape}")


def test_pixel_grid_is_one_read_only_array_per_size():
    grid = geo._pixel_grid(5, 7)
    assert grid is geo._pixel_grid(5, 7)
    assert grid.tobytes() == pixel_grid(5, 7).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 1.0


@pytest.mark.parametrize("shapes", [[(8, 8, 3), (8, 9, 3)], [(8, 8, 1), (9, 8, 3)],
                                    []])
def test_warp_images_need_one_pixel_grid(shapes):
    lms = corner_landmarks(8, 8)
    with pytest.raises(ValueError) as err:
        geo.warp_images([(np.zeros(shape), lms) for shape in shapes], lms)
    assert str(err.value) == ("warp_images needs one or more images sharing "
                              f"(H, W), got shapes {shapes}")


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 40), w=st.integers(1, 40), c=st.sampled_from([1, 3]),
       layout=st.sampled_from(["c", "chw", "strided"]), seed=st.integers(0, 2**32 - 1))
def test_bilinear_sample_bit_identical_to_oracle(h, w, c, layout, seed):
    r = rng(seed)
    img = hwc_layout(r.uniform(-1, 1, size=(h, w, c)), layout)
    coords = np.column_stack([r.uniform(-3, w + 3, size=200),
                              r.uniform(-3, h + 3, size=200)])
    coords[:50] = np.rint(coords[:50])  # on pixels and on the clamped edges
    got = geo._bilinear_sample(img, coords)
    assert got.tobytes() == bilinear_sample_oracle(img, coords).tobytes()
    assert got.T.flags.c_contiguous  # (M, C) over channel-major memory


@pytest.mark.parametrize("shape", [(112, 112, 3), (37, 90, 3), (5, 3, 1)])
def test_bilinear_resize_bit_identical_to_oracle(monkeypatch, shape):
    r = rng(35)
    img = r.uniform(-1, 1, size=shape)
    got_resize = [im.bilinear_resize(img, oh, ow) for oh, ow in ((112, 112), (17, 41))]
    monkeypatch.setattr(geo, "_bilinear_sample", bilinear_sample_oracle)
    want_resize = [im.bilinear_resize(img, oh, ow) for oh, ow in ((112, 112), (17, 41))]
    for got, want in zip(got_resize, want_resize):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(12,), (112, 112), (300, 300, 3, 2), ()])
def test_images_of_other_rank_rejected(monkeypatch, shape):
    img = np.broadcast_to(0.5, shape)  # a view: the test allocates no image

    def allocates(*args):
        raise AssertionError("pixel grid built before the rank check")

    # the rank is checked before any per-pixel array is built
    monkeypatch.setattr(geo, "_pixel_grid", allocates)
    monkeypatch.setattr(geo, "_grid_kernel_matrix", allocates)
    lms = corner_landmarks(8, 8)
    rank = r"^image must be \(H, W, C\), got shape"
    with pytest.raises(ValueError, match=rank):
        geo.warp_image(img, lms, lms + 0.5)
    with pytest.raises(ValueError, match=rank):
        geo.warp_images([(np.zeros((8, 8, 3)), lms), (img, lms)], lms + 0.5)
    with pytest.raises(ValueError, match=rank):
        geo._bilinear_sample(img, np.zeros((3, 2)))
    if len(shape) > 1:
        with pytest.raises(ValueError, match=rank):
            im.bilinear_resize(img, 4, 4)


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
# landmark perturbation delta (drawn by imaging.draw_triplet)


def triplet_delta(r, pool):
    return im.draw_triplet(pool, 0, r).delta


def perturbation_pool(r, k, size=12):
    return [(random_landmarks(r, k=k, hi=size - 1.0), c) for c in "ab"]


def test_perturbation_matches_requested_variance():
    # 125 draws of 200 landmarks: 50 000 coordinates of variance DELTA_VARIANCE
    r = rng(10)
    pool = perturbation_pool(r, k=200)
    out = np.concatenate([triplet_delta(r, pool) for _ in range(125)])
    assert out.shape == (25_000, 2)
    assert im.DELTA_VARIANCE == 3.0
    assert abs(out.mean()) < 0.05
    assert abs(out.var() - 3.0) < 0.1


def test_perturbation_deterministic():
    pool = perturbation_pool(rng(1), k=68)
    a = triplet_delta(rng(11), pool)
    b = triplet_delta(rng(11), pool)
    assert a.shape == (68, 2)
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
    assert geo.nearest_neighbor(q, pool, exclude_class="Q") == 0
    # L2, not the largest coordinate: c's max is 0.9 but its L2 distance 1.8
    c = np.array([[0.9, 0.9], [0.9, 0.9]])
    d = np.array([[1.5, 0.0], [0.0, 0.0]])
    assert geo.nearest_neighbor(np.zeros((2, 2)), [(c, 1), (d, 2)], 0) == 1


def test_nn_all_same_class_errors():
    q = random_landmarks(rng(13))
    pool = [(q.copy(), "a"), (q + 1.0, "a")]
    with pytest.raises(ValueError, match="no pool entry"):
        geo.nearest_neighbor(q, pool, exclude_class="a")


def test_nn_rejects_entry_of_another_landmark_count():
    q = random_landmarks(rng(15), k=68)
    pool = [(q + 1.0, "a"), (q[:67].copy(), "b"), (q + 2.0, "c")]
    # an entry of the excluded class is checked too
    for excl in ("a", "b"):
        with pytest.raises(ValueError,
                           match="pool entry 1 has 67 landmarks, the query has 68"):
            geo.nearest_neighbor(q, pool, exclude_class=excl)


def test_nn_matches_exhaustive_oracle():
    r = rng(14)
    dup_wins = 0
    for trial in range(100):
        k = int(r.integers(3, 8))
        q = random_landmarks(r, k=k)
        pool = [(random_landmarks(r, k=k), int(r.integers(0, 3)))
                for _ in range(int(r.integers(2, 12)))]
        # a duplicated entry ties with its original, and the lower index wins
        dup = int(r.integers(0, len(pool)))
        pool.append(pool[dup])
        excl = int(r.integers(0, 3))
        if all(cls == excl for _, cls in pool):
            continue
        best, bd = None, np.inf
        for i, (lms, cls) in enumerate(pool):
            if cls == excl:
                continue
            d = float(np.linalg.norm((lms - q).ravel()))
            if d < bd:
                best, bd = i, d
        assert geo.nearest_neighbor(q, pool, excl) == best
        dup_wins += best == dup
    assert dup_wins > 0


def _loop_nearest(query, pool, exclude_class):
    # the per-entry loop nearest_neighbor replaced: its sum, sqrt and strict <
    q = np.asarray(query, dtype=np.float64).ravel()
    best, best_dist = None, np.inf
    for idx, (lms, cls) in enumerate(pool):
        if cls == exclude_class:
            continue
        d = np.asarray(lms, dtype=np.float64).ravel() - q
        dist = np.sqrt((d * d).sum())
        if dist < best_dist:
            best, best_dist = idx, dist
    return best


@pytest.mark.parametrize("k", [1, 3, 4, 8, 17, 64, 79, 200])
def test_nn_matches_loop_on_near_ties(k):
    # entries q + a permutation of one offset are equal in exact arithmetic;
    # their rounded distances differ by the summation order, so only a row
    # sum in the loop's own order picks the loop's entry
    r = rng(100 + k)
    picks_past_first = 0
    for trial in range(40):
        q = random_landmarks(r, k=k)
        offset = r.normal(0.0, 3.0, size=2 * k)
        pool = [((q.ravel() + r.permutation(offset)).reshape(k, 2),
                 int(r.integers(0, 3))) for _ in range(int(r.integers(2, 12)))]
        pool.append(pool[int(r.integers(0, len(pool)))])
        excl = int(r.integers(0, 3))
        if all(cls == excl for _, cls in pool):
            continue
        best = _loop_nearest(q, pool, excl)
        assert geo.nearest_neighbor(q, pool, excl) == best
        first_kept = next(i for i, (_, cls) in enumerate(pool) if cls != excl)
        picks_past_first += best != first_kept
    if k > 1:
        assert picks_past_first > 0


_A = np.array([[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("pool,exclude,expected", [
    ([(_A, "x"), (_A, "y")], "x", 1),
    ([(_A, "y"), (_A, "x"), (_A, "y")], "y", 1),
    ([(_A, "x"), (_A + 1.0, "y"), (-_A, "z")], "y", 0),
    ([(_A, "y"), (_A, "y"), (_A + 9.0, "x"), (_A, "z"), (_A, "z")], "y", 3),
], ids=["excluded-copy-first", "one-kept-entry", "kept-tie-first",
        "kept-copies-after-excluded"])
def test_nn_skips_excluded_entries_and_takes_the_first_kept_tie(pool, exclude,
                                                                expected):
    assert geo.nearest_neighbor(np.zeros((2, 2)), pool, exclude) == expected


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
# landmark files


def test_landmark_file_roundtrip_exact(tmp_path):
    lms = rng(19).uniform(0, 112, size=(68, 2))
    path = tmp_path / "lms.txt"
    geo.save_landmarks(path, lms)
    loaded = geo.load_landmarks(path)
    assert np.array_equal(loaded, lms)


def test_landmark_file_skips_blank_lines(tmp_path):
    path = tmp_path / "lms.txt"
    path.write_text("\n1.5 2\n  \n-3 4e1\n\n")
    np.testing.assert_array_equal(geo.load_landmarks(path), [[1.5, 2.0], [-3.0, 40.0]])


@pytest.mark.parametrize("body,line,bad", [
    (b"1 2\n3\n", 2, "'3'"),
    (b"1 2\n\n3 x\n", 3, "'3 x'"),
    (b"1 2 3\n", 1, "'1 2 3'"),
    (b"1 2\nnan 4\n", 2, "'nan 4'"),
    (b"1 -inf\n", 1, "'1 -inf'"),
    (b"1 2\xff\n", 1, "'1 2"),
])
def test_landmark_file_malformed_line_names_path_and_line(tmp_path, body, line, bad):
    path = tmp_path / "lms.txt"
    path.write_bytes(body)
    with pytest.raises(ValueError) as err:
        geo.load_landmarks(path)
    assert str(err.value).startswith(f"{path}:{line}: expected two finite numbers")
    assert bad in str(err.value)


@pytest.mark.parametrize("body", [b"", b"\n \n"])
def test_landmark_file_without_landmarks_names_path(tmp_path, body):
    path = tmp_path / "lms.txt"
    path.write_bytes(body)
    with pytest.raises(ValueError, match="no landmarks") as err:
        geo.load_landmarks(path)
    assert str(err.value).startswith(str(path))
