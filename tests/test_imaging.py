"""Blending, morphs, triplets, synthetic dataset."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folds import fold_share
from test_geometry import bilinear_sample_oracle
from morphkit import geometry as geo
from morphkit import imaging as im


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def corner_landmarks(h, w, inset=1.0):
    return np.array([[inset, inset], [w - 1 - inset, inset],
                     [inset, h - 1 - inset], [w - 1 - inset, h - 1 - inset],
                     [(w - 1) / 2, (h - 1) / 2]])


# ---------------------------------------------------------------------------
# blending


def test_alpha_blend_endpoints():
    a = rng(2).uniform(-1, 1, size=(6, 6, 3))
    b = rng(3).uniform(-1, 1, size=(6, 6, 3))
    np.testing.assert_array_equal(im.alpha_blend(a, b, 0.0), a)
    np.testing.assert_array_equal(im.alpha_blend(a, b, 1.0), b)


def test_alpha_blend_midpoint():
    a = np.full((4, 4, 3), -1.0)
    b = np.full((4, 4, 3), 1.0)
    np.testing.assert_array_equal(im.alpha_blend(a, b, 0.5), 0.0)


def test_alpha_blend_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        im.alpha_blend(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)), 0.5)


# outside [0, 1] on each side, just past 1, and not finite
_BAD_ALPHAS = [2.0, -0.1, 1.0 + 1e-12, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("alpha", _BAD_ALPHAS)
def test_alpha_blend_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]"):
        im.alpha_blend(np.zeros((2, 2, 3)), np.ones((2, 2, 3)), alpha)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
def test_alpha_blend_stays_in_range(seed, alpha):
    r = rng(seed)
    a = r.uniform(-1, 1, size=(5, 5, 3))
    b = r.uniform(-1, 1, size=(5, 5, 3))
    out = im.alpha_blend(a, b, alpha)
    assert out.min() >= -1.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# morphs


def test_morph_degenerate_pair_returns_source():
    r = rng(4)
    img = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms = corner_landmarks(16, 16)
    rec = im.generate_morph(img, lms, img.copy(), lms.copy(), 0.3, 0.7)
    np.testing.assert_allclose(rec.image, img, atol=1e-7)


def test_morph_zero_alphas_returns_a():
    r = rng(5)
    img_a = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    img_b = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms_a = corner_landmarks(16, 16)
    lms_b = lms_a + r.normal(0, 1.0, size=lms_a.shape)
    rec = im.generate_morph(img_a, lms_a, img_b, lms_b, alpha_warp=0.0, alpha=0.0)
    np.testing.assert_allclose(rec.image, img_a, atol=1e-7)


def test_morph_landmarks_are_midpoints():
    r = rng(6)
    lms_a = corner_landmarks(20, 20)
    lms_b = lms_a + r.normal(0, 2.0, size=lms_a.shape)
    img = r.uniform(-0.9, 0.9, size=(20, 20, 3))
    rec = im.generate_morph(img, lms_a, img.copy(), lms_b, 0.5, 0.5)
    np.testing.assert_allclose(rec.landmarks, (lms_a + lms_b) / 2, atol=1e-9)


def test_morph_symmetric_under_swap():
    r = rng(7)
    img_a = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    img_b = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms_a = corner_landmarks(16, 16)
    lms_b = lms_a + r.normal(0, 1.5, size=lms_a.shape)
    fwd = im.generate_morph(img_a, lms_a, img_b, lms_b, 0.3, 0.4)
    rev = im.generate_morph(img_b, lms_b, img_a, lms_a, 0.7, 0.6)
    np.testing.assert_allclose(fwd.image, rev.image, atol=1e-9)
    np.testing.assert_allclose(fwd.landmarks, rev.landmarks, atol=1e-9)


@pytest.mark.parametrize("alpha_warp", [2.0, -0.1, 1.0 + 1e-12, np.nan,
                                        np.inf, -np.inf])
def test_morph_rejects_alpha_warp_outside_unit_interval(alpha_warp):
    r = rng(9)
    img = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms = corner_landmarks(16, 16)
    with pytest.raises(ValueError, match=r"alpha_warp must lie in \[0, 1\]"):
        im.generate_morph(img, lms, img.copy(), lms + 1.0, alpha_warp, 0.5)


@pytest.mark.parametrize("alpha", _BAD_ALPHAS)
def test_morph_rejects_blend_alpha_outside_unit_interval(alpha):
    r = rng(9)
    img = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms = corner_landmarks(16, 16)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\]"):
        im.generate_morph(img, lms, img.copy(), lms + 1.0, 0.5, alpha)


def test_morph_values_stay_in_range():
    r = rng(8)
    img_a = r.uniform(-1, 1, size=(16, 16, 3))
    img_b = r.uniform(-1, 1, size=(16, 16, 3))
    lms = corner_landmarks(16, 16)
    rec = im.generate_morph(img_a, lms, img_b, lms + 1.0, 0.5, 0.5)
    assert rec.image.min() >= -1.0 and rec.image.max() <= 1.0


def generate_morph_two_warps(img_a, lms_a, img_b, lms_b, alpha_warp=0.5,
                             alpha=0.5):
    """generate_morph's body before warp_images: one warp_image per source."""
    img_a = np.asarray(img_a, dtype=np.float64)
    img_b = np.asarray(img_b, dtype=np.float64)
    la = np.asarray(lms_a, dtype=np.float64)
    lb = np.asarray(lms_b, dtype=np.float64)
    target = (1.0 - alpha_warp) * la + alpha_warp * lb
    warped_a = geo.warp_image(img_a, la, target)
    warped_b = geo.warp_image(img_b, lb, target)
    blended = im.alpha_blend(warped_a, warped_b, alpha)
    return im.MorphRecord(image=blended, landmarks=target)


@settings(max_examples=30, deadline=None)
@given(size=st.integers(8, 64), alpha_warp=st.floats(0.0, 1.0),
       alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_morph_bit_identical_to_two_warp_images(size, alpha_warp, alpha, seed):
    r = rng(seed)
    lms_a = im.canonical_landmarks(size)
    lms_b = lms_a + r.normal(0, 1.0, size=lms_a.shape)
    lms_a = lms_a + r.normal(0, 1.0, size=lms_a.shape)
    img_a = r.uniform(-1, 1, size=(size, size, 3))
    img_b = r.uniform(-1, 1, size=(size, size, 3))
    args = (img_a, lms_a, img_b, lms_b, alpha_warp, alpha)
    got = im.generate_morph(*args)
    want = generate_morph_two_warps(*args)
    assert got.image.tobytes() == want.image.tobytes()
    assert got.landmarks.tobytes() == want.landmarks.tobytes()


# ---------------------------------------------------------------------------
# triplets


def make_pool(r, n=4, size=16):
    """(images, pool): float faces and the (landmarks, label) draw pool."""
    images, pool = [], []
    for i in range(n):
        images.append(r.uniform(-0.9, 0.9, size=(size, size, 3)))
        pool.append((corner_landmarks(size, size) + r.normal(0, 0.5, size=(5, 2)),
                     f"c{i}"))
    return images, pool


def test_triplet_never_pairs_same_class():
    r = rng(11)
    _, pool = make_pool(r)
    t = im.draw_triplet(pool, 0, r)
    assert (t.index_a, t.label_a) == (0, "c0")
    assert t.label_g != "c0"
    assert pool[t.index_g][1] == t.label_g
    assert t.lms_g.tobytes() == pool[t.index_g][0].tobytes()


def test_triplet_warp_tracks_target_landmarks():
    # the fitted warp maps l' + delta back onto l within TPS exactness
    r = rng(12)
    _, pool = make_pool(r)
    t = im.draw_triplet(pool, 0, r)
    fit = geo.tps_fit(t.lms_g + t.delta, t.lms_a)
    np.testing.assert_allclose(geo.tps_apply(fit, t.lms_g + t.delta),
                               t.lms_a, atol=1e-6)


def test_triplet_warp_is_the_warp_onto_drawn_target():
    images, pool = make_pool(rng(15))
    t = im.draw_triplet(pool, 2, rng(44))
    want = geo.warp_image(images[2], pool[2][0], pool[t.index_g][0] + t.delta)
    assert im.build_triplet(images[2], t).tobytes() == want.tobytes()


def test_build_triplet_is_a_warp_onto_target_plus_delta():
    # x_i as training passes it, an (H, W, 3) view of channel-major planes
    images, pool = make_pool(rng(16))
    image = np.ascontiguousarray(images[1].transpose(2, 0, 1)).transpose(1, 2, 0)
    t = im.draw_triplet(pool, 1, rng(45))
    want = geo.warp_images([(image, t.lms_a)], t.lms_g + t.delta)[0]
    assert im.build_triplet(image, t).tobytes() == want.tobytes()


def test_triplet_deterministic_given_seed():
    images, pool = make_pool(rng(13))
    a = im.draw_triplet(pool, 0, rng(42))
    b = im.draw_triplet(pool, 0, rng(42))
    assert np.array_equal(a.delta, b.delta) and a.index_g == b.index_g
    assert np.array_equal(im.build_triplet(images[0], a),
                          im.build_triplet(images[0], b))


def test_triplet_delta_is_one_normal_draw_of_variance_three():
    # delta is the generator's one draw: (K, 2) offsets of variance 3 px^2
    _, pool = make_pool(rng(14))
    r = rng(43)
    t = im.draw_triplet(pool, 1, r)
    twin = rng(43)
    want = twin.normal(0.0, np.sqrt(3.0), size=(5, 2))
    assert t.delta.tobytes() == want.tobytes()
    # and nothing else was drawn from it
    assert r.bit_generator.state == twin.bit_generator.state


def test_stage1_triplet_warps_fold_within_measured_bands(tmp_path):
    """How much of the face the stage-1 x_hat warps fold over on the
    bench-size set today (ROADMAP item 10): every epoch's draws in pool
    order, as ``train_stage1`` makes them.  A remedy for the folds has to
    move these bands on purpose."""
    cfg = im.SynthConfig(subjects=10, captures=3, morphs_per_subject=2,
                         seed=101, size=112)
    rows = im.synth_dataset(cfg, tmp_path / "d")
    pool = [(geo.load_landmarks(tmp_path / "d" / r.landmarks_path), r.subject_id)
            for r in rows if r.kind == "real"]
    assert len(pool) == 30
    assert all(fold_share(lms, lms, cfg.size) == 0 for lms, _ in pool)
    for s in (0, 1):
        r = np.random.Generator(np.random.PCG64([s, 1]))
        drawn = [im.draw_triplet(pool, i, r) for i in range(len(pool))]
        x_hat = [fold_share(t.lms_a, t.lms_g + t.delta, cfg.size) for t in drawn]
        assert 0.10 <= np.median(x_hat) <= 0.20, s
    # the neighbour does not depend on the generator, so neither does this
    no_delta = [fold_share(t.lms_a, t.lms_g, cfg.size) for t in drawn]
    assert 0.07 <= np.median(no_delta) <= 0.12


def test_from_uint8_byte_equal_to_formula_for_every_value():
    raw = np.arange(256, dtype=np.uint8).reshape(16, 16, 1).repeat(3, axis=2)
    out = im.from_uint8(raw)
    assert out.dtype == np.float64
    assert out.tobytes() == (raw.astype(np.float64) / 127.5 - 1.0).tobytes()
    assert out[0, 0, 0] == -1.0 and out[-1, -1, -1] == 1.0
    # a float64 input is copied, not scaled in place
    floats = raw.astype(np.float64)
    assert im.from_uint8(floats).tobytes() == out.tobytes()
    assert np.array_equal(floats, raw)


def test_save_face_refuses_nan_and_clips_infinities(tmp_path):
    img = np.zeros((4, 5, 3))
    img[0, 0] = np.nan       # one pixel NaN in every channel
    img[2, 3, 1] = np.nan    # another in one channel
    with pytest.raises(ValueError) as err:
        im.save_face(tmp_path / "nan.ppm", img)
    assert str(err.value) == ("cannot quantize an image with NaN values: "
                              "2 NaN pixel(s)")
    assert not (tmp_path / "nan.ppm").exists()
    img[0, 0] = -np.inf
    img[2, 3, 1] = np.inf
    im.save_face(tmp_path / "inf.ppm", img)
    raw = im.read_ppm(tmp_path / "inf.ppm")
    assert raw[0, 0].tolist() == [0, 0, 0] and raw[2, 3, 1] == 255


# ---------------------------------------------------------------------------
# PPM round trip


def test_ppm_roundtrip_exact(tmp_path):
    raw = rng(14).integers(0, 256, size=(9, 7, 3)).astype(np.uint8)
    im.write_ppm(tmp_path / "x.ppm", raw)
    assert np.array_equal(im.read_ppm(tmp_path / "x.ppm"), raw)


def test_ppm_header_with_comment(tmp_path):
    raw = rng(15).integers(0, 256, size=(3, 4, 3)).astype(np.uint8)
    body = b"P6\n# a comment\n4 3\n255\n" + raw.tobytes()
    (tmp_path / "c.ppm").write_bytes(body)
    assert np.array_equal(im.read_ppm(tmp_path / "c.ppm"), raw)


def test_ppm_truncated_at_every_byte(tmp_path):
    raw = rng(16).integers(0, 256, size=(3, 4, 3)).astype(np.uint8)
    im.write_ppm(tmp_path / "full.ppm", raw)
    data = (tmp_path / "full.ppm").read_bytes()
    path = tmp_path / "cut.ppm"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError) as err:
            im.read_ppm(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("header", [b"P6\n1x 3\n255\n", b"P6\n4 -3\n255\n",
                                    b"P6\n4 3\n2_55\n", b"P6\n+4 3\n255\n"])
def test_ppm_malformed_header_field_names_path(tmp_path, header):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + bytes(36))
    with pytest.raises(ValueError, match="decimal integers") as err:
        im.read_ppm(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# synthetic dataset


def tree_digest(root):
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_synth_counts_and_sources(tmp_path):
    cfg = im.SynthConfig(subjects=2, captures=2, morphs_per_subject=1,
                         seed=3, size=32)
    rows = im.synth_dataset(cfg, tmp_path / "d")
    real = [r for r in rows if r.kind == "real"]
    morph = [r for r in rows if r.kind == "morph"]
    assert len(real) == 4 and len(morph) == 2
    for r in morph:
        assert r.source_a != r.source_b
        assert r.source_a and r.source_b
    loaded = im.load_manifest(tmp_path / "d" / "manifest.csv")
    assert [r.path for r in loaded] == [r.path for r in rows]


MANIFEST_HEADER = ",".join(im.MANIFEST_COLUMNS) + "\n"
REAL_ROW = "images/s000_c0.ppm,s000,real,,,landmarks/s000_c0.txt\n"


def test_manifest_roundtrip_skips_blank_lines(tmp_path):
    path = tmp_path / "manifest.csv"
    morph = "images/m0.ppm,s000,morph,s000,s001,landmarks/m0.txt\n"
    path.write_text(MANIFEST_HEADER + REAL_ROW + "\n" + morph)
    rows = im.load_manifest(path)
    assert [r.kind for r in rows] == ["real", "morph"]
    assert (rows[1].source_a, rows[1].source_b) == ("s000", "s001")
    im.write_manifest(tmp_path / "again.csv", rows)
    assert im.load_manifest(tmp_path / "again.csv") == rows


@pytest.mark.parametrize("bad,message", [
    ("images/a.ppm,s000,Real,,,landmarks/a.txt", "kind must be 'real' or 'morph', got 'Real'"),
    ("images/a.ppm,s000,,,,landmarks/a.txt", "kind must be 'real' or 'morph', got ''"),
    ("images/a.ppm,s000,real,,", "expected 6 fields, got 5"),
    ("images/a.ppm,s000,real,,,landmarks/a.txt,x", "expected 6 fields, got 7"),
    ("images/a.ppm", "expected 6 fields, got 1"),
])
def test_manifest_bad_row_names_path_and_line(tmp_path, bad, message):
    path = tmp_path / "manifest.csv"
    path.write_text(MANIFEST_HEADER + REAL_ROW + REAL_ROW + bad + "\n" + REAL_ROW)
    with pytest.raises(ValueError) as err:
        im.load_manifest(path)
    assert str(err.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("body", ["", "path,subject_id,kind\n" + REAL_ROW])
def test_manifest_bad_header_names_path(tmp_path, body):
    path = tmp_path / "manifest.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match="unexpected manifest header") as err:
        im.load_manifest(path)
    assert str(err.value).startswith(str(path))


def test_synth_deterministic(tmp_path):
    cfg = im.SynthConfig(subjects=3, captures=2, morphs_per_subject=1,
                         seed=7, size=32)
    im.synth_dataset(cfg, tmp_path / "a")
    im.synth_dataset(cfg, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_synth_morph_regeneration_oracle(tmp_path):
    cfg = im.SynthConfig(subjects=3, captures=2, morphs_per_subject=2,
                         seed=11, size=32)
    rows = im.synth_dataset(cfg, tmp_path / "d")
    root = tmp_path / "d"
    by_capture = {}
    for r in rows:
        if r.kind == "real":
            by_capture.setdefault(r.subject_id, []).append(r)
    for r in rows:
        if r.kind != "morph":
            continue
        stored = im.read_ppm(root / r.path)
        # scan source captures for the exact pair that regenerates the file
        found = False
        for ca in by_capture[r.source_a]:
            for cb in by_capture[r.source_b]:
                rec = im.generate_morph(
                    im.load_face(root / ca.path),
                    geo.load_landmarks(root / ca.landmarks_path),
                    im.load_face(root / cb.path),
                    geo.load_landmarks(root / cb.landmarks_path))
                if np.array_equal(im.to_uint8(rec.image), stored):
                    found = True
        assert found, f"no capture pair regenerates {r.path}"


def test_synth_values_in_range(tmp_path):
    cfg = im.SynthConfig(subjects=2, captures=1, morphs_per_subject=1,
                         seed=5, size=32)
    rows = im.synth_dataset(cfg, tmp_path / "d")
    for r in rows:
        img = im.load_face(tmp_path / "d" / r.path)
        assert img.min() >= -1.0 and img.max() <= 1.0


# clipping into [3, size - 4] makes some subject's landmarks coincide at
# these sizes (at (24, 3) two coincide exactly); every capture's 1 px
# landmark jitter still separates them, so each fit is regular
@pytest.mark.parametrize("size,seed", [*((size, seed) for size in range(8, 22)
                                             for seed in range(4)), (24, 3)])
def test_synth_small_size_synthesises(tmp_path, size, seed):
    rows = im.synth_dataset(im.SynthConfig(subjects=4, captures=2,
                                           morphs_per_subject=1, seed=seed,
                                           size=size),
                            tmp_path / "d")
    assert len(rows) == 12
    assert all(im.read_ppm(tmp_path / "d" / r.path).shape == (size, size, 3)
               for r in rows)


def test_synth_capture_landmark_jitter_is_one_pixel(tmp_path):
    # each capture adds N(0, 1) px to its subject's landmarks, so two
    # captures of one subject differ by N(0, 2) in each coordinate
    rows = im.synth_dataset(im.SynthConfig(subjects=10, captures=2,
                                           morphs_per_subject=0, seed=2,
                                           size=32), tmp_path / "d")
    lms = {Path(r.path).stem: geo.load_landmarks(tmp_path / "d" / r.landmarks_path)
           for r in rows}
    diff = np.concatenate([lms[f"s{s:03d}_c1"] - lms[f"s{s:03d}_c0"]
                           for s in range(10)])
    assert diff.size == 10 * 68 * 2
    assert abs(diff.mean()) < 0.1
    assert abs(diff.std() / np.sqrt(2.0) - 1.0) < 0.1


@pytest.mark.parametrize("field", ["landmark_jitter", "brightness_jitter",
                                   "alpha_warp", "alpha_blend"])
def test_synth_config_has_no_image_model_fields(field):
    # the image model is fixed in synth_dataset, not a setting
    with pytest.raises(TypeError, match=field):
        im.SynthConfig(**{field: 0.5})


def smooth_field_oracle(rng, size, cells=8, amplitude=0.35):
    """``imaging._smooth_field`` on an (H, W, 3) array: a cells x cells x 3
    normal draw resized by half-pixel-center bilinear sampling through the
    fancy-indexing oracle, scaled so its largest magnitude is ``amplitude``."""
    coarse = rng.normal(0.0, 1.0, size=(cells, cells, 3))
    ticks = (np.arange(size) + 0.5) * (cells / size) - 0.5
    gx, gy = np.meshgrid(ticks, ticks)
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)
    field = bilinear_sample_oracle(coarse, coords).reshape(size, size, 3)
    return amplitude * field / max(np.abs(field).max(), 1e-9)


def subject_face_oracle(rng, size, template, lms):
    """``imaging._subject_face`` as (H, W, 3) arithmetic: the face oval, the
    smooth field, the subject tint, then the six landmark blobs subtracted
    in order, each broadcast over the channel axis."""
    center = template.mean(axis=0)
    xs, ys = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64))
    e = np.sqrt(((xs - center[0]) / (0.38 * size)) ** 2
                + ((ys - (center[1] - 0.03 * size)) / (0.47 * size)) ** 2)
    base = 0.30 - 0.85 / (1.0 + np.exp(-(e - 1.0) * 10.0))
    img = base[:, :, None] + smooth_field_oracle(rng, size)
    img += rng.uniform(-0.15, 0.15, size=3)
    anchors = [
        (lms[36:42].mean(axis=0), 0.70, 0.035 * size),
        (lms[42:48].mean(axis=0), 0.70, 0.035 * size),
        (lms[30], 0.35, 0.030 * size),
        (lms[48:68].mean(axis=0), 0.55, 0.050 * size),
        (lms[17:22].mean(axis=0), 0.30, 0.025 * size),
        (lms[22:27].mean(axis=0), 0.30, 0.025 * size),
    ]
    for (cx, cy), amp, sigma in anchors:
        img -= (amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2)
                             / (2.0 * sigma ** 2)))[:, :, None]
    return np.clip(img, -0.95, 0.95)


@pytest.mark.parametrize("seed", [7, 101, 2024])
@pytest.mark.parametrize("size", [32, 48, 112])
def test_subject_face_byte_equal_to_hwc_oracle(size, seed):
    # the synthetic tree's oracle below draws its base faces with this oracle,
    # so a last-bit change to ``_subject_face`` or ``_smooth_field`` fails here
    template = im.canonical_landmarks(size)
    for s in range(3):
        got_rng, want_rng = (np.random.Generator(np.random.PCG64([seed, s]))
                             for _ in range(2))
        lms = im._subject_landmarks(got_rng, size, template)
        im._subject_landmarks(want_rng, size, template)
        got = im._subject_face(got_rng, size, template, lms)
        want = subject_face_oracle(want_rng, size, template, lms)
        assert got.shape == want.shape == (size, size, 3)
        assert got.tobytes() == want.tobytes(), (size, seed, s)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def synth_dataset_rereading(config, out_dir):
    """synth_dataset as it was before it morphed from its in-memory captures:
    each morph re-reads its two captures from the files just written, and
    warps them with one warp_image each.  Base faces come from
    ``subject_face_oracle``."""
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "landmarks").mkdir(parents=True, exist_ok=True)
    template = im.canonical_landmarks(config.size)
    rows = []
    subject_lms = []
    captures = {}
    for s in range(config.subjects):
        r = np.random.Generator(np.random.PCG64([config.seed, s]))
        lms = im._subject_landmarks(r, config.size, template)
        base = subject_face_oracle(r, config.size, template, lms)
        subject_lms.append(lms)
        sid = f"s{s:03d}"
        captures[s] = []
        for c in range(config.captures):
            cap_lms = lms + r.normal(0.0, 1.0, size=lms.shape)
            img = geo.warp_image(base, lms, cap_lms)
            img = np.clip(img + r.uniform(-0.08, 0.08), -1.0, 1.0)
            img_rel = f"images/{sid}_c{c}.ppm"
            lms_rel = f"landmarks/{sid}_c{c}.txt"
            im.save_face(out / img_rel, img)
            geo.save_landmarks(out / lms_rel, cap_lms)
            captures[s].append((img_rel, lms_rel))
            rows.append(im.DatasetRow(img_rel, sid, "real", "", "", lms_rel))
    morph_idx = 0
    for s in range(config.subjects):
        partner = geo.nearest_neighbor(
            subject_lms[s], [(subject_lms[j], j) for j in range(config.subjects)],
            exclude_class=s)
        sid, pid = f"s{s:03d}", f"s{partner:03d}"
        for m in range(config.morphs_per_subject):
            ca = captures[s][m % config.captures]
            cb = captures[partner][(m + m // config.captures) % config.captures]
            rec = generate_morph_two_warps(
                im.load_face(out / ca[0]), geo.load_landmarks(out / ca[1]),
                im.load_face(out / cb[0]), geo.load_landmarks(out / cb[1]))
            img_rel = f"images/m{morph_idx:03d}_{sid}_{pid}.ppm"
            lms_rel = f"landmarks/m{morph_idx:03d}_{sid}_{pid}.txt"
            im.save_face(out / img_rel, rec.image)
            geo.save_landmarks(out / lms_rel, rec.landmarks)
            rows.append(im.DatasetRow(img_rel, sid, "morph", sid, pid, lms_rel))
            morph_idx += 1
    im.write_manifest(out / "manifest.csv", rows)
    return rows


@pytest.mark.parametrize("cfg", [
    im.SynthConfig(subjects=4, captures=2, morphs_per_subject=3, seed=17, size=32),
    # the benchmark's set: 10 subjects x 3 captures x 2 morphs at 112 px
    im.SynthConfig(subjects=10, captures=3, morphs_per_subject=2, seed=18, size=112),
    # each capture count against each morph count: the morph loop picks
    # capture m % captures of a subject and (m + m // captures) % captures
    # of its partner
    *(im.SynthConfig(subjects=3, captures=c, morphs_per_subject=m,
                     seed=4 * c + m, size=16)
      for c in (1, 2, 3) for m in (0, 1, 2, 3)),
], ids=["32px", "112px-desk",
        *(f"16px-c{c}-m{m}" for c in (1, 2, 3) for m in (0, 1, 2, 3))])
def test_synth_tree_bit_identical_to_rereading_loop(tmp_path, monkeypatch, cfg):
    rows = im.synth_dataset(cfg, tmp_path / "new")
    want = synth_dataset_rereading(cfg, tmp_path / "old")
    assert rows == want
    digest = tree_digest(tmp_path / "new")
    assert digest == tree_digest(tmp_path / "old")
    # the same tree with every warp and resize sampled by the fancy-indexing
    # oracle on (H, W, C) arrays, not by the channel-major sampler
    monkeypatch.setattr(geo, "_bilinear_sample", bilinear_sample_oracle)
    assert im.synth_dataset(cfg, tmp_path / "oracle") == rows
    assert tree_digest(tmp_path / "oracle") == digest
