"""Blending, morphs, triplets, synthetic dataset."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folds import fold_share
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


@pytest.mark.parametrize("alpha_warp", [2.0, -0.1, 1.0 + 1e-12, np.nan])
def test_morph_rejects_alpha_warp_outside_unit_interval(alpha_warp):
    r = rng(9)
    img = r.uniform(-0.9, 0.9, size=(16, 16, 3))
    lms = corner_landmarks(16, 16)
    with pytest.raises(ValueError, match=r"alpha_warp must lie in \[0, 1\]"):
        im.generate_morph(img, lms, img.copy(), lms + 1.0, alpha_warp, 0.5)


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
    return im.MorphRecord(image=blended, landmarks=target, alpha_warp=alpha_warp,
                          alpha_blend=alpha)


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
    assert (got.alpha_warp, got.alpha_blend) == (alpha_warp, alpha)


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
                    geo.load_landmarks(root / cb.landmarks_path),
                    cfg.alpha_warp, cfg.alpha_blend)
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


_SYNTH_RULES = {"subjects": "an integer >= 2", "captures": "an integer >= 1",
                "morphs_per_subject": "an integer >= 0", "seed": "an integer >= 0",
                "size": "an integer >= 8",
                "landmark_jitter": "finite and >= 0",
                "brightness_jitter": "finite and >= 0",
                "alpha_warp": "finite and in [0, 1]",
                "alpha_blend": "finite and in [0, 1]"}


@pytest.mark.parametrize("field,value", [
    ("subjects", 1), ("captures", 0), ("captures", -2), ("captures", 2.0),
    ("captures", True), ("morphs_per_subject", -1), ("morphs_per_subject", "1"),
    ("seed", -1), ("seed", 1.5), ("size", 0), ("size", 7),
    ("landmark_jitter", -0.5), ("landmark_jitter", math.inf),
    ("brightness_jitter", -0.1), ("brightness_jitter", math.nan),
    ("alpha_warp", 1.5), ("alpha_warp", math.nan), ("alpha_blend", -0.1),
    ("alpha_blend", "0.5")])
def test_synth_bad_counts_name_field(tmp_path, field, value):
    # unchecked, captures=0 died with ZeroDivisionError in the morph loop,
    # morphs_per_subject=-1 silently wrote no morphs, captures=2.0 raised a
    # TypeError, seed=-1, size=0 and negative jitters raised numpy's errors,
    # and alpha_warp=1.5 was caught after every capture was on disk
    cfg = im.SynthConfig(**{"subjects": 2, "size": 16, field: value})
    with pytest.raises(ValueError) as err:
        im.synth_dataset(cfg, tmp_path / "d")
    assert str(err.value) == (f"SynthConfig.{field} must be {_SYNTH_RULES[field]}, "
                              f"got {value!r}")
    assert not (tmp_path / "d").exists()


def test_synth_smallest_size_writes_faces(tmp_path):
    rows = im.synth_dataset(im.SynthConfig(subjects=2, captures=1,
                                           morphs_per_subject=1, size=8),
                            tmp_path / "d")
    assert [im.read_ppm(tmp_path / "d" / r.path).shape for r in rows] == [(8, 8, 3)] * 4


@pytest.mark.parametrize("size,seed", [*((size, seed) for size in range(8, 22)
                                             for seed in range(4)), (24, 3)])
def test_synth_no_jitter_coinciding_landmarks_name_fields(tmp_path, size, seed):
    # clipping into [3, size - 4] makes some subject's landmarks coincide, so
    # the identity fit of its captures is singular: this raised tps_fit's bare
    # "singular TPS system" after images/ and landmarks/ were made.  At (24, 3)
    # two landmarks coincide exactly, yet the solve succeeds (weights ~1e9)
    cfg = im.SynthConfig(size=size, seed=seed, landmark_jitter=0.0)
    with pytest.raises(ValueError, match=r"^subject s\d{3}: ") as err:
        im.synth_dataset(cfg, tmp_path / "d")
    assert "SynthConfig.size" in str(err.value)
    assert "SynthConfig.landmark_jitter" in str(err.value)
    assert not (tmp_path / "d").exists()


def test_synth_small_size_with_jitter_synthesises(tmp_path):
    rows = im.synth_dataset(im.SynthConfig(subjects=4, captures=2,
                                           morphs_per_subject=1, seed=0,
                                           size=16, landmark_jitter=1.0),
                            tmp_path / "d")
    assert len(rows) == 12
    assert all(im.read_ppm(tmp_path / "d" / r.path).shape == (16, 16, 3)
               for r in rows)


def synth_dataset_rereading(config, out_dir):
    """synth_dataset as it was before it morphed from its in-memory captures:
    each morph re-reads its two captures from the files just written, and
    warps them with one warp_image each."""
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
        base = im._subject_face(r, config.size, template, lms)
        subject_lms.append(lms)
        sid = f"s{s:03d}"
        captures[s] = []
        for c in range(config.captures):
            cap_lms = lms + r.normal(0.0, config.landmark_jitter, size=lms.shape)
            img = geo.warp_image(base, lms, cap_lms)
            img = np.clip(img + r.uniform(-config.brightness_jitter,
                                          config.brightness_jitter), -1.0, 1.0)
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
                im.load_face(out / cb[0]), geo.load_landmarks(out / cb[1]),
                config.alpha_warp, config.alpha_blend)
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
], ids=["32px", "112px-desk"])
def test_synth_tree_bit_identical_to_rereading_loop(tmp_path, cfg):
    rows = im.synth_dataset(cfg, tmp_path / "new")
    want = synth_dataset_rereading(cfg, tmp_path / "old")
    assert rows == want
    assert tree_digest(tmp_path / "new") == tree_digest(tmp_path / "old")
