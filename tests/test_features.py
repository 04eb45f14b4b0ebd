"""LBP / BSIF descriptors and ICA filter-bank training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkit import features as ft
from morphkit import gradcore as gc


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def naive_lbp_hist(gray):
    h, w = gray.shape
    codes = []
    for y in range(1, h - 1):
        for x in range(1, w - 1):
            c = gray[y, x]
            code = 0
            for bit, (dy, dx) in enumerate(
                    [(-1, -1), (-1, 0), (-1, 1), (0, 1),
                     (1, 1), (1, 0), (1, -1), (0, -1)]):
                if gray[y + dy, x + dx] >= c:
                    code |= 1 << bit
            codes.append(code)
    hist = np.zeros(256)
    for c in codes:
        hist[c] += 1
    return hist / hist.sum()


# ---------------------------------------------------------------------------
# LBP


def test_lbp_constant_image_all_255():
    img = np.full((8, 8, 3), 0.3)
    hist = ft.lbp_histogram(img)
    assert hist[255] == 1.0
    assert hist.sum() == 1.0


def test_lbp_bright_center_field():
    # under the fixed "neighbor >= center" convention the bright pixel codes 0
    # and every window that contains it still codes 255
    g = np.full((7, 7), -0.5)
    g[3, 3] = 0.9
    img = np.repeat(g[:, :, None], 3, axis=2)
    hist = ft.lbp_histogram(img)
    n_interior = 25
    np.testing.assert_allclose(hist[0], 1 / n_interior)
    np.testing.assert_allclose(hist[255], (n_interior - 1) / n_interior)


def test_lbp_matches_naive_recount():
    r = rng(1)
    img = r.uniform(-1, 1, size=(16, 16, 3))
    np.testing.assert_allclose(ft.lbp_histogram(img),
                               naive_lbp_hist(img.mean(axis=2)), atol=1e-12)


def test_lbp_too_small_errors():
    with pytest.raises(ValueError, match="3x3"):
        ft.lbp_histogram(np.zeros((2, 5, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-0.3, 0.3))
def test_lbp_offset_invariance(seed, offset):
    img = rng(seed).uniform(-0.5, 0.5, size=(10, 10, 3))
    np.testing.assert_array_equal(ft.lbp_histogram(img),
                                  ft.lbp_histogram(img + offset))


# ---------------------------------------------------------------------------
# BSIF


def gradient_kernel():
    k = np.array([[-1.0, 0.0, 1.0]] * 3)
    return k - k.mean()


def make_bank(filters):
    return ft.FilterBank(np.asarray(filters, dtype=np.float64))


def test_bsif_constant_image_bin_zero():
    # integer-valued zero-sum filters keep responses exactly zero on a
    # constant field, so every bit stays 0 under the strict > 0 rule
    r = rng(2)
    filters = np.zeros((4, 3, 3))
    for f in filters:
        flat = f.ravel()
        signs = r.permutation([1.0, -1.0, 1.0, -1.0, 2.0, -2.0, 0.0, 0.0, 0.0])
        flat[:] = signs
    hist = ft.bsif_code(np.full((8, 8, 3), 0.5), make_bank(filters))
    assert hist[0] == 1.0


def test_bsif_ramp_single_dominant_bin():
    img = np.broadcast_to(np.linspace(-1, 1, 12)[None, :, None],
                          (12, 12, 3)).copy()
    hist = ft.bsif_code(img, make_bank([gradient_kernel()]))
    assert hist.shape == (2,)
    assert hist[1] > 0.9


def test_bsif_matches_naive_recount():
    r = rng(3)
    img = r.uniform(-1, 1, size=(10, 9, 3))
    filters = r.normal(size=(3, 3, 3))
    filters -= filters.mean(axis=(1, 2), keepdims=True)
    hist = ft.bsif_code(img, make_bank(filters))
    # per-pixel recomputation with explicit edge replication
    g = img.mean(axis=2)
    gp = np.pad(g, 1, mode="edge")
    hist_ref = np.zeros(8)
    for y in range(g.shape[0]):
        for x in range(g.shape[1]):
            code = 0
            win = gp[y:y + 3, x:x + 3]
            for b in range(3):
                if (win * filters[b]).sum() > 0:
                    code |= 1 << b
            hist_ref[code] += 1
    np.testing.assert_allclose(hist, hist_ref / hist_ref.sum(), atol=1e-12)


def test_bsif_single_filter_two_bins():
    hist = ft.bsif_code(rng(4).uniform(-1, 1, (8, 8, 3)),
                        make_bank([gradient_kernel()]))
    assert hist.shape == (2,)
    np.testing.assert_allclose(hist.sum(), 1.0, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-0.3, 0.3))
def test_bsif_offset_invariance(seed, offset):
    r = rng(seed)
    img = r.uniform(-0.5, 0.5, size=(9, 9, 3))
    filters = r.normal(size=(2, 3, 3))
    filters -= filters.mean(axis=(1, 2), keepdims=True)
    bank = make_bank(filters)
    np.testing.assert_array_equal(ft.bsif_code(img, bank),
                                  ft.bsif_code(img + offset, bank))


def test_bsif_empty_bank_errors():
    bank = ft.FilterBank(np.zeros((0, 3, 3)))
    with pytest.raises(ValueError, match="empty"):
        ft.bsif_code(np.zeros((5, 5, 3)), bank)


@pytest.mark.parametrize("shape", [(1, 4, 4), (3, 2, 2), (1, 0, 0)])
def test_filterbank_even_size_names_shape(shape):
    # size // 2 same-padding of an even filter gives one response too many,
    # which bsif_code met as numpy's bare broadcasting error
    with pytest.raises(ValueError) as err:
        ft.FilterBank(np.zeros(shape))
    assert str(err.value) == f"BSIF filter size k must be odd, got shape {shape}"


# ---------------------------------------------------------------------------
# filter-bank training


def test_ica_recovers_independent_sources():
    # two independent binary sources mixed into 3x3 patches by zero-DC vectors
    r = rng(5)
    n = 2000
    s = r.choice([-1.0, 1.0], size=(n, 2))
    mix = np.zeros((2, 9))
    mix[0, :3] = [1.0, -0.5, -0.5]
    mix[1, 3:6] = [-0.5, 1.0, -0.5]
    patches = (s @ mix).reshape(n, 3, 3)
    bank = ft.train_filterbank(patches, n_filters=2, seed=0)
    responses = patches.reshape(n, -1) @ bank.coefficients.reshape(2, -1).T
    corr = np.abs(np.corrcoef(responses.T, s.T)[:2, 2:])
    # each source matched by some filter up to sign/permutation
    assert corr.max(axis=0).min() >= 0.95


def test_ica_deterministic():
    r = rng(6)
    patches = r.normal(size=(900, 3, 3)).cumsum(axis=2)
    a = ft.train_filterbank(patches, n_filters=2, seed=9)
    b = ft.train_filterbank(patches, n_filters=2, seed=9)
    assert np.array_equal(a.coefficients, b.coefficients)


def test_ica_filters_zero_mean():
    r = rng(7)
    patches = r.normal(size=(1200, 3, 3)) + r.normal(size=(1200, 1, 1))
    bank = ft.train_filterbank(patches, n_filters=4, seed=1)
    assert np.abs(bank.coefficients.reshape(4, -1).mean(axis=1)).max() <= 1e-9


def test_ica_rank_deficiency_errors():
    # rank-1 patches cannot support 2 filters
    r = rng(8)
    base = r.normal(size=(1, 9))
    patches = (r.normal(size=(500, 1)) @ base).reshape(500, 3, 3)
    with pytest.raises(ValueError, match="rank"):
        ft.train_filterbank(patches, n_filters=2, seed=0)


def test_ica_too_few_patches_errors():
    with pytest.raises(ValueError, match="patches"):
        ft.train_filterbank(np.zeros((50, 3, 3)), n_filters=2)


def test_ica_even_patches_name_shape():
    patches = rng(12).normal(size=(400, 4, 4))
    with pytest.raises(ValueError, match=r"must be odd, got shape \(2, 4, 4\)"):
        ft.train_filterbank(patches, n_filters=2, seed=0)


def test_sample_patches_shape_and_source():
    images = [rng(13).uniform(-1, 1, size=(9, 7, 3)), rng(14).uniform(size=(5, 6))]
    patches = ft.sample_patches(images, 5, 4, rng(15))
    assert patches.shape == (8, 5, 5)
    # every patch is a window of its image's grayscale
    for img, group in zip(images, (patches[:4], patches[4:])):
        g = ft.grayscale(img)
        windows = np.lib.stride_tricks.sliding_window_view(g, (5, 5))
        for patch in group:
            assert (windows == patch).all(axis=(2, 3)).any()


@pytest.mark.parametrize("size", [0, -1, 6, 10])
def test_sample_patches_size_not_fitting_names_size_and_shape(size):
    images = [np.zeros((8, 8, 3)), np.zeros((8, 5, 3))]
    # 6 fits the first image and not the second
    with pytest.raises(ValueError) as err:
        ft.sample_patches(images, size, 3, rng(16))
    shape = (8, 8, 3) if size != 6 else (8, 5, 3)
    assert str(err.value) == (f"patch size {size} does not fit an image of "
                              f"shape {shape}")


def saved_bank(tmp_path, n_filters=2):
    filters = rng(11).normal(size=(n_filters, 3, 3))
    bank = make_bank(filters - filters.mean(axis=(1, 2), keepdims=True))
    bank.save(tmp_path / "bank.mkpt")
    return bank, (tmp_path / "bank.mkpt").read_bytes()


def test_filterbank_file_roundtrip(tmp_path):
    bank, data = saved_bank(tmp_path, n_filters=4)
    loaded = ft.FilterBank.load(tmp_path / "bank.mkpt")
    assert loaded.n_filters == 4 and loaded.size == 3
    assert loaded.coefficients.tobytes() == bank.coefficients.tobytes()
    assert data.startswith(b"MKPT3")
    loaded.save(tmp_path / "again.mkpt")
    assert (tmp_path / "again.mkpt").read_bytes() == data


def test_filterbank_truncated_file_names_path(tmp_path):
    _, data = saved_bank(tmp_path)
    path = tmp_path / "cut.mkpt"
    # every cut, the empty file included, and one trailing byte
    for body in [data[:cut] for cut in range(len(data))] + [data + b"\0"]:
        path.write_bytes(body)
        with pytest.raises(gc.GradcoreError) as err:
            ft.FilterBank.load(path)
        assert str(path) in str(err.value)


def test_filterbank_flipped_bit_names_path(tmp_path):
    _, data = saved_bank(tmp_path)
    path = tmp_path / "flipped.mkpt"
    for bit in range(8 * len(data)):
        body = bytearray(data)
        body[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(body))
        with pytest.raises(gc.GradcoreError) as err:
            ft.FilterBank.load(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize("tensors,why", [
    ({}, "holds []"), ({"other": np.zeros((2, 3, 3))}, "holds ['other']"),
    ({"bsif": np.zeros((2, 3, 3)), "extra": np.zeros(1)}, "holds ['bsif', 'extra']"),
    ({"bsif": np.zeros((3, 3))}, "got (3, 3)"),
    ({"bsif": np.zeros((2, 3, 4))}, "got (2, 3, 4)"),
    ({"bsif": np.zeros((1, 1, 3, 3))}, "got (1, 1, 3, 3)"),
    ({"bsif": np.zeros((2, 4, 4))}, "must be odd, got shape (2, 4, 4)"),
], ids=["empty", "other-name", "extra-tensor", "2d", "not-square", "4d", "even"])
def test_filterbank_wrong_shape_store_names_path(tmp_path, tensors, why):
    path = tmp_path / "store.mkpt"
    gc.ParamStore(tensors).save(path)
    with pytest.raises(ValueError) as err:
        ft.FilterBank.load(path)
    assert str(err.value).startswith(f"{path}: not a BSIF filter bank")
    assert why in str(err.value)


# text-format banks and other bytes that are not an MKPT3 file
@pytest.mark.parametrize("body", [b"BSIF x 3\n0 0 0\n", b"BSIF 1 -1\n",
                                  b"BSIF 1 1\nabc\n", b"BSIF 1 1\n\xff\n",
                                  b"\xff\xfe", b"   \n\n",
                                  b"BSIF 1 1\nabc\nEND\n",
                                  b"BSIF 1 1\n\xff\nEND\n",
                                  b"BSIF 1 2\n0 0 0\nEND\n",
                                  b"BSIF 1 1\n0\nEND\n0\n"])
def test_filterbank_malformed_file_names_path(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(body)
    with pytest.raises(gc.GradcoreError, match="bad magic") as err:
        ft.FilterBank.load(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# landmark displacement


def test_displacement_zero_for_identical():
    l = rng(10).uniform(0, 100, size=(68, 2))
    np.testing.assert_array_equal(ft.landmark_displacement_feature(l, l),
                                  np.zeros(68))


def test_displacement_three_four_five():
    l = rng(11).uniform(0, 100, size=(10, 2))
    out = ft.landmark_displacement_feature(l, l + np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, 5.0, rtol=1e-12)


def test_displacement_matches_hand_computation():
    r = rng(12)
    a = r.uniform(0, 50, size=(6, 2))
    b = r.uniform(0, 50, size=(6, 2))
    expect = [np.hypot(*(a[i] - b[i])) for i in range(6)]
    np.testing.assert_allclose(ft.landmark_displacement_feature(a, b), expect,
                               rtol=1e-12)


def test_displacement_k_mismatch_errors():
    with pytest.raises(ValueError, match="mismatch"):
        ft.landmark_displacement_feature(np.zeros((5, 2)), np.zeros((6, 2)))
