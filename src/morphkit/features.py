"""Classical texture and landmark descriptors for the detection baselines.

Histogram descriptors are L1-normalized float64 vectors.  Grayscale
conversion is the unweighted channel mean throughout.  A BSIF filter bank
file is one MKPT3 ``gradcore.ParamStore`` whose only tensor, ``bsif``, holds
the (n_filters, size, size) coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gradcore as gc

# neighbor offsets (dy, dx) clockwise from top-left; bit b gets weight 2**b
_LBP_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, 1),
                (1, 1), (1, 0), (1, -1), (0, -1))


def grayscale(image):
    arr = np.asarray(image, dtype=np.float64)
    return arr.mean(axis=2) if arr.ndim == 3 else arr


def lbp_histogram(image):
    """Normalized 256-bin histogram of 3x3 local binary pattern codes.

    Bit b of a pixel's code is set iff the b-th clockwise neighbor (starting
    top-left) is >= the center; codes are taken over interior pixels only.
    """
    g = grayscale(image)
    if g.shape[0] < 3 or g.shape[1] < 3:
        raise ValueError("image smaller than 3x3")
    center = g[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.int64)
    for bit, (dy, dx) in enumerate(_LBP_OFFSETS):
        nb = g[1 + dy:g.shape[0] - 1 + dy, 1 + dx:g.shape[1] - 1 + dx]
        codes |= (nb >= center).astype(np.int64) << bit
    hist = np.bincount(codes.ravel(), minlength=256).astype(np.float64)
    return hist / hist.sum()


@dataclass
class FilterBank:
    """Zero-mean linear filters for BSIF coding, shaped (n_filters, size, size).

    ``size`` is odd, so each filter has a center pixel and same-padding by
    ``size // 2`` gives one response per pixel.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        shape = self.coefficients.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"BSIF coefficients must be (n, k, k), got {shape}")
        if shape[1] % 2 == 0:
            raise ValueError(f"BSIF filter size k must be odd, got shape {shape}")

    @property
    def n_filters(self):
        return self.coefficients.shape[0]

    @property
    def size(self):
        return self.coefficients.shape[1]

    def save(self, path):
        gc.ParamStore({"bsif": self.coefficients}).save(path)

    @classmethod
    def load(cls, path):
        """A cut or corrupt file raises GradcoreError, a valid MKPT3 file with
        anything but one (n, k, k) tensor ``bsif`` of odd k ValueError, naming
        ``path``."""
        tensors = gc.ParamStore.load(path).tensors
        try:
            if list(tensors) != ["bsif"]:
                raise ValueError(f"holds {sorted(tensors)}, not one tensor 'bsif'")
            return cls(tensors["bsif"])
        except ValueError as err:
            raise ValueError(f"{path}: not a BSIF filter bank: {err}") from None


def bsif_code(image, bank: FilterBank):
    """Normalized histogram over 2^n binary filter-response codes.

    Filters are correlated with the grayscale image under edge-replicate
    same-padding (zero-mean filters then null constant offsets everywhere,
    borders included); bit b is set iff response_b > 0.
    """
    if bank.n_filters < 1:
        raise ValueError("empty filter bank")
    if bank.n_filters > 16:
        raise ValueError("at most 16 filters supported")
    g = grayscale(image)
    pad = bank.size // 2
    gp = np.pad(g, pad, mode="edge")
    win = np.lib.stride_tricks.sliding_window_view(gp, (bank.size, bank.size))
    codes = np.zeros(g.shape, dtype=np.int64)
    for bit in range(bank.n_filters):
        resp = np.einsum("hwij,ij->hw", win, bank.coefficients[bit])
        codes |= (resp > 0).astype(np.int64) << bit
    hist = np.bincount(codes.ravel(),
                       minlength=2 ** bank.n_filters).astype(np.float64)
    return hist / hist.sum()


def _symmetric_decorrelate(w):
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    return u @ vt


def train_filterbank(patches, n_filters=8, seed=0, max_iter=500,
                     tol=1e-6) -> FilterBank:
    """Learn ICA-style filters from grayscale patches.

    Patches are DC-removed and feature-centered, PCA-whitened down to
    ``n_filters`` components, then rotated by fixed-point ICA with the cubic
    nonlinearity and symmetric decorrelation.
    """
    x = np.asarray(patches, dtype=np.float64)
    if x.ndim == 3:
        size = x.shape[1]
        x = x.reshape(x.shape[0], -1)
    else:
        size = int(round(np.sqrt(x.shape[1])))
    n = x.shape[0]
    if n < 100 * n_filters:
        raise ValueError(f"need at least {100 * n_filters} patches, got {n}")
    x = x - x.mean(axis=1, keepdims=True)   # per-patch DC
    x = x - x.mean(axis=0, keepdims=True)   # per-dimension mean
    cov = x.T @ x / n
    eigval, eigvec = np.linalg.eigh(cov)
    order = np.argsort(eigval)[::-1][:n_filters]
    lead, vecs = eigval[order], eigvec[:, order]
    if lead[-1] <= 1e-10 * max(lead[0], 1e-30):
        raise ValueError(f"patch covariance rank below {n_filters}")
    whiten = (vecs / np.sqrt(lead)).T          # (n_filters, dim)
    z = x @ whiten.T                           # whitened components
    rng = np.random.Generator(np.random.PCG64(seed))
    w = _symmetric_decorrelate(rng.normal(size=(n_filters, n_filters)))
    for _ in range(max_iter):
        wz = z @ w.T
        w_new = (wz ** 3).T @ z / n - 3.0 * w
        w_new = _symmetric_decorrelate(w_new)
        delta = 1.0 - np.abs(np.diag(w_new @ w.T)).min()
        w = w_new
        if delta < tol:
            break
    filters = w @ whiten
    filters -= filters.mean(axis=1, keepdims=True)  # enforce exact zero mean
    return FilterBank(filters.reshape(n_filters, size, size))


def sample_patches(images, size, per_image, rng):
    """Random grayscale patches from a list of images, stacked (N, size, size).

    A ``size`` below 1 or larger than an image raises ValueError naming both.
    """
    out = []
    for img in images:
        g = grayscale(img)
        if not 1 <= size <= min(g.shape):
            raise ValueError(f"patch size {size} does not fit an image of "
                             f"shape {np.shape(img)}")
        ys = rng.integers(0, g.shape[0] - size + 1, per_image)
        xs = rng.integers(0, g.shape[1] - size + 1, per_image)
        for y, x in zip(ys, xs):
            out.append(g[y:y + size, x:x + size])
    return np.asarray(out)


def landmark_displacement_feature(l_i, l_j):
    """Per-landmark Euclidean distances between two aligned landmark sets."""
    a = np.asarray(l_i, dtype=np.float64)
    b = np.asarray(l_j, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"landmark K mismatch: {a.shape} vs {b.shape}")
    return np.linalg.norm(a - b, axis=1)
