"""Landmark geometry: thin-plate-spline fitting/warping, mining, alignment.

Landmark sets are (K, 2) float64 arrays of (x, y) pixel coordinates, index
order semantically stable (index i always names the same facial point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# standard 68-point anchor groups used for similarity alignment
LEFT_EYE_IDX = tuple(range(36, 42))
RIGHT_EYE_IDX = tuple(range(42, 48))
MOUTH_IDX = tuple(range(48, 68))


def _as_landmarks(lms):
    arr = np.asarray(lms, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"landmark set must be (K, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("landmark coordinates must be finite")
    return arr


def _kernel_matrix(pts_a, pts_b):
    """(M, K) matrix of U(r) = r^2 log(r^2), with U(0) = 0, between point sets.

    Built per axis, 1024 rows at a time: for a full pixel grid the per-block
    temporaries (~0.5 MB at K = 68) stay in cache, and a pass over the whole
    matrix for every elementwise step took twice as long.
    """
    out = np.zeros((pts_a.shape[0], pts_b.shape[0]))
    for start in range(0, pts_a.shape[0], 1024):
        rows = pts_a[start:start + 1024]
        r2 = rows[:, :1] - pts_b[:, 0]
        r2 *= r2
        dy = rows[:, 1:] - pts_b[:, 1]
        dy *= dy
        r2 += dy
        u = out[start:start + 1024]
        np.log(r2, out=u, where=r2 > 0)
        u *= r2
    return out


@dataclass
class TpsTransform:
    """Fitted thin-plate spline mapping the control points to their targets."""

    control_points: np.ndarray  # (K, 2)
    affine: np.ndarray          # (2, 3): per-axis (bias, x, y) coefficients
    kernel_weights: np.ndarray  # (K, 2)
    regularization: float = 0.0


def tps_fit(source, target, lam=0.0) -> TpsTransform:
    """Solve the TPS linear system mapping ``source`` onto ``target``.

    Uses the radial kernel U(r) = r^2 log(r^2); ``lam`` regularizes the
    kernel block.  Raises ValueError on singular systems (collinear or
    duplicate control points).
    """
    src = _as_landmarks(source)
    tgt = _as_landmarks(target)
    k = src.shape[0]
    if tgt.shape[0] != k:
        raise ValueError("source and target must have the same number of points")
    if k < 3:
        raise ValueError("TPS needs at least 3 control points")
    kernel = _kernel_matrix(src, src) + lam * np.eye(k)
    p = np.hstack([np.ones((k, 1)), src])
    lhs = np.zeros((k + 3, k + 3))
    lhs[:k, :k] = kernel
    lhs[:k, k:] = p
    lhs[k:, :k] = p.T
    rhs = np.zeros((k + 3, 2))
    rhs[:k] = tgt
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"singular TPS system (collinear or duplicate points): {err}")
    fit = TpsTransform(control_points=src, affine=sol[k:].T.copy(),
                       kernel_weights=sol[:k].copy(), regularization=lam)
    if lam == 0.0:
        resid = np.abs(tps_apply(fit, src) - tgt).max()
        if resid > 1e-3:
            raise ValueError(
                f"numerically singular TPS system (residual {resid:.2e} px)")
    return fit


def tps_apply(t: TpsTransform, p):
    """Map a point (2,) or point array (M, 2) through a fitted transform."""
    pts = np.asarray(p, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = _tps_map(t, pts, _kernel_matrix(pts, t.control_points))
    return out[0] if single else out


def _tps_map(t: TpsTransform, pts, u):
    """Mapped (M, 2) points, given their (M, K) kernel matrix ``u``."""
    return t.affine[:, 0] + pts @ t.affine[:, 1:].T + u @ t.kernel_weights


def _pixel_grid(h, w):
    """(h * w, 2) (x, y) coordinates of the pixels, row-major."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


def _grid_kernel_matrix(h, w, ctrl):
    """``_kernel_matrix`` of the row-major (h * w) pixel grid, byte-equal to it.

    On a grid (x - cx)^2 depends only on the column and (y - cy)^2 only on
    the row, so both squares come from (w, K) and (h, K) tables and r^2 costs
    one add per entry.  Blocks of whole rows, ~1024 entries each, keep the
    temporaries in cache.  The log runs unmasked: r^2 = 0 only where a
    control point sits on a pixel (both squares 0), and those few entries,
    -inf * 0 = nan, are set to U(0) = 0 afterwards.
    """
    k = ctrl.shape[0]
    dx2 = np.arange(w, dtype=np.float64)[:, None] - ctrl[:, 0]
    dx2 *= dx2
    dy2 = np.arange(h, dtype=np.float64)[:, None] - ctrl[:, 1]
    dy2 *= dy2
    out = np.zeros((h * w, k))
    step = max(1, 1024 // max(w, 1))
    buf = np.empty((step, w, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        for y0 in range(0, h, step):
            y1 = min(y0 + step, h)
            r2 = np.add(dx2, dy2[y0:y1, None, :], out=buf[:y1 - y0])
            u = out[y0 * w:y1 * w].reshape(r2.shape)
            np.log(r2, out=u)
            u *= r2
    for x, j in zip(*np.nonzero(dx2 == 0)):
        out[np.flatnonzero(dy2[:, j] == 0) * w + x, j] = 0.0
    return out


def _as_image(image):
    """``image`` as a float64 (H, W) or (H, W, C) array; other ranks raise."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise ValueError(f"image must be (H, W) or (H, W, C), got shape {img.shape}")
    return img


def _bilinear_sample(image, coords):
    """Sample an (H, W) or (H, W, C) image at (M, 2) float (x, y) coords.

    Out-of-range coords clamp to the edge.  Returns (M,) or (M, C).
    """
    image = _as_image(image)
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
    # the four taps are rows y * w + x of an (H * W[, C]) view
    flat = image.reshape(h * w, *image.shape[2:])
    row0 = y0i * w
    row1 = y1i * w
    if image.ndim == 3:
        fx = fx[:, None]
        fy = fy[:, None]
    top = flat.take(row0 + x0i, axis=0) * (1 - fx) + flat.take(row0 + x1i, axis=0) * fx
    bot = flat.take(row1 + x0i, axis=0) * (1 - fx) + flat.take(row1 + x1i, axis=0) * fx
    return top * (1 - fy) + bot * fy


def warp_image(image, source_lms, target_lms, delta=None, lam=0.0):
    """Warp ``image`` so features at ``source_lms`` move to ``target_lms + delta``.

    Inverse-mapped: fits a TPS from (target + delta) back to source and
    bilinearly samples the input at each output pixel, clamping out-of-bounds
    samples to the edge.  ``image`` is (H, W) or (H, W, C).
    """
    img = _as_image(image)
    src = _as_landmarks(source_lms)
    tgt = _as_landmarks(target_lms)
    if delta is not None:
        tgt = tgt + _as_landmarks(delta)
    fit = tps_fit(tgt, src, lam=lam)
    h, w = img.shape[:2]
    grid = _pixel_grid(h, w)
    coords = _tps_map(fit, grid, _grid_kernel_matrix(h, w, fit.control_points))
    return _bilinear_sample(img, coords).reshape(img.shape)


def sample_perturbation(rng, variance=3.0, k=68):
    """Draw (k, 2) i.i.d. zero-mean Gaussian landmark offsets.

    ``variance`` is the distribution's variance (std = sqrt(variance));
    0 gives exact zeros.
    """
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0:
        return np.zeros((k, 2))
    return rng.normal(0.0, np.sqrt(variance), size=(k, 2))


def nearest_neighbor(query, pool, exclude_class):
    """Index of the pool entry with closest landmarks, skipping one class.

    ``pool`` is a sequence of (landmarks, class) tuples; distance is the L2
    norm of the flattened coordinate difference.  Ties resolve to the lowest
    index.
    """
    q = _as_landmarks(query).ravel()
    best_idx = -1
    best_dist = np.inf
    for idx, (lms, cls) in enumerate(pool):
        if cls == exclude_class:
            continue
        d = _as_landmarks(lms).ravel() - q
        dist = np.sqrt((d * d).sum())
        if dist < best_dist:
            best_dist = dist
            best_idx = idx
    if best_idx < 0:
        raise ValueError(f"no pool entry outside class {exclude_class!r}")
    return best_idx


def phi_g(l, l_prime):
    """Normalized landmark displacement: ||l - l'|| / ||l - centroid(l)||."""
    a = _as_landmarks(l)
    b = _as_landmarks(l_prime)
    if a.shape != b.shape:
        raise ValueError("landmark sets must have equal K")
    denom = np.linalg.norm(a - a.mean(axis=0))
    if denom == 0:
        raise ValueError("degenerate landmarks: all points coincide")
    return float(np.linalg.norm(a - b) / denom)


def _similarity_fit(src, dst):
    """Least-squares similarity (rotation, uniform scale, translation)."""
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    sc = src - mu_s
    dc = dst - mu_d
    var_s = (sc * sc).sum() / src.shape[0]
    if var_s == 0:
        raise ValueError("degenerate landmark configuration for alignment")
    cov = dc.T @ sc / src.shape[0]
    u, d, vt = np.linalg.svd(cov)
    sign = np.eye(2)
    if np.linalg.det(u @ vt) < 0:
        sign[1, 1] = -1.0
    rot = u @ sign @ vt
    scale = (d * np.diag(sign)).sum() / var_s
    shift = mu_d - scale * rot @ mu_s
    return scale, rot, shift


def _anchor_points(lms):
    if lms.shape[0] == 68:
        return np.stack([lms[list(LEFT_EYE_IDX)].mean(axis=0),
                         lms[list(RIGHT_EYE_IDX)].mean(axis=0),
                         lms[list(MOUTH_IDX)].mean(axis=0)])
    return lms


def align_face(image, landmarks, template):
    """Similarity-align a face so eye/mouth centers match the template.

    The anchors are the standard 68-point eye/mouth group centers (all points
    when K != 68).  Returns (aligned image, aligned landmarks).
    """
    lms = _as_landmarks(landmarks)
    tpl = _as_landmarks(template)
    scale, rot, shift = _similarity_fit(_anchor_points(lms), _anchor_points(tpl))
    out_lms = (scale * (rot @ lms.T)).T + shift
    img = _as_image(image)
    h, w = img.shape[:2]
    grid = _pixel_grid(h, w)
    # inverse map: output pixel -> input coords
    inv = (rot.T @ ((grid - shift) / scale).T).T
    out_img = _bilinear_sample(img, inv).reshape(img.shape)
    return out_img, out_lms


def save_landmarks(path, lms):
    """Write one 'x y' line per landmark with exact float round-trip."""
    arr = _as_landmarks(lms)
    with open(path, "w") as f:
        for x, y in arr:
            f.write(f"{float(x)!r} {float(y)!r}\n")


def load_landmarks(path):
    """Read a file of 'x y' lines; blank lines are skipped.

    A line that is not two finite numbers, or a file with no landmark,
    raises ValueError naming the path (and the line).
    """
    pts = []
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, 1):
            fields = line.split()
            if not fields:
                continue
            try:
                x, y = map(float, fields)
            except ValueError:
                x = y = math.nan
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: expected two finite numbers "
                                 f"'x y', got {line.strip()!r}")
            pts.append((x, y))
    if not pts:
        raise ValueError(f"{path}: no landmarks")
    return _as_landmarks(pts)
