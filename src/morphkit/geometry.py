"""Landmark geometry: thin-plate-spline fitting/warping, mining, landmark files.

Landmark sets are (K, 2) float64 arrays of (x, y) pixel coordinates, index
order semantically stable (index i always names the same facial point).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gradcore as gc


def _as_landmarks(lms):
    arr = np.asarray(lms, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"landmark set must be (K, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("landmark coordinates must be finite")
    return arr


def _kernel_matrix(pts_a, pts_b):
    """(M, K) matrix of U(r) = r^2 log(r^2), with U(0) = 0, between point sets."""
    r2 = pts_a[:, :1] - pts_b[:, 0]
    r2 *= r2
    dy = pts_a[:, 1:] - pts_b[:, 1]
    dy *= dy
    r2 += dy
    out = np.zeros_like(r2)
    np.log(r2, out=out, where=r2 > 0)
    out *= r2
    return out


@dataclass
class TpsTransform:
    """Fitted thin-plate spline mapping the control points to their targets."""

    control_points: np.ndarray  # (K, 2)
    affine: np.ndarray          # (2, 3): per-axis (bias, x, y) coefficients
    kernel_weights: np.ndarray  # (K, 2)


def tps_fit(source, target) -> TpsTransform:
    """Solve the TPS linear system mapping ``source`` onto ``target``.

    Uses the radial kernel U(r) = r^2 log(r^2).  Raises ValueError on
    singular systems (collinear or duplicate control points), and on
    numerically singular ones whose fit misses a target by over 1e-3 px.
    Two coinciding control points are refused before the solve, which
    rounding may let through with huge, cancelling kernel weights.
    """
    src = _as_landmarks(source)
    tgt = _as_landmarks(target)
    k = src.shape[0]
    if tgt.shape[0] != k:
        raise ValueError("source and target must have the same number of points")
    if k < 3:
        raise ValueError("TPS needs at least 3 control points")
    same = (src[:, :1] == src[:, 0]) & (src[:, 1:] == src[:, 1])
    if np.count_nonzero(same) > k:  # more than the diagonal
        i, j = np.argwhere(np.triu(same, 1))[0]
        raise ValueError(f"singular TPS system: control points {i} and {j} "
                         f"coincide at {tuple(src[i].tolist())}")
    p = np.hstack([np.ones((k, 1)), src])
    u = _kernel_matrix(src, src)
    lhs = np.zeros((k + 3, k + 3))
    lhs[:k, :k] = u
    lhs[:k, k:] = p
    lhs[k:, :k] = p.T
    rhs = np.zeros((k + 3, 2))
    rhs[:k] = tgt
    try:
        sol = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as err:
        raise ValueError(f"singular TPS system (collinear or duplicate points): {err}")
    fit = TpsTransform(control_points=src, affine=sol[k:].T.copy(),
                       kernel_weights=sol[:k].copy())
    resid = np.abs(_tps_map(fit, src, u) - tgt).max()
    if resid > 1e-3:
        raise ValueError(f"numerically singular TPS system (residual {resid:.2e} px)")
    return fit


def tps_apply(t: TpsTransform, p):
    """Map a point (2,) or point array (M, 2) through a fitted transform."""
    pts = np.asarray(p, dtype=np.float64)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    out = _tps_map(t, pts, _kernel_matrix(pts, t.control_points))
    return out[0] if single else out


def _tps_map(t: TpsTransform, pts, u):
    """Mapped (M, 2) points, given their (M, K) kernel matrix ``u``.

    (bias + pts @ A) + u @ W, with each axis's bias added to its column as a
    scalar rather than broadcast as a 2-wide row.
    """
    out = pts @ t.affine[:, 1:].T
    for axis in range(2):
        out[:, axis] += t.affine[axis, 0]
    out += u @ t.kernel_weights
    return out


@functools.lru_cache(maxsize=8)
def _pixel_grid(h, w):
    """(h * w, 2) (x, y) coordinates of the pixels, row-major; one read-only
    array per (h, w), shared by every warp of that size."""
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    grid.flags.writeable = False
    return grid


def _grid_kernel_matrix(h, w, ctrl):
    """``_kernel_matrix`` of the row-major (h * w) pixel grid, byte-equal to it.

    On a grid (x - cx)^2 depends only on the column and (y - cy)^2 only on
    the row, so both squares come from (w, K) and (h, K) tables and r^2 costs
    one add per entry.  The rows are filled in blocks of ~512 entries, which
    keeps the temporaries in cache.  The caller and the worker thread
    (``gradcore._in_parallel``) take blocks from one shared iterator until
    none is left, each with its own scratch; every entry gets the same add,
    log and multiply on either thread, so the bytes do not depend on which
    thread fills which block.  The output is not zero-filled first: the
    blocks write every entry.  The log runs unmasked: r^2 = 0 only where a
    control point sits on a pixel (both squares 0), and those few entries,
    -inf * 0 = nan, are set to U(0) = 0 once every block is done.
    """
    k = ctrl.shape[0]
    dx2 = np.arange(w, dtype=np.float64)[:, None] - ctrl[:, 0]
    dx2 *= dx2
    dy2 = np.arange(h, dtype=np.float64)[:, None] - ctrl[:, 1]
    dy2 *= dy2
    out = np.empty((h * w, k))
    step = max(1, 512 // max(w, 1))
    buf = np.empty((2, step, w, k))
    blocks = iter(range(0, h, step))
    with np.errstate(divide="ignore", invalid="ignore"):
        gc._in_parallel(lambda: _grid_kernel_rows(dx2, dy2, out, buf[1], blocks),
                        lambda: _grid_kernel_rows(dx2, dy2, out, buf[0], blocks))
    for x, j in zip(*np.nonzero(dx2 == 0)):
        out[np.flatnonzero(dy2[:, j] == 0) * w + x, j] = 0.0
    return out


def _grid_kernel_rows(dx2, dy2, out, buf, blocks):
    """Fill the block of ``len(buf)`` rows of ``out`` that starts at each
    row ``blocks`` yields.  Taking the next item of a range iterator is
    atomic, so two threads that share ``blocks`` fill each block once."""
    w, h, step = len(dx2), len(dy2), len(buf)
    for r0 in blocks:
        r1 = min(r0 + step, h)
        r2 = np.add(dx2, dy2[r0:r1, None, :], out=buf[:r1 - r0])
        u = out[r0 * w:r1 * w].reshape(r2.shape)
        np.log(r2, out=u)
        u *= r2


def _as_image(image):
    """``image`` as a float64 (H, W, C) array; other ranks raise."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise ValueError(f"image must be (H, W, C), got shape {img.shape}")
    return img


def _bilinear_sample(image, coords):
    """Sample an (H, W, C) image at (M, 2) float (x, y) coords.

    Out-of-range coords clamp to the edge.  The four taps of each point are
    gathered from one C-contiguous (C, H * W) copy of the image, a plane per
    channel, and interpolated with (M,) weight vectors; an image that is
    already channel-major in memory (an (H, W, C) view of (C, H, W) data) is
    not copied.  Returns (M, C) as a view of (C, M) memory.
    """
    image = _as_image(image)
    h, w, c = image.shape
    planes = np.ascontiguousarray(np.moveaxis(image, 2, 0)).reshape(c, h * w)
    x = np.clip(coords[:, 0], 0.0, w - 1.0)
    y = np.clip(coords[:, 1], 0.0, h - 1.0)
    x0 = np.floor(x)
    y0 = np.floor(y)
    fx = x - x0
    fy = y - y0
    # the four taps are columns idx, idx + sx, idx + sy and idx + sy + sx of
    # the planes; a step is 0 on the last row or column (edge clamp)
    x0i = x0.astype(np.int64)
    y0i = y0.astype(np.int64)
    idx = y0i * w + x0i
    sx = (x0i < w - 1).astype(np.int64)
    sy = (y0i < h - 1) * w
    gx = 1 - fx

    def lerp_x(col):  # taps col and col + sx, weighted 1 - fx and fx
        out = planes.take(col, axis=1)
        out *= gx
        right = planes.take(col + sx, axis=1)
        right *= fx
        out += right
        return out

    top = lerp_x(idx)
    bot = lerp_x(idx + sy)
    top *= 1 - fy
    bot *= fy
    top += bot
    return top.T


def warp_image(image, source_lms, target_lms):
    """Warp ``image`` so features at ``source_lms`` move to ``target_lms``:
    the one-image case of :func:`warp_images`."""
    return warp_images([(image, source_lms)], target_lms)[0]


def warp_images(sources, target_lms):
    """Warp each ``(image, source_lms)`` so its landmarks move to ``target_lms``.

    Inverse-mapped: fits one TPS per source from the target back to its
    landmarks and bilinearly samples that image at each output pixel,
    clamping out-of-bounds samples to the edge.  Images are (H, W, C) and
    share (H, W); the pixel grid and its kernel matrix depend
    only on the target, so they are built once for all sources.  Returns the
    warped images in order, each byte-equal to warping that image alone.
    Each result is a view of channel-major (C, H, W) memory, as
    :func:`_bilinear_sample` returns it, and a channel-major input is
    sampled without a copy.
    """
    imgs = [_as_image(image) for image, _ in sources]
    if len({img.shape[:2] for img in imgs}) != 1:
        raise ValueError("warp_images needs one or more images sharing (H, W), "
                         f"got shapes {[img.shape for img in imgs]}")
    tgt = _as_landmarks(target_lms)
    fits = [tps_fit(tgt, lms) for _, lms in sources]
    h, w = imgs[0].shape[:2]
    grid = _pixel_grid(h, w)
    u = _grid_kernel_matrix(h, w, tgt)
    return [_bilinear_sample(img, _tps_map(fit, grid, u)).reshape(img.shape)
            for img, fit in zip(imgs, fits)]


def nearest_neighbor(query, pool, exclude_class):
    """Index of the pool entry with closest landmarks, skipping one class.

    ``pool`` is a sequence of (landmarks, class) tuples; distance is the L2
    norm of the flattened coordinate difference.  Ties resolve to the lowest
    index.  An entry whose landmark count K is not the query's raises
    ValueError naming its index and both counts, before any distance.
    """
    q = _as_landmarks(query).ravel()
    sets = [_as_landmarks(lms).ravel() for lms, _ in pool]
    for idx, flat in enumerate(sets):
        if flat.size != q.size:
            raise ValueError(f"pool entry {idx} has {flat.size // 2} landmarks, "
                             f"the query has {q.size // 2}")
    keep = [idx for idx, (_, cls) in enumerate(pool) if cls != exclude_class]
    if not keep:
        raise ValueError(f"no pool entry outside class {exclude_class!r}")
    # each row sums in a 1-D sum's pairwise order, and argmin takes the first
    # of equal minima
    d = np.stack([sets[idx] for idx in keep]) - q
    return keep[int(np.argmin(np.sqrt((d * d).sum(axis=1))))]


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


def save_landmarks(path, lms):
    """Write one 'x y' line per landmark with exact float round-trip."""
    text = "".join(f"{x!r} {y!r}\n" for x, y in _as_landmarks(lms).tolist())
    with open(path, "w") as f:
        f.write(text)


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
