"""Face images, preprocessing, morph generation, triplets, synthetic data.

A face image is an (H, W, 3) float64 array with values in [-1, 1].  Images
are stored on disk as binary 8-bit PPM (P6); datasets are described by a CSV
manifest with columns ``path,subject_id,kind,source_a,source_b,landmarks_path``
where kind is "real" or "morph" (source columns empty for real images).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry

MANIFEST_COLUMNS = ("path", "subject_id", "kind", "source_a", "source_b",
                    "landmarks_path")


# ---------------------------------------------------------------------------
# PPM I/O and value-range helpers


def write_ppm(path, img_u8):
    arr = np.asarray(img_u8)
    if arr.dtype != np.uint8 or arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("write_ppm expects an (H, W, 3) uint8 array")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def read_ppm(path):
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        if pos == len(data):
            raise ValueError(f"{path}: truncated PPM header")
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    if not all(f.isdigit() for f in fields[1:]):
        raise ValueError(f"{path}: PPM width, height and maxval must be "
                         f"decimal integers, got {b' '.join(fields[1:])!r}")
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PPM supported")
    if len(data) - pos < w * h * 3:
        raise ValueError(f"{path}: truncated PPM pixel data: {w}x{h} needs "
                         f"{w * h * 3} bytes, file has {max(len(data) - pos, 0)}")
    pix = np.frombuffer(data, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pix.reshape(h, w, 3).copy()


def to_uint8(img):
    """Quantize a [-1, 1] float image to 8-bit."""
    return np.clip(np.rint((np.asarray(img) + 1.0) * 127.5), 0, 255).astype(np.uint8)


def from_uint8(raw):
    """Scale an 8-bit image to [-1, 1] floats (v / 127.5 - 1).

    One float64 copy, then both steps in place: the same two roundings.
    """
    v = np.array(raw, dtype=np.float64)
    v /= 127.5
    v -= 1.0
    return v


def save_face(path, img):
    write_ppm(path, to_uint8(img))


def load_face(path):
    return from_uint8(read_ppm(path))


# ---------------------------------------------------------------------------
# preprocessing


def bilinear_resize(img, out_h, out_w):
    """Half-pixel-center bilinear resize of an (H, W, C) float array."""
    arr = np.asarray(img, dtype=np.float64)
    h, w = arr.shape[:2]
    if h == 0 or w == 0 or out_h <= 0 or out_w <= 0:
        raise ValueError("zero-dimension image in resize")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    gx, gy = np.meshgrid(xs, ys)
    coords = np.stack([gx.ravel(), gy.ravel()], axis=1)
    out = geometry._bilinear_sample(arr, coords)
    return out.reshape(out_h, out_w, *arr.shape[2:])


def normalize_image(raw, size=112):
    """8-bit RGB image -> bilinear resize to size x size, scaled to [-1, 1]."""
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3 or 0 in arr.shape:
        raise ValueError("normalize_image expects a nonempty (H, W, 3) image")
    return bilinear_resize(arr, size, size) / 127.5 - 1.0


def alpha_blend(a, b, alpha):
    """(1 - alpha) * a + alpha * b, clamped to [-1, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return np.clip((1.0 - alpha) * a + alpha * b, -1.0, 1.0)


# ---------------------------------------------------------------------------
# morphs


@dataclass
class MorphRecord:
    image: np.ndarray
    landmarks: np.ndarray
    alpha_warp: float
    alpha_blend: float


def _convex_hull(points):
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return np.asarray(pts, dtype=np.float64)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1], dtype=np.float64)


def face_mask(landmarks, h, w):
    """Boolean (H, W) mask of pixels inside the landmark convex hull."""
    hull = _convex_hull(np.asarray(landmarks, dtype=np.float64))
    xs, ys = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    inside = np.ones((h, w), dtype=bool)
    n = len(hull)
    for i in range(n):
        ax, ay = hull[i]
        bx, by = hull[(i + 1) % n]
        inside &= (bx - ax) * (ys - ay) - (by - ay) * (xs - ax) >= 0
    return inside


def generate_morph(img_a, lms_a, img_b, lms_b, alpha_warp=0.5, alpha=0.5,
                   splice_into=None) -> MorphRecord:
    """Landmark-based morph: warp toward averaged landmarks, then blend.

    Target landmarks are (1 - alpha_warp) * lms_a + alpha_warp * lms_b.  Both
    images are warped to the target before blending.
    ``splice_into`` ("a" or "b") optionally restricts the blend to the convex
    hull of the morph landmarks, keeping that source image elsewhere.
    """
    img_a = np.asarray(img_a, dtype=np.float64)
    img_b = np.asarray(img_b, dtype=np.float64)
    if img_a.shape != img_b.shape:
        raise ValueError("morph source images must share dimensions")
    la = np.asarray(lms_a, dtype=np.float64)
    lb = np.asarray(lms_b, dtype=np.float64)
    if la.shape != lb.shape:
        raise ValueError("morph source landmark sets must share K")
    target = (1.0 - alpha_warp) * la + alpha_warp * lb
    warped_a = geometry.warp_image(img_a, la, target)
    warped_b = geometry.warp_image(img_b, lb, target)
    blended = alpha_blend(warped_a, warped_b, alpha)
    if splice_into is not None:
        base = img_a if splice_into == "a" else img_b
        mask = face_mask(target, *img_a.shape[:2])[:, :, None]
        blended = np.where(mask, blended, base)
    return MorphRecord(image=blended, landmarks=target, alpha_warp=alpha_warp,
                       alpha_blend=alpha)


# ---------------------------------------------------------------------------
# triplets


@dataclass
class Triplet:
    """Stage-1 training item: appearance / landmark / intermediate images."""

    appearance: np.ndarray     # x_i
    landmark_image: np.ndarray  # x'_i
    intermediate: np.ndarray   # x_hat_i = appearance warped onto l' + delta
    label_a: object            # y_i
    label_g: object            # y'_i
    lms_a: np.ndarray          # l_i
    lms_g: np.ndarray          # l'_i
    delta: np.ndarray


def build_triplet(image, lms, label, pool, rng, variance=3.0) -> Triplet:
    """Mine the nearest other-class neighbor and warp onto its landmarks.

    ``pool`` entries are (image, landmarks, label); the neighbor is picked by
    L2 landmark distance, excluding ``label``'s class.
    """
    lms = np.asarray(lms, dtype=np.float64)
    idx = geometry.nearest_neighbor(
        lms, [(p[1], p[2]) for p in pool], exclude_class=label)
    other_img, other_lms, other_label = pool[idx]
    delta = geometry.sample_perturbation(rng, variance, k=lms.shape[0])
    intermediate = geometry.warp_image(image, lms, other_lms, delta=delta)
    return Triplet(appearance=np.asarray(image, dtype=np.float64),
                   landmark_image=np.asarray(other_img, dtype=np.float64),
                   intermediate=intermediate, label_a=label,
                   label_g=other_label, lms_a=lms,
                   lms_g=np.asarray(other_lms, dtype=np.float64), delta=delta)


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass(frozen=True)
class SynthConfig:
    subjects: int = 20
    captures: int = 3
    morphs_per_subject: int = 2
    seed: int = 0
    size: int = 112
    landmark_jitter: float = 1.0   # per-capture jitter std (px)
    brightness_jitter: float = 0.08
    alpha_warp: float = 0.5
    alpha_blend: float = 0.5


@dataclass
class DatasetRow:
    path: str
    subject_id: str
    kind: str
    source_a: str
    source_b: str
    landmarks_path: str


def canonical_landmarks(size=112):
    """A 68-point face layout in the standard index order.

    Jaw 0-16, brows 17-26, nose 27-35, eyes 36-47, mouth 48-67; coordinates
    are (x, y) with y down, scaled to the given image size.
    """
    s = size / 112.0
    pts = []
    # jaw: half ellipse from left temple around the chin
    theta = np.linspace(np.pi, 2 * np.pi, 17)
    pts += [(56 + 34 * np.cos(t), 50 - 44 * np.sin(t)) for t in theta]
    # brows
    for x0, x1 in ((30, 48), (64, 82)):
        xs = np.linspace(x0, x1, 5)
        pts += [(x, 38 - 3 * np.sin(np.pi * i / 4)) for i, x in enumerate(xs)]
    # nose bridge and base
    pts += [(56, y) for y in np.linspace(44, 62, 4)]
    pts += [(48 + 4 * i, 66 + (2 - abs(i - 2))) for i in range(5)]
    # eyes: six points each, outer corner first, clockwise
    for cx in (39, 73):
        ang = np.deg2rad([180, 120, 60, 0, 300, 240])
        pts += [(cx + 7 * np.cos(a), 46 - 3.5 * np.sin(a)) for a in ang]
    # mouth: outer ring of 12, inner ring of 8
    ang = np.deg2rad(np.arange(180, -180, -30))
    pts += [(56 + 14 * np.cos(a), 78 - 7 * np.sin(a)) for a in ang]
    ang = np.deg2rad(np.arange(180, -180, -45))
    pts += [(56 + 9 * np.cos(a), 78 - 3.5 * np.sin(a)) for a in ang]
    return np.asarray(pts, dtype=np.float64) * s


def _smooth_field(rng, size, cells=8, amplitude=0.35):
    coarse = rng.normal(0.0, 1.0, size=(cells, cells, 3))
    field = bilinear_resize(coarse, size, size)
    return amplitude * field / max(np.abs(field).max(), 1e-9)


def _subject_face(rng, size, template):
    """Per-subject (base image, landmark template) with texture+geometry identity."""
    ang = rng.uniform(-0.15, 0.15)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = rng.uniform(0.85, 1.15, size=2)
    shift = rng.uniform(-4.0, 4.0, size=2)
    center = template.mean(axis=0)
    lms = ((template - center) * scale) @ rot.T + center + shift
    lms += rng.normal(0.0, 2.0, size=lms.shape)
    lms = np.clip(lms, 3.0, size - 4.0)

    xs, ys = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64))
    # face oval brighter than background
    e = np.sqrt(((xs - center[0]) / (0.38 * size)) ** 2
                + ((ys - (center[1] - 0.03 * size)) / (0.47 * size)) ** 2)
    base = 0.30 - 0.85 / (1.0 + np.exp(-(e - 1.0) * 10.0))
    img = base[:, :, None] + _smooth_field(rng, size)
    img += rng.uniform(-0.15, 0.15, size=3)  # subject tint
    # landmark-anchored dark blobs: eyes, nose tip, mouth, brow mids
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
    return np.clip(img, -0.95, 0.95), lms


def synth_dataset(config: SynthConfig, out_dir) -> list[DatasetRow]:
    """Generate a deterministic parametric face dataset on disk.

    Writes PPM images, landmark files, and ``manifest.csv`` under ``out_dir``;
    returns the manifest rows.  Morph sources are stored in their quantized
    on-disk form before morphing, so re-running :func:`generate_morph` from
    the named files reproduces each stored morph exactly.
    """
    if config.subjects < 2:
        raise ValueError("need >= 2 subjects")
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "landmarks").mkdir(parents=True, exist_ok=True)
    template = canonical_landmarks(config.size)
    rows: list[DatasetRow] = []
    subject_lms = []
    captures = {}  # subject index -> list of (image path, lms path)

    for s in range(config.subjects):
        rng = np.random.Generator(np.random.PCG64([config.seed, s]))
        base, lms = _subject_face(rng, config.size, template)
        subject_lms.append(lms)
        sid = f"s{s:03d}"
        captures[s] = []
        for c in range(config.captures):
            cap_lms = lms + rng.normal(0.0, config.landmark_jitter,
                                       size=lms.shape)
            img = geometry.warp_image(base, lms, cap_lms)
            img = np.clip(img + rng.uniform(-config.brightness_jitter,
                                            config.brightness_jitter), -1.0, 1.0)
            img_rel = f"images/{sid}_c{c}.ppm"
            lms_rel = f"landmarks/{sid}_c{c}.txt"
            save_face(out / img_rel, img)
            geometry.save_landmarks(out / lms_rel, cap_lms)
            captures[s].append((img_rel, lms_rel))
            rows.append(DatasetRow(img_rel, sid, "real", "", "", lms_rel))

    morph_idx = 0
    for s in range(config.subjects):
        partner = geometry.nearest_neighbor(
            subject_lms[s],
            [(subject_lms[j], j) for j in range(config.subjects)],
            exclude_class=s)
        sid, pid = f"s{s:03d}", f"s{partner:03d}"
        for m in range(config.morphs_per_subject):
            ca = captures[s][m % config.captures]
            cb = captures[partner][(m + m // config.captures)
                                   % config.captures]
            img_a = load_face(out / ca[0])
            lms_a = geometry.load_landmarks(out / ca[1])
            img_b = load_face(out / cb[0])
            lms_b = geometry.load_landmarks(out / cb[1])
            rec = generate_morph(img_a, lms_a, img_b, lms_b,
                                 config.alpha_warp, config.alpha_blend)
            img_rel = f"images/m{morph_idx:03d}_{sid}_{pid}.ppm"
            lms_rel = f"landmarks/m{morph_idx:03d}_{sid}_{pid}.txt"
            save_face(out / img_rel, rec.image)
            geometry.save_landmarks(out / lms_rel, rec.landmarks)
            rows.append(DatasetRow(img_rel, sid, "morph", sid, pid, lms_rel))
            morph_idx += 1

    write_manifest(out / "manifest.csv", rows)
    return rows


def write_manifest(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MANIFEST_COLUMNS)
        for r in rows:
            writer.writerow([r.path, r.subject_id, r.kind, r.source_a,
                             r.source_b, r.landmarks_path])


def load_manifest(path):
    """The rows of a manifest written by :func:`write_manifest`.

    A wrong header, a row with missing or extra fields, or a kind other than
    'real' or 'morph' raises ValueError naming the path and the line.
    """
    path = Path(path)
    rows = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if tuple(header or ()) != MANIFEST_COLUMNS:
            raise ValueError(f"{path}: unexpected manifest header {header}")
        for rec in reader:
            if not rec:
                continue
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(MANIFEST_COLUMNS):
                raise ValueError(f"{where}: expected {len(MANIFEST_COLUMNS)} "
                                 f"fields, got {len(rec)}")
            row = DatasetRow(*rec)
            if row.kind not in ("real", "morph"):
                raise ValueError(f"{where}: kind must be 'real' or 'morph', "
                                 f"got {row.kind!r}")
            rows.append(row)
    return rows
