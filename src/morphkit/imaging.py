"""Face images, preprocessing, morph generation, triplets, synthetic data.

A face image is processed as an (H, W, 3) float64 array with values in
[-1, 1].  That is its shape, not always its memory order: a warped or
synthesised face is an (H, W, 3) view of channel-major (3, H, W) memory,
as :func:`geometry.warp_images` returns it, and elementwise steps keep that
order.  Images are stored on disk as binary 8-bit PPM (P6), which
:func:`read_ppm` reads as (H, W, 3) uint8 arrays.  Training holds its faces
as (3, H, W) uint8 planes, building one float32 batch at a time whose values
are :func:`from_uint8`'s rounded once.  Datasets are described by a CSV
manifest with one column per :class:`DatasetRow` field, in order, where kind
is "real" or "morph" (source columns empty for real images).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import geometry, gradcore as gc


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
    """Quantize a [-1, 1] float image to 8-bit; values past the range, -inf
    and +inf included, clip to 0 or 255.  A NaN value raises ValueError
    giving the number of pixels that hold one."""
    arr = np.asarray(img)
    nan = np.isnan(arr)
    if nan.any():
        pixels = np.count_nonzero(nan.any(axis=2) if arr.ndim == 3 else nan)
        raise ValueError(f"cannot quantize an image with NaN values: "
                         f"{pixels} NaN pixel(s)")
    return np.clip(np.rint((arr + 1.0) * 127.5), 0, 255).astype(np.uint8)


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


def generate_morph(img_a, lms_a, img_b, lms_b, alpha_warp=0.5,
                   alpha=0.5) -> MorphRecord:
    """Landmark-based morph: warp toward averaged landmarks, then blend.

    Target landmarks are (1 - alpha_warp) * lms_a + alpha_warp * lms_b.  Both
    images are warped to the target, in one :func:`geometry.warp_images`
    call, before blending.  ``alpha_warp`` outside [0, 1], or NaN, raises
    ValueError, as ``alpha`` does in :func:`alpha_blend`.  ``synth_dataset``
    morphs at the 0.5/0.5 defaults; both alphas stay parameters for ROADMAP
    item 7, whose morph methods call this with other values.
    """
    if not 0.0 <= alpha_warp <= 1.0:
        raise ValueError(f"alpha_warp must lie in [0, 1], got {alpha_warp!r}")
    img_a = np.asarray(img_a, dtype=np.float64)
    img_b = np.asarray(img_b, dtype=np.float64)
    if img_a.shape != img_b.shape:
        raise ValueError("morph source images must share dimensions")
    la = np.asarray(lms_a, dtype=np.float64)
    lb = np.asarray(lms_b, dtype=np.float64)
    if la.shape != lb.shape:
        raise ValueError("morph source landmark sets must share K")
    target = (1.0 - alpha_warp) * la + alpha_warp * lb
    warped_a, warped_b = geometry.warp_images([(img_a, la), (img_b, lb)], target)
    return MorphRecord(image=alpha_blend(warped_a, warped_b, alpha), landmarks=target)


# ---------------------------------------------------------------------------
# triplets

# variance of the i.i.d. Gaussian landmark offsets delta (px^2)
DELTA_VARIANCE = 3.0


@dataclass
class Triplet:
    """A drawn stage-1 item: which pool entries give x_i and x'_i, their
    labels and landmarks, and the offsets delta of x_hat_i's target."""

    index_a: int               # pool index of x_i
    index_g: int               # pool index of x'_i
    label_a: object            # y_i; training passes class indices
    label_g: object            # y'_i, of another class than y_i
    lms_a: np.ndarray          # l_i
    lms_g: np.ndarray          # l'_i
    delta: np.ndarray


def draw_triplet(pool, index, rng) -> Triplet:
    """Mine the nearest other-class neighbor of ``pool[index]`` and draw delta.

    ``pool`` entries are (landmarks, label); the neighbor is picked by L2
    landmark distance, excluding the entry's own class.  delta is one draw
    from ``rng`` of (K, 2) offsets with variance :data:`DELTA_VARIANCE` per
    coordinate, and nothing else is drawn.
    """
    lms, label = pool[index]
    lms = np.asarray(lms, dtype=np.float64)
    neighbor = geometry.nearest_neighbor(lms, pool, exclude_class=label)
    other_lms, other_label = pool[neighbor]
    delta = rng.normal(0.0, np.sqrt(DELTA_VARIANCE), size=(lms.shape[0], 2))
    return Triplet(index_a=index, index_g=neighbor, label_a=label,
                   label_g=other_label, lms_a=lms,
                   lms_g=np.asarray(other_lms, dtype=np.float64), delta=delta)


def build_triplet(image, triplet: Triplet):
    """The intermediate x_hat_i of a drawn triplet: ``image`` (x_i as a float
    face) warped from l_i onto the target l'_i + delta, formed here."""
    return geometry.warp_image(image, triplet.lms_a,
                               triplet.lms_g + triplet.delta)


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass(frozen=True)
class SynthConfig:
    """The size of a synthetic set: ``subjects`` with ``captures`` each,
    ``morphs_per_subject`` morphs each, drawn from ``seed`` at ``size`` px.

    The image model is fixed: each capture warps its subject's face by a
    1 px (sigma) landmark jitter and shifts its brightness by up to +-0.08,
    and each morph is :func:`generate_morph` at alphas 0.5/0.5.  ROADMAP
    items 4 and 7 replace that model with structured fields.
    """

    subjects: int = 20
    captures: int = 3
    morphs_per_subject: int = 2
    seed: int = 0
    size: int = 112

    def __post_init__(self):
        # below 8 px ``_subject_landmarks`` clips every landmark into
        # [3, size - 4], at most one pixel wide
        for name, least in (("subjects", 2), ("captures", 1),
                            ("morphs_per_subject", 0), ("seed", 0), ("size", 8)):
            gc._check_integer(f"SynthConfig.{name}", getattr(self, name), least)


@dataclass
class DatasetRow:
    path: str
    subject_id: str
    kind: str
    source_a: str
    source_b: str
    landmarks_path: str


MANIFEST_COLUMNS = tuple(f.name for f in fields(DatasetRow))


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


def _smooth_field(rng, size):
    coarse = rng.normal(0.0, 1.0, size=(8, 8, 3))
    field = bilinear_resize(coarse, size, size)
    return 0.35 * field / max(np.abs(field).max(), 1e-9)


def _subject_landmarks(rng, size, template):
    """A subject's landmark template: the canonical layout under a random
    similarity, shift and per-point noise, clipped into [3, size - 4]."""
    ang = rng.uniform(-0.15, 0.15)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    scale = rng.uniform(0.85, 1.15, size=2)
    shift = rng.uniform(-4.0, 4.0, size=2)
    center = template.mean(axis=0)
    lms = ((template - center) * scale) @ rot.T + center + shift
    lms += rng.normal(0.0, 2.0, size=lms.shape)
    return np.clip(lms, 3.0, size - 4.0)


def _subject_face(rng, size, template, lms):
    """A subject's base image: texture identity, with dark blobs anchored at
    its landmarks ``lms``; drawn from ``rng`` after ``_subject_landmarks``."""
    center = template.mean(axis=0)
    xs, ys = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64))
    # face oval brighter than background
    e = np.sqrt(((xs - center[0]) / (0.38 * size)) ** 2
                + ((ys - (center[1] - 0.03 * size)) / (0.47 * size)) ** 2)
    base = 0.30 - 0.85 / (1.0 + np.exp(-(e - 1.0) * 10.0))
    # built on (3, size, size) planes, so each (size, size) term broadcasts
    # over whole planes; the field is already channel-major in memory
    img = base + _smooth_field(rng, size).transpose(2, 0, 1)
    img += rng.uniform(-0.15, 0.15, size=3)[:, None, None]  # subject tint
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
        img -= amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2)
                            / (2.0 * sigma ** 2))
    return np.clip(img, -0.95, 0.95).transpose(1, 2, 0)


def synth_dataset(config: SynthConfig, out_dir) -> list[DatasetRow]:
    """Generate a deterministic parametric face dataset on disk.

    Writes PPM images, landmark files, and ``manifest.csv`` under ``out_dir``;
    returns the manifest rows.  Morphs are built from the in-memory quantized
    captures (the 8-bit arrays written as PPM, and the landmark arrays, which
    their text files round-trip exactly), so re-running
    :func:`generate_morph` from the named files reproduces each stored morph
    exactly.
    """
    template = canonical_landmarks(config.size)
    # each subject's generator draws its landmarks first, then its image and
    # captures, so every landmark set is known before anything is written
    rngs = [np.random.Generator(np.random.PCG64([config.seed, s]))
            for s in range(config.subjects)]
    subject_lms = [_subject_landmarks(rng, config.size, template) for rng in rngs]
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "landmarks").mkdir(parents=True, exist_ok=True)
    rows: list[DatasetRow] = []
    captures = {}  # subject index -> list of (uint8 image, landmarks)

    for s, (rng, lms) in enumerate(zip(rngs, subject_lms)):
        base = _subject_face(rng, config.size, template, lms)
        sid = f"s{s:03d}"
        captures[s] = []
        for c in range(config.captures):
            cap_lms = lms + rng.normal(0.0, 1.0, size=lms.shape)
            img = geometry.warp_image(base, lms, cap_lms)
            img = np.clip(img + rng.uniform(-0.08, 0.08), -1.0, 1.0)
            img_rel = f"images/{sid}_c{c}.ppm"
            lms_rel = f"landmarks/{sid}_c{c}.txt"
            img_u8 = to_uint8(img)
            write_ppm(out / img_rel, img_u8)
            geometry.save_landmarks(out / lms_rel, cap_lms)
            captures[s].append((img_u8, cap_lms))
            rows.append(DatasetRow(img_rel, sid, "real", "", "", lms_rel))

    morph_idx = 0
    for s in range(config.subjects):
        partner = geometry.nearest_neighbor(
            subject_lms[s],
            [(subject_lms[j], j) for j in range(config.subjects)],
            exclude_class=s)
        sid, pid = f"s{s:03d}", f"s{partner:03d}"
        for m in range(config.morphs_per_subject):
            img_a, lms_a = captures[s][m % config.captures]
            img_b, lms_b = captures[partner][(m + m // config.captures)
                                             % config.captures]
            rec = generate_morph(from_uint8(img_a), lms_a, from_uint8(img_b), lms_b)
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
            writer.writerow([getattr(r, c) for c in MANIFEST_COLUMNS])


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
