"""Disentangled face encoder, training losses, and the two-stage loops.

The encoder is a small stride-2 conv trunk whose final feature maps are
split in half along depth: one half feeds the appearance embedding z_a, the
other the landmark embedding z_g, and their concatenation feeds the ID
embedding z_f.  Stage 1 trains on warped triplets with appearance/landmark
preserving losses plus an angular-margin ID loss; stage 2 adds contrastive
losses that push critic scores of same-subject real pairs above those of
cross-subject or morph-containing pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import geometry, gradcore as gc, imaging


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class EncoderConfig:
    """Backbone and head sizes; defaults mirror the full-scale recipe."""

    in_channels: ClassVar[int] = 3  # ``imaging.read_ppm`` reads P6 faces only
    kernel: ClassVar[int] = 3  # every conv is 3 x 3
    critic_hidden: ClassVar[int] = 64  # width of each critic's hidden layer
    input_size: int = 112
    channels: tuple = (64, 128, 256, 512)
    strides: tuple = (2, 2, 2, 2)
    d_a: int = 256
    d_g: int = 256
    d_f: int = 512
    n_classes: int = 2

    def __post_init__(self):
        # tuples keep the config hashable (it keys the encoder plan cache)
        # and written by ``config_meta`` in the form ``config_from_meta`` reads
        for name in ("channels", "strides"):
            value = getattr(self, name)
            if not isinstance(value, (tuple, list)):
                raise ValueError(f"EncoderConfig.{name} must be a tuple, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        # every field is a size or a stride, or a tuple of them
        for f in fields(self):
            gc._check_integer(f"EncoderConfig.{f.name}", getattr(self, f.name), 1)
        if self.channels[-1] % 2:
            raise ValueError("final conv depth must be even for the depth split")
        if len(self.channels) != len(self.strides):
            raise ValueError("channels and strides must have equal length")

    @classmethod
    def desk(cls, n_classes, input_size=112):
        """Small preset that trains in minutes on a laptop CPU."""
        return cls(input_size=input_size, channels=(8, 16, 24, 32),
                   strides=(2, 2, 2, 2), d_a=32, d_g=32, d_f=64,
                   n_classes=n_classes)

    def spatial_sizes(self):
        sizes = [self.input_size]
        pad = self.kernel // 2
        for s in self.strides:
            sizes.append((sizes[-1] + 2 * pad - self.kernel) // s + 1)
        return sizes

    @property
    def final_spatial(self):
        return self.spatial_sizes()[-1]

    @property
    def branch_dim(self):
        return self.final_spatial ** 2 * (self.channels[-1] // 2)


@dataclass(frozen=True)
class MarginConfig:
    """Angular-margin hyperparameters (m1, m2, m3) and the logit scale s."""

    m1: float = 0.9
    m2: float = 0.4
    m3: float = 0.15
    s: float = 64.0

    def __post_init__(self):
        for f in fields(self):
            gc._check_real(f"MarginConfig.{f.name}", getattr(self, f.name),
                           "> 0" if f.name == "s" else None)


@dataclass(frozen=True)
class LossWeights:
    """Loss weights.  The ``lambda*`` fields weight the stage-1 (L_a, L_g)
    and stage-2 (L2_a, L2_g) terms, and 0 switches a term off.  ``alpha_g``
    is no term weight: it scales the margin of the repel hinge of
    ``landmark_loss``, relu(cos(g(x'), g(x)) - alpha_g * phi), so at 0 the
    hinge fires wherever that cosine is positive."""

    alpha_g: float = 9.4
    lambda1_a: float = 1.3
    lambda1_g: float = 0.75
    lambda2_a: float = 1.0
    lambda2_g: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            gc._check_real(f"LossWeights.{f.name}", getattr(self, f.name), ">= 0")


@dataclass
class EmbeddingTriple:
    z_a: np.ndarray
    z_g: np.ndarray
    z_f: np.ndarray


# ---------------------------------------------------------------------------
# parameters


def param_specs(cfg: EncoderConfig):
    specs = []
    c_in = cfg.in_channels
    k = cfg.kernel
    for i, c_out in enumerate(cfg.channels):
        specs.append(gc.ParamSpec(f"conv{i}_w", (c_out, c_in, k, k), c_in * k * k))
        specs.append(gc.ParamSpec(f"conv{i}_b", (c_out, 1, 1)))
        c_in = c_out
    bd = cfg.branch_dim
    specs += [
        gc.ParamSpec("fc_a_w", (bd, cfg.d_a), bd),
        gc.ParamSpec("fc_a_b", (cfg.d_a,)),
        gc.ParamSpec("fc_g_w", (bd, cfg.d_g), bd),
        gc.ParamSpec("fc_g_b", (cfg.d_g,)),
        gc.ParamSpec("fc_f_w", (cfg.d_a + cfg.d_g, cfg.d_f), cfg.d_a + cfg.d_g),
        gc.ParamSpec("fc_f_b", (cfg.d_f,)),
        gc.ParamSpec("class_w", (cfg.n_classes, cfg.d_f), cfg.d_f),
    ]
    for br, dim in (("a", cfg.d_a), ("g", cfg.d_g)):
        h = cfg.critic_hidden
        specs += [
            gc.ParamSpec(f"crit_{br}_fc_w", (dim, h), dim),
            gc.ParamSpec(f"crit_{br}_fc_b", (h,)),
            gc.ParamSpec(f"crit_{br}_out_w", (2 * h, 1), 2 * h),
            gc.ParamSpec(f"crit_{br}_out_b", (1,)),
        ]
    return specs


def init_params(cfg: EncoderConfig, seed) -> gc.ParamStore:
    params = gc.ParamStore.initialize(param_specs(cfg), seed)
    normalize_class_rows(params)
    return params


def normalize_class_rows(params: gc.ParamStore):
    """Keep each class weight vector unit length so cos(theta_j) is defined.

    Rows already unit within 1e-12 are left untouched so that no-op updates
    (lr = 0) keep parameters bit-identical.
    """
    w = params.tensors["class_w"]
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    stale = np.abs(norms - 1.0) > 1e-12
    np.divide(w, norms, out=w, where=stale)


# ---------------------------------------------------------------------------
# graph builders


def build_encoder(cfg: EncoderConfig, x):
    """Conv trunk -> depth split -> branch FCs; returns (z_a, z_g, z_f) nodes."""
    h = x
    pad = cfg.kernel // 2
    for i, stride in enumerate(cfg.strides):
        h = gc.conv_bias_relu(h, gc.leaf(f"conv{i}_w"), gc.leaf(f"conv{i}_b"),
                              stride=stride, pad=pad)
    half = cfg.channels[-1] // 2
    h_a = gc.slice_axis(h, 1, 0, half)
    h_g = gc.slice_axis(h, 1, half, cfg.channels[-1])
    flat_a = h_a.reshape((-1, cfg.branch_dim))
    flat_g = h_g.reshape((-1, cfg.branch_dim))
    z_a = gc.matmul(flat_a, gc.leaf("fc_a_w")) + gc.leaf("fc_a_b")
    z_g = gc.matmul(flat_g, gc.leaf("fc_g_w")) + gc.leaf("fc_g_b")
    z_f = (gc.matmul(gc.concat([z_a, z_g], axis=1), gc.leaf("fc_f_w"))
           + gc.leaf("fc_f_b"))
    return z_a, z_g, z_f


def appearance_loss(za_x, za_hat):
    """-mean cosine similarity between appearance embeddings of x and x_hat."""
    return -gc.cosine_similarity(za_x, za_hat).mean()


def landmark_loss(zg_prime, zg_hat, zg_x, phi, alpha_g):
    """Pull g(x') toward g(x_hat); hinge g(x') away from g(x) beyond alpha_g*phi."""
    attract = gc.cosine_similarity(zg_prime, zg_hat)
    repel = gc.relu(gc.cosine_similarity(zg_prime, zg_x) - phi * alpha_g)
    return (-attract + repel).mean()


def id_loss(z_f, labels, class_w, margins: MarginConfig, n_classes):
    """Angular-margin softmax: target logit s*(cos(m1*theta + m2) - m3).

    The margined angle is clamped to [0, pi] before the cosine; zero-norm
    embeddings or weight rows abort evaluation.
    """
    zn = gc.l2norm(z_f)
    wn = gc.l2norm(class_w)
    cos_all = (gc.matmul(z_f, gc.transpose2d(class_w))
               / (zn.reshape((-1, 1)) * wn.reshape((1, -1))))
    oh = gc.onehot(labels, n_classes)
    cos_y = (cos_all * oh).sum(axis=1)
    theta = gc.acos(gc.clip(cos_y, -1.0 + 1e-7, 1.0 - 1e-7))
    margined = gc.cos(gc.clip(theta * margins.m1 + margins.m2, 0.0, math.pi))
    target_logit = (margined - margins.m3).reshape((-1, 1))
    logits = (cos_all * (gc.const(1.0) - oh) + oh * target_logit) * margins.s
    return gc.softmax_cross_entropy(logits, labels).mean()


def critic_score(z_i, z_j, prefix):
    """Shared FC+relu per embedding, concatenated, mapped to one scalar per pair.

    The output layer is linear, so the score is separable, f(z_i) + g(z_j),
    and against product-of-marginals imposters the Donsker-Varadhan bound
    that ``mi_loss`` negates cannot exceed 0 (Jensen's inequality)."""
    p = lambda name: gc.leaf(prefix + name)
    h_i = gc.relu(gc.matmul(z_i, p("fc_w")) + p("fc_b"))
    h_j = gc.relu(gc.matmul(z_j, p("fc_w")) + p("fc_b"))
    out = gc.matmul(gc.concat([h_i, h_j], axis=1), p("out_w")) + p("out_b")
    return out.reshape((-1,))


def mi_loss(genuine_scores, imposter_scores):
    """Negated Donsker-Varadhan bound: -(mean genuine - log mean exp imposter)."""
    return -(genuine_scores.mean() - gc.logmeanexp(imposter_scores))


def stage1_graph(cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights):
    """Full stage-1 loss over leaves x / x_prime / x_hat / labels(+phi)."""
    za_x, zg_x, zf_x = build_encoder(cfg, gc.leaf("x"))
    za_h, zg_h, _ = build_encoder(cfg, gc.leaf("x_hat"))
    _, zg_p, zf_p = build_encoder(cfg, gc.leaf("x_prime"))
    l_a = appearance_loss(za_x, za_h)
    l_g = landmark_loss(zg_p, zg_h, zg_x, gc.leaf("phi"), weights.alpha_g)
    class_w = gc.leaf("class_w")
    l_id = (id_loss(zf_x, gc.leaf("labels"), class_w, margins, cfg.n_classes)
            + id_loss(zf_p, gc.leaf("labels_prime"), class_w, margins,
                      cfg.n_classes))
    total = l_id + weights.lambda1_a * l_a + weights.lambda1_g * l_g
    return gc.Graph(total)


def stage2_graph(cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights):
    """Stage-2 loss over a batch of unique images plus pair index leaves.

    Leaves: ``x`` (unique images), ``gen_i/gen_j/imp_i/imp_j`` (row indices of
    each pair side), ``real_idx``/``real_labels`` for the ID term.
    """
    za, zg, zf = build_encoder(cfg, gc.leaf("x"))
    rows = {side: (gc.leaf(f"{side}_i"), gc.leaf(f"{side}_j"))
            for side in ("gen", "imp")}
    l2 = {}
    for br, z in (("a", za), ("g", zg)):
        scores = {}
        for side, (i, j) in rows.items():
            scores[side] = critic_score(gc.take_rows(z, i), gc.take_rows(z, j),
                                        f"crit_{br}_")
        l2[br] = mi_loss(scores["gen"], scores["imp"])
    zf_real = gc.take_rows(zf, gc.leaf("real_idx"))
    l_id = id_loss(zf_real, gc.leaf("real_labels"), gc.leaf("class_w"),
                   margins, cfg.n_classes)
    total = weights.lambda2_a * l2["a"] + weights.lambda2_g * l2["g"] + l_id
    return gc.Graph(total)


# ---------------------------------------------------------------------------
# inference


@functools.cache
def _encoder_plan(cfg: EncoderConfig):
    """The (z_a, z_g, z_f) encoder graph over leaf ``x``, built once per
    config; a Graph holds no arrays, so every ``encode`` call may share it."""
    return gc.Graph(build_encoder(cfg, gc.leaf("x")))


def encode(cfg: EncoderConfig, params: gc.ParamStore, images) -> EmbeddingTriple:
    """Embed a batch (N, C, S, S) or single image (C, S, S).

    C is ``cfg.in_channels`` and S is ``cfg.input_size``; any other shape,
    or a dtype other than float, raises ValueError naming it.  The encoder
    graph and its topological order are built once per config and reused.
    """
    x = np.asarray(_float_images(images, "encode"), dtype=np.float64)
    expected = (cfg.in_channels, cfg.input_size, cfg.input_size)
    if x.shape[-3:] != expected or x.ndim not in (3, 4):
        raise ValueError(f"encode expects images of shape {expected} or a "
                         f"batch of them, got {x.shape}")
    single = x.ndim == 3
    if single:
        x = x[None]
    bindings = dict(params.tensors)
    bindings["x"] = x
    va, vg, vf = gc.evaluate_many(_encoder_plan(cfg), bindings)
    if single:
        va, vg, vf = va[0], vg[0], vf[0]
    return EmbeddingTriple(z_a=va, z_g=vg, z_f=vf)


def _float_images(images, caller):
    """``images`` as an array, which must hold floats: 8-bit values would
    reach the encoder at 127.5 times the scale it was trained on."""
    arr = np.asarray(images)
    if not np.issubdtype(arr.dtype, np.floating):
        raise ValueError(f"{caller} expects float images in [-1, 1], got dtype "
                         f"{arr.dtype}; scale 8-bit faces with imaging.from_uint8")
    return arr


def to_chw(image):
    """(H, W, 3) float image -> (3, H, W) network layout; any other dtype
    raises ValueError naming it."""
    arr = np.asarray(_float_images(image, "to_chw"), dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"to_chw expects an (H, W, 3) image, got {arr.shape}")
    return np.transpose(arr, (2, 0, 1))


# ---------------------------------------------------------------------------
# training data plumbing


def _load_checked(rows, root, cfg: EncoderConfig, *kinds):
    """(rows of each of ``kinds``, faces): one list of ``rows`` per kind, and
    one face list of them all in that order, each face held as C-contiguous
    (C, S, S) uint8 planes, the network's layout.  So with kinds ("real",
    "morph") and R reals, face R + m is morph m.

    Training stops before it starts, not when it first reads a bad file: one
    FileNotFoundError lists every image and landmark file of ``rows`` that
    is not under ``root``, and a face read in another shape than ``cfg``'s
    (S, S, C) raises ValueError naming its path and both shapes.
    """
    missing = [str(root / rel) for r in rows for rel in (r.path, r.landmarks_path)
               if not (root / rel).is_file()]
    if missing:
        raise FileNotFoundError(f"{len(missing)} manifest file(s) missing: "
                                + ", ".join(missing))
    expected = (cfg.input_size, cfg.input_size, cfg.in_channels)
    kept = [[r for r in rows if r.kind == kind] for kind in kinds]
    faces = []
    for r in sum(kept, []):
        face = imaging.read_ppm(root / r.path)
        if face.shape != expected:
            raise ValueError(f"{root / r.path}: face of shape {face.shape}, "
                             f"the encoder config expects {expected}")
        faces.append(np.ascontiguousarray(face.transpose(2, 0, 1)))
    return kept, faces


def _load_landmarks(reals, root):
    """The landmark sets of ``reals``; a file whose landmark count K differs
    from the first file's raises ValueError naming both paths and counts."""
    sets = [geometry.load_landmarks(root / r.landmarks_path) for r in reals]
    for r, lms in zip(reals, sets):
        if len(lms) != len(sets[0]):
            raise ValueError(f"{root / r.landmarks_path}: {len(lms)} landmarks, "
                             f"expected {len(sets[0])} as in "
                             f"{root / reals[0].landmarks_path}")
    return sets


# each 8-bit level as ``imaging.from_uint8`` scales it, rounded once to float32
_LEVELS32 = imaging.from_uint8(np.arange(256, dtype=np.uint8)).astype(np.float32)


def _float_leaf(faces):
    """The (n, C, S, S) float32 leaf of n (C, S, S) uint8 faces: each value
    is ``imaging.from_uint8``'s cast to float32, looked up in one table
    straight into its face's slot of the preallocated leaf, so no float64
    copy, no uint8 batch and no index array of the whole batch are built.
    ``mode="clip"`` writes into ``out`` unbuffered, and a uint8 index is
    always in range."""
    leaf = np.empty((len(faces),) + faces[0].shape, np.float32)
    for slot, face in zip(leaf, faces):
        np.take(_LEVELS32, face, out=slot, mode="clip")
    return leaf


def _class_labels(reals, cfg: EncoderConfig):
    """The class index of each of ``reals``, its subject id's rank among the
    sorted ids; at least 2 classes, as many as ``cfg``."""
    classes, labels = np.unique([r.subject_id for r in reals], return_inverse=True)
    if len(classes) < 2:
        raise ValueError("training needs at least 2 classes, the manifest "
                         f"has {len(classes)}")
    if cfg.n_classes != len(classes):
        raise ValueError(f"config says {cfg.n_classes} classes, manifest has "
                         f"{len(classes)}")
    return labels.tolist()


def _chunks(seq, n_parts):
    """Split a list into n_parts contiguous, nearly equal, nonempty chunks."""
    q, r = divmod(len(seq), n_parts)
    bounds = [i * q + min(i, r) for i in range(n_parts + 1)]
    return [seq[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class EpochStats:
    epoch: int
    loss: float


def _fit(graph, params, schedule, epochs, epoch_batches):
    """SGD over ``graph`` at ``schedule.initial``, every step of both
    stages; returns (params, history).

    ``epoch_batches()`` yields ``(leaves, item_count)`` for each step of one
    epoch; an epoch's loss is the item-weighted mean of its step losses.
    Each step computes in float32: it binds float32 copies of the params,
    and the step's leaves as they are, since both stages build them in
    float32.  ``value_and_grad`` hands back float64 gradients, which update
    the float64 params in place.  So the params and checkpoints stay
    float64 (mixed-precision training, Micikevicius et al.,
    arXiv:1710.03740).
    """
    history = []
    for epoch in range(epochs):
        total_loss, total_n = 0.0, 0
        for leaves, n_items in epoch_batches():
            bindings = {name: np.asarray(v, dtype=np.float32)
                        for name, v in {**params.tensors, **leaves}.items()}
            loss, grads = gc.value_and_grad(graph, bindings, params.names())
            # free this batch before ``epoch_batches`` builds the next one
            del leaves, bindings
            gc.sgd_update(params, grads, schedule.initial)
            normalize_class_rows(params)
            total_loss += loss * n_items
            total_n += n_items
        history.append(EpochStats(epoch=epoch, loss=total_loss / total_n))
    return params, history


# ---------------------------------------------------------------------------
# stage 1


def train_stage1(rows, root, cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights, schedule: gc.LrSchedule, epochs,
                 batch_size, seed):
    """Triplet training of the disentangling encoder from ``init_params(cfg,
    seed)``; returns (params, history).

    Triplets are redrawn every epoch with fresh landmark perturbations; the
    whole run is deterministic given the seed.  Faces are held as uint8, and
    each batch's float32 leaves, intermediates included, are built only when
    its step comes, so one float32 batch is alive at a time and no float64
    batch is built.  Every row's image and landmark file must exist, morphs
    included, or FileNotFoundError lists the missing ones; a face of another
    shape than ``cfg``'s or a landmark file of another K raises ValueError
    first.
    """
    gc._check_integer("epochs", epochs, 0)
    gc._check_integer("batch_size", batch_size, 1)
    root = Path(root)
    [reals], faces = _load_checked(rows, root, cfg, "real")
    labels = _class_labels(reals, cfg)
    pool = list(zip(_load_landmarks(reals, root), labels))
    rng = np.random.Generator(np.random.PCG64([seed, 1]))

    def epoch_batches():
        # every draw of the epoch (neighbor and delta per pool entry, in pool
        # order, then the shuffle) comes before the first warp
        drawn = [imaging.draw_triplet(pool, i, rng) for i in range(len(pool))]
        shuffled = [drawn[i] for i in rng.permutation(len(drawn))]
        n_steps = max(1, math.ceil(len(shuffled) / batch_size))
        for batch in _chunks(shuffled, n_steps):
            yield _bind_stage1_batch(batch, faces), len(batch)

    return _fit(stage1_graph(cfg, margins, weights), init_params(cfg, seed),
                schedule, epochs, epoch_batches)


def _bind_stage1_batch(batch, faces):
    """The float32 stage-1 graph leaves of drawn triplets, whose labels are
    class indices, from uint8 ``faces``.  Each x_hat source is decoded into
    float64 planes by ``imaging.from_uint8``, warped as the (H, W, C) view of
    those planes, and its channel-major result is rounded into its float32
    slot by one contiguous cast."""
    x = _float_leaf([faces[t.index_a] for t in batch])
    x_hat = np.empty_like(x)
    for out, t in zip(x_hat, batch):
        planes = imaging.from_uint8(faces[t.index_a])
        warped = imaging.build_triplet(planes.transpose(1, 2, 0), t)
        out[...] = warped.transpose(2, 0, 1)
    return {
        "x": x,
        "x_prime": _float_leaf([faces[t.index_g] for t in batch]),
        "x_hat": x_hat,
        "labels": np.array([t.label_a for t in batch], dtype=np.float32),
        "labels_prime": np.array([t.label_g for t in batch], dtype=np.float32),
        "phi": np.array([geometry.phi_g(t.lms_a, t.lms_g) for t in batch],
                        dtype=np.float32),
    }


# ---------------------------------------------------------------------------
# stage 2


def _stage2_pools(reals, morphs):
    if not morphs:
        raise ValueError("stage-2 training needs morph rows in the manifest")
    by_subject = {}
    for i, r in enumerate(reals):
        by_subject.setdefault(r.subject_id, []).append(i)
    genuine = [(i, j) for ids in by_subject.values()
               for a, i in enumerate(ids) for j in ids[a + 1:]]
    if not genuine:
        raise ValueError("no subject has two real captures")
    cross = [(i, j) for i in range(len(reals)) for j in range(len(reals))
             if i < j and reals[i].subject_id != reals[j].subject_id]
    return genuine, cross


def train_stage2(rows, root, cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights, schedule: gc.LrSchedule, epochs,
                 batch_size, seed, init: gc.ParamStore):
    """Contrastive training on genuine vs imposter pairs; returns
    (params, history) and leaves ``init`` unchanged.

    Genuine pairs are same-subject real pairs; each epoch samples an equal
    number of cross-subject real pairs and (real, morph) pairs as imposters.
    Every pair indexes one face list, the R reals and then the morphs, so a
    (real, morph) imposter pairs real i with face R + m, morph m.  The
    imposter list holds the cross-subject pairs first and the (real, morph)
    pairs last, and ``_chunks`` cuts it into contiguous rounds, so a
    round sees mostly or only one kind of imposter: at 10 subjects x 3
    captures and batch 8, rounds 1-6 of 12 each hold 5 cross-subject
    imposters and rounds 7-12 each hold 5 (real, morph) imposters, and the
    DV bound of each step compares the genuine pairs with one kind alone.
    Faces are held as uint8 and scaled into one float32 batch per step.
    Every row's image and landmark file must exist, or FileNotFoundError
    lists the missing ones; a face of another shape than ``cfg``'s raises
    ValueError.  So does an ``init`` whose tensors are not ``cfg``'s, before
    any face is read.
    """
    gc._check_integer("epochs", epochs, 0)
    gc._check_integer("batch_size", batch_size, 1)
    _check_init(init, cfg)
    root = Path(root)
    (reals, morphs), faces = _load_checked(rows, root, cfg, "real", "morph")
    genuine, cross = _stage2_pools(reals, morphs)
    labels = _class_labels(reals, cfg)
    n_reals = len(reals)
    rng = np.random.Generator(np.random.PCG64([seed, 2]))

    def epoch_batches():
        n_gen = len(genuine)
        imposters = [cross[k] for k in rng.integers(0, len(cross), n_gen)]
        imposters += [(int(k) % n_reals, n_reals + int(k) // n_reals)
                      for k in rng.integers(0, n_reals * len(morphs), n_gen)]
        total = len(genuine) + len(imposters)
        n_rounds = max(1, min(len(genuine), math.ceil(total / batch_size)))
        for gen_batch, imp_batch in zip(_chunks(genuine, n_rounds),
                                        _chunks(imposters, n_rounds)):
            yield (_bind_stage2_batch(gen_batch, imp_batch, faces, labels),
                   len(gen_batch) + len(imp_batch))

    return _fit(stage2_graph(cfg, margins, weights), init.copy(), schedule,
                epochs, epoch_batches)


def _check_init(init: gc.ParamStore, cfg: EncoderConfig):
    """Raise ValueError naming the first tensor that ``param_specs(cfg)``
    defines and ``init`` lacks or holds in another shape, or that ``init``
    holds and ``cfg`` does not define, with both shapes."""
    expected = {spec.name: tuple(spec.shape) for spec in param_specs(cfg)}
    for name in {**expected, **init.tensors}:
        want = expected.get(name, "no tensor")
        got = np.shape(init.tensors[name]) if name in init.tensors else "no tensor"
        if got != want:
            raise ValueError(f"stage-2 init tensor {name!r}: init has {got}, "
                             f"the encoder config expects {want}")


def _bind_stage2_batch(gen_batch, imp_batch, faces, labels):
    """The float32 stage-2 graph leaves for one round of pairs of indices
    into uint8 ``faces``, whose first ``len(labels)`` are the reals and
    ``labels`` their class indices."""
    unique = {}  # face index -> row in the x batch, in order of first use

    def row_of(k):
        return unique.setdefault(k, len(unique))

    leaves = {}
    for side, pairs in (("gen", gen_batch), ("imp", imp_batch)):
        rows = [(row_of(i), row_of(j)) for i, j in pairs]
        leaves[f"{side}_i"] = np.array([r for r, _ in rows], dtype=np.float32)
        leaves[f"{side}_j"] = np.array([r for _, r in rows], dtype=np.float32)
    real_rows = [(row, k) for row, k in enumerate(unique) if k < len(labels)]
    leaves["x"] = _float_leaf([faces[k] for k in unique])
    leaves["real_idx"] = np.array([row for row, _ in real_rows], dtype=np.float32)
    leaves["real_labels"] = np.array([labels[k] for _, k in real_rows],
                                     dtype=np.float32)
    return leaves


# ---------------------------------------------------------------------------
# checkpoints


_META_TAGS = ((EncoderConfig, "enc"), (MarginConfig, "margin"), (LossWeights, "loss"))


def config_meta(cfg: EncoderConfig, margins: MarginConfig,
                weights: LossWeights) -> dict:
    """The configs as ``<tag>.<field>`` keys: the meta of a checkpoint, which
    is a ``gc.ParamStore(tensors, meta=...)`` written by its ``save``."""
    meta = {}
    for obj, (_, tag) in zip((cfg, margins, weights), _META_TAGS):
        for f in fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            meta[f"{tag}.{f.name}"] = v
    return meta


def config_from_meta(meta: dict):
    """(EncoderConfig, MarginConfig, LossWeights) from ``config_meta`` keys.

    Each field is parsed as the type of its default, a tuple as its items'
    type; a missing or malformed key raises ValueError naming it.  So does a
    ``<tag>.`` key that names no field.
    """
    configs = []
    for cls, tag in _META_TAGS:
        names = [f.name for f in fields(cls)]
        for key, value in meta.items():
            name = key.removeprefix(f"{tag}.")
            if name != key and name not in names:
                raise ValueError(f"checkpoint meta '{key}={value}' names no "
                                 f"{cls.__name__} field")
        kwargs = {}
        for f in fields(cls):
            key = f"{tag}.{f.name}"
            if key not in meta:
                raise ValueError(f"checkpoint meta has no '{key}'")
            kind = type(f.default)
            try:
                if kind is tuple:
                    item = type(f.default[0])
                    value = tuple(item(x) for x in meta[key].split(","))
                else:
                    value = kind(meta[key])
            except ValueError as err:
                raise ValueError(f"checkpoint meta '{key}={meta[key]}' is not "
                                 f"a valid {kind.__name__}") from err
            kwargs[f.name] = value
        configs.append(cls(**kwargs))
    return tuple(configs)
