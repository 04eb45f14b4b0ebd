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

import numpy as np

from . import geometry, gradcore as gc, imaging


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class EncoderConfig:
    """Backbone and head sizes; defaults mirror the full-scale recipe."""

    input_size: int = 112
    in_channels: int = 3
    channels: tuple = (64, 128, 256, 512)
    strides: tuple = (2, 2, 2, 2)
    kernel: int = 3
    d_a: int = 256
    d_g: int = 256
    d_f: int = 512
    n_classes: int = 2
    critic_hidden: int = 64

    def __post_init__(self):
        # tuples keep the config hashable (it keys the encoder plan cache)
        # and written by ``config_meta`` in the form ``config_from_meta`` reads
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "strides", tuple(self.strides))
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


@dataclass(frozen=True)
class LossWeights:
    alpha_g: float = 9.4
    lambda1_a: float = 1.3
    lambda1_g: float = 0.75
    lambda2_a: float = 1.0
    lambda2_g: float = 1.0


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
    for i, (c_out, _) in enumerate(zip(cfg.channels, cfg.strides)):
        specs.append(gc.ParamSpec(f"conv{i}_w", (c_out, c_in, k, k),
                                  "uniform", fan_in=c_in * k * k))
        specs.append(gc.ParamSpec(f"conv{i}_b", (c_out, 1, 1), "zeros"))
        c_in = c_out
    bd = cfg.branch_dim
    specs += [
        gc.ParamSpec("fc_a_w", (bd, cfg.d_a), "uniform", fan_in=bd),
        gc.ParamSpec("fc_a_b", (cfg.d_a,), "zeros"),
        gc.ParamSpec("fc_g_w", (bd, cfg.d_g), "uniform", fan_in=bd),
        gc.ParamSpec("fc_g_b", (cfg.d_g,), "zeros"),
        gc.ParamSpec("fc_f_w", (cfg.d_a + cfg.d_g, cfg.d_f),
                     "uniform", fan_in=cfg.d_a + cfg.d_g),
        gc.ParamSpec("fc_f_b", (cfg.d_f,), "zeros"),
        gc.ParamSpec("class_w", (cfg.n_classes, cfg.d_f),
                     "uniform", fan_in=cfg.d_f),
    ]
    for br, dim in (("a", cfg.d_a), ("g", cfg.d_g)):
        h = cfg.critic_hidden
        specs += [
            gc.ParamSpec(f"crit_{br}_fc_w", (dim, h), "uniform", fan_in=dim),
            gc.ParamSpec(f"crit_{br}_fc_b", (h,), "zeros"),
            gc.ParamSpec(f"crit_{br}_out_w", (2 * h, 1), "uniform",
                         fan_in=2 * h),
            gc.ParamSpec(f"crit_{br}_out_b", (1,), "zeros"),
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
    cos_all = gc.div(gc.matmul(z_f, gc.transpose2d(class_w)),
                     gc.mul(zn.reshape((-1, 1)), wn.reshape((1, -1))))
    oh = gc.onehot(labels, n_classes)
    cos_y = (cos_all * oh).sum(axis=1)
    theta = gc.acos(gc.clip(cos_y, -1.0 + 1e-7, 1.0 - 1e-7))
    margined = gc.cos(gc.clip(theta * margins.m1 + margins.m2, 0.0, math.pi))
    target_logit = (margined - margins.m3).reshape((-1, 1))
    logits = (cos_all * (gc.const(1.0) - oh) + oh * target_logit) * margins.s
    return gc.softmax_cross_entropy(logits, labels).mean()


def critic_score(z_i, z_j, prefix):
    """Shared FC+relu per embedding, concatenated, mapped to one scalar per pair."""
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
    config; ``encode`` evaluates it with temporary columns, so callers share
    no buffers."""
    return gc.Graph(build_encoder(cfg, gc.leaf("x")))


def encode(cfg: EncoderConfig, params: gc.ParamStore, images) -> EmbeddingTriple:
    """Embed a batch (N, C, S, S) or single image (C, S, S).

    C is ``cfg.in_channels`` and S is ``cfg.input_size``; any other shape
    raises ValueError naming it.  The encoder graph and its topological
    order are built once per config and reused.
    """
    x = np.asarray(images, dtype=np.float64)
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


def to_chw(image):
    """(H, W, 3) image -> (3, H, W) network layout."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"to_chw expects an (H, W, 3) image, got {arr.shape}")
    return np.transpose(arr, (2, 0, 1))


# ---------------------------------------------------------------------------
# training data plumbing


def _check_files(rows, root):
    """Raise one FileNotFoundError listing every image and landmark file of
    ``rows`` that is not under ``root``, so training stops before it starts
    instead of when it first reads a missing file."""
    root = Path(root)
    missing = [str(root / rel) for r in rows for rel in (r.path, r.landmarks_path)
               if not (root / rel).is_file()]
    if missing:
        raise FileNotFoundError(f"{len(missing)} manifest file(s) missing: "
                                + ", ".join(missing))


def _load_real_rows(rows, root):
    root = Path(root)
    reals = [r for r in rows if r.kind == "real"]
    images = [to_chw(imaging.load_face(root / r.path)) for r in reals]
    lms = [geometry.load_landmarks(root / r.landmarks_path) for r in reals]
    return reals, images, lms


def _class_map(reals):
    classes = sorted({r.subject_id for r in reals})
    return classes, {c: i for i, c in enumerate(classes)}


def _chunks(seq, n_parts):
    """Split a list into n_parts contiguous, nearly equal, nonempty chunks."""
    q, r = divmod(len(seq), n_parts)
    out, start = [], 0
    for i in range(n_parts):
        size = q + (1 if i < r else 0)
        out.append(seq[start:start + size])
        start += size
    return out


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float


# ---------------------------------------------------------------------------
# stage 1


def train_stage1(rows, root, cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights, schedule: gc.LrSchedule, epochs,
                 batch_size, seed, delta_variance=3.0, params=None, log=None):
    """Triplet training of the disentangling encoder; returns (params, history).

    Triplets are rebuilt every epoch with fresh landmark perturbations; the
    whole run is deterministic given the seed.  Every row's image and
    landmark file must exist, morphs included, or FileNotFoundError lists
    the missing ones.
    """
    _check_files(rows, root)
    reals, images, lms = _load_real_rows(rows, root)
    classes, cmap = _class_map(reals)
    if len(classes) < 2:
        raise ValueError("stage-1 training needs at least 2 classes")
    if cfg.n_classes != len(classes):
        raise ValueError(f"config says {cfg.n_classes} classes, manifest has "
                         f"{len(classes)}")
    if params is None:
        params = init_params(cfg, seed)
    graph = stage1_graph(cfg, margins, weights)
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    pool = [(np.transpose(img, (1, 2, 0)), lm, r.subject_id)
            for img, lm, r in zip(images, lms, reals)]
    history = []
    for epoch in range(epochs):
        lr = schedule.at(epoch)
        triplets = [
            imaging.build_triplet(pool[i][0], pool[i][1], pool[i][2], pool,
                                  rng, variance=delta_variance)
            for i in range(len(pool))
        ]
        order = rng.permutation(len(triplets))
        total_loss, total_n = 0.0, 0
        n_batches = max(1, math.ceil(len(order) / batch_size))
        for batch_ids in _chunks(list(order), n_batches):
            batch = [triplets[i] for i in batch_ids]
            bindings = dict(params.tensors)
            bindings["x"] = np.stack([to_chw(t.appearance) for t in batch])
            bindings["x_prime"] = np.stack([to_chw(t.landmark_image)
                                            for t in batch])
            bindings["x_hat"] = np.stack([to_chw(t.intermediate)
                                          for t in batch])
            bindings["labels"] = np.array([cmap[t.label_a] for t in batch],
                                          dtype=np.float64)
            bindings["labels_prime"] = np.array([cmap[t.label_g] for t in batch],
                                                dtype=np.float64)
            bindings["phi"] = np.array([geometry.phi_g(t.lms_a, t.lms_g)
                                        for t in batch])
            loss, grads = gc.value_and_grad(graph, bindings, params.names())
            gc.sgd_update(params, grads, lr)
            normalize_class_rows(params)
            total_loss += loss * len(batch)
            total_n += len(batch)
        stats = EpochStats(epoch=epoch, lr=lr, loss=total_loss / total_n)
        history.append(stats)
        if log:
            log(stats)
    return params, history


# ---------------------------------------------------------------------------
# stage 2


def _stage2_pools(rows):
    reals = [r for r in rows if r.kind == "real"]
    morphs = [r for r in rows if r.kind == "morph"]
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
    return reals, morphs, genuine, cross


def train_stage2(rows, root, cfg: EncoderConfig, margins: MarginConfig,
                 weights: LossWeights, schedule: gc.LrSchedule, epochs,
                 batch_size, seed, init: gc.ParamStore, log=None):
    """Contrastive training on genuine vs imposter pairs; returns
    (params, history) and leaves ``init`` unchanged.

    Genuine pairs are same-subject real pairs; each epoch samples an equal
    number of cross-subject real pairs and (real, morph) pairs as imposters.
    Every row's image and landmark file must exist, or FileNotFoundError
    lists the missing ones.
    """
    _check_files(rows, root)
    root = Path(root)
    reals, morphs, genuine, cross = _stage2_pools(rows)
    classes, cmap = _class_map(reals)
    if cfg.n_classes != len(classes):
        raise ValueError(f"config says {cfg.n_classes} classes, manifest has "
                         f"{len(classes)}")
    real_images = [to_chw(imaging.load_face(root / r.path)) for r in reals]
    morph_images = [to_chw(imaging.load_face(root / r.path)) for r in morphs]
    params = init.copy()
    graph = stage2_graph(cfg, margins, weights)
    rng = np.random.Generator(np.random.PCG64([seed, 2]))
    history = []
    for epoch in range(epochs):
        lr = schedule.at(epoch)
        n_gen = len(genuine)
        cross_pick = [cross[k] for k in rng.integers(0, len(cross), n_gen)]
        rm_pick = [(int(k) % len(reals), int(k) // len(reals))
                   for k in rng.integers(0, len(reals) * len(morphs), n_gen)]
        # pair lists: (real idx, real idx) genuine; imposters mix cross-real
        # pairs and (real, morph) pairs, morph flagged by offset index
        imposters = [(i, j, False) for i, j in cross_pick] + \
                    [(i, j, True) for i, j in rm_pick]
        total = len(genuine) + len(imposters)
        n_rounds = max(1, min(len(genuine), len(imposters),
                              math.ceil(total / batch_size)))
        gen_rounds = _chunks(genuine, n_rounds)
        imp_rounds = _chunks(imposters, n_rounds)
        total_loss, total_n = 0.0, 0
        for gen_batch, imp_batch in zip(gen_rounds, imp_rounds):
            bindings = dict(params.tensors)
            _bind_stage2_batch(bindings, gen_batch, imp_batch, reals,
                               real_images, morph_images, cmap)
            loss, grads = gc.value_and_grad(graph, bindings, params.names())
            gc.sgd_update(params, grads, lr)
            normalize_class_rows(params)
            n_pairs = len(gen_batch) + len(imp_batch)
            total_loss += loss * n_pairs
            total_n += n_pairs
        stats = EpochStats(epoch=epoch, lr=lr, loss=total_loss / total_n)
        history.append(stats)
        if log:
            log(stats)
    return params, history


def _bind_stage2_batch(bindings, gen_batch, imp_batch, reals, real_images,
                       morph_images, cmap):
    """Fill the stage-2 graph leaves for one round of pairs."""
    unique = {}  # (is_morph, source idx) -> row in the x batch

    def row_of(idx, is_morph):
        key = (is_morph, idx)
        if key not in unique:
            unique[key] = len(unique)
        return unique[key]

    for side, pairs in (("gen", [(i, j, False) for i, j in gen_batch]),
                        ("imp", imp_batch)):
        rows_i, rows_j = [], []
        for i, j, j_is_morph in pairs:
            rows_i.append(row_of(i, False))
            rows_j.append(row_of(j, j_is_morph))
        bindings[f"{side}_i"] = np.array(rows_i, dtype=np.float64)
        bindings[f"{side}_j"] = np.array(rows_j, dtype=np.float64)
    x, real_idx, real_labels = [], [], []
    for (is_morph, idx), row in sorted(unique.items(), key=lambda kv: kv[1]):
        x.append(morph_images[idx] if is_morph else real_images[idx])
        if not is_morph:
            real_idx.append(row)
            real_labels.append(cmap[reals[idx].subject_id])
    bindings["x"] = np.stack(x)
    bindings["real_idx"] = np.array(real_idx, dtype=np.float64)
    bindings["real_labels"] = np.array(real_labels, dtype=np.float64)


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
    type; a missing or malformed key raises ValueError naming it.
    """
    configs = []
    for cls, tag in _META_TAGS:
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
