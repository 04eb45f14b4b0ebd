"""The benchmark's three workloads: train, verify and eval.

Each workload makes its inputs from the seed in ``setup`` (timed as set-up),
then runs ``op`` repeatedly in the timed phase; ``finish`` runs the end-of-run
checks and returns what the report shows.  ``op(state, ledger)``
returns the number of items it processed.  Only the generated inputs reach
the library.  Every failed step, score or check is recorded in a ``Ledger``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from morphkit import embednet, evalkit, gradcore as gc, imaging

import measure


MAX_ERRORS = 5  # failure messages kept per run

# training learning rate: LrSchedule's default 0.1 diverges to non-finite
# losses on 10 subjects
TRAIN_LR = 0.01


@dataclass
class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def check(self, ok, what):
        """Count one operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)
        return bool(ok)

    def fail(self, what):
        self.check(False, what)


# ---------------------------------------------------------------------------
# DET checks shared by verify and eval


def check_det(ledger, curve, scores):
    """Monotone DET, rates in [0, 1], and equal to a sort-based recount."""
    t, ap, bp = curve.thresholds, curve.apcer, curve.bpcer
    ledger.check(bool(np.all(np.diff(t) > 0)), "DET thresholds not increasing")
    ledger.check(bool(np.all(np.diff(ap) >= 0) and np.all(np.diff(bp) <= 0)),
                 "DET curve not monotone")
    ledger.check(ap[0] == 0 and ap[-1] == 1 and bp[0] == 1 and bp[-1] == 0,
                 "DET curve does not span [0, 1]")
    g, a = scores.canonical()
    ref_ap = np.searchsorted(np.sort(a), t, side="right") / a.size
    ref_bp = (g.size - np.searchsorted(np.sort(g), t, side="right")) / g.size
    ledger.check(np.array_equal(ap, ref_ap) and np.array_equal(bp, ref_bp),
                 "DET rates differ from an independent recount")


def det_summary(ledger, scores):
    """det_curve, d_eer and BPCER@APCER 5% / 10%, each checked."""
    curve = evalkit.det_curve(scores)
    eer = evalkit.d_eer(curve)
    b5 = evalkit.bpcer_at_apcer(curve, 0.05)
    b10 = evalkit.bpcer_at_apcer(curve, 0.10)
    for name, v in (("D-EER", eer), ("BPCER@5%", b5), ("BPCER@10%", b10)):
        ledger.check(0.0 <= v <= 1.0, f"{name} {v} outside [0, 1]")
    return curve, {"d_eer": eer, "bpcer_at_apcer_5": b5, "bpcer_at_apcer_10": b10}


# ---------------------------------------------------------------------------
# differential pair protocol


@dataclass(frozen=True)
class Pair:
    trusted: imaging.DatasetRow
    questioned: imaging.DatasetRow
    attack: bool


def differential_pairs(rows):
    """Trusted/questioned pairs under the differential protocol.

    Bona fide: two real captures of one subject.  Attack: a real capture of
    ``source_a`` or ``source_b`` against that pair's morph, i.e. the
    contributor presenting the morph.
    """
    reals: dict[str, list] = {}
    for r in rows:
        if r.kind == "real":
            reals.setdefault(r.subject_id, []).append(r)
    pairs = []
    for caps in reals.values():
        for i, a in enumerate(caps):
            pairs += [Pair(a, b, False) for b in caps[i + 1:]]
    for m in rows:
        if m.kind == "morph":
            for sid in (m.source_a, m.source_b):
                pairs += [Pair(r, m, True) for r in reals.get(sid, ())]
    return pairs


def is_differential_attack(pair):
    """The real side is a real capture of one of the morph's contributors."""
    t, q = pair.trusted, pair.questioned
    return (t.kind == "real" and q.kind == "morph"
            and t.subject_id in (q.source_a, q.source_b))


# ---------------------------------------------------------------------------
# workloads


def _synth_config(sizes, seed):
    return imaging.SynthConfig(subjects=sizes["subjects"],
                               captures=sizes["captures"],
                               morphs_per_subject=sizes["morphs_per_subject"],
                               seed=seed, size=sizes["size"])


def _desk_config(sizes):
    return embednet.EncoderConfig.desk(sizes["subjects"],
                                       input_size=sizes["size"])


class Workload:
    name = ""
    defaults: dict = {}
    setup_reps = 3  # timed set-ups before the timed phase
    traced_ops = 1
    report_names: dict = {}  # generic timed-phase figure -> report name

    def __init__(self, sizes=None):
        unknown = set(sizes or ()) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown {self.name} sizes: {sorted(unknown)}")
        self.sizes = {**self.defaults, **(sizes or {})}
        self.cfg = None  # EncoderConfig for computed conv FLOPs, if any
        self.digest = None

    def min_ops(self, state):
        return 1

    def traced_op_count(self, state):
        return self.traced_ops

    def check_digest(self, ledger, digest, what):
        """Every repeat of one computation in a run must give the first digest."""
        if self.digest is None:
            self.digest = digest
        else:
            ledger.check(digest == self.digest, f"{what}: digest {digest} "
                         f"differs from first repeat {self.digest}")


@dataclass
class TrainState:
    root: Path
    rows: list
    seed: int
    s2_pairs_per_epoch: int
    s1: list = field(default_factory=lambda: [0, 0.0])  # items, seconds
    s2: list = field(default_factory=lambda: [0, 0.0])
    losses: dict = field(default_factory=dict)


class TrainWorkload(Workload):
    """Batch training job: stage 1 then stage 2 from a seeded init."""

    name = "train"
    defaults = {"subjects": 10, "captures": 3, "morphs_per_subject": 2,
                "size": 112, "s1_epochs": 2, "s2_epochs": 2, "batch": 8}

    def __init__(self, sizes=None):
        super().__init__(sizes)
        self.cfg = _desk_config(self.sizes)

    def setup(self, seed, workdir):
        rows = imaging.synth_dataset(_synth_config(self.sizes, seed), workdir)
        per_subject: dict[str, int] = {}
        for r in rows:
            if r.kind == "real":
                per_subject[r.subject_id] = per_subject.get(r.subject_id, 0) + 1
        genuine = sum(k * (k - 1) // 2 for k in per_subject.values())
        # train_stage2 draws one cross-subject and one real/morph imposter
        # per genuine pair each epoch
        return TrainState(Path(workdir), rows, seed, 3 * genuine)

    def input_digest(self, state):
        return measure.digest_tree(state.root)

    def min_ops(self, state):
        return 2

    def op(self, state, ledger):
        z = self.sizes
        common = (state.root, self.cfg, embednet.MarginConfig(),
                  embednet.LossWeights(), gc.LrSchedule(initial=TRAIN_LR))
        n_reals = sum(r.kind == "real" for r in state.rows)
        t0 = time.perf_counter()
        params, h1 = embednet.train_stage1(state.rows, *common, z["s1_epochs"],
                                           z["batch"], state.seed)
        t1 = time.perf_counter()
        params, h2 = embednet.train_stage2(state.rows, *common, z["s2_epochs"],
                                           z["batch"], state.seed, init=params)
        t2 = time.perf_counter()
        s1_items = z["s1_epochs"] * n_reals
        s2_items = z["s2_epochs"] * state.s2_pairs_per_epoch
        state.s1[0] += s1_items
        state.s1[1] += t1 - t0
        state.s2[0] += s2_items
        state.s2[1] += t2 - t1
        for stage, hist, epochs in (("stage1", h1, z["s1_epochs"]),
                                    ("stage2", h2, z["s2_epochs"])):
            ledger.check(len(hist) == epochs, f"{stage}: {len(hist)} epochs run")
            for st in hist:
                ledger.check(math.isfinite(st.loss),
                             f"{stage} epoch {st.epoch}: loss {st.loss}")
            state.losses[stage] = [st.loss for st in hist]
        ledger.check(all(np.isfinite(v).all() for v in params.tensors.values()),
                     "non-finite trained parameters")
        self.check_digest(ledger, measure.digest_arrays(params.tensors),
                          "trained parameters")
        return s1_items + s2_items

    def finish(self, state, ledger):
        return {
            "report": {
                "train_s1_triplets_per_s": (state.s1[0] / state.s1[1], "1/s"),
                "train_s2_pairs_per_s": (state.s2[0] / state.s2[1], "1/s"),
            },
            "info": {"final_losses": state.losses},
        }


@dataclass
class VerifyState:
    root: Path
    params: gc.ParamStore
    pairs: list
    order: np.ndarray
    cursor: int = 0
    scores: dict = field(default_factory=dict)   # pair index -> first score
    z_f: dict = field(default_factory=dict)      # image path -> first z_f


class VerifyWorkload(Workload):
    """Closed loop, one client: score trusted/questioned pairs one at a time."""

    name = "verify"
    defaults = {"subjects": 10, "captures": 3, "morphs_per_subject": 2,
                "size": 112, "min_pairs": 400}
    report_names = {"items_per_s": "verify_pairs_per_s",
                    "p50_ms": "verify_p50_ms", "p95_ms": "verify_p95_ms"}

    def __init__(self, sizes=None):
        super().__init__(sizes)
        self.cfg = _desk_config(self.sizes)

    def setup(self, seed, workdir):
        rows = imaging.synth_dataset(_synth_config(self.sizes, seed), workdir)
        params = embednet.init_params(self.cfg, seed)
        pairs = differential_pairs(rows)
        order = np.random.Generator(np.random.PCG64([seed, 4])).permutation(
            len(pairs))
        return VerifyState(Path(workdir), params, pairs, order)

    def input_digest(self, state):
        return (measure.digest_tree(state.root)
                + measure.digest_arrays(state.params.tensors))

    def min_ops(self, state):
        # a full pass over the distinct pairs feeds the DET curve
        return max(self.sizes["min_pairs"], len(state.pairs))

    def traced_op_count(self, state):
        return self.min_ops(state)

    def _embed(self, state, row):
        img = imaging.load_face(state.root / row.path)
        z_f = embednet.encode(self.cfg, state.params, embednet.to_chw(img)).z_f
        state.z_f.setdefault(row.path, z_f)
        return z_f

    def op(self, state, ledger):
        idx = int(state.order[state.cursor % len(state.pairs)])
        state.cursor += 1
        pair = state.pairs[idx]
        if pair.attack:
            ledger.check(is_differential_attack(pair),
                         f"attack pair {pair.trusted.path} / "
                         f"{pair.questioned.path} is not differential")
        za = self._embed(state, pair.trusted)
        zb = self._embed(state, pair.questioned)
        score = float(za @ zb / (np.linalg.norm(za) * np.linalg.norm(zb)))
        if ledger.check(math.isfinite(score), f"pair {idx}: score {score}"):
            first = state.scores.setdefault(idx, score)
            ledger.check(score == first,
                         f"pair {idx}: repeat scored {score}, first {first}")
        return 1

    def finish(self, state, ledger):
        idx = sorted(state.scores)
        bona = [state.scores[i] for i in idx if not state.pairs[i].attack]
        att = [state.scores[i] for i in idx if state.pairs[i].attack]
        ledger.check(len(idx) == len(state.pairs),
                     f"{len(idx)} of {len(state.pairs)} distinct pairs scored")
        scores = evalkit.ScoreSet(np.array(bona), np.array(att),
                                  low_is_attack=True)
        curve, info = det_summary(ledger, scores)
        check_det(ledger, curve, scores)
        # batch-1 embeddings must match batched passes (of 8, as in training)
        # over the same images
        paths = sorted(state.z_f)
        z_batch = np.concatenate([
            embednet.encode(self.cfg, state.params, np.stack([
                embednet.to_chw(imaging.load_face(state.root / p))
                for p in paths[i:i + 8]])).z_f
            for i in range(0, len(paths), 8)])
        z_single = np.stack([state.z_f[p] for p in paths])
        tol = 1e-9 * max(1.0, float(np.abs(z_single).max()))
        ledger.check(bool(np.abs(z_batch - z_single).max() <= tol),
                     "batch-1 and batched embeddings differ")
        self.check_digest(ledger, measure.digest_arrays(
            {"scores": [state.scores[i] for i in idx]}), "pair scores")
        info["pairs"] = {"bona_fide": len(bona), "attack": len(att)}
        return {"report": {}, "info": info}


@dataclass
class EvalState:
    path: Path
    scores: evalkit.ScoreSet
    last: tuple | None = None  # (curve, summary) of the latest op


class EvalWorkload(Workload):
    """Offline evaluation of one protocol score file."""

    name = "eval"
    defaults = {"genuine": 20000, "attack": 20000}
    report_names = {"items_per_s": "eval_scores_per_s"}
    setup_reps = 25
    traced_ops = 3

    def setup(self, seed, workdir):
        rng = np.random.Generator(np.random.PCG64([seed, 3]))
        genuine = rng.normal(0.62, 0.12, self.sizes["genuine"])
        attack = rng.normal(0.38, 0.15, self.sizes["attack"])
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "scores.csv"
        with open(path, "w") as f:
            f.write("label,score\n")
            f.writelines(f"bona_fide,{v!r}\n" for v in genuine.tolist())
            f.writelines(f"attack,{v!r}\n" for v in attack.tolist())
        return EvalState(path, read_score_file(path))

    def input_digest(self, state):
        return measure.digest_arrays({"genuine": state.scores.genuine,
                                      "attack": state.scores.attack})

    def min_ops(self, state):
        return 2

    def op(self, state, ledger):
        curve, info = det_summary(ledger, state.scores)
        self.check_digest(ledger, measure.digest_arrays(
            {"thresholds": curve.thresholds, "apcer": curve.apcer,
             "bpcer": curve.bpcer, "summary": list(info.values())}),
            "DET curve")
        state.last = (curve, info)
        return state.scores.genuine.size + state.scores.attack.size

    def finish(self, state, ledger):
        curve, info = state.last
        check_det(ledger, curve, state.scores)
        info["thresholds"] = int(curve.thresholds.size)
        return {"report": {}, "info": info}


def read_score_file(path):
    """Parse a ``label,score`` file into a ScoreSet (low score = attack)."""
    genuine, attack = [], []
    with open(path) as f:
        if f.readline().strip() != "label,score":
            raise ValueError(f"{path}: expected a 'label,score' header")
        for line in f:
            label, _, value = line.rstrip("\n").partition(",")
            {"bona_fide": genuine, "attack": attack}[label].append(float(value))
    return evalkit.ScoreSet(np.array(genuine), np.array(attack),
                            low_is_attack=True)


WORKLOADS = {w.name: w for w in (TrainWorkload, VerifyWorkload, EvalWorkload)}
