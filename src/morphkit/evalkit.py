"""Biometric error metrics: APCER, BPCER, DET curves, D-EER.

APCER is the fraction of attack samples classified bona fide; BPCER the
fraction of bona fide samples classified attack.  Scores are mapped to a
canonical orientation in which larger means more attack-like, and a sample
is classified attack when its canonical score is strictly above the
threshold.  DET thresholds are reported in that canonical orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ScoreSet:
    """Genuine/attack scores plus the polarity of the raw score axis."""

    genuine: np.ndarray
    attack: np.ndarray
    low_is_attack: bool = True

    def canonical(self):
        """(genuine, attack) flipped so that higher always means attack."""
        g = np.asarray(self.genuine, dtype=np.float64)
        a = np.asarray(self.attack, dtype=np.float64)
        if g.ndim != 1 or a.ndim != 1:
            raise ValueError("genuine and attack scores must be 1-D, got shapes "
                             f"{g.shape} and {a.shape}")
        if not (np.isfinite(g).all() and np.isfinite(a).all()):
            raise ValueError("scores must be finite")
        return (-g, -a) if self.low_is_attack else (g, a)


@dataclass
class DetCurve:
    """Operating points sorted by threshold; includes -inf/+inf sentinels."""

    thresholds: np.ndarray
    apcer: np.ndarray
    bpcer: np.ndarray


def det_curve(scores: ScoreSet) -> DetCurve:
    """Operating points at every distinct score plus the -inf/+inf sentinels.

    Each class is sorted once, and a stable argsort of the two sorted classes
    side by side merges them in linear time.  A running sum of the attack
    flags in merged order counts the attack scores up to each position; the
    genuine scores are the rest.  The thresholds are the scores at the last
    position of each run of equal scores, so the counts there include every
    score equal to the threshold: a score is attack-classified iff it lies
    strictly above it.  APCER and BPCER are these integer counts divided by
    the class size.  BPCER counts the genuine scores above the threshold
    rather than taking 1 - x, which would round differently.

    0.0 and -0.0 are the only equal scores with different bytes.  A run that
    holds both keeps the zero the merge puts last: a genuine zero if the run
    has one, else an attack zero, with each class's zeros in np.sort's
    order.  Either compares equal to both.
    """
    g, a = scores.canonical()
    if g.size == 0 or a.size == 0:
        raise ValueError("both genuine and attack scores are required")
    # each temporary is dropped once used: they are as large as the input
    merged = np.concatenate([a, g])
    merged[:a.size].sort()
    merged[a.size:].sort()
    order = np.argsort(merged, kind="stable")
    n_att = np.cumsum(order < a.size)
    merged = merged[order]
    del order
    run_end = np.empty(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=run_end[:-1])
    run_end[-1] = True
    ends = np.flatnonzero(run_end)
    del run_end
    thresholds = np.empty(ends.size + 2)
    thresholds[0], thresholds[-1] = -np.inf, np.inf
    # every index is in range; mode="raise" would buffer the output
    np.take(merged, ends, out=thresholds[1:-1], mode="clip")
    del merged
    n_att = n_att[ends]
    apcer = np.empty_like(thresholds)
    apcer[0], apcer[-1] = 0.0, 1.0
    np.divide(n_att, a.size, out=apcer[1:-1])
    # genuine scores above the threshold: g.size - (ends + 1 - n_att)
    n_att += g.size - 1
    n_att -= ends
    bpcer = np.empty_like(thresholds)
    bpcer[0], bpcer[-1] = 1.0, 0.0
    np.divide(n_att, g.size, out=bpcer[1:-1])
    return DetCurve(thresholds=thresholds, apcer=apcer, bpcer=bpcer)


def d_eer(curve: DetCurve) -> float:
    """APCER = BPCER crossing, linearly interpolated between operating points."""
    diff = curve.apcer - curve.bpcer
    exact = np.nonzero(diff == 0)[0]
    if exact.size:
        return float(curve.apcer[exact[0]])
    k = int(np.nonzero(diff > 0)[0][0])  # diff starts negative, ends positive
    lam = diff[k - 1] / (diff[k - 1] - diff[k])
    return float(curve.apcer[k - 1] + lam * (curve.apcer[k] - curve.apcer[k - 1]))


def bpcer_at_apcer(curve: DetCurve, target: float) -> float:
    """Smallest BPCER among operating points with APCER <= target."""
    if not 0 < target <= 1:
        raise ValueError("target must lie in (0, 1]")
    eligible = curve.bpcer[curve.apcer <= target]
    return float(eligible.min())


def write_curve_csv(path, curve: DetCurve):
    with open(path, "w") as f:
        f.write("threshold,apcer,bpcer\n")
        for t, a, b in zip(curve.thresholds, curve.apcer, curve.bpcer):
            f.write(f"{float(t)!r},{float(a)!r},{float(b)!r}\n")


def summary_block(curve: DetCurve) -> str:
    """Human-readable D-EER / BPCER@5% / BPCER@10% block."""
    return (f"D-EER: {d_eer(curve):.6f}\n"
            f"BPCER@APCER=5%: {bpcer_at_apcer(curve, 0.05):.6f}\n"
            f"BPCER@APCER=10%: {bpcer_at_apcer(curve, 0.10):.6f}\n")
