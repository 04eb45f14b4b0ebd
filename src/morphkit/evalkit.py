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
    """Operating points at every distinct score plus the two sentinels."""
    g, a = scores.canonical()
    if g.size == 0 or a.size == 0:
        raise ValueError("both genuine and attack scores are required")
    thresholds = np.concatenate([[-np.inf],
                                 np.unique(np.concatenate([g, a])),
                                 [np.inf]])
    # attack-classified iff canonical score strictly above the threshold;
    # side="right" counts the scores <= t.  BPCER is taken from the count of
    # scores > t rather than as 1 - x, which would round differently
    apcer = np.searchsorted(np.sort(a), thresholds, side="right") / a.size
    bpcer = (g.size - np.searchsorted(np.sort(g), thresholds, side="right")) / g.size
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
