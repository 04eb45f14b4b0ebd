"""Per-node timing of ``gradcore`` graphs, used as ``gradcore.profile()``.

Inside ``with gradcore.profile() as prof:`` every forward and backward rule
that ``gradcore`` runs is timed and counted under ``(op, label)``.  The label
is the name of the node's first leaf input after its data operand, else of
the data operand, else None: ``conv1_w`` for the fused conv of layer 1 (and
``conv0_w`` for layer 0, whose data operand is the image leaf), ``fc_a_w``
for a branch matmul, ``fc_a_b`` for its bias add.  So the three encoder
passes of a stage-1 step add up in one row per layer.

Only the innermost open profile records, and outside one nothing is
recorded.  A profile only reads the clock: values and gradients are
byte-equal with it on or off.
"""

from __future__ import annotations

import contextlib
import time

_active = None  # the innermost open Profile


class Profile:
    """Seconds and calls per (op, label), forward and backward apart."""

    def __init__(self):
        # (op, label) -> [forward s, forward calls, backward s, backward calls]
        self.stats = {}

    def __str__(self):
        """A table with one row per (op, label), the slowest first."""
        lines = [f"{'op':<16} {'label':<14} {'fwd ms':>9} {'calls':>6} "
                 f"{'bwd ms':>9} {'calls':>6}"]
        for (op, label), (fs, fc, bs, bc) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][0] - kv[1][2]):
            lines.append(f"{op:<16} {str(label):<14} {1e3 * fs:9.3f} {fc:6d} "
                         f"{1e3 * bs:9.3f} {bc:6d}")
        return "\n".join(lines)


@contextlib.contextmanager
def profile():
    """Open a :class:`Profile` for the graphs evaluated inside the block."""
    global _active
    outer, _active = _active, Profile()
    try:
        yield _active
    finally:
        _active = outer


def _label(node):
    for i in node.inputs[1:] + node.inputs[:1]:
        if i.op == "leaf":
            return i.name
    return None


class _Span:
    __slots__ = ("row", "col", "t0")

    def __init__(self, stats, node, col):
        self.row = stats.setdefault((node.op, _label(node)), [0.0, 0, 0.0, 0])
        self.col = col

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.row[self.col] += time.perf_counter() - self.t0
        self.row[self.col + 1] += 1


_OFF = contextlib.nullcontext()


def span(node, backward=False):
    """A context that times one rule of ``node`` into the open profile."""
    if _active is None:
        return _OFF
    return _Span(_active.stats, node, 2 if backward else 0)
