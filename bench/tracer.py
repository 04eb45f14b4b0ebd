"""In-memory span tracer for the benchmark.

Spans are recorded around calls into the library by replacing public
functions on their modules (``geometry.warp_image``, ``gc.value_and_grad``,
...).  The library looks those names up on the module at call time, both
across modules and within one, so calls made from inside the library are
traced too.  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None  # index of the enclosing span, None for a root


class Tracer:
    """Records nested spans; ``wrap`` patches a module function until ``close``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.clock(), None, parent)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = self.clock()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, module, attr, on_call=None):
        """Trace ``module.attr`` as span ``<module's last name part>.attr``.

        ``on_call(tracer, arguments, result)`` runs after each call with the
        call's arguments bound to parameter names, to record counts.
        """
        orig = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        sig = inspect.signature(orig)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name):
                result = orig(*args, **kwargs)
            if on_call is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(self, bound.arguments, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def close(self):
        """Restore every patched function, last patch first."""
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so a covered instant is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def nesting_violations(spans):
    """Number of spans that are open or reach outside their parent."""
    bad = 0
    for s in spans:
        if s.end is None or s.end < s.start:
            bad += 1
        elif s.parent is not None:
            p = spans[s.parent]
            if p.end is None or s.start < p.start or s.end > p.end:
                bad += 1
    return bad


def summarize(spans):
    """Per span name: total seconds ``s``, self seconds ``self_s``, ``calls``."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        rec = out.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        rec["s"] += s.end - s.start
        rec["self_s"] += own
        rec["calls"] += 1
    return out
