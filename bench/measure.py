"""Statistics, computed operation counts, digests and run metadata."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

PERCENTILE_LADDER = ("50", "75", "90", "95", "99", "99.5", "99.9")
MIN_BEYOND = 10


def samples_beyond(n, p):
    """How many of ``n`` samples lie above the ``p``-th percentile rank."""
    return int(n * (100 - Fraction(p)) / 100)


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile_ms(seconds, p):
    """``p``-th percentile (linear interpolation) of durations, in ms."""
    return float(np.percentile(np.asarray(seconds) * 1e3, float(p)))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# machine-speed calibration


# seconds between calibration samples
CAL_INTERVAL_S = 0.25

# Nominal seconds of one reference computation.  ``setup_s`` is set-up time
# in calibration units times this: seconds on a host where the reference
# takes 12.5 ms (a 2-vCPU Intel Xeon VM takes 12-14 ms).
REFERENCE_S = 0.0125


class Calibrator:
    """Times a fixed reference computation while a workload runs.

    The host's speed drifts by tens of percent over seconds.  Dividing each
    operation's wall time by reference samples taken during and around it
    gives a time in calibration units (``cal``) that keeps the program's own
    speed and drops most of the drift.  The reference mixes what the
    workloads do: BLAS matmuls, a pass over a 16 MB array, small numpy
    reductions, interpreted Python, and formatting and parsing floats as
    text, which allocates many small objects.  It uses no library code, so
    no change to the library can move it.
    """

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        # Preallocated, and the reference allocates nothing that outlives
        # it, so that samples, which can land at any point of the program,
        # do not fragment the program's heap or move its peak RSS.
        self.mat = rng.random((128, 128))
        self.prod = np.empty_like(self.mat)
        self.big = rng.random(1 << 21)
        self.vec = rng.random(10000)
        self.mask = np.empty(self.vec.shape, dtype=bool)
        self.floats = self.vec[:3000].tolist()
        self._samples = np.full(1 << 14, np.nan)  # far more than a run takes
        self.count = 0
        self.total = 0.0
        self.last = -np.inf
        self._busy = False

    @property
    def samples(self):
        """Reference seconds of every sample so far, oldest first."""
        return self._samples[:self.count]

    @property
    def nbytes(self):
        """Bytes the reference keeps resident, to take out of peak RSS."""
        return sum(a.nbytes for a in (self.mat, self.prod, self.big, self.vec,
                                      self.mask, self._samples))

    def _reference(self):
        t0 = time.perf_counter()
        for _ in range(8):
            np.matmul(self.mat, self.mat, out=self.prod)
        np.multiply(self.big, 1.0, out=self.big)
        for k in range(60):
            np.count_nonzero(np.less_equal(self.vec, k / 60, out=self.mask))
        acc = 0
        for i in range(15000):
            acc += i * i
        # one line at a time: each string is freed before the next is made
        for v in self.floats:
            acc += float(f"x,{v!r}\n".rstrip("\n").partition(",")[2])
        return time.perf_counter() - t0

    def sample(self, *_):
        """Run and record the reference once; returns the seconds spent."""
        if self._busy:
            return 0.0
        self._busy = True
        t0 = time.perf_counter()
        self._samples[self.count] = self._reference()
        self.count += 1
        self.last = time.perf_counter()
        self.total += self.last - t0
        self._busy = False
        return self.last - t0

    def due(self):
        return time.perf_counter() - self.last >= CAL_INTERVAL_S

    @contextmanager
    def periodic(self):
        """Also sample every ``CAL_INTERVAL_S`` from a timer signal.

        The handler runs between bytecodes of the main thread, so it lands
        inside long operations too.
        """
        old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# computed conv work (not measured: derived from shapes)


def conv_macs_per_image(cfg):
    """Multiply-accumulates of the encoder's conv trunk for one image."""
    sizes = cfg.spatial_sizes()
    c_in, total = cfg.in_channels, 0
    for i, c_out in enumerate(cfg.channels):
        total += sizes[i + 1] ** 2 * c_out * c_in * cfg.kernel ** 2
        c_in = c_out
    return total


def encoder_images(cfg, bindings):
    """Images fed to the encoder: leading dims of every (N, C, H, W) image leaf."""
    shape = (cfg.in_channels, cfg.input_size, cfg.input_size)
    n = 0
    for v in bindings.values():
        v = np.asarray(v)
        if v.ndim == 4 and v.shape[1:] == shape:
            n += v.shape[0]
    return n


def conv_flops(cfg, images, backward):
    """Computed conv FLOPs (2 per MAC); backward adds dX and dW, each one
    GEMM the size of the forward one."""
    return 2 * conv_macs_per_image(cfg) * images * (3 if backward else 1)


# ---------------------------------------------------------------------------
# digests


def digest_arrays(named):
    """Short SHA-256 over (name, shape, float64 bytes) in name order."""
    h = hashlib.sha256()
    for name in sorted(named):
        arr = np.ascontiguousarray(np.asarray(named[name], dtype=np.float64))
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def digest_tree(root):
    """Short SHA-256 over every file below ``root`` (relative path + bytes)."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        h.update(rel.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# run metadata


def git_sha(root):
    """HEAD commit read from ``root/.git``; None outside a git checkout."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version")}


def blas_threads_in_use():
    """Thread count OpenBLAS reports, when numpy bundles a findable OpenBLAS."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_metadata(root, seed, sizes, blas_threads):
    return {
        "git_sha": git_sha(root),
        "src_sha256": digest_tree(Path(root) / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": blas_threads,
        "blas_threads_in_use": blas_threads_in_use(),
        "seed": seed,
        "sizes": sizes,
    }
