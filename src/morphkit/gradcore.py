"""Minimal deterministic reverse-mode autodiff over dense float arrays.

Expression graphs are built lazily from named ``leaf`` nodes and constants.
Each op has one form: arithmetic is written with the ``Node`` operators
(``a + b``, ``a - b``, ``a * b``, ``a / b``, ``-a``), sums, means and
reshapes with its methods (``x.sum(axis)``, ``x.mean(axis)``,
``x.reshape(shape)``), and every other op with its constructor function.
``evaluate_many`` runs a forward pass for given leaf bindings and
``value_and_grad`` adds a reverse pass.  Every tensor is a plain ``numpy``
array, and a pass computes in the float dtype of its bindings: a leaf bound
to a float32 or float64 array keeps it as is, anything else becomes float64.
Scalar constants are Python floats, which numpy's promotion treats as weak
(NEP 50, numpy >= 2.0), so they never upcast a float32 pass; array constants
are float64.  The buffers an op allocates follow its input's dtype.
``value_and_grad`` returns float64 gradients whatever the compute dtype, and
``ParamStore`` and ``sgd_update`` are float64 only.  Any NaN/Inf produced
by an op aborts with :class:`NonFiniteError`: a forward value at the op
that made it, a gradient at the leaf ``value_and_grad`` returns it for.
Each pass sets numpy's error state once, to ignore floating-point warnings,
and restores it when the pass returns or raises; those checks stand in for
the warnings.

Inside ``with profile() as prof:`` each forward and backward rule that the
calling thread runs is timed and counted under ``(op, label)``; only the
innermost open profile records.  The label is the name of the node's first
leaf input after its data operand, else of the data operand, else None:
``conv1_w`` for the fused conv of layer 1 (and ``conv0_w`` for layer 0,
whose data operand is the image leaf), ``fc_a_w`` for a branch matmul,
``fc_a_b`` for its bias add.  So the three encoder passes of a stage-1 step
add up in one row per layer.  A profile only reads the clock: values and
gradients are byte-equal with it on or off.

An op's forward, backward and kink rules live in one ``_RULES`` entry, the
only place the passes learn what an op is; a new or fused op is one entry.

The engine is pure: identical (graph, bindings) gives bit-identical
outputs, which the training code relies on for reproducible checkpoints.
One daemon worker thread, started on first use, shares two kernels with
the caller (``_in_parallel``): the stride-phase planes of a conv layer's
input gradient, which the caller joins once it has computed the weight
gradient, and the row blocks of ``geometry``'s TPS grid kernel.  The bytes
cannot depend on it: each plane or block is computed whole by one thread,
into memory no other part writes, with the same operations as a serial
run, and a plane's taps are added in the fixed tap order.  While another
caller holds the worker, the caller does all of it.

Conv outputs and conv input gradients are NCHW arrays that are
channel-last (NHWC) in memory, and ``_unbroadcast`` sums in C order, so a
bias gradient has the same bytes whatever layout its gradient arrives in.
A :class:`Graph` holds nodes only, no arrays.  A conv layer's im2col
columns are the value of an ``im2col`` node like any other, so every pass
frees them as it frees every value, at its last read: ``evaluate_many``
once the last node that reads a value has run, ``value_and_grad`` once the
value's own backward has run or been skipped (Chen et al.,
arXiv:1604.06174).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import os
import signal
import struct
import threading
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GradcoreError",
    "NonFiniteError",
    "Node",
    "Graph",
    "leaf",
    "const",
    "matmul",
    "conv_bias_relu",
    "relu",
    "concat",
    "slice_axis",
    "transpose2d",
    "take_rows",
    "onehot",
    "l2norm",
    "cosine_similarity",
    "softmax_cross_entropy",
    "acos",
    "cos",
    "clip",
    "logmeanexp",
    "evaluate_many",
    "value_and_grad",
    "profile",
    "ParamSpec",
    "ParamStore",
    "sgd_update",
    "LrSchedule",
]


class GradcoreError(Exception):
    """Graph construction, binding, or shape failure."""


class NonFiniteError(GradcoreError):
    """An operation produced NaN or Inf."""


_uid = itertools.count()


class Node:
    """One record in an expression graph.

    ``op`` names a primitive; ``inputs`` are upstream nodes; ``params`` hold
    static op attributes (stride, axis, ...).  Leaves carry a ``name`` that is
    resolved against the bindings dict at evaluation time.
    """

    __slots__ = ("op", "inputs", "params", "name", "uid")

    def __init__(self, op, inputs=(), name=None, **params):
        self.op = op
        self.inputs = tuple(inputs)
        self.params = params
        self.name = name
        self.uid = next(_uid)

    def __repr__(self):
        if self.op == "leaf":
            return f"Node(leaf '{self.name}')"
        return f"Node({self.op}, {len(self.inputs)} in)"

    # the operator and method forms are the only constructors of these
    # ops; scalars and arrays are lifted to constants
    def __add__(self, other):
        return Node("add", (self, _lift(other)))

    def __sub__(self, other):
        return Node("sub", (self, _lift(other)))

    def __mul__(self, other):
        return Node("mul", (self, _lift(other)))

    def __rmul__(self, other):
        return Node("mul", (_lift(other), self))

    def __truediv__(self, other):
        return Node("div", (self, _lift(other)))

    def __neg__(self):
        return self * const(-1.0)

    def sum(self, axis=None):
        return Node("sum", (self,), axis=axis)

    def mean(self, axis=None):
        return Node("mean", (self,), axis=axis)

    def reshape(self, shape):
        return Node("reshape", (self,), shape=tuple(int(s) for s in shape))


def _lift(x):
    return x if isinstance(x, Node) else const(x)


def leaf(name: str) -> Node:
    return Node("leaf", name=name)


def const(value) -> Node:
    """A constant: a scalar is kept as a Python float, weak in numpy's type
    promotion, so it computes in the dtype of the array it meets."""
    if np.ndim(value) == 0:
        return Node("const", value=float(value))
    return Node("const", value=np.asarray(value, dtype=np.float64))


def matmul(a, b):
    return Node("matmul", (a, b))


def conv_bias_relu(x, w, b, stride=1, pad=0):
    """``relu(conv(x, w, stride, pad) + b)``: a 2-D convolution
    (cross-correlation) of NCHW input with FCkk filters; ``b`` is (F, 1, 1).

    Two nodes: an ``im2col`` node over (x, w), whose value is the columns,
    and the fused node over (x, w, b, columns), a GEMM plus bias and relu.
    """
    p = dict(stride=int(stride), pad=int(pad))
    return Node("conv_bias_relu", (x, w, b, Node("im2col", (x, w), **p)), **p)


def relu(x):
    return Node("relu", (x,))


def concat(nodes, axis):
    return Node("concat", tuple(nodes), axis=int(axis))


def slice_axis(x, axis, start, stop):
    return Node("slice", (x,), axis=int(axis), start=int(start), stop=int(stop))


def transpose2d(x):
    return Node("transpose2d", (x,))


def take_rows(x, indices):
    """Gather rows of ``x`` by an integer index vector (non-differentiable input)."""
    return Node("take_rows", (x, _lift(indices)))


def onehot(labels, depth):
    """One-hot encode an integer label vector; no gradient flows to the labels."""
    return Node("onehot", (_lift(labels),), depth=int(depth))


def l2norm(x):
    """Euclidean norm along the last axis."""
    return Node("l2norm", (x,))


def cosine_similarity(a, b):
    """Row-wise cosine similarity along the last axis; errors on zero-norm rows."""
    return Node("cosine_similarity", (a, b))


def softmax_cross_entropy(logits, labels):
    """Per-sample cross-entropy of (N, C) logits against integer labels (N,)."""
    return Node("softmax_xent", (logits, _lift(labels)))


def acos(x):
    return Node("acos", (x,))


def cos(x):
    return Node("cos", (x,))


def clip(x, lo, hi):
    return Node("clip", (x,), lo=float(lo), hi=float(hi))


def logmeanexp(x):
    """log(mean(exp(x))) over all elements, computed with max-subtraction."""
    return Node("logmeanexp", (x,))


# ---------------------------------------------------------------------------
# forward / backward rules


def _indices(v, size, op):
    """int64 indices from an index leaf; integral values in [0, size) only."""
    v = np.asarray(v)  # a scalar const is a Python float
    idx = v.astype(np.int64)
    bad = (idx != v) | (idx < 0) | (idx >= size)
    if bad.any():
        raise GradcoreError(
            f"'{op}' needs integer indices in [0, {size}), got {float(v[bad][0])}")
    return idx


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        # numpy sums in memory order; C order makes the bytes layout-free
        grad = np.ascontiguousarray(grad).sum(axis=axes, keepdims=True)
    return grad


def _axes_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _restore_dims(grad, in_shape, axis):
    axes = _axes_tuple(axis, len(in_shape))
    shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
    return np.broadcast_to(grad.reshape(shape), in_shape)


def _conv_out_hw(x, w, stride, pad):
    """(oh, ow) of a conv2d of NCHW ``x`` with FCkk ``w``; checks the shapes."""
    if x.ndim != 4 or w.ndim != 4:
        raise GradcoreError("conv2d expects NCHW input and FCkk filters")
    if x.shape[1] != w.shape[1]:
        raise GradcoreError(
            f"conv2d channel mismatch: input {x.shape} filters {w.shape}")
    _, _, kh, kw = w.shape
    if x.shape[2] + 2 * pad < kh or x.shape[3] + 2 * pad < kw:
        raise GradcoreError(
            f"conv2d filters {w.shape} larger than padded input {x.shape}")
    return ((x.shape[2] + 2 * pad - kh) // stride + 1,
            (x.shape[3] + 2 * pad - kw) // stride + 1)


def _im2col(x, w, stride, pad):
    """Channel-major columns of NCHW ``x`` for FCkk filters ``w``: a
    C-contiguous (C, kh, kw, N, oh, ow) array of input windows.

    The shapes are checked first.  The input is copied once into a
    zero-padded (C, N, H+2p, W+2p) buffer, and the columns are one copy of
    a strided window view of it.
    """
    oh, ow = _conv_out_hw(x, w, stride, pad)
    n, c, h, wd = x.shape
    kh, kw = w.shape[2:]
    xp = np.zeros((c, n, h + 2 * pad, wd + 2 * pad), x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.transpose(1, 0, 2, 3)
    sc, sn, sh, sw = xp.strides
    return np.ndarray((c, kh, kw, n, oh, ow), xp.dtype, xp,
                      strides=(sc, sh, sw, sn, stride * sh, stride * sw)).copy()


def _conv2d_forward(cols, w):
    """NCHW conv output from im2col ``cols``, NHWC in memory."""
    c, kh, kw, n, oh, ow = cols.shape
    f = w.shape[0]
    # the operand roles of row-major columns, (N*oh*ow, CKK) @ (CKK, F), kept
    # through a transposed view: on the encoder's layer shapes this is
    # byte-equal to the row-major product, and ``w2 @ cols`` is not.  The
    # row count is given, since a -1 is ambiguous for an empty batch
    out = cols.reshape(c * kh * kw, n * oh * ow).T @ w.reshape(f, -1).T
    return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2)


class _Worker:
    """The one daemon thread that runs the ``there`` half of ``_in_parallel``.

    ``go`` and ``done`` are locks used as one-shot signals: the caller
    releases ``go`` to hand over ``job`` and acquires ``done`` to wait for
    ``result``.  ``busy`` is held by the call that owns the worker.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.busy = threading.Lock()
        self.go = threading.Lock()
        self.done = threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.job = self.result = None
        threading.Thread(target=self._serve, name="morphkit-worker",
                         daemon=True).start()

    def _serve(self):
        # process signals (the bench's timer, Ctrl-C) go to the other
        # threads; a platform without the call delivers them to the main one
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        while True:
            self.go.acquire()
            self.result = self._run(*self.job)
            self.job = None  # drops the job's arrays before the next one
            self.done.release()

    @staticmethod
    def _run(there, err):
        try:
            with np.errstate(**err):
                return there(), None
        except BaseException as exc:  # re-raised on the caller
            return None, exc


_worker = None
_worker_start = threading.Lock()


def _in_parallel(there, here):
    """``(there(), here())``, with ``there`` run on the worker thread while
    ``here`` runs on the caller.

    The worker starts on first use, and again in a forked child.  ``there``
    runs under the caller's numpy error state, and it calls only numpy and
    private helpers: a public function is traced on the caller's thread
    alone.  The call returns or raises only once ``there`` has finished;
    an exception of ``here`` wins over one of ``there``.  While another
    call holds the worker, ``there()`` then ``here()`` run on the caller.

    Work the two halves share must come from one iterator whose ``next()``
    is atomic: a ``range``, list or ``itertools`` iterator, as both callers
    use.  Two threads taking from one generator raise ``ValueError:
    generator already executing``.
    """
    global _worker
    with _worker_start:
        if _worker is None or _worker.pid != os.getpid():
            _worker = _Worker()
        w = _worker
    err = np.geterr()
    if not w.busy.acquire(blocking=False):
        return there(), here()
    w.job = there, err
    w.go.release()
    try:
        b = here()
    finally:
        # if this wait is interrupted, ``busy`` stays held and later calls
        # run serially rather than hand a job to a worker that is not done
        w.done.acquire()
        (a, exc), w.result = w.result, None
        w.busy.release()
    if exc is not None:
        raise exc
    return a, b


def _conv2d_backward(g, x, w, stride, pad, need_dx, cols):
    """(dx, dw) from the forward pass's im2col columns ``cols`` of ``x``;
    dx is None when ``need_dx`` is false.

    dx is built tap by tap: for each kernel offset one (N*oh*ow, F) @ (F, C)
    product is added into the padded NHWC gradient, in the same tap order as
    a scatter of the full (N*oh*ow, C*kh*kw) column gradient, so each
    element sums the same dot products in the same order.  The padded
    gradient is held as s x s stride-phase planes of zeros: padded pixel
    (r, q) is pixel (r // s, q // s) of plane (r % s, q % s), so tap
    (ki, kj) lands in plane (ki % s, kj % s) at offset (ki // s, kj // s)
    with unit steps, and each add runs over whole rows instead of C floats
    at a time (the phase split of a strided transposed convolution, Shi et
    al., arXiv:1609.05158).  Each plane is copied to its stride positions
    in a C-contiguous padded buffer, and dx is its NCHW crop, NHWC in
    memory like a conv output, so the layer below masks and reshapes it
    without a copy.

    The planes are independent: a padded pixel gets taps from its own plane
    only.  So when dx is needed the worker thread (``_in_parallel``) and the
    caller, once it has run the dw GEMM, take planes from one shared
    iterator until none is left.  Whichever thread takes a plane adds all of
    its taps, in tap order, into it with its own tap buffer and interleaves
    it.  Every array they write is allocated here, and each byte is what a
    serial run gives.
    """
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    cols = cols.reshape(c * kh * kw, n * oh * ow)
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, f)
    if not need_dx:
        return None, (gm.T @ cols.T).reshape(w.shape)
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    s = stride
    ph, pw = -(-(h + 2 * pad) // s), -(-(wd + 2 * pad) // s)
    planes = np.zeros((s, s, n, ph, pw, c), np.result_type(gm, wt))
    taps = np.empty((2, n * oh * ow, c), planes.dtype)
    dxp = np.empty((n, ph * s, pw * s, c), planes.dtype)
    phases = itertools.product(range(s), repeat=2)  # next() is atomic

    def fill(tap):
        for p, q in phases:
            for ki in range(p, kh, s):
                for kj in range(q, kw, s):
                    i0, j0 = ki // s, kj // s
                    np.matmul(gm, wt[ki, kj], out=tap)
                    planes[p, q, :, i0:i0 + oh, j0:j0 + ow] += \
                        tap.reshape(n, oh, ow, c)
            dxp.reshape(n, ph, s, pw, s, c)[:, :, p, :, q] = planes[p, q]

    def here():
        dw = gm.T @ cols.T
        fill(taps[0])
        return dw

    _, dw = _in_parallel(lambda: fill(taps[1]), here)
    dx = dxp[:, pad:pad + h, pad:pad + wd].transpose(0, 3, 1, 2)
    return dx, dw.reshape(w.shape)


def _conv_bias_relu_forward(w, b, cols):
    """relu(conv2d + b), the bias and relu applied in place on the GEMM output.

    The pre-activation is checked here, since relu would turn a -inf into 0.
    """
    out = _conv2d_forward(cols, w)
    if b.shape != (w.shape[0], 1, 1):
        raise GradcoreError(
            f"conv_bias_relu bias {b.shape} is not ({w.shape[0]}, 1, 1)")
    out += b
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite value produced by 'conv_bias_relu'")
    return np.maximum(out, 0.0, out=out)


def _conv_bias_relu_backward(g, x, w, b, cols, out, stride, pad, need_dx):
    """(dx, dw, db, None) with the arithmetic of separate relu, add and
    conv2d rules; no gradient flows to the columns.

    ``out > 0`` is relu's mask: the pre-activation is finite, so it is
    positive exactly where the output is.
    """
    gz = g * (out > 0)
    dx, dw = _conv2d_backward(gz, x, w, stride, pad, need_dx, cols)
    return dx, dw, _unbroadcast(gz, b.shape), None


def _cosine_parts(a, b):
    """(|a|, |b|, cosine) along the last axis."""
    na = np.sqrt((a * a).sum(axis=-1))
    nb = np.sqrt((b * b).sum(axis=-1))
    if (na == 0).any() or (nb == 0).any():
        raise GradcoreError("zero-norm vector in cosine-similarity")
    dot = (a * b).sum(axis=-1)
    return na, nb, dot / (na * nb)


def _matmul(a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise GradcoreError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def _onehot_forward(v, p):
    lab = _indices(v[0], p["depth"], "onehot")
    out = np.zeros((lab.shape[0], p["depth"]), v[0].dtype)
    out[np.arange(lab.shape[0]), lab] = 1.0
    return out


def _slice_index(x, p):
    idx = [slice(None)] * x.ndim
    idx[p["axis"]] = slice(p["start"], p["stop"])
    return tuple(idx)


def _slice_backward(g, v, out, p, *_):
    dg = np.zeros_like(v[0])
    dg[_slice_index(v[0], p)] = g
    return (dg,)


def _mean_backward(g, v, out, p, *_):
    axes = _axes_tuple(p["axis"], v[0].ndim)
    count = float(np.prod([v[0].shape[a] for a in axes]))
    return (_restore_dims(np.asarray(g), v[0].shape, p["axis"]) / count,)


def _take_rows_backward(g, v, *_):
    dg = np.zeros_like(v[0])
    np.add.at(dg, _indices(v[1], v[0].shape[0], "take_rows"), g)
    return (dg, None)


def _l2norm_backward(g, v, out, *_):
    if (out == 0).any():
        raise NonFiniteError("l2norm gradient at zero vector")
    return (g[..., None] * v[0] / out[..., None],)


def _cosine_backward(g, v, *_):
    a, b = v
    na, nb, cos = _cosine_parts(a, b)
    c = cos[..., None]
    ga = g[..., None] * (b / (na * nb)[..., None] - c * a / (na * na)[..., None])
    gb = g[..., None] * (a / (na * nb)[..., None] - c * b / (nb * nb)[..., None])
    return (ga, gb)


def _softmax_xent_forward(v, p):
    logits, lab = v[0], _indices(v[1], v[0].shape[1], "softmax_xent")
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return lse - logits[np.arange(lab.shape[0]), lab]


def _softmax_xent_backward(g, v, *_):
    logits, lab = v[0], _indices(v[1], v[0].shape[1], "softmax_xent")
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    d = e / e.sum(axis=1, keepdims=True)
    d[np.arange(lab.shape[0]), lab] -= 1.0
    return (d * g[:, None], None)


def _acos_backward(g, v, *_):
    d = 1.0 - v[0] * v[0]
    if (d <= 0).any():
        raise NonFiniteError("acos gradient at |x| >= 1")
    return (-g / np.sqrt(d),)


def _logmeanexp_forward(v, p):
    x = v[0].ravel()
    m = x.max()
    return np.asarray(m + np.log(np.exp(x - m).mean()))


def _logmeanexp_backward(g, v, *_):
    x = v[0].ravel()
    e = np.exp(x - x.max())
    w = (e / e.sum()).reshape(v[0].shape)
    return (np.asarray(g) * w,)


def _clip_mask(v, out, p):
    return (v[0] > p["lo"]) & (v[0] < p["hi"])


@dataclass(frozen=True, slots=True)
class _Rule:
    """Everything the engine knows about one op.

    ``fwd(vals, p)`` is its value and ``bwd(g, vals, out, p, need)`` one
    gradient per input, None where none flows (``need[i]`` is false when
    input i's would be discarded).  ``kink(vals, out, p)``, for a gradient
    with discontinuities, is a mask whose flip between two probes tells the
    finite-difference checker of the test suite to skip them; the passes
    never read it.  A ``checks_finite`` op raises NonFiniteError itself, or
    leaves it to the one op that reads its value, as ``im2col`` does: any
    non-finite column entry reaches the fused conv's pre-activation.
    Forward rules name both parameters: a ``*_`` catch-all costs a tuple
    per call on the batch-1 forward path.
    """

    fwd: Callable
    bwd: Callable
    kink: Callable | None = None
    checks_finite: bool = False


_RULES = {
    # either input of a binary op may be a scalar const, a Python float
    "add": _Rule(lambda v, p: v[0] + v[1],
                 lambda g, v, *_: (_unbroadcast(g, np.shape(v[0])),
                                   _unbroadcast(g, np.shape(v[1])))),
    "sub": _Rule(lambda v, p: v[0] - v[1],
                 lambda g, v, *_: (_unbroadcast(g, np.shape(v[0])),
                                   _unbroadcast(-g, np.shape(v[1])))),
    "mul": _Rule(lambda v, p: v[0] * v[1],
                 lambda g, v, *_: (_unbroadcast(g * v[1], np.shape(v[0])),
                                   _unbroadcast(g * v[0], np.shape(v[1])))),
    "div": _Rule(lambda v, p: v[0] / v[1],
                 lambda g, v, *_: (_unbroadcast(g / v[1], np.shape(v[0])),
                                   _unbroadcast(-g * v[0] / (v[1] * v[1]),
                                                np.shape(v[1])))),
    "matmul": _Rule(lambda v, p: _matmul(v[0], v[1]),
                    lambda g, v, *_: (g @ v[1].T, v[0].T @ g)),
    "im2col": _Rule(lambda v, p: _im2col(v[0], v[1], p["stride"], p["pad"]),
                    lambda g, v, *_: (None, None), checks_finite=True),
    "conv_bias_relu": _Rule(
        lambda v, p: _conv_bias_relu_forward(v[1], v[2], v[3]),
        lambda g, v, out, p, need: _conv_bias_relu_backward(
            g, *v, out, p["stride"], p["pad"], need[0]),
        kink=lambda v, out, p: out > 0, checks_finite=True),
    "relu": _Rule(lambda v, p: np.maximum(v[0], 0.0),
                  lambda g, v, *_: (g * (v[0] > 0),),
                  kink=lambda v, out, p: v[0] > 0),
    "mean": _Rule(lambda v, p: np.asarray(v[0].mean(axis=p["axis"])),
                  _mean_backward),
    "sum": _Rule(lambda v, p: np.asarray(v[0].sum(axis=p["axis"])),
                 lambda g, v, out, p, *_: (
                     _restore_dims(np.asarray(g), v[0].shape, p["axis"]).copy(),)),
    "concat": _Rule(lambda v, p: np.concatenate(v, axis=p["axis"]),
                    lambda g, v, out, p, *_: tuple(np.split(
                        g, np.cumsum([x.shape[p["axis"]] for x in v])[:-1],
                        axis=p["axis"]))),
    "slice": _Rule(lambda v, p: v[0][_slice_index(v[0], p)], _slice_backward),
    "reshape": _Rule(lambda v, p: v[0].reshape(p["shape"]),
                     lambda g, v, *_: (g.reshape(v[0].shape),)),
    "transpose2d": _Rule(lambda v, p: v[0].T, lambda g, v, *_: (g.T,)),
    "take_rows": _Rule(
        lambda v, p: v[0][_indices(v[1], v[0].shape[0], "take_rows")],
        _take_rows_backward),
    "onehot": _Rule(_onehot_forward, lambda g, v, *_: (None,)),
    "l2norm": _Rule(lambda v, p: np.sqrt((v[0] * v[0]).sum(axis=-1)),
                    _l2norm_backward),
    "cosine_similarity": _Rule(lambda v, p: _cosine_parts(v[0], v[1])[2],
                               _cosine_backward),
    "softmax_xent": _Rule(_softmax_xent_forward, _softmax_xent_backward),
    "acos": _Rule(lambda v, p: np.arccos(np.clip(v[0], -1.0, 1.0)),
                  _acos_backward),
    "cos": _Rule(lambda v, p: np.cos(v[0]),
                 lambda g, v, *_: (-g * np.sin(v[0]),)),
    "clip": _Rule(lambda v, p: np.clip(v[0], p["lo"], p["hi"]),
                  lambda g, v, out, p, *_: (g * _clip_mask(v, out, p),),
                  kink=_clip_mask),
    "logmeanexp": _Rule(_logmeanexp_forward, _logmeanexp_backward),
}


# ---------------------------------------------------------------------------
# profiling


class _ProfileState(threading.local):
    active = None  # the calling thread's innermost open Profile


_profiling = _ProfileState()
_clock = time.perf_counter


class Profile:
    """Seconds and calls per (op, label), forward and backward apart."""

    def __init__(self):
        # (op, label) -> [forward s, forward calls, backward s, backward calls]
        self.stats = {}

    def add(self, node, col, seconds):
        """Count one rule of ``node`` that took ``seconds``: its forward
        (``col`` 0) or its backward (``col`` 2)."""
        row = self.stats.setdefault((node.op, _label(node)), [0.0, 0, 0.0, 0])
        row[col] += seconds
        row[col + 1] += 1

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
    """Open a :class:`Profile` for the graphs that the calling thread
    evaluates inside the block."""
    outer, _profiling.active = _profiling.active, Profile()
    try:
        yield _profiling.active
    finally:
        _profiling.active = outer


def _label(node):
    for i in node.inputs[1:] + node.inputs[:1]:
        if i.op == "leaf":
            return i.name
    return None


# ---------------------------------------------------------------------------
# evaluation


def _topo_order(outputs):
    order, state = [], {}
    stack = [(n, False) for n in reversed(outputs)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if state.get(node.uid):
            continue
        state[node.uid] = True
        stack.append((node, True))
        for inp in reversed(node.inputs):
            if not state.get(inp.uid):
                stack.append((inp, False))
    return order


class Graph:
    """An expression graph with cached topological order.

    ``outputs`` is one node, or a sequence of nodes that ``evaluate_many``
    evaluates in one shared pass; ``output`` is the first of them, which
    ``value_and_grad`` differentiates.  ``frees[k]`` lists the uids of the
    values that ``nodes[k]`` is the last to read, outputs excepted.  A Graph
    holds no arrays: each pass keeps its values to itself, so one Graph may
    be evaluated and differentiated by any number of callers.
    """

    def __init__(self, outputs):
        self.outputs = (outputs,) if isinstance(outputs, Node) else tuple(outputs)
        if not self.outputs:
            raise GradcoreError("a Graph needs at least one output node")
        self.output = self.outputs[0]
        self.nodes = _topo_order(self.outputs)
        outs = {o.uid for o in self.outputs}
        last = {i.uid: k for k, n in enumerate(self.nodes) for i in n.inputs
                if i.uid not in outs}
        self.frees = [[] for _ in self.nodes]
        for uid, k in last.items():
            self.frees[k].append(uid)


def _as_graph(g):
    return g if isinstance(g, Graph) else Graph(g)


# leaf dtypes a pass computes in; a leaf bound to anything else is float64
_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def _forward(nodes, bindings, frees=None):
    """Node values by uid.  With ``frees``, a Graph's schedule of last
    reads, each value is dropped once the last node that reads it has run;
    without it every value is kept."""
    values = {}
    prof = _profiling.active
    with np.errstate(all="ignore"):
        for n, dead in zip(nodes, frees or itertools.repeat(())):
            if n.op == "leaf":
                if n.name not in bindings:
                    raise GradcoreError(f"unbound leaf '{n.name}'")
                v = bindings[n.name]
                if type(v) is not np.ndarray or v.dtype not in _FLOAT_DTYPES:
                    v = np.asarray(v, dtype=np.float64)
            elif n.op == "const":
                v = n.params["value"]
            else:
                try:
                    rule = _RULES[n.op]
                except KeyError:
                    raise GradcoreError(f"unknown primitive '{n.op}'") from None
                vals = [values[i.uid] for i in n.inputs]
                t0 = _clock()
                v = rule.fwd(vals, n.params)
                if prof is not None:
                    prof.add(n, 0, _clock() - t0)
                if not rule.checks_finite and not np.isfinite(v).all():
                    raise NonFiniteError(f"non-finite value produced by '{n.op}'")
            values[n.uid] = v
            for uid in dead:
                del values[uid]
    return values


def evaluate_many(outputs, bindings):
    """Evaluate several output nodes, or the outputs of a :class:`Graph`, in
    one shared forward pass; a Graph reuses its topological order.  Each
    value, a conv layer's columns included, is dropped once the last node
    that reads it has run, so the pass holds about one layer's arrays."""
    g = _as_graph(outputs)
    values = _forward(g.nodes, bindings, g.frees)
    return [values[o.uid] for o in g.outputs]


def value_and_grad(graph, bindings, wrt):
    """Forward value plus reverse-mode gradients for the named leaves.

    The forward pass keeps every value; each one, a conv layer's columns
    included, is dropped once its own backward has run or been skipped.
    Nothing is kept on the Graph.
    """
    g = _as_graph(graph)
    if len(g.outputs) != 1:
        raise GradcoreError(f"gradient requires one output, got {len(g.outputs)}")
    values = _forward(g.nodes, bindings)
    out = np.asarray(values[g.output.uid])  # a constant output is a float
    if out.size != 1:
        raise GradcoreError(f"gradient requires a scalar output, got shape {out.shape}")
    # only nodes with a path to a requested leaf carry an adjoint; the sweep
    # skips the rest and never computes gradients flowing into them
    wanted = set(wrt)
    live = set()
    for n in g.nodes:
        if (n.name in wanted if n.op == "leaf"
                else any(i.uid in live for i in n.inputs)):
            live.add(n.uid)
    grads = {g.output.uid: np.ones_like(out)}
    leaf_grads = {}
    prof = _profiling.active
    with np.errstate(all="ignore"):
        for n in reversed(g.nodes):
            # every consumer of n comes later in topological order and has run
            # its backward, so this is the last read of n's value
            v = values.pop(n.uid)
            if n.uid not in live:
                continue
            gout = grads.pop(n.uid, None)
            if gout is None:
                continue
            if n.op == "leaf":
                # distinct leaf nodes may share a name; they bind to one tensor,
                # so their adjoints accumulate
                prev = leaf_grads.get(n.name)
                leaf_grads[n.name] = gout if prev is None else prev + gout
                continue
            rule = _RULES[n.op]
            need = [i.uid in live for i in n.inputs]
            vals = [values[i.uid] for i in n.inputs]
            t0 = _clock()
            in_grads = rule.bwd(gout, vals, v, n.params, need)
            if prof is not None:
                prof.add(n, 2, _clock() - t0)
            for inp, ig, keep in zip(n.inputs, in_grads, need):
                if ig is None or not keep:
                    continue
                prev = grads.get(inp.uid)
                grads[inp.uid] = ig if prev is None else prev + ig
    result = {}
    for name in wrt:
        if name in leaf_grads:
            result[name] = np.asarray(leaf_grads[name], dtype=np.float64)
            # a non-finite adjoint on a live path reaches a requested leaf:
            # every backward rule multiplies or sums it, and inf * 0 is NaN
            if not np.isfinite(result[name]).all():
                raise NonFiniteError(f"non-finite gradient for leaf '{name}'")
        elif name in bindings:
            result[name] = np.zeros_like(np.asarray(bindings[name], dtype=np.float64))
        else:
            raise GradcoreError(f"cannot differentiate w.r.t. unknown leaf '{name}'")
    return float(out.reshape(())), result


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ParamSpec:
    """Initialization recipe for one named tensor: uniform in
    +-1/sqrt(``fan_in``), or zeros when ``fan_in`` is None."""

    name: str
    shape: tuple
    fan_in: int | None = None


_MAGIC = b"MKPT3"


@dataclass
class ParamStore:
    """Named float64 tensors plus a ``meta`` dict of text, saved as one file."""

    tensors: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @classmethod
    def initialize(cls, specs, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        tensors = {}
        for spec in specs:
            if spec.name in tensors:
                raise GradcoreError(f"duplicate parameter '{spec.name}'")
            if spec.fan_in is None:
                tensors[spec.name] = np.zeros(spec.shape)
            else:
                bound = 1.0 / np.sqrt(float(spec.fan_in))
                tensors[spec.name] = rng.uniform(-bound, bound, size=spec.shape)
        return cls(tensors=tensors)

    def copy(self):
        return ParamStore(tensors={k: v.copy() for k, v in self.tensors.items()},
                          meta=dict(self.meta))

    def names(self):
        return list(self.tensors)

    def __getitem__(self, name):
        return self.tensors[name]

    def save(self, path):
        """Magic 'MKPT3', tensor and meta counts, per tensor its name, rank,
        dims and '<f8' data, then per meta item its key and ``str`` value,
        then a uint32 CRC32 of every byte before it; text is UTF-8 after a
        uint32 length.  The counts expose any cut, the CRC any flipped bit."""
        def text(s):
            raw = str(s).encode("utf-8")
            return struct.pack("<I", len(raw)) + raw

        parts = [_MAGIC + struct.pack("<II", len(self.tensors), len(self.meta))]
        for name, arr in self.tensors.items():
            parts.append(text(name))
            parts.append(struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape))
            parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for key in sorted(self.meta):
            parts.append(text(key) + text(self.meta[key]))
        body = b"".join(parts)
        with open(path, "wb") as f:
            f.write(body)
            f.write(struct.pack("<I", zlib.crc32(body)))

    @classmethod
    def load(cls, path):
        """The store ``save`` wrote to ``path``, meta values as ``str``.

        A cut, corrupt or over-long file, or one whose CRC does not match,
        raises GradcoreError naming ``path``.
        """
        with open(path, "rb") as f:
            data = f.read()
        if data[:5] != _MAGIC:
            raise GradcoreError(f"{path}: bad magic, not a MKPT3 checkpoint")
        off, record = 5, "header"

        def take(nbytes):
            nonlocal off
            if off + nbytes > len(data):
                raise GradcoreError(
                    f"{path}: corrupt or truncated {record} in MKPT3 "
                    f"checkpoint: needs {off + nbytes} bytes, file has {len(data)}")
            off += nbytes
            return data[off - nbytes:off]

        def corrupt(why):
            return GradcoreError(
                f"{path}: corrupt {record} in MKPT3 checkpoint: {why}")

        def text(what):
            (n,) = struct.unpack("<I", take(4))
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError:
                raise corrupt(f"{what} is not UTF-8") from None

        n_tensors, n_meta = struct.unpack("<II", take(8))
        tensors, meta = {}, {}
        for k in range(n_tensors):
            record = f"record #{k}"
            name = text("tensor name")
            if name in tensors:
                raise corrupt(f"duplicate tensor {name!r}")
            record += f" {name!r}"
            (rank,) = struct.unpack("<I", take(4))
            dims = struct.unpack(f"<{rank}I", take(4 * rank))
            arr = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8")
            try:
                tensors[name] = arr.reshape(dims).astype(np.float64)
            except ValueError:  # a zero dim beside dims too large for any array
                raise corrupt(f"impossible shape {dims}") from None
        for k in range(n_meta):
            record = f"meta #{k}"
            key = text("meta key")
            if key in meta:
                raise corrupt(f"duplicate meta key {key!r}")
            meta[key] = text("meta value")
        record = "checksum"
        (crc,) = struct.unpack("<I", take(4))
        if off != len(data):
            raise GradcoreError(f"{path}: {len(data) - off} bytes after the "
                                "last record of the MKPT3 checkpoint")
        if crc != zlib.crc32(data[:off - 4]):
            raise GradcoreError(f"{path}: CRC32 mismatch, the MKPT3 checkpoint "
                                "is corrupt")
        return cls(tensors=tensors, meta=meta)


def sgd_update(params: ParamStore, grads, lr):
    """In-place SGD step ``p <- p - lr * g`` over every parameter."""
    for name, t in params.tensors.items():
        if name not in grads:
            raise GradcoreError(f"missing gradient for parameter '{name}'")
        t -= lr * grads[name]
    return params


# ---------------------------------------------------------------------------
# config fields: every config of the package checks each field when it is built


def _check_integer(name, value, least):
    """ValueError naming ``name`` unless ``value``, or each item of a nonempty
    tuple ``value``, is a ``numbers.Integral`` other than a bool >= ``least``."""
    items = value if isinstance(value, tuple) else (value,)
    if not items or not all(not isinstance(v, bool) and isinstance(v, numbers.Integral)
                            and v >= least for v in items):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_real(name, value, bound=None):
    """ValueError naming ``name`` unless ``value`` is a finite ``numbers.Real``
    other than a bool that meets ``bound``: "> 0", ">= 0" or None."""
    ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
          and math.isfinite(value))
    if ok and bound:
        ok = {"> 0": 0 < value, ">= 0": 0 <= value}[bound]
    if not ok:
        rule = f"finite and {bound}" if bound else "finite"
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class LrSchedule:
    """The one learning rate of a training run: every step of both stages
    updates at ``initial``.  The class and field keep these names because
    the bench's ``train`` workload builds ``LrSchedule(initial=...)``; they
    become a plain learning rate when the bench's rate is retuned."""

    initial: float = 0.1

    def __post_init__(self):
        _check_real("LrSchedule.initial", self.initial, ">= 0")
