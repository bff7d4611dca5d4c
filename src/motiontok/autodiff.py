"""Minimal dense-tensor reverse-mode automatic differentiation on float64 numpy arrays.

Every operation records its parents and a backward closure on the result
tensor; `backward` walks the implicit DAG once in reverse topological order
and accumulates exact analytic gradients. There is no implicit broadcasting:
element-wise ops demand identical shapes, and the only shape-bending ops are
the ones defined here (matmul, linear, add_bias, reductions, reshape, ...).

The forward ops (linear, relu, add, matmul, transpose, reshape, scalar_mul,
softmax, attention, layer_norm, l2_normalize) also run graph-free: with no Tensor operand
they return the same values, by the same numpy operations, as a plain
np.ndarray and record nothing. Inference runs the encoder that way; Tensor
operands give a Tensor, under `no_grad` too.

Memory: parameters (leaves that require grad) hold an eager `.grad`, which
the optimizer reads. An interior node gets its gradient buffer on the first
accumulation into it, and `backward` drops that buffer and the node's closure,
with the forward buffers it holds, as soon as the node has been propagated.
Loading this module fixes glibc malloc's thresholds (`_keep_heap_mapped`), so
that the buffers one training step frees are reused by the next step instead
of going back to the system and faulting in again; `release_free_heap` hands
them back when training ends.
"""
from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

# glibc mallopt parameters and the values _keep_heap_mapped sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 1 << 30  # free heap top kept mapped, bytes
_MMAP_THRESHOLD = 32 << 20  # glibc's largest: smaller blocks come from the heap


def _libc_function(name: str, *argtypes):
    """The C library function `name` of this process, or None."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):
        return None
    fn.argtypes = argtypes
    return fn


def _keep_heap_mapped() -> bool:
    """Fix glibc malloc's trim and mmap thresholds; True if they were set.

    By default glibc adapts both thresholds to the sizes freed so far, returns
    the heap's free top to the system once it passes the trim threshold, and
    serves blocks above the mmap threshold from fresh mappings. A training
    step frees tens of MB of graph buffers at its end and allocates them again
    in the next step, so every step faulted those pages in anew (10k to 24k
    minor faults per desk-size step, a count that also differed between
    processes running identical steps). With fixed thresholds the heap keeps
    its pages and a repeated step faults none in; `release_free_heap` hands
    them back once a training run ends. Blocks above 32 MB are still mapped
    and unmapped one by one. Left alone when the MALLOC_TRIM_THRESHOLD_ or
    MALLOC_MMAP_THRESHOLD_ environment variable sets them, and where the C
    library has no mallopt.
    """
    if any(v in os.environ for v in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")):
        return False
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is None:
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD))


def release_free_heap() -> None:
    """Return the heap's free pages to the system (glibc malloc_trim), so the
    memory a finished training run held does not stay resident beside what
    comes after it. A no-op where the C library has no malloc_trim."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


_MALLOC_TRIM = _libc_function("malloc_trim", ctypes.c_size_t)
_keep_heap_mapped()


class ShapeError(ValueError):
    """Operand shapes incompatible for an op."""


_STATE = threading.local()  # per-thread: one thread's no_grad leaves the others recording


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording (inference mode) in the current thread."""
    prev = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


class Tensor:
    __slots__ = ("values", "requires_grad", "grad", "parents", "op", "_backward")

    def __init__(self, values, requires_grad: bool = False, parents=(), op: str = "leaf",
                 backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # calloc'd zeros: a parameter that never trains touches no gradient page
        self.grad = np.zeros(self.values.shape) if self.requires_grad and not parents else None
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(values, name: str = "param") -> Tensor:
    return Tensor(np.array(values, dtype=np.float64), requires_grad=True, op=name)


def _result(values, parents, op, backward) -> Tensor:
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    if not track:
        return Tensor(values, op=op)
    return Tensor(values, requires_grad=True, parents=parents, op=op, backward=backward)


def _grad_buffer(t: Tensor) -> np.ndarray:
    """t's gradient accumulator, allocated as zeros in t's layout on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    return t.grad


def _accumulate(t: Tensor, g) -> None:
    buf = _grad_buffer(t)
    buf += g


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")


# --- element-wise and scalar ops -------------------------------------------

def add(a, b) -> Tensor | np.ndarray:
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        _same_shape("add", a, b)
        return a + b
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("add", a, b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g)

    return _result(a.values + b.values, (a, b), "add", bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("sub", a, b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, -g)

    return _result(a.values - b.values, (a, b), "sub", bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("mul", a, b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b.values)
        if b.requires_grad:
            _accumulate(b, g * a.values)

    return _result(a.values * b.values, (a, b), "mul", bwd)


def scalar_add(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)

    return _result(a.values + c, (a,), "scalar_add", bwd)


def scalar_mul(a, c: float) -> Tensor | np.ndarray:
    c = float(c)
    if not isinstance(a, Tensor):
        return a * c

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * c)

    return _result(a.values * c, (a,), "scalar_mul", bwd)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_values = np.sqrt(a.values)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * 0.5 / out_values)

    return _result(out_values, (a,), "sqrt", bwd)


def relu(a) -> Tensor | np.ndarray:
    if not isinstance(a, Tensor):
        return np.maximum(a, 0.0)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * (a.values > 0.0))

    return _result(np.maximum(a.values, 0.0), (a,), "relu", bwd)


# --- shape ops ---------------------------------------------------------------

def matmul(a, b) -> Tensor | np.ndarray:
    """2D @ 2D, or stacked matmul on equal leading dimensions."""
    graph = isinstance(a, Tensor) or isinstance(b, Tensor)
    if graph:
        a, b = as_tensor(a), as_tensor(b)
    if len(a.shape) < 2 or len(a.shape) != len(b.shape):
        raise ShapeError(f"matmul: ranks {a.shape} @ {b.shape} unsupported")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} @ {b.shape} incompatible")
    if not graph:
        return np.matmul(a, b)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(b.values, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(a.values, -1, -2), g))

    return _result(np.matmul(a.values, b.values), (a, b), "matmul", bwd)


def linear(x, w, b) -> Tensor | np.ndarray:
    """Affine map of the last axis, x (..., din) @ w (din, dout) + b (dout,),
    as one node and one 2-D product over all rows. Forward and backward run
    the numpy operations of reshape -> matmul -> add_bias -> reshape in the
    same order, so the bits agree."""
    graph = isinstance(x, Tensor) or isinstance(w, Tensor) or isinstance(b, Tensor)
    if graph:
        x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (len(w.shape) != 2 or b.shape != (w.shape[1],) or len(x.shape) < 1
            or x.shape[-1] != w.shape[0]):
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape}")
    xv, wv, bv = (x.values, w.values, b.values) if graph else (x, w, b)
    out = np.matmul(xv.reshape(-1, wv.shape[0]), wv)
    out += bv
    out = out.reshape(*x.shape[:-1], w.shape[1])
    if not graph:
        return out

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))
        if w.requires_grad:
            _accumulate(w, np.matmul(x.values.reshape(-1, w.shape[0]).T, g2))
        if x.requires_grad:
            _accumulate(x, np.matmul(g2, w.values.T).reshape(x.shape))

    return _result(out, (x, w, b), "linear", bwd)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor | np.ndarray:
    if not isinstance(a, Tensor):
        return np.transpose(a, axes)
    if axes is None:
        axes = tuple(reversed(range(a.values.ndim)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.transpose(g, inverse))

    return _result(np.transpose(a.values, axes), (a,), "transpose", bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor | np.ndarray:
    if not isinstance(a, Tensor):
        return a.reshape(shape)
    old = a.shape

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(old))

    return _result(a.values.reshape(shape), (a,), "reshape", bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return _result(np.concatenate([t.values for t in tensors], axis=axis),
                   tuple(tensors), "concat", bwd)


def slice_tensor(a, key) -> Tensor:
    """Basic slicing (tuple of slices); gradients scatter back into place."""
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            _grad_buffer(a)[key] += g

    return _result(a.values[key], (a,), "slice", bwd)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0 by an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)

    def bwd(g):
        if a.requires_grad:
            np.add.at(_grad_buffer(a), idx, g)

    return _result(a.values[idx], (a,), "take_rows", bwd)


def add_bias(a, b) -> Tensor:
    """Add a (d,) vector along the last axis of a (..., d) tensor."""
    a, b = as_tensor(a), as_tensor(b)
    if b.values.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {a.shape} + {b.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g.reshape(-1, b.shape[0]).sum(axis=0))

    return _result(a.values + b.values, (a, b), "add_bias", bwd)


# --- reductions ---------------------------------------------------------------

def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        def bwd(g):
            if a.requires_grad:
                _accumulate(a, g)  # scalar g broadcasts
        return _result(a.values.sum(), (a,), "sum", bwd)

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.expand_dims(g, axis))

    return _result(a.values.sum(axis=axis), (a,), "sum", bwd)


def mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.values.size

        def bwd(g):
            if a.requires_grad:
                _accumulate(a, g / n)
        return _result(a.values.mean(), (a,), "mean", bwd)

    n = a.shape[axis]

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.expand_dims(g, axis) / n)

    return _result(a.values.mean(axis=axis), (a,), "mean", bwd)


# --- normalization and similarity ops ----------------------------------------

def softmax(a, axis: int = -1) -> Tensor | np.ndarray:
    """Max-shifted softmax along `axis`."""
    x = a.values if isinstance(a, Tensor) else a
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    out_values = e / e.sum(axis=axis, keepdims=True)
    if not isinstance(a, Tensor):
        return out_values

    def bwd(g):
        if a.requires_grad:
            dot = (g * out_values).sum(axis=axis, keepdims=True)
            _accumulate(a, out_values * (g - dot))

    return _result(out_values, (a,), "softmax", bwd)


def masked_logsumexp(a, mask: np.ndarray, axis: int = -1) -> Tensor:
    """log(sum(exp(a))) restricted to mask==True entries along `axis`.

    Fused, max-shifted form: safe at low contrastive temperatures where the
    exponentials alone would overflow.
    """
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ShapeError(f"masked_logsumexp: mask {mask.shape} vs values {a.shape}")
    if not mask.any(axis=axis).all():
        raise ValueError("masked_logsumexp: some rows have no allowed entries")
    neg_inf = np.where(mask, a.values, -np.inf)
    m = neg_inf.max(axis=axis, keepdims=True)
    out_values = (m + np.log(np.exp(neg_inf - m).sum(axis=axis, keepdims=True))).squeeze(axis)

    def bwd(g):
        if a.requires_grad:
            soft = np.exp(neg_inf - np.expand_dims(out_values, axis))
            _accumulate(a, np.expand_dims(g, axis) * soft)

    return _result(out_values, (a,), "masked_logsumexp", bwd)


def segments(offsets, rows: int, what: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """(starts, lengths, uniform) of the segments offsets cut `rows` rows
    into, uniform telling whether all have one length, if the offsets are
    integers rising strictly from 0 to rows; else ShapeError naming `what`."""
    o = np.asarray(offsets)
    if o.ndim != 1 or o.size < 2 or o.dtype.kind not in "iu":
        raise ShapeError(f"{what} must be at least two integers, got {o}")
    starts = o[:-1]
    lengths = o[1:] - starts
    shortest = lengths.min()
    if o[0] != 0 or o[-1] != rows or shortest < 1:
        raise ShapeError(f"{what} must rise strictly from 0 to {rows}, got {o}")
    return starts, lengths, shortest * lengths.size == rows  # no segment longer than the rest


def _segment_rows(starts: np.ndarray, length: int):
    """Rows starts[j] + [0, length) for every j, in order: a slice when the
    segments lie back to back, else a flat index array."""
    if (np.diff(starts) == length).all():
        return slice(int(starts[0]), int(starts[0]) + starts.size * length)
    return (starts[:, None] + np.arange(length)).reshape(-1)


def attention(q, k, v, heads: int, q_offsets, kv_offsets) -> Tensor | np.ndarray:
    """Scaled dot-product attention over variable-length segments, as one node.

    q and k, v are (..., h) with their leading axes read as rows. Segment s
    holds the query rows q_offsets[s]:q_offsets[s + 1] and attends over the
    key and value rows kv_offsets[s]:kv_offsets[s + 1] only: the cu_seqlens
    layout of FlashAttention-2's varlen kernels (Dao 2023). Segments with equal
    (query, key) lengths form one group, and each group runs one batched
    product for the scores and one for the context, with the heads folded
    into the batch axis: (m, L, h) -> (m, heads, L, h / heads). When all
    segments have equal lengths, these are the products of the plain batched
    form over (segments, heads). Returns q's shape. The backward keeps the
    groups' softmax probabilities and nothing else; they are the list `probs`
    on the backward function.
    """
    graph = isinstance(q, Tensor) or isinstance(k, Tensor) or isinstance(v, Tensor)
    if graph:
        q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    h = q.shape[-1]
    if k.shape != v.shape or k.shape[-1] != h or h % heads:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads")
    qv, kv, vv = (q.values, k.values, v.values) if graph else (q, k, v)
    q2, k2, v2 = qv.reshape(-1, h), kv.reshape(-1, h), vv.reshape(-1, h)
    q_starts, lq, q_uniform = segments(q_offsets, q2.shape[0], "attention: q_offsets")
    k_starts, lk, k_uniform = segments(kv_offsets, k2.shape[0], "attention: kv_offsets")
    if lq.size != lk.size:
        raise ShapeError(f"attention: {lq.size} query and {lk.size} key segments")
    dh = h // heads
    scale = 1.0 / math.sqrt(dh)
    if q_uniform and k_uniform:
        groups = [(slice(None), slice(None), lq.size)]  # (query rows, key rows, segments)
    else:
        sizes, group_of = np.unique(np.stack([lq, lk], axis=1), axis=0, return_inverse=True)
        groups = []
        for g, (a, b) in enumerate(sizes):
            sel = np.flatnonzero(group_of.reshape(-1) == g)
            groups.append((_segment_rows(q_starts[sel], a), _segment_rows(k_starts[sel], b),
                           sel.size))

    split = lambda x, m: np.transpose(x.reshape(m, -1, heads, dh), (0, 2, 1, 3))
    merge = lambda x: np.transpose(x, (0, 2, 1, 3)).reshape(-1, h)
    out = np.empty_like(q2) if len(groups) > 1 else None
    probs = []
    for rows_q, rows_k, m in groups:
        scores = np.matmul(split(q2[rows_q], m), np.transpose(split(k2[rows_k], m), (0, 1, 3, 2)))
        scores *= scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        ctx = merge(np.matmul(attn, split(v2[rows_k], m)))
        if out is None:
            out = ctx
        else:
            out[rows_q] = ctx
        probs.append(attn)
    out = out.reshape(q.shape)
    if not graph:
        return out

    def bwd(g):
        g2 = g.reshape(-1, h)
        dq, dk, dv = (np.empty_like(x) if t.requires_grad else None
                      for t, x in ((q, q2), (k, k2), (v, v2)))
        for (rows_q, rows_k, m), attn in zip(groups, probs):
            gc = split(g2[rows_q], m)
            if dv is not None:
                dv[rows_k] = merge(np.matmul(np.swapaxes(attn, -1, -2), gc))
            if dq is None and dk is None:
                continue
            da = np.matmul(gc, np.swapaxes(split(v2[rows_k], m), -1, -2))
            ds = attn * (da - (da * attn).sum(axis=-1, keepdims=True))
            ds *= scale
            if dq is not None:
                dq[rows_q] = merge(np.matmul(ds, split(k2[rows_k], m)))
            if dk is not None:
                dk[rows_k] = merge(np.matmul(np.swapaxes(ds, -1, -2), split(q2[rows_q], m)))
        for t, d in ((q, dq), (k, dk), (v, dv)):
            if d is not None:
                _accumulate(t, d.reshape(t.shape))

    bwd.probs = probs
    return _result(out, (q, k, v), "attention", bwd)


def nt_xent(sim, anchors, positives, mask_ab, mask_ba) -> Tensor:
    """Symmetric NT-Xent loss (Chen et al. 2020) as one node, from the scaled
    similarity matrix sim (Ma, Mb) to the mean over 2P terms.

    Pair i scores row anchors[i] of sim against its positive column
    positives[i] over the entries mask_ab[i] (P, Mb) allows, and column
    positives[i] against its positive row anchors[i] over the entries mask_ba[i]
    (P, Ma) allows: each term is the max-shifted masked logsumexp minus the
    positive entry. anchors and positives must each hold distinct indices, so
    the backward, (masked softmax - one-hot) * g / 2P per direction, is
    written into its rows and columns by plain index arithmetic.
    """
    sim = as_tensor(sim)
    anchors = np.asarray(anchors, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    p = anchors.shape[0]
    if (sim.values.ndim != 2 or positives.shape != (p,)
            or mask_ab.shape != (p, sim.shape[1]) or mask_ba.shape != (p, sim.shape[0])):
        raise ShapeError(f"nt_xent: sim {sim.shape}, {p} anchors, {positives.shape} positives, "
                         f"masks {mask_ab.shape}/{mask_ba.shape}")
    if np.unique(anchors).size != p or np.unique(positives).size != p:
        raise ValueError("nt_xent: anchors and positives must each be distinct")
    picked = np.arange(p)

    def direction(s, rows_idx, cols_idx, mask):
        rows = s[rows_idx]
        neg_inf = np.where(mask, rows, -np.inf)
        m = neg_inf.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(neg_inf - m).sum(axis=1, keepdims=True))).squeeze(1)
        return lse - rows[picked, cols_idx], neg_inf, lse

    terms_ab, neg_ab, lse_ab = direction(sim.values, anchors, positives, mask_ab)
    terms_ba, neg_ba, lse_ba = direction(sim.values.T, positives, anchors, mask_ba)
    n = 2 * p

    def bwd(g):
        scale = g / n
        buf = _grad_buffer(sim)
        for view, rows, cols, neg_inf, lse in ((buf, anchors, positives, neg_ab, lse_ab),
                                               (buf.T, positives, anchors, neg_ba, lse_ba)):
            grad = scale * np.exp(neg_inf - lse[:, None])
            grad[picked, cols] -= scale
            view[rows] += grad

    return _result(np.concatenate([terms_ab, terms_ba]).mean(), (sim,), "nt_xent", bwd)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor | np.ndarray:
    """Normalize over the last axis to mean 0 / variance 1, then apply the
    per-feature affine. The variance is floored at eps (not shifted by it), so
    non-degenerate rows come out with variance exactly 1."""
    graph = isinstance(a, Tensor) or isinstance(gamma, Tensor) or isinstance(beta, Tensor)
    if graph:
        a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} vs features {d}")
    x, gv, bv = (a.values, gamma.values, beta.values) if graph else (a, gamma, beta)
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.maximum(var, eps))
    xhat = xc * inv
    out_values = xhat * gv + bv
    if not graph:
        return out_values
    active = var > eps

    def bwd(g):
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            _accumulate(beta, g.reshape(-1, d).sum(axis=0))
        if a.requires_grad:
            dxhat = g * gamma.values
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= active * xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(a, inv * term)

    return _result(out_values, (a, gamma, beta), "layer_norm", bwd)


def l2_normalize(a) -> Tensor | np.ndarray:
    """Scale each vector along the last axis to unit L2 norm."""
    x = a.values if isinstance(a, Tensor) else a
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norm < 1e-12).any():
        raise ValueError("l2_normalize: degenerate vector with norm < 1e-12")
    out_values = x / norm
    if not isinstance(a, Tensor):
        return out_values

    def bwd(g):
        if a.requires_grad:
            dot = (g * out_values).sum(axis=-1, keepdims=True)
            _accumulate(a, (g - out_values * dot) / norm)

    return _result(out_values, (a,), "l2_normalize", bwd)


def dot_last(a, b) -> Tensor:
    """Dot product over the last axis of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("dot_last", a, b)

    def bwd(g):
        ge = np.expand_dims(g, -1)
        if a.requires_grad:
            _accumulate(a, ge * b.values)
        if b.requires_grad:
            _accumulate(b, ge * a.values)

    return _result((a.values * b.values).sum(axis=-1), (a, b), "dot_last", bwd)


# --- graph walk ---------------------------------------------------------------

def topo_order(root: Tensor) -> list[Tensor]:
    """All recorded tensors reachable from root, parents before children."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d p into .grad of every reachable parameter p (seed 1).

    Each interior node is propagated once and then releases its gradient and
    its closure, so the graph cannot be walked backward a second time: that
    raises RuntimeError instead of silently adding nothing.
    """
    if loss.values.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    if loss.parents and loss._backward is None:
        raise RuntimeError("backward: this graph was already propagated")
    order = topo_order(loss)
    _accumulate(loss, 1.0)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = node._backward = None
