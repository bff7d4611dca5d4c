"""Minimal dense-tensor reverse-mode automatic differentiation on float32 or
float64 numpy arrays.

A Tensor is an array and its graph `Node`. Every operation records, on the
result's node, its parents' nodes and a backward closure; `backward` walks
the nodes once in reverse topological order and accumulates exact analytic
gradients. There is no implicit broadcasting: `add` demands identical shapes.
The module holds only the ops the package runs: the encoder's (linear, relu,
add, reshape, attention, layer_norm, l2_normalize), the slicing and joining of
view blocks (slice_tensor, concat), and the three training losses, each one
node with a hand-written backward (nt_xent, triplet_margin, cycle_back).

The ops the encoder forward runs (linear, relu, add, attention, layer_norm,
l2_normalize) also run graph-free: with no Tensor operand they return the
same values, by the same numpy operations, as a plain np.ndarray and record
nothing. Inference runs the encoder that way; Tensor operands give a Tensor,
under `no_grad` too. Every other op wraps plain-array operands as leaves and
returns a Tensor.

Dtype: an op computes in its operands' dtype, which must be one, float32 or
float64 (a Tensor keeps float32 values and stores any other as float64), and
its values and gradients come out in that dtype. Scalars enter the arithmetic
as Python floats and per-row weights as arrays cast to the operands' dtype, so
numpy's value-based casting (numpy 1.x) and NEP 50 (numpy 2) give the same
result dtypes. Training runs the ops in float32; inference and the gradient
checks run them in float64.

Memory: a node holds no values, so an op's output lives only as long as a
Tensor holding it or a backward closure that reads it. Each closure keeps
exactly the arrays its backward reads: linear its input (and the weight),
relu its own output (its mask), layer_norm the normalized input, the inverse
deviations and the active-row mask, attention q, k, v and the softmax
probabilities, l2_normalize its output and the norms, nt_xent the two blocks
and the masked rows with their logsumexps, triplet_margin the differences,
distances and hinges, cycle_back its padded blocks and both softmaxes; add,
reshape, slice_tensor and concat keep no array. A residual sum or an
attention output projection is therefore freed as soon as the forward has
used it. Parameters (leaves given a gradient buffer) hold that buffer, which
the optimizer reads. An interior node gets its gradient buffer on the first
accumulation into it, and `backward` drops that buffer and the node's
closure, with the arrays it keeps, as soon as the node has been propagated.
Loading this module fixes glibc malloc's thresholds (`_keep_heap_mapped`), so
that the buffers one training step frees are reused by the next step, and by
the stages after training, instead of going back to the system and faulting
in again.
"""
from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager

import numpy as np

# glibc mallopt parameters and the values _keep_heap_mapped sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_TRIM_THRESHOLD = 1 << 30  # free heap top kept mapped, bytes
_MMAP_THRESHOLD = 32 << 20  # glibc's largest: smaller blocks come from the heap
_ARENA_MAX = 1  # worker threads allocate from the main heap too


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
    step frees its buffers at its end and allocates them again in the next
    step, so steps fault those pages in anew. Over the desk benchmark's
    training runs (6 steps each) that was about 2,000 minor faults per step
    with glibc's adaptive thresholds, 10,700 with MALLOC_TRIM_THRESHOLD_=131072
    and 330 with these fixed ones, which run desk training at 32 steps/s
    against 26 and 12. With fixed thresholds the heap keeps its pages, so a
    repeated step faults none in, and the lexicon build and tokenization
    after training reuse them too. Blocks above 32 MB are still mapped
    and unmapped one by one. Left alone when the MALLOC_TRIM_THRESHOLD_ or
    MALLOC_MMAP_THRESHOLD_ environment variable sets them, and where the C
    library has no mallopt.

    It also caps glibc at one arena, unless MALLOC_ARENA_MAX sets the cap.
    A `--threads` worker would otherwise get an arena of its own, which
    keeps the embedding buffers it frees: on the desk CLI corpus (60
    sequences) with two workers, one arena lowered the peak of
    `build-lexicon` from 72 to 64 MB and of `sweep-k` from 114 to 96 MB,
    with the same outputs.
    """
    mallopt = _libc_function("mallopt", ctypes.c_int, ctypes.c_int)
    if mallopt is None:
        return False
    if "MALLOC_ARENA_MAX" not in os.environ:
        mallopt(_M_ARENA_MAX, _ARENA_MAX)
    if any(v in os.environ for v in ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
                and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD))


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


class Node:
    """The graph record of one op result or leaf: its parents' nodes, the
    backward closure, the gradient buffer, whether a gradient flows to it, the
    op name, and the shape and dtype of its values, which an interior node's
    gradient buffer takes. It holds no values; the closure keeps the arrays
    its backward reads and nothing else.

    A leaf requires grad when it is given a gradient buffer `grad` of its
    shape, which backward accumulates into; an op's node requires grad when it
    has parents, because it is recorded only when a gradient flows to one."""

    __slots__ = ("parents", "_backward", "grad", "requires_grad", "op", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], op: str = "leaf", parents: tuple = (),
                 backward=None, grad: np.ndarray | None = None, dtype=np.float64):
        self.parents = parents
        self._backward = backward
        self.grad = grad
        self.requires_grad = bool(parents) or grad is not None
        self.op = op
        self.shape = shape
        self.dtype = dtype

    def __repr__(self) -> str:
        return f"Node(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


class Tensor:
    """An array and its graph node; a plain leaf (no gradient) by default."""

    __slots__ = ("values", "node")

    def __init__(self, values, node: Node | None = None):
        self.values = _as_values(values)
        self.node = Node(self.values.shape, dtype=self.values.dtype) if node is None else node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        """The node's gradient buffer: a parameter's accumulator, which the
        optimizer reads; None on an interior node outside backward."""
        return self.node.grad

    def __repr__(self) -> str:
        return f"Tensor({self.node!r})"


def _as_values(values) -> np.ndarray:
    """values as an array: float32 kept, anything else as float64."""
    values = np.asarray(values)
    return values if values.dtype == np.float32 else values.astype(np.float64, copy=False)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(values, parents: tuple[Node, ...], op: str, backward) -> Tensor:
    """values as a Tensor whose node records op over the parent nodes, if
    recording is on and a gradient flows to one of them; else as a leaf."""
    values = _as_values(values)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        return Tensor(values, Node(values.shape, op, parents, backward, dtype=values.dtype))
    return Tensor(values, Node(values.shape, op, dtype=values.dtype))


def _grad_buffer(node: Node) -> np.ndarray:
    """node's gradient accumulator, allocated as zeros of its dtype on first use."""
    if node.grad is None:
        node.grad = np.zeros(node.shape, node.dtype)
    return node.grad


def _accumulate(node: Node, g) -> None:
    buf = _grad_buffer(node)
    buf += g


def _same_shape(op: str, a, b) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")


# --- element-wise ops --------------------------------------------------------

def add(a, b) -> Tensor | np.ndarray:
    if not (isinstance(a, Tensor) or isinstance(b, Tensor)):
        _same_shape("add", a, b)
        return a + b
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("add", a, b)
    an, bn = a.node, b.node

    def bwd(g):
        if an.requires_grad:
            _accumulate(an, g)
        if bn.requires_grad:
            _accumulate(bn, g)

    return _result(a.values + b.values, (an, bn), "add", bwd)


def relu(a) -> Tensor | np.ndarray:
    if not isinstance(a, Tensor):
        return np.maximum(a, 0.0)
    an, out = a.node, np.maximum(a.values, 0.0)

    def bwd(g):  # out > 0 where a > 0, so the output gives the mask
        _accumulate(an, g * (out > 0.0))

    return _result(out, (an,), "relu", bwd)


# --- shape ops ---------------------------------------------------------------

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
    xn, wn, bn = x.node, w.node, b.node

    def bwd(g):
        g2 = g.reshape(-1, wv.shape[1])
        if bn.requires_grad:
            _accumulate(bn, g2.sum(axis=0))
        if wn.requires_grad:
            _accumulate(wn, np.matmul(xv.reshape(-1, wv.shape[0]).T, g2))
        if xn.requires_grad:
            _accumulate(xn, np.matmul(g2, wv.T).reshape(xn.shape))

    return _result(out, (xn, wn, bn), "linear", bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    an = a.node

    def bwd(g):
        _accumulate(an, g.reshape(an.shape))

    return _result(a.values.reshape(shape), (an,), "reshape", bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    nodes = tuple(t.node for t in tensors)
    splits = np.cumsum([n.shape[axis] for n in nodes])[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        for n, piece in zip(nodes, pieces):
            if n.requires_grad:
                _accumulate(n, piece)

    return _result(np.concatenate([t.values for t in tensors], axis=axis),
                   nodes, "concat", bwd)


def slice_tensor(a, key) -> Tensor:
    """Basic slicing (tuple of slices); gradients scatter back into place."""
    a = as_tensor(a)
    an = a.node

    def bwd(g):
        _grad_buffer(an)[key] += g

    return _result(a.values[key], (an,), "slice", bwd)


# --- attention ---------------------------------------------------------------

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
    form over (segments, heads). Returns q's shape. The backward keeps q, k, v
    and the groups' softmax probabilities, the list `probs` on the backward
    function.
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
    qn, kn, vn = q.node, k.node, v.node

    def bwd(g):
        g2 = g.reshape(-1, h)
        dq, dk, dv = (np.empty_like(x) if n.requires_grad else None
                      for n, x in ((qn, q2), (kn, k2), (vn, v2)))
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
        for n, d in ((qn, dq), (kn, dk), (vn, dv)):
            if d is not None:
                _accumulate(n, d.reshape(n.shape))

    bwd.probs = probs
    return _result(out, (qn, kn, vn), "attention", bwd)


# --- normalization -----------------------------------------------------------

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
    an, gn, bn = a.node, gamma.node, beta.node

    def bwd(g):
        if gn.requires_grad:
            _accumulate(gn, (g * xhat).reshape(-1, d).sum(axis=0))
        if bn.requires_grad:
            _accumulate(bn, g.reshape(-1, d).sum(axis=0))
        if an.requires_grad:
            dxhat = g * gv
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= active * xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(an, inv * term)

    return _result(out_values, (an, gn, bn), "layer_norm", bwd)


def l2_normalize(a) -> Tensor | np.ndarray:
    """Scale each vector along the last axis to unit L2 norm."""
    x = a.values if isinstance(a, Tensor) else a
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norm < 1e-12).any():
        raise ValueError("l2_normalize: degenerate vector with norm < 1e-12")
    out_values = x / norm
    if not isinstance(a, Tensor):
        return out_values
    an = a.node

    def bwd(g):
        dot = (g * out_values).sum(axis=-1, keepdims=True)
        _accumulate(an, (g - out_values * dot) / norm)

    return _result(out_values, (an,), "l2_normalize", bwd)


# --- losses ------------------------------------------------------------------

def nt_xent(a, b, inv_tau: float, anchors, positives, mask_ab, mask_ba) -> Tensor:
    """Symmetric NT-Xent loss (Chen et al. 2020) as one node, from the view
    blocks a (Ma, F) and b (Mb, F) to the mean over 2P terms.

    The similarities are sim = (a @ b^T) * inv_tau, formed and differentiated
    by the numpy calls of the matmul, transpose and scale ops they replaced.
    Pair i scores row anchors[i] of sim against its positive column
    positives[i] over the entries mask_ab[i] (P, Mb) allows, and column
    positives[i] against its positive row anchors[i] over the entries mask_ba[i]
    (P, Ma) allows: each term is the max-shifted masked logsumexp minus the
    positive entry. anchors and positives must each hold distinct indices, so
    the backward, (masked softmax - one-hot) * g / 2P per direction, is
    written into its rows and columns by plain index arithmetic.
    """
    a, b = as_tensor(a), as_tensor(b)
    anchors = np.asarray(anchors, dtype=np.int64)
    positives = np.asarray(positives, dtype=np.int64)
    p = anchors.shape[0]
    if (a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]
            or positives.shape != (p,)
            or mask_ab.shape != (p, b.shape[0]) or mask_ba.shape != (p, a.shape[0])):
        raise ShapeError(f"nt_xent: blocks {a.shape}/{b.shape}, {p} anchors, "
                         f"{positives.shape} positives, masks {mask_ab.shape}/{mask_ba.shape}")
    if np.unique(anchors).size != p or np.unique(positives).size != p:
        raise ValueError("nt_xent: anchors and positives must each be distinct")
    inv_tau = float(inv_tau)
    av, bv, an, bn = a.values, b.values, a.node, b.node
    sim = np.matmul(av, np.transpose(bv)) * inv_tau
    sim_shape, dtype, picked = sim.shape, sim.dtype, np.arange(p)

    def direction(s, rows_idx, cols_idx, mask):
        rows = s[rows_idx]
        neg_inf = np.where(mask, rows, -np.inf)
        m = neg_inf.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(neg_inf - m).sum(axis=1, keepdims=True))).squeeze(1)
        return lse - rows[picked, cols_idx], neg_inf, lse

    terms_ab, neg_ab, lse_ab = direction(sim, anchors, positives, mask_ab)
    terms_ba, neg_ba, lse_ba = direction(sim.T, positives, anchors, mask_ba)
    n = 2 * p

    def bwd(g):
        scale = g / n
        g_sim = np.zeros(sim_shape, dtype)
        for view, rows, cols, neg_inf, lse in ((g_sim, anchors, positives, neg_ab, lse_ab),
                                               (g_sim.T, positives, anchors, neg_ba, lse_ba)):
            grad = scale * np.exp(neg_inf - lse[:, None])
            grad[picked, cols] -= scale
            view[rows] += grad
        g_sim *= inv_tau
        if an.requires_grad:
            _accumulate(an, np.matmul(g_sim, bv))
        if bn.requires_grad:
            _accumulate(bn, np.matmul(av.T, g_sim).T)

    return _result(np.concatenate([terms_ab, terms_ba]).mean(), (an, bn), "nt_xent", bwd)


def triplet_margin(a, b, anchors, positives, negatives, clips, margin: float) -> Tensor:
    """Triplet margin loss (the TCN baseline, Sermanet et al. 2018) over many
    clips as one node.

    Anchor i is row anchors[i] of a, its positive row positives[i] of a and
    its negatives the rows negatives[i] (P, K) of b. Each (anchor, negative)
    pair gives the hinge max(0, |a_i - a_pos| - |a_i - b_neg| + margin);
    clips[i] names anchor i's clip (every clip 0 .. C-1 has anchors), and the
    value is the mean over clips of each clip's mean hinge. A zero distance
    passes no gradient.
    """
    a, b = as_tensor(a), as_tensor(b)
    anchors, positives, negatives, clips = (np.asarray(x, dtype=np.int64) for x in
                                            (anchors, positives, negatives, clips))
    p = anchors.shape[0]
    if (a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]
            or positives.shape != (p,) or clips.shape != (p,)
            or negatives.ndim != 2 or negatives.shape[0] != p):
        raise ShapeError(f"triplet_margin: blocks {a.shape}/{b.shape}, {p} anchors, "
                         f"{positives.shape} positives, {negatives.shape} negatives, "
                         f"{clips.shape} clips")
    per_clip = np.bincount(clips)
    if p == 0 or not per_clip.all():
        raise ValueError("triplet_margin: every clip 0 .. C-1 needs an anchor")
    diff_ap = a.values[anchors] - a.values[positives]  # (P, F)
    diff_an = a.values[anchors][:, None, :] - b.values[negatives]  # (P, K, F)
    d_ap = np.sqrt((diff_ap * diff_ap).sum(axis=-1))
    d_an = np.sqrt((diff_an * diff_an).sum(axis=-1))
    hinge = d_ap[:, None] - d_an + float(margin)
    k = negatives.shape[1]
    # bincount sums in float64 and the clip weights are integer arrays: the
    # value and the hinge gradients are cast back to the blocks' dtype
    dtype = hinge.dtype
    clip_sums = np.bincount(clips, weights=np.maximum(hinge, 0.0).sum(axis=1))
    value = (clip_sums / (per_clip * k)).mean().astype(dtype)
    an, bn = a.node, b.node

    def bwd(g):
        # d value / d hinge for every active (anchor, negative) pair
        g_clip = (g / (per_clip.size * k * per_clip)).astype(dtype, copy=False)
        g_hinge = g_clip[clips][:, None] * (hinge > 0.0)
        inv = lambda d: np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
        g_ap = (g_hinge.sum(axis=1) * inv(d_ap))[:, None] * diff_ap
        g_an = (-g_hinge * inv(d_an))[..., None] * diff_an
        if an.requires_grad:
            ga = _grad_buffer(an)
            np.add.at(ga, anchors, g_ap + g_an.sum(axis=1))
            np.add.at(ga, positives, -g_ap)
        if bn.requires_grad:
            np.add.at(_grad_buffer(bn), negatives.reshape(-1), -g_an.reshape(-1, bn.shape[1]))

    return _result(value, (an, bn), "triplet_margin", bwd)


def cycle_back(a, b, lengths_a, lengths_b, temperature: float) -> Tensor:
    """Cycle-back consistency loss (the TCC baseline, Dwibedi et al. 2019)
    over many clips as one node.

    Clip c is lengths_a[c] consecutive rows of a and lengths_b[c] of b. Frame
    i of its A view has the soft nearest neighbour nn_i = sum_j w_ij b_j in
    its B view, w_i = softmax_j(-|a_i - b_j|^2 / temperature); the clip's loss
    is the mean over i of the cross-entropy of softmax_k(-|nn_i - a_k|^2 /
    temperature) against k = i, the frame the cycle started from. The value is
    the mean over clips. All clips run as one batch padded to the longest
    views, the padding masked out of both softmaxes and of the means.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cycle_back: blocks {a.shape}/{b.shape}")
    _, len_a, _ = segments(np.concatenate([[0], np.cumsum(lengths_a)]), a.shape[0],
                           "cycle_back: lengths_a")
    _, len_b, _ = segments(np.concatenate([[0], np.cumsum(lengths_b)]), b.shape[0],
                           "cycle_back: lengths_b")
    if len_a.size != len_b.size:
        raise ShapeError(f"cycle_back: {len_a.size} A and {len_b.size} B clips")
    c, f = len_a.size, a.shape[1]
    scale = -1.0 / float(temperature)
    valid_a = np.arange(len_a.max()) < len_a[:, None]  # (C, Ta): real rows of the padded batch
    valid_b = np.arange(len_b.max()) < len_b[:, None]
    dtype = a.values.dtype
    x = np.zeros(valid_a.shape + (f,), dtype)
    x[valid_a] = a.values
    y = np.zeros(valid_b.shape + (f,), dtype)
    y[valid_b] = b.values
    swap = lambda t: np.swapaxes(t, 1, 2)

    def logits(u, v, valid_v):
        """-|u_i - v_j|^2 / temperature, (C, n, m), -inf at padded v rows."""
        d = (u * u).sum(axis=-1)[:, :, None] + (v * v).sum(axis=-1)[:, None, :]
        d -= 2.0 * np.matmul(u, swap(v))
        return np.where(valid_v[:, None, :], d * scale, -np.inf)

    def sq_dist_grads(g_d, u, v):
        """Gradients of sum(g_d * d) for d_ij = |u_i - v_j|^2, to u and to v."""
        return (2.0 * (g_d.sum(axis=2)[:, :, None] * u - np.matmul(g_d, v)),
                2.0 * (g_d.sum(axis=1)[:, :, None] * v - np.matmul(swap(g_d), u)))

    s1 = logits(x, y, valid_b)
    e = np.exp(s1 - s1.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    nn = np.matmul(w, y)
    s2 = logits(nn, x, valid_a)
    m = s2.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(s2 - m).sum(axis=-1, keepdims=True))  # (C, Ta, 1)
    diag = np.arange(valid_a.shape[1])
    terms = np.where(valid_a, lse[..., 0] - s2[:, diag, diag], 0.0)
    # the clip lengths are an integer array: the value and the per-clip
    # weights are cast back to the blocks' dtype
    value = (terms.sum(axis=1) / len_a).mean().astype(dtype)
    an, bn = a.node, b.node

    def bwd(g):
        g_terms = (g / (c * len_a)).astype(dtype, copy=False)[:, None] * valid_a
        g_s2 = g_terms[..., None] * np.exp(s2 - lse)
        g_s2[:, diag, diag] -= g_terms
        g_nn, gx = sq_dist_grads(g_s2 * scale, nn, x)
        g_w = np.matmul(g_nn, swap(y))
        gy = np.matmul(swap(w), g_nn)
        g_s1 = w * (g_w - (g_w * w).sum(axis=-1, keepdims=True))
        gx1, gy1 = sq_dist_grads(g_s1 * scale, x, y)
        if an.requires_grad:
            _accumulate(an, (gx + gx1)[valid_a])
        if bn.requires_grad:
            _accumulate(bn, (gy + gy1)[valid_b])

    return _result(value, (an, bn), "cycle_back", bwd)


# --- graph walk ---------------------------------------------------------------

def topo_order(root: Tensor) -> list[Node]:
    """The nodes reachable from root's, parents before children."""
    order: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root.node, False)]
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
    root = loss.node
    if not root.requires_grad:
        return
    if root.parents and root._backward is None:
        raise RuntimeError("backward: this graph was already propagated")
    order = topo_order(loss)
    _accumulate(root, 1.0)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = node._backward = None
