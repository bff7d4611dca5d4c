"""Minimal dense-tensor reverse-mode automatic differentiation on float64 numpy arrays.

Every operation records its parents and a backward closure on the result
tensor; `backward` walks the implicit DAG once in reverse topological order
and accumulates exact analytic gradients. There is no implicit broadcasting:
element-wise ops demand identical shapes, and the only shape-bending ops are
the ones defined here (matmul, linear, add_bias, reductions, reshape, ...).

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

def add(a, b) -> Tensor:
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


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

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


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0.0

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * mask)

    return _result(a.values * mask, (a,), "relu", bwd)


# --- shape ops ---------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """2D @ 2D, or stacked matmul on equal leading dimensions."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2 or a.values.ndim != b.values.ndim:
        raise ShapeError(f"matmul: ranks {a.shape} @ {b.shape} unsupported")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.shape} @ {b.shape} incompatible")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.matmul(g, np.swapaxes(b.values, -1, -2)))
        if b.requires_grad:
            _accumulate(b, np.matmul(np.swapaxes(a.values, -1, -2), g))

    return _result(np.matmul(a.values, b.values), (a, b), "matmul", bwd)


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., din) @ (din, dout) + bias on plain arrays, as one 2-D product
    over all rows; the forward of `linear`."""
    out = np.matmul(x.reshape(-1, w.shape[0]), w)
    out += b
    return out.reshape(*x.shape[:-1], w.shape[1])


def linear(x, w, b) -> Tensor:
    """Affine map of the last axis, x (..., din) @ w (din, dout) + b (dout,),
    as one node. Forward and backward run the numpy operations of reshape ->
    matmul -> add_bias -> reshape in the same order, so the bits agree."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if (w.values.ndim != 2 or b.shape != (w.shape[1],) or x.values.ndim < 1
            or x.shape[-1] != w.shape[0]):
        raise ShapeError(f"linear: {x.shape} @ {w.shape} + {b.shape}")

    def bwd(g):
        g2 = g.reshape(-1, w.shape[1])
        if b.requires_grad:
            _accumulate(b, g2.sum(axis=0))
        if w.requires_grad:
            _accumulate(w, np.matmul(x.values.reshape(-1, w.shape[0]).T, g2))
        if x.requires_grad:
            _accumulate(x, np.matmul(g2, w.values.T).reshape(x.shape))

    return _result(linear_forward(x.values, w.values, b.values), (x, w, b), "linear", bwd)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.values.ndim)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, np.transpose(g, inverse))

    return _result(np.transpose(a.values, axes), (a,), "transpose", bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
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

def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array; the forward of `softmax`."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    out_values = softmax_forward(a.values, axis)

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


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       eps: float = 1e-5) -> tuple[np.ndarray, tuple]:
    """Forward of `layer_norm` on plain arrays: (output, (xhat, inv, active)),
    the second part being what the backward pass reuses."""
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.maximum(var, eps))
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv, var > eps)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to mean 0 / variance 1, then apply the
    per-feature affine. The variance is floored at eps (not shifted by it), so
    non-degenerate rows come out with variance exactly 1."""
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    d = a.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: affine shapes {gamma.shape}/{beta.shape} vs features {d}")
    out_values, (xhat, inv, active) = layer_norm_forward(a.values, gamma.values, beta.values, eps)

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


def l2_normalize_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward of `l2_normalize` on a plain array: (unit rows, their norms)."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    if (norm < 1e-12).any():
        raise ValueError("l2_normalize: degenerate vector with norm < 1e-12")
    return x / norm, norm


def l2_normalize(a) -> Tensor:
    """Scale each vector along the last axis to unit L2 norm."""
    a = as_tensor(a)
    out_values, norm = l2_normalize_forward(a.values)

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
