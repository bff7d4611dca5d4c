"""Minimal dense-tensor reverse-mode automatic differentiation on float64 numpy arrays.

Every operation records its parents and a backward closure on the result
tensor; `backward` walks the implicit DAG once in reverse topological order
and accumulates exact analytic gradients. There is no implicit broadcasting:
element-wise ops demand identical shapes, and the only shape-bending ops are
the ones defined here (matmul, add_bias, reductions, reshape, ...).
"""
from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np


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
        self.grad = np.zeros_like(self.values) if self.requires_grad else None
        self.parents = tuple(parents)
        self.op = op
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

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


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")


# --- element-wise and scalar ops -------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("add", a, b)

    def bwd(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g

    return _result(a.values + b.values, (a, b), "add", bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("sub", a, b)

    def bwd(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad -= g

    return _result(a.values - b.values, (a, b), "sub", bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("mul", a, b)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * b.values
        if b.requires_grad:
            b.grad += g * a.values

    return _result(a.values * b.values, (a, b), "mul", bwd)


def scalar_add(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a.grad += g

    return _result(a.values + c, (a,), "scalar_add", bwd)


def scalar_mul(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * c

    return _result(a.values * c, (a,), "scalar_mul", bwd)


def neg(a) -> Tensor:
    return scalar_mul(a, -1.0)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_values = np.exp(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * out_values

    return _result(out_values, (a,), "exp", bwd)


def log(a) -> Tensor:
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a.grad += g / a.values

    return _result(np.log(a.values), (a,), "log", bwd)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_values = np.sqrt(a.values)

    def bwd(g):
        if a.requires_grad:
            a.grad += g * 0.5 / out_values

    return _result(out_values, (a,), "sqrt", bwd)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.values > 0.0

    def bwd(g):
        if a.requires_grad:
            a.grad += g * mask

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
            a.grad += np.matmul(g, np.swapaxes(b.values, -1, -2))
        if b.requires_grad:
            b.grad += np.matmul(np.swapaxes(a.values, -1, -2), g)

    return _result(np.matmul(a.values, b.values), (a, b), "matmul", bwd)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.values.ndim)))
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        if a.requires_grad:
            a.grad += np.transpose(g, inverse)

    return _result(np.transpose(a.values, axes), (a,), "transpose", bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    old = a.shape

    def bwd(g):
        if a.requires_grad:
            a.grad += g.reshape(old)

    return _result(a.values.reshape(shape), (a,), "reshape", bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.grad += piece

    return _result(np.concatenate([t.values for t in tensors], axis=axis),
                   tuple(tensors), "concat", bwd)


def slice_tensor(a, key) -> Tensor:
    """Basic slicing (tuple of slices); gradients scatter back into place."""
    a = as_tensor(a)

    def bwd(g):
        if a.requires_grad:
            a.grad[key] += g

    return _result(a.values[key], (a,), "slice", bwd)


def take_rows(a, indices) -> Tensor:
    """Gather rows along axis 0 by an integer index array."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)

    def bwd(g):
        if a.requires_grad:
            np.add.at(a.grad, idx, g)

    return _result(a.values[idx], (a,), "take_rows", bwd)


def add_bias(a, b) -> Tensor:
    """Add a (d,) vector along the last axis of a (..., d) tensor."""
    a, b = as_tensor(a), as_tensor(b)
    if b.values.ndim != 1 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: {a.shape} + {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.grad += g
        if b.requires_grad:
            b.grad += g.reshape(-1, b.shape[0]).sum(axis=0)

    return _result(a.values + b.values, (a, b), "add_bias", bwd)


# --- reductions ---------------------------------------------------------------

def tensor_sum(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        def bwd(g):
            if a.requires_grad:
                a.grad += g  # scalar g broadcasts
        return _result(a.values.sum(), (a,), "sum", bwd)

    def bwd(g):
        if a.requires_grad:
            a.grad += np.expand_dims(g, axis)

    return _result(a.values.sum(axis=axis), (a,), "sum", bwd)


def mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        n = a.values.size

        def bwd(g):
            if a.requires_grad:
                a.grad += g / n
        return _result(a.values.mean(), (a,), "mean", bwd)

    n = a.shape[axis]

    def bwd(g):
        if a.requires_grad:
            a.grad += np.expand_dims(g, axis) / n

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
            a.grad += out_values * (g - dot)

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
            a.grad += np.expand_dims(g, axis) * soft

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
            gamma.grad += (g * xhat).reshape(-1, d).sum(axis=0)
        if beta.requires_grad:
            beta.grad += g.reshape(-1, d).sum(axis=0)
        if a.requires_grad:
            dxhat = g * gamma.values
            term = dxhat - dxhat.mean(axis=-1, keepdims=True)
            term -= active * xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            a.grad += inv * term

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
            a.grad += (g - out_values * dot) / norm

    return _result(out_values, (a,), "l2_normalize", bwd)


def dot_last(a, b) -> Tensor:
    """Dot product over the last axis of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _same_shape("dot_last", a, b)

    def bwd(g):
        ge = np.expand_dims(g, -1)
        if a.requires_grad:
            a.grad += ge * b.values
        if b.requires_grad:
            b.grad += ge * a.values

    return _result((a.values * b.values).sum(axis=-1), (a, b), "dot_last", bwd)


def cosine_last(a, b) -> Tensor:
    """Cosine similarity over the last axis."""
    return dot_last(l2_normalize(a), l2_normalize(b))


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
    """Populate .grad on every reachable requires_grad tensor (seed 1)."""
    if loss.values.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = topo_order(loss)
    loss.grad += 1.0
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def grad_check(f, x: Tensor, eps: float = 1e-4) -> float:
    """Max relative disagreement between backward() and central differences.

    Relative error per coordinate: |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    x.zero_grad()
    out = f(x)
    backward(out)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.values)
    with no_grad():
        for i in range(x.values.size):
            keep = x.values.flat[i]
            x.values.flat[i] = keep + eps
            f_plus = float(f(x).values)
            x.values.flat[i] = keep - eps
            f_minus = float(f(x).values)
            x.values.flat[i] = keep
            numeric.flat[i] = (f_plus - f_minus) / (2.0 * eps)

    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))
