"""Temporal alignment network: frame embedding MLP, sinusoidal positions,
transformer encoder stack, and the unit-sphere projection head."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .data import (FORMAT_VERSION, HeaderError, SkeletonSequence, encode_container,
                   read_container, write_container)


@dataclass(frozen=True)
class TanConfig:
    """Encoder shape and training crop length, all stored in the checkpoint header."""

    hidden_dim: int = 512
    encoder_layers: int = 3
    attention_heads: int = 8
    projection_dim: int = 128
    sequence_length: int = 64

    def __post_init__(self):
        for name in ("hidden_dim", "encoder_layers", "attention_heads", "projection_dim",
                     "sequence_length"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"tan {name} must be an integer >= 1, got {value!r}")
        if self.hidden_dim % 2:
            raise ValueError(f"hidden_dim must be even (sine/cosine position pairs), "
                             f"got {self.hidden_dim}")
        if self.hidden_dim % self.attention_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.attention_heads}"
            )


@dataclass(eq=False)
class TanWeights:
    """All learnable tensors, keyed by name in init and checkpoint order.

    Each tensor's values and gradient are views of the flat buffers `values`
    and `grads`, which hold the tensors one after another in that order and
    share one dtype: the optimizer and the checkpoint codec take each buffer
    whole. Initialized and loaded weights are float64; training runs its
    forward and backward on a float32 copy (see train.train_tan).
    """

    config: TanConfig
    joints: int
    seed: int
    values: np.ndarray
    grads: np.ndarray
    tensors: dict[str, Tensor]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def zero_grad(self) -> None:
        self.grads.fill(0.0)


def _weight_shapes(config: TanConfig, joints: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable tensor, in init and checkpoint order.
    Every feed-forward block is 2 * hidden_dim wide."""
    h, ffn, f = config.hidden_dim, 2 * config.hidden_dim, config.projection_dim
    shapes: dict[str, tuple[int, ...]] = {}

    def linear(name: str, fan_in: int, fan_out: int):
        shapes[f"{name}.w"] = (fan_in, fan_out)
        shapes[f"{name}.b"] = (fan_out,)

    linear("embed.fc1", 3 * joints, h)
    linear("embed.fc2", h, h)
    for i in range(config.encoder_layers):
        for proj in ("q", "k", "v", "o"):
            linear(f"enc{i}.attn.{proj}", h, h)
        shapes[f"enc{i}.ln1.gamma"] = shapes[f"enc{i}.ln1.beta"] = (h,)
        linear(f"enc{i}.ffn.fc1", h, ffn)
        linear(f"enc{i}.ffn.fc2", ffn, h)
        shapes[f"enc{i}.ln2.gamma"] = shapes[f"enc{i}.ln2.beta"] = (h,)
    linear("proj.fc1", h, h)
    linear("proj.fc2", h, f)
    return shapes


def _bind(config: TanConfig, joints: int, seed: int, values: np.ndarray,
          grads: np.ndarray | None = None) -> TanWeights:
    """TanWeights whose tensors are views of the flat float32 or float64 buffer
    values, in _weight_shapes order, with gradients viewing the zero buffer
    grads of the values' shape and dtype, fresh if None."""
    if grads is None:
        # calloc'd (zeros_like is not): no page touched before use
        grads = np.zeros(values.shape, values.dtype)
    tensors: dict[str, Tensor] = {}
    lo = 0
    for name, shape in _weight_shapes(config, joints).items():
        hi = lo + math.prod(shape)
        tensors[name] = Tensor(values[lo:hi].reshape(shape),
                               ad.Node(shape, name, grad=grads[lo:hi].reshape(shape),
                                       dtype=values.dtype))
        lo = hi
    return TanWeights(config=config, joints=joints, seed=seed, values=values, grads=grads,
                      tensors=tensors)


def init_weights(config: TanConfig, joints: int, seed: int) -> TanWeights:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    shapes = _weight_shapes(config, joints)
    w = _bind(config, joints, seed, np.empty(sum(map(math.prod, shapes.values()))))
    for name, t in w.tensors.items():
        if name.endswith((".gamma", ".beta")):  # layer norms start as the identity
            t.values.fill(float(name.endswith(".gamma")))
        else:  # a linear layer's .w or .b, uniform in +-1/sqrt(fan_in of its .w)
            bound = np.sqrt(1.0 / shapes[name[:-1] + "w"][0])
            t.values[...] = rng.uniform(-bound, bound, size=t.shape)
    return w


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Standard sine/cosine position table of shape (length, dim), float64;
    dim is even (TanConfig checks hidden_dim)."""
    pos = np.arange(length, dtype=np.float64).reshape(-1, 1)
    i = np.arange(dim // 2, dtype=np.float64)
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


# --- the encoder ---------------------------------------------------------------
# Each piece is written once over the autodiff ops: on the Tensors of
# `TanWeights.tensors` it builds the training graph, on their `.values` arrays
# the same ops run graph-free (see autodiff), which is inference.


def _dense(x, p: dict, name: str):
    """The linear layer `name` of p applied to x (..., din)."""
    return ad.linear(x, p[name + ".w"], p[name + ".b"])


def _mlp(x, p: dict, name: str):
    """linear -> relu -> linear: the embedding MLP, an FFN or the projection head."""
    return _dense(ad.relu(_dense(x, p, name + ".fc1")), p, name + ".fc2")


def _layer(x_rows, q, k, v, p: dict, i: int, heads: int, q_offsets, kv_offsets):
    """Post-norm encoder layer i for the rows x_rows (..., h), whose queries
    q attend over the keys k and values v of their own segment: segment s
    holds the q rows q_offsets[s]:q_offsets[s + 1] and the k, v rows
    kv_offsets[s]:kv_offsets[s + 1] (ad.attention)."""
    pre = f"enc{i}."
    ctx = ad.attention(q, k, v, heads, q_offsets, kv_offsets)
    x = ad.layer_norm(ad.add(x_rows, _dense(ctx, p, pre + "attn.o")),
                      p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
    return ad.layer_norm(ad.add(x, _mlp(x, p, pre + "ffn")),
                         p[pre + "ln2.gamma"], p[pre + "ln2.beta"])


def encode(x, w: TanWeights, offsets=None) -> Tensor:
    """Per-frame hidden features, with sinusoidal positions added.

    x: a (B, T, 3J) batch or a (T, 3J) single item, giving (B, T, h); or,
    with offsets, (N, 3J) packed views, view s being the rows
    offsets[s]:offsets[s + 1], giving (N, h). Every piece but attention runs
    once over all rows; each view's rows get the positions 0, 1, ... of its
    own and attend within the view only, so a row comes out as if its view
    were encoded alone. The temporal resolution of the output matches the
    input exactly. Array rows and the positions are cast to the weights'
    dtype, so the encoder computes in it.
    """
    dtype = w.values.dtype
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=dtype))
    batch = None
    if offsets is None:
        if x.values.ndim == 2:
            x = ad.reshape(x, (1,) + x.shape)
        if x.values.ndim != 3:
            raise ShapeError(f"encode: expected (B, T, 3J), got {x.shape}")
        batch = x.shape[:2]
        offsets = np.arange(batch[0] + 1) * batch[1]
        x = ad.reshape(x, (-1, x.shape[2]))
    elif x.values.ndim != 2:
        raise ShapeError(f"encode: packed views must be (N, 3J), got {x.shape}")
    if x.shape[1] != 3 * w.joints:
        raise ShapeError(
            f"encode: input feature dim {x.shape[1]} does not match 3*J = {3 * w.joints}"
        )
    starts, lengths, _ = ad.segments(offsets, x.shape[0], "encode: view offsets")
    t = w.tensors
    h = _mlp(x, t, "embed")
    slot = np.arange(x.shape[0]) - np.repeat(starts, lengths)
    pe = positional_encoding(int(lengths.max()), w.config.hidden_dim).astype(dtype, copy=False)
    h = ad.add(h, Tensor(pe[slot]))
    for i in range(w.config.encoder_layers):
        q, k, v = (_dense(h, t, f"enc{i}.attn.{c}") for c in "qkv")
        h = _layer(h, q, k, v, t, i, w.config.attention_heads, offsets, offsets)
    return h if batch is None else ad.reshape(h, batch + (h.shape[-1],))


def project(z: Tensor, w: TanWeights) -> Tensor:
    """Map hidden features onto the unit sphere in projection space."""
    return ad.l2_normalize(_mlp(z, w.tensors, "proj"))


# --- inference ---------------------------------------------------------------

# Windows encoded per batch in windowed mode. It bounds the per-window buffers
# to _CHUNK x window rows; at desk size 32 ran faster than 96 or one batch of
# all windows.
_CHUNK = 32


def _encode_windows(e: np.ndarray, pe: np.ndarray, layer0: dict | None, frames: np.ndarray,
                    kept: np.ndarray, q_offsets: np.ndarray, p: dict,
                    config: TanConfig) -> np.ndarray:
    """Hidden features (r, h) of the r kept slots of n windows.

    e: (T, h) embedded frames; pe: (L, h) positions of the L window slots;
    frames: (n, L) frame of every slot; kept: (r,) the wanted slots as rows
    of the window-major (n * L) slot list, window j's being the entries
    q_offsets[j]:q_offsets[j + 1]. layer0[c], if given, holds
    (e @ W_c + b_c, pe @ W_c) for c in q, k, v: since (e + pe) @ W =
    e @ W + pe @ W, the first layer's projections are then gathered, not
    recomputed per window; None runs the first layer on e[frames] + pe like
    any other. Earlier layers run on every slot, because their outputs are
    the next layer's keys and values; the last layer computes its queries,
    output projection, FFN and norms for the kept slots only, each window's
    ragged query rows attending over its own L keys (ad.attention).
    """
    n, length = frames.shape
    frames, slots = frames.reshape(-1), np.tile(np.arange(length), n)
    kv_offsets = np.arange(n + 1) * length
    last = config.encoder_layers - 1
    x = None if layer0 else e[frames] + pe[slots]
    for i in range(config.encoder_layers):
        rows, offsets = (kept, q_offsets) if i == last else (slice(None), kv_offsets)
        if x is None:
            gather = lambda c, r: layer0[c][0][frames[r]] + layer0[c][1][slots[r]]
            x_rows = e[frames[rows]] + pe[slots[rows]]
            q, k, v = gather("q", rows), gather("k", slice(None)), gather("v", slice(None))
        else:
            x_rows = x[rows]
            q = _dense(x_rows, p, f"enc{i}.attn.q")
            k, v = _dense(x, p, f"enc{i}.attn.k"), _dense(x, p, f"enc{i}.attn.v")
        x = _layer(x_rows, q, k, v, p, i, config.attention_heads, offsets, kv_offsets)
    return x


def embed_sequence(seq: SkeletonSequence | np.ndarray, w: TanWeights,
                   space: str = "projection", window: int | None = None) -> np.ndarray:
    """Inference helper: per-frame feature matrix of one sequence (no graph).

    window embeds every frame inside a centered window of that many frames
    (clamped at the sequence ends), keeping long sequences in the temporal
    regime the encoder was trained on and giving every interior frame the
    same positional slot. None (or a sequence no longer than the window)
    encodes the whole sequence as one window.

    The result equals running encode (and project) on each frame's window and
    keeping that frame's row, but each distinct window is encoded once: an
    interior window serves one frame, a clamped window at either end serves
    several. The distinct windows run in order, _CHUNK per pass whatever
    they serve, so the per-window buffers hold at most _CHUNK x window rows.
    The embedding MLP runs once per frame, and with several windows so do
    the first layer's projections; the last layer and the projection head
    run for the served frames only.
    """
    if space not in ("projection", "hidden"):
        raise ValueError(f"unknown feature space {space!r}")
    if window is not None and window < 1:
        raise ValueError(f"context window must be None or >= 1, got {window}")
    flat = seq.flat() if isinstance(seq, SkeletonSequence) else np.asarray(seq, np.float64)
    if flat.ndim != 2 or flat.shape[1] != 3 * w.joints or flat.shape[0] < 1:
        raise ShapeError(f"embed_sequence: expected (T >= 1, {3 * w.joints}) frames, "
                         f"got {flat.shape}")
    t = flat.shape[0]
    p = {name: tensor.values for name, tensor in w.tensors.items()}
    e = _mlp(flat, p, "embed")
    length = t if window is None else min(window, t)
    # window of each frame: starts rise with the frame, so window j serves
    # the frames served[j]:served[j + 1], at the slots frame - start
    start = np.clip(np.arange(t) - length // 2, 0, t - length)
    starts, window_of, count = np.unique(start, return_inverse=True, return_counts=True)
    served = np.concatenate(([0], np.cumsum(count)))
    slot = np.arange(t) - start
    pe = positional_encoding(length, w.config.hidden_dim)
    # overlapping windows share frames: project each frame and slot once
    layer0 = ({c: (_dense(e, p, f"enc0.attn.{c}"), pe @ p[f"enc0.attn.{c}.w"]) for c in "qkv"}
              if starts.size > 1 else None)
    z = np.empty((t, w.config.hidden_dim))
    for lo in range(0, starts.size, _CHUNK):
        hi = min(lo + _CHUNK, starts.size)
        f = slice(served[lo], served[hi])
        z[f] = _encode_windows(e, pe, layer0, starts[lo:hi, None] + np.arange(length),
                               (window_of[f] - lo) * length + slot[f],
                               served[lo:hi + 1] - served[lo], p, w.config)
    if space == "hidden":
        return z
    return ad.l2_normalize(_mlp(z, p, "proj"))


# --- checkpoints ---------------------------------------------------------------

_CKPT_MAGIC = "tan-checkpoint"


def _checkpoint_chunks(w: TanWeights) -> list:
    header = {"format": _CKPT_MAGIC, "version": FORMAT_VERSION, "config": asdict(w.config),
              "joints": w.joints, "seed": w.seed,
              "tensors": [{"name": n, "shape": list(t.shape)} for n, t in w.tensors.items()]}
    return encode_container(header, [w.values], "<f8")


def _checkpoint_shapes(header: dict, path: Path) -> list[tuple[int, ...]]:
    """Checkpoint rule: valid config, integer seed, manifest = init_weights
    layout. The payload is read as one flat array, the weights' values buffer."""
    try:
        shapes = _weight_shapes(TanConfig(**header["config"]), header["joints"])
        if not isinstance(header["seed"], int):
            raise TypeError(f"seed {header['seed']!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderError(f"{path.name}: bad checkpoint header: {exc!r}") from exc
    if header.get("tensors") != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
        raise HeaderError(f"{path.name}: tensor manifest does not match config and joints")
    return [(sum(map(math.prod, shapes.values())),)]


def save_checkpoint(w: TanWeights, path: str | Path) -> Path:
    return write_container(Path(path), _checkpoint_chunks(w))


def load_checkpoint(path: str | Path) -> TanWeights:
    header, (values,) = read_container(path, _CKPT_MAGIC, "<f8", _checkpoint_shapes)
    # the codec's payload buffer is fresh and writable: bind it, do not copy it again
    return _bind(TanConfig(**header["config"]), header["joints"], header["seed"], values)


def checkpoint_digest(path: str | Path) -> str:
    """Content hash used to pair lexicons with the checkpoint that produced them."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()[:16]


def weights_digest(w: TanWeights) -> str:
    """Digest of in-memory weights, identical to checkpoint_digest after save."""
    blob = hashlib.sha256()
    for chunk in _checkpoint_chunks(w):
        blob.update(chunk)
    return blob.hexdigest()[:16]
