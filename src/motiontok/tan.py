"""Temporal alignment network: frame embedding MLP, sinusoidal positions,
transformer encoder stack, and the unit-sphere projection head."""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .data import (FORMAT_VERSION, HeaderError, SkeletonSequence, encode_container,
                   read_container, write_container)


@dataclass(frozen=True)
class TanConfig:
    hidden_dim: int = 512
    encoder_layers: int = 3
    attention_heads: int = 8
    ffn_dim: int | None = None  # defaults to 2 * hidden_dim
    projection_dim: int = 128
    temperature: float = 0.1
    sequence_length: int = 64

    def __post_init__(self):
        if min(self.hidden_dim, self.encoder_layers, self.attention_heads,
               self.projection_dim, self.sequence_length) < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.hidden_dim % self.attention_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.attention_heads}"
            )
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 2 * self.hidden_dim)


@dataclass
class TanWeights:
    """All learnable tensors, keyed by name in a stable order."""

    config: TanConfig
    joints: int
    seed: int
    tensors: dict[str, Tensor]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())

    def zero_grad(self) -> None:
        for t in self.tensors.values():
            t.zero_grad()

    def all_finite(self) -> bool:
        return all(np.isfinite(t.values).all() for t in self.tensors.values())


def _weight_shapes(config: TanConfig, joints: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every learnable tensor, in init and checkpoint order."""
    h, ffn, f = config.hidden_dim, config.ffn_dim, config.projection_dim
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


def init_weights(config: TanConfig, joints: int, seed: int) -> TanWeights:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
    shapes = _weight_shapes(config, joints)
    t: dict[str, Tensor] = {}
    for name, shape in shapes.items():
        if name.endswith((".gamma", ".beta")):  # layer norms start as the identity
            values = np.full(shape, float(name.endswith(".gamma")))
        else:  # a linear layer's .w or .b, uniform in +-1/sqrt(fan_in of its .w)
            bound = np.sqrt(1.0 / shapes[name[:-1] + "w"][0])
            values = rng.uniform(-bound, bound, size=shape)
        t[name] = ad.parameter(values, name)
    return TanWeights(config=config, joints=joints, seed=seed, tensors=t)


def positional_encoding(length: int, dim: int) -> np.ndarray:
    """Standard sine/cosine position table of shape (length, dim); dim must be even."""
    if dim % 2 != 0:
        raise ValueError(f"positional encoding dimension must be even, got {dim}")
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


def _attend(q, k, v, heads: int, attn_sink: list | None):
    """Scaled dot-product attention of q (n, r, h) over k, v (n, L, h), with
    the heads folded into one batched product; returns (n, r, h). attn_sink
    (Tensor operands only) receives one (n, r, L) weight array per head."""
    n, r, h = q.shape
    dh = h // heads
    split = lambda a: ad.transpose(ad.reshape(a, (n, -1, heads, dh)), (0, 2, 1, 3))
    scores = ad.scalar_mul(ad.matmul(split(q), ad.transpose(split(k), (0, 1, 3, 2))),
                           1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    if attn_sink is not None:
        attn_sink.extend(np.moveaxis(attn.values, 1, 0))
    return ad.reshape(ad.transpose(ad.matmul(attn, split(v)), (0, 2, 1, 3)), (n, r, h))


def _layer(x_rows, q, k, v, p: dict, i: int, heads: int, attn_sink: list | None = None):
    """Post-norm encoder layer i for the rows x_rows (n, r, h), whose queries
    q (n, r, h) attend over the keys k and values v (n, L, h) of all L slots."""
    pre = f"enc{i}."
    ctx = _attend(q, k, v, heads, attn_sink)
    x = ad.layer_norm(ad.add(x_rows, _dense(ctx, p, pre + "attn.o")),
                      p[pre + "ln1.gamma"], p[pre + "ln1.beta"])
    return ad.layer_norm(ad.add(x, _mlp(x, p, pre + "ffn")),
                         p[pre + "ln2.gamma"], p[pre + "ln2.beta"])


def encode(x, w: TanWeights, *, attn_sink: list | None = None) -> Tensor:
    """Per-frame hidden features of a batch, with sinusoidal positions added.

    x: (B, T, 3J) array/Tensor or a (T, 3J) single item; the temporal
    resolution of the output matches the input exactly.
    """
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x, dtype=np.float64))
    if x.values.ndim == 2:
        x = ad.reshape(x, (1,) + x.shape)
    if x.values.ndim != 3:
        raise ShapeError(f"encode: expected (B, T, 3J), got {x.shape}")
    if x.shape[2] != 3 * w.joints:
        raise ShapeError(
            f"encode: input feature dim {x.shape[2]} does not match 3*J = {3 * w.joints}"
        )
    t = w.tensors
    h = _mlp(x, t, "embed")
    pe = positional_encoding(x.shape[1], w.config.hidden_dim)
    h = ad.add(h, Tensor(np.broadcast_to(pe, h.shape).copy()))
    for i in range(w.config.encoder_layers):
        q, k, v = (_dense(h, t, f"enc{i}.attn.{c}") for c in "qkv")
        h = _layer(h, q, k, v, t, i, w.config.attention_heads, attn_sink)
    return h


def project(z: Tensor, w: TanWeights) -> Tensor:
    """Map hidden features onto the unit sphere in projection space."""
    return ad.l2_normalize(_mlp(z, w.tensors, "proj"))


# --- inference ---------------------------------------------------------------

# Windows encoded per batch in windowed mode. It bounds the per-window buffers
# to _CHUNK x window rows; at desk size 32 ran faster than 96 or one batch of
# all windows.
_CHUNK = 32


def _encode_windows(e: np.ndarray, pe: np.ndarray, layer0: dict | None, frames: np.ndarray,
                    keep: np.ndarray, p: dict, config: TanConfig) -> np.ndarray:
    """Hidden features (n, r, h) of the kept slots of n windows.

    e: (T, h) embedded frames; pe: (L, h) positions of the L window slots;
    frames: (n, L) frame of every slot; keep: (n, r) slots whose outputs are
    wanted. layer0[c], if given, holds (e @ W_c + b_c, pe @ W_c) for c in q,
    k, v: since (e + pe) @ W = e @ W + pe @ W, the first layer's projections
    are then gathered, not recomputed per window; None runs the first layer
    on e[frames] + pe like any other. Earlier layers run on every slot,
    because their outputs are the next layer's keys and values; the last
    layer computes its queries, output projection, FFN and norms for the kept
    slots only.
    """
    slots = np.broadcast_to(np.arange(pe.shape[0]), frames.shape)
    last = config.encoder_layers - 1
    x = None if layer0 else e[frames] + pe
    for i in range(config.encoder_layers):
        rows = keep if i == last else slots
        if x is None:
            rows_f = np.take_along_axis(frames, rows, axis=1)
            gather = lambda c, f, s: layer0[c][0][f] + layer0[c][1][s]
            x_rows = e[rows_f] + pe[rows]
            q = gather("q", rows_f, rows)
            k, v = gather("k", frames, slots), gather("v", frames, slots)
        else:
            x_rows = x if rows is slots else np.take_along_axis(x, rows[..., None], axis=1)
            q = _dense(x_rows, p, f"enc{i}.attn.q")
            k, v = _dense(x, p, f"enc{i}.attn.k"), _dense(x, p, f"enc{i}.attn.v")
        x = _layer(x_rows, q, k, v, p, i, config.attention_heads)
    return x


def embed_sequence(seq: SkeletonSequence | np.ndarray, w: TanWeights,
                   space: str = "projection", window: int | None = None) -> np.ndarray:
    """Inference helper: per-frame feature matrix of one sequence (no graph).

    window embeds every frame inside a centered window of that many frames
    (clamped at the sequence ends), keeping long sequences in the temporal
    regime the encoder was trained on and giving every interior frame the
    same positional slot. None encodes the whole sequence in one pass.

    The result equals running encode (and project) on each frame's window and
    keeping that frame's row, but each distinct window is encoded once (the
    clamped windows at the ends serve several frames), the embedding MLP and
    the first layer's projections run once per frame, and the last layer and
    the projection head run for the served frames only. Windows are encoded
    _CHUNK at a time, so the per-window buffers hold at most _CHUNK x window rows.
    """
    if space not in ("projection", "hidden"):
        raise ValueError(f"unknown feature space {space!r}")
    flat = seq.flat() if isinstance(seq, SkeletonSequence) else np.asarray(seq, np.float64)
    if flat.ndim != 2 or flat.shape[1] != 3 * w.joints:
        raise ShapeError(f"embed_sequence: expected (T, {3 * w.joints}) frames, got {flat.shape}")
    t = flat.shape[0]
    p = {name: tensor.values for name, tensor in w.tensors.items()}
    e = _mlp(flat, p, "embed")
    windowed = window is not None and t > window
    if windowed:
        # (start, kept slots) of each distinct window, grouped by how many
        # frames it serves: one inside, several at either clamped end
        starts, first, count = np.unique(np.clip(np.arange(t) - window // 2, 0, t - window),
                                         return_index=True, return_counts=True)
        length = window
        groups = [(starts[count == c], (first - starts)[count == c, None] + np.arange(c))
                  for c in np.unique(count)]
    else:
        length, groups = t, [(np.zeros(1, np.int64), np.arange(t)[None])]
    pe = positional_encoding(length, w.config.hidden_dim)
    # overlapping windows share frames: project each frame and slot once
    layer0 = ({c: (_dense(e, p, f"enc0.attn.{c}"), pe @ p[f"enc0.attn.{c}.w"]) for c in "qkv"}
              if windowed else None)
    z = np.empty((t, w.config.hidden_dim))
    for starts, keep in groups:
        for lo in range(0, len(starts), _CHUNK):
            s, kept = starts[lo:lo + _CHUNK, None], keep[lo:lo + _CHUNK]
            z[s + kept] = _encode_windows(e, pe, layer0, s + np.arange(length), kept, p,
                                          w.config)
    if space == "hidden":
        return z
    return ad.l2_normalize(_mlp(z, p, "proj"))


# --- checkpoints ---------------------------------------------------------------

_CKPT_MAGIC = "tan-checkpoint"


def _checkpoint_chunks(w: TanWeights) -> list:
    header = {"format": _CKPT_MAGIC, "version": FORMAT_VERSION, "config": asdict(w.config),
              "joints": w.joints, "seed": w.seed,
              "tensors": [{"name": n, "shape": list(t.shape)} for n, t in w.tensors.items()]}
    return encode_container(header, [t.values for t in w.tensors.values()], "<f8")


def _checkpoint_shapes(header: dict, path: Path) -> list[tuple[int, ...]]:
    """Checkpoint rule: valid config, integer seed, manifest = init_weights layout."""
    try:
        shapes = _weight_shapes(TanConfig(**header["config"]), header["joints"])
        if not isinstance(header["seed"], int):
            raise TypeError(f"seed {header['seed']!r} is not an integer")
    except (KeyError, TypeError, ValueError) as exc:
        raise HeaderError(f"{path.name}: bad checkpoint header: {exc!r}") from exc
    if header.get("tensors") != [{"name": n, "shape": list(s)} for n, s in shapes.items()]:
        raise HeaderError(f"{path.name}: tensor manifest does not match config and joints")
    return list(shapes.values())


def save_checkpoint(w: TanWeights, path: str | Path) -> Path:
    return write_container(Path(path), _checkpoint_chunks(w))


def load_checkpoint(path: str | Path) -> TanWeights:
    header, arrays = read_container(path, _CKPT_MAGIC, "<f8", _checkpoint_shapes)
    # the codec's arrays are fresh and writable: wrap them, do not copy them again
    tensors = {e["name"]: Tensor(a, requires_grad=True, op=e["name"])
               for e, a in zip(header["tensors"], arrays)}
    return TanWeights(config=TanConfig(**header["config"]), joints=header["joints"],
                      seed=header["seed"], tensors=tensors)


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
