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

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.attention_heads


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


def _linear3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(B, T, din) @ (din, dout) + bias."""
    bsz, t, din = x.shape
    flat = ad.reshape(x, (bsz * t, din))
    out = ad.add_bias(ad.matmul(flat, w), b)
    return ad.reshape(out, (bsz, t, w.shape[1]))


def _attention(x: Tensor, w: TanWeights, layer: int, attn_sink: list | None) -> Tensor:
    cfg = w.config
    t = w.tensors
    bsz, length, h = x.shape
    q = _linear3(x, t[f"enc{layer}.attn.q.w"], t[f"enc{layer}.attn.q.b"])
    k = _linear3(x, t[f"enc{layer}.attn.k.w"], t[f"enc{layer}.attn.k.b"])
    v = _linear3(x, t[f"enc{layer}.attn.v.w"], t[f"enc{layer}.attn.v.b"])
    dh = cfg.head_dim
    scale = 1.0 / np.sqrt(dh)
    heads = []
    for j in range(cfg.attention_heads):
        key = (slice(None), slice(None), slice(j * dh, (j + 1) * dh))
        qh = ad.slice_tensor(q, key)
        kh = ad.slice_tensor(k, key)
        vh = ad.slice_tensor(v, key)
        scores = ad.scalar_mul(ad.matmul(qh, ad.transpose(kh, (0, 2, 1))), scale)
        attn = ad.softmax(scores, axis=-1)
        if attn_sink is not None:
            attn_sink.append(attn.values)
        heads.append(ad.matmul(attn, vh))
    ctx = ad.concat(heads, axis=-1)
    return _linear3(ctx, t[f"enc{layer}.attn.o.w"], t[f"enc{layer}.attn.o.b"])


def encode(x, w: TanWeights, *, use_positional: bool = True,
           attn_sink: list | None = None) -> Tensor:
    """Per-frame hidden features of a batch.

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
    h = _linear3(x, t["embed.fc1.w"], t["embed.fc1.b"])
    h = ad.relu(h)
    h = _linear3(h, t["embed.fc2.w"], t["embed.fc2.b"])
    if use_positional:
        pe = positional_encoding(x.shape[1], w.config.hidden_dim)
        h = ad.add(h, Tensor(np.broadcast_to(pe, h.shape).copy()))
    for i in range(w.config.encoder_layers):
        attn = _attention(h, w, i, attn_sink)
        h = ad.layer_norm(ad.add(h, attn), t[f"enc{i}.ln1.gamma"], t[f"enc{i}.ln1.beta"])
        ff = _linear3(h, t[f"enc{i}.ffn.fc1.w"], t[f"enc{i}.ffn.fc1.b"])
        ff = ad.relu(ff)
        ff = _linear3(ff, t[f"enc{i}.ffn.fc2.w"], t[f"enc{i}.ffn.fc2.b"])
        h = ad.layer_norm(ad.add(h, ff), t[f"enc{i}.ln2.gamma"], t[f"enc{i}.ln2.beta"])
    return h


def project(z: Tensor, w: TanWeights) -> Tensor:
    """Map hidden features onto the unit sphere in projection space."""
    t = w.tensors
    h = _linear3(z, t["proj.fc1.w"], t["proj.fc1.b"])
    h = ad.relu(h)
    h = _linear3(h, t["proj.fc2.w"], t["proj.fc2.b"])
    return ad.l2_normalize(h)


def embed_sequence(seq: SkeletonSequence | np.ndarray, w: TanWeights,
                   space: str = "projection", window: int | None = None,
                   chunk: int = 96) -> np.ndarray:
    """Inference helper: per-frame feature matrix of one sequence (no graph).

    window embeds every frame inside a centered window of that many frames
    (clamped at the sequence ends), keeping long sequences in the temporal
    regime the encoder was trained on and giving every interior frame the
    same positional slot. None encodes the whole sequence in one pass.
    """
    if space not in ("projection", "hidden"):
        raise ValueError(f"unknown feature space {space!r}")
    flat = seq.flat() if isinstance(seq, SkeletonSequence) else np.asarray(seq)
    t = flat.shape[0]
    with ad.no_grad():
        if window is None or t <= window:
            z = encode(flat, w)
            out = z if space == "hidden" else project(z, w)
            return out.values[0]
        starts = np.clip(np.arange(t) - window // 2, 0, t - window)
        rel = np.arange(t) - starts
        rows = []
        for lo in range(0, t, chunk):
            hi = min(lo + chunk, t)
            windows = np.stack([flat[s:s + window] for s in starts[lo:hi]])
            z = encode(windows, w)
            out = z if space == "hidden" else project(z, w)
            rows.append(out.values[np.arange(hi - lo), rel[lo:hi]])
        return np.concatenate(rows)


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
    tensors = {e["name"]: ad.parameter(a, e["name"]) for e, a in zip(header["tensors"], arrays)}
    return TanWeights(config=TanConfig(**header["config"]), joints=header["joints"],
                      seed=header["seed"], tensors=tensors)


def checkpoint_digest(path: str | Path) -> str:
    """Content hash used to pair lexicons with the checkpoint that produced them."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def weights_digest(w: TanWeights) -> str:
    """Digest of in-memory weights, identical to checkpoint_digest after save."""
    blob = hashlib.sha256()
    for chunk in _checkpoint_chunks(w):
        blob.update(chunk)
    return blob.hexdigest()[:16]
