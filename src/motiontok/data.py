"""Skeleton sequences, the skelseq/checkpoint/lexicon container codec, and a synthetic corpus.

All sequences are stored as T x J x 3 world-coordinate joint positions in
meters, gravity along +z. Arrays are float64 internally and frozen after
construction so sequences can be shared freely across workers; files store
float32.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BINARY_EXT = ".skseq"
TEXT_EXT = ".skseq.json"
FORMAT_VERSION = 1


class SequenceFormatError(ValueError):
    """A skelseq, checkpoint or lexicon file could not be parsed."""


class HeaderError(SequenceFormatError):
    """Missing, malformed, mis-versioned or inconsistent header."""


class PayloadSizeError(SequenceFormatError):
    """Payload length disagrees with the array shapes the header declares."""


class NonFiniteError(SequenceFormatError):
    """Payload contains NaN or infinite values."""


@dataclass(frozen=True)
class SkeletonSequence:
    """A motion clip: joint positions over time plus its frame rate."""

    data: np.ndarray  # (T, J, 3) float64, read-only
    fps: float

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"sequence data must be (T, J, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"sequence needs T >= 1 and J >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("sequence data contains non-finite values")
        if not self.fps > 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def joints(self) -> int:
        return self.data.shape[1]

    def flat(self) -> np.ndarray:
        """Frames flattened to (T, 3J), the per-frame input layout of the encoder."""
        return self.data.reshape(self.frames, 3 * self.joints)


@dataclass
class LabeledCorpus:
    """Sequences plus per-frame ground-truth primitive ids."""

    sequences: list[SkeletonSequence]
    frame_labels: list[np.ndarray]  # one int array of length T per sequence
    primitive_count: int

    def __post_init__(self):
        if len(self.sequences) != len(self.frame_labels):
            raise ValueError("sequences and frame_labels must pair up")
        coerced = []
        for seq, labels in zip(self.sequences, self.frame_labels):
            lab = np.asarray(labels, dtype=np.int64)
            if lab.shape != (seq.frames,):
                raise ValueError(
                    f"label array of shape {lab.shape} does not match {seq.frames} frames"
                )
            if lab.size and (lab.min() < 0 or lab.max() >= self.primitive_count):
                raise ValueError("frame labels must lie in [0, primitive_count)")
            coerced.append(lab)
        self.frame_labels = coerced


def encode_container(header: dict, arrays, dtype: str) -> list:
    """File chunks to write or hash in turn: a JSON header line, then each array as `dtype`."""
    return [json.dumps(header).encode("utf-8") + b"\n",
            *(np.ascontiguousarray(a, dtype=dtype) for a in arrays)]


def write_container(path: Path, chunks: list) -> Path:
    with open(path, "wb") as fh:
        fh.writelines(chunks)
    return path


def read_container(path: str | Path, fmt: str | None, dtype: str, shapes,
                   ) -> tuple[dict, list[np.ndarray]]:
    """Read a container file, checking its header (format fmt, None: no such
    field), the format's own fields through shapes(header, path) -> declared
    array shapes, the exact payload size and finite values. Arrays are float64."""
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise HeaderError(f"{path.name}: missing header line")
    header = _parse_header(raw[:nl], fmt, path)
    dims = shapes(header, path)
    if not all(type(d) is int and d >= 1 for s in dims for d in s):
        raise HeaderError(f"{path.name}: header declares bad array shapes {dims}")
    counts = [math.prod(s) for s in dims]
    size, expected = len(raw) - nl - 1, sum(counts) * np.dtype(dtype).itemsize
    if size != expected:
        raise PayloadSizeError(f"{path.name}: {size} payload bytes, header declares {expected}")
    flat = np.frombuffer(raw, dtype=dtype, offset=nl + 1).astype(np.float64, copy=False)
    if not np.isfinite(flat).all():
        raise NonFiniteError(f"{path.name}: payload contains non-finite values")
    parts = np.split(flat, np.cumsum(counts)[:-1])
    return header, [part.reshape(s) for part, s in zip(parts, dims)]


def _parse_header(text: bytes, fmt: str | None, path: Path) -> dict:
    try:
        header = json.loads(text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderError(f"{path.name}: invalid header: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderError(f"{path.name}: header is not a JSON object")
    if header.get("format") != fmt:
        raise HeaderError(f"{path.name}: format {header.get('format')!r}, expected {fmt!r}")
    if header.get("version") != FORMAT_VERSION:
        raise HeaderError(f"{path.name}: unsupported version {header.get('version')}")
    return header


def _sequence_shapes(header: dict, path: Path) -> list[tuple[int, ...]]:
    """skelseq header rule: a positive fps and one (frames, joints, 3) array."""
    fps = header.get("fps")
    if not (isinstance(fps, (int, float)) and fps > 0):
        raise HeaderError(f"{path.name}: bad fps {fps}")
    return [(header.get("frames"), header.get("joints"), 3)]


def save_sequence(seq: SkeletonSequence, path: str | Path) -> Path:
    """Write a sequence in skelseq v1 (binary or text variant, by extension)."""
    path = Path(path)
    header = {
        "version": FORMAT_VERSION,
        "fps": float(seq.fps),
        "joints": seq.joints,
        "frames": seq.frames,
    }
    if path.name.endswith(TEXT_EXT):
        data = np.asarray(seq.data, dtype=np.float32).tolist()
        path.write_text(json.dumps({**header, "data": data}))
    elif path.name.endswith(BINARY_EXT):
        write_container(path, encode_container(header, [seq.data], "<f4"))
    else:
        raise ValueError(f"unknown sequence extension: {path.name}")
    return path


def load_sequence(path: str | Path) -> SkeletonSequence:
    """Read a skelseq v1 file (binary or text variant, by extension)."""
    path = Path(path)
    if path.name.endswith(TEXT_EXT):
        header = _parse_header(path.read_bytes(), None, path)
        (shape,) = _sequence_shapes(header, path)
        try:
            data = np.asarray(header.get("data"), dtype=np.float64)
        except (TypeError, ValueError) as exc:  # non-numeric entries or ragged nesting
            raise PayloadSizeError(f"{path.name}: data is not a numeric array: {exc}") from exc
        if data.shape != shape:
            raise PayloadSizeError(f"{path.name}: data shape {data.shape}, header {shape}")
    elif path.name.endswith(BINARY_EXT):
        header, (data,) = read_container(path, None, "<f4", _sequence_shapes)
    else:
        raise ValueError(f"unknown sequence extension: {path.name}")
    return SkeletonSequence(data=data, fps=float(header["fps"]))


LABEL_FILE = "labels.json"


def save_corpus(corpus: LabeledCorpus, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    labels: dict[str, list[int]] = {}
    for idx, (seq, lab) in enumerate(zip(corpus.sequences, corpus.frame_labels)):
        name = f"seq_{idx:04d}{BINARY_EXT}"
        save_sequence(seq, directory / name)
        labels[name] = [int(x) for x in lab]
    manifest = {"primitive_count": corpus.primitive_count, "labels": labels}
    (directory / LABEL_FILE).write_text(json.dumps(manifest))
    return directory


def load_corpus(directory: str | Path) -> LabeledCorpus:
    directory = Path(directory)
    manifest = json.loads((directory / LABEL_FILE).read_text())
    sequences, frame_labels = [], []
    for name in sorted(manifest["labels"]):
        sequences.append(load_sequence(directory / name))
        frame_labels.append(np.asarray(manifest["labels"][name], dtype=np.int64))
    return LabeledCorpus(
        sequences=sequences,
        frame_labels=frame_labels,
        primitive_count=int(manifest["primitive_count"]),
    )


def center_normalize(seq: SkeletonSequence) -> SkeletonSequence:
    """Shift every frame so the mean of all joints (the body center) sits at the origin."""
    centered = seq.data - seq.data.mean(axis=1, keepdims=True)
    return SkeletonSequence(data=centered, fps=seq.fps)


def center_normalize_frames(frames: np.ndarray) -> np.ndarray:
    """center_normalize for a bare (T, J, 3) array."""
    frames = np.asarray(frames, dtype=np.float64)
    return frames - frames.mean(axis=1, keepdims=True)


# --- synthetic corpus -------------------------------------------------------

_DEFAULT_JOINTS = 8
_BLEND_FRAMES = 4


def _base_pose(joints: int) -> np.ndarray:
    """A fixed, vaguely body-like joint layout shared by all primitives."""
    j = np.arange(joints)
    angle = 2.0 * np.pi * j / joints
    pose = np.stack(
        [0.25 * np.cos(angle), 0.25 * np.sin(angle), 0.9 + 0.12 * (j % 4)], axis=1
    )
    return pose


@dataclass(frozen=True)
class _Motif:
    """Analytic joint trajectories of one primitive.

    All joints mix two shared oscillators at integer frequencies (f, 2f), so
    the pose path is a closed loop traversed exactly f times per canonical
    duration. Recurring poses make frame identity depend on temporal context,
    the regime this toolkit is built for.
    """

    amplitude: np.ndarray  # (2, J, 3)
    cycles: np.ndarray  # (2,) oscillations per canonical duration
    phase: np.ndarray  # (2, J, 3)
    base: np.ndarray  # (J, 3)

    def eval(self, t_norm: np.ndarray) -> np.ndarray:
        """Joint positions at normalized times t_norm (canonical duration = 1)."""
        t = np.asarray(t_norm, dtype=np.float64).reshape(-1, 1, 1, 1)
        cycles = self.cycles.reshape(1, 2, 1, 1)
        waves = self.amplitude * np.sin(2.0 * np.pi * cycles * t + self.phase)
        return self.base + waves.sum(axis=1)


def _make_motif(corpus_seed: int, primitive: int, joints: int) -> _Motif:
    rng = np.random.default_rng(np.random.SeedSequence([corpus_seed, 101, primitive]))
    shape = (2, joints, 3)
    amplitude = rng.uniform(0.05, 0.30, size=shape)
    f = int(rng.integers(2, 4))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return _Motif(amplitude=amplitude, cycles=np.array([float(f), 2.0 * f]),
                  phase=phase, base=_base_pose(joints))


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def generate_synthetic_corpus(
    primitive_count: int,
    sequences: int,
    primitives_per_sequence: int,
    frames_per_primitive: int,
    seed: int,
    *,
    joints: int = _DEFAULT_JOINTS,
    fps: float = 30.0,
    pose_spread: float = 0.0,
) -> LabeledCorpus:
    """Build a deterministic corpus of primitive chains with exact frame labels.

    Each primitive is a bank of sinusoidal joint trajectories. A sequence
    concatenates randomly chosen primitives; every instance gets its own speed
    factor in [1/2, 2], heading rotation, and ground-plane translation, and
    junctions are crossfaded over a few frames for C0 continuity.

    pose_spread > 0 adds a per-primitive constant pose offset, separating the
    primitives in raw coordinate space (easier corpora for detection tests).
    """
    if min(primitive_count, sequences, primitives_per_sequence, frames_per_primitive) < 1:
        raise ValueError("all corpus parameters must be >= 1")
    motifs = [_make_motif(seed, p, joints) for p in range(primitive_count)]
    offsets = np.zeros((primitive_count, joints, 3))
    if pose_spread > 0.0:
        off_rng = np.random.default_rng(np.random.SeedSequence([seed, 202]))
        offsets = off_rng.uniform(-pose_spread, pose_spread, size=offsets.shape)

    out_seqs: list[SkeletonSequence] = []
    out_labels: list[np.ndarray] = []
    for s in range(sequences):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 303, s]))
        chain = rng.integers(0, primitive_count, size=primitives_per_sequence)
        parts: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for p in chain:
            speed = rng.uniform(0.5, 2.0)
            length = max(2, int(np.floor(frames_per_primitive / speed + 0.5)))
            t_norm = np.arange(length) * speed / frames_per_primitive
            frames = motifs[p].eval(t_norm) + offsets[p]
            # heading stays within a stage-facing cone; translation on the floor
            frames = frames @ _rot_z(rng.uniform(-np.pi / 6, np.pi / 6)).T
            frames[:, :, 0] += rng.uniform(-1.0, 1.0)
            frames[:, :, 1] += rng.uniform(-1.0, 1.0)
            parts.append(frames)
            labels.append(np.full(length, p, dtype=np.int64))
        data, lab = _splice_parts(parts, labels, _BLEND_FRAMES)
        out_seqs.append(SkeletonSequence(data=data, fps=fps))
        out_labels.append(lab)
    return LabeledCorpus(
        sequences=out_seqs, frame_labels=out_labels, primitive_count=primitive_count
    )


def _splice_parts(
    parts: list[np.ndarray], labels: list[np.ndarray], blend: int
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate instances, aligning body centers and crossfading the junctions."""
    data = parts[0]
    lab = labels[0]
    for nxt, nxt_lab in zip(parts[1:], labels[1:]):
        # keep the performer in place: line up body centers at the junction
        shift = data[-1].mean(axis=0) - nxt[0].mean(axis=0)
        nxt = nxt + shift
        b = min(blend, data.shape[0] - 1, nxt.shape[0] - 1)
        if b > 0:
            w = ((np.arange(b) + 1.0) / (b + 1.0)).reshape(-1, 1, 1)
            mixed = (1.0 - w) * data[-b:] + w * nxt[:b]
            mixed_lab = np.where(w[:, 0, 0] > 0.5, nxt_lab[0], lab[-1])
            data = np.concatenate([data[:-b], mixed, nxt[b:]])
            lab = np.concatenate([lab[:-b], mixed_lab.astype(np.int64), nxt_lab[b:]])
        else:
            data = np.concatenate([data, nxt])
            lab = np.concatenate([lab, nxt_lab])
    return data, lab
