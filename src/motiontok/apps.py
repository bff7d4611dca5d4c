"""Token-stream applications: sliding-window action detection through a
max-agreement acton-to-class map, and random motion composition by chaining
compatible acton instances."""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence, center_normalize_frames
# embed_sequence and assign are not called here; they stay importable as
# apps.embed_sequence and apps.assign for callers that wrap them
from .lexicon import TokenStream, assign
from .metrics import temporal_iou
from .tan import embed_sequence

BACKGROUND_CLASS = -1


@dataclass(frozen=True)
class ActonClassMap:
    """acton id -> action class, learned by maximum frame agreement."""

    classes: np.ndarray  # (K,) int; BACKGROUND_CLASS for actons never observed
    agreement: np.ndarray  # (K,) float in [0, 1]

    def __post_init__(self):
        c = np.asarray(self.classes, dtype=np.int64)
        a = np.asarray(self.agreement, dtype=np.float64)
        if c.shape != a.shape or c.ndim != 1:
            raise ValueError("classes and agreement must be equal-length vectors")
        object.__setattr__(self, "classes", c)
        object.__setattr__(self, "agreement", a)


@dataclass(frozen=True)
class Detection:
    class_id: int
    start: int
    end: int
    confidence: float


def learn_acton_class_map(token_labels, annotations, acton_count: int) -> ActonClassMap:
    """Map each acton to the action class most frequent among its frames.

    token_labels / annotations: per-sequence aligned arrays of frame acton ids
    and frame class ids. Ties go to the lower class id; actons never seen in
    training map to the background class.
    """
    if len(token_labels) != len(annotations):
        raise ValueError("token_labels and annotations must pair up")
    counts: dict[int, dict[int, int]] = {}
    for actons, classes in zip(token_labels, annotations):
        actons = np.asarray(actons)
        classes = np.asarray(classes)
        if actons.shape != classes.shape:
            raise ValueError("acton and class arrays must have equal length")
        for a, c in zip(actons.tolist(), classes.tolist()):
            counts.setdefault(a, {})[c] = counts.get(a, {}).get(c, 0) + 1
    mapping = np.full(acton_count, BACKGROUND_CLASS, dtype=np.int64)
    agreement = np.zeros(acton_count)
    for a in range(acton_count):
        if a not in counts:
            continue
        per_class = counts[a]
        best = min(per_class, key=lambda c: (-per_class[c], c))
        mapping[a] = best
        agreement[a] = per_class[best] / sum(per_class.values())
    return ActonClassMap(classes=mapping, agreement=agreement)


def nms(detections: list[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy per-class suppression of overlapping windows.

    Higher confidence wins; confidence ties prefer the longer window so a
    well-fitting large window absorbs the fragments it contains."""
    kept: list[Detection] = []
    for cls in sorted({d.class_id for d in detections}):
        pool = sorted((d for d in detections if d.class_id == cls),
                      key=lambda d: (-d.confidence, d.start - d.end, d.start))
        chosen: list[Detection] = []
        for d in pool:
            if all(temporal_iou((d.start, d.end), (c.start, c.end)) < iou_threshold
                   for c in chosen):
                chosen.append(d)
        kept.extend(chosen)
    kept.sort(key=lambda d: (d.start, d.class_id))
    return kept


def detect(frame_actons, class_map: ActonClassMap, window_scales: list[int],
           stride: int | None = None, nms_iou: float = 0.5) -> list[Detection]:
    """Score sliding windows of each scale over one sequence's frame acton
    labels by frame-class agreement and keep the per-class NMS survivors.

    window_scales are in frames; stride=None uses a quarter of each scale,
    a positive integer fixes one stride for all scales.
    """
    if not window_scales:
        raise ValueError("need at least one window scale")
    if stride is not None and stride < 1:
        raise ValueError("stride must be >= 1")
    frame_actons = np.asarray(frame_actons)
    k = class_map.classes.size
    if (frame_actons.ndim != 1 or not np.issubdtype(frame_actons.dtype, np.integer)
            or frame_actons.size < 1 or not 0 <= frame_actons.min() <= frame_actons.max() < k):
        raise ValueError(f"frame_actons must be a non-empty 1-d array of acton ids in [0, {k})")
    frame_classes = class_map.classes[frame_actons]
    t = frame_actons.size
    real_classes = np.unique(class_map.classes[class_map.classes != BACKGROUND_CLASS])
    raw: list[Detection] = []
    for scale in window_scales:
        if scale > t:
            warnings.warn(f"window scale {scale} exceeds sequence length {t}; skipped")
            continue
        step = stride if stride is not None else max(1, scale // 4)
        for start in range(0, t - scale + 1, step):
            window = frame_classes[start:start + scale]
            best_cls, best_conf = None, -1.0
            for cls in real_classes:
                conf = float((window == cls).mean())
                if conf > best_conf:
                    best_cls, best_conf = int(cls), conf
            if best_cls is not None and best_conf > 0.0:
                raw.append(Detection(best_cls, start, start + scale, best_conf))
    return nms(raw, nms_iou)


# --- composition ---------------------------------------------------------------

@dataclass
class InstanceLibrary:
    """Concrete skeleton segments for every acton, harvested from a tokenized corpus."""

    instances: dict[int, list[np.ndarray]]  # acton -> list of (T, J, 3)
    fps: float

    def actons_with_instances(self) -> list[int]:
        return sorted(a for a, v in self.instances.items() if v)


def build_instance_library(sequences: list[SkeletonSequence],
                           streams: list[TokenStream]) -> InstanceLibrary:
    if len(sequences) != len(streams):
        raise ValueError("sequences and token streams must pair up")
    instances: dict[int, list[np.ndarray]] = {}
    for seq, stream in zip(sequences, streams):
        for start, end, acton in stream.segments:
            instances.setdefault(acton, []).append(np.asarray(seq.data[start:end]))
    return InstanceLibrary(instances=instances, fps=sequences[0].fps)


@dataclass(frozen=True)
class ComposedMotion:
    words: tuple[int, ...]
    sequence: SkeletonSequence
    splice_boundaries: tuple[int, ...]  # first frame index of each blend window


def _boundary_distance(last_frame: np.ndarray, first_frame: np.ndarray) -> float:
    """L2 skeleton distance between center-normalized boundary poses."""
    a = center_normalize_frames(last_frame[None])[0]
    b = center_normalize_frames(first_frame[None])[0]
    return float(np.sqrt(((a - b) ** 2).sum()))


def sample_instance(library: InstanceLibrary, acton: int,
                    rng: np.random.Generator) -> np.ndarray:
    pool = library.instances.get(acton, [])
    if not pool:
        raise ValueError(f"acton {acton} has no stored instances")
    return pool[int(rng.integers(len(pool)))]


def compose(library: InstanceLibrary, word_count: int, boundary_threshold: float,
            blend_frames: int, rng: np.random.Generator,
            retry_budget: int = 64) -> ComposedMotion:
    """Chain word_count acton instances whose boundary poses are compatible.

    Candidates are rejection-sampled until the centered L2 distance between
    the previous instance's last frame and the candidate's first frame is at
    most boundary_threshold; after the retry budget the nearest candidate
    seen is used, with the blend window stretched to keep per-frame
    displacement within boundary_threshold / blend_frames. Instances are
    spliced by linear interpolation after aligning body centers.
    """
    if word_count < 1:
        raise ValueError("word_count must be >= 1")
    if blend_frames < 1:
        raise ValueError("blend_frames must be >= 1")
    if not boundary_threshold > 0:
        raise ValueError("boundary_threshold must be > 0")
    candidates = library.actons_with_instances()
    if not candidates:
        raise ValueError("instance library is empty")
    first_acton = candidates[int(rng.integers(len(candidates)))]
    words = [first_acton]
    chosen = [sample_instance(library, first_acton, rng)]
    data = chosen[0].copy()
    boundaries: list[int] = []
    for _ in range(word_count - 1):
        prev_last = data[-1]
        best: tuple[float, int, np.ndarray] | None = None
        accepted = None
        for _attempt in range(retry_budget):
            acton = candidates[int(rng.integers(len(candidates)))]
            inst = sample_instance(library, acton, rng)
            dist = _boundary_distance(prev_last, inst[0])
            if best is None or dist < best[0]:
                best = (dist, acton, inst)
            if dist <= boundary_threshold:
                accepted = (dist, acton, inst)
                break
        if accepted is None:
            accepted = best  # relax to the nearest candidate seen
        dist, acton, inst = accepted
        # align body centers so splicing is a shape morph, not a teleport
        shift = data[-1].mean(axis=0) - inst[0].mean(axis=0)
        inst = inst + shift
        blend = blend_frames
        if dist > boundary_threshold:
            blend = int(np.ceil(dist / (boundary_threshold / blend_frames)))
        w = (np.arange(1, blend + 1) / (blend + 1.0)).reshape(-1, 1, 1)
        ramp = (1.0 - w) * data[-1] + w * inst[0]
        boundaries.append(data.shape[0])  # first inserted blend frame
        data = np.concatenate([data, ramp, inst])
        words.append(acton)
    return ComposedMotion(
        words=tuple(words),
        sequence=SkeletonSequence(data=data, fps=library.fps),
        splice_boundaries=tuple(boundaries),
    )
