"""Whole-sequence augmentations (translation, rotation about gravity, speed change)
and correspondence-annotated view pairs for contrastive training.

Every transform is applied consistently across all frames of a sequence. Speed
change resamples the time axis with linear interpolation; the frame
correspondence between two views of the same source is recovered analytically
from the two speed factors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SkeletonSequence, _rot_z


@dataclass(frozen=True)
class AugmentRanges:
    """Sampling ranges for the augmentation family.

    Defaults: +-0.2 m ground-plane translation, +-18 degrees about +z, speed
    factors in [1/2, 2]. Setting a range to its identity value (0 or 1)
    disables that component.
    """

    translation_range: float = 0.2  # meters per horizontal axis
    rotation_range_deg: float = 18.0
    speed_max: float = 2.0  # >= 1; draws land in [1/speed_max, speed_max]

    def __post_init__(self):
        if self.translation_range < 0 or self.rotation_range_deg < 0:
            raise ValueError("ranges must be non-negative")
        if self.speed_max < 1.0:
            raise ValueError(f"speed_max must be >= 1, got {self.speed_max}")


@dataclass(frozen=True)
class AugmentParams:
    translation: np.ndarray  # (3,)
    rotation: float  # radians about +z
    speed: float  # > 0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        t.flags.writeable = False
        object.__setattr__(self, "translation", t)
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {self.speed}")


@dataclass(frozen=True)
class ViewPair:
    """Two augmented views of one source plus their frame correspondence list."""

    view_a: SkeletonSequence
    view_b: SkeletonSequence
    correspondences: list[tuple[int, int]]


def sample_params(rng: np.random.Generator, ranges: AugmentRanges) -> AugmentParams:
    """Draw one parameter set: uniform translation/rotation; speed drawn uniformly
    in [1, speed_max] then inverted with probability 1/2."""
    r = ranges.translation_range
    tx = rng.uniform(-r, r)
    ty = rng.uniform(-r, r)
    rot = np.deg2rad(rng.uniform(-ranges.rotation_range_deg, ranges.rotation_range_deg))
    speed = rng.uniform(1.0, ranges.speed_max)
    if rng.random() < 0.5:
        speed = 1.0 / speed
    return AugmentParams(translation=np.array([tx, ty, 0.0]), rotation=rot, speed=speed)


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def apply(seq: SkeletonSequence, p: AugmentParams) -> SkeletonSequence:
    """Resample the time axis by p.speed, rotate about +z, then translate."""
    t_out = max(1, _round_half_up(seq.frames / p.speed))
    src = np.arange(t_out) * p.speed
    src = np.clip(src, 0.0, seq.frames - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, seq.frames - 1)
    frac = (src - lo).reshape(-1, 1, 1)
    frames = (1.0 - frac) * seq.data[lo] + frac * seq.data[hi]

    frames = frames @ _rot_z(p.rotation).T + p.translation
    return SkeletonSequence(data=frames, fps=seq.fps)


def match_frames(
    len_a: int, speed_a: float, len_b: int, speed_b: float
) -> list[tuple[int, int]]:
    """Pair view frames by source time: frame i_a (time i_a*speed_a) claims the
    nearest i_b when their source times differ by at most half a frame.
    Conflicts on one i_b keep the smaller gap; ties keep the lower i_a."""
    u = np.arange(len_a) * speed_a
    i_b = np.floor(u / speed_b + 0.5).astype(np.int64)
    gap = np.abs(i_b * speed_b - u)
    i_a = np.flatnonzero((0 <= i_b) & (i_b < len_b) & (gap <= 0.5))
    # per i_b, the smallest gap first, then the lowest i_a
    i_a = i_a[np.lexsort((i_a, gap[i_a], i_b[i_a]))]
    i_a = i_a[np.r_[True, np.diff(i_b[i_a]) != 0]]
    return sorted(zip(i_a.tolist(), i_b[i_a].tolist()))


def make_view_pair(
    seq: SkeletonSequence, rng: np.random.Generator, ranges: AugmentRanges
) -> ViewPair:
    """Augment one source sequence into two views with frame correspondences."""
    if seq.frames < 2:
        raise ValueError("view pairs need a source with at least 2 frames")
    p_a = sample_params(rng, ranges)
    p_b = sample_params(rng, ranges)
    view_a = apply(seq, p_a)
    view_b = apply(seq, p_b)
    corr = match_frames(view_a.frames, p_a.speed, view_b.frames, p_b.speed)
    return ViewPair(view_a=view_a, view_b=view_b, correspondences=corr)
