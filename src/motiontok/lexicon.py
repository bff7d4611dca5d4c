"""Joint clustering and segmentation: K-means over all frame embeddings,
nearest-centroid assignment, and maximal-run token streams."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (FORMAT_VERSION, HeaderError, LabeledCorpus, encode_container, read_container,
                   write_container)
from .tan import TanWeights, embed_sequence


@dataclass
class Lexicon:
    """K centroid vectors in feature space plus build metadata."""

    centroids: np.ndarray  # (K, dim)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.centroids, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"centroids must be (K, dim) with K >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("centroids must be finite")
        self.centroids = arr

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class TokenStream:
    """Maximal same-acton runs tiling [0, T) exactly."""

    segments: tuple[tuple[int, int, int], ...]  # (start, end_exclusive, acton)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("token stream cannot be empty")
        prev_end = 0
        prev_acton = None
        for start, end, acton in self.segments:
            if start != prev_end or end <= start:
                raise ValueError("segments must tile [0, T) with no gaps or overlaps")
            if acton == prev_acton:
                raise ValueError("adjacent segments must carry different acton ids")
            prev_end, prev_acton = end, acton

    @property
    def frames(self) -> int:
        return self.segments[-1][1]

    def tokens(self) -> list[int]:
        """One symbol per segment, the stream fed to language statistics."""
        return [acton for _, _, acton in self.segments]

    def frame_actons(self) -> np.ndarray:
        out = np.empty(self.frames, dtype=np.int64)
        for start, end, acton in self.segments:
            out[start:end] = acton
        return out


def _sq_dists(points: np.ndarray, centroids: np.ndarray,
              chunk: int = 512) -> np.ndarray:
    """Exact squared distances, (M, K), chunked to bound the diff buffer.

    Seeding, the final inertia and `assign` use this form: the Gram form of
    `_sq_dists_fast` leaves rounding residue where a point equals its
    centroid, so k = M would no longer give zero inertia. The Lloyd loop uses
    the Gram form, which makes k-means 3.3x faster."""
    m = points.shape[0]
    out = np.empty((m, centroids.shape[0]))
    for lo in range(0, m, chunk):
        diff = points[lo:lo + chunk, None, :] - centroids[None, :, :]
        out[lo:lo + chunk] = np.einsum("mkd,mkd->mk", diff, diff)
    return out


def _sq_dists_fast(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Gram-matrix form of squared distances, for the Lloyd inner loop only.

    The loop needs only each point's nearest centroid; the exact `_sq_dists`
    there made k-means 3.3x slower (K in 8..128 on 1376 unit 32-d points).
    The reported inertia and labels come from the exact form, because this
    one's rounding residue breaks zero inertia at k = M."""
    p2 = (points * points).sum(axis=1)[:, None]
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(p2 + c2 - 2.0 * (points @ centroids.T), 0.0)


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iters: int = 300,
           tol: float = 1e-6) -> Lexicon:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when the largest centroid shift drops below tol. Empty clusters are
    re-seeded to the point currently farthest from its assigned centroid.
    """
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    if m < k:
        raise ValueError(f"need at least k={k} points, got {m}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(m)]
    closest = _sq_dists(points, centroids[:1]).min(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[c] = points[rng.integers(m)]
        else:
            centroids[c] = points[np.searchsorted(
                np.cumsum(closest / total), rng.random())]
        closest = np.minimum(closest, _sq_dists(points, centroids[c:c + 1]).min(axis=1))

    labels = np.zeros(m, dtype=np.int64)
    for _ in range(max_iters):
        dists = _sq_dists_fast(points, centroids)
        labels = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        for c in range(k):
            members = labels == c
            if members.any():
                new_centroids[c] = points[members].mean(axis=0)
        empties = np.flatnonzero(np.bincount(labels, minlength=k) == 0)
        if empties.size:
            point_err = dists[np.arange(m), labels]
            for c in empties:
                far = int(point_err.argmax())
                new_centroids[c] = points[far]
                point_err[far] = -1.0
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    final = _sq_dists(points, centroids)
    labels = final.argmin(axis=1)
    inertia = float(final[np.arange(m), labels].sum())
    return Lexicon(centroids=centroids,
                   metadata={"seed": seed, "inertia": inertia, "points": m})


def assign(frames: np.ndarray, lexicon: Lexicon) -> np.ndarray:
    """Nearest-centroid label per frame; ties resolve to the lowest cluster id."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != lexicon.dim:
        raise ValueError(
            f"frames of shape {frames.shape} do not match lexicon dim {lexicon.dim}"
        )
    return _sq_dists(frames, lexicon.centroids).argmin(axis=1)


def segment(labels) -> TokenStream:
    """Group consecutive equal labels into maximal segments."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("labels must be a non-empty 1-d sequence")
    boundaries = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [labels.size]])
    return TokenStream(segments=tuple(
        (int(s), int(e), int(labels[s])) for s, e in zip(starts, ends)))


def tokenize_features(features: np.ndarray, lexicon: Lexicon,
                      ) -> tuple[TokenStream, np.ndarray]:
    """One sequence's frame features -> nearest-centroid labels -> token stream."""
    labels = assign(features, lexicon)
    return segment(labels), labels


def tokenize_corpus(corpus: LabeledCorpus, weights: TanWeights, lexicon: Lexicon,
                    map_fn=map) -> tuple[list[TokenStream], list[np.ndarray]]:
    """Encode, project, assign, and segment every sequence of a corpus.

    Features are computed in the space and context window the lexicon was
    built with (recorded in its metadata). map_fn runs the per-sequence work
    (an executor's map fans it out); results keep the corpus order."""
    space = lexicon.metadata.get("feature_space", "projection")
    window = lexicon.metadata.get("context_window")
    results = list(map_fn(
        lambda seq: tokenize_features(
            embed_sequence(seq, weights, space=space, window=window), lexicon),
        corpus.sequences))
    return [stream for stream, _ in results], [labels for _, labels in results]


def corpus_features(corpus: LabeledCorpus, weights: TanWeights, space: str = "projection",
                    window: int | None = None) -> list[np.ndarray]:
    """Frame embeddings of every sequence of a corpus, one (T, F) matrix each."""
    return [embed_sequence(seq, weights, space=space, window=window)
            for seq in corpus.sequences]


def build_lexicon(corpus: LabeledCorpus, weights: TanWeights, k: int, seed: int = 0,
                  space: str = "projection", checkpoint_digest: str | None = None,
                  max_iters: int = 300, tol: float = 1e-6,
                  window: int | None = None) -> Lexicon:
    """Cluster all frame features of a training corpus into a K-word lexicon.

    window (typically the encoder's training length) bounds the temporal
    context each frame is embedded in; it is recorded in the lexicon metadata
    so assignment at tokenize time uses identical features.
    """
    points = np.concatenate(corpus_features(corpus, weights, space=space, window=window))
    return cluster_features(points, k, seed=seed, space=space,
                            checkpoint_digest=checkpoint_digest, max_iters=max_iters,
                            tol=tol, window=window)


def cluster_features(points: np.ndarray, k: int, seed: int = 0, space: str = "projection",
                     checkpoint_digest: str | None = None, max_iters: int = 300,
                     tol: float = 1e-6, window: int | None = None) -> Lexicon:
    """K-means lexicon of frame features already embedded in `space` with
    context `window`; both are recorded in the metadata, as build_lexicon does."""
    lex = kmeans(points, k, seed=seed, max_iters=max_iters, tol=tol)
    lex.metadata.update({
        "feature_space": space,
        "checkpoint_digest": checkpoint_digest,
        "k": k,
        "context_window": window,
    })
    return lex


# --- persistence -----------------------------------------------------------------

_LEX_MAGIC = "acton-lexicon"


def _lexicon_shapes(header: dict, path: Path) -> list[tuple[int, ...]]:
    """Lexicon header rule: a metadata object with a usable feature space and
    context window (where present), and one (k, dim) centroid array."""
    meta = header.get("metadata")
    if not isinstance(meta, dict):
        raise HeaderError(f"{path.name}: lexicon header has no metadata object")
    if meta.get("feature_space", "projection") not in ("projection", "hidden"):
        raise HeaderError(f"{path.name}: unknown feature_space {meta['feature_space']!r}")
    window = meta.get("context_window")
    if window is not None and (type(window) is not int or window < 1):
        raise HeaderError(f"{path.name}: context_window must be null or an integer >= 1, "
                          f"got {window!r}")
    return [(header.get("k"), header.get("dim"))]


def save_lexicon(lexicon: Lexicon, path: str | Path) -> Path:
    header = {"format": _LEX_MAGIC, "version": FORMAT_VERSION, "k": lexicon.k,
              "dim": lexicon.dim, "metadata": lexicon.metadata}
    return write_container(Path(path), encode_container(header, [lexicon.centroids], "<f8"))


def load_lexicon(path: str | Path) -> Lexicon:
    header, (centroids,) = read_container(path, _LEX_MAGIC, "<f8", _lexicon_shapes)
    return Lexicon(centroids=centroids.copy(), metadata=header["metadata"])


def write_token_streams(streams: list[TokenStream], path: str | Path,
                        header_lines: list[str] | None = None) -> Path:
    """Token streams as tab-separated rows (sequence, start, end, acton)."""
    path = Path(path)
    with open(path, "w") as fh:
        for line in header_lines or []:
            fh.write(f"# {line}\n")
        fh.write("sequence\tstart\tend\tacton\n")
        for sid, stream in enumerate(streams):
            for start, end, acton in stream.segments:
                fh.write(f"{sid}\t{start}\t{end}\t{acton}\n")
    return path
