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


def _gram(points: np.ndarray, p2: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances in Gram form, max(|p|^2 + |c|^2 - 2 p.c, 0), (M, K).

    p2 holds the points' squared norms. It is one matrix product, but its
    rounding residue (of order eps * (|p|^2 + |c|^2)) breaks exact ties and
    zero distances: the Lloyd loop uses it as is, `nearest` only to screen."""
    c2 = (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(p2[:, None] + c2 - 2.0 * (points @ centroids.T), 0.0)


def nearest(points: np.ndarray, p2: np.ndarray,
            centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid id and squared distance per point, as an exact
    difference pass sum((p - c)^2) over all (M, K) pairs gives them, ties
    going to the lowest id: k-means' labels, `assign` and Kendall's Tau.

    The Gram form screens the centroids. Each form is within
    2 (D + 2) u (|p|^2 + max |c|^2) of the true distance (u the unit
    roundoff, eps / 2), so the exact nearest is never more than twice their
    sum above the row's Gram minimum; the margin, 8 (D + 2) eps (|p|^2 +
    max |c|^2), is twice that again. The exact form then decides among the
    survivors, usually one per row, so the result matches the full exact
    pass bit for bit without its (M, K, D) difference buffer. A row whose
    screen is NaN keeps every centroid."""
    gram = _gram(points, p2, centroids)
    scale = p2 + (centroids * centroids).sum(axis=1).max()
    margin = 8.0 * np.finfo(np.float64).eps * (points.shape[1] + 2) * scale
    rows, cols = np.nonzero(~(gram > (gram.min(axis=1, initial=np.inf) + margin)[:, None]))
    diff = points[rows] - centroids[cols]
    exact = np.einsum("md,md->m", diff, diff)
    # rows ascend and cols ascend within a row; the stable sort keeps that
    # order among equal distances, so each row's first entry is its lowest id
    order = np.lexsort((exact, rows))
    first = order[np.searchsorted(rows, np.arange(points.shape[0]))]
    return cols[first], exact[first]


def kmeans(points: np.ndarray, k: int, seed: int = 0, max_iters: int = 300,
           tol: float = 1e-6) -> Lexicon:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when the largest centroid shift drops below tol. Empty clusters are
    re-seeded to the points currently farthest from their assigned centroid.
    The Lloyd loop assigns by the Gram form; the reported inertia comes from
    the exact form, so k = M gives zero inertia. Each centroid is its
    members' sum, accumulated in point order, over their count: for D >= 2
    that is bit for bit `points[members].mean(axis=0)`; for D = 1 numpy's
    mean sums pairwise, and the two can differ in the last bits.
    """
    for name, value, least in (("k", k, 1), ("seed", seed, 0), ("max_iters", max_iters, 1)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
            or not 0 <= tol < np.inf):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError(f"points must be an (M, D) array with D >= 1, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    m, d = points.shape
    if m < k:
        raise ValueError(f"need at least k={k} points, got {m}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))

    centroids = np.empty((k, d))
    centroids[0] = points[rng.integers(m)]
    closest = np.full(m, np.inf)
    for c in range(1, k):
        diff = points - centroids[c - 1]
        closest = np.minimum(closest, np.einsum("md,md->m", diff, diff))
        total = closest.sum()
        if total <= 0.0:
            centroids[c] = points[rng.integers(m)]
        else:
            centroids[c] = points[np.searchsorted(
                np.cumsum(closest / total), rng.random())]

    p2 = (points * points).sum(axis=1)
    column = np.arange(d)
    for _ in range(max_iters):
        dists = _gram(points, p2, centroids)
        labels = dists.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        sums = np.bincount((labels[:, None] * d + column).ravel(), weights=points.ravel(),
                           minlength=k * d).reshape(k, d)
        new_centroids = centroids.copy()
        filled = counts > 0
        new_centroids[filled] = sums[filled] / counts[filled, None]
        empties = np.flatnonzero(~filled)
        if empties.size:
            # the farthest points, ties to the lowest index
            point_err = dists[np.arange(m), labels]
            far = np.argsort(-point_err, kind="stable")[:empties.size]
            new_centroids[empties] = points[far]
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    _, dist = nearest(points, p2, centroids)
    return Lexicon(centroids=centroids,
                   metadata={"seed": seed, "inertia": float(dist.sum()), "points": m})


def assign(frames: np.ndarray, lexicon: Lexicon) -> np.ndarray:
    """Nearest-centroid label per frame; ties resolve to the lowest cluster id."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != lexicon.dim:
        raise ValueError(
            f"frames of shape {frames.shape} do not match lexicon dim {lexicon.dim}"
        )
    if not np.isfinite(frames).all():
        raise ValueError("frames must be finite")
    return nearest(frames, (frames * frames).sum(axis=1), lexicon.centroids)[0]


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
