"""Test-only helpers: oracles, baselines and fixtures the tests check the
package against. No command and no benchmark code uses them, so they live
here rather than in `motiontok`.

- `grad_check`: analytic gradients against central differences (criterion 1).
- `stationary_distribution`, `exact_block_entropies`: exact block entropies
  of Markov sources, the oracle of criterion 3.
- `entropy_monotonicity_check`: an empirical F_N table and its trend.
- `metric_correlation`: Pearson, Spearman and Kendall tau-b in numpy.
- `raw_embed`: the raw-coordinate baseline of criteria 4-6.
- `IDENTITY_RANGES`: augmentation ranges that leave a clip unchanged.
- `load_perfbench`: a module of the benchmark harness, imported from its file.
- `payload_digest`: the sha256 prefix of a container file's bytes after its header line.
- `reference_step_gradients`: one training step's gradients, computed clip by clip.
- `reference_kmeans`, `reference_sq_dists`: k-means with a per-cluster mean
  loop and exact (M, K) distances, the reference `lexicon.kmeans` and
  `lexicon.assign` are held to bit for bit.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from motiontok import autodiff as ad
from motiontok.augment import AugmentRanges
from motiontok.data import SkeletonSequence, center_normalize_frames
from motiontok.metrics import entropy_table
from motiontok.tan import encode, project

IDENTITY_RANGES = AugmentRanges(translation_range=0.0, rotation_range_deg=0.0, speed_max=1.0)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py as module `perfbench_<name>` (the harness is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def payload_digest(raw: bytes) -> str:
    """sha256 prefix of a container file's array bytes, the part after the
    JSON header line: it pins the stored numbers whatever the header holds."""
    return hashlib.sha256(raw.split(b"\n", 1)[1]).hexdigest()[:16]


def reference_step_gradients(weights, pairs, loss_kind: str, train_config,
                             rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-parameter gradients of one training step on the view pairs `pairs`,
    with every view sent through `encode` and `project` on its own and the
    per-clip views handed to the step's loss, as `train_tan` did before it
    packed a step's views into one matrix. rng feeds the TCN sampling, so
    it must be in the state `train_tan`'s step generator has after the views
    are drawn."""
    from motiontok import train
    weights.zero_grad()
    va = [ad.slice_tensor(project(encode(p.view_a.flat(), weights), weights), (0,)) for p in pairs]
    vb = [ad.slice_tensor(project(encode(p.view_b.flat(), weights), weights), (0,)) for p in pairs]
    if loss_kind == "tan":
        loss = train.frame_nt_xent(va, vb, [p.correspondences for p in pairs],
                                   mode=train_config.negative_mode, tau=train_config.temperature)
    else:
        if loss_kind == "tcn":
            items = [train.tcn_loss(a, b, train.TCN_ANCHORS, rng) for a, b in zip(va, vb)]
        else:
            items = [train.tcc_loss(a, b) for a, b in zip(va, vb)]
        loss = ad.mean(ad.concat([ad.reshape(x, (1,)) for x in items], axis=0))
    ad.backward(loss)
    return {name: t.grad.copy() for name, t in weights.tensors.items()}


def reference_sq_dists(points: np.ndarray, centroids: np.ndarray,
                       chunk: int = 512) -> np.ndarray:
    """Exact squared distances sum((p - c)^2), (M, K), chunked to bound the
    (chunk, K, D) difference buffer."""
    m = points.shape[0]
    out = np.empty((m, centroids.shape[0]))
    for lo in range(0, m, chunk):
        diff = points[lo:lo + chunk, None, :] - centroids[None, :, :]
        out[lo:lo + chunk] = np.einsum("mkd,mkd->mk", diff, diff)
    return out


def reference_kmeans(points: np.ndarray, k: int, seed: int = 0, max_iters: int = 300,
                     tol: float = 1e-6) -> tuple[np.ndarray, dict]:
    """(centroids, metadata) of `lexicon.kmeans` as loops: k-means++ seeding
    over exact distances, a Lloyd loop over Gram-form distances with one
    mean per cluster, empty clusters re-seeded one at a time to the farthest
    point, and the inertia from an exact (M, K) pass."""
    points = np.asarray(points, dtype=np.float64)
    m = points.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(m)]
    closest = reference_sq_dists(points, centroids[:1]).min(axis=1)
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[c] = points[rng.integers(m)]
        else:
            centroids[c] = points[np.searchsorted(np.cumsum(closest / total), rng.random())]
        closest = np.minimum(closest, reference_sq_dists(points, centroids[c:c + 1]).min(axis=1))

    p2 = (points * points).sum(axis=1)[:, None]
    for _ in range(max_iters):
        c2 = (centroids * centroids).sum(axis=1)[None, :]
        dists = np.maximum(p2 + c2 - 2.0 * (points @ centroids.T), 0.0)
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
    final = reference_sq_dists(points, centroids)
    labels = final.argmin(axis=1)
    inertia = float(final[np.arange(m), labels].sum())
    return centroids, {"seed": seed, "inertia": inertia, "points": m}


def grad_check(f, x: ad.Tensor, eps: float = 1e-4) -> float:
    """Max relative disagreement between backward() and central differences.

    Relative error per coordinate: |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    x.zero_grad()
    out = f(x)
    ad.backward(out)
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.values)
    with ad.no_grad():
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


def raw_embed(seq: SkeletonSequence) -> np.ndarray:
    """Raw-coordinate baseline features: center-normalized flattened joints."""
    return center_normalize_frames(seq.data).reshape(seq.frames, 3 * seq.joints)


# --- entropies ----------------------------------------------------------------------

def entropy_monotonicity_check(streams, n_max: int, tol: float = 1e-9,
                               ) -> tuple[bool, list[tuple[int, float, float]]]:
    """Empirical F_N table plus whether it happens to be non-increasing.

    On finite samples the conditional entropies can tick upward, so the flag
    is descriptive; the theorem itself only holds for true source
    distributions (see exact_block_entropies).
    """
    table = entropy_table(streams, n_max)
    fs = [f for _, _, f in table]
    monotone = all(fs[i + 1] <= fs[i] + tol for i in range(len(fs) - 1))
    return monotone, table


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector of a row-stochastic matrix."""
    p = np.asarray(transition, dtype=np.float64)
    m = p.shape[0]
    a = np.vstack([p.T - np.eye(m), np.ones(m)])
    b = np.concatenate([np.zeros(m), [1.0]])
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return np.clip(pi, 0.0, None) / pi.sum()


def exact_block_entropies(initial: np.ndarray, transition: np.ndarray,
                          n_max: int) -> list[tuple[int, float, float]]:
    """(N, K_N, F_N) computed from the true distribution of a Markov source.

    Block probabilities p(w_1..w_N) = initial[w_1] * prod transition[w_i, w_i+1]
    are enumerated exhaustively; i.i.d. and deterministic-cycle sources are
    the special cases of constant rows and permutation matrices.
    """
    initial = np.asarray(initial, dtype=np.float64)
    transition = np.asarray(transition, dtype=np.float64)
    m = initial.shape[0]
    rows = []
    k_prev = 0.0
    probs = initial.copy()  # p over blocks of length n, flattened
    for n in range(1, n_max + 1):
        live = probs[probs > 0]
        k_n = float(-(live * np.log2(live)).sum())
        rows.append((n, k_n, k_n - k_prev))
        k_prev = k_n
        # extend every block by one symbol: p(w, s) = p(w) * P[last(w), s];
        # blocks are flattened with the last symbol varying fastest
        last = np.arange(probs.size) % m
        probs = (probs.reshape(-1, 1) * transition[last]).reshape(-1)
    return rows


# --- correlations -------------------------------------------------------------------

def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    group = np.repeat(np.arange(starts.size), ends - starts)
    ranks = np.empty(x.size)
    ranks[order] = ((starts + ends + 1) / 2.0)[group]
    return ranks


def metric_correlation(series_a, series_b) -> tuple[float, float, float]:
    """(|Pearson r|, Spearman rho, Kendall tau-b) between two metric series.

    Spearman rho is the Pearson correlation of average ranks; tau-b is
    sum(sa * sb) / sqrt(sum(sa^2) * sum(sb^2)) over the pairwise sign matrices,
    which leaves tied pairs out of each side's count.
    """
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 3:
        raise ValueError("series must be equal-length 1-d with at least 3 points")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("correlation undefined for zero-variance series")
    r = float(np.corrcoef(a, b)[0, 1])
    rho = float(np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1])
    sign_a = np.sign(a[:, None] - a[None, :])
    sign_b = np.sign(b[:, None] - b[None, :])
    tau = float((sign_a * sign_b).sum() / np.sqrt((sign_a ** 2).sum() * (sign_b ** 2).sum()))
    return abs(r), rho, tau
