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
- `parameter`: a leaf tensor that requires grad, with its own zero gradient buffer.
- `weighted_sum`: sum(x * w) for a constant w as one graph node, the scalar
  the gradient checks differentiate.
- `reference_step_gradients`: one training step's gradients, computed clip by clip.
- `reference_optimizer_step`: the per-tensor gradient scaling and Adam step
  that the blocked pass of `train.adam_step` replaced; the pass is held to it
  bit for bit.
- `reference_train_tan`: the training loop as it ran in float64, the
  reference the float32 loop of `train.train_tan` is held to.
- `reference_tcn_loss`, `reference_tcc_loss`: one clip's TCN and TCC losses
  in numpy, the forward references of the fused `train.tcn_loss` and
  `train.tcc_loss`.
- `reference_kmeans`, `reference_sq_dists`: k-means with a per-cluster mean
  loop and exact (M, K) distances, the reference `lexicon.kmeans` and
  `lexicon.assign` are held to bit for bit.
- `reference_class_map`, `reference_detect`, `reference_match_frames`,
  `reference_kendalls_tau`, `reference_frame_pairs`, `reference_all_point_ap`:
  the per-frame, per-window, per-pair and per-point loops
  `apps.learn_acton_class_map`, `apps.detect`, `augment.match_frames`,
  `metrics.kendalls_tau`, `train.frame_nt_xent` and `metrics._all_point_ap`
  ran before they became array operations; the package is held to them bit
  for bit.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np

from motiontok import autodiff as ad
from motiontok.apps import BACKGROUND_CLASS, Detection, nms
from motiontok.augment import AugmentRanges
from motiontok.data import SkeletonSequence, center_normalize_frames
from motiontok.metrics import entropy_table
from motiontok.tan import encode, init_weights, project

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


def parameter(values, name: str = "param", dtype=np.float64) -> ad.Tensor:
    """A copy of values in dtype as a leaf that requires grad, accumulating
    into a zero gradient buffer of its own."""
    values = np.array(values, dtype=dtype)
    return ad.Tensor(values, ad.Node(values.shape, name, grad=np.zeros(values.shape, dtype),
                                     dtype=values.dtype))


def weighted_sum(x, w) -> ad.Tensor:
    """sum(x * w) as one node, w a constant array of x's shape, cast to x's dtype."""
    x = ad.as_tensor(x)
    w = np.asarray(w, dtype=x.values.dtype)
    if w.shape != x.shape:
        raise ad.ShapeError(f"weighted_sum: {x.shape} and {w.shape}")
    xn = x.node

    def bwd(g):
        ad._accumulate(xn, g * w)

    return ad._result((x.values * w).sum(), (xn,), "weighted_sum", bwd)


def reference_step_gradients(weights, pairs, loss_kind: str, train_config,
                             rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-parameter gradients of one training step on the view pairs `pairs`,
    with every view sent through `encode` and `project` on its own, as
    `train_tan` did before it packed a step's views into one matrix. The
    contrastive loss gets the per-clip views; a baseline loss runs on one clip
    at a time, and the clips' gradients are averaged. rng feeds the TCN
    sampling, so it must be in the state `train_tan`'s step generator has
    after the views are drawn."""
    from motiontok import train
    weights.zero_grad()
    va = [ad.slice_tensor(project(encode(p.view_a.flat(), weights), weights), (0,)) for p in pairs]
    vb = [ad.slice_tensor(project(encode(p.view_b.flat(), weights), weights), (0,)) for p in pairs]
    if loss_kind == "tan":
        ad.backward(train.frame_nt_xent(va, vb, [p.correspondences for p in pairs],
                                        mode=train_config.negative_mode,
                                        tau=train_config.temperature))
        return {name: t.grad.copy() for name, t in weights.tensors.items()}
    for a, b in zip(va, vb):
        lengths = ([a.shape[0]], [b.shape[0]])
        ad.backward(train.tcn_loss(a, b, lengths, train.TCN_ANCHORS, rng) if loss_kind == "tcn"
                    else train.tcc_loss(a, b, lengths))
    return {name: t.grad / len(pairs) for name, t in weights.tensors.items()}


def reference_optimizer_step(weights, state: dict, lr: float, weight_decay: float,
                             grad_scale: float) -> None:
    """One Adam step tensor by tensor, as `train_tan` took it before the
    optimizer became one blocked pass over flat buffers: scale every gradient
    in place by grad_scale (the clip factor), then step each tensor with its
    own moments, state = {"m": {}, "v": {}, "t": 0} keyed by tensor name. The
    gradients stay scaled."""
    from motiontok import train
    if grad_scale != 1.0:
        for p in weights.parameters():
            p.grad[...] *= grad_scale
    state["t"] += 1
    t = state["t"]
    for name, p in weights.tensors.items():
        g = p.grad
        m = state["m"].setdefault(name, np.zeros_like(p.values))
        v = state["v"].setdefault(name, np.zeros_like(p.values))
        m += (1.0 - train.ADAM_BETA1) * (g - m)
        v += (1.0 - train.ADAM_BETA2) * (g * g - v)
        m_hat = m / (1.0 - train.ADAM_BETA1 ** t)
        v_hat = v / (1.0 - train.ADAM_BETA2 ** t)
        p.values -= lr * (m_hat / (np.sqrt(v_hat) + train.ADAM_EPS) + weight_decay * p.values)


def reference_train_tan(corpus, tan_config, train_config, loss_kind: str = "tan",
                        ranges: AugmentRanges | None = None):
    """(weights, history) of `train.train_tan` as it ran before training
    computed in float32: the same crops, views, losses, schedule, clipping
    and Adam, with every step's forward and backward in float64 on the
    master weights themselves. train_tan's up-front checks are left out."""
    from motiontok import train
    ranges = AugmentRanges() if ranges is None else ranges
    t_crop = train_config.frames
    usable = [s for s in corpus.sequences if s.frames >= t_crop]
    steps_per_epoch = max(1, int(np.ceil(len(usable) / train_config.batch_size)))
    weights = init_weights(tan_config, usable[0].joints, train_config.seed)
    state, history, global_step = train.AdamState(), [], 0
    for epoch in range(train_config.epochs):
        order_rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 23, epoch]))
        batches = np.array_split(order_rng.permutation(len(usable)), steps_per_epoch)
        losses, gnorms = [], []
        for step_in_epoch, batch in enumerate(batches):
            rng = np.random.default_rng(
                np.random.SeedSequence([train_config.seed, 31, epoch, step_in_epoch]))
            pairs = [train.make_view_pair(train._crop(usable[i], t_crop, rng), rng, ranges)
                     for i in batch]
            views = [p.view_a.flat() for p in pairs] + [p.view_b.flat() for p in pairs]
            offsets = np.cumsum([0] + [len(v) for v in views])
            z = project(encode(np.concatenate(views), weights, offsets), weights)
            n_clips = len(pairs)
            va = ad.slice_tensor(z, (slice(0, offsets[n_clips]),))
            vb = ad.slice_tensor(z, (slice(offsets[n_clips], None),))
            lengths = np.diff(offsets)
            lengths = (lengths[:n_clips], lengths[n_clips:])
            if loss_kind == "tan":
                loss = train.frame_nt_xent(va, vb, [p.correspondences for p in pairs],
                                           mode=train_config.negative_mode,
                                           tau=train_config.temperature, lengths=lengths)
            elif loss_kind == "tcn":
                loss = train.tcn_loss(va, vb, lengths, train.TCN_ANCHORS, rng)
            else:
                loss = train.tcc_loss(va, vb, lengths)
            lr = train.lr_at(global_step, train_config, steps_per_epoch)
            ad.backward(loss)
            gnorm, scale = train.clip_gradients(weights, train.GRAD_CLIP_NORM)
            train.adam_step(weights, weights, state, lr, train.WEIGHT_DECAY, scale)
            losses.append(float(loss.values))
            gnorms.append(gnorm)
            global_step += 1
        history.append(train.EpochStats(epoch=epoch, mean_loss=float(np.mean(losses)), lr=lr,
                                        mean_grad_norm=float(np.mean(gnorms)),
                                        max_grad_norm=float(np.max(gnorms))))
    return weights, history


def reference_tcn_loss(v_a: np.ndarray, v_b: np.ndarray, anchors: int,
                       rng: np.random.Generator, margin: float = 2.0, pos_window: int = 2,
                       neg_multiplier: int = 4) -> float:
    """One clip's triplet margin loss, with the triplets drawn by the rng
    calls, in the order, of the per-clip loss the fused one replaced."""
    t_a, t_b = v_a.shape[0], v_b.shape[0]
    exclusion = 2 * pos_window
    hosts = [a for a in range(t_a) if a - exclusion > 0 or a + exclusion < t_b - 1]
    count = min(anchors, len(hosts))
    anchor_idx = np.sort(rng.choice(hosts, size=count, replace=False))
    terms = []
    for a in anchor_idx:
        offs = [o for o in range(-pos_window, pos_window + 1)
                if o != 0 and 0 <= a + o < t_a]
        d_ap = np.linalg.norm(v_a[a] - v_a[a + offs[rng.integers(len(offs))]])
        valid = np.flatnonzero(np.abs(np.arange(t_b) - a) > exclusion)
        for j in rng.choice(valid, size=neg_multiplier, replace=valid.size < neg_multiplier):
            terms.append(max(0.0, d_ap - np.linalg.norm(v_a[a] - v_b[j]) + margin))
    return float(np.mean(terms))


def reference_tcc_loss(v_a: np.ndarray, v_b: np.ndarray, tau_soft: float = 0.1) -> float:
    """One clip's cycle-back consistency loss from exact pairwise differences."""
    def neg_sq_dists(x, y):
        return -((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1) / tau_soft

    s = neg_sq_dists(v_a, v_b)
    w = np.exp(s - s.max(axis=1, keepdims=True))
    soft_nn = (w / w.sum(axis=1, keepdims=True)) @ v_b
    logits = neg_sq_dists(soft_nn, v_a)
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - np.diag(logits)))


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


def reference_class_map(token_labels, annotations, acton_count: int):
    """(classes, agreement) of the max-agreement acton-to-class map, counted
    frame by frame in a dict and decided acton by acton (lower class on ties,
    background for actons never seen)."""
    counts: dict[int, dict[int, int]] = {}
    for actons, classes in zip(token_labels, annotations):
        for a, c in zip(np.asarray(actons).tolist(), np.asarray(classes).tolist()):
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
    return mapping, agreement


def reference_detect(frame_actons, class_map, window_scales, stride=None,
                     nms_iou: float = 0.5):
    """`apps.detect` window by window and class by class: each window's best
    class is the first with the highest frame fraction, kept when above 0."""
    frame_classes = class_map.classes[np.asarray(frame_actons)]
    t = frame_classes.size
    real_classes = np.unique(class_map.classes[class_map.classes != BACKGROUND_CLASS])
    raw = []
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


def reference_match_frames(len_a: int, speed_a: float, len_b: int,
                           speed_b: float) -> list[tuple[int, int]]:
    """`augment.match_frames` frame by frame, resolving each conflict on an
    i_b as it arises."""
    best: dict[int, tuple[float, int]] = {}  # i_b -> (gap, i_a)
    for i_a in range(len_a):
        u = i_a * speed_a
        i_b = int(np.floor(u / speed_b + 0.5))
        if not 0 <= i_b < len_b:
            continue
        gap = abs(i_b * speed_b - u)
        if gap > 0.5:
            continue
        if i_b not in best or gap < best[i_b][0]:
            best[i_b] = (gap, i_a)
    return sorted((i_a, i_b) for i_b, (_, i_a) in best.items())


def reference_kendalls_tau(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """Kendall's Tau with each frame of A retrieving its nearest frame of B
    by its own exact difference pass."""
    emb_a = np.asarray(emb_a, dtype=np.float64)
    emb_b = np.asarray(emb_b, dtype=np.float64)
    t_a = emb_a.shape[0]
    nearest = np.empty(t_a, dtype=np.int64)
    for i in range(t_a):
        d = ((emb_b - emb_a[i]) ** 2).sum(axis=1)
        nearest[i] = int(d.argmin())
    diff = np.sign(nearest[None, :] - nearest[:, None])
    upper = np.triu_indices(t_a, k=1)
    return float(diff[upper].sum() / (t_a * (t_a - 1) / 2))


def reference_all_point_ap(precision: np.ndarray, recall: np.ndarray) -> float:
    """Area under the precision envelope, the envelope built point by point
    from the last precision back."""
    mprec = np.concatenate([[0.0], precision, [0.0]])
    mrec = np.concatenate([[0.0], recall, [1.0]])
    for i in range(len(mprec) - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(((mrec[idx] - mrec[idx - 1]) * mprec[idx]).sum())


def reference_frame_pairs(correspondences, len_a, len_b):
    """(pair_clip, rows_a, cols_b) of `train.frame_nt_xent`: every clip's
    (i_a, i_b) pairs offset to packed block rows, pair by pair."""
    off_a = np.concatenate([[0], np.cumsum(len_a)[:-1]]).astype(np.int64)
    off_b = np.concatenate([[0], np.cumsum(len_b)[:-1]]).astype(np.int64)
    pairs = [(n, ia, ib) for n, corr in enumerate(correspondences) for ia, ib in corr]
    return (np.array([n for n, _, _ in pairs]),
            np.array([off_a[n] + ia for n, ia, _ in pairs]),
            np.array([off_b[n] + ib for n, _, ib in pairs]))


def grad_check(f, x: ad.Tensor, eps: float = 1e-4) -> float:
    """Max relative disagreement between backward() and central differences.

    Relative error per coordinate: |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    x.grad[...] = 0.0
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
