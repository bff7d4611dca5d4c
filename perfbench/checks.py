"""Output checks for one round of the chain.

Each check recomputes a result independently (a plain-numpy forward pass
written from the checkpoint's tensors, brute-force nearest centroids, the
NMI / Kendall's Tau / n-gram entropy formulas) or tests a property the method
must have. None compares against stored copies of earlier output.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from motiontok import augment, autodiff, data, lexicon, tan, train

from chain import RoundOutputs

FORWARD_TOL = 1e-8
SAMPLE_FRAMES = 6


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- reference forward pass ---------------------------------------------------------


def _layer_norm(x, gamma, beta, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(np.maximum(var, eps)) * gamma + beta


def reference_embed(frames: np.ndarray, params: dict, config: tan.TanConfig) -> np.ndarray:
    """Unit-sphere projections of a (T, 3J) clip, from the raw weight arrays:
    embedding MLP, sine/cosine positions, post-norm encoder layers with all
    heads in one batched product, projection head."""
    lin = lambda x, name: x @ params[name + ".w"] + params[name + ".b"]
    relu = lambda x: np.maximum(x, 0.0)
    t, hidden = frames.shape[0], config.hidden_dim
    heads, dh = config.attention_heads, config.hidden_dim // config.attention_heads
    angles = np.arange(t)[:, None] / 10000.0 ** (np.arange(0, hidden, 2) / hidden)
    pos = np.empty((t, hidden))
    pos[:, 0::2], pos[:, 1::2] = np.sin(angles), np.cos(angles)
    h = lin(relu(lin(frames, "embed.fc1")), "embed.fc2") + pos
    for i in range(config.encoder_layers):
        q, k, v = (lin(h, f"enc{i}.attn.{p}").reshape(t, heads, dh).transpose(1, 0, 2)
                   for p in "qkv")
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        att = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att /= att.sum(axis=-1, keepdims=True)
        ctx = (att @ v).transpose(1, 0, 2).reshape(t, hidden)
        h = _layer_norm(h + lin(ctx, f"enc{i}.attn.o"),
                        params[f"enc{i}.ln1.gamma"], params[f"enc{i}.ln1.beta"])
        ff = lin(relu(lin(h, f"enc{i}.ffn.fc1")), f"enc{i}.ffn.fc2")
        h = _layer_norm(h + ff, params[f"enc{i}.ln2.gamma"], params[f"enc{i}.ln2.beta"])
    z = lin(relu(lin(h, "proj.fc1")), "proj.fc2")
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _reference_frames(frames, params, config, window, rows):
    """Reference features of the given rows, each embedded in its clamped
    window of `window` frames (None: the whole clip in one pass)."""
    t = frames.shape[0]
    if window is None or t <= window:
        return reference_embed(frames, params, config)[rows]
    out = []
    for i in rows:
        start = min(max(i - window // 2, 0), t - window)
        out.append(reference_embed(frames[start:start + window], params, config)[i - start])
    return np.array(out)


def check_forward(weights: tan.TanWeights, sequences, features, window) -> None:
    """Package features of sampled frames equal the reference pass to 1e-8."""
    params = {name: t.values for name, t in weights.tensors.items()}
    for seq, feats in zip(sequences, features):
        rows = np.unique(np.linspace(0, seq.frames - 1, SAMPLE_FRAMES).astype(int))
        ref = _reference_frames(seq.flat(), params, weights.config, window, rows)
        err = np.abs(ref - feats[rows]).max()
        expect(err <= FORWARD_TOL, f"embed_sequence (window={window}) differs from the "
                                   f"reference forward by {err:.3g}")


def check_unit_norm(features: np.ndarray) -> None:
    err = np.abs(np.linalg.norm(features, axis=1) - 1.0).max()
    expect(err <= 1e-12, f"projected rows off the unit sphere by {err:.3g}")


# --- lexicon and token streams ------------------------------------------------------


def _sq_dists(points, centroids, chunk=256):
    return np.concatenate([((points[lo:lo + chunk, None, :] - centroids[None]) ** 2).sum(axis=2)
                           for lo in range(0, len(points), chunk)])


def check_assign(features: np.ndarray, labels: np.ndarray, lex: lexicon.Lexicon) -> None:
    """Every label is a brute-force nearest centroid (exact ties may go either way)."""
    d = _sq_dists(features, lex.centroids)
    best = d.min(axis=1)
    chosen = d[np.arange(len(labels)), labels]
    expect(bool(np.all(chosen <= best + 1e-12 * (1.0 + best))),
           "assign returned a centroid that is not the nearest")


def check_centroids(points: np.ndarray, lex: lexicon.Lexicon, tol: float = 1e-5) -> None:
    """Every centroid sits at the mean of the points nearest to it."""
    labels = _sq_dists(points, lex.centroids).argmin(axis=1)
    for c in range(lex.k):
        members = points[labels == c]
        expect(len(members) > 0, f"centroid {c} of K={lex.k} has no members")
        gap = np.abs(members.mean(axis=0) - lex.centroids[c]).max()
        expect(gap <= tol, f"centroid {c} of K={lex.k} is {gap:.3g} from its members' mean")


def check_tiling(stream: lexicon.TokenStream, labels: np.ndarray, frames: int) -> None:
    pos, prev = 0, None
    for start, end, acton in stream.segments:
        expect(start == pos and end > start, "token segments leave a gap or overlap")
        expect(acton != prev, "adjacent token segments carry the same acton")
        expect(bool(np.all(labels[start:end] == acton)), "segment acton differs from its frames")
        pos, prev = end, acton
    expect(pos == frames, f"token stream covers {pos} of {frames} frames")


# --- metric formulas ----------------------------------------------------------------


def _entropy(counts) -> float:
    p = np.asarray(list(counts), dtype=np.float64)
    p = p[p > 0] / p.sum()
    return float(-(p * np.log2(p)).sum())


def reference_nmi(truth, clusters) -> float:
    """2 I(Y;C) / (H(Y) + H(C)), with I from the joint distribution."""
    joint = Counter(zip(truth.tolist(), clusters.tolist()))
    h_y, h_c = _entropy(Counter(truth.tolist()).values()), _entropy(Counter(clusters.tolist()).values())
    if h_y == 0.0 or h_c == 0.0:
        return 1.0 if h_y == h_c else 0.0
    mutual = h_y + h_c - _entropy(joint.values())
    return 2.0 * mutual / (h_y + h_c)


def block_entropy(token_lists, n: int) -> float:
    """K_N: entropy of the length-n windows inside each stream."""
    counts = Counter(tuple(s[i:i + n]) for s in token_lists for i in range(len(s) - n + 1))
    return _entropy(counts.values()) if counts else 0.0


def reference_tau(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """Kendall's Tau of nearest-neighbour retrieval, from its definition:
    (concordant - discordant) over all T_a (T_a - 1) / 2 frame pairs of A."""
    nearest = [int(((emb_b - row) ** 2).sum(axis=1).argmin()) for row in emb_a]
    t = len(nearest)
    score = 0
    for i in range(t):
        for j in range(i + 1, t):
            score += (nearest[j] > nearest[i]) - (nearest[j] < nearest[i])
    return score / (t * (t - 1) / 2)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_report(out: RoundOutputs, eval_streams, eval_labels) -> None:
    cfg = out.config
    report = out.report
    truth = np.concatenate(out.eval_split.frame_labels)
    nmi = reference_nmi(truth, np.concatenate(eval_labels))
    expect(close(report.nmi, nmi, 1e-9), f"eval NMI {report.nmi} != formula {nmi}")
    tokens = [s.tokens() for s in eval_streams]
    k1, k2 = block_entropy(tokens, 1), block_entropy(tokens, 2)
    expect(close(report.entropy_rows[0][1], k1, 1e-9), f"K_1 {report.entropy_rows[0][1]} != {k1}")
    expect(close(report.f2, k2 - k1, 1e-9), f"F_2 {report.f2} != {k2 - k1}")
    expect(close(report.entropy_rows[1][2], k2 - k1, 1e-9), "entropy table F_2 disagrees")
    # Kendall's Tau over the same view pairs evaluate draws (seeded per pair)
    taus = []
    crop = cfg.tan.sequence_length
    for idx in range(cfg.metrics.tau_pairs):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 53, idx]))
        seq = out.eval_split.sequences[idx % len(out.eval_split.sequences)]
        if seq.frames > crop:
            start = int(rng.integers(0, seq.frames - crop + 1))
            seq = data.SkeletonSequence(data=seq.data[start:start + crop], fps=seq.fps)
        vp = augment.make_view_pair(seq, rng, cfg.augment)
        emb_a = tan.embed_sequence(vp.view_a, out.loaded)
        emb_b = tan.embed_sequence(vp.view_b, out.loaded)
        if idx == 0:
            check_forward(out.loaded, [vp.view_a, vp.view_b], [emb_a, emb_b], None)
        taus.append(reference_tau(emb_a, emb_b))
    tau = float(np.mean(taus))
    expect(close(report.kendalls_tau, tau, 1e-9), f"Kendall's Tau {report.kendalls_tau} != {tau}")


# --- detection and sweep ------------------------------------------------------------


def iou(a, b) -> float:
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    return inter / (max(a[1], b[1]) - min(a[0], b[0]))


def check_detections(out: RoundOutputs) -> None:
    expect(0.0 <= out.detection_map <= 1.0, f"mAP {out.detection_map} outside [0, 1]")
    threshold = out.config.detection.nms_iou
    kept: dict[tuple[int, int], list] = {}
    for sid, d in out.detections:
        frames = out.eval_split.sequences[sid].frames
        expect(0 <= d.start < d.end <= frames,
               f"detection [{d.start}, {d.end}) outside a {frames}-frame sequence")
        kept.setdefault((sid, d.class_id), []).append((d.start, d.end))
    for windows in kept.values():
        for i, a in enumerate(windows):
            for b in windows[i + 1:]:
                expect(iou(a, b) < threshold, f"kept detections {a} and {b} overlap at "
                                              f"IoU >= {threshold}")


def check_sweep(out: RoundOutputs, eval_features: list[np.ndarray]) -> None:
    """Each sweep row's NMI and F_2 follow from that row's own lexicon."""
    lines = [ln for ln in out.sweep_text.splitlines() if not ln.startswith("#")]
    rows = [ln.split("\t") for ln in lines[1:]]
    grid = out.config.metrics.sweep_k
    expect([int(r[0]) for r in rows] == list(grid), f"sweep rows {rows} do not follow grid {grid}")
    sweep_lexicons = [lex for _, lex in out.kmeans_calls[1:]]
    expect(len(sweep_lexicons) == len(grid), "sweep did not build one lexicon per K")
    truth = np.concatenate(out.eval_split.frame_labels)
    for (k, nmi_text, f2_text), lex in zip(rows, sweep_lexicons):
        expect(lex.k == int(k), f"sweep lexicon has K={lex.k}, row says {k}")
        labels = [_sq_dists(f, lex.centroids).argmin(axis=1) for f in eval_features]
        nmi = reference_nmi(truth, np.concatenate(labels))
        tokens = [lexicon.segment(lab).tokens() for lab in labels]
        f2 = block_entropy(tokens, 2) - block_entropy(tokens, 1)
        expect(close(float(nmi_text), nmi, 1e-5), f"sweep K={k}: NMI {nmi_text} != {nmi:.6g}")
        expect(close(float(f2_text), f2, 1e-5), f"sweep K={k}: F_2 {f2_text} != {f2:.6g}")


# --- training ---------------------------------------------------------------------


def fixed_batch_loss(weights: tan.TanWeights, out: RoundOutputs) -> float:
    """Contrastive loss of `weights` on one fixed batch: a crop of each of the
    first batch_size training sequences, augmented into view pairs by a
    generator seeded apart from training. Per-epoch training losses come from
    a fresh random batch each step, so with few steps they need not fall."""
    cfg = out.config
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 97]))
    crop = cfg.train.frames
    pairs = []
    for seq in out.train_split.sequences[:cfg.train.batch_size]:
        start = int(rng.integers(0, seq.frames - crop + 1))
        clip = data.SkeletonSequence(data=seq.data[start:start + crop], fps=seq.fps)
        pairs.append(augment.make_view_pair(clip, rng, cfg.augment))
    with autodiff.no_grad():
        views = [[tan.project(tan.encode(v.flat(), weights), weights).values[0] for v in side]
                 for side in ([p.view_a for p in pairs], [p.view_b for p in pairs])]
        loss = train.frame_nt_xent(views[0], views[1], [p.correspondences for p in pairs],
                                   mode=cfg.train.negative_mode, tau=cfg.train.temperature)
    return float(loss.values)


# --- the whole round ----------------------------------------------------------------


def check_round(out: RoundOutputs, loss_must_fall: bool) -> None:
    """Raise CheckFailed on the first output that is wrong."""
    losses = [h.mean_loss for h in out.history]
    expect(all(math.isfinite(x) for x in losses), f"non-finite training loss in {losses}")
    if loss_must_fall:
        start = tan.init_weights(out.config.tan, out.weights.joints, out.config.train.seed)
        before, after = fixed_batch_loss(start, out), fixed_batch_loss(out.weights, out)
        expect(after < before, f"training did not lower the loss on a fixed batch: "
                               f"{before:.4f} -> {after:.4f}")

    saved, loaded = out.weights.tensors, out.loaded.tensors
    expect(list(saved) == list(loaded), "checkpoint changed the tensor names")
    for name in saved:
        expect(saved[name].values.tobytes() == loaded[name].values.tobytes(),
               f"checkpoint tensor {name} did not load bit-for-bit")
    expect(tan.weights_digest(out.weights) == tan.checkpoint_digest(out.ckpt_path),
           "weights_digest differs from checkpoint_digest")

    lex = out.lexicon
    window = lex.metadata["context_window"]
    points, first = out.kmeans_calls[0]
    expect(first is lex, "the first k-means call was not the lexicon build")
    n_train = len(out.train_split.sequences)
    offsets = np.cumsum([0] + [s.frames for s in out.train_split.sequences])
    train_features = [points[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    eval_features = [lexicon.embed_sequence(s, out.loaded, window=window)
                     for s in out.eval_split.sequences]
    features = train_features + eval_features
    for f in features:
        check_unit_norm(f)
    check_forward(out.loaded, out.corpus.sequences[n_train - 1:n_train + 1],
                  features[n_train - 1:n_train + 1], window)
    for train_points, built in out.kmeans_calls:
        check_centroids(train_points, built)

    for seq, f, stream, labels in zip(out.corpus.sequences, features, out.streams,
                                      out.frame_actons):
        check_assign(f, labels, lex)
        check_tiling(stream, labels, seq.frames)

    check_report(out, out.streams[n_train:], out.frame_actons[n_train:])
    check_detections(out)
    composed = out.composed
    expect(len(composed.words) == out.config.composition.words, "compose word count is wrong")
    check_sweep(out, eval_features)


def fingerprint(out: RoundOutputs) -> dict:
    """Compact copy of a round's outputs, kept to compare later rounds with."""
    return {
        "training losses": [h.mean_loss for h in out.history],
        "lexicon": out.lexicon.centroids.tobytes(),
        "token streams": [lab.tobytes() for lab in out.frame_actons],
        "eval report": out.report.to_json(),
        "detections": out.detections,
        "composed motion": out.composed.sequence.data.tobytes(),
        "sweep table": out.sweep_text,
    }


def check_repeat(first: dict, again: RoundOutputs) -> None:
    """A later round of the same inputs reproduces the first bit for bit
    (threads=1 is deterministic), so the first round's checks cover it."""
    for name, value in fingerprint(again).items():
        expect(value == first[name], f"{name} changed between rounds")
