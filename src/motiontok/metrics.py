"""Evaluation metrics: retrieval-based Kendall's Tau for temporal alignment,
NMI for clustering quality, empirical n-gram entropies of token streams, and
detection mAP, plus the report that `eval` writes.

All entropies are in bits.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lexicon import TokenStream, nearest


def kendalls_tau(emb_a: np.ndarray, emb_b: np.ndarray) -> float:
    """Alignment concordance between two frame-embedding sequences.

    Every frame of A retrieves its L2-nearest frame in B by `lexicon.nearest`
    (ties to the lowest index). Over all frame pairs i < j of A, concordant
    retrievals (p < q) count +1 and discordant (p > q) -1; pairs with p == q
    stay in the denominator T_a(T_a-1)/2 but add nothing.
    """
    emb_a = np.asarray(emb_a, dtype=np.float64)
    emb_b = np.asarray(emb_b, dtype=np.float64)
    t_a = emb_a.shape[0]
    if t_a < 2 or emb_b.shape[0] < 1:
        raise ValueError("kendalls_tau needs T_a >= 2 and T_b >= 1")
    retrieved, _ = nearest(emb_a, (emb_a * emb_a).sum(axis=1), emb_b)
    diff = np.sign(retrieved[None, :] - retrieved[:, None])
    return float(diff[np.triu_indices(t_a, k=1)].sum() / (t_a * (t_a - 1) / 2))


def _entropy_bits(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def nmi(truth, clusters) -> float:
    """Normalized mutual information 2*(H(Y) - H(Y|C)) / (H(Y) + H(C)) in [0, 1].

    Degenerate marginals: 1 when both labelings are constant, 0 when exactly
    one is.
    """
    truth = np.asarray(truth)
    clusters = np.asarray(clusters)
    if truth.shape != clusters.shape or truth.ndim != 1 or truth.size < 1:
        raise ValueError("labelings must be equal-length non-empty 1-d sequences")
    _, y = np.unique(truth, return_inverse=True)
    _, c = np.unique(clusters, return_inverse=True)
    ny, nc = y.max() + 1, c.max() + 1
    joint = np.zeros((ny, nc))
    np.add.at(joint, (y, c), 1.0)
    h_y = _entropy_bits(joint.sum(axis=1))
    h_c = _entropy_bits(joint.sum(axis=0))
    if h_y == 0.0 and h_c == 0.0:
        return 1.0
    if h_y == 0.0 or h_c == 0.0:
        return 0.0
    # H(Y|C) = sum_c p(c) H(Y|C=c)
    col = joint.sum(axis=0)
    h_y_given_c = 0.0
    for j in range(nc):
        if col[j] > 0:
            h_y_given_c += col[j] / joint.sum() * _entropy_bits(joint[:, j])
    return float(2.0 * (h_y - h_y_given_c) / (h_y + h_c))


def _as_symbol_streams(streams) -> list[list[int]]:
    out = []
    for s in streams:
        if isinstance(s, TokenStream):
            out.append(s.tokens())
        else:
            out.append([int(x) for x in s])
    return out


def _block_entropy(streams: list[list[int]], n: int) -> float:
    counts = Counter()
    for s in streams:
        for i in range(len(s) - n + 1):
            counts[tuple(s[i:i + n])] += 1
    if not counts:
        return 0.0
    return _entropy_bits(np.array(list(counts.values()), dtype=np.float64))


def ngram_entropy(streams, n: int) -> tuple[float, float]:
    """Empirical block entropy K_N and conditional entropy F_N = K_N - K_{N-1}.

    Windows are counted within each stream and never cross stream boundaries,
    so at least one stream must hold n tokens; K_0 is defined as 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = entropy_table(streams, n)
    if len(rows) < n:  # the table stops at the longest stream
        raise ValueError(f"need a stream of at least {n} tokens, the longest has {len(rows)}")
    _, k_n, f_n = rows[-1]
    return k_n, f_n


def entropy_table(streams, n_max: int) -> list[tuple[int, float, float]]:
    """(N, K_N, F_N) rows for N = 1..n_max on empirical streams, stopping at
    the longest stream: a row needs one stream of N tokens."""
    symbol_streams = _as_symbol_streams(streams)
    longest = max((len(s) for s in symbol_streams), default=0)
    rows = []
    k_prev = 0.0
    for n in range(1, min(n_max, longest) + 1):
        k_n = _block_entropy(symbol_streams, n)
        rows.append((n, k_n, k_n - k_prev))
        k_prev = k_n
    return rows


# --- action detection scoring -----------------------------------------------------

def temporal_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    inter = max(0.0, min(a[1], b[1]) - max(a[0], b[0]))
    union = max(a[1], b[1]) - min(a[0], b[0])
    return inter / union if union > 0 else 0.0


def detection_map(detections, truth, theta: float = 0.3) -> float:
    """Mean average precision over the classes present in truth.

    detections: (class, start, end, confidence) rows; truth: (class, start,
    end) rows. Matching is greedy by descending confidence against the
    unmatched truth interval of best IoU >= theta; AP integrates the
    all-point-interpolated precision envelope.
    """
    for _, start, end, *rest in list(detections) + [(c, s, e, None) for c, s, e in truth]:
        if not start < end:
            raise ValueError(f"invalid interval [{start}, {end})")
    classes = sorted({c for c, _, _ in truth})
    if not classes:
        return 0.0
    aps = []
    for cls in classes:
        gt = [(s, e) for c, s, e in truth if c == cls]
        dets = sorted(((float(conf), float(s), float(e))
                       for c, s, e, conf in detections if c == cls),
                      key=lambda r: (-r[0], r[1], r[2]))
        matched = [False] * len(gt)
        tp = np.zeros(len(dets))
        for d, (conf, s, e) in enumerate(dets):
            best_iou, best_g = 0.0, -1
            for g, interval in enumerate(gt):
                if matched[g]:
                    continue
                iou = temporal_iou((s, e), interval)
                if iou > best_iou:
                    best_iou, best_g = iou, g
            if best_g >= 0 and best_iou >= theta:
                matched[best_g] = True
                tp[d] = 1.0
        if len(dets) == 0:
            aps.append(0.0)
            continue
        cum_tp = np.cumsum(tp)
        precision = cum_tp / (np.arange(len(dets)) + 1)
        recall = cum_tp / len(gt)
        aps.append(_all_point_ap(precision, recall))
    return float(np.mean(aps))


def _all_point_ap(precision: np.ndarray, recall: np.ndarray) -> float:
    """Area under the step-wise precision envelope (all-point interpolation)."""
    mprec = np.concatenate([[0.0], precision, [0.0]])
    mrec = np.concatenate([[0.0], recall, [1.0]])
    for i in range(len(mprec) - 2, -1, -1):
        mprec[i] = max(mprec[i], mprec[i + 1])
    idx = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(((mrec[idx] - mrec[idx - 1]) * mprec[idx]).sum())


# --- report container --------------------------------------------------------------

@dataclass
class MetricsReport:
    kendalls_tau: float | None = None
    nmi: float | None = None
    f2: float | None = None
    entropy_rows: list[tuple[int, float, float]] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kendalls_tau is not None and not -1.0 <= self.kendalls_tau <= 1.0 + 1e-12:
            raise ValueError(f"kendalls_tau out of range: {self.kendalls_tau}")
        if self.nmi is not None and not -1e-12 <= self.nmi <= 1.0 + 1e-12:
            raise ValueError(f"nmi out of range: {self.nmi}")

    def to_flat_text(self) -> str:
        lines = [f"# {k}={v}" for k, v in sorted(self.provenance.items())]
        for name in ("kendalls_tau", "nmi", "f2"):
            value = getattr(self, name)
            if value is not None:
                lines.append(f"{name}={value:.10g}")
        for n, k_n, f_n in self.entropy_rows:
            lines.append(f"K_{n}={k_n:.10g}")
            lines.append(f"F_{n}={f_n:.10g}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "kendalls_tau": self.kendalls_tau,
            "nmi": self.nmi,
            "f2": self.f2,
            "entropy_table": [list(r) for r in self.entropy_rows],
            "provenance": self.provenance,
        }, sort_keys=True)

    def save(self, directory: str | Path, stem: str = "metrics") -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{stem}.txt").write_text(self.to_flat_text())
        (directory / f"{stem}.json").write_text(self.to_json())
