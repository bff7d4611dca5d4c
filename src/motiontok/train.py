"""Frame-wise contrastive training and the two baseline sequence losses.

The contrastive loss treats each frame-in-context as an instance. Positives
are corresponding frames across the two augmented views of one clip;
negatives come from the opposite view, either all other frames in the batch
or only frames from other clips.
"""
from __future__ import annotations

import functools
import gc
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import AugmentRanges, make_view_pair
from .data import LabeledCorpus, SkeletonSequence
from .tan import TanConfig, TanWeights, encode, init_weights, project

ALL_FRAMES = "all_frames"
EXCLUDE_SAME_CLIP = "exclude_same_clip"

# Fixed training settings: the paper's recipe, and the TCN baseline's anchor
# count per clip. The TCN and TCC losses run at their own defaults.
WEIGHT_DECAY = 1e-6
GRAD_CLIP_NORM = 0.5
TCN_ANCHORS = 16


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    frames: int = 64
    peak_lr: float = 2.5e-5
    epochs: int = 500
    warmup_epochs: int = 50
    temperature: float = 0.1
    negative_mode: str = EXCLUDE_SAME_CLIP
    seed: int = 0

    def __post_init__(self):
        if min(self.batch_size, self.frames) < 1 or self.epochs < 0:
            raise ValueError("batch_size, frames must be >= 1 and epochs >= 0")
        if not (self.peak_lr > 0 and self.temperature > 0):
            raise ValueError("peak_lr, temperature must be positive")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs cannot exceed epochs")
        if self.negative_mode not in (ALL_FRAMES, EXCLUDE_SAME_CLIP):
            raise ValueError(f"unknown negative_mode {self.negative_mode!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"train seed must be an integer >= 0, got {self.seed!r}")


def _denominator_mask(positive_cols: np.ndarray, anchor_clip: np.ndarray,
                      col_clip: np.ndarray, mode: str) -> np.ndarray:
    """(P, M) entries of the opposite view in each anchor's softmax
    denominator: its positive plus the mode's negative columns."""
    p, m = positive_cols.shape[0], col_clip.shape[0]
    if mode == ALL_FRAMES:
        denom_mask = np.ones((p, m), dtype=bool)
        negatives = denom_mask.copy()
        negatives[np.arange(p), positive_cols] = False
    else:
        negatives = anchor_clip[:, None] != col_clip[None, :]
        denom_mask = negatives.copy()
        denom_mask[np.arange(p), positive_cols] = True
    if not negatives.any(axis=1).all():
        raise ValueError(
            "empty negative set for a reference frame; exclude_same_clip needs "
            "batch_size >= 2 clips"
        )
    return denom_mask


def frame_nt_xent(v_a, v_b, correspondences: list[list[tuple[int, int]]],
                  mode: str = EXCLUDE_SAME_CLIP, tau: float = 0.1) -> Tensor:
    """Symmetrized frame-wise contrastive loss over a batch of view pairs.

    v_a, v_b: sequences of per-clip projected frame tensors, view lengths may
    differ across clips. correspondences[n] lists the (i_a, i_b) positive
    pairs of clip n. Frames without a correspondence contribute no positive
    term but still serve as negatives. The total is the mean over 2 * (positive pair count).
    """
    views_a, views_b = list(v_a), list(v_b)
    if len(views_a) != len(views_b) or len(views_a) != len(correspondences):
        raise ValueError("views and correspondences must agree in clip count")
    if not tau > 0:
        raise ValueError("temperature must be positive")
    len_a = [v.shape[0] for v in views_a]
    len_b = [v.shape[0] for v in views_b]
    off_a = np.concatenate([[0], np.cumsum(len_a)[:-1]]).astype(np.int64)
    off_b = np.concatenate([[0], np.cumsum(len_b)[:-1]]).astype(np.int64)
    clip_of_a = np.repeat(np.arange(len(views_a)), len_a)
    clip_of_b = np.repeat(np.arange(len(views_b)), len_b)

    pairs = [(n, ia, ib) for n, corr in enumerate(correspondences) for ia, ib in corr]
    if not pairs:
        raise ValueError("no corresponding frames in batch")
    pair_clip = np.array([n for n, _, _ in pairs])
    rows_a = np.array([off_a[n] + ia for n, ia, _ in pairs])
    cols_b = np.array([off_b[n] + ib for n, _, ib in pairs])

    big_a = ad.concat(views_a, axis=0)
    big_b = ad.concat(views_b, axis=0)
    sim_ab = ad.scalar_mul(ad.matmul(big_a, ad.transpose(big_b)), 1.0 / tau)
    return ad.nt_xent(sim_ab, rows_a, cols_b,
                      _denominator_mask(cols_b, pair_clip, clip_of_b, mode),
                      _denominator_mask(rows_a, pair_clip, clip_of_a, mode))


def lr_at(step: int, config: TrainConfig, steps_per_epoch: int = 1) -> float:
    """Linear warmup to peak_lr, then cosine annealing to 0 at the final step."""
    total = config.epochs * steps_per_epoch
    warmup = config.warmup_epochs * steps_per_epoch
    if step < warmup:
        return config.peak_lr * step / warmup
    span = max(1, total - 1 - warmup)
    progress = min(1.0, (step - warmup) / span)
    return config.peak_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


# --- optimizer -----------------------------------------------------------------

@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def clip_gradients(weights: TanWeights, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in weights.parameters()))
    if total > max_norm:
        scale = max_norm / total
        for p in weights.parameters():
            p.grad *= scale
    return total


def adam_step(weights: TanWeights, state: AdamState, lr: float,
              weight_decay: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    state.t += 1
    t = state.t
    for name, p in weights.tensors.items():
        g = p.grad
        m = state.m.setdefault(name, np.zeros_like(p.values))
        v = state.v.setdefault(name, np.zeros_like(p.values))
        m += (1.0 - beta1) * (g - m)
        v += (1.0 - beta2) * (g * g - v)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.values -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.values)


# --- baseline losses -------------------------------------------------------------

def tcn_loss(v_a: Tensor, v_b: Tensor, anchors: int, rng: np.random.Generator,
             margin: float = 2.0, pos_window: int = 2,
             neg_multiplier: int = 4) -> Tensor:
    """Triplet margin loss: anchors and positives from view A, negatives from
    view B outside an exclusion interval of twice the positive window."""
    t_a, t_b = v_a.shape[0], v_b.shape[0]
    if t_a < 2:
        raise ValueError("tcn_loss needs at least 2 frames in the anchor view")
    exclusion = 2 * pos_window
    # anchors must leave at least one negative outside the exclusion interval
    hosts = [a for a in range(t_a) if a - exclusion > 0 or a + exclusion < t_b - 1]
    if not hosts:
        raise ValueError(
            f"views of {t_a}/{t_b} frames cannot host a +-{exclusion}-frame "
            f"exclusion interval"
        )
    count = min(anchors, len(hosts))
    anchor_idx = np.sort(rng.choice(hosts, size=count, replace=False))
    pos_idx, neg_idx, anc_rep = [], [], []
    for a in anchor_idx:
        offs = [o for o in range(-pos_window, pos_window + 1)
                if o != 0 and 0 <= a + o < t_a]
        pos_idx.append(a + offs[rng.integers(len(offs))])
        valid = np.flatnonzero(np.abs(np.arange(t_b) - a) > exclusion)
        chosen = rng.choice(valid, size=neg_multiplier, replace=valid.size < neg_multiplier)
        neg_idx.extend(int(j) for j in chosen)
        anc_rep.extend([int(a)] * neg_multiplier)
    anc_per_pos = np.asarray(anchor_idx)
    pos_per_anchor = np.asarray(pos_idx)

    def dist(x: Tensor, rows_x, y: Tensor, rows_y) -> Tensor:
        diff = ad.sub(ad.take_rows(x, rows_x), ad.take_rows(y, rows_y))
        return ad.sqrt(ad.tensor_sum(ad.mul(diff, diff), axis=1))

    d_ap = dist(v_a, anc_per_pos, v_a, pos_per_anchor)
    d_ap_rep = ad.take_rows(d_ap, np.repeat(np.arange(count), neg_multiplier))
    d_an = dist(v_a, np.asarray(anc_rep), v_b, np.asarray(neg_idx))
    terms = ad.relu(ad.scalar_add(ad.sub(d_ap_rep, d_an), margin))
    return ad.mean(terms)


def _pairwise_sq_dists(x: Tensor, y: Tensor) -> Tensor:
    """(Tx, Ty) matrix of squared Euclidean distances between row sets."""
    nx = ad.dot_last(x, x)
    ny = ad.dot_last(y, y)
    cross = ad.scalar_mul(ad.matmul(x, ad.transpose(y)), -2.0)
    with_ny = ad.add_bias(cross, ny)
    return ad.transpose(ad.add_bias(ad.transpose(with_ny), nx))


def tcc_loss(v_a: Tensor, v_b: Tensor, tau_soft: float = 0.1) -> Tensor:
    """Cycle-back consistency between two views: soft nearest neighbor in B,
    then cross-entropy that its nearest frame in A is the starting frame."""
    d_ab = _pairwise_sq_dists(v_a, v_b)
    weights = ad.softmax(ad.scalar_mul(d_ab, -1.0 / tau_soft), axis=-1)
    soft_nn = ad.matmul(weights, v_b)
    logits = ad.scalar_mul(_pairwise_sq_dists(soft_nn, v_a), -1.0 / tau_soft)
    t_a = v_a.shape[0]
    eye = np.eye(t_a)
    lse = ad.masked_logsumexp(logits, np.ones((t_a, t_a), dtype=bool), axis=1)
    pos = ad.tensor_sum(ad.mul(logits, Tensor(eye)), axis=1)
    return ad.mean(ad.sub(lse, pos))


# --- training loop ---------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    lr: float
    mean_grad_norm: float
    max_grad_norm: float


def _crop(seq: SkeletonSequence, frames: int, rng: np.random.Generator) -> SkeletonSequence:
    start = int(rng.integers(0, seq.frames - frames + 1))
    return SkeletonSequence(data=seq.data[start:start + frames], fps=seq.fps)


def _training_run(fn):
    """fn with Python's cyclic garbage collector paused while it runs, and
    the free heap returned to the system when it ends.

    A step's graph holds no reference cycles, so reference counting frees it
    whole, and the automatic collections its many small objects trigger only
    scan the heap. In the desk benchmark a full collection took about 60 ms
    and fell inside about one 0.8 s training run in four. The heap keeps the
    pages steps free for the next step (`ad._keep_heap_mapped`); once the run
    is over they go back, so they do not add to the peak of later stages.
    """
    @functools.wraps(fn)
    def run(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
            ad.release_free_heap()

    return run


@_training_run
def train_tan(corpus: LabeledCorpus, tan_config: TanConfig, train_config: TrainConfig,
              *, loss_kind: str = "tan", ranges: AugmentRanges | None = None,
              ) -> tuple[TanWeights, list[EpochStats]]:
    """Train the encoder+projection on random crops of the corpus.

    loss_kind selects the objective: "tan" (frame-wise contrastive), "tcn"
    (triplet baseline), or "tcc" (cycle-back baseline). Deterministic for a
    fixed seed under single-threaded execution.
    """
    if loss_kind not in ("tan", "tcn", "tcc"):
        raise ValueError(f"unknown loss_kind {loss_kind!r}")
    if ranges is None:
        ranges = AugmentRanges()
    t_crop = train_config.frames
    usable = [s for s in corpus.sequences if s.frames >= t_crop]
    skipped = len(corpus.sequences) - len(usable)
    if skipped:
        warnings.warn(f"skipping {skipped} sequences shorter than {t_crop} frames")
    if not usable:
        raise ValueError("no sequence long enough to crop; reduce frames")

    steps_per_epoch = max(1, int(np.ceil(len(usable) / train_config.batch_size)))
    smallest_batch = len(usable) // steps_per_epoch  # np.array_split's shortest part
    if (loss_kind == "tan" and train_config.negative_mode == EXCLUDE_SAME_CLIP
            and smallest_batch < 2):
        raise ValueError(
            f"{len(usable)} usable sequences at batch_size {train_config.batch_size} make a "
            f"batch of {smallest_batch} clip; exclude_same_clip needs >= 2 clips per batch")
    weights = init_weights(tan_config, usable[0].joints, train_config.seed)
    state = AdamState()
    history: list[EpochStats] = []
    global_step = 0
    for epoch in range(train_config.epochs):
        order_rng = np.random.default_rng(
            np.random.SeedSequence([train_config.seed, 23, epoch]))
        perm = order_rng.permutation(len(usable))
        batches = np.array_split(perm, steps_per_epoch)
        losses, gnorms = [], []
        lr = 0.0
        for step_in_epoch, batch in enumerate(batches):
            rng = np.random.default_rng(
                np.random.SeedSequence([train_config.seed, 31, epoch, step_in_epoch]))
            pairs = [make_view_pair(_crop(usable[i], t_crop, rng), rng, ranges)
                     for i in batch]
            # one packed forward: all A views, then all B views, as rows of one matrix
            views = [p.view_a.flat() for p in pairs] + [p.view_b.flat() for p in pairs]
            offsets = np.cumsum([0] + [len(v) for v in views])
            z = project(encode(np.concatenate(views), weights, offsets), weights)
            clips = [ad.slice_tensor(z, (slice(lo, hi),))
                     for lo, hi in zip(offsets[:-1], offsets[1:])]
            va, vb = clips[:len(pairs)], clips[len(pairs):]
            if loss_kind == "tan":
                loss = frame_nt_xent(va, vb, [p.correspondences for p in pairs],
                                     mode=train_config.negative_mode,
                                     tau=train_config.temperature)
            elif loss_kind == "tcn":
                items = [tcn_loss(a, b, TCN_ANCHORS, rng) for a, b in zip(va, vb)]
                loss = ad.mean(ad.concat([ad.reshape(x, (1,)) for x in items], axis=0))
            else:
                items = [tcc_loss(a, b) for a, b in zip(va, vb)]
                loss = ad.mean(ad.concat([ad.reshape(x, (1,)) for x in items], axis=0))

            lr = lr_at(global_step, train_config, steps_per_epoch)
            weights.zero_grad()
            ad.backward(loss)
            gnorm = clip_gradients(weights, GRAD_CLIP_NORM)
            if not (np.isfinite(loss.values) and np.isfinite(gnorm)):
                raise RuntimeError(
                    f"non-finite loss at step {global_step} (lr={lr:.3e}, "
                    f"grad_norm={gnorm:.3e})"
                )
            adam_step(weights, state, lr, WEIGHT_DECAY)
            if not weights.all_finite():
                raise RuntimeError(f"non-finite weights after step {global_step}")
            losses.append(float(loss.values))
            gnorms.append(gnorm)
            global_step += 1
            # drop this step's graph before the next step builds its own
            loss = z = clips = va = vb = items = None
        history.append(EpochStats(
            epoch=epoch, mean_loss=float(np.mean(losses)), lr=lr,
            mean_grad_norm=float(np.mean(gnorms)), max_grad_norm=float(np.max(gnorms)),
        ))
    return weights, history


def write_history(history: list[EpochStats], path) -> None:
    """Per-epoch metrics as tab-separated text for plotting."""
    with open(path, "w") as fh:
        fh.write("epoch\tmean_loss\tlr\tmean_grad_norm\tmax_grad_norm\n")
        for row in history:
            fh.write(f"{row.epoch}\t{row.mean_loss:.10g}\t{row.lr:.10g}\t"
                     f"{row.mean_grad_norm:.10g}\t{row.max_grad_norm:.10g}\n")
