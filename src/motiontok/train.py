"""Frame-wise contrastive training and the two baseline sequence losses.

The contrastive loss treats each frame-in-context as an instance. Positives
are corresponding frames across the two augmented views of one clip;
negatives come from the opposite view, either all other frames in the batch
or only frames from other clips.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .augment import AugmentRanges, _round_half_up, make_view_pair
from .data import LabeledCorpus, SkeletonSequence
from .tan import TanConfig, TanWeights, _bind, encode, init_weights, project

ALL_FRAMES = "all_frames"
EXCLUDE_SAME_CLIP = "exclude_same_clip"

# Fixed training settings: the paper's recipe, Adam's moment decays and
# denominator guard, and the TCN baseline's anchor count per clip and positive
# window. The losses run at their own defaults.
WEIGHT_DECAY = 1e-6
GRAD_CLIP_NORM = 0.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
TCN_ANCHORS = 16
TCN_POS_WINDOW = 2


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
        for name, least in (("batch_size", 1), ("frames", 1), ("epochs", 0), ("warmup_epochs", 0),
                            ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"train {name} must be an integer >= {least}, got {value!r}")
        if not (self.peak_lr > 0 and self.temperature > 0):
            raise ValueError("peak_lr, temperature must be positive")
        if self.warmup_epochs > self.epochs:
            raise ValueError("warmup_epochs cannot exceed epochs")
        if self.negative_mode not in (ALL_FRAMES, EXCLUDE_SAME_CLIP):
            raise ValueError(f"unknown negative_mode {self.negative_mode!r}")


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


def _view_lengths(v_a, v_b, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Per-clip view lengths of the blocks v_a, v_b, checked against their rows."""
    len_a, len_b = (np.asarray(n, dtype=np.int64) for n in lengths)
    if (len_a.shape != len_b.shape or len_a.ndim != 1 or len_a.sum() != v_a.shape[0]
            or len_b.sum() != v_b.shape[0]):
        raise ValueError("clip lengths must sum to the row counts of v_a and v_b, "
                         "one pair per clip")
    return len_a, len_b


def frame_nt_xent(v_a, v_b, correspondences: list[list[tuple[int, int]]],
                  mode: str = EXCLUDE_SAME_CLIP, tau: float = 0.1,
                  lengths: tuple | None = None) -> Tensor:
    """Symmetrized frame-wise contrastive loss over a batch of view pairs.

    v_a, v_b: the clips' A and B views, as sequences of per-clip projected
    frame tensors (view lengths may differ across clips), or, with
    lengths=(lengths_a, lengths_b), as two (N, F) blocks that hold each
    side's clips as consecutive rows, clip n being lengths_a[n] rows of v_a
    and lengths_b[n] rows of v_b. correspondences[n] lists the (i_a, i_b)
    positive pairs of clip n. Frames without a correspondence contribute no
    positive term but still serve as negatives. The total is the mean over
    2 * (positive pair count).
    """
    if lengths is None:
        views_a, views_b = list(v_a), list(v_b)
        len_a = [v.shape[0] for v in views_a]
        len_b = [v.shape[0] for v in views_b]
        big_a, big_b = ad.concat(views_a, axis=0), ad.concat(views_b, axis=0)
    else:
        big_a, big_b = ad.as_tensor(v_a), ad.as_tensor(v_b)
        len_a, len_b = _view_lengths(big_a, big_b, lengths)
    if len(len_a) != len(len_b) or len(len_a) != len(correspondences):
        raise ValueError("views and correspondences must agree in clip count")
    off_a, off_b = np.cumsum(len_a) - len_a, np.cumsum(len_b) - len_b
    clip_of_a = np.repeat(np.arange(len(len_a)), len_a)
    clip_of_b = np.repeat(np.arange(len(len_b)), len_b)

    corr = [np.asarray(c, dtype=np.int64).reshape(-1, 2) for c in correspondences]
    pair_clip = np.repeat(np.arange(len(corr)), [c.shape[0] for c in corr])
    if not pair_clip.size:
        raise ValueError("no corresponding frames in batch")
    pairs = np.concatenate(corr)
    rows_a, cols_b = off_a[pair_clip] + pairs[:, 0], off_b[pair_clip] + pairs[:, 1]

    return ad.nt_xent(big_a, big_b, 1.0 / tau, rows_a, cols_b,
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

# Elements per block of the optimizer pass. Its block arrays (master values,
# compute values and gradients, both moments, two float64 scratch arrays) then
# take at most 1.5 MiB and stay in cache from one ufunc to the next. At the
# paper encoder's size (6.9M parameters, one core of a 2-CPU Xeon with 4 MiB
# L2), clip_gradients + adam_step took 84/81/75/85/93/113 ms at blocks of
# 8k/16k/32k/64k/128k/256k elements and 156 ms as one block (medians of 45
# steps, float64 gradients, two scratch arrays).
_BLOCK = 1 << 15


@dataclass
class AdamState:
    """Step count and Adam's two float64 moments, flat in the layout of
    TanWeights.values; the first step allocates the moments."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def clip_gradients(weights: TanWeights, max_norm: float) -> tuple[float, float]:
    """The global L2 norm of all gradients, and the factor that scales it
    down to max_norm (1.0 if it is within). The norm is one pass over
    _BLOCK-element blocks of the flat gradient buffer, each block upcast into
    float64 scratch and its squares summed there, so the factor comes from a
    float64 sum whatever the gradients' dtype. adam_step applies the factor,
    so the gradients are left as they are."""
    grads = weights.grads
    scratch = np.empty(min(_BLOCK, grads.size))
    total = 0.0
    for lo in range(0, grads.size, _BLOCK):
        g = scratch[:min(_BLOCK, grads.size - lo)]
        np.copyto(g, grads[lo:lo + _BLOCK])
        total += float(np.dot(g, g))
    total = math.sqrt(total)
    return total, (max_norm / total if total > max_norm else 1.0)


def adam_step(master: TanWeights, compute: TanWeights, state: AdamState, lr: float,
              weight_decay: float, grad_scale: float) -> None:
    """One Adam step of the float64 master weights on compute's gradients
    times grad_scale, as one pass over _BLOCK-element blocks of the flat
    buffers. Each block's gradients are upcast into float64 scratch and
    scaled, its moments and master values stepped in place in float64 (the
    operations and their order are those of the per-tensor update
    m += (1 - b1) (g - m), v += (1 - b2) (g^2 - v),
    p -= lr (m_hat / (sqrt(v_hat) + eps) + wd p)), its new values checked and
    written into compute's values in their dtype, and compute's gradients
    zeroed for the next backward. compute may be master itself. Raises
    RuntimeError after the pass if a new value is not finite, naming the step
    from 0 as train_tan counts them."""
    if state.m is None:
        state.m, state.v = np.zeros(master.values.shape), np.zeros(master.values.shape)
    state.t += 1
    c1, c2 = 1.0 - ADAM_BETA1, 1.0 - ADAM_BETA2
    bc1, bc2 = 1.0 - ADAM_BETA1 ** state.t, 1.0 - ADAM_BETA2 ** state.t
    scratch = np.empty((2, _BLOCK))
    finite = True
    for lo in range(0, master.values.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p, m, v = master.values[block], state.m[block], state.v[block]
        a, g = scratch[0, :p.size], scratch[1, :p.size]
        np.multiply(compute.grads[block], grad_scale, out=g, dtype=np.float64)
        np.subtract(g, m, out=a)
        a *= c1
        m += a
        np.multiply(g, g, out=a)
        a -= v
        a *= c2
        v += a
        np.divide(m, bc1, out=a)
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        a /= g
        np.multiply(p, weight_decay, out=g)
        a += g
        a *= lr
        p -= a
        finite &= bool(np.isfinite(p).all())
        np.copyto(compute.values[block], p)
        compute.grads[block].fill(0.0)
    if not finite:
        raise RuntimeError(f"non-finite weights after step {state.t - 1}")


# --- baseline losses -------------------------------------------------------------

def _tcn_triplets(t_a: int, t_b: int, anchors: int, rng: np.random.Generator,
                  pos_window: int, neg_multiplier: int):
    """One clip's (anchor, positive, negatives) frame indices: anchors and
    positives in view A, negatives in view B outside an exclusion interval of
    twice the positive window."""
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
    anchor_idx = np.sort(rng.choice(hosts, size=min(anchors, len(hosts)), replace=False))
    pos_idx, neg_idx = [], []
    for a in anchor_idx:
        offs = [o for o in range(-pos_window, pos_window + 1)
                if o != 0 and 0 <= a + o < t_a]
        pos_idx.append(a + offs[rng.integers(len(offs))])
        valid = np.flatnonzero(np.abs(np.arange(t_b) - a) > exclusion)
        neg_idx.append(rng.choice(valid, size=neg_multiplier, replace=valid.size < neg_multiplier))
    return anchor_idx, np.asarray(pos_idx), np.asarray(neg_idx)


def tcn_loss(v_a, v_b, lengths, anchors: int, rng: np.random.Generator,
             margin: float = 2.0, pos_window: int = TCN_POS_WINDOW,
             neg_multiplier: int = 4) -> Tensor:
    """Triplet margin loss of the TCN baseline over the clips of two (N, F)
    view blocks, as one node: clip n is lengths[0][n] rows of v_a and
    lengths[1][n] rows of v_b. Each clip draws up to `anchors` anchors and
    their positives from its A view and `neg_multiplier` negatives per anchor
    from its B view (rng calls clip by clip); the value is the mean over clips
    of each clip's mean hinge."""
    len_a, len_b = _view_lengths(v_a, v_b, lengths)
    off_a, off_b = np.cumsum(len_a) - len_a, np.cumsum(len_b) - len_b
    anc, pos, neg, clip = [], [], [], []
    for n, (t_a, t_b) in enumerate(zip(len_a, len_b)):
        a, p, ng = _tcn_triplets(int(t_a), int(t_b), anchors, rng, pos_window, neg_multiplier)
        anc.append(off_a[n] + a)
        pos.append(off_a[n] + p)
        neg.append(off_b[n] + ng)
        clip.append(np.full(a.size, n))
    return ad.triplet_margin(v_a, v_b, np.concatenate(anc), np.concatenate(pos),
                             np.concatenate(neg), np.concatenate(clip), margin)


def tcc_loss(v_a, v_b, lengths, tau_soft: float = 0.1) -> Tensor:
    """Cycle-back consistency loss of the TCC baseline over the clips of two
    (N, F) view blocks, as one node (clip n is lengths[0][n] rows of v_a and
    lengths[1][n] rows of v_b): soft nearest neighbour in B, then the
    cross-entropy that its nearest frame in A is the starting frame, averaged
    over each clip's A frames and then over clips."""
    return ad.cycle_back(v_a, v_b, *lengths, tau_soft)


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


def train_tan(corpus: LabeledCorpus, tan_config: TanConfig, train_config: TrainConfig,
              *, loss_kind: str = "tan", ranges: AugmentRanges | None = None,
              ) -> tuple[TanWeights, list[EpochStats]]:
    """Train the encoder+projection on random crops of the corpus.

    loss_kind selects the objective: "tan" (frame-wise contrastive), "tcn"
    (triplet baseline), or "tcc" (cycle-back baseline). The forward and
    backward compute in float32; the master weights, which are returned, and
    Adam's moments stay float64 (mixed precision, Micikevicius et al. 2018).
    Deterministic for a fixed seed under single-threaded execution.
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
    # a crop's view at speed_max is its shortest; under 2 * pos_window + 2
    # frames it cannot host a TCN anchor's exclusion interval
    shortest = max(1, _round_half_up(t_crop / ranges.speed_max))
    if loss_kind == "tcn" and shortest < 2 * TCN_POS_WINDOW + 2:
        raise ValueError(f"a {t_crop}-frame crop can yield a {shortest}-frame view; "
                         f"tcn needs views of >= {2 * TCN_POS_WINDOW + 2} frames")
    weights = init_weights(tan_config, usable[0].joints, train_config.seed)
    # every step's forward and backward run in float32 on this copy of the
    # float64 master weights; adam_step steps the master and writes it back.
    # The copy's values and gradients are the two halves of one block, as
    # large as a float64 buffer, so glibc maps it apart from the heap like the
    # master's buffers. As two half-size blocks they came from the heap, and
    # once freed, the stages after training reused their pages and kept them
    # resident: wide peak_rss_mb read 331 MB instead of 276 in 60 s perfbench
    # runs (2-CPU host)
    n = weights.values.size
    block = np.zeros(2 * n, np.float32)
    block[:n] = weights.values
    compute = _bind(tan_config, weights.joints, weights.seed, block[:n], block[n:])
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
            z = project(encode(np.concatenate(views), compute, offsets), compute)
            # every loss takes the A and B blocks whole: their rows are the clips' views in order
            n_clips = len(pairs)
            va = ad.slice_tensor(z, (slice(0, offsets[n_clips]),))
            vb = ad.slice_tensor(z, (slice(offsets[n_clips], None),))
            lengths = np.diff(offsets)
            lengths = (lengths[:n_clips], lengths[n_clips:])
            if loss_kind == "tan":
                loss = frame_nt_xent(va, vb, [p.correspondences for p in pairs],
                                     mode=train_config.negative_mode,
                                     tau=train_config.temperature, lengths=lengths)
            elif loss_kind == "tcn":
                loss = tcn_loss(va, vb, lengths, TCN_ANCHORS, rng)
            else:
                loss = tcc_loss(va, vb, lengths)

            lr = lr_at(global_step, train_config, steps_per_epoch)
            # the gradients are zero here: adam_step zeroes them as it reads them
            ad.backward(loss)
            gnorm, scale = clip_gradients(compute, GRAD_CLIP_NORM)
            if not (np.isfinite(loss.values) and np.isfinite(gnorm)):
                raise RuntimeError(
                    f"non-finite loss at step {global_step} (lr={lr:.3e}, "
                    f"grad_norm={gnorm:.3e})"
                )
            adam_step(weights, compute, state, lr, WEIGHT_DECAY, scale)
            losses.append(float(loss.values))
            gnorms.append(gnorm)
            global_step += 1
            # drop this step's graph before the next step builds its own
            loss = z = va = vb = None
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
