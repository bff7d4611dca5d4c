"""Command-line pipeline: synthetic corpus generation, training, lexicon
building, tokenization, evaluation, detection, composition, and the K sweep.

One JSON config file drives every command; flags override config values.
Every output file starts with a header carrying the config digest and seed so
results stay traceable to the run that produced them.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .augment import AugmentRanges, make_view_pair
from .data import (LabeledCorpus, SkeletonSequence, generate_synthetic_corpus, load_corpus,
                   save_corpus, save_sequence, sequence_variant)
# assign is not called here; it stays importable as cli.assign for callers that wrap it
from .lexicon import (Lexicon, assign, build_lexicon, cluster_features, corpus_features,
                      kmeanspp, load_lexicon, save_lexicon, segment, tokenize_corpus,
                      tokenize_features, write_token_streams)
from .metrics import MetricsReport, entropy_table, kendalls_tau, ngram_entropy, nmi, detection_map
from .apps import build_instance_library, compose, detect, learn_acton_class_map
from .tan import (TanConfig, TanWeights, checkpoint_digest, embed_sequence,
                  load_checkpoint, save_checkpoint)
from .train import TrainConfig, train_tan, write_history


def _require(ok: bool, message: str) -> None:
    """Option-record check: a rejected value raises ValueError when the config
    is built, before a command reads any corpus or checkpoint."""
    if not ok:
        raise ValueError(message)


def _is_count(value, least: int = 1) -> bool:
    """value is a plain int (not a bool, float or numpy scalar) >= least."""
    return type(value) is int and value >= least


@dataclass(frozen=True)
class SynthOptions:
    primitives: int = 8
    sequences: int = 60
    primitives_per_sequence: int = 6
    frames_per_primitive: int = 64
    joints: int = 8
    fps: float = 30.0
    pose_spread: float = 0.0

    def __post_init__(self):
        for name in ("primitives", "sequences", "primitives_per_sequence",
                     "frames_per_primitive", "joints"):
            value = getattr(self, name)
            _require(_is_count(value), f"synth {name} must be an integer >= 1, got {value!r}")
        _require(self.fps > 0, f"synth fps must be > 0, got {self.fps}")
        _require(self.pose_spread >= 0, f"synth pose_spread must be >= 0, got {self.pose_spread}")


@dataclass(frozen=True)
class LexiconOptions:
    k: int = 16
    feature_space: str = "projection"
    max_iters: int = 300
    tol: float = 1e-6
    context_window: int | None = None  # None: the encoder's sequence_length

    def __post_init__(self):
        _require(_is_count(self.k), f"lexicon k must be an integer >= 1, got {self.k!r}")
        _require(self.feature_space in ("projection", "hidden"),
                 f"lexicon feature_space must be 'projection' or 'hidden', "
                 f"got {self.feature_space!r}")
        _require(_is_count(self.max_iters),
                 f"lexicon max_iters must be an integer >= 1, got {self.max_iters!r}")
        _require(0 <= self.tol < np.inf, f"lexicon tol must be >= 0 and finite, got {self.tol}")
        _require(self.context_window is None or _is_count(self.context_window),
                 f"lexicon context_window must be None or an integer >= 1, "
                 f"got {self.context_window!r}")


@dataclass(frozen=True)
class MetricOptions:
    n_max: int = 4
    tau_pairs: int = 10
    eval_fraction: float = 0.2
    sweep_k: tuple[int, ...] = tuple(range(10, 151, 10))

    def __post_init__(self):
        _require(_is_count(self.n_max),
                 f"metrics n_max must be an integer >= 1, got {self.n_max!r}")
        _require(_is_count(self.tau_pairs),
                 f"metrics tau_pairs must be an integer >= 1, got {self.tau_pairs!r}")
        _require(0 < self.eval_fraction < 1,
                 f"metrics eval_fraction must be in (0, 1), got {self.eval_fraction}")
        _require(len(self.sweep_k) > 0 and all(_is_count(k) for k in self.sweep_k),
                 f"metrics sweep_k must be non-empty with every K an integer >= 1, "
                 f"got {self.sweep_k!r}")


@dataclass(frozen=True)
class DetectionOptions:
    scales_seconds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    stride: int | None = None  # None: quarter of each scale
    nms_iou: float = 0.5
    map_theta: float = 0.3

    def __post_init__(self):
        _require(len(self.scales_seconds) > 0 and all(s > 0 for s in self.scales_seconds),
                 f"detection scales_seconds must be non-empty and all > 0, "
                 f"got {self.scales_seconds}")
        _require(self.stride is None or _is_count(self.stride),
                 f"detection stride must be None or an integer >= 1, got {self.stride!r}")
        _require(0 < self.nms_iou <= 1, f"detection nms_iou must be in (0, 1], got {self.nms_iou}")
        _require(0 < self.map_theta <= 1,
                 f"detection map_theta must be in (0, 1], got {self.map_theta}")


@dataclass(frozen=True)
class CompositionOptions:
    words: int = 8
    boundary_threshold: float = 1.0
    blend_frames: int = 5

    def __post_init__(self):
        _require(_is_count(self.words),
                 f"composition words must be an integer >= 1, got {self.words!r}")
        _require(self.boundary_threshold > 0,
                 f"composition boundary_threshold must be > 0, got {self.boundary_threshold}")
        _require(_is_count(self.blend_frames),
                 f"composition blend_frames must be an integer >= 1, got {self.blend_frames!r}")


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    threads: int = 1
    profile: str = "desk"
    tan: TanConfig = field(default_factory=TanConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentRanges = field(default_factory=AugmentRanges)
    synth: SynthOptions = field(default_factory=SynthOptions)
    lexicon: LexiconOptions = field(default_factory=LexiconOptions)
    metrics: MetricOptions = field(default_factory=MetricOptions)
    detection: DetectionOptions = field(default_factory=DetectionOptions)
    composition: CompositionOptions = field(default_factory=CompositionOptions)

    def __post_init__(self):
        _require(_is_count(self.seed, 0),
                 f"seed must be an integer >= 0, got {self.seed!r}")
        _require(_is_count(self.threads),
                 f"threads must be an integer >= 1, got {self.threads!r}")

    def digest(self) -> str:
        data = asdict(self)
        data.pop("threads")  # worker count never changes results
        blob = json.dumps(data, sort_keys=True, default=list).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# Named profiles: the values each sets over its sections' defaults
PROFILES: dict[str, dict[str, dict]] = {
    "desk": {"tan": dict(hidden_dim=64, encoder_layers=2, attention_heads=4,
                         projection_dim=32, sequence_length=64),
             "train": dict(batch_size=8, epochs=30, warmup_epochs=3, peak_lr=2e-3),
             "lexicon": dict(context_window=16)},
    "paper": {"tan": dict(hidden_dim=512, encoder_layers=3, attention_heads=8,
                          projection_dim=128, sequence_length=64),
              "train": dict(batch_size=32, epochs=500, warmup_epochs=50, peak_lr=2.5e-5)},
}

# section name -> option class, in PipelineConfig's field order (tan before train)
_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)
             if f.default_factory is not MISSING}


def make_config(profile: str = "desk", seed: int = 0, overrides: dict | None = None,
                ) -> PipelineConfig:
    """Build a config from a named profile plus nested override dicts: `seed`
    (wins over the argument), `threads` and one dict per section. The training
    seed defaults to the master seed, the crop length to the encoder's."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    overrides = dict(overrides or {})
    seed = overrides.pop("seed", seed)
    threads = overrides.pop("threads", 1)
    for key, value in overrides.items():
        if key not in _SECTIONS:
            raise ValueError(f"unknown config key {key!r}; sections: {', '.join(_SECTIONS)}")
        if not isinstance(value, dict):
            raise ValueError(f"config section {key!r} must be an object, "
                             f"got {type(value).__name__}")
    sections = {}
    for name, cls in _SECTIONS.items():
        values = {**PROFILES[profile].get(name, {}), **overrides.get(name, {})}
        if name == "train":
            values = {"seed": seed, "frames": sections["tan"].sequence_length, **values}
        # JSON lists become tuples, so configs stay hashable and compare equal
        sections[name] = cls(**{key: tuple(value) if isinstance(value, list) else value
                                for key, value in values.items()})
    return PipelineConfig(seed=seed, threads=threads, profile=profile, **sections)


def load_config(path: str | Path | None, profile: str | None = None,
                seed: int | None = None, threads: int | None = None) -> PipelineConfig:
    """Config file merged under a profile; explicit flags win over the file."""
    overrides = {}
    file_profile = None
    if path is not None:
        overrides = json.loads(Path(path).read_text())
        if not isinstance(overrides, dict):
            raise ValueError(f"config file {path} must hold a JSON object, "
                             f"got {type(overrides).__name__}")
        file_profile = overrides.pop("profile", None)
    if seed is not None:
        overrides["seed"] = seed
    if threads is not None:
        overrides["threads"] = threads
    chosen = profile or file_profile or "desk"
    return make_config(profile=chosen, seed=overrides.get("seed", 0),
                       overrides=overrides)


# --- pipeline helpers --------------------------------------------------------------


def split_corpus(corpus: LabeledCorpus, eval_fraction: float = 0.2,
                 ) -> tuple[LabeledCorpus, LabeledCorpus]:
    """Deterministic train/eval split by sequence index (last fraction is eval)."""
    n = len(corpus.sequences)
    cut = max(1, int(round(n * (1.0 - eval_fraction))))
    cut = min(cut, n - 1) if n > 1 else n
    make = lambda lo, hi: LabeledCorpus(
        sequences=corpus.sequences[lo:hi],
        frame_labels=corpus.frame_labels[lo:hi],
        primitive_count=corpus.primitive_count,
    )
    return make(0, cut), make(cut, n)


def _scored_split(corpus: LabeledCorpus, eval_fraction: float, command: str,
                  ) -> tuple[LabeledCorpus, LabeledCorpus]:
    """split_corpus, refusing a corpus too small for a non-empty eval split."""
    if len(corpus.sequences) < 2:
        raise ValueError(f"{command} needs a corpus of at least 2 sequences (train and eval "
                         f"splits), got {len(corpus.sequences)}")
    return split_corpus(corpus, eval_fraction)


def alignment_tau(corpus: LabeledCorpus, ranges: AugmentRanges, pairs: int, seed: int,
                  embed_fn, crop_len: int | None = None) -> float:
    """Mean Kendall's Tau over speed-warped view pairs of corpus sequences.

    crop_len restricts each pair to a window of that many source frames (the
    encoder's training length, so retrieval runs in the regime the embeddings
    were shaped for); None warps whole sequences.
    """
    taus = []
    for idx in range(pairs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 53, idx]))
        seq = corpus.sequences[idx % len(corpus.sequences)]
        if crop_len is not None and seq.frames > crop_len:
            start = int(rng.integers(0, seq.frames - crop_len + 1))
            seq = SkeletonSequence(data=seq.data[start:start + crop_len], fps=seq.fps)
        vp = make_view_pair(seq, rng, ranges)
        taus.append(kendalls_tau(embed_fn(vp.view_a), embed_fn(vp.view_b)))
    return float(np.mean(taus))


def tan_embed_fn(weights: TanWeights):
    return lambda seq: embed_sequence(seq, weights)


def corpus_nmi(corpus: LabeledCorpus, streams_labels: list[np.ndarray]) -> float:
    """Frame-label NMI of cluster assignments against ground truth."""
    truth = np.concatenate(corpus.frame_labels)
    clusters = np.concatenate(streams_labels)
    return nmi(truth, clusters)


def truth_intervals(labels: np.ndarray) -> list[tuple[int, int, int]]:
    """(class, start, end) runs of a ground-truth frame-label array."""
    stream = segment(labels)
    return [(acton, start, end) for start, end, acton in stream.segments]


def evaluate(corpus: LabeledCorpus, weights: TanWeights, lexicon: Lexicon,
             config: PipelineConfig, threads: int = 1) -> MetricsReport:
    """Alignment, clustering, and token-entropy metrics on one corpus slice."""
    streams, frame_actons = tokenize_corpus(corpus, weights, lexicon, threads)
    rows = entropy_table(streams, config.metrics.n_max)
    tau = alignment_tau(corpus, config.augment, config.metrics.tau_pairs,
                        config.seed, tan_embed_fn(weights),
                        crop_len=config.tan.sequence_length)
    return MetricsReport(
        kendalls_tau=tau,
        nmi=corpus_nmi(corpus, frame_actons),
        f2=_f2(streams),  # the report writes an undefined F_2 as null
        entropy_rows=rows,
        provenance={
            "config_digest": config.digest(),
            "seed": config.seed,
            "lexicon_k": lexicon.k,
            "checkpoint_digest": lexicon.metadata.get("checkpoint_digest"),
        },
    )


def _f2(streams) -> float | None:
    """Conditional bigram entropy F_2 of token streams; None where it is
    undefined, i.e. no single stream holds two tokens."""
    if not any(len(s.segments) >= 2 for s in streams):
        return None
    return ngram_entropy(streams, 2)[1]


def _guard_digest(lexicon: Lexicon, ckpt_digest: str) -> None:
    built_from = lexicon.metadata.get("checkpoint_digest")
    if built_from is not None and built_from != ckpt_digest:
        raise ValueError(
            f"lexicon was built from checkpoint {built_from}, refusing to pair it "
            f"with checkpoint {ckpt_digest}"
        )


# --- commands -----------------------------------------------------------------------


def _header(config: PipelineConfig, extra: dict | None = None) -> list[str]:
    lines = [f"config_digest={config.digest()}", f"seed={config.seed}",
             f"profile={config.profile}"]
    for key, value in (extra or {}).items():
        lines.append(f"{key}={value}")
    return lines


def cmd_gen_synth(config: PipelineConfig, out_dir: Path) -> Path:
    s = config.synth
    corpus = generate_synthetic_corpus(
        s.primitives, s.sequences, s.primitives_per_sequence, s.frames_per_primitive,
        config.seed, joints=s.joints, fps=s.fps, pose_spread=s.pose_spread)
    save_corpus(corpus, out_dir)
    meta = {"config_digest": config.digest(), "seed": config.seed,
            "synth": asdict(s)}
    (out_dir / "meta.json").write_text(json.dumps(meta, sort_keys=True))
    return out_dir


def cmd_train(config: PipelineConfig, corpus_dir: Path, out_ckpt: Path,
              loss: str = "tan") -> Path:
    corpus = load_corpus(corpus_dir)
    train_split, _ = split_corpus(corpus, config.metrics.eval_fraction)
    weights, history = train_tan(train_split, config.tan, config.train,
                                 loss_kind=loss, ranges=config.augment)
    save_checkpoint(weights, out_ckpt)
    write_history(history, out_ckpt.with_suffix(".history.tsv"))
    return out_ckpt


def cmd_build_lexicon(config: PipelineConfig, corpus_dir: Path, ckpt: Path,
                      out_lex: Path) -> Path:
    corpus = load_corpus(corpus_dir)
    train_split, _ = split_corpus(corpus, config.metrics.eval_fraction)
    weights = load_checkpoint(ckpt)
    lex = build_lexicon(train_split, weights, config.lexicon.k, threads=config.threads,
                        **_lexicon_settings(config, checkpoint_digest(ckpt)))
    save_lexicon(lex, out_lex)
    return out_lex


def _lexicon_settings(config: PipelineConfig, digest: str | None) -> dict:
    """Every lexicon setting, as build_lexicon / cluster_features keywords, so
    each sweep row clusters exactly as build-lexicon does."""
    opts = config.lexicon
    return dict(seed=config.seed, space=opts.feature_space, checkpoint_digest=digest,
                max_iters=opts.max_iters, tol=opts.tol,
                window=opts.context_window or config.tan.sequence_length)


def _load_guarded(ckpt: Path, lex_path: Path) -> tuple[TanWeights, Lexicon]:
    weights = load_checkpoint(ckpt)
    lexicon = load_lexicon(lex_path)
    _guard_digest(lexicon, checkpoint_digest(ckpt))
    return weights, lexicon


def cmd_tokenize(config: PipelineConfig, corpus_dir: Path, ckpt: Path, lex_path: Path,
                 out_path: Path) -> Path:
    corpus = load_corpus(corpus_dir)
    weights, lexicon = _load_guarded(ckpt, lex_path)
    streams, _ = tokenize_corpus(corpus, weights, lexicon, config.threads)
    write_token_streams(streams, out_path, header_lines=_header(config))
    return out_path


def cmd_eval(config: PipelineConfig, corpus_dir: Path, ckpt: Path, lex_path: Path,
             out_dir: Path) -> MetricsReport:
    corpus = load_corpus(corpus_dir)
    _, eval_split = _scored_split(corpus, config.metrics.eval_fraction, "eval")
    weights, lexicon = _load_guarded(ckpt, lex_path)
    report = evaluate(eval_split, weights, lexicon, config, config.threads)
    report.save(out_dir)
    # embed the full config so every reported number stays traceable
    (Path(out_dir) / "config.json").write_text(
        json.dumps(asdict(config), sort_keys=True, default=list))
    return report


def corpus_detection_map(eval_split: LabeledCorpus, weights: TanWeights,
                         lexicon: Lexicon, cmap, scales,
                         stride: int | None = None, nms_iou: float = 0.5,
                         theta: float = 0.3, threads: int = 1,
                         ) -> tuple[float, list[tuple[int, "Detection"]]]:
    """Pooled detection mAP over a corpus, detected on its token labels.

    Per-sequence intervals are offset far apart on a shared timeline so one
    matching pass scores the whole corpus without cross-sequence overlap.
    """
    _, frame_actons = tokenize_corpus(eval_split, weights, lexicon, threads)
    all_dets, all_truth, out_rows = [], [], []
    gap = max(s.frames for s in eval_split.sequences) + 1
    for sid, (actons, labels) in enumerate(zip(frame_actons, eval_split.frame_labels)):
        off = sid * gap
        for d in detect(actons, cmap, scales, stride=stride, nms_iou=nms_iou):
            all_dets.append((d.class_id, d.start + off, d.end + off, d.confidence))
            out_rows.append((sid, d))
        all_truth.extend((c, s + off, e + off) for c, s, e in truth_intervals(labels))
    return detection_map(all_dets, all_truth, theta), out_rows


def cmd_detect(config: PipelineConfig, corpus_dir: Path, ckpt: Path, lex_path: Path,
               out_path: Path) -> float:
    corpus = load_corpus(corpus_dir)
    train_split, eval_split = _scored_split(corpus, config.metrics.eval_fraction, "detect")
    weights, lexicon = _load_guarded(ckpt, lex_path)
    _, train_actons = tokenize_corpus(train_split, weights, lexicon, config.threads)
    cmap = learn_acton_class_map(train_actons, train_split.frame_labels, lexicon.k)
    fps = corpus.sequences[0].fps
    scales = [max(2, int(round(s * fps))) for s in config.detection.scales_seconds]
    score, out_rows = corpus_detection_map(
        eval_split, weights, lexicon, cmap, scales,
        stride=config.detection.stride, nms_iou=config.detection.nms_iou,
        theta=config.detection.map_theta, threads=config.threads)
    with open(out_path, "w") as fh:
        for line in _header(config, {"map_theta": config.detection.map_theta,
                                     "mAP": f"{score:.6g}"}):
            fh.write(f"# {line}\n")
        fh.write("sequence\tclass\tstart\tend\tconfidence\n")
        for sid, d in out_rows:
            fh.write(f"{sid}\t{d.class_id}\t{d.start}\t{d.end}\t{d.confidence:.6g}\n")
    return score


def cmd_compose(config: PipelineConfig, corpus_dir: Path, ckpt: Path, lex_path: Path,
                out_path: Path) -> Path:
    corpus = load_corpus(corpus_dir)
    weights, lexicon = _load_guarded(ckpt, lex_path)
    streams, _ = tokenize_corpus(corpus, weights, lexicon, config.threads)
    library = build_instance_library(corpus.sequences, streams)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 71]))
    motion = compose(library, config.composition.words,
                     config.composition.boundary_threshold,
                     config.composition.blend_frames, rng)
    save_sequence(motion.sequence, out_path)
    words_path = Path(str(out_path) + ".words.txt")
    with open(words_path, "w") as fh:
        for line in _header(config, {"words": ",".join(map(str, motion.words))}):
            fh.write(f"# {line}\n")
    return out_path


def cmd_sweep_k(config: PipelineConfig, corpus_dir: Path, ckpt: Path,
                out_path: Path) -> Path:
    corpus = load_corpus(corpus_dir)
    train_split, eval_split = _scored_split(corpus, config.metrics.eval_fraction, "sweep-k")
    weights = load_checkpoint(ckpt)
    # the sweep's lexicons are scored and dropped, so none records a digest
    settings = _lexicon_settings(config, None)
    # embed each split once; every K clusters and tokenizes the same features
    view = dict(space=settings["space"], window=settings["window"], threads=config.threads)
    train_points = np.concatenate(corpus_features(train_split, weights, **view))
    eval_features = corpus_features(eval_split, weights, **view)
    grid, m = config.metrics.sweep_k, len(train_points)
    # k-means++ once, for the largest K the points allow: each K's seeds are a
    # prefix of them. A K above the point count fails in its own kmeans call
    seeds = kmeanspp(train_points, max((k for k in grid if k <= m), default=1), config.seed)
    rows = []
    for k in grid:
        lex = cluster_features(train_points, k, seeds=seeds[:k], **settings)
        streams, frame_actons = zip(*(tokenize_features(f, lex) for f in eval_features))
        f2 = _f2(streams)
        rows.append((k, corpus_nmi(eval_split, frame_actons), np.nan if f2 is None else f2))
    with open(out_path, "w") as fh:
        for line in _header(config):
            fh.write(f"# {line}\n")
        fh.write("k\tnmi\tf2\n")
        for k, score, f2 in rows:
            fh.write(f"{k}\t{score:.6g}\t{f2:.6g}\n")
    return out_path


# --- argument parsing ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motiontok",
        description="Motion tokenization pipeline: contrastive frame embeddings, "
                    "acton lexicons, and token-stream applications.")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (1 = fully deterministic)")
    parser.add_argument("--profile", choices=("desk", "paper"), default=None,
                        help="named hyperparameter profile (default: desk, "
                             "unless the config file names one)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train", help="train the encoder on a corpus")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--loss", choices=("tan", "tcn", "tcc"), default="tan")

    p = sub.add_parser("build-lexicon", help="K-means lexicon from frame embeddings")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--k", type=int, default=None)

    for name, help_text in (("tokenize", "write token streams for a corpus"),
                            ("eval", "alignment/clustering/entropy metrics"),
                            ("detect", "sliding-window action detection"),
                            ("compose", "compose a motion from acton instances")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--corpus", type=Path, required=True)
        p.add_argument("--checkpoint", type=Path, required=True)
        p.add_argument("--lexicon", type=Path, required=True)
        p.add_argument("--out", type=Path, required=True)
        if name == "compose":
            p.add_argument("--words", type=int, default=None)

    p = sub.add_parser("sweep-k", help="NMI and F_2 across a grid of lexicon sizes")
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    return parser


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = load_config(args.config, profile=args.profile, seed=args.seed,
                         threads=args.threads)
    if getattr(args, "k", None) is not None:
        config = replace(config, lexicon=replace(config.lexicon, k=args.k))
    if getattr(args, "words", None) is not None:
        config = replace(config, composition=replace(config.composition, words=args.words))
    if config.threads > 1 and "1" not in (os.environ.get("OPENBLAS_NUM_THREADS"),
                                          os.environ.get("OMP_NUM_THREADS")):
        print(f"warning: {config.threads} worker threads share multi-threaded BLAS and "
              "compete for cores; set OPENBLAS_NUM_THREADS=1", file=sys.stderr)
    # refuse an output that cannot be written before any work; gen-synth and
    # eval create their output directories
    if args.command not in ("gen-synth", "eval"):
        if not args.out.parent.is_dir():
            raise FileNotFoundError(f"no directory {args.out.parent} for --out {args.out}")
        if args.out.is_dir():
            raise IsADirectoryError(f"--out {args.out} is a directory")
        if args.command == "compose":
            sequence_variant(args.out)

    if args.command == "gen-synth":
        args.out.mkdir(parents=True, exist_ok=True)
        cmd_gen_synth(config, args.out)
    elif args.command == "train":
        cmd_train(config, args.corpus, args.out, loss=args.loss)
    elif args.command == "build-lexicon":
        cmd_build_lexicon(config, args.corpus, args.checkpoint, args.out)
    elif args.command == "tokenize":
        cmd_tokenize(config, args.corpus, args.checkpoint, args.lexicon, args.out)
    elif args.command == "eval":
        args.out.mkdir(parents=True, exist_ok=True)
        report = cmd_eval(config, args.corpus, args.checkpoint, args.lexicon, args.out)
        print(report.to_flat_text(), end="")
    elif args.command == "detect":
        score = cmd_detect(config, args.corpus, args.checkpoint, args.lexicon, args.out)
        print(f"mAP@{config.detection.map_theta}={score:.6g}")
    elif args.command == "compose":
        cmd_compose(config, args.corpus, args.checkpoint, args.lexicon, args.out)
    elif args.command == "sweep-k":
        cmd_sweep_k(config, args.corpus, args.checkpoint, args.out)
    return 0


def main() -> None:
    try:
        sys.exit(run())
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
