"""Workloads and the timed pipeline chain.

One round runs train -> checkpoint round trip -> build-lexicon -> tokenize ->
eval -> detect -> compose -> sweep-k through the package's public functions at
threads=1, and keeps every stage's outputs for the checks in checks.py.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from motiontok import apps, cli, data, lexicon, tan, train

BLEND_FRAMES = 4  # junction crossfade of the synthetic generator


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    overrides: dict
    sequences: int
    primitives_per_sequence: int
    frames_per_primitive: int
    loss_must_fall: bool

    @property
    def frames(self) -> int:
        """Length every generated sequence is cut to: the shortest one the
        generator can produce (every primitive at the top speed 2.0), so each
        seed yields the same frame count and the same amount of work."""
        shortest = math.floor(self.frames_per_primitive / 2.0 + 0.5)
        return self.primitives_per_sequence * shortest - BLEND_FRAMES * (
            self.primitives_per_sequence - 1)

    def config(self, seed: int) -> cli.PipelineConfig:
        synth = {"sequences": self.sequences,
                 "primitives_per_sequence": self.primitives_per_sequence,
                 "frames_per_primitive": self.frames_per_primitive}
        overrides = {**self.overrides, "synth": synth, "threads": 1}
        return cli.make_config(self.profile, seed=seed, overrides=overrides)


WORKLOADS = {
    # The desk profile as shipped (hidden 64, 2 layers, 4 heads, batch 8,
    # 64-frame crops, K 16, window 16) on ten sequences of the default
    # generator settings; small enough for several rounds per run.
    "desk": Workload(
        "desk", "desk",
        {"train": {"epochs": 6, "warmup_epochs": 1},
         "metrics": {"sweep_k": [8, 32]}},
        sequences=10, primitives_per_sequence=6, frames_per_primitive=64,
        loss_must_fall=True),
    # The paper profile's encoder (hidden 512, 3 layers, 8 heads, 128-d
    # projection) at batch 8 and 16-frame crops on a small corpus.
    "wide": Workload(
        "wide", "paper",
        {"tan": {"sequence_length": 16},
         "train": {"batch_size": 8, "epochs": 2, "warmup_epochs": 1},
         "lexicon": {"context_window": 16},
         "metrics": {"sweep_k": [8, 16]},
         "detection": {"scales_seconds": [0.25, 0.5]}},
        sequences=10, primitives_per_sequence=2, frames_per_primitive=24,
        loss_must_fall=False),
    # The desk model (six training steps, as desk) swept over a wide K grid.
    "sweep": Workload(
        "sweep", "desk",
        {"train": {"epochs": 6, "warmup_epochs": 1},
         "metrics": {"sweep_k": [8, 16, 32, 64, 96, 128]}},
        sequences=10, primitives_per_sequence=6, frames_per_primitive=64,
        loss_must_fall=False),
    # Harness self-check only (selfcheck.py): every stage at toy sizes.
    "tiny": Workload(
        "tiny", "desk",
        {"tan": {"hidden_dim": 16, "encoder_layers": 1, "attention_heads": 2,
                 "projection_dim": 8, "sequence_length": 12},
         "train": {"batch_size": 4, "epochs": 2, "warmup_epochs": 1},
         "lexicon": {"k": 4, "context_window": 8},
         "metrics": {"tau_pairs": 2, "n_max": 3, "sweep_k": [2, 3]},
         "detection": {"scales_seconds": [0.2, 0.4]},
         "composition": {"words": 3}},
        sequences=8, primitives_per_sequence=3, frames_per_primitive=16,
        loss_must_fall=False),
}


def cut(corpus: data.LabeledCorpus, frames: int) -> data.LabeledCorpus:
    """Every sequence (and its labels) cut to its first `frames` frames."""
    if min(s.frames for s in corpus.sequences) < frames:
        raise ValueError(f"a generated sequence is shorter than {frames} frames")
    return data.LabeledCorpus(
        sequences=[data.SkeletonSequence(data=s.data[:frames], fps=s.fps)
                   for s in corpus.sequences],
        frame_labels=[lab[:frames] for lab in corpus.frame_labels],
        primitive_count=corpus.primitive_count)


@dataclass
class RoundOutputs:
    """What one round produced, kept for the output checks."""

    config: cli.PipelineConfig
    corpus: data.LabeledCorpus
    train_split: data.LabeledCorpus
    eval_split: data.LabeledCorpus
    weights: tan.TanWeights = None
    history: list = None
    ckpt_path: Path = None
    loaded: tan.TanWeights = None
    lexicon: lexicon.Lexicon = None
    streams: list = None
    frame_actons: list = None
    report: object = None
    detection_map: float = None
    detections: list = None
    composed: object = None
    sweep_text: str = None
    kmeans_calls: list = field(default_factory=list)  # (points, Lexicon) per call
    times: dict = field(default_factory=dict)


class KmeansCapture:
    """Keeps the points and result of every lexicon.kmeans call, so the checks
    can test centroids against their members and rebuild each sweep row
    without clustering again."""

    def __init__(self):
        self.calls: list = []
        self._original = None

    def __enter__(self):
        self._original = lexicon.kmeans

        def kmeans(points, *args, **kwargs):
            lex = self._original(points, *args, **kwargs)
            self.calls.append((points, lex))
            return lex

        lexicon.kmeans = kmeans
        return self

    def __exit__(self, *exc):
        lexicon.kmeans = self._original


def run_round(config: cli.PipelineConfig, corpus: data.LabeledCorpus, corpus_dir: Path,
              work: Path, tracer) -> RoundOutputs:
    """One timed pass of the whole chain; stage wall times go to out.times."""
    train_split, eval_split = cli.split_corpus(corpus, config.metrics.eval_fraction)
    out = RoundOutputs(config, corpus, train_split, eval_split)

    @contextmanager
    def stage(name):
        with tracer.span("stage." + name) as s:
            yield
        out.times[name] = s.duration

    t0 = perf_counter()
    with KmeansCapture() as captured:
        with stage("train"):
            out.weights, out.history = train.train_tan(
                train_split, config.tan, config.train, loss_kind="tan",
                ranges=config.augment)
        with stage("checkpoint"):
            out.ckpt_path = tan.save_checkpoint(out.weights, work / "model.tan")
            out.loaded = tan.load_checkpoint(out.ckpt_path)
            digest = tan.checkpoint_digest(out.ckpt_path)
        lex_opts = config.lexicon
        with stage("lexicon"):
            out.lexicon = lexicon.build_lexicon(
                train_split, out.loaded, lex_opts.k, seed=config.seed,
                space=lex_opts.feature_space, checkpoint_digest=digest,
                max_iters=lex_opts.max_iters, tol=lex_opts.tol,
                window=lex_opts.context_window or config.tan.sequence_length)
        with stage("tokenize"):
            out.streams, out.frame_actons = lexicon.tokenize_corpus(
                corpus, out.loaded, out.lexicon)
        with stage("eval"):
            out.report = cli.evaluate(eval_split, out.loaded, out.lexicon, config, threads=1)
        det = config.detection
        with stage("detect"):
            _, train_actons = lexicon.tokenize_corpus(train_split, out.loaded, out.lexicon)
            cmap = apps.learn_acton_class_map(train_actons, train_split.frame_labels,
                                              out.lexicon.k)
            fps = corpus.sequences[0].fps
            scales = [max(2, int(round(sec * fps))) for sec in det.scales_seconds]
            out.detection_map, out.detections = cli.corpus_detection_map(
                eval_split, out.loaded, out.lexicon, cmap, scales, stride=det.stride,
                nms_iou=det.nms_iou, theta=det.map_theta)
        comp = config.composition
        with stage("compose"):
            library = apps.build_instance_library(corpus.sequences, out.streams)
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, 71]))
            out.composed = apps.compose(library, comp.words, comp.boundary_threshold,
                                        comp.blend_frames, rng)
        with stage("sweep_k"):
            sweep_path = cli.cmd_sweep_k(config, corpus_dir, out.ckpt_path,
                                         work / "sweep.tsv")
        out.sweep_text = sweep_path.read_text()
    out.times["pipeline"] = perf_counter() - t0
    out.kmeans_calls = captured.calls
    return out


def warm_up(config: cli.PipelineConfig, corpus: data.LabeledCorpus, work: Path,
            tracer) -> None:
    """The whole chain once on four crop-length sequences (two to train, two
    to evaluate, so the eval streams always hold the two tokens F_2 needs),
    one training step and K=2, so that every code path has run before
    anything is timed."""
    crop = config.train.frames
    mini = cut(data.LabeledCorpus(corpus.sequences[:4], corpus.frame_labels[:4],
                                  corpus.primitive_count), crop)
    mini_config = dataclasses.replace(
        config,
        train=dataclasses.replace(config.train, epochs=1, warmup_epochs=0),
        lexicon=dataclasses.replace(config.lexicon, k=2),
        metrics=dataclasses.replace(config.metrics, sweep_k=(2,), tau_pairs=1,
                                    eval_fraction=0.5))
    mini_dir = work / "warmup_corpus"
    data.save_corpus(mini, mini_dir)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # detection scales longer than the crop
        run_round(mini_config, mini, mini_dir, work, tracer)


def set_up(config: cli.PipelineConfig, frames: int, work: Path, tracer,
           ) -> tuple[data.LabeledCorpus, Path]:
    """Generate the corpus, cut every sequence to `frames`, round-trip it
    through save_corpus/load_corpus, then warm up."""
    s = config.synth
    corpus_dir = work / "corpus"
    corpus = data.generate_synthetic_corpus(
        s.primitives, s.sequences, s.primitives_per_sequence, s.frames_per_primitive,
        config.seed, joints=s.joints, fps=s.fps, pose_spread=s.pose_spread)
    data.save_corpus(cut(corpus, frames), corpus_dir)
    corpus = data.load_corpus(corpus_dir)
    with tracer.span("warmup"):
        warm_up(config, corpus, work, tracer)
    return corpus, corpus_dir


# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_steps_per_s": ("1/s", "higher"),
    "lexicon_build_s": ("s", "lower"),
    "tokenize_frames_per_s": ("frames/s", "higher"),
    "eval_s": ("s", "lower"),
    "detect_s": ("s", "lower"),
    "sweep_k_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def round_metrics(out: RoundOutputs) -> dict[str, float]:
    cfg = out.config.train
    steps = len(out.history) * max(1, math.ceil(len(out.train_split.sequences)
                                                / cfg.batch_size))
    t = out.times
    frames = sum(s.frames for s in out.corpus.sequences)
    return {
        "train_steps_per_s": steps / t["train"],
        "lexicon_build_s": t["lexicon"],
        "tokenize_frames_per_s": frames / t["tokenize"],
        "eval_s": t["eval"],
        "detect_s": t["detect"],
        "sweep_k_s": t["sweep_k"],
        "pipeline_s": t["pipeline"],
    }
