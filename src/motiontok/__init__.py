"""Motion tokenization toolkit: frame-wise contrastive skeleton embeddings,
acton lexicon discovery, token-stream metrics, and downstream applications."""

__version__ = "0.1.0"

from .data import LabeledCorpus, SkeletonSequence, generate_synthetic_corpus
from .augment import AugmentParams, AugmentRanges, ViewPair, apply, make_view_pair, sample_params
from .tan import TanConfig, TanWeights, encode, init_weights, positional_encoding, project
from .train import TrainConfig, frame_nt_xent, lr_at, tcc_loss, tcn_loss, train_tan
from .lexicon import Lexicon, TokenStream, assign, build_lexicon, kmeans, segment, tokenize_corpus
from .metrics import MetricsReport, detection_map, kendalls_tau, ngram_entropy, nmi
from .apps import ActonClassMap, ComposedMotion, compose, detect, learn_acton_class_map

__all__ = [
    "LabeledCorpus", "SkeletonSequence", "generate_synthetic_corpus",
    "AugmentParams", "AugmentRanges", "ViewPair", "apply", "make_view_pair", "sample_params",
    "TanConfig", "TanWeights", "encode", "init_weights", "positional_encoding", "project",
    "TrainConfig", "frame_nt_xent", "lr_at", "tcc_loss", "tcn_loss", "train_tan",
    "Lexicon", "TokenStream", "assign", "build_lexicon", "kmeans", "segment", "tokenize_corpus",
    "MetricsReport", "detection_map", "kendalls_tau", "ngram_entropy", "nmi",
    "ActonClassMap", "ComposedMotion", "compose", "detect", "learn_acton_class_map",
]
