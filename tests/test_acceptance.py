"""End-to-end acceptance suite.

Every test prints one pass/fail line. Training runs are shared through a
session cache; the whole suite trains 13 desk-scale models and takes roughly
ten minutes on a laptop CPU.
"""
import dataclasses
import time

import numpy as np
import pytest

from motiontok import autodiff as ad
from motiontok.autodiff import Tensor
from motiontok.apps import compose, build_instance_library, learn_acton_class_map
from motiontok.cli import (
    alignment_tau,
    corpus_detection_map,
    corpus_nmi,
    make_config,
    split_corpus,
    tan_embed_fn,
)
from motiontok.data import generate_synthetic_corpus
from motiontok.lexicon import assign, build_lexicon, kmeans, tokenize_corpus
from motiontok.metrics import detection_map, kendalls_tau, ngram_entropy, nmi
from motiontok.tan import TanConfig, encode, init_weights, project
from motiontok.train import frame_nt_xent, tcc_loss, tcn_loss, train_tan

from test_autodiff import _catalog_cases, _param
from testkit import (exact_block_entropies, grad_check, parameter, raw_embed,
                     stationary_distribution, weighted_sum)


pytestmark = pytest.mark.slow


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


DESK = make_config("desk", seed=0)
NOSPEED = dataclasses.replace(DESK.augment, speed_max=1.0)
SEEDS = (0, 1, 2)
LEX_WINDOW = 16


@pytest.fixture(scope="session")
def corpus8():
    corpus = generate_synthetic_corpus(8, 60, 6, 64, seed=0)
    return split_corpus(corpus, 0.2)


@pytest.fixture(scope="session")
def corpus32():
    def by_seed(seed):
        return split_corpus(generate_synthetic_corpus(32, 60, 6, 64, seed=seed), 0.2)

    return {seed: by_seed(seed) for seed in SEEDS}


@pytest.fixture(scope="session")
def detection_corpus():
    corpus = generate_synthetic_corpus(6, 60, 6, 64, seed=0, pose_spread=1.0)
    return split_corpus(corpus, 0.2)


@pytest.fixture(scope="session")
def models():
    """Lazy cache of trained desk models, shared by the directional criteria."""
    cache = {}

    def get(kind: str, seed: int, train_split, *, ranges=None, mode=None, epochs=None):
        key = (kind, seed)
        if key not in cache:
            tcfg = DESK.train
            tcfg = dataclasses.replace(
                tcfg, seed=seed,
                epochs=epochs or tcfg.epochs,
                negative_mode=mode or tcfg.negative_mode)
            weights, history = train_tan(train_split, DESK.tan, tcfg,
                                         ranges=ranges or DESK.augment)
            cache[key] = (weights, history)
        return cache[key]

    return get


# --- criterion 1: gradient integrity -----------------------------------------------


def test_criterion_1_gradient_integrity():
    t0 = time.time()
    worst = {}
    for name, fn, shape, kink in _catalog_cases():
        x = _param(shape, seed=101, avoid_kink=kink)
        worst[f"op:{name}"] = grad_check(fn, x, eps=1e-4)

    rng = np.random.default_rng(7)

    def unit(a):
        return a / np.linalg.norm(a, axis=-1, keepdims=True)

    vb = [Tensor(unit(rng.normal(size=(4, 5)))), Tensor(unit(rng.normal(size=(3, 5))))]
    corr = [[(0, 0), (1, 2), (3, 3)], [(2, 1)]]

    def nt_xent_probe(t):
        # the loss contract wants unit vectors; differentiate through the
        # normalization so the probe point satisfies it
        v = ad.l2_normalize(t)
        parts = [ad.slice_tensor(v, (slice(0, 4),)),
                 ad.slice_tensor(v, (slice(4, 7),))]
        return frame_nt_xent(parts, vb, corr, mode="exclude_same_clip", tau=0.3)

    worst["frame_nt_xent"] = grad_check(
        nt_xent_probe, parameter(rng.normal(size=(7, 5))), eps=1e-4)

    # the baselines over two clips whose views differ in length
    tcn_vb = rng.normal(size=(21, 4))
    worst["tcn_loss"] = grad_check(
        lambda t: tcn_loss(t, tcn_vb, ([9, 12], [14, 7]), anchors=3,
                           rng=np.random.default_rng(3), margin=1.0, pos_window=2,
                           neg_multiplier=2),
        parameter(rng.normal(size=(21, 4)) * 2.0), eps=1e-5)

    tcc_vb = rng.normal(size=(8, 3))
    worst["tcc_loss"] = grad_check(
        lambda t: tcc_loss(t, tcc_vb, ([4, 3], [5, 3]), tau_soft=0.5),
        parameter(rng.normal(size=(7, 3))), eps=1e-4)

    tiny = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2,
                     projection_dim=8, sequence_length=6)
    w = init_weights(tiny, joints=3, seed=4)
    x = np.random.default_rng(5).normal(size=(1, 6, 9))
    weighting = np.random.default_rng(6).normal(size=(1, 6, 8))

    def model_probe(t):
        return weighted_sum(project(encode(x, w), w), weighting)

    for name in ("embed.fc1.w", "enc0.attn.q.w", "enc0.attn.v.w", "enc0.ln1.gamma",
                 "enc0.ffn.fc1.w", "enc0.ln2.beta", "proj.fc1.w", "proj.fc2.w"):
        worst[f"model:{name}"] = grad_check(model_probe, w.tensors[name], eps=1e-4)

    elapsed = time.time() - t0
    peak = max(worst.values())
    offenders = {k: v for k, v in worst.items() if v >= 1e-4}
    report(1, peak < 1e-4 and elapsed < 60.0,
           f"max relative error {peak:.2e} over {len(worst)} checks in {elapsed:.1f}s "
           f"(offenders: {offenders or 'none'})")


# --- criterion 2: metric oracles ----------------------------------------------------


def test_criterion_2_metric_oracles():
    t0 = time.time()
    emb = np.random.default_rng(0).normal(size=(8, 4))
    tau_id = kendalls_tau(emb, emb)
    tau_rev = kendalls_tau(emb, emb[::-1])
    a = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
    tau_swap = kendalls_tau(a, a[[0, 2, 1, 3]])

    # NMI hand case, expected value from the entropy definitions directly
    h_c = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
    h_y_c = 0.75 * (-(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3))
    nmi_expect = 2 * (1.0 - h_y_c) / (1.0 + h_c)
    nmi_got = nmi([0, 0, 1, 1], [0, 0, 0, 1])

    k2, _ = ngram_entropy([[0, 1] * 4], 2)
    k2_expect = -(4 / 7) * np.log2(4 / 7) - (3 / 7) * np.log2(3 / 7)

    ap = detection_map([(0, 0, 10, 0.9), (0, 20, 30, 0.8)], [(0, 0, 10)], 0.3)
    elapsed = time.time() - t0

    checks = {
        "tau identity = 1": abs(tau_id - 1.0) < 1e-12,
        "tau reverse = -1": abs(tau_rev + 1.0) < 1e-12,
        "tau one-swap = 2/3": abs(tau_swap - 2.0 / 3.0) < 1e-12,
        "nmi hand case": abs(nmi_got - nmi_expect) < 1e-6,
        "K2 abababab": abs(k2 - k2_expect) < 1e-6,
        "detection AP hand case = 1": abs(ap - 1.0) < 1e-12,
        "runtime < 1 s": elapsed < 1.0,
    }
    bad = [k for k, ok in checks.items() if not ok]
    report(2, not bad,
           f"nmi={nmi_got:.9f} (expect {nmi_expect:.9f}), K2={k2:.9f}, AP={ap}, "
           f"{elapsed * 1000:.0f}ms{'; failed: ' + str(bad) if bad else ''}")


# --- criterion 3: entropy theorem ---------------------------------------------------


def test_criterion_3_entropy_theorem():
    t0 = time.time()
    cycle = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
    iid_marginal = np.array([0.5, 0.3, 0.2])
    markov = np.array([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]])
    sources = {
        "cycle": (np.full(3, 1 / 3), cycle),
        "iid": (iid_marginal, np.tile(iid_marginal, (3, 1))),
        "markov": (stationary_distribution(markov), markov),
    }
    failures = []
    for name, (init, trans) in sources.items():
        rows = exact_block_entropies(init, trans, 6)
        fs = [f for _, _, f in rows]
        for n in range(len(fs) - 1):  # F_{N+1} <= F_N + 1e-12 for N <= 5
            if fs[n + 1] > fs[n] + 1e-12:
                failures.append(f"{name}: F_{n + 2} > F_{n + 1}")
        if name == "iid" and max(fs) - min(fs) > 1e-12:
            failures.append("iid F_N not constant")
    elapsed = time.time() - t0
    report(3, not failures and elapsed < 1.0,
           f"monotone F_N over 3 exact sources to N=6 in {elapsed * 1000:.0f}ms"
           f"{'; ' + str(failures) if failures else ''}")


# --- criterion 4: alignment replication ---------------------------------------------


def test_criterion_4_alignment(corpus8, models):
    train_split, eval_split = corpus8
    t0 = time.time()
    weights, history = models("full", 0, train_split)
    tau_tan = alignment_tau(eval_split, DESK.augment, 10, 0,
                            tan_embed_fn(weights), crop_len=DESK.tan.sequence_length)
    tau_raw = alignment_tau(eval_split, DESK.augment, 10, 0,
                            raw_embed, crop_len=DESK.tan.sequence_length)
    elapsed = time.time() - t0
    trained_down = history[-1].mean_loss < history[0].mean_loss
    report(4, tau_tan >= 0.90 and tau_tan - tau_raw >= 0.05
           and trained_down and elapsed < 600.0,
           f"tau_tan={tau_tan:.4f} (>=0.90), tau_raw={tau_raw:.4f}, "
           f"gap={tau_tan - tau_raw:+.4f} (>=0.05), loss "
           f"{history[0].mean_loss:.3f}->{history[-1].mean_loss:.3f}, {elapsed:.0f}s")


# --- criteria 5 and 6: clustering replication and negative-sampling ablation --------


def _clustering_numbers(corpus32, models):
    rows = {}
    for seed in SEEDS:
        train_split, eval_split = corpus32[seed]
        feats = np.concatenate([raw_embed(s) for s in train_split.sequences])
        raw_lex = kmeans(feats, 16, seed=seed)
        raw_actons = [assign(raw_embed(s), raw_lex) for s in eval_split.sequences]
        row = {"raw": corpus_nmi(eval_split, raw_actons)}
        for label, mode in (("exclude", "exclude_same_clip"), ("all", "all_frames")):
            weights, _ = models(f"c32-{label}", seed, train_split, mode=mode)
            lex = build_lexicon(train_split, weights, k=16, seed=seed,
                                window=LEX_WINDOW)
            _, actons = tokenize_corpus(eval_split, weights, lex)
            row[label] = corpus_nmi(eval_split, actons)
        rows[seed] = row
    return rows


@pytest.fixture(scope="session")
def clustering(corpus32, models):
    return _clustering_numbers(corpus32, models)


def test_criterion_5_clustering_gap(clustering):
    gaps = [clustering[s]["exclude"] - clustering[s]["raw"] for s in SEEDS]
    detail = ", ".join(
        f"seed {s}: tan={clustering[s]['exclude']:.3f} raw={clustering[s]['raw']:.3f}"
        for s in SEEDS)
    report(5, float(np.mean(gaps)) >= 0.10,
           f"mean NMI gap {np.mean(gaps):+.4f} (>=0.10); {detail}")


def test_criterion_6_negative_sampling(clustering):
    wins = [clustering[s]["exclude"] > clustering[s]["all"] for s in SEEDS]
    detail = ", ".join(
        f"seed {s}: excl={clustering[s]['exclude']:.3f} all={clustering[s]['all']:.3f}"
        for s in SEEDS)
    report(6, sum(wins) >= 2,
           f"exclude-same-clip higher in {sum(wins)}/3 seeds (need >=2); {detail}")


# --- criterion 7: augmentation ablation ---------------------------------------------


def test_criterion_7_speed_ablation(corpus8, models):
    train_split, eval_split = corpus8
    drops = []
    details = []
    for seed in SEEDS:
        w_full, _ = models("full", seed, train_split)
        w_nospeed, _ = models("nospeed", seed, train_split, ranges=NOSPEED)
        t_full = alignment_tau(eval_split, DESK.augment, 10, seed,
                               tan_embed_fn(w_full), crop_len=DESK.tan.sequence_length)
        t_nos = alignment_tau(eval_split, DESK.augment, 10, seed,
                              tan_embed_fn(w_nospeed),
                              crop_len=DESK.tan.sequence_length)
        drops.append(t_full - t_nos)
        details.append(f"seed {seed}: {t_full:.3f} vs {t_nos:.3f}")
    report(7, float(np.mean(drops)) >= 0.03,
           f"mean tau drop without speed aug {np.mean(drops):+.4f} (>=0.03); "
           + ", ".join(details))


# --- criterion 8: tokenization invariants -------------------------------------------


def test_criterion_8_tokenization_invariants(corpus32, models):
    train_split, eval_split = corpus32[0]
    weights, _ = models("c32-exclude", 0, train_split)
    lex = build_lexicon(train_split, weights, k=16, seed=0, window=LEX_WINDOW)
    streams1, labels1 = tokenize_corpus(eval_split, weights, lex, threads=1)
    streams2, labels2 = tokenize_corpus(eval_split, weights, lex, threads=1)
    problems = []
    for seq, stream in zip(eval_split.sequences, streams1):
        covered = sum(e - s for s, e, _ in stream.segments)
        if stream.segments[0][0] != 0 or stream.frames != seq.frames \
                or covered != seq.frames:
            problems.append("tiling")
        if any(a1 == a2 for (_, _, a1), (_, _, a2)
               in zip(stream.segments, stream.segments[1:])):
            problems.append("adjacent-equal")
    if streams1 != streams2:
        problems.append("stream-nondeterminism")
    if not all(np.array_equal(a, b) for a, b in zip(labels1, labels2)):
        problems.append("label-nondeterminism")
    report(8, not problems,
           f"{len(streams1)} sequences tile exactly, adjacent segments differ, "
           f"two runs bit-identical{'; ' + str(set(problems)) if problems else ''}")


# --- criterion 9: detection pipeline ------------------------------------------------


def test_criterion_9_detection(detection_corpus, models):
    train_split, eval_split = detection_corpus
    weights, _ = models("detect", 0, train_split, epochs=60)
    lex = build_lexicon(train_split, weights, k=32, seed=0, window=LEX_WINDOW)
    _, train_actons = tokenize_corpus(train_split, weights, lex)
    cmap = learn_acton_class_map(train_actons, train_split.frame_labels, 32)
    score, rows = corpus_detection_map(eval_split, weights, lex, cmap,
                                       scales=[64, 128], nms_iou=0.2, theta=0.3)

    # exact invariance of the scorer under a monotone confidence transform
    dets = [(d.class_id, d.start, d.end, d.confidence) for _, d in rows]
    truth = [(0, 0, 10), (1, 30, 50)]
    base = detection_map(dets[:20], truth, 0.3) if dets else 0.0
    warped = [(c, s, e, np.tanh(3.0 * conf) + 5.0) for c, s, e, conf in dets[:20]]
    invariant = abs(detection_map(warped, truth, 0.3) - base) < 1e-12 if dets else False

    report(9, score >= 0.8 and invariant,
           f"mAP@0.3={score:.4f} (>=0.8) from {len(rows)} detections; "
           f"monotone-confidence invariance {'exact' if invariant else 'VIOLATED'}")


# --- criterion 10: composition ------------------------------------------------------


def test_criterion_10_composition(detection_corpus, models):
    train_split, _ = detection_corpus
    weights, _ = models("detect", 0, train_split, epochs=60)
    lex = build_lexicon(train_split, weights, k=32, seed=0, window=LEX_WINDOW)
    streams, _ = tokenize_corpus(train_split, weights, lex)
    library = build_instance_library(train_split.sequences, streams)

    threshold, blend = 1.0, 5
    bound_violations = 0
    for seed in range(100):
        motion = compose(library, word_count=4, boundary_threshold=threshold,
                         blend_frames=blend, rng=np.random.default_rng(seed))
        data = motion.sequence.data
        assert np.isfinite(data).all()
        steps = np.linalg.norm(np.diff(data, axis=0), axis=-1).max(axis=-1)
        intra = max(np.linalg.norm(np.diff(inst, axis=0), axis=-1).max()
                    for pool in library.instances.values() for inst in pool
                    if inst.shape[0] > 1)
        bound = max(threshold / blend, intra)
        for b in motion.splice_boundaries:
            lo, hi = max(0, b - 1), min(steps.shape[0], b + blend + 1)
            if steps[lo:hi].max() > bound + 1e-9:
                bound_violations += 1

    single = compose(library, word_count=1, boundary_threshold=threshold,
                     blend_frames=blend, rng=np.random.default_rng(11))
    pool = library.instances[single.words[0]]
    exact = any(inst.shape == single.sequence.data.shape
                and np.array_equal(inst, single.sequence.data) for inst in pool)

    report(10, bound_violations == 0 and exact,
           f"100 seeded compositions finite with splice bound held "
           f"({bound_violations} violations); single word bit-exact: {exact}")
