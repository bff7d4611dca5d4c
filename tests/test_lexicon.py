import numpy as np
import pytest

from motiontok.data import generate_synthetic_corpus
from motiontok.lexicon import (
    Lexicon,
    TokenStream,
    assign,
    build_lexicon,
    corpus_features,
    kmeans,
    load_lexicon,
    save_lexicon,
    segment,
    tokenize_corpus,
    write_token_streams,
)
from motiontok import lexicon as lexicon_module
from motiontok.tan import TanConfig, embed_sequence, init_weights
from testkit import reference_kmeans, reference_sq_dists

TINY = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2,
                 projection_dim=8, sequence_length=8)


class TestKmeans:
    def test_k_equals_m_zero_inertia(self):
        pts = np.random.default_rng(0).normal(size=(6, 3))
        lex = kmeans(pts, k=6, seed=1)
        assert lex.metadata["inertia"] == pytest.approx(0.0, abs=1e-18)
        # every point is its own centroid, up to permutation
        d = ((pts[:, None] - lex.centroids[None]) ** 2).sum(-1)
        assert np.allclose(d.min(axis=1), 0.0)
        assert len(set(d.argmin(axis=1))) == 6

    def test_k_one_gives_global_mean(self):
        pts = np.random.default_rng(1).normal(size=(40, 4))
        lex = kmeans(pts, k=1, seed=0)
        np.testing.assert_allclose(lex.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_two_separated_blobs_recovered(self):
        # independent oracle: brute-force nearest-true-mean assignment
        rng = np.random.default_rng(7)
        sigma = 0.5
        true_means = np.array([[0.0, 0.0], [10 * sigma * 2, 0.0]])
        pts = np.concatenate([
            true_means[0] + sigma * rng.normal(size=(50, 2)),
            true_means[1] + sigma * rng.normal(size=(50, 2)),
        ])
        lex = kmeans(pts, k=2, seed=3)
        errs = []
        for perm in ([0, 1], [1, 0]):
            errs.append(max(np.linalg.norm(lex.centroids[p] - true_means[i])
                            for i, p in enumerate(perm)))
        assert min(errs) < 0.5 * sigma
        # brute-force check: every point lands with its generating blob
        labels = assign(pts, lex)
        best_perm = [0, 1] if errs[0] <= errs[1] else [1, 0]
        expected = np.array([best_perm[0]] * 50 + [best_perm[1]] * 50)
        assert (labels == expected).mean() == 1.0

    def test_m_below_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), k=4)

    def test_seed_deterministic(self):
        pts = np.random.default_rng(5).normal(size=(60, 3))
        a = kmeans(pts, k=5, seed=11)
        b = kmeans(pts, k=5, seed=11)
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_nonincreasing_across_lloyd_iterations(self):
        # re-run Lloyd by hand from the same seeding and track inertia
        pts = np.random.default_rng(9).normal(size=(80, 3))
        inertias = []
        for iters in range(1, 8):
            lex = kmeans(pts, k=4, seed=2, max_iters=iters)
            inertias.append(lex.metadata["inertia"])
        for a, b in zip(inertias, inertias[1:]):
            assert b <= a + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("case", ["blobs", "duplicates"])
    def test_matches_loop_reference_bit_for_bit(self, seed, case):
        rng = np.random.default_rng(seed)
        if case == "blobs":
            pts = rng.normal(size=(5, 6))[rng.integers(0, 5, 90)] + 0.4 * rng.normal(size=(90, 6))
        else:
            # 4 distinct points: k > 4 seeds duplicate centroids, whose
            # clusters come out empty and are re-seeded
            pts = rng.normal(size=(4, 3))[rng.integers(0, 4, 40)]
        m = len(pts)
        for k in (1, 2, 7, m):
            for max_iters in range(1, 8):
                lex = kmeans(pts, k, seed=seed, max_iters=max_iters)
                centroids, metadata = reference_kmeans(pts, k, seed=seed, max_iters=max_iters)
                assert lex.centroids.tobytes() == centroids.tobytes(), (k, max_iters)
                assert lex.metadata == metadata, (k, max_iters)

    def test_one_dimension_matches_reference_to_rounding(self):
        # numpy's mean sums a single column pairwise, kmeans in point order
        pts = np.random.default_rng(4).normal(size=(300, 1))
        for k in (1, 3, 8):
            lex = kmeans(pts, k, seed=k)
            centroids, metadata = reference_kmeans(pts, k, seed=k)
            np.testing.assert_allclose(lex.centroids, centroids, rtol=0, atol=1e-15)
            assert lex.metadata["inertia"] == pytest.approx(metadata["inertia"], rel=1e-12)

    @pytest.mark.parametrize("k", [0, -2, 2.0, True, "3"])
    def test_k_must_be_integer_at_least_one(self, k):
        with pytest.raises(ValueError, match="k must be"):
            kmeans(np.random.default_rng(0).normal(size=(10, 2)), k)

    @pytest.mark.parametrize("seed", [-1, 1.0, True, "0"])
    def test_seed_must_be_integer_at_least_zero(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            kmeans(np.random.default_rng(0).normal(size=(10, 2)), 2, seed=seed)

    @pytest.mark.parametrize("max_iters", [0, -1, 2.0, True])
    def test_max_iters_must_be_integer_at_least_one(self, max_iters):
        # max_iters=0 used to return the k-means++ seeds without a Lloyd step
        with pytest.raises(ValueError, match="max_iters must be an integer >= 1"):
            kmeans(np.random.default_rng(0).normal(size=(10, 2)), 2, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf, True, "0"])
    def test_tol_must_be_finite_at_least_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            kmeans(np.random.default_rng(0).normal(size=(10, 2)), 2, tol=tol)

    def test_zero_tol_and_numpy_integers_accepted(self):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        a = kmeans(pts, np.int64(2), seed=np.int64(3), max_iters=np.int64(5), tol=0)
        b = kmeans(pts, 2, seed=3, max_iters=5, tol=0.0)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    @pytest.mark.parametrize("points", [np.zeros(8), np.zeros((2, 4, 2)), np.zeros((8, 0))])
    def test_points_must_be_two_dimensional(self, points):
        with pytest.raises(ValueError, match="points must be"):
            kmeans(points, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_points_must_be_finite(self, bad):
        pts = np.random.default_rng(0).normal(size=(10, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            kmeans(pts, 2)

    def test_empty_cluster_reseeded(self):
        # duplicate points force empty clusters when k exceeds distinct values
        pts = np.array([[0.0, 0], [0, 0], [0, 0], [5, 5], [5, 5], [9, 0]])
        lex = kmeans(pts, k=3, seed=0)
        labels = assign(pts, lex)
        assert len(set(labels.tolist())) == 3


class TestAssign:
    def test_exact_match_wins(self):
        lex = Lexicon(centroids=np.array([[0.0, 0], [1, 0], [2, 0], [3, 3]]))
        labels = assign(np.array([[3.0, 3.0]]), lex)
        assert labels[0] == 3

    def test_tie_breaks_to_lowest_id(self):
        lex = Lexicon(centroids=np.array([[0.0, 0], [-1, 0], [9, 9], [   1, 0]]))
        # point equidistant to centroids 1 and 3
        labels = assign(np.array([[0.0, 0.5]]), lex)
        assert labels[0] == 0  # exact centroid 0 at distance 0.5; sanity
        labels = assign(np.array([[0.0, 2.0]]), lex)
        assert labels[0] == 0
        # true tie between ids 1 and 3
        lex2 = Lexicon(centroids=np.array([[5.0, 5], [-1, 0], [9, 9], [1, 0]]))
        labels = assign(np.array([[0.0, 0.0]]), lex2)
        assert labels[0] == 1

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        frames = rng.normal(size=(20, 3))
        cents = rng.normal(size=(4, 3))
        theta = 0.83
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0], [0, 0, 1.0]])
        before = assign(frames, Lexicon(centroids=cents))
        after = assign(frames @ rot.T, Lexicon(centroids=cents @ rot.T))
        assert np.array_equal(before, after)

    def test_matches_brute_force_on_adversarial_sets(self):
        rng = np.random.default_rng(12)
        ties = 0
        for offset in (0.0, 1.0, 1e3, 1e6):
            for spread in (1.0, 1e-3, 1e-6):
                # centroids on a small grid, three of them duplicated
                grid = offset + spread * rng.integers(-3, 4, size=(12, 4)).astype(float)
                cents = np.concatenate([grid, grid[[0, 5, 11]]])
                i, j = rng.integers(0, len(cents), size=(2, 40))
                frames = np.concatenate([
                    cents,                                               # on a centroid
                    (cents[i] + cents[j]) / 2,                           # midpoints
                    offset + spread * rng.integers(-6, 7, size=(40, 4)) / 2,  # half-grid
                    offset + spread * rng.normal(size=(40, 4)),
                ])
                exact = reference_sq_dists(frames, cents)
                ties += int(((exact == exact.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
                labels = assign(frames, Lexicon(centroids=cents))
                assert np.array_equal(labels, exact.argmin(axis=1)), (offset, spread)
        assert ties > 100  # the sets do exercise exact ties

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frames_rejected(self, bad):
        frames = np.zeros((3, 2))
        frames[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            assign(frames, Lexicon(centroids=np.eye(2)))

    def test_dim_mismatch_rejected(self):
        lex = Lexicon(centroids=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            assign(np.zeros((4, 5)), lex)


class TestSegment:
    def test_hand_case(self):
        stream = segment([1, 1, 2, 2, 2, 1])
        assert stream.segments == ((0, 2, 1), (2, 5, 2), (5, 6, 1))

    def test_constant_sequence_single_segment(self):
        stream = segment([4, 4, 4, 4, 4])
        assert stream.segments == ((0, 5, 4),)

    def test_alternating_unit_segments(self):
        stream = segment([0, 1, 0, 1])
        assert stream.segments == ((0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 1))

    def test_tokens_and_frame_actons(self):
        labels = [3, 3, 1, 2, 2]
        stream = segment(labels)
        assert stream.tokens() == [3, 1, 2]
        starts, ends, actons = np.array(stream.segments).T
        assert np.array_equal(np.repeat(actons, ends - starts), labels)

    def test_stream_invariants_enforced(self):
        with pytest.raises(ValueError):
            TokenStream(segments=((0, 2, 1), (2, 4, 1)))  # same acton adjacent
        with pytest.raises(ValueError):
            TokenStream(segments=((0, 2, 1), (3, 4, 2)))  # gap
        with pytest.raises(ValueError):
            TokenStream(segments=((0, 2, 1), (1, 4, 2)))  # overlap

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            segment([])


@pytest.fixture(scope="module")
def small_setup():
    corpus = generate_synthetic_corpus(3, 5, 3, 12, seed=13)
    weights = init_weights(TINY, joints=corpus.sequences[0].joints, seed=0)
    lexicon = build_lexicon(corpus, weights, k=4, seed=5)
    return corpus, weights, lexicon


class TestTokenizeCorpus:
    def test_full_coverage(self, small_setup):
        corpus, weights, lexicon = small_setup
        streams, labels = tokenize_corpus(corpus, weights, lexicon)
        for seq, stream, lab in zip(corpus.sequences, streams, labels):
            assert stream.frames == seq.frames
            assert sum(e - s for s, e, _ in stream.segments) == seq.frames
            assert lab.shape == (seq.frames,)

    def test_adjacent_segments_differ(self, small_setup):
        corpus, weights, lexicon = small_setup
        streams, _ = tokenize_corpus(corpus, weights, lexicon)
        for stream in streams:
            for (s1, e1, a1), (s2, e2, a2) in zip(stream.segments, stream.segments[1:]):
                assert a1 != a2

    def test_deterministic(self, small_setup):
        corpus, weights, lexicon = small_setup
        s1, l1 = tokenize_corpus(corpus, weights, lexicon)
        s2, l2 = tokenize_corpus(corpus, weights, lexicon)
        assert s1 == s2
        assert all(np.array_equal(a, b) for a, b in zip(l1, l2))

    def test_constant_assignment_single_segment(self):
        # a lexicon whose centroid 2 dominates: every frame lands on it
        corpus = generate_synthetic_corpus(2, 1, 2, 8, seed=3)
        weights = init_weights(TINY, joints=corpus.sequences[0].joints, seed=1)
        far = np.full((4, TINY.projection_dim), 100.0)
        far[2] = 0.0  # unit-sphere projections are all within distance 1 of origin
        lexicon = Lexicon(centroids=far, metadata={"feature_space": "projection"})
        streams, _ = tokenize_corpus(corpus, weights, lexicon)
        assert streams[0].segments == ((0, corpus.sequences[0].frames, 2),)

    def test_hidden_space_switch(self, small_setup):
        corpus, weights, _ = small_setup
        lex_hidden = build_lexicon(corpus, weights, k=4, seed=5, space="hidden")
        assert lex_hidden.dim == TINY.hidden_dim
        streams, _ = tokenize_corpus(corpus, weights, lex_hidden)
        assert streams[0].frames == corpus.sequences[0].frames


    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_embedding_loop_per_corpus(self, small_setup, monkeypatch, threads):
        # corpus_features is the one loop that embeds a corpus, and it looks
        # up lexicon.embed_sequence per sequence: the benchmark's tracer wraps
        # that name to count the frames the lexicon stages embed
        corpus, weights, lexicon = small_setup
        index = {id(seq): i for i, seq in enumerate(corpus.sequences)}
        calls = []

        def recorded(seq, *args, **kwargs):
            calls.append(index[id(seq)])
            return embed_sequence(seq, *args, **kwargs)

        monkeypatch.setattr(lexicon_module, "embed_sequence", recorded)
        features = corpus_features(corpus, weights, window=4, threads=threads)
        streams, labels = tokenize_corpus(corpus, weights, lexicon, threads)
        built = build_lexicon(corpus, weights, k=4, seed=5, threads=threads)
        monkeypatch.undo()
        n = len(corpus.sequences)
        for run in range(3):
            # pool workers may start out of order; the results keep corpus order
            ran = calls[run * n:(run + 1) * n]
            assert (ran if threads == 1 else sorted(ran)) == list(range(n))
        assert len(calls) == 3 * n
        for got, seq in zip(features, corpus.sequences):
            assert got.tobytes() == embed_sequence(seq, weights, window=4).tobytes()
        ref_streams, ref_labels = tokenize_corpus(corpus, weights, lexicon)
        assert streams == ref_streams
        assert all(a.tobytes() == b.tobytes() for a, b in zip(labels, ref_labels))
        assert built.centroids.tobytes() == lexicon.centroids.tobytes()
        assert built.metadata == lexicon.metadata


class TestLexiconIO:
    def test_roundtrip(self, tmp_path, small_setup):
        _, _, lexicon = small_setup
        path = save_lexicon(lexicon, tmp_path / "lex.bin")
        back = load_lexicon(path)
        assert np.array_equal(back.centroids, lexicon.centroids)
        assert back.metadata == lexicon.metadata

    def test_reject_junk(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"nope\n1234")
        with pytest.raises(ValueError):
            load_lexicon(p)

    def test_token_stream_export(self, tmp_path, small_setup):
        corpus, weights, lexicon = small_setup
        streams, _ = tokenize_corpus(corpus, weights, lexicon)
        path = write_token_streams(streams, tmp_path / "tok.tsv",
                                   header_lines=["seed=5"])
        lines = (tmp_path / "tok.tsv").read_text().splitlines()
        assert lines[0] == "# seed=5"
        assert lines[1] == "sequence\tstart\tend\tacton"
        row = lines[2].split("\t")
        assert len(row) == 4 and row[0] == "0" and row[1] == "0"
