import itertools

import numpy as np
import pytest

from motiontok import metrics as metrics_module
from motiontok.lexicon import segment
from motiontok.metrics import (
    MetricsReport,
    detection_map,
    entropy_table,
    kendalls_tau,
    ngram_entropy,
    nmi,
    temporal_iou,
)
from testkit import (
    entropy_monotonicity_check,
    exact_block_entropies,
    metric_correlation,
    reference_all_point_ap,
    reference_kendalls_tau,
    stationary_distribution,
)


class TestKendallsTau:
    def test_identity_retrieval(self):
        emb = np.random.default_rng(0).normal(size=(8, 4))
        assert kendalls_tau(emb, emb) == pytest.approx(1.0)

    def test_reverse_retrieval(self):
        emb = np.random.default_rng(1).normal(size=(7, 3))
        assert kendalls_tau(emb, emb[::-1]) == pytest.approx(-1.0)

    def test_one_swap_hand_case(self):
        # B holds A's rows with the middle two swapped: of the 6 ordered pairs
        # exactly one is discordant, tau = (5 - 1) / 6 = 2/3
        a = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        b = a[[0, 2, 1, 3]]
        assert kendalls_tau(a, b) == pytest.approx(2.0 / 3.0)

    def test_retrieval_tie_goes_to_lowest_index(self):
        a = np.array([[0.0], [1.0], [2.0]])
        b = np.array([[5.0], [5.0], [5.0]])  # all frames retrieve index 0
        # every (p, q) pair ties: numerator 0
        assert kendalls_tau(a, b) == pytest.approx(0.0)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            kendalls_tau(np.zeros((1, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("rows", ["normal", "unit", "duplicated", "integer"])
    def test_matches_reference_loop(self, rows):
        # duplicated rows and integer coordinates make exact retrieval ties
        for case in range(100):
            rng = np.random.default_rng(case)
            f = int(rng.choice([2, 3, 8, 17, 32, 64, 128]))
            t_a, t_b = int(rng.integers(2, 30)), int(rng.integers(1, 30))
            a, b = rng.normal(size=(t_a, f)), rng.normal(size=(t_b, f))
            if rows == "unit":
                a /= np.linalg.norm(a, axis=1, keepdims=True)
                b /= np.linalg.norm(b, axis=1, keepdims=True)
            elif rows == "duplicated":
                b = b[rng.integers(0, t_b, size=t_b)]
                a[::2] = b[rng.integers(0, t_b, size=a[::2].shape[0])]
            elif rows == "integer":
                a, b = (rng.integers(-2, 3, size=x.shape).astype(float) for x in (a, b))
            tau = kendalls_tau(a, b)
            assert type(tau) is float
            assert tau == reference_kendalls_tau(a, b), case


class TestNmi:
    def test_identical_nonconstant(self):
        y = [0, 0, 1, 1, 2]
        assert nmi(y, y) == pytest.approx(1.0)

    def test_relabeled_identical(self):
        y = [0, 0, 1, 1, 2]
        c = [5, 5, 9, 9, 7]
        assert nmi(y, c) == pytest.approx(1.0)

    def test_independent_gives_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

    def test_hand_case_from_first_principles(self):
        # oracle computed directly from the definition on the contingency table
        y = np.array([0, 0, 1, 1])
        c = np.array([0, 0, 0, 1])
        h_y = 1.0
        h_c = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        h_y_given_c = 0.75 * (-(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3))
        expected = 2 * (h_y - h_y_given_c) / (h_y + h_c)
        assert expected == pytest.approx(0.3437110185, abs=1e-9)
        assert nmi(y, c) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 4, size=50)
        c = rng.integers(0, 3, size=50)
        assert nmi(y, c) == pytest.approx(nmi(c, y), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 4, size=60)
        c = rng.integers(0, 5, size=60)
        perm = {k: v for k, v in zip(range(5), [3, 0, 4, 1, 2])}
        c_perm = np.array([perm[x] for x in c])
        assert nmi(y, c) == pytest.approx(nmi(y, c_perm), abs=1e-12)

    def test_degenerate_marginals(self):
        assert nmi([1, 1, 1], [2, 2, 2]) == 1.0
        assert nmi([1, 1, 1], [0, 1, 2]) == 0.0
        assert nmi([0, 1, 2], [7, 7, 7]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi([0, 1], [0, 1, 2])


class TestNgramEntropy:
    def test_constant_stream(self):
        k1, f1 = ngram_entropy([[3, 3, 3, 3, 3]], 1)
        assert k1 == pytest.approx(0.0)
        k2, f2 = ngram_entropy([[3, 3, 3, 3, 3]], 2)
        assert k2 == pytest.approx(0.0) and f2 == pytest.approx(0.0)

    def test_abab_hand_count(self):
        stream = [0, 1, 0, 1, 0, 1, 0, 1]
        k1, _ = ngram_entropy([stream], 1)
        assert k1 == pytest.approx(1.0, abs=1e-12)
        k2, f2 = ngram_entropy([stream], 2)
        expected_k2 = -(4 / 7) * np.log2(4 / 7) - (3 / 7) * np.log2(3 / 7)
        assert k2 == pytest.approx(expected_k2, abs=1e-12)
        assert expected_k2 == pytest.approx(0.985228136, abs=1e-9)
        assert f2 == pytest.approx(expected_k2 - 1.0, abs=1e-12)

    def test_iid_uniform_law_of_large_numbers(self):
        rng = np.random.default_rng(4)
        stream = rng.integers(0, 4, size=100_000).tolist()
        _, f2 = ngram_entropy([stream], 2)
        assert f2 == pytest.approx(2.0, abs=0.02)

    def test_windows_do_not_cross_stream_boundaries(self):
        # two collections with identical empirical window distributions
        single = [[0, 1, 0, 1, 0, 1]]
        doubled = [[0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0, 1]]
        k_single, _ = ngram_entropy(single, 2)
        k_double, _ = ngram_entropy(doubled, 2)
        assert k_single == pytest.approx(k_double, abs=1e-12)

    def test_accepts_token_streams(self):
        stream = segment([5, 5, 2, 2, 5])
        k1, _ = ngram_entropy([stream], 1)
        # tokens are (5, 2, 5): p = (2/3, 1/3)
        assert k1 == pytest.approx(-(2 / 3) * np.log2(2 / 3) - (1 / 3) * np.log2(1 / 3))

    def test_insufficient_tokens(self):
        with pytest.raises(ValueError, match="^need a stream of at least 2 tokens, "
                                             "the longest has 1$"):
            ngram_entropy([[1]], 2)

    def test_no_stream_long_enough(self):
        # two tokens in total, but no stream holds a bigram: F_2 is undefined
        with pytest.raises(ValueError, match="at least 2 tokens"):
            ngram_entropy([segment(np.zeros(5, int)), segment(np.ones(4, int))], 2)

    def test_equals_the_two_block_entropies(self):
        # the direct form ngram_entropy had before it read entropy_table's last
        # row: K_N and K_N - K_{N-1} from the same block counts, to the bit
        rng = np.random.default_rng(8)
        streams = [rng.integers(0, 5, size=size).tolist() for size in (40, 7, 1, 19)]
        for n in range(1, 6):
            k_n = metrics_module._block_entropy(streams, n)
            k_prev = metrics_module._block_entropy(streams, n - 1) if n > 1 else 0.0
            assert ngram_entropy(streams, n) == (k_n, k_n - k_prev)

    def test_table_stops_at_longest_stream(self):
        # no stream holds a trigram: the table ends at N = 2, like ngram_entropy
        table = entropy_table([[0, 1], [1, 0]], 3)
        assert [row[0] for row in table] == [1, 2]
        for n, k_n, f_n in table:
            assert (k_n, f_n) == pytest.approx(ngram_entropy([[0, 1], [1, 0]], n))


def _brute_force_markov_entropies(pi, p, n_max):
    """Oracle: enumerate all words, sum -p log2 p, fully independently."""
    m = len(pi)
    rows = []
    k_prev = 0.0
    for n in range(1, n_max + 1):
        k_n = 0.0
        for word in itertools.product(range(m), repeat=n):
            prob = pi[word[0]]
            for a, b in zip(word, word[1:]):
                prob *= p[a][b]
            if prob > 0:
                k_n -= prob * np.log2(prob)
        rows.append((n, k_n, k_n - k_prev))
        k_prev = k_n
    return rows


class TestExactEntropies:
    MARKOV = np.array([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.25, 0.25, 0.5]])

    def test_matches_brute_force_enumeration(self):
        pi = stationary_distribution(self.MARKOV)
        got = exact_block_entropies(pi, self.MARKOV, 5)
        want = _brute_force_markov_entropies(pi, self.MARKOV, 5)
        for (n1, k1, f1), (n2, k2, f2) in zip(got, want):
            assert n1 == n2
            assert k1 == pytest.approx(k2, abs=1e-12)
            assert f1 == pytest.approx(f2, abs=1e-12)

    def test_markov_conditional_entropy_constant_from_two(self):
        pi = stationary_distribution(self.MARKOV)
        rows = exact_block_entropies(pi, self.MARKOV, 6)
        fs = [f for _, _, f in rows]
        # F_2 = F_3 = ... for a first-order chain, F_1 >= F_2
        for f in fs[2:]:
            assert f == pytest.approx(fs[1], abs=1e-12)
        assert fs[0] >= fs[1] - 1e-12

    def test_deterministic_cycle(self):
        cycle = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])
        rows = exact_block_entropies(np.full(3, 1 / 3), cycle, 5)
        fs = [f for _, _, f in rows]
        assert fs[0] == pytest.approx(np.log2(3), abs=1e-12)
        for f in fs[1:]:
            assert f == pytest.approx(0.0, abs=1e-12)

    def test_iid_constant_f(self):
        marginal = np.array([0.5, 0.3, 0.2])
        iid = np.tile(marginal, (3, 1))
        rows = exact_block_entropies(marginal, iid, 5)
        h = -(marginal * np.log2(marginal)).sum()
        for _, _, f in rows:
            assert f == pytest.approx(h, abs=1e-12)

    def test_stationary_distribution_fixed_point(self):
        pi = stationary_distribution(self.MARKOV)
        np.testing.assert_allclose(pi @ self.MARKOV, pi, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0)


class TestEntropyMonotonicityCheck:
    def test_empirical_table_reported_without_asserting(self):
        # the abab stream empirically violates monotonicity; still reported
        monotone, table = entropy_monotonicity_check([[0, 1] * 4], 3)
        assert len(table) == 3
        assert isinstance(monotone, bool)

    def test_long_markov_sample_close_to_exact(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8]])
        pi = stationary_distribution(p)
        rng = np.random.default_rng(8)
        state = 0
        stream = []
        for _ in range(200_000):
            stream.append(state)
            state = int(rng.choice(2, p=p[state]))
        table = entropy_table([stream], 3)
        exact = exact_block_entropies(pi, p, 3)
        for (_, k_e, f_e), (_, k_x, f_x) in zip(table, exact):
            assert k_e == pytest.approx(k_x, abs=0.01)
            assert f_e == pytest.approx(f_x, abs=0.01)


class TestDetectionMap:
    def test_exact_detections_score_one(self):
        truth = [(0, 0, 10), (1, 20, 30), (0, 40, 45)]
        dets = [(c, s, e, 0.5) for c, s, e in truth]
        assert detection_map(dets, truth, 0.3) == pytest.approx(1.0)

    def test_zero_overlap_scores_zero(self):
        truth = [(0, 0, 10)]
        dets = [(0, 50, 60, 0.9)]
        assert detection_map(dets, truth, 0.3) == pytest.approx(0.0)

    def test_hand_pr_curve(self):
        # TP at rank 1 (IoU 1), FP at rank 2: precision points 1/1 then 1/2,
        # recall saturates at 1 after the first detection -> AP = 1
        truth = [(0, 0, 10)]
        dets = [(0, 0, 10, 0.9), (0, 20, 30, 0.8)]
        assert detection_map(dets, truth, 0.3) == pytest.approx(1.0)

    def test_monotone_confidence_invariance(self):
        rng = np.random.default_rng(5)
        truth = [(0, 0, 10), (0, 30, 50), (1, 60, 70)]
        dets = [(int(rng.integers(0, 2)), int(s), int(s) + 8,
                 float(rng.random())) for s in rng.integers(0, 80, size=12)]
        base = detection_map(dets, truth, 0.3)
        squashed = [(c, s, e, np.tanh(3 * conf) + 7) for c, s, e, conf in dets]
        assert detection_map(squashed, truth, 0.3) == pytest.approx(base, abs=1e-12)

    def test_each_truth_matched_once(self):
        truth = [(0, 0, 10)]
        dets = [(0, 0, 10, 0.9), (0, 0, 10, 0.8)]  # duplicate detection
        # second one is a FP: AP still 1 because recall hits 1 at rank 1
        assert detection_map(dets, truth, 0.3) == pytest.approx(1.0)
        # but flipping confidences cannot change that (greedy by confidence)
        dets = [(0, 0, 10, 0.8), (0, 0, 10, 0.9)]
        assert detection_map(dets, truth, 0.3) == pytest.approx(1.0)

    def test_all_point_ap_matches_reference_loop(self):
        # precision/recall curves as detection_map builds them, from random
        # hit lists (runs of hits and misses make envelope ties), plus
        # arbitrary non-monotone precision values
        rng = np.random.default_rng(0)
        for case in range(500):
            n = int(rng.integers(0, 40))
            if case % 2:
                tp = (rng.random(n) < rng.random()).astype(float)
                cum = np.cumsum(tp)
                truths = max(1, int(tp.sum()) + int(rng.integers(0, 5)))  # >= the hits
                precision = cum / (np.arange(n) + 1)
                recall = cum / truths
            else:
                precision = rng.integers(0, 4, size=n) / 3.0
                recall = np.sort(rng.integers(0, 6, size=n)) / 5.0
            got = metrics_module._all_point_ap(precision, recall)
            assert repr(got) == repr(reference_all_point_ap(precision, recall)), case

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            detection_map([(0, 5, 5, 0.9)], [(0, 0, 10)], 0.3)

    def test_iou(self):
        assert temporal_iou((0, 10), (5, 15)) == pytest.approx(5 / 15)
        assert temporal_iou((0, 10), (10, 20)) == 0.0


class TestMetricCorrelation:
    def test_affine_relation(self):
        a = np.array([1.0, 2, 3, 4, 5])
        r, rho, tau = metric_correlation(a, 2 * a + 3)
        assert (r, rho, tau) == (pytest.approx(1.0), pytest.approx(1.0),
                                 pytest.approx(1.0))

    def test_negation(self):
        a = np.array([1.0, 2, 3, 4, 5])
        r, rho, tau = metric_correlation(a, -a)
        assert r == pytest.approx(1.0)
        assert rho == pytest.approx(-1.0)
        assert tau == pytest.approx(-1.0)

    def test_monotone_nonlinear(self):
        a = np.linspace(1, 3, 12)
        r, rho, tau = metric_correlation(a, a ** 3)
        assert rho == pytest.approx(1.0)
        assert tau == pytest.approx(1.0)
        assert r < 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            metric_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            metric_correlation([1.0, 2.0], [1.0, 2.0])


class TestMetricsReport:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            MetricsReport(kendalls_tau=1.5)
        with pytest.raises(ValueError):
            MetricsReport(nmi=-0.2)

    def test_serialization(self, tmp_path):
        report = MetricsReport(kendalls_tau=0.9, nmi=0.8, f2=1.2,
                               entropy_rows=[(1, 2.0, 2.0), (2, 3.2, 1.2)],
                               provenance={"seed": 1})
        report.save(tmp_path)
        text = (tmp_path / "metrics.txt").read_text()
        assert "kendalls_tau=0.9" in text and "K_2=3.2" in text
        as_json = (tmp_path / "metrics.json").read_text()
        assert '"nmi": 0.8' in as_json
