import weakref

import numpy as np
import pytest

from motiontok import autodiff as ad
from motiontok.autodiff import Tensor
from motiontok.data import generate_synthetic_corpus
from motiontok.tan import TanConfig, weights_digest
from motiontok.train import (
    ALL_FRAMES,
    EXCLUDE_SAME_CLIP,
    TrainConfig,
    frame_nt_xent,
    lr_at,
    tcc_loss,
    tcn_loss,
    train_tan,
)

TINY_TAN = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2,
                     projection_dim=8, sequence_length=12)


def negative_set(n: int, i: int, mode: str, shape: tuple[int, int]) -> list[tuple[int, int]]:
    """Loss oracle: negative (clip, frame) indices over the opposite view for
    reference (n, i), enumerated from the definition of each mode."""
    clips, frames = shape
    if not (0 <= n < clips and 0 <= i < frames):
        raise ValueError(f"reference ({n}, {i}) outside batch shape {shape}")
    if mode == ALL_FRAMES:
        return [(k, j) for k in range(clips) for j in range(frames) if k != n or j != i]
    if mode == EXCLUDE_SAME_CLIP:
        return [(k, j) for k in range(clips) for j in range(frames) if k != n]
    raise ValueError(f"unknown negative_mode {mode!r}")


class TestNegativeSet:
    def test_all_frames_enumeration(self):
        out = negative_set(0, 0, ALL_FRAMES, (2, 3))
        assert out == [(0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_exclude_same_clip_enumeration(self):
        out = negative_set(0, 0, EXCLUDE_SAME_CLIP, (2, 3))
        assert out == [(1, 0), (1, 1), (1, 2)]

    def test_single_clip_exclude_is_empty(self):
        assert negative_set(0, 1, EXCLUDE_SAME_CLIP, (1, 4)) == []

    def test_never_contains_reference(self):
        for mode in (ALL_FRAMES, EXCLUDE_SAME_CLIP):
            assert (1, 2) not in negative_set(1, 2, mode, (3, 4))


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestFrameNtXent:
    def test_closed_form_single_negative(self):
        # positive similarity 1, one opposite-view negative at similarity -1
        e0 = np.array([1.0, 0.0])
        v = Tensor(np.stack([e0, -e0]))
        loss = frame_nt_xent([v], [v], [[(0, 0)]], mode=ALL_FRAMES, tau=1.0)
        assert loss.item() == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-12)

    def test_uniform_similarities_log1p_m(self):
        # all frames identical: every similarity equals 1, |D| = m
        t = 5
        v = Tensor(np.tile(_unit([1.0, 1.0]), (t, 1)))
        corr = [[(i, i) for i in range(t)]]
        loss = frame_nt_xent([v], [v], corr, mode=ALL_FRAMES, tau=0.7)
        assert loss.item() == pytest.approx(np.log(1 + (t - 1)), abs=1e-12)

    def test_sharpening_limit(self):
        e0 = np.array([1.0, 0.0])
        v = Tensor(np.stack([e0, -e0]))
        loss = frame_nt_xent([v], [v], [[(0, 0)]], mode=ALL_FRAMES, tau=1e-3)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            va = Tensor(_unit(rng.normal(size=(4, 6))))
            vb = Tensor(_unit(rng.normal(size=(4, 6))))
            corr = [[(i, i) for i in range(4)], [(0, 0), (2, 2)]]
            loss = frame_nt_xent([va, vb], [vb, va], corr, mode=ALL_FRAMES, tau=0.2)
            assert loss.item() >= 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        va = [Tensor(_unit(rng.normal(size=(5, 4)))) for _ in range(2)]
        vb = [Tensor(_unit(rng.normal(size=(6, 4)))) for _ in range(2)]
        corr = [[(0, 1), (2, 3), (4, 5)], [(1, 0), (3, 2)]]
        loss_ab = frame_nt_xent(va, vb, corr, mode=EXCLUDE_SAME_CLIP, tau=0.3)
        corr_t = [[(b, a) for a, b in c] for c in corr]
        loss_ba = frame_nt_xent(vb, va, corr_t, mode=EXCLUDE_SAME_CLIP, tau=0.3)
        assert loss_ab.item() == pytest.approx(loss_ba.item(), abs=1e-12)

    def test_identical_clips_still_welldefined_in_exclude_mode(self):
        rng = np.random.default_rng(2)
        clip = Tensor(_unit(rng.normal(size=(4, 5))))
        corr = [[(i, i) for i in range(4)]] * 2
        loss = frame_nt_xent([clip, clip], [clip, clip], corr,
                             mode=EXCLUDE_SAME_CLIP, tau=0.5)
        assert np.isfinite(loss.item())

    def test_single_clip_exclude_mode_rejected(self):
        v = Tensor(_unit(np.random.default_rng(3).normal(size=(3, 4))))
        with pytest.raises(ValueError, match="batch_size >= 2"):
            frame_nt_xent([v], [v], [[(0, 0)]], mode=EXCLUDE_SAME_CLIP, tau=0.5)

    def test_uncorresponded_frames_act_as_negatives(self):
        rng = np.random.default_rng(4)
        va = Tensor(_unit(rng.normal(size=(2, 4))))
        vb_full = Tensor(_unit(rng.normal(size=(3, 4))))
        vb_trim = Tensor(vb_full.values[:2])
        # same single positive; the full view adds one uncorresponded negative,
        # which strictly enlarges the softmax denominator
        l_full = frame_nt_xent([va], [vb_full], [[(0, 0)]], ALL_FRAMES, 0.5)
        l_trim = frame_nt_xent([va], [vb_trim], [[(0, 0)]], ALL_FRAMES, 0.5)
        assert l_full.item() > l_trim.item()

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(5)
        vb = [Tensor(_unit(rng.normal(size=(4, 5)))),
              Tensor(_unit(rng.normal(size=(3, 5))))]
        corr = [[(0, 0), (1, 2), (3, 3)], [(2, 1)]]

        def f(t):
            # differentiate through the normalization so the probe point
            # satisfies the loss's unit-norm precondition
            v = ad.l2_normalize(t)
            parts = [ad.slice_tensor(v, (slice(0, 4),)),
                     ad.slice_tensor(v, (slice(4, 7),))]
            return frame_nt_xent(parts, vb, corr, mode=EXCLUDE_SAME_CLIP, tau=0.3)

        x = ad.parameter(rng.normal(size=(7, 5)))
        assert ad.grad_check(f, x, eps=1e-4) < 1e-4


class TestLrSchedule:
    CFG = TrainConfig(epochs=13, warmup_epochs=2, peak_lr=2.5e-5, seed=0)

    def test_end_of_warmup_exact_peak(self):
        assert lr_at(2, self.CFG) == pytest.approx(2.5e-5, abs=0)

    def test_final_step_near_zero(self):
        assert lr_at(12, self.CFG) <= 1e-9

    def test_halfway_annealing_half_peak(self):
        # warmup ends at step 2, annealing spans steps 2..12; step 7 is halfway
        assert lr_at(7, self.CFG) == pytest.approx(2.5e-5 / 2)

    def test_warmup_ramp_linear_from_zero(self):
        assert lr_at(0, self.CFG) == 0.0
        assert lr_at(1, self.CFG) == pytest.approx(2.5e-5 / 2)

    def test_continuous_at_boundary(self):
        cfg = TrainConfig(epochs=20, warmup_epochs=5, peak_lr=1e-3, seed=0)
        spe = 4
        before = lr_at(5 * spe - 1, cfg, steps_per_epoch=spe)
        at = lr_at(5 * spe, cfg, steps_per_epoch=spe)
        after = lr_at(5 * spe + 1, cfg, steps_per_epoch=spe)
        assert before < at and after < at
        assert at == pytest.approx(1e-3)
        assert at - before < 1e-3 / (5 * spe) + 1e-12

    def test_monotone_sections(self):
        cfg = TrainConfig(epochs=30, warmup_epochs=10, peak_lr=1.0, seed=0)
        values = [lr_at(s, cfg) for s in range(30)]
        assert all(values[i] <= values[i + 1] for i in range(9))
        assert all(values[i] >= values[i + 1] for i in range(10, 29))


class TestTcnLoss:
    def test_margin_satisfied_gives_zero(self):
        # d(a, p) = 0 everywhere, d(a, n) = 3, margin 2
        v_a = Tensor(np.zeros((6, 3)))
        v_b = Tensor(np.tile([3.0, 0.0, 0.0], (12, 1)))
        rng = np.random.default_rng(0)
        loss = tcn_loss(v_a, v_b, anchors=4, rng=rng, margin=2.0,
                        pos_window=2, neg_multiplier=2)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_case_term_three(self):
        # d(a, p) = 2 between the two anchor-view rows, every negative at d = 1
        v_a = Tensor(np.sqrt(2.0) * np.eye(2, 8))
        v_b = Tensor(np.tile(np.sqrt(2.0) / 2 * (np.arange(8) < 2), (16, 1)))
        rng = np.random.default_rng(1)
        loss = tcn_loss(v_a, v_b, anchors=2, rng=rng, margin=2.0,
                        pos_window=2, neg_multiplier=3)
        assert loss.item() == pytest.approx(3.0, abs=1e-12)

    def test_positive_equals_negative_gives_margin(self):
        v = Tensor(np.tile([0.3, -0.7], (10, 1)))
        rng = np.random.default_rng(2)
        loss = tcn_loss(v, v, anchors=3, rng=rng, margin=2.0,
                        pos_window=1, neg_multiplier=2)
        assert loss.item() == pytest.approx(2.0, abs=1e-12)

    def test_too_short_for_exclusion_interval(self):
        v = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        with pytest.raises(ValueError, match="exclusion"):
            tcn_loss(v, v, anchors=2, rng=np.random.default_rng(0),
                     margin=2.0, pos_window=2, neg_multiplier=1)

    def test_gradient(self):
        rng_data = np.random.default_rng(4)
        v_b = Tensor(rng_data.normal(size=(14, 4)))

        def f(t):
            return tcn_loss(t, v_b, anchors=3, rng=np.random.default_rng(7),
                            margin=1.0, pos_window=2, neg_multiplier=2)

        x = ad.parameter(rng_data.normal(size=(14, 4)) * 2.0)
        assert ad.grad_check(f, x, eps=1e-5) < 1e-4


class TestTccLoss:
    def test_orthonormal_views_sharp_softmax(self):
        v = Tensor(np.eye(6))
        loss = tcc_loss(v, v, tau_soft=1e-3)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_single_frame_zero(self):
        v = Tensor(np.array([[0.6, 0.8]]))
        assert tcc_loss(v, v).item() == pytest.approx(0.0, abs=1e-12)

    def test_invariant_to_view_b_permutation(self):
        rng = np.random.default_rng(5)
        v_a = Tensor(_unit(rng.normal(size=(5, 4))))
        vb = _unit(rng.normal(size=(7, 4)))
        l1 = tcc_loss(v_a, Tensor(vb), tau_soft=0.2)
        l2 = tcc_loss(v_a, Tensor(vb[::-1].copy()), tau_soft=0.2)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        v_b = Tensor(rng.normal(size=(5, 3)))
        f = lambda t: tcc_loss(t, v_b, tau_soft=0.5)
        x = ad.parameter(rng.normal(size=(4, 3)))
        assert ad.grad_check(f, x, eps=1e-4) < 1e-4


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(3, 8, 3, 16, seed=21)


class TestTrainLoop:

    def _cfg(self, epochs, **kw):
        base = dict(batch_size=4, frames=12, peak_lr=2e-3, epochs=epochs,
                    warmup_epochs=min(1, epochs), seed=3)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_returns_initial_weights(self, corpus):
        from motiontok.tan import init_weights
        w, history = train_tan(corpus, TINY_TAN, self._cfg(0))
        ref = init_weights(TINY_TAN, corpus.sequences[0].joints, 3)
        assert history == []
        for name in ref.tensors:
            assert np.array_equal(w.tensors[name].values, ref.tensors[name].values)

    def test_step_graph_released_before_next_step(self, corpus, monkeypatch):
        from motiontok import train as train_module
        original = train_module.frame_nt_xent
        previous, alive = [], []

        def watched(va, vb, *args, **kwargs):
            alive.extend(ref() is not None for ref in previous)
            loss = original(va, vb, *args, **kwargs)
            previous[:] = [weakref.ref(va[0].values), weakref.ref(loss.values)]
            return loss

        monkeypatch.setattr(train_module, "frame_nt_xent", watched)
        train_tan(corpus, TINY_TAN, self._cfg(2))
        assert len(alive) == 6 and not any(alive)

    def test_seeded_runs_bit_identical(self, corpus):
        _, h1 = train_tan(corpus, TINY_TAN, self._cfg(2))
        _, h2 = train_tan(corpus, TINY_TAN, self._cfg(2))
        assert [e.mean_loss for e in h1] == [e.mean_loss for e in h2]
        assert [e.mean_grad_norm for e in h1] == [e.mean_grad_norm for e in h2]

    @pytest.mark.parametrize("loss_kind,layers,batch,digest", [
        ("tan", 1, 4, "e10fd8457e6a2863"),
        ("tcc", 2, 2, "9c207075334724bb"),
    ])
    def test_trained_weights_pinned(self, corpus, loss_kind, layers, batch, digest):
        # bit-level pin of the training arithmetic (forward kernels, backward,
        # Adam): any reordering of a floating-point operation moves the digest,
        # and so may another numpy/BLAS build
        tan_config = TanConfig(hidden_dim=16, encoder_layers=layers, attention_heads=2,
                               projection_dim=8, sequence_length=12)
        w, _ = train_tan(corpus, tan_config, self._cfg(2, batch_size=batch),
                         loss_kind=loss_kind)
        assert weights_digest(w) == digest

    def test_loss_decreases_over_training(self, corpus):
        _, history = train_tan(corpus, TINY_TAN, self._cfg(6))
        assert history[-1].mean_loss < history[0].mean_loss

    def test_short_sequences_skipped_with_warning(self, corpus):
        cfg = self._cfg(1, frames=40)  # longer than some sequences
        lengths = [s.frames for s in corpus.sequences]
        assert any(l < 40 for l in lengths) and any(l >= 40 for l in lengths)
        with pytest.warns(UserWarning, match="skipping"):
            train_tan(corpus, TINY_TAN, cfg)

    def test_all_sequences_too_short_rejected(self, corpus):
        cfg = self._cfg(1, frames=10_000)
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                train_tan(corpus, TINY_TAN, cfg)

    def test_baseline_losses_train(self, corpus):
        for kind in ("tcn", "tcc"):
            cfg = self._cfg(1, batch_size=2)
            _, history = train_tan(corpus, TINY_TAN, cfg, loss_kind=kind)
            assert np.isfinite(history[0].mean_loss)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostics(self):
        from motiontok.data import LabeledCorpus, SkeletonSequence
        huge = SkeletonSequence(data=np.full((16, 3, 3), 1e200), fps=30.0)
        corpus = LabeledCorpus(sequences=[huge, huge],
                               frame_labels=[np.zeros(16, dtype=int)] * 2,
                               primitive_count=1)
        with pytest.raises(RuntimeError, match="non-finite"):
            train_tan(corpus, TINY_TAN, self._cfg(1, batch_size=2))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(warmup_epochs=10, epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(negative_mode="bogus")
