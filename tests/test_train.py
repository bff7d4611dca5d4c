import copy
import gc
import hashlib
import weakref

import numpy as np
import pytest

from motiontok import autodiff as ad
from motiontok.augment import match_frames
from motiontok.autodiff import Tensor
from motiontok.data import LabeledCorpus, generate_synthetic_corpus
from motiontok.tan import (TanConfig, _bind, encode, init_weights, project, save_checkpoint,
                           weights_digest)
from motiontok.train import (
    ALL_FRAMES,
    EXCLUDE_SAME_CLIP,
    GRAD_CLIP_NORM,
    WEIGHT_DECAY,
    AdamState,
    TrainConfig,
    adam_step,
    clip_gradients,
    frame_nt_xent,
    lr_at,
    tcc_loss,
    tcn_loss,
    train_tan,
)
from testkit import (grad_check, parameter, payload_digest, reference_frame_pairs,
                     reference_optimizer_step, reference_step_gradients, reference_tcc_loss,
                     reference_tcn_loss, reference_train_tan, weighted_sum)

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


def _pinned_batch():
    """Three clips whose views differ in length, with the correspondences
    augment.match_frames gives (unique anchor rows and positive columns)."""
    rng = np.random.default_rng(77)
    shapes = [(9, 1.0, 12, 0.75), (14, 0.5, 7, 1.0), (11, 1.0, 11, 1.0)]
    va = [_unit(rng.normal(size=(ta, 6))) for ta, _, _, _ in shapes]
    vb = [_unit(rng.normal(size=(tb, 6))) for _, _, tb, _ in shapes]
    return va, vb, [match_frames(*s) for s in shapes]


class TestFrameNtXent:
    # sha256 prefix of the loss value followed by its gradient with respect
    # to every view, A views first
    PINS = {
        ALL_FRAMES: "400954d91b07b139",
        EXCLUDE_SAME_CLIP: "91dc5a33cab57276",
    }

    @pytest.mark.parametrize("mode", [ALL_FRAMES, EXCLUDE_SAME_CLIP])
    def test_value_and_gradients_pinned(self, mode):
        va, vb, corr = _pinned_batch()
        views = [parameter(v) for v in va + vb]
        loss = frame_nt_xent(views[:3], views[3:], corr, mode=mode, tau=0.1)
        ad.backward(loss)
        blob = hashlib.sha256(loss.values.tobytes())
        for v in views:
            blob.update(v.grad.tobytes())
        assert blob.hexdigest()[:16] == self.PINS[mode]

    @pytest.mark.parametrize("mode", [ALL_FRAMES, EXCLUDE_SAME_CLIP])
    def test_blocks_with_lengths_match_the_pins(self, mode):
        # the form train_tan uses: each side's views as one block of rows
        va, vb, corr = _pinned_batch()
        blocks = [parameter(np.concatenate(side)) for side in (va, vb)]
        lengths = tuple([len(v) for v in side] for side in (va, vb))
        loss = frame_nt_xent(*blocks, corr, mode=mode, tau=0.1, lengths=lengths)
        ad.backward(loss)
        blob = hashlib.sha256(loss.values.tobytes())
        for block in blocks:
            blob.update(block.grad.tobytes())
        assert blob.hexdigest()[:16] == self.PINS[mode]

    def test_block_lengths_must_cover_the_rows(self):
        va, vb, corr = _pinned_batch()
        lengths = ([len(v) for v in va], [len(v) for v in vb])
        lengths[1][0] += 1
        with pytest.raises(ValueError, match="row counts"):
            frame_nt_xent(np.concatenate(va), np.concatenate(vb), corr, lengths=lengths)

    @pytest.mark.parametrize("mode", [ALL_FRAMES, EXCLUDE_SAME_CLIP])
    def test_pair_rows_match_the_reference_loop(self, monkeypatch, mode):
        # the arrays handed to the loss node, against the per-pair loop;
        # clips without a correspondence included
        from motiontok import train as train_module
        handed = []
        monkeypatch.setattr(ad, "nt_xent", lambda *args: handed.append(args))
        rng = np.random.default_rng(4)
        for case in range(200):
            clips = int(rng.integers(2, 6))
            len_a, len_b = rng.integers(1, 12, size=(2, clips)).tolist()
            speeds = rng.uniform(0.5, 2.0, size=(clips, 2))
            corr = [match_frames(ta, sa, tb, sb) if rng.random() < 0.8 else []
                    for ta, tb, (sa, sb) in zip(len_a, len_b, speeds)]
            if not any(corr):
                continue
            frame_nt_xent(np.zeros((sum(len_a), 2)), np.zeros((sum(len_b), 2)), corr,
                          mode=mode, lengths=(len_a, len_b))
            pair_clip, rows_a, cols_b = reference_frame_pairs(corr, len_a, len_b)
            clip_of_a = np.repeat(np.arange(clips), len_a)
            clip_of_b = np.repeat(np.arange(clips), len_b)
            expected = (rows_a, cols_b,
                        train_module._denominator_mask(cols_b, pair_clip, clip_of_b, mode),
                        train_module._denominator_mask(rows_a, pair_clip, clip_of_a, mode))
            for got, want in zip(handed.pop()[3:], expected):
                assert got.dtype == want.dtype and np.array_equal(got, want), case

    def test_closed_form_single_negative(self):
        # positive similarity 1, one opposite-view negative at similarity -1
        e0 = np.array([1.0, 0.0])
        v = Tensor(np.stack([e0, -e0]))
        loss = frame_nt_xent([v], [v], [[(0, 0)]], mode=ALL_FRAMES, tau=1.0)
        assert float(loss.values) == pytest.approx(np.log(1 + np.exp(-2.0)), abs=1e-12)

    def test_uniform_similarities_log1p_m(self):
        # all frames identical: every similarity equals 1, |D| = m
        t = 5
        v = Tensor(np.tile(_unit([1.0, 1.0]), (t, 1)))
        corr = [[(i, i) for i in range(t)]]
        loss = frame_nt_xent([v], [v], corr, mode=ALL_FRAMES, tau=0.7)
        assert float(loss.values) == pytest.approx(np.log(1 + (t - 1)), abs=1e-12)

    def test_sharpening_limit(self):
        e0 = np.array([1.0, 0.0])
        v = Tensor(np.stack([e0, -e0]))
        loss = frame_nt_xent([v], [v], [[(0, 0)]], mode=ALL_FRAMES, tau=1e-3)
        assert float(loss.values) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            va = Tensor(_unit(rng.normal(size=(4, 6))))
            vb = Tensor(_unit(rng.normal(size=(4, 6))))
            corr = [[(i, i) for i in range(4)], [(0, 0), (2, 2)]]
            loss = frame_nt_xent([va, vb], [vb, va], corr, mode=ALL_FRAMES, tau=0.2)
            assert float(loss.values) >= 0.0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        va = [Tensor(_unit(rng.normal(size=(5, 4)))) for _ in range(2)]
        vb = [Tensor(_unit(rng.normal(size=(6, 4)))) for _ in range(2)]
        corr = [[(0, 1), (2, 3), (4, 5)], [(1, 0), (3, 2)]]
        loss_ab = frame_nt_xent(va, vb, corr, mode=EXCLUDE_SAME_CLIP, tau=0.3)
        corr_t = [[(b, a) for a, b in c] for c in corr]
        loss_ba = frame_nt_xent(vb, va, corr_t, mode=EXCLUDE_SAME_CLIP, tau=0.3)
        assert float(loss_ab.values) == pytest.approx(float(loss_ba.values), abs=1e-12)

    def test_identical_clips_still_welldefined_in_exclude_mode(self):
        rng = np.random.default_rng(2)
        clip = Tensor(_unit(rng.normal(size=(4, 5))))
        corr = [[(i, i) for i in range(4)]] * 2
        loss = frame_nt_xent([clip, clip], [clip, clip], corr,
                             mode=EXCLUDE_SAME_CLIP, tau=0.5)
        assert np.isfinite(float(loss.values))

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
        assert float(l_full.values) > float(l_trim.values)

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

        x = parameter(rng.normal(size=(7, 5)))
        assert grad_check(f, x, eps=1e-4) < 1e-4


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


def _one_clip(v_a, v_b):
    """Lengths of a single clip's two views."""
    return ([v_a.shape[0]], [v_b.shape[0]])


def _baseline_batch(seed, shapes, features=4, scale=1.0):
    """Blocks of clips whose A and B views have the (T_a, T_b) of `shapes`,
    with the per-clip views they stack."""
    rng = np.random.default_rng(seed)
    va = [rng.normal(size=(ta, features)) * scale for ta, _ in shapes]
    vb = [rng.normal(size=(tb, features)) * scale for _, tb in shapes]
    lengths = ([ta for ta, _ in shapes], [tb for _, tb in shapes])
    return va, vb, lengths


class TestTcnLoss:
    def test_margin_satisfied_gives_zero(self):
        # d(a, p) = 0 everywhere, d(a, n) = 3, margin 2
        v_a = Tensor(np.zeros((6, 3)))
        v_b = Tensor(np.tile([3.0, 0.0, 0.0], (12, 1)))
        rng = np.random.default_rng(0)
        loss = tcn_loss(v_a, v_b, _one_clip(v_a, v_b), anchors=4, rng=rng, margin=2.0,
                        pos_window=2, neg_multiplier=2)
        assert float(loss.values) == pytest.approx(0.0, abs=1e-12)

    def test_hand_case_term_three(self):
        # d(a, p) = 2 between the two anchor-view rows, every negative at d = 1
        v_a = Tensor(np.sqrt(2.0) * np.eye(2, 8))
        v_b = Tensor(np.tile(np.sqrt(2.0) / 2 * (np.arange(8) < 2), (16, 1)))
        rng = np.random.default_rng(1)
        loss = tcn_loss(v_a, v_b, _one_clip(v_a, v_b), anchors=2, rng=rng, margin=2.0,
                        pos_window=2, neg_multiplier=3)
        assert float(loss.values) == pytest.approx(3.0, abs=1e-12)

    def test_positive_equals_negative_gives_margin(self):
        v = Tensor(np.tile([0.3, -0.7], (10, 1)))
        rng = np.random.default_rng(2)
        loss = tcn_loss(v, v, _one_clip(v, v), anchors=3, rng=rng, margin=2.0,
                        pos_window=1, neg_multiplier=2)
        assert float(loss.values) == pytest.approx(2.0, abs=1e-12)

    def test_zero_distance_passes_no_gradient(self):
        # every frame equal: both distances are 0 and every hinge is active
        v = parameter(np.tile([0.3, -0.7], (10, 1)))
        ad.backward(tcn_loss(v, v, _one_clip(v, v), anchors=3, rng=np.random.default_rng(2)))
        assert np.array_equal(v.grad, np.zeros((10, 2)))

    def test_too_short_for_exclusion_interval(self):
        v = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        with pytest.raises(ValueError, match="exclusion"):
            tcn_loss(v, v, _one_clip(v, v), anchors=2, rng=np.random.default_rng(0),
                     margin=2.0, pos_window=2, neg_multiplier=1)

    def test_gradient(self):
        rng_data = np.random.default_rng(4)
        v_b = Tensor(rng_data.normal(size=(14, 4)))

        def f(t):
            return tcn_loss(t, v_b, _one_clip(t, v_b), anchors=3, rng=np.random.default_rng(7),
                            margin=1.0, pos_window=2, neg_multiplier=2)

        x = parameter(rng_data.normal(size=(14, 4)) * 2.0)
        assert grad_check(f, x, eps=1e-5) < 1e-4

    @pytest.mark.parametrize("anchors,neg_multiplier", [(16, 4), (3, 2), (30, 7)])
    def test_blocks_match_the_per_clip_reference(self, anchors, neg_multiplier):
        # unequal (T_a, T_b), one clip with fewer hosts than anchors; the
        # reference draws each clip's triplets with the rng calls, in the
        # order, of the per-clip loss the fused one replaced
        va, vb, lengths = _baseline_batch(8, [(12, 9), (20, 26), (7, 15), (16, 16)])
        loss = tcn_loss(np.concatenate(va), np.concatenate(vb), lengths, anchors,
                        np.random.default_rng(9), neg_multiplier=neg_multiplier)
        rng = np.random.default_rng(9)
        expected = np.mean([reference_tcn_loss(a, b, anchors, rng,
                                               neg_multiplier=neg_multiplier)
                            for a, b in zip(va, vb)])
        assert abs(float(loss.values) - expected) <= 1e-10

    def test_one_node(self):
        va, vb, lengths = _baseline_batch(10, [(12, 9), (20, 26)])
        loss = tcn_loss(parameter(np.concatenate(va)), parameter(np.concatenate(vb)),
                        lengths, 4, np.random.default_rng(0))
        assert loss.node.op == "triplet_margin"
        assert all(p.parents == () for p in loss.node.parents)

    def test_lengths_must_cover_the_rows(self):
        va, vb, (len_a, len_b) = _baseline_batch(11, [(12, 9), (20, 26)])
        with pytest.raises(ValueError, match="row counts"):
            tcn_loss(np.concatenate(va), np.concatenate(vb), (len_a, [9, 25]), 4,
                     np.random.default_rng(0))


class TestTccLoss:
    def test_orthonormal_views_sharp_softmax(self):
        v = Tensor(np.eye(6))
        loss = tcc_loss(v, v, _one_clip(v, v), tau_soft=1e-3)
        assert float(loss.values) == pytest.approx(0.0, abs=1e-9)

    def test_single_frame_zero(self):
        v = Tensor(np.array([[0.6, 0.8]]))
        assert float(tcc_loss(v, v, _one_clip(v, v)).values) == pytest.approx(0.0, abs=1e-12)

    def test_invariant_to_view_b_permutation(self):
        rng = np.random.default_rng(5)
        v_a = Tensor(_unit(rng.normal(size=(5, 4))))
        vb = _unit(rng.normal(size=(7, 4)))
        l1 = tcc_loss(v_a, Tensor(vb), ([5], [7]), tau_soft=0.2)
        l2 = tcc_loss(v_a, Tensor(vb[::-1].copy()), ([5], [7]), tau_soft=0.2)
        assert float(l1.values) == pytest.approx(float(l2.values), abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        v_b = Tensor(rng.normal(size=(5, 3)))
        f = lambda t: tcc_loss(t, v_b, ([4], [5]), tau_soft=0.5)
        x = parameter(rng.normal(size=(4, 3)))
        assert grad_check(f, x, eps=1e-4) < 1e-4

    @pytest.mark.parametrize("tau_soft", [0.1, 0.5])
    def test_blocks_match_the_per_clip_reference(self, tau_soft):
        # unequal (T_a, T_b), so every clip but the longest is padded in both views
        va, vb, lengths = _baseline_batch(12, [(5, 8), (9, 3), (1, 4), (7, 7)],
                                          scale=0.5)
        va, vb = [_unit(v) for v in va], [_unit(v) for v in vb]
        loss = tcc_loss(np.concatenate(va), np.concatenate(vb), lengths, tau_soft)
        expected = np.mean([reference_tcc_loss(a, b, tau_soft) for a, b in zip(va, vb)])
        assert abs(float(loss.values) - expected) <= 1e-10

    def test_clip_gradients_do_not_mix(self):
        # each clip's rows get the gradient of its own loss over the clip count
        va, vb, lengths = _baseline_batch(13, [(5, 8), (9, 3), (6, 6)])
        blocks = [parameter(np.concatenate(side)) for side in (va, vb)]
        ad.backward(tcc_loss(*blocks, lengths, 0.5))
        lo_a = lo_b = 0
        for a, b in zip(va, vb):
            alone = [parameter(a), parameter(b)]
            ad.backward(tcc_loss(*alone, _one_clip(a, b), 0.5))
            for block, view, lo in zip(blocks, alone, (lo_a, lo_b)):
                rows = block.grad[lo:lo + view.shape[0]]
                np.testing.assert_allclose(rows, view.grad / 3, rtol=0, atol=1e-12)
            lo_a, lo_b = lo_a + a.shape[0], lo_b + b.shape[0]

    def test_lengths_must_cover_the_rows(self):
        va, vb, (len_a, _) = _baseline_batch(14, [(5, 8), (9, 3)])
        with pytest.raises(ValueError, match="lengths_b must rise strictly from 0 to 11"):
            tcc_loss(np.concatenate(va), np.concatenate(vb), (len_a, [8, 4]))
        with pytest.raises(ValueError, match="lengths_a must rise strictly"):
            tcc_loss(np.concatenate(va), np.concatenate(vb), ([14, 0], [8, 3]))


class TestBackwardMemory:
    def test_interior_nodes_hold_nothing_after_backward(self):
        # desk-size encoder (hidden 64, 2 layers, 4 heads) under the contrastive loss
        from motiontok.tan import encode, init_weights, project
        config = TanConfig(hidden_dim=64, encoder_layers=2, attention_heads=4,
                           projection_dim=32, sequence_length=16)
        weights = init_weights(config, joints=8, seed=0)
        rng = np.random.default_rng(12)
        views = [[ad.slice_tensor(project(encode(rng.normal(size=(16, 24)), weights), weights),
                                  (0,)) for _ in range(2)] for _ in range(2)]
        loss = frame_nt_xent(views[0], views[1], [[(i, i) for i in range(16)]] * 2)
        nodes = ad.topo_order(loss)
        ad.backward(loss)
        interior = [n for n in nodes if n.parents]
        assert len(interior) > 100
        assert all(n.grad is None and n._backward is None for n in interior)
        for p in weights.tensors.values():
            assert p.grad is not None and p.grad.shape == p.shape
        assert any(np.abs(p.grad).max() > 0 for p in weights.tensors.values())

    # sha256 prefix of the parameter gradients of _step_loss, per loss kind
    STEP_GRADS = {"tan": "23e650c9f652f4fa", "tcn": "67845b7a758d612b",
                  "tcc": "eb4d543e77f1887a"}

    @staticmethod
    def _step_encode():
        """(weights, encoder output) of a training step's forward as train_tan
        packs it: four 16-frame views, two A then two B, through a desk-size
        encoder (hidden 64, 2 layers, 4 heads)."""
        weights = init_weights(TanConfig(hidden_dim=64, encoder_layers=2, attention_heads=4,
                                         projection_dim=32, sequence_length=16),
                               joints=8, seed=0)
        x = np.random.default_rng(12).normal(size=(4 * 16, 24))
        return weights, encode(x, weights, np.arange(5) * 16)

    @staticmethod
    def _step_loss(loss_kind, weights, z):
        """The loss_kind loss of _step_encode's output z."""
        z = project(z, weights)
        va, vb = ad.slice_tensor(z, (slice(0, 32),)), ad.slice_tensor(z, (slice(32, None),))
        lengths = ([16, 16], [16, 16])
        if loss_kind == "tan":
            return frame_nt_xent(va, vb, [[(i, i) for i in range(16)]] * 2, lengths=lengths)
        if loss_kind == "tcn":
            return tcn_loss(va, vb, lengths, 4, np.random.default_rng(0))
        return tcc_loss(va, vb, lengths)

    @pytest.mark.parametrize("loss_kind", ["tan", "tcn", "tcc"])
    def test_no_node_holds_values(self, loss_kind):
        # nodes are graph records only; each closure keeps its parents' nodes
        # and arrays, never a Tensor with the values it wraps
        weights, z = self._step_encode()
        loss = self._step_loss(loss_kind, weights, z)
        nodes = ad.topo_order(loss)
        assert len(nodes) > 40 and all(type(n) is ad.Node for n in nodes)
        assert not any(hasattr(n, "values") for n in nodes)
        kept = [cell.cell_contents for n in nodes if n._backward is not None
                for cell in n._backward.__closure__ or ()]
        assert any(type(c) is ad.Node for c in kept)
        assert not any(isinstance(c, Tensor) for c in kept)
        ad.backward(loss)
        digest = hashlib.sha256(weights.grads.tobytes()).hexdigest()[:16]
        assert digest == self.STEP_GRADS[loss_kind]

    def test_arrays_no_backward_reads_die_with_encode(self, monkeypatch):
        # a residual sum feeds only layer_norm, whose backward reads the
        # normalized rows, not its input; the first sum (embedding plus
        # positions) is the input the q, k and v projections keep
        sums, add = [], ad.add

        def watched(a, b):
            out = add(a, b)
            sums.append(weakref.ref(out.values))
            return out

        monkeypatch.setattr(ad, "add", watched)
        weights, z = self._step_encode()
        monkeypatch.undo()
        assert len(sums) == 1 + 2 * 2
        assert sums[0]() is not None
        assert [ref() is None for ref in sums[1:]] == [True] * 4
        ad.backward(self._step_loss("tan", weights, z))
        digest = hashlib.sha256(weights.grads.tobytes()).hexdigest()[:16]
        assert digest == self.STEP_GRADS["tan"]

    def test_repeated_step_faults_in_no_pages(self):
        # the buffers one step frees serve the next identical step: without
        # fixed malloc thresholds each such step faulted in 10k+ pages
        if not ad._keep_heap_mapped():
            pytest.skip("no glibc mallopt")
        resource = pytest.importorskip("resource")
        from motiontok.tan import encode, init_weights, project
        config = TanConfig(hidden_dim=64, encoder_layers=2, attention_heads=4,
                           projection_dim=32, sequence_length=64)
        weights = init_weights(config, joints=20, seed=0)
        rng = np.random.default_rng(13)
        clips = [rng.normal(size=(96, 60)) for _ in range(8)]
        corr = [[(i, i) for i in range(96)]] * 8

        def step():
            views = [[ad.slice_tensor(project(encode(x[None], weights), weights), (0,))
                      for x in clips] for _ in range(2)]
            weights.grads.fill(0.0)
            ad.backward(frame_nt_xent(views[0], views[1], corr))

        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            step()
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[-1] < 200, faults

    def test_malloc_environment_settings_win(self, monkeypatch):
        monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
        assert ad._keep_heap_mapped() is False


class TestOptimizer:
    # (lr, gradient scale) per step: scales from 1e-4 to 3 put the global
    # gradient norm on both sides of GRAD_CLIP_NORM at either model size, and
    # two steps have lr 0
    STEPS = [(1e-2, 1e-2), (1e-2, 1.0), (0.0, 1.0), (3e-3, 1e-3), (1e-3, 3.0), (0.0, 1e-4)]
    LARGE = TanConfig(hidden_dim=192, encoder_layers=1, attention_heads=2, projection_dim=8,
                      sequence_length=12)

    @pytest.mark.parametrize("config,block", [(TINY_TAN, 7), (TINY_TAN, 300), (LARGE, None)],
                             ids=["tiny-block7", "tiny-block300", "large-default-block"])
    def test_blocked_pass_matches_per_tensor_reference(self, monkeypatch, config, block):
        from motiontok import train as train_module
        if block is not None:
            monkeypatch.setattr(train_module, "_BLOCK", block)
        for dtype in (np.float64, np.float32):
            self._check_blocked_pass(config, train_module._BLOCK, dtype)

    def _check_blocked_pass(self, config, block, dtype):
        """The pass against the reference over STEPS, the compute weights the
        master itself (float64) or its float32 copy; the reference steps
        float64 tensors on the upcast gradients."""
        w, ref = init_weights(config, 3, 5), init_weights(config, 3, 5)
        compute = w if dtype is np.float64 else _bind(config, 3, 5, w.values.astype(dtype))
        starts = np.cumsum([0] + [t.values.size for t in w.tensors.values()])
        # a tensor spans several blocks, a block ends inside a tensor, the last block is short
        assert max(np.diff(starts)) > block and w.values.size % block
        assert set(range(block, w.values.size, block)) - set(starts.tolist())
        state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
        rng = np.random.default_rng(6)
        clipped = []
        for lr, grad_scale in self.STEPS:
            grads = (rng.normal(size=w.values.size) * grad_scale).astype(dtype)
            # backward accumulates: compute relies on the pass to have zeroed
            # its gradients, the reference zeroes them first as train_tan did
            compute.grads += grads
            ref.grads.fill(0.0)
            ref.grads += grads
            norm, scale = clip_gradients(compute, GRAD_CLIP_NORM)
            # the block sums against the tensor-by-tensor float64 sum of
            # squares: a float32 sum would be off by ~1e-8 relative
            ref_norm = np.sqrt(sum(float((p.grad ** 2).sum()) for p in ref.tensors.values()))
            assert norm == pytest.approx(ref_norm, rel=1e-13)
            assert scale == (GRAD_CLIP_NORM / norm if norm > GRAD_CLIP_NORM else 1.0)
            adam_step(w, compute, state, lr, WEIGHT_DECAY, scale)
            reference_optimizer_step(ref, ref_state, lr, WEIGHT_DECAY, scale)
            clipped.append(scale != 1.0)
            assert w.values.dtype == np.float64 and w.values.tobytes() == ref.values.tobytes()
            assert compute.values.tobytes() == ref.values.astype(dtype).tobytes()
            assert not compute.grads.any()
            for flat, moments in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
                assert flat.tobytes() == np.concatenate(
                    [moments[name].ravel() for name in ref.tensors]).tobytes()
            assert state.t == ref_state["t"]
        assert any(clipped) and not all(clipped)

    def test_gradients_zero_after_a_step(self):
        w = init_weights(TINY_TAN, 3, 1)
        x = np.random.default_rng(7).normal(size=(2, 6, 9))
        state = AdamState()
        for _ in range(2):
            ad.backward(weighted_sum(project(encode(x, w), w), np.ones((2, 6, 8))))
            assert w.grads.any()
            adam_step(w, w, state, 1e-3, 1e-6, clip_gradients(w, 0.5)[1])
            assert all(not t.grad.any() for t in w.tensors.values())
            assert not w.grads.any()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_weights_reported_after_the_whole_pass(self, monkeypatch):
        from motiontok import train as train_module
        monkeypatch.setattr(train_module, "_BLOCK", 64)
        w = init_weights(TINY_TAN, 3, 1)
        w.tensors["embed.fc1.w"].values[...] = 1e308  # 144 values: blocks 0-2
        w.grads[...] = -1.0
        before = w.values.copy()
        with pytest.raises(RuntimeError, match=r"^non-finite weights after step 0$"):
            adam_step(w, w, AdamState(), 1e308, 1e-6, 1.0)
        assert np.isinf(w.tensors["embed.fc1.w"].values).all()
        # the later blocks were still stepped and zeroed
        assert np.isfinite(w.values[-64:]).all() and (w.values[-64:] != before[-64:]).all()
        assert not w.grads.any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_tan_stops_on_nonfinite_weights(self, corpus, monkeypatch):
        from motiontok import train as train_module
        monkeypatch.setattr(train_module, "lr_at", lambda *args: np.inf)
        cfg = TrainConfig(batch_size=4, frames=12, peak_lr=2e-3, epochs=1, warmup_epochs=0,
                          seed=3)
        with pytest.raises(RuntimeError, match=r"^non-finite weights after step 0$"):
            train_tan(corpus, TINY_TAN, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_raises_before_any_weight_moves(self, monkeypatch):
        from motiontok import train as train_module
        from motiontok.data import SkeletonSequence
        steps = []
        monkeypatch.setattr(train_module, "adam_step", lambda *args: steps.append(args))
        huge = SkeletonSequence(data=np.full((16, 3, 3), 1e200), fps=30.0)
        corpus = LabeledCorpus(sequences=[huge, huge],
                               frame_labels=[np.zeros(16, dtype=int)] * 2,
                               primitive_count=1)
        cfg = TrainConfig(batch_size=2, frames=12, peak_lr=2e-3, epochs=1, warmup_epochs=0)
        with pytest.raises(RuntimeError, match="^non-finite loss at step 0"):
            train_tan(corpus, TINY_TAN, cfg)
        assert steps == []


class TestMixedPrecision:
    @pytest.mark.parametrize("loss_kind,batch", [("tan", 4), ("tcn", 4), ("tcc", 2)])
    def test_step_computes_in_float32_against_float64_master(self, corpus, monkeypatch,
                                                              tmp_path, loss_kind, batch):
        # one training step: every node value, every gradient flowing into a
        # buffer and every buffer is float32; the master weights, both moments
        # and the checkpoint payload stay float64
        from motiontok import train as train_module
        nodes, flowing, buffers, stepped = [], set(), set(), []
        backward, accumulate, grad_buffer = ad.backward, ad._accumulate, ad._grad_buffer
        step = train_module.adam_step

        def recording_backward(loss):
            nodes.extend(n.dtype for n in ad.topo_order(loss))
            backward(loss)

        def recording_accumulate(node, g):
            if isinstance(g, np.ndarray):
                flowing.add(g.dtype)
            accumulate(node, g)

        def recording_grad_buffer(node):
            buffers.add(grad_buffer(node).dtype)
            return node.grad

        def recording_step(master, compute, state, *args):
            stepped.append((master, compute, state))
            step(master, compute, state, *args)

        monkeypatch.setattr(ad, "backward", recording_backward)
        monkeypatch.setattr(ad, "_accumulate", recording_accumulate)
        monkeypatch.setattr(ad, "_grad_buffer", recording_grad_buffer)
        monkeypatch.setattr(train_module, "adam_step", recording_step)
        cfg = TrainConfig(batch_size=batch, frames=12, peak_lr=2e-3, epochs=1, warmup_epochs=0,
                          seed=3)
        w, _ = train_tan(_first(corpus, batch), TINY_TAN, cfg, loss_kind=loss_kind)
        assert len(stepped) == 1 and len(nodes) > 20
        assert set(nodes) == flowing == buffers == {np.dtype(np.float32)}
        master, compute, state = stepped[0]
        assert master is w and compute.values.dtype == compute.grads.dtype == np.float32
        assert {w.values.dtype, state.m.dtype, state.v.dtype} == {np.dtype("<f8")}
        # the master moved by the step and holds values float32 cannot
        assert state.m.any() and (w.values.astype(np.float32) != w.values).any()
        assert compute.values.tobytes() == w.values.astype(np.float32).tobytes()
        payload = save_checkpoint(w, tmp_path / "w.tan").read_bytes().split(b"\n", 1)[1]
        assert payload == w.values.astype("<f8").tobytes()

    def test_float32_training_tracks_the_float64_loop(self):
        # the desk profile's model, batch and crop (hidden 64, 2 layers, 4
        # heads, batch 8, 64-frame crops) for 60 one-step epochs, against the
        # loop that trained in float64 throughout. The first epochs differ by
        # float32 rounding (at most 2.7e-7 of a loss near 6); ReLU kinks and
        # Adam's per-coordinate normalization then amplify it, to at most
        # 8.0e-4 in the epoch losses and 8.9e-4 in the weights at 60 epochs
        corpus = generate_synthetic_corpus(6, 8, 2, 64, seed=5)
        tan_config = TanConfig(hidden_dim=64, encoder_layers=2, attention_heads=4,
                               projection_dim=32, sequence_length=64)
        cfg = TrainConfig(batch_size=8, frames=64, peak_lr=2e-3, epochs=60, warmup_epochs=3,
                          seed=5)
        w, history = train_tan(corpus, tan_config, cfg)
        ref, ref_history = reference_train_tan(corpus, tan_config, cfg)
        losses = np.array([[h.mean_loss for h in hs] for hs in (history, ref_history)])
        assert losses[1, -1] < 0.5 * losses[1, 0]
        gap = np.abs(losses[0] - losses[1])
        assert gap[:10].max() <= 1e-6 and gap.max() <= 2e-3
        assert np.abs(w.values - ref.values).max() <= 2e-3


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_corpus(3, 8, 3, 16, seed=21)


def _first(corpus, n):
    return LabeledCorpus(corpus.sequences[:n], corpus.frame_labels[:n], corpus.primitive_count)


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
            previous[:] = [weakref.ref(va.values), weakref.ref(loss.values)]
            return loss

        monkeypatch.setattr(train_module, "frame_nt_xent", watched)
        train_tan(corpus, TINY_TAN, self._cfg(2))
        assert len(alive) == 6 and not any(alive)

    def test_graphs_freed_without_the_cycle_collector(self, corpus):
        # a step's graph holds no reference cycles: reference counting alone
        # must free it, leaving the cycle collector nothing to find
        gc.disable()
        try:
            gc.collect()
            train_tan(corpus, TINY_TAN, self._cfg(2))
            assert not gc.isenabled()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_training_run_returns_free_heap(self, corpus, monkeypatch):
        calls = []
        monkeypatch.setattr(ad, "release_free_heap", lambda: calls.append(1))
        train_tan(corpus, TINY_TAN, self._cfg(1))
        assert calls == [1]

    def test_seeded_runs_bit_identical(self, corpus):
        _, h1 = train_tan(corpus, TINY_TAN, self._cfg(2))
        _, h2 = train_tan(corpus, TINY_TAN, self._cfg(2))
        assert [e.mean_loss for e in h1] == [e.mean_loss for e in h2]
        assert [e.mean_grad_norm for e in h1] == [e.mean_grad_norm for e in h2]

    # loss kind -> (checkpoint digest, payload digest). The payload digest
    # covers the weight bytes alone, so it holds when only the header changes.
    TRAINED_PINS = {
        "tan": ("21250d7219bb3f43", "89354bde8fb133ad"),
        "tcc": ("e2ab64817ddac6e7", "b6ac621c0cc72355"),
        "tcn": ("909ad4d94640a792", "a74f2c8b4b841dfb"),
    }

    @pytest.mark.parametrize("loss_kind,layers,batch", [
        ("tan", 1, 4),
        ("tcc", 2, 2),
        ("tcn", 1, 4),
    ])
    def test_trained_weights_pinned(self, corpus, tmp_path, loss_kind, layers, batch):
        # bit-level pin of the training arithmetic (float32 forward kernels and
        # backward, float64 clipping and Adam): any reordering of a
        # floating-point operation moves the digest, and so may another
        # numpy/BLAS build
        tan_config = TanConfig(hidden_dim=16, encoder_layers=layers, attention_heads=2,
                               projection_dim=8, sequence_length=12)
        w, _ = train_tan(corpus, tan_config, self._cfg(2, batch_size=batch),
                         loss_kind=loss_kind)
        digest, payload = self.TRAINED_PINS[loss_kind]
        assert payload_digest(save_checkpoint(w, tmp_path / "w.tan").read_bytes()) == payload
        assert weights_digest(w) == digest

    @pytest.mark.parametrize("loss_kind,layers,batch", [
        ("tan", 2, 4),
        ("tcc", 2, 2),
        ("tcn", 1, 4),
    ])
    def test_step_gradients_match_per_clip_reference(self, corpus, monkeypatch, loss_kind,
                                                      layers, batch):
        # every step's float32 gradients, before clipping, against the same
        # step computed clip by clip in float64 from the same weights (the
        # float32 compute values, upcast), views and generator
        from motiontok import train as train_module
        make, clip = train_module.make_view_pair, train_module.clip_gradients
        pairs, after_views, steps = [], [], []

        def making(seq, rng, ranges):
            pairs.append(make(seq, rng, ranges))
            after_views[:] = [copy.deepcopy(rng)]
            return pairs[-1]

        def clipping(weights, max_norm):
            steps.append(({n: t.values.copy() for n, t in weights.tensors.items()},
                          {n: t.grad.copy() for n, t in weights.tensors.items()},
                          pairs[:], after_views[0]))
            pairs.clear()
            return clip(weights, max_norm)

        monkeypatch.setattr(train_module, "make_view_pair", making)
        monkeypatch.setattr(train_module, "clip_gradients", clipping)
        tan_config = TanConfig(hidden_dim=16, encoder_layers=layers, attention_heads=2,
                               projection_dim=8, sequence_length=12)
        cfg = self._cfg(2, batch_size=batch)
        train_tan(corpus, tan_config, cfg, loss_kind=loss_kind)
        assert len(steps) == 2 * (8 // batch)
        for values, grads, step_pairs, rng in steps:
            weights = init_weights(tan_config, corpus.sequences[0].joints, cfg.seed)
            for name, t in weights.tensors.items():
                t.values[...] = values[name]
            ref = reference_step_gradients(weights, step_pairs, loss_kind, cfg, rng)
            # relative to the step's largest gradient: the key biases' gradients
            # are zero up to rounding (softmax ignores a per-row shift). The
            # bound is float32 rounding: 1e-5 is ~170 units of float32's
            # roundoff 2^-24; these steps deviate by at most 6.8e-7 (~11 units)
            scale = max(np.abs(g).max() for g in ref.values())
            for name, g in grads.items():
                assert g.dtype == np.float32
                assert np.abs(g - ref[name]).max() <= 1e-5 * scale, name

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

    @pytest.mark.parametrize("sequences,batch", [(1, 4), (3, 2)])
    def test_one_clip_batch_rejected_before_training(self, corpus, monkeypatch, sequences,
                                                     batch):
        # array_split leaves a batch of one clip, which has no negatives under
        # exclude_same_clip: refused before the weights are drawn
        from motiontok import train as train_module
        monkeypatch.setattr(train_module, "init_weights", None)
        with pytest.raises(ValueError, match=f"^{sequences} usable sequences at batch_size "
                                             f"{batch} make a batch of 1 clip"):
            train_tan(_first(corpus, sequences), TINY_TAN, self._cfg(1, batch_size=batch))

    @pytest.mark.parametrize("frames", [6, 10])
    def test_tcn_crop_too_short_rejected_before_training(self, monkeypatch, frames):
        # at speed_max 2 the crop can yield a view of frames / 2 frames, too
        # short to host the +-4-frame exclusion interval around an anchor
        from motiontok import train as train_module
        monkeypatch.setattr(train_module, "init_weights", None)
        corpus = generate_synthetic_corpus(4, 8, 3, 16, seed=0)
        with pytest.raises(ValueError, match=f"a {frames}-frame crop can yield"):
            train_tan(corpus, TINY_TAN, self._cfg(1, frames=frames), loss_kind="tcn")

    def test_tcn_shortest_crop_trains(self):
        corpus = generate_synthetic_corpus(4, 8, 3, 16, seed=0)
        _, history = train_tan(corpus, TINY_TAN, self._cfg(2, frames=12), loss_kind="tcn")
        assert np.isfinite(history[-1].mean_loss)

    def test_two_clip_batches_train(self, corpus):
        _, history = train_tan(_first(corpus, 4), TINY_TAN, self._cfg(1, batch_size=2))
        assert np.isfinite(history[0].mean_loss)

    def test_one_clip_batches_train_other_objectives(self, corpus):
        part = _first(corpus, 3)
        for kind in ("tcn", "tcc"):
            train_tan(part, TINY_TAN, self._cfg(1, batch_size=2), loss_kind=kind)
        train_tan(part, TINY_TAN, self._cfg(1, batch_size=2, negative_mode=ALL_FRAMES))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_aborts_with_diagnostics(self):
        from motiontok.data import SkeletonSequence
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

    @pytest.mark.parametrize("seed", [-1, 1.0, "3", True, None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="train seed must be an integer >= 0"):
            TrainConfig(seed=seed)
