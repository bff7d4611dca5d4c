import numpy as np
import pytest

from motiontok.augment import (
    AugmentParams,
    AugmentRanges,
    apply,
    make_view_pair,
    match_frames,
    sample_params,
)
from motiontok.data import SkeletonSequence
from testkit import IDENTITY_RANGES


def _seq(t=8, j=3, seed=0):
    rng = np.random.default_rng(seed)
    return SkeletonSequence(data=rng.normal(size=(t, j, 3)), fps=30.0)


class TestSampleParams:
    def test_degenerate_speed_range(self):
        rng = np.random.default_rng(0)
        ranges = AugmentRanges(speed_max=1.0)
        for _ in range(50):
            assert sample_params(rng, ranges).speed == 1.0

    def test_reciprocal_rule_monte_carlo(self):
        # 1e5 draws: P(speed < 1) should sit within [0.49, 0.51]
        rng = np.random.default_rng(12345)
        ranges = AugmentRanges(speed_max=2.0)
        draws = np.array([sample_params(rng, ranges).speed for _ in range(100_000)])
        below = float((draws < 1.0).mean())
        assert 0.49 <= below <= 0.51
        assert draws.min() >= 0.5 and draws.max() <= 2.0

    def test_identity_ranges_give_identity_params(self):
        rng = np.random.default_rng(0)
        p = sample_params(rng, IDENTITY_RANGES)
        assert np.array_equal(p.translation, np.zeros(3))
        assert p.rotation == 0.0 and p.speed == 1.0

    def test_translation_stays_in_plane_by_default(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = sample_params(rng, AugmentRanges())
            assert p.translation[2] == 0.0
            assert np.abs(p.translation[:2]).max() <= 0.2

    def test_invalid_speed_max_rejected(self):
        with pytest.raises(ValueError):
            AugmentRanges(speed_max=0.5)


class TestApply:
    def test_identity_params_is_identity(self):
        seq = _seq()
        out = apply(seq, AugmentParams(translation=np.zeros(3), rotation=0.0, speed=1.0))
        assert np.array_equal(out.data, seq.data)
        assert out.fps == seq.fps

    def test_speed_two_halves_length(self):
        seq = _seq(t=8)
        out = apply(seq, AugmentParams(translation=np.zeros(3), rotation=0.0, speed=2.0))
        assert out.frames == 4
        for t_out, t_src in enumerate([0, 2, 4, 6]):
            np.testing.assert_allclose(out.data[t_out], seq.data[t_src], atol=1e-12)

    def test_rotation_about_z(self):
        seq = SkeletonSequence(data=np.array([[[1.0, 0, 0]]]), fps=30.0)
        out = apply(seq, AugmentParams(translation=np.zeros(3),
                                       rotation=np.pi / 2, speed=1.0))
        np.testing.assert_allclose(out.data[0, 0], [0, 1, 0], atol=1e-12)

    def test_rigid_stage_preserves_distances(self):
        seq = _seq(t=5, j=4, seed=2)
        p = AugmentParams(translation=np.array([0.1, -0.2, 0.0]), rotation=0.7, speed=1.0)
        out = apply(seq, p)
        for t in range(seq.frames):
            orig = np.linalg.norm(seq.data[t][:, None] - seq.data[t][None], axis=-1)
            new = np.linalg.norm(out.data[t][:, None] - out.data[t][None], axis=-1)
            np.testing.assert_allclose(new, orig, atol=1e-12)

    def test_output_length_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            t = int(rng.integers(2, 40))
            speed = float(rng.uniform(0.5, 2.0))
            out = apply(_seq(t=t), AugmentParams(np.zeros(3), 0.0, speed))
            assert int(np.ceil(t / 2)) - 1 <= out.frames <= 2 * t + 1

    def test_min_length_one(self):
        seq = _seq(t=2)
        out = apply(seq, AugmentParams(np.zeros(3), 0.0, 2.0))
        assert out.frames >= 1


class TestMatchFrames:
    def test_equal_speeds_identity_pairs(self):
        pairs = match_frames(6, 1.0, 6, 1.0)
        assert pairs == [(i, i) for i in range(6)]

    def test_hand_enumerated_case(self):
        # view A: 4 frames at times 0,2,4,6 (speed 2); view B: 8 frames (speed 1)
        pairs = match_frames(4, 2.0, 8, 1.0)
        assert pairs == [(0, 0), (1, 2), (2, 4), (3, 6)]

    def test_pairs_satisfy_time_tolerance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sa = float(rng.uniform(0.5, 2.0))
            sb = float(rng.uniform(0.5, 2.0))
            t = int(rng.integers(2, 30))
            la = max(1, int(np.floor(t / sa + 0.5)))
            lb = max(1, int(np.floor(t / sb + 0.5)))
            for i_a, i_b in match_frames(la, sa, lb, sb):
                assert abs(i_a * sa - i_b * sb) <= 0.5

    def test_injective_both_sides(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sa = float(rng.uniform(0.5, 2.0))
            sb = float(rng.uniform(0.5, 2.0))
            pairs = match_frames(20, sa, 20, sb)
            firsts = [a for a, _ in pairs]
            seconds = [b for _, b in pairs]
            assert len(set(firsts)) == len(firsts)
            assert len(set(seconds)) == len(seconds)


class TestMakeViewPair:
    def test_nonempty_correspondences(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vp = make_view_pair(_seq(t=8), rng, AugmentRanges())
            assert len(vp.correspondences) >= 1

    def test_correspondence_indices_in_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vp = make_view_pair(_seq(t=12), rng, AugmentRanges())
            for i_a, i_b in vp.correspondences:
                assert 0 <= i_a < vp.view_a.frames
                assert 0 <= i_b < vp.view_b.frames

    def test_short_source_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_view_pair(_seq(t=1), rng, AugmentRanges())

    def test_identity_ranges_give_equal_views(self):
        rng = np.random.default_rng(0)
        seq = _seq(t=6)
        vp = make_view_pair(seq, rng, IDENTITY_RANGES)
        assert np.array_equal(vp.view_a.data, seq.data)
        assert np.array_equal(vp.view_b.data, seq.data)
        assert vp.correspondences == [(i, i) for i in range(6)]
