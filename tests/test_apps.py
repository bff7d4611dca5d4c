import numpy as np
import pytest

from motiontok.apps import (
    BACKGROUND_CLASS,
    ActonClassMap,
    Detection,
    build_instance_library,
    compose,
    detect,
    learn_acton_class_map,
    nms,
    sample_instance,
)
from motiontok.data import generate_synthetic_corpus
from motiontok.lexicon import build_lexicon, tokenize_corpus
from motiontok.metrics import temporal_iou
from motiontok.tan import TanConfig, init_weights

TINY = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2,
                 projection_dim=8, sequence_length=8)


class TestActonClassMap:
    def test_plurality(self):
        actons = [np.array([0, 0, 0, 0, 0])]
        classes = [np.array([5, 5, 5, 5, 2])]
        cmap = learn_acton_class_map(actons, classes, acton_count=1)
        assert cmap.classes[0] == 5
        assert cmap.agreement[0] == pytest.approx(0.8)

    def test_unseen_acton_maps_to_background(self):
        cmap = learn_acton_class_map([np.array([0, 0])], [np.array([1, 1])],
                                     acton_count=3)
        assert cmap.classes[1] == BACKGROUND_CLASS
        assert cmap.classes[2] == BACKGROUND_CLASS

    def test_tie_breaks_to_lower_class(self):
        actons = [np.array([0, 0, 0, 0])]
        classes = [np.array([7, 7, 2, 2])]
        cmap = learn_acton_class_map(actons, classes, acton_count=1)
        assert cmap.classes[0] == 2

    def test_plurality_dominates_constant_map(self):
        rng = np.random.default_rng(0)
        actons = [rng.integers(0, 6, size=300)]
        classes = [rng.integers(0, 4, size=300)]
        cmap = learn_acton_class_map(actons, classes, acton_count=6)
        predicted = cmap.classes[actons[0]]
        acc = float((predicted == classes[0]).mean())
        best_constant = max(float((classes[0] == c).mean()) for c in range(4))
        assert acc >= best_constant


class TestNms:
    def test_identical_windows_keep_higher_confidence(self):
        dets = [Detection(0, 0, 10, 0.6), Detection(0, 0, 10, 0.9)]
        out = nms(dets, 0.5)
        assert out == [Detection(0, 0, 10, 0.9)]

    def test_disjoint_windows_both_survive(self):
        dets = [Detection(0, 0, 10, 0.6), Detection(0, 20, 30, 0.4)]
        assert len(nms(dets, 0.5)) == 2

    def test_pairwise_iou_below_threshold(self):
        rng = np.random.default_rng(1)
        dets = [Detection(int(rng.integers(0, 2)), int(s), int(s + rng.integers(5, 20)),
                          float(rng.random()))
                for s in rng.integers(0, 60, size=30)]
        out = nms(dets, 0.5)
        for i, a in enumerate(out):
            for b in out[i + 1:]:
                if a.class_id == b.class_id:
                    assert temporal_iou((a.start, a.end), (b.start, b.end)) < 0.5

    def test_classes_suppressed_independently(self):
        dets = [Detection(0, 0, 10, 0.9), Detection(1, 0, 10, 0.8)]
        assert len(nms(dets, 0.5)) == 2


def _uniform_setup(t=20):
    """Frame acton labels that are all acton 0, and a map sending acton 0 to class 3."""
    cmap = learn_acton_class_map([np.zeros(4, dtype=int)], [np.full(4, 3)],
                                 acton_count=2)
    return np.zeros(t, dtype=np.int64), cmap


class TestDetect:
    def test_uniform_mapping_single_full_window(self):
        actons, cmap = _uniform_setup(t=20)
        dets = detect(actons, cmap, window_scales=[20])
        assert dets == [Detection(3, 0, 20, 1.0)]

    def test_oversized_scale_skipped_with_warning(self):
        actons, cmap = _uniform_setup(t=10)
        with pytest.warns(UserWarning, match="exceeds"):
            dets = detect(actons, cmap, window_scales=[10, 99])
        assert dets == [Detection(3, 0, 10, 1.0)]

    def test_windows_follow_label_runs(self):
        cmap = ActonClassMap(classes=np.array([3, 5, BACKGROUND_CLASS]),
                             agreement=np.ones(3))
        actons = np.array([0] * 8 + [1] * 6 + [2] * 2)
        dets = detect(actons, cmap, window_scales=[8], stride=8)
        assert dets == [Detection(3, 0, 8, 1.0), Detection(5, 8, 16, 0.75)]

    def test_deterministic(self):
        actons = np.random.default_rng(3).integers(0, 2, size=24)
        _, cmap = _uniform_setup()
        a = detect(actons, cmap, [8, 12], stride=2)
        b = detect(actons, cmap, [8, 12], stride=2)
        assert a == b

    def test_stride_validation(self):
        actons, cmap = _uniform_setup(t=10)
        with pytest.raises(ValueError):
            detect(actons, cmap, [5], stride=0)

    @pytest.mark.parametrize("actons", [np.zeros((2, 5), dtype=int), np.zeros(5),
                                        np.array([0, -1, 0]), np.array([0, 2, 1]),
                                        np.zeros(0, dtype=int)],
                             ids=["2d", "float", "negative", "beyond-k", "empty"])
    def test_bad_frame_actons_rejected(self, actons):
        _, cmap = _uniform_setup()
        with pytest.raises(ValueError, match=r"acton ids in \[0, 2\)"):
            detect(actons, cmap, [2])


@pytest.fixture(scope="module")
def library():
    corpus = generate_synthetic_corpus(3, 6, 4, 12, seed=17)
    weights = init_weights(TINY, joints=corpus.sequences[0].joints, seed=2)
    lexicon = build_lexicon(corpus, weights, k=4, seed=1)
    streams, _ = tokenize_corpus(corpus, weights, lexicon)
    return build_instance_library(corpus.sequences, streams)


class TestCompose:
    def test_single_word_is_exact_instance(self, library):
        rng = np.random.default_rng(5)
        motion = compose(library, word_count=1, boundary_threshold=1.0,
                         blend_frames=5, rng=rng)
        pool = library.instances[motion.words[0]]
        assert any(inst.shape == motion.sequence.data.shape
                   and np.array_equal(inst, motion.sequence.data) for inst in pool)
        assert motion.splice_boundaries == ()

    def test_seed_deterministic(self, library):
        m1 = compose(library, 5, 1.0, 4, np.random.default_rng(9))
        m2 = compose(library, 5, 1.0, 4, np.random.default_rng(9))
        assert m1.words == m2.words
        assert np.array_equal(m1.sequence.data, m2.sequence.data)

    def test_identical_boundary_frames_blend_constant(self):
        from motiontok.apps import InstanceLibrary
        frame = np.random.default_rng(3).normal(size=(4, 3))
        inst = np.tile(frame, (6, 1, 1))
        lib = InstanceLibrary(instances={0: [inst]}, fps=30.0)
        motion = compose(lib, word_count=2, boundary_threshold=1.0,
                         blend_frames=3, rng=np.random.default_rng(0))
        start = motion.splice_boundaries[0]
        for t in range(start, start + 3):
            np.testing.assert_allclose(motion.sequence.data[t], frame, atol=1e-12)

    def test_splice_displacement_property_100_seeds(self, library):
        threshold, blend = 1.0, 4
        for seed in range(100):
            motion = compose(library, word_count=4, boundary_threshold=threshold,
                             blend_frames=blend, rng=np.random.default_rng(seed))
            data = motion.sequence.data
            assert np.isfinite(data).all()
            steps = np.linalg.norm(np.diff(data, axis=0), axis=-1).max(axis=-1)
            intra_max = _max_intra_instance_step(library)
            bound = max(threshold / blend, intra_max)
            for b in motion.splice_boundaries:
                lo = max(0, b - 1)
                hi = min(steps.shape[0], b + blend + 1)
                assert steps[lo:hi].max() <= bound + 1e-9

    def test_empty_acton_rejected(self, library):
        with pytest.raises(ValueError, match="no stored instances"):
            sample_instance(library, acton=999, rng=np.random.default_rng(0))

    def test_empty_library_rejected(self):
        from motiontok.apps import InstanceLibrary
        lib = InstanceLibrary(instances={}, fps=30.0)
        with pytest.raises(ValueError):
            compose(lib, 2, 1.0, 3, np.random.default_rng(0))

    def test_word_count_validation(self, library):
        with pytest.raises(ValueError):
            compose(library, 0, 1.0, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_boundary_threshold_validation(self, library, threshold):
        with pytest.raises(ValueError, match="boundary_threshold"):
            compose(library, 3, threshold, 3, np.random.default_rng(0))


def _max_intra_instance_step(library) -> float:
    worst = 0.0
    for pool in library.instances.values():
        for inst in pool:
            if inst.shape[0] > 1:
                step = np.linalg.norm(np.diff(inst, axis=0), axis=-1).max()
                worst = max(worst, step)
    return worst
