import json

import numpy as np
import pytest

from motiontok.data import (
    HeaderError,
    LabeledCorpus,
    NonFiniteError,
    PayloadSizeError,
    SkeletonSequence,
    center_normalize_frames,
    generate_synthetic_corpus,
    load_corpus,
    load_sequence,
    save_corpus,
    save_sequence,
)


def _seq(t=4, j=2, fps=30.0, seed=0):
    rng = np.random.default_rng(seed)
    return SkeletonSequence(data=rng.normal(size=(t, j, 3)), fps=fps)


class TestSkeletonSequence:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            SkeletonSequence(data=np.zeros((0, 2, 3)), fps=30.0)
        with pytest.raises(ValueError):
            SkeletonSequence(data=np.zeros((2, 2, 3)), fps=0.0)
        bad = np.zeros((2, 2, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            SkeletonSequence(data=bad, fps=30.0)

    def test_data_is_frozen(self):
        seq = _seq()
        with pytest.raises(ValueError):
            seq.data[0, 0, 0] = 1.0

    def test_flat_layout(self):
        seq = _seq(t=3, j=2)
        flat = seq.flat()
        assert flat.shape == (3, 6)
        assert np.array_equal(flat[1, 3:6], seq.data[1, 1])


class TestSequenceFiles:
    def test_binary_roundtrip_is_identity_at_f32(self, tmp_path):
        seq = _seq(t=5, j=3)
        path = save_sequence(seq, tmp_path / "a.skseq")
        back = load_sequence(path)
        assert back.fps == seq.fps
        assert np.array_equal(back.data, seq.data.astype(np.float32).astype(np.float64))

    def test_text_roundtrip(self, tmp_path):
        seq = _seq(t=4, j=2)
        path = save_sequence(seq, tmp_path / "a.skseq.json")
        back = load_sequence(path)
        np.testing.assert_allclose(back.data, seq.data, atol=1e-6)

    def test_declared_dims_respected(self, tmp_path):
        seq = _seq(t=4, j=2)
        back = load_sequence(save_sequence(seq, tmp_path / "a.skseq"))
        assert back.frames == 4 and back.joints == 2

    def test_payload_mismatch_is_distinct_error(self, tmp_path):
        path = tmp_path / "bad.skseq"
        header = b'{"version": 1, "fps": 30.0, "joints": 2, "frames": 4}\n'
        payload = np.zeros(23, dtype="<f4").tobytes()  # 24 expected
        path.write_bytes(header + payload)
        with pytest.raises(PayloadSizeError):
            load_sequence(path)

    def test_malformed_header_is_distinct_error(self, tmp_path):
        path = tmp_path / "bad.skseq"
        path.write_bytes(b"not json at all\n" + np.zeros(24, dtype="<f4").tobytes())
        with pytest.raises(HeaderError):
            load_sequence(path)
        path.write_bytes(b'{"version": 2, "fps": 30.0, "joints": 2, "frames": 4}\n'
                         + np.zeros(24, dtype="<f4").tobytes())
        with pytest.raises(HeaderError):
            load_sequence(path)

    def test_nonfinite_payload_is_distinct_error(self, tmp_path):
        path = tmp_path / "bad.skseq"
        header = b'{"version": 1, "fps": 30.0, "joints": 2, "frames": 4}\n'
        payload = np.full(24, np.inf, dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(NonFiniteError):
            load_sequence(path)


class TestCenterNormalize:
    def test_hand_case(self):
        out = center_normalize_frames(np.array([[[1.0, 1, 1], [3, 1, 1]]]))
        np.testing.assert_allclose(out[0], [[-1, 0, 0], [1, 0, 0]], atol=1e-12)

    def test_already_centered_unchanged(self):
        frames = np.array([[[-1.0, 0, 0], [1, 0, 0]]])
        np.testing.assert_allclose(center_normalize_frames(frames), frames, atol=1e-12)

    def test_per_frame_independence_preserves_geometry(self):
        base = np.array([[0.0, 0, 0], [1, 2, 3], [4, 5, 6]])
        frames = np.stack([base + [10, 0, 0], base + [0, -5, 2]])
        out = center_normalize_frames(frames)
        for t in range(2):
            assert np.abs(out[t].mean(axis=0)).max() < 1e-9
            orig = np.linalg.norm(frames[t][:, None] - frames[t][None], axis=-1)
            new = np.linalg.norm(out[t][:, None] - out[t][None], axis=-1)
            np.testing.assert_allclose(new, orig, atol=1e-12)

    def test_idempotent(self):
        once = center_normalize_frames(_seq(t=6, j=4, seed=3).data)
        twice = center_normalize_frames(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)


class TestSyntheticCorpus:
    def test_seed_determinism(self):
        a = generate_synthetic_corpus(8, 6, 4, 32, seed=7)
        b = generate_synthetic_corpus(8, 6, 4, 32, seed=7)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.data, sb.data)
        for la, lb in zip(a.frame_labels, b.frame_labels):
            assert np.array_equal(la, lb)

    def test_different_seed_differs(self):
        a = generate_synthetic_corpus(4, 3, 3, 32, seed=1)
        b = generate_synthetic_corpus(4, 3, 3, 32, seed=2)
        assert not np.array_equal(a.sequences[0].data, b.sequences[0].data)

    def test_sequences_satisfy_invariants(self):
        corpus = generate_synthetic_corpus(5, 8, 4, 24, seed=11)
        for seq, labels in zip(corpus.sequences, corpus.frame_labels):
            assert seq.frames >= 1 and seq.joints >= 1
            assert np.isfinite(seq.data).all()
            assert labels.shape == (seq.frames,)
            assert labels.min() >= 0 and labels.max() < 5

    def test_speed_rendering_varies_instance_length(self):
        corpus = generate_synthetic_corpus(3, 10, 1, 40, seed=5)
        lengths = {seq.frames for seq in corpus.sequences}
        assert len(lengths) > 1  # speed factors in [1/2, 2] change lengths

    def test_labels_in_range_and_cover_all_frames(self):
        corpus = generate_synthetic_corpus(2, 4, 5, 16, seed=9)
        for seq, labels in zip(corpus.sequences, corpus.frame_labels):
            assert len(labels) == seq.frames


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        corpus = generate_synthetic_corpus(3, 4, 2, 16, seed=2)
        save_corpus(corpus, tmp_path / "c")
        back = load_corpus(tmp_path / "c")
        assert back.primitive_count == 3
        assert len(back.sequences) == 4
        for sa, sb in zip(corpus.sequences, back.sequences):
            np.testing.assert_allclose(sa.data, sb.data, atol=1e-6)
        for la, lb in zip(corpus.frame_labels, back.frame_labels):
            assert np.array_equal(la, lb)

    def test_label_length_validation(self):
        seq = _seq(t=4)
        with pytest.raises(ValueError):
            LabeledCorpus(sequences=[seq], frame_labels=[np.zeros(3, dtype=int)],
                          primitive_count=1)
        with pytest.raises(ValueError):
            LabeledCorpus(sequences=[seq], frame_labels=[np.full(4, 5)],
                          primitive_count=2)


class TestCorpusManifest:
    """labels.json is refused with HeaderError before any sequence is read."""

    def _load_edited(self, tmp_path, edit):
        root = save_corpus(generate_synthetic_corpus(2, 2, 2, 8, seed=2), tmp_path / "c")
        manifest = json.loads((root / "labels.json").read_text())
        (root / "labels.json").write_text(json.dumps(edit(manifest)))
        return load_corpus(root)

    def test_not_json(self, tmp_path):
        root = save_corpus(generate_synthetic_corpus(2, 2, 2, 8, seed=2), tmp_path / "c")
        (root / "labels.json").write_text('{"primitive_count": 2, "labels": {')
        with pytest.raises(HeaderError, match="labels.json: invalid JSON"):
            load_corpus(root)

    def test_not_an_object(self, tmp_path):
        with pytest.raises(HeaderError, match="not a JSON object"):
            self._load_edited(tmp_path, lambda m: list(m.items()))

    @pytest.mark.parametrize("count", [None, 2.7, 0, "3", True])
    def test_bad_primitive_count(self, tmp_path, count):
        def edit(m):
            m.pop("primitive_count")
            return m if count is None else {**m, "primitive_count": count}

        with pytest.raises(HeaderError, match="primitive_count must be an integer >= 1"):
            self._load_edited(tmp_path, edit)

    def test_labels_not_an_object(self, tmp_path):
        with pytest.raises(HeaderError, match="labels must be an object, got list"):
            self._load_edited(tmp_path, lambda m: {**m, "labels": list(m["labels"].values())})

    @pytest.mark.parametrize("name", ["../outside.skseq", "sub/seq_0000.skseq",
                                      "seq_0000.skseq.json", "seq_0000.txt", ".skseq"])
    def test_entry_not_a_plain_skseq_name(self, tmp_path, name):
        # a file that exists outside the corpus directory must not be read
        save_sequence(_seq(t=8), tmp_path / "outside.skseq")

        def edit(m):
            labels = m["labels"]
            labels[name] = labels.pop("seq_0001.skseq")
            return m

        with pytest.raises(HeaderError, match="is not a plain"):
            self._load_edited(tmp_path, edit)

    # (frame, value): one frame's label, or the whole entry where frame is None
    @pytest.mark.parametrize("frame,value", [(3, 0.5), (3, 1.0), (3, "1"), (3, True),
                                             (3, None), (None, 3)])
    def test_labels_not_integers(self, tmp_path, frame, value):
        def edit(m):
            if frame is None:
                m["labels"]["seq_0000.skseq"] = value
            else:
                m["labels"]["seq_0000.skseq"][frame] = value
            return m

        with pytest.raises(HeaderError, match="seq_0000.skseq are not a list of integers"):
            self._load_edited(tmp_path, edit)
