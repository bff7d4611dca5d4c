import dataclasses
import hashlib

import numpy as np
import pytest

from motiontok import autodiff as ad, tan
from motiontok.autodiff import ShapeError
from motiontok.tan import (
    _CHUNK,
    TanConfig,
    checkpoint_digest,
    embed_sequence,
    encode,
    init_weights,
    load_checkpoint,
    positional_encoding,
    project,
    save_checkpoint,
    weights_digest,
)
from testkit import grad_check, weighted_sum

TINY = TanConfig(hidden_dim=16, encoder_layers=1, attention_heads=2,
                 projection_dim=8, sequence_length=6)


def tiny_weights(seed=0, joints=3):
    return init_weights(TINY, joints=joints, seed=seed)


def assert_bound(w):
    """Every tensor's values and gradient are views of the flat buffers
    w.values and w.grads at the tensor's offset, in tensor order."""
    lo = 0
    for t in w.tensors.values():
        for view, flat in ((t.values, w.values), (t.grad, w.grads)):
            assert np.shares_memory(view, flat) and view.flags.c_contiguous
            assert view.ctypes.data == flat.ctypes.data + lo * flat.itemsize
        lo += t.values.size
    assert lo == w.values.size == w.grads.size
    assert not np.shares_memory(w.values, w.grads)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            TanConfig(hidden_dim=10, attention_heads=4)

    @pytest.mark.parametrize("hidden,heads", [(3, 3), (9, 1), (15, 5)])
    def test_odd_hidden_dim_rejected(self, hidden, heads):
        # the sine/cosine positions pair up channels; an odd width used to
        # build and then fail at the first forward
        with pytest.raises(ValueError, match=f"hidden_dim must be even .*got {hidden}"):
            TanConfig(hidden_dim=hidden, attention_heads=heads)

    def test_ffn_defaults_to_twice_hidden(self):
        w = init_weights(TanConfig(hidden_dim=32, encoder_layers=2, attention_heads=4), 3, 0)
        for i in range(2):
            assert w.tensors[f"enc{i}.ffn.fc1.w"].shape == (32, 64)
            assert w.tensors[f"enc{i}.ffn.fc2.w"].shape == (64, 32)

    def test_fields_are_the_weight_shapes_and_crop_length(self):
        assert [f.name for f in dataclasses.fields(TanConfig)] == [
            "hidden_dim", "encoder_layers", "attention_heads", "projection_dim",
            "sequence_length"]

    @pytest.mark.parametrize("key", ["temperature", "ffn_dim"])
    def test_removed_field_rejected(self, key):
        # training reads train.temperature; the FFN width is 2 * hidden_dim
        with pytest.raises(TypeError, match=key):
            TanConfig(**{key: 64})


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        pe = positional_encoding(3, 6)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    def test_hand_values_pos1(self):
        pe = positional_encoding(2, 4)
        assert pe[1, 0] == pytest.approx(np.sin(1.0))
        assert pe[1, 1] == pytest.approx(np.cos(1.0))
        assert pe[1, 2] == pytest.approx(np.sin(1.0 / 10000 ** 0.5))
        assert pe[1, 3] == pytest.approx(np.cos(1.0 / 10000 ** 0.5))

    def test_bounded(self):
        pe = positional_encoding(50, 16)
        assert pe.min() >= -1.0 and pe.max() <= 1.0


class TestEncode:
    @pytest.mark.parametrize("t", [1, 7, 64])
    def test_preserves_temporal_resolution(self, t):
        w = tiny_weights()
        x = np.random.default_rng(t).normal(size=(2, t, 9))
        z = encode(x, w)
        assert z.shape == (2, t, 16)

    def test_batch_permutation_equivariance(self):
        w = tiny_weights()
        x = np.random.default_rng(1).normal(size=(3, 5, 9))
        z = encode(x, w).values
        z_perm = encode(x[[2, 0, 1]], w).values
        np.testing.assert_allclose(z_perm, z[[2, 0, 1]], atol=1e-12)

    def test_positional_encoding_breaks_symmetry(self):
        w = tiny_weights()
        z = encode(np.zeros((1, 6, 9)), w).values
        # identical frames at different positions embed differently
        assert not np.allclose(z[0, 0], z[0, 3])

    def test_input_dim_mismatch(self):
        w = tiny_weights(joints=3)
        with pytest.raises(ShapeError, match="3\\*J"):
            encode(np.zeros((1, 4, 12)), w)

    def test_deterministic(self):
        w = tiny_weights()
        x = np.random.default_rng(2).normal(size=(1, 6, 9))
        assert np.array_equal(encode(x, w).values, encode(x, w).values)

    def test_attention_rows_sum_to_one(self):
        # the probabilities each attention node keeps for its backward
        w = tiny_weights()
        z = encode(np.random.default_rng(3).normal(size=(2, 6, 9)), w)
        nodes = [n for n in ad.topo_order(z) if n.op == "attention"]
        assert len(nodes) == TINY.encoder_layers
        for node in nodes:
            (attn,) = node._backward.probs  # two views of 6 frames: one group
            assert attn.shape == (2, TINY.attention_heads, 6, 6)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)

    def test_packed_views_match_views_encoded_alone(self):
        w = init_weights(TanConfig(hidden_dim=16, encoder_layers=2, attention_heads=2,
                                   projection_dim=8, sequence_length=6), joints=3, seed=1)
        rng = np.random.default_rng(7)
        views = [rng.normal(size=(t, 9)) for t in (5, 1, 8, 5)]
        offsets = np.cumsum([0] + [len(v) for v in views])
        packed = project(encode(np.concatenate(views), w, offsets), w).values
        for v, lo, hi in zip(views, offsets[:-1], offsets[1:]):
            np.testing.assert_allclose(packed[lo:hi], project(encode(v, w), w).values[0],
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("offsets", [[0, 3, 3, 8], [1, 8], [0, 7], [0, 8, 9]])
    def test_bad_view_offsets_rejected(self, offsets):
        with pytest.raises(ShapeError, match="offsets"):
            encode(np.zeros((8, 9)), tiny_weights(), offsets)

    def test_graph_size_independent_of_head_count(self):
        x = np.random.default_rng(4).normal(size=(2, 6, 9))
        nodes = []
        for heads in (1, 2, 4):
            config = TanConfig(hidden_dim=16, encoder_layers=2, attention_heads=heads,
                               projection_dim=8, sequence_length=6)
            w = init_weights(config, joints=3, seed=0)
            nodes.append(len(ad.topo_order(project(encode(x, w), w))))
        assert nodes[0] == nodes[1] == nodes[2]


class TestProject:
    def test_unit_norm(self):
        w = tiny_weights()
        v = project(encode(np.random.default_rng(0).normal(size=(2, 5, 9)), w), w)
        np.testing.assert_allclose(np.linalg.norm(v.values, axis=-1), 1.0, atol=1e-9)

    def test_scale_invariance_of_head(self):
        w = tiny_weights()
        x = np.random.default_rng(1).normal(size=(1, 4, 9))
        v1 = project(encode(x, w), w).values
        w.tensors["proj.fc2.w"].values *= 10.0
        w.tensors["proj.fc2.b"].values *= 10.0
        v2 = project(encode(x, w), w).values
        np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_two_dim_projection_on_unit_circle(self):
        cfg = TanConfig(hidden_dim=8, encoder_layers=1, attention_heads=2,
                        projection_dim=2, sequence_length=4)
        w = init_weights(cfg, joints=2, seed=1)
        v = project(encode(np.random.default_rng(2).normal(size=(1, 4, 6)), w), w)
        radii = np.sqrt((v.values ** 2).sum(-1))
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)

    def test_degenerate_projection_rejected(self):
        w = tiny_weights()
        w.tensors["proj.fc2.w"].values[:] = 0.0
        w.tensors["proj.fc2.b"].values[:] = 0.0
        with pytest.raises(ValueError, match="degenerate|norm"):
            project(encode(np.zeros((1, 3, 9)), w), w)


class TestFullModelGradient:
    def test_grad_check_through_encode_project(self):
        w = tiny_weights(seed=4)
        x = np.random.default_rng(5).normal(size=(1, 6, 9))
        weighting = np.random.default_rng(6).normal(size=(1, 6, 8))

        errs = {}
        for name in ("embed.fc1.w", "enc0.attn.q.w", "enc0.ln1.gamma",
                     "enc0.ffn.fc1.w", "proj.fc2.w", "proj.fc1.b"):
            def probe(t, _name=name):
                v = project(encode(x, w), w)
                return weighted_sum(v, weighting)

            errs[name] = grad_check(probe, w.tensors[name], eps=1e-4)
        worst = max(errs.values())
        assert worst < 1e-4, errs


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        w = tiny_weights(seed=9)
        path = save_checkpoint(w, tmp_path / "w.tan")
        back = load_checkpoint(path)
        assert back.config == w.config
        assert back.joints == w.joints and back.seed == w.seed
        for name in w.tensors:
            assert np.array_equal(back.tensors[name].values, w.tensors[name].values)

    def test_digest_matches_in_memory(self, tmp_path):
        w = tiny_weights(seed=3)
        path = save_checkpoint(w, tmp_path / "w.tan")
        assert checkpoint_digest(path) == weights_digest(w)

    def test_digest_changes_with_weights(self, tmp_path):
        w = tiny_weights(seed=3)
        d1 = weights_digest(w)
        w.tensors["embed.fc1.w"].values[0, 0] += 1.0
        assert weights_digest(w) != d1

    def test_tensors_view_the_flat_buffers(self, tmp_path):
        w = tiny_weights(seed=4)
        assert_bound(w)
        back = load_checkpoint(save_checkpoint(w, tmp_path / "w.tan"))
        assert_bound(back)
        assert back.values.tobytes() == w.values.tobytes()
        w.grads.fill(0.0)
        assert_bound(w)

    def test_loaded_weights_writable_and_train_like_in_memory(self, tmp_path):
        from motiontok.train import AdamState, adam_step, clip_gradients
        w = tiny_weights(seed=2)
        back = load_checkpoint(save_checkpoint(w, tmp_path / "w.tan"))
        assert all(t.values.flags.writeable for t in back.tensors.values())
        x = np.random.default_rng(3).normal(size=(2, 6, 9))
        weighting = np.random.default_rng(4).normal(size=(2, 6, 8))
        grads = []
        for weights in (w, back):
            state = AdamState()
            for _ in range(3):
                v = project(encode(x, weights), weights)
                ad.backward(weighted_sum(v, weighting))
                grads.append(weights.grads.copy())
                adam_step(weights, weights, state, 1e-2, 1e-6, clip_gradients(weights, 0.5)[1])
        for name in w.tensors:
            assert np.array_equal(back.tensors[name].values, w.tensors[name].values)
        assert all(np.array_equal(g, h) for g, h in zip(grads[:3], grads[3:]))
        assert_bound(w)
        assert_bound(back)
        assert weights_digest(back) == weights_digest(w) != checkpoint_digest(tmp_path / "w.tan")

    def test_reject_non_checkpoint(self, tmp_path):
        p = tmp_path / "junk.tan"
        p.write_bytes(b"hello world\nmore")
        with pytest.raises(ValueError):
            load_checkpoint(p)


class TestEmbedSequence:
    def test_projection_space_shape(self):
        from motiontok.data import SkeletonSequence
        w = tiny_weights()
        seq = SkeletonSequence(data=np.random.default_rng(0).normal(size=(5, 3, 3)),
                               fps=30.0)
        emb = embed_sequence(seq, w)
        assert emb.shape == (5, 8)
        hid = embed_sequence(seq, w, space="hidden")
        assert hid.shape == (5, 16)

    def test_unknown_space_rejected(self):
        w = tiny_weights()
        with pytest.raises(ValueError):
            embed_sequence(np.zeros((3, 9)), w, space="bogus")


def _window_oracle(x, w, space, window):
    """Tensor encode (and project) run on each frame's clamped window, keeping
    that frame's row; window None (or T <= window) encodes the whole clip."""
    def run(clip):
        z = encode(clip, w)
        return (z if space == "hidden" else project(z, w)).values[0]

    t = x.shape[0]
    if window is None or t <= window:
        return run(x)
    rows = []
    for i in range(t):
        start = min(max(i - window // 2, 0), t - window)
        rows.append(run(x[start:start + window])[i - start])
    return np.array(rows)


class TestWindowedInference:
    """embed_sequence (hoisted embedding and first-layer projections, distinct
    windows _CHUNK per pass, last layer on the served rows only) against the
    per-window Tensor forward."""

    WINDOW = 6

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("space", ["hidden", "projection"])
    @pytest.mark.parametrize("frames,window", [
        (5, WINDOW),    # T < window: one whole-clip pass
        (6, WINDOW),    # T = window
        (7, WINDOW),    # T = window + 1: two distinct clamped windows
        (23, WINDOW),   # 18 distinct windows: one partial chunk
        (40, WINDOW),   # 35 distinct windows, 33 interior: more than one chunk of 32
        (_CHUNK + WINDOW - 1, WINDOW),  # one full chunk: both clamped ends and the interior
        (_CHUNK + WINDOW, WINDOW),      # the right clamped end alone in a second chunk
        (5, 1),         # window 1: every frame its own one-slot window
        (40, 1),        # window 1 over two chunks
        (5, 2),         # window 2: the left clamped window serves two frames
        (_CHUNK + 2, 2),  # window 2 over two chunks
        (9, None),      # whole sequence
    ])
    def test_matches_per_window_encode(self, layers, space, frames, window):
        config = TanConfig(hidden_dim=16, encoder_layers=layers, attention_heads=4,
                           projection_dim=8, sequence_length=6)
        w = init_weights(config, joints=3, seed=layers)
        x = np.random.default_rng(frames).normal(size=(frames, 9))
        got = embed_sequence(x, w, space=space, window=window)
        want = _window_oracle(x, w, space, window)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10

    @pytest.mark.parametrize("frames,window,passes", [
        (5, WINDOW, 1),                    # T < window: the whole clip is one window
        (7, WINDOW, 1),                    # 2 distinct windows
        (_CHUNK + WINDOW - 1, WINDOW, 1),  # _CHUNK distinct windows
        (_CHUNK + WINDOW, WINDOW, 2),      # _CHUNK + 1
        (3 * _CHUNK + WINDOW, WINDOW, 4),  # 3 _CHUNK + 1
        (40, 1, 2),                        # 40 one-frame windows
        (9, None, 1),
    ])
    def test_one_pass_per_chunk_of_distinct_windows(self, monkeypatch, frames, window, passes):
        # windows share a pass whatever number of frames each serves
        calls = []

        def counted(*args):
            calls.append(args[3].shape[0])
            return encode_windows(*args)

        encode_windows = tan._encode_windows
        monkeypatch.setattr(tan, "_encode_windows", counted)
        w = tiny_weights()
        embed_sequence(np.random.default_rng(0).normal(size=(frames, 9)), w, window=window)
        distinct = 1 if window is None or frames <= window else frames - window + 1
        assert len(calls) == passes == -(-distinct // _CHUNK)
        assert sum(calls) == distinct

    @pytest.mark.parametrize("window", [0, -3])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(ValueError, match="context window must be None or >= 1"):
            embed_sequence(np.zeros((4, 9)), tiny_weights(), window=window)

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ShapeError):
            embed_sequence(np.zeros((4, 8)), tiny_weights(), window=3)

    @pytest.mark.parametrize("window", [None, 3])
    def test_empty_sequence_rejected(self, window):
        with pytest.raises(ShapeError, match="T >= 1"):
            embed_sequence(np.zeros((0, 9)), tiny_weights(), window=window)

    # sha256 prefixes of the float64 output bytes. The oracle test above holds
    # embed_sequence to 1e-10; these hold it to the bit, so a reordered
    # floating-point operation in the inference path shows.
    @pytest.mark.parametrize("layers,window,space,digest", [
        (1, WINDOW, "projection", "bec36030106fd296"),
        (1, WINDOW, "hidden", "04554b6773ec02bf"),
        (1, None, "projection", "969658169446220a"),
        (1, None, "hidden", "057a28d24bf0e2d5"),
        (3, WINDOW, "projection", "44d84607198dc65b"),
        (3, WINDOW, "hidden", "b772bccb4cff4a2d"),
        (3, None, "projection", "71e25d6daab11cf3"),
        (3, None, "hidden", "654b8c9fab874657"),
    ])
    def test_output_pinned(self, layers, window, space, digest):
        config = TanConfig(hidden_dim=16, encoder_layers=layers, attention_heads=4,
                           projection_dim=8, sequence_length=6)
        w = init_weights(config, joints=3, seed=layers)
        x = np.random.default_rng(40).normal(size=(40, 9))
        got = embed_sequence(x, w, space=space, window=window)
        raw = np.ascontiguousarray(got, "<f8").tobytes()
        assert hashlib.sha256(raw).hexdigest()[:16] == digest
