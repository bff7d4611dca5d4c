import zlib

import numpy as np
import pytest

from motiontok import autodiff as ad
from motiontok.autodiff import ShapeError, Tensor
from testkit import grad_check


def _param(shape, seed, avoid_kink=None):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if avoid_kink is not None:
        while (np.abs(values) < avoid_kink).any():
            values = rng.normal(size=shape)
    return ad.parameter(values)


def _rand_weighting(shape, seed):
    return Tensor(np.random.default_rng(seed + 900).normal(size=shape))


class TestForwardValues:
    def test_mul_gradient_hand_case(self):
        x = ad.parameter(np.array(3.0))
        y = ad.mul(x, x)
        ad.backward(y)
        assert x.grad == pytest.approx(6.0)

    def test_softmax_of_constant_vector(self):
        out = ad.softmax(Tensor(np.ones(4)), axis=-1)
        np.testing.assert_allclose(out.values, 0.25)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 7)) * 10)
        out = ad.softmax(x, axis=-1)
        np.testing.assert_allclose(out.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_l2_normalize_constant_function_grad_zero(self):
        # f(x) = sum(normalize(x)^2) is identically 1 per row
        x = _param((3, 4), seed=1)
        y = ad.tensor_sum(ad.mul(ad.l2_normalize(x), ad.l2_normalize(x)))
        ad.backward(y)
        assert np.abs(x.grad).max() < 1e-12

    def test_layer_norm_moments(self):
        x = Tensor(np.random.default_rng(2).normal(size=(4, 6)) * 3 + 1)
        out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.abs(out.values.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.values.var(axis=-1) - 1.0).max() < 1e-9

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_no_silent_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


class TestBackwardStructure:
    def test_matmul_sum_hand_computed(self):
        a = ad.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = ad.parameter(np.array([[5.0, 6.0], [7.0, 8.0]]))
        loss = ad.tensor_sum(ad.matmul(a, b))
        ad.backward(loss)
        # dL/dA = ones @ B^T, dL/dB = A^T @ ones, evaluated by hand
        np.testing.assert_allclose(a.grad, [[11.0, 15.0], [11.0, 15.0]])
        np.testing.assert_allclose(b.grad, [[4.0, 4.0], [6.0, 6.0]])

    def test_disconnected_parameter_grad_stays_zero(self):
        a = ad.parameter(np.ones(3))
        b = ad.parameter(np.ones(3))
        loss = ad.tensor_sum(ad.mul(a, a))
        ad.backward(loss)
        assert np.array_equal(b.grad, np.zeros(3))

    def test_two_paths_accumulate(self):
        x = ad.parameter(np.array(2.0))
        loss = ad.add(ad.mul(x, x), ad.mul(x, x))  # 2x^2 -> grad 4x = 8
        ad.backward(loss)
        assert x.grad == pytest.approx(8.0)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(ad.mul(x, x))

    def test_backward_deterministic(self):
        def run():
            x = ad.parameter(np.arange(6.0).reshape(2, 3) + 1)
            y = ad.mean(ad.sqrt(ad.scalar_mul(ad.mul(x, x), 0.5)))
            ad.backward(y)
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_interior_grad_allocated_on_use_and_released(self):
        x = ad.parameter(np.ones(3))
        y = ad.mul(x, x)
        loss = ad.tensor_sum(y)
        assert y.grad is None and loss.grad is None  # nothing allocated by the forward
        ad.backward(loss)
        assert y.grad is None and y._backward is None
        assert loss.grad is None and loss._backward is None
        assert y.parents == (x, x)  # the graph stays walkable
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        with pytest.raises(RuntimeError, match="already propagated"):
            ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_no_grad_blocks_recording(self):
        x = ad.parameter(np.ones(3))
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y.parents == ()


class TestGradCheckOracle:
    def test_quadratic_tight(self):
        # central differences are exact to O(eps^2) for quadratics
        x = _param((4, 3), seed=5)
        err = grad_check(lambda t: ad.tensor_sum(ad.mul(t, t)), x, eps=1e-4)
        assert err < 1e-6

    def test_two_layer_perceptron(self):
        rng = np.random.default_rng(8)
        w1 = Tensor(rng.normal(size=(5, 6)))
        w2 = Tensor(rng.normal(size=(6, 1)))

        def mlp(t):
            h = ad.relu(ad.matmul(t, w1))
            # resample-style guard is handled by input choice below
            return ad.tensor_sum(ad.matmul(h, w2))

        x = ad.parameter(rng.normal(size=(3, 5)))
        # keep preactivations away from the ReLU kink
        while (np.abs(np.matmul(x.values, w1.values)) < 1e-3).any():
            x = ad.parameter(rng.normal(size=(3, 5)))
        assert grad_check(mlp, x, eps=1e-4) < 1e-4

    def test_constant_function(self):
        x = _param((3,), seed=9)
        err = grad_check(lambda t: Tensor(np.array(7.0)), x, eps=1e-4)
        assert err == 0.0


# anchor rows and positive columns of a 5 x 6 similarity matrix; the rows
# are frames of clips 0, 0, 1, 1, 2 and the columns of clips 0, 0, 0, 1, 2, 2
_NT_XENT_PAIRS = (np.array([0, 1, 3, 4]), np.array([2, 0, 3, 5]))
_NT_XENT_CLIPS = (np.array([0, 0, 1, 1, 2]), np.array([0, 0, 0, 1, 2, 2]))


def _nt_xent_masks(exclude_same_clip: bool):
    """Denominator masks of both directions: every entry, or the positive
    and the other clips' frames."""
    rows, cols = _NT_XENT_PAIRS
    masks = []
    for anchors, positives, own, other in ((rows, cols, *_NT_XENT_CLIPS),
                                           (cols, rows, *_NT_XENT_CLIPS[::-1])):
        mask = own[anchors][:, None] != other[None, :]
        if not exclude_same_clip:
            mask[:] = True
        mask[np.arange(len(anchors)), positives] = True
        masks.append(mask)
    return masks


def _catalog_cases():
    mk = _param
    w = _rand_weighting
    return [
        ("add", lambda x: ad.tensor_sum(ad.mul(ad.add(x, Tensor(np.ones(x.shape))),
                                               w(x.shape, 1))), (3, 4), None),
        ("sub", lambda x: ad.tensor_sum(ad.mul(ad.sub(x, Tensor(np.ones(x.shape))),
                                               w(x.shape, 2))), (3, 4), None),
        ("mul", lambda x: ad.tensor_sum(ad.mul(ad.mul(x, x), w(x.shape, 3))), (3, 4), None),
        ("scalar_add", lambda x: ad.tensor_sum(ad.mul(ad.scalar_add(x, 2.5),
                                                      w(x.shape, 4))), (4,), None),
        ("scalar_mul", lambda x: ad.tensor_sum(ad.mul(ad.scalar_mul(x, -1.7),
                                                      w(x.shape, 5))), (4,), None),
        ("matmul_2d", lambda x: ad.tensor_sum(ad.mul(ad.matmul(x, Tensor(
            np.random.default_rng(6).normal(size=(4, 5)))), w((3, 5), 6))), (3, 4), None),
        ("matmul_stacked", lambda x: ad.tensor_sum(ad.mul(ad.matmul(x, Tensor(
            np.random.default_rng(7).normal(size=(2, 4, 3)))), w((2, 5, 3), 7))),
         (2, 5, 4), None),
        ("concat", lambda x: ad.tensor_sum(ad.mul(
            ad.concat([x, ad.scalar_mul(x, 2.0)], axis=0), w((6, 3), 8))), (3, 3), None),
        ("slice", lambda x: ad.tensor_sum(ad.mul(
            ad.slice_tensor(x, (slice(1, 3), slice(0, 2))), w((2, 2), 9))), (4, 3), None),
        ("take_rows", lambda x: ad.tensor_sum(ad.mul(
            ad.take_rows(x, np.array([0, 2, 2, 1])), w((4, 3), 10))), (3, 3), None),
        ("transpose", lambda x: ad.tensor_sum(ad.mul(
            ad.transpose(x, (1, 0)), w((4, 3), 11))), (3, 4), None),
        ("reshape", lambda x: ad.tensor_sum(ad.mul(
            ad.reshape(x, (2, 6)), w((2, 6), 12))), (3, 4), None),
        ("sqrt", lambda x: ad.tensor_sum(ad.mul(
            ad.sqrt(ad.scalar_add(ad.mul(x, x), 0.5)), w(x.shape, 15))), (3, 3), None),
        ("relu", lambda x: ad.tensor_sum(ad.mul(ad.relu(x), w(x.shape, 16))),
         (4, 4), 1e-3),
        ("softmax", lambda x: ad.tensor_sum(ad.mul(
            ad.softmax(x, axis=-1), w(x.shape, 17))), (3, 5), None),
        ("layer_norm", lambda x: ad.tensor_sum(ad.mul(ad.layer_norm(
            x, Tensor(np.full(5, 1.3)), Tensor(np.full(5, -0.2))), w((3, 5), 18))),
         (3, 5), None),
        ("sum_axis", lambda x: ad.tensor_sum(ad.mul(
            ad.tensor_sum(x, axis=1), w((3,), 19))), (3, 4), None),
        ("mean_axis", lambda x: ad.tensor_sum(ad.mul(
            ad.mean(x, axis=0), w((4,), 20))), (3, 4), None),
        ("mean_full", lambda x: ad.mean(ad.mul(x, x)), (3, 4), None),
        ("l2_normalize", lambda x: ad.tensor_sum(ad.mul(
            ad.l2_normalize(x), w(x.shape, 21))), (3, 4), None),
        ("dot_last", lambda x: ad.tensor_sum(ad.mul(ad.dot_last(x, ad.softmax(x, axis=-1)),
                                                    w((3,), 22))), (3, 4), None),
        ("add_bias", lambda x: ad.tensor_sum(ad.mul(
            ad.add_bias(x, Tensor(np.arange(4.0))), w(x.shape, 24))), (3, 4), None),
        ("masked_logsumexp", lambda x: ad.tensor_sum(ad.mul(ad.masked_logsumexp(
            x, np.random.default_rng(25).random((3, 5)) > 0.3, axis=1),
            w((3,), 25))), (3, 5), None),
        ("nt_xent_all_frames", lambda x: ad.nt_xent(
            x, *_NT_XENT_PAIRS, *_nt_xent_masks(exclude_same_clip=False)), (5, 6), None),
        ("nt_xent_exclude_same_clip", lambda x: ad.nt_xent(
            x, *_NT_XENT_PAIRS, *_nt_xent_masks(exclude_same_clip=True)), (5, 6), None),
        ("attention_unequal_segments", lambda x: ad.tensor_sum(ad.mul(ad.attention(
            x, x, x, 2, [0, 2, 7, 9], [0, 2, 7, 9]), w((9, 4), 34))), (9, 4), None),
        ("attention_query_ne_key_q", lambda x: ad.tensor_sum(ad.mul(ad.attention(
            x, w((7, 4), 35), w((7, 4), 36), 2, [0, 2, 5], [0, 4, 7]), w((5, 4), 37))),
         (5, 4), None),
        ("attention_query_ne_key_kv", lambda x: ad.tensor_sum(ad.mul(ad.attention(
            w((5, 4), 38), x, ad.scalar_mul(x, -0.5), 2, [0, 2, 5], [0, 4, 7]),
            w((5, 4), 39))), (7, 4), None),
        ("attention_one_frame_segment", lambda x: ad.tensor_sum(ad.mul(ad.attention(
            x, x, x, 2, [0, 1, 4, 5], [0, 1, 4, 5]), w((5, 4), 40))), (5, 4), None),
        ("linear_2d", lambda x: ad.tensor_sum(ad.mul(ad.linear(
            x, _rand_weighting((4, 5), 26), _rand_weighting((5,), 27)), w((3, 5), 26))),
         (3, 4), None),
        ("linear_3d", lambda x: ad.tensor_sum(ad.mul(ad.linear(
            x, _rand_weighting((4, 5), 28), _rand_weighting((5,), 29)), w((2, 3, 5), 28))),
         (2, 3, 4), None),
        ("linear_3d_weight", lambda x: ad.tensor_sum(ad.mul(ad.linear(
            _rand_weighting((2, 3, 4), 30), x, _rand_weighting((5,), 31)), w((2, 3, 5), 30))),
         (4, 5), None),
        ("linear_3d_bias", lambda x: ad.tensor_sum(ad.mul(ad.linear(
            _rand_weighting((2, 3, 4), 32), _rand_weighting((4, 5), 33), x), w((2, 3, 5), 32))),
         (5,), None),
    ]


@pytest.mark.parametrize("name,fn,shape,kink", _catalog_cases(),
                         ids=[c[0] for c in _catalog_cases()])
def test_catalog_op_grad_check(name, fn, shape, kink):
    x = _param(shape, seed=zlib.crc32(name.encode()), avoid_kink=kink)
    assert grad_check(fn, x, eps=1e-4) < 1e-4


def _forward_op_cases():
    """The ops a forward pass runs, each with plain-array operands."""
    rng = np.random.default_rng(40)
    a = lambda *shape: rng.normal(size=shape)
    return [
        ("linear", ad.linear, (a(2, 3, 4), a(4, 5), a(5))),
        ("relu", ad.relu, (a(3, 4),)),
        ("add", ad.add, (a(3, 4), a(3, 4))),
        ("matmul", ad.matmul, (a(2, 3, 4), a(2, 4, 5))),
        ("transpose", lambda x: ad.transpose(x, (0, 2, 1)), (a(2, 3, 4),)),
        ("reshape", lambda x: ad.reshape(x, (6, -1)), (a(2, 3, 4),)),
        ("scalar_mul", lambda x: ad.scalar_mul(x, -1.7), (a(3, 4),)),
        ("softmax", lambda x: ad.softmax(x, axis=-1), (a(3, 5),)),
        ("attention", lambda q, k, v: ad.attention(q, k, v, 2, [0, 2, 5], [0, 4, 7]),
         (a(5, 4), a(7, 4), a(7, 4))),
        ("layer_norm", ad.layer_norm, (a(3, 5), a(5), a(5))),
        ("l2_normalize", ad.l2_normalize, (a(3, 4),)),
    ]


@pytest.mark.parametrize("name,fn,operands", _forward_op_cases(),
                         ids=[c[0] for c in _forward_op_cases()])
def test_forward_op_on_arrays_runs_graph_free(name, fn, operands):
    out = fn(*operands)
    assert type(out) is np.ndarray
    recorded = fn(*[ad.parameter(x) for x in operands])
    assert isinstance(recorded, Tensor) and recorded.requires_grad
    # bit-equal, signed zeros included
    assert out.shape == recorded.shape and out.tobytes() == recorded.values.tobytes()
    with ad.no_grad():
        inferred = fn(*[ad.parameter(x) for x in operands])
    assert isinstance(inferred, Tensor)
    assert not inferred.requires_grad and inferred.parents == ()


class TestLinear:
    def test_matches_composed_ops_bit_for_bit(self):
        # the reshape -> matmul -> add_bias -> reshape chain linear replaces
        rng = np.random.default_rng(34)
        x0, w0, b0 = rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        weighting = _rand_weighting((2, 5, 3), 34)
        results = []
        for fused in (True, False):
            x, w, b = ad.parameter(x0), ad.parameter(w0), ad.parameter(b0)
            if fused:
                out = ad.linear(x, w, b)
            else:
                flat = ad.add_bias(ad.matmul(ad.reshape(x, (10, 4)), w), b)
                out = ad.reshape(flat, (2, 5, 3))
            ad.backward(ad.tensor_sum(ad.mul(out, weighting)))
            results.append([out.values, x.grad, w.grad, b.grad])
        for fused, composed in zip(*results):
            assert np.array_equal(fused, composed)

    def test_one_node(self):
        x = ad.parameter(np.ones((2, 3, 4)))
        out = ad.linear(x, ad.parameter(np.ones((4, 5))), ad.parameter(np.ones(5)))
        assert out.shape == (2, 3, 5) and out.op == "linear"
        assert all(p.parents == () for p in out.parents)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


class TestMaskedLogsumexp:
    def test_matches_plain_logsumexp_full_mask(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)) * 20)
        out = ad.masked_logsumexp(x, np.ones((3, 5), dtype=bool), axis=1)
        expected = np.log(np.exp(x.values - x.values.max(1, keepdims=True)).sum(1)) \
            + x.values.max(1)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_empty_row_rejected(self):
        x = Tensor(np.zeros((2, 3)))
        mask = np.array([[True, False, True], [False, False, False]])
        with pytest.raises(ValueError):
            ad.masked_logsumexp(x, mask, axis=1)

    def test_stable_at_low_temperature(self):
        x = Tensor(np.array([[4000.0, 3990.0, -4000.0]]))
        out = ad.masked_logsumexp(x, np.ones((1, 3), dtype=bool), axis=1)
        assert np.isfinite(out.values).all()
        assert out.values[0] == pytest.approx(4000.0 + np.log(1 + np.exp(-10.0)))


def _batched_attention(q, k, v, heads):
    """Attention of q (n, r, h) over k, v (n, L, h) by the composed ops,
    heads folded into one batched product per step."""
    n, r, h = q.shape
    dh = h // heads
    split = lambda a: ad.transpose(ad.reshape(a, (n, -1, heads, dh)), (0, 2, 1, 3))
    scores = ad.scalar_mul(ad.matmul(split(q), ad.transpose(split(k), (0, 1, 3, 2))),
                           1.0 / np.sqrt(dh))
    attn = ad.softmax(scores, axis=-1)
    return ad.reshape(ad.transpose(ad.matmul(attn, split(v)), (0, 2, 1, 3)), (n, r, h))


class TestAttention:
    def test_equal_segments_run_the_batched_products(self):
        # windowed inference: n windows of r queries over L keys each
        rng = np.random.default_rng(42)
        q, k, v = rng.normal(size=(3, 4, 8)), rng.normal(size=(3, 6, 8)), rng.normal(size=(3, 6, 8))
        out = ad.attention(q, k, v, 2, np.arange(4) * 4, np.arange(4) * 6)
        assert type(out) is np.ndarray and out.shape == (3, 4, 8)
        assert out.tobytes() == _batched_attention(q, k, v, 2).tobytes()

    def test_gradients_match_composed_ops(self):
        rng = np.random.default_rng(43)
        arrays = [rng.normal(size=(2, 5, 8)) for _ in range(3)]
        weighting = _rand_weighting((2, 5, 8), 43)
        grads = []
        for fused in (True, False):
            q, k, v = (ad.parameter(a) for a in arrays)
            out = (ad.attention(q, k, v, 4, [0, 5, 10], [0, 5, 10]) if fused
                   else _batched_attention(q, k, v, 4))
            ad.backward(ad.tensor_sum(ad.mul(out, weighting)))
            grads.append([t.grad for t in (q, k, v)])
        for fused, composed in zip(*grads):
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-13)

    def test_segments_do_not_see_each_other(self):
        rng = np.random.default_rng(44)
        q, k, v = rng.normal(size=(7, 4)), rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        out = ad.attention(q, k, v, 2, [0, 3, 7], [0, 5, 9])
        for (a, b), (c, d) in (((0, 3), (0, 5)), ((3, 7), (5, 9))):
            alone = ad.attention(q[a:b], k[c:d], v[c:d], 2, [0, b - a], [0, d - c])
            np.testing.assert_allclose(out[a:b], alone, rtol=0, atol=1e-14)

    def test_backward_keeps_the_probabilities(self):
        x = ad.parameter(np.random.default_rng(45).normal(size=(6, 4)))
        out = ad.attention(x, x, x, 2, [0, 2, 4, 6], [0, 2, 4, 6])
        (probs,) = out._backward.probs  # three segments of equal length: one group
        assert probs.shape == (3, 2, 2, 2)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("q_offsets,kv_offsets", [
        ([0, 2, 5], [0, 4]), ([0, 3, 3, 5], [0, 2, 4, 7]), ([1, 5], [0, 7]), ([0, 5], [0, 6]),
    ])
    def test_bad_offsets_rejected(self, q_offsets, kv_offsets):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(np.zeros((5, 4)), np.zeros((7, 4)), np.zeros((7, 4)), 2,
                         q_offsets, kv_offsets)


class TestNtXent:
    def test_matches_composed_ops_bit_for_bit(self):
        # the per-direction chain the op replaces: take_rows -> masked_logsumexp
        # -> one-hot product -> sum -> sub, then the mean over both directions
        sim0 = np.random.default_rng(41).normal(size=(5, 6)) * 4
        (rows, cols), masks = _NT_XENT_PAIRS, _nt_xent_masks(exclude_same_clip=True)
        results = []
        for fused in (True, False):
            sim = ad.parameter(sim0)
            if fused:
                loss = ad.nt_xent(sim, rows, cols, *masks)
            else:
                terms = []
                for s, anchors, positives, mask in ((sim, rows, cols, masks[0]),
                                                    (ad.transpose(sim), cols, rows, masks[1])):
                    picked = ad.take_rows(s, anchors)
                    onehot = np.zeros(picked.shape)
                    onehot[np.arange(len(anchors)), positives] = 1.0
                    terms.append(ad.sub(ad.masked_logsumexp(picked, mask, axis=1),
                                        ad.tensor_sum(ad.mul(picked, Tensor(onehot)), axis=1)))
                loss = ad.mean(ad.concat(terms, axis=0))
            ad.backward(loss)
            results.append((loss.values.tobytes(), sim.grad.tobytes()))
        assert results[0] == results[1]

    def test_repeated_anchor_rejected(self):
        rows, cols = np.array([0, 0]), np.array([1, 2])
        masks = np.ones((2, 3), dtype=bool), np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="distinct"):
            ad.nt_xent(Tensor(np.zeros((3, 3))), rows, cols, *masks)


class TestTopoOrder:
    def test_parents_before_children(self):
        x = ad.parameter(np.ones(2))
        y = ad.mul(x, x)
        z = ad.tensor_sum(ad.add(y, y))
        order = ad.topo_order(z)
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for p in node.parents:
                assert pos[id(p)] < pos[id(node)]

    def test_each_node_visited_once(self):
        x = ad.parameter(np.ones(2))
        y = ad.mul(x, x)
        z = ad.tensor_sum(ad.add(y, y))
        order = ad.topo_order(z)
        assert len({id(t) for t in order}) == len(order)
