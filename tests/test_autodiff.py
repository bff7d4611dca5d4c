import inspect
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from motiontok import autodiff as ad
from motiontok import train
from motiontok.autodiff import ShapeError, Tensor
from testkit import grad_check, parameter, weighted_sum


def _param(shape, seed, avoid_kink=None):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if avoid_kink is not None:
        while (np.abs(values) < avoid_kink).any():
            values = rng.normal(size=shape)
    return parameter(values)


def _rand_weighting(shape, seed):
    return np.random.default_rng(seed + 900).normal(size=shape)


class TestForwardValues:
    def test_l2_normalize_constant_function_grad_zero(self):
        # sum(normalize(x)^2) is identically 1 per row, so its gradient,
        # J^T normalize(x), is zero
        x = _param((3, 4), seed=1)
        y = ad.l2_normalize(x)
        ad.backward(weighted_sum(y, y.values))
        assert np.abs(x.grad).max() < 1e-12

    def test_layer_norm_moments(self):
        x = Tensor(np.random.default_rng(2).normal(size=(4, 6)) * 3 + 1)
        out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.abs(out.values.mean(axis=-1)).max() < 1e-9
        assert np.abs(out.values.var(axis=-1) - 1.0).max() < 1e-9

    def test_shape_errors_name_the_op(self):
        with pytest.raises(ShapeError, match="add"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))

    def test_no_silent_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


class TestBackwardStructure:
    def test_matmul_sum_hand_computed(self):
        a = parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = parameter(np.array([[5.0, 6.0], [7.0, 8.0]]))
        loss = weighted_sum(ad.linear(a, b, np.zeros(2)), np.ones((2, 2)))
        ad.backward(loss)
        # dL/dA = ones @ B^T, dL/dB = A^T @ ones, evaluated by hand
        np.testing.assert_allclose(a.grad, [[11.0, 15.0], [11.0, 15.0]])
        np.testing.assert_allclose(b.grad, [[4.0, 4.0], [6.0, 6.0]])

    def test_disconnected_parameter_grad_stays_zero(self):
        a = parameter(np.ones(3))
        b = parameter(np.ones(3))
        loss = weighted_sum(ad.relu(a), np.ones(3))
        ad.backward(loss)
        assert np.array_equal(b.grad, np.zeros(3))

    def test_two_paths_accumulate(self):
        x = parameter(np.array(2.0))
        loss = ad.add(ad.relu(x), ad.relu(x))  # 2 relu(x) -> grad 2
        ad.backward(loss)
        assert x.grad == pytest.approx(2.0)

    def test_non_scalar_loss_rejected(self):
        x = parameter(np.ones(3))
        with pytest.raises(ValueError):
            ad.backward(ad.add(x, x))

    def test_backward_deterministic(self):
        def run():
            x = parameter(np.arange(6.0).reshape(2, 3) + 1)
            y = ad.l2_normalize(ad.layer_norm(x, np.full(3, 1.5), np.full(3, 0.5)))
            ad.backward(weighted_sum(y, _rand_weighting((2, 3), 1)))
            return x.grad.copy()

        assert np.array_equal(run(), run())

    def test_interior_grad_allocated_on_use_and_released(self):
        x = parameter(np.ones(3))
        y = ad.add(x, x)
        loss = weighted_sum(y, np.ones(3))
        assert y.grad is None and loss.grad is None  # nothing allocated by the forward
        ad.backward(loss)
        assert y.grad is None and y.node._backward is None
        assert loss.grad is None and loss.node._backward is None
        assert y.node.parents == (x.node, x.node)  # the graph stays walkable
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
        with pytest.raises(RuntimeError, match="already propagated"):
            ad.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_no_grad_blocks_recording(self):
        x = parameter(np.ones(3))
        with ad.no_grad():
            y = ad.add(x, x)
        assert not y.node.requires_grad and y.node.parents == ()


class TestGradCheckOracle:
    def test_quadratic_tight(self):
        # central differences are exact to O(eps^2) for quadratics
        def square_sum(t):
            tn, tv = t.node, t.values

            def bwd(g):
                ad._accumulate(tn, 2.0 * g * tv)
            return ad._result((tv * tv).sum(), (tn,), "square_sum", bwd)

        x = _param((4, 3), seed=5)
        err = grad_check(square_sum, x, eps=1e-4)
        assert err < 1e-6

    def test_two_layer_perceptron(self):
        rng = np.random.default_rng(8)
        w1 = Tensor(rng.normal(size=(5, 6)))
        w2 = Tensor(rng.normal(size=(6, 1)))

        def mlp(t):
            h = ad.relu(ad.linear(t, w1, np.zeros(6)))
            return weighted_sum(ad.linear(h, w2, np.zeros(1)), np.ones((3, 1)))

        x = parameter(rng.normal(size=(3, 5)))
        # keep preactivations away from the ReLU kink
        while (np.abs(np.matmul(x.values, w1.values)) < 1e-3).any():
            x = parameter(rng.normal(size=(3, 5)))
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


# two clips whose views differ in length: (T_a, T_b) = (9, 14) and (12, 7)
_TCN_LENGTHS = ([9, 12], [14, 7])
# three clips, so the padded batch masks rows of both views
_TCC_LENGTHS = ([3, 5, 1], [4, 2, 3])


def _catalog_cases(dtype=np.float64):
    """(name, f, shape, kink) per op case: f maps a parameter x of `shape` to
    a scalar through the op, and kink, if set, keeps x's entries that far
    from a point where the op is not smooth. Each op of autodiff has cases
    named after it. The constant operands are in dtype, x's dtype."""
    w = lambda shape, seed: _rand_weighting(shape, seed).astype(dtype)
    tcn = lambda a, b: train.tcn_loss(a, b, _TCN_LENGTHS, anchors=4,
                                      rng=np.random.default_rng(44), margin=1.0)
    return [
        ("add", lambda x: weighted_sum(ad.add(x, np.ones(x.shape, dtype)), w(x.shape, 1)), (3, 4),
         None),
        ("concat", lambda x: weighted_sum(ad.concat([x, ad.add(x, x)], axis=0), w((6, 3), 8)),
         (3, 3), None),
        ("slice_tensor", lambda x: weighted_sum(
            ad.slice_tensor(x, (slice(1, 3), slice(0, 2))), w((2, 2), 9)), (4, 3), None),
        ("reshape", lambda x: weighted_sum(ad.reshape(x, (2, 6)), w((2, 6), 12)), (3, 4), None),
        ("relu", lambda x: weighted_sum(ad.relu(x), w(x.shape, 16)), (4, 4), 1e-3),
        ("layer_norm", lambda x: weighted_sum(ad.layer_norm(
            x, np.full(5, 1.3, dtype), np.full(5, -0.2, dtype)), w((3, 5), 18)), (3, 5), None),
        ("l2_normalize", lambda x: weighted_sum(ad.l2_normalize(x), w(x.shape, 21)), (3, 4), None),
        ("nt_xent_all_frames", lambda x: ad.nt_xent(
            x, w((6, 3), 41), 1.5, *_NT_XENT_PAIRS, *_nt_xent_masks(exclude_same_clip=False)),
         (5, 3), None),
        ("nt_xent_exclude_same_clip", lambda x: ad.nt_xent(
            w((5, 3), 42), x, 1.5, *_NT_XENT_PAIRS, *_nt_xent_masks(exclude_same_clip=True)),
         (6, 3), None),
        ("triplet_margin_unequal_clips", lambda x: tcn(x, w((21, 4), 43)), (21, 4), None),
        ("triplet_margin_negative_block", lambda x: tcn(w((21, 4), 44), x), (21, 4), None),
        ("cycle_back_unequal_lengths", lambda x: train.tcc_loss(
            x, w((9, 3), 45), _TCC_LENGTHS, tau_soft=0.5), (9, 3), None),
        ("cycle_back_b_block", lambda x: train.tcc_loss(
            w((9, 3), 46), x, _TCC_LENGTHS, tau_soft=0.5), (9, 3), None),
        ("attention_unequal_segments", lambda x: weighted_sum(ad.attention(
            x, x, x, 2, [0, 2, 7, 9], [0, 2, 7, 9]), w((9, 4), 34)), (9, 4), None),
        ("attention_query_ne_key_q", lambda x: weighted_sum(ad.attention(
            x, w((7, 4), 35), w((7, 4), 36), 2, [0, 2, 5], [0, 4, 7]), w((5, 4), 37)),
         (5, 4), None),
        ("attention_query_ne_key_kv", lambda x: weighted_sum(ad.attention(
            w((5, 4), 38), x, ad.add(x, x), 2, [0, 2, 5], [0, 4, 7]), w((5, 4), 39)),
         (7, 4), None),
        ("attention_one_frame_segment", lambda x: weighted_sum(ad.attention(
            x, x, x, 2, [0, 1, 4, 5], [0, 1, 4, 5]), w((5, 4), 40)), (5, 4), None),
        ("linear_2d", lambda x: weighted_sum(ad.linear(x, w((4, 5), 26), w((5,), 27)),
                                             w((3, 5), 26)), (3, 4), None),
        ("linear_3d", lambda x: weighted_sum(ad.linear(x, w((4, 5), 28), w((5,), 29)),
                                             w((2, 3, 5), 28)), (2, 3, 4), None),
        ("linear_3d_weight", lambda x: weighted_sum(ad.linear(w((2, 3, 4), 30), x, w((5,), 31)),
                                                    w((2, 3, 5), 30)), (4, 5), None),
        ("linear_3d_bias", lambda x: weighted_sum(ad.linear(w((2, 3, 4), 32), w((4, 5), 33), x),
                                                  w((2, 3, 5), 32)), (5,), None),
    ]


@pytest.mark.parametrize("name,fn,shape,kink", _catalog_cases(),
                         ids=[c[0] for c in _catalog_cases()])
def test_catalog_op_grad_check(name, fn, shape, kink):
    x = _param(shape, seed=zlib.crc32(name.encode()), avoid_kink=kink)
    assert grad_check(fn, x, eps=1e-4) < 1e-4


def _relative_gap(a, b) -> float:
    """max |a - b| relative to b's largest magnitude."""
    return float(np.abs(np.asarray(a, np.float64) - b).max() / max(np.abs(b).max(), 1e-30))


@pytest.mark.parametrize("case32,case64", zip(_catalog_cases(np.float32), _catalog_cases()),
                         ids=[c[0] for c in _catalog_cases()])
def test_catalog_op_float32(monkeypatch, case32, case64):
    # the op on float32 operands computes in float32 (every node value, every
    # gradient flowing into a buffer) and agrees with the float64 op on the
    # same inputs to float32 rounding
    name, fn, shape, kink = case32
    x64 = _param(shape, seed=zlib.crc32(name.encode()), avoid_kink=kink)
    x32 = parameter(x64.values, dtype=np.float32)
    flowing, accumulate = set(), ad._accumulate

    def recording(node, g):
        if isinstance(g, np.ndarray):
            flowing.add(g.dtype)
        accumulate(node, g)

    monkeypatch.setattr(ad, "_accumulate", recording)
    out32 = fn(x32)
    nodes = {n.dtype for n in ad.topo_order(out32)}
    ad.backward(out32)
    monkeypatch.undo()
    out64 = case64[1](x64)
    ad.backward(out64)
    # triplet_margin scatters its gradients with np.add.at, not _accumulate
    assert nodes == {np.dtype(np.float32)} and flowing <= nodes
    assert out32.values.dtype == x32.grad.dtype == np.float32
    assert _relative_gap(out32.values, out64.values) < 1e-5
    assert _relative_gap(x32.grad, x64.grad) < 1e-5


OPS = ("add", "relu", "linear", "reshape", "concat", "slice_tensor", "attention", "layer_norm",
       "l2_normalize", "nt_xent", "triplet_margin", "cycle_back")


def _recorded_ops():
    """autodiff's public ops: its public functions that record a graph node."""
    return sorted(name for name, fn in vars(ad).items()
                  if inspect.isfunction(fn) and fn.__module__ == ad.__name__
                  and not name.startswith("_") and "_result(" in inspect.getsource(fn))


def test_ops_are_the_ones_the_package_runs():
    assert sorted(OPS) == _recorded_ops()


@pytest.mark.parametrize("op", _recorded_ops())
def test_op_is_grad_checked_and_called(op):
    assert any(name == op or name.startswith(op + "_") for name, *_ in _catalog_cases()), \
        f"{op} has no _catalog_cases entry"
    package = Path(ad.__file__).parent
    callers = [path.name for path in sorted(package.glob("*.py")) if path.name != "autodiff.py"
               and re.search(rf"\b(ad|autodiff)\.{op}\(", path.read_text())]
    assert callers, f"{op} has no caller in motiontok outside autodiff"


def _forward_op_cases():
    """The ops a forward pass runs, each with plain-array operands."""
    rng = np.random.default_rng(40)
    a = lambda *shape: rng.normal(size=shape)
    return [
        ("linear", ad.linear, (a(2, 3, 4), a(4, 5), a(5))),
        ("relu", ad.relu, (a(3, 4),)),
        ("add", ad.add, (a(3, 4), a(3, 4))),
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
    recorded = fn(*[parameter(x) for x in operands])
    assert isinstance(recorded, Tensor) and recorded.node.requires_grad
    # bit-equal, signed zeros included
    assert out.shape == recorded.shape and out.tobytes() == recorded.values.tobytes()
    with ad.no_grad():
        inferred = fn(*[parameter(x) for x in operands])
    assert isinstance(inferred, Tensor)
    assert not inferred.node.requires_grad and inferred.node.parents == ()


class TestLinear:
    def test_matches_composed_ops_bit_for_bit(self):
        # the numpy operations of the reshape -> matmul -> add_bias -> reshape
        # chain linear replaces, forward and backward
        rng = np.random.default_rng(34)
        x0, w0, b0 = rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        weighting = _rand_weighting((2, 5, 3), 34)
        x, w, b = parameter(x0), parameter(w0), parameter(b0)
        out = ad.linear(x, w, b)
        ad.backward(weighted_sum(out, weighting))
        x2, g2 = x0.reshape(10, 4), weighting.reshape(10, 3)
        expected = [(np.matmul(x2, w0) + b0).reshape(2, 5, 3),
                    np.matmul(g2, np.swapaxes(w0, -1, -2)).reshape(2, 5, 4),
                    np.matmul(np.swapaxes(x2, -1, -2), g2),
                    g2.reshape(-1, 3).sum(axis=0)]
        for got, want in zip([out.values, x.grad, w.grad, b.grad], expected):
            assert got.tobytes() == want.tobytes()

    def test_one_node(self):
        x = parameter(np.ones((2, 3, 4)))
        out = ad.linear(x, parameter(np.ones((4, 5))), parameter(np.ones(5)))
        assert out.shape == (2, 3, 5) and out.node.op == "linear"
        assert all(p.parents == () for p in out.node.parents)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(4)))


def _batched_attention(q, k, v, heads):
    """Attention of q (n, r, h) over k, v (n, L, h) by the numpy operations
    of the composed ops the attention op replaced, heads folded into one
    batched product per step."""
    n, r, h = q.shape
    dh = h // heads
    split = lambda a: np.transpose(a.reshape(n, -1, heads, dh), (0, 2, 1, 3))
    scores = np.matmul(split(q), np.transpose(split(k), (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    return np.transpose(np.matmul(attn, split(v)), (0, 2, 1, 3)).reshape(n, r, h)


def _attention_gradients(q, k, v, heads, g):
    """Gradients of sum(g * attention(q, k, v)) to q, k and v, one segment
    and head at a time, through the explicit softmax Jacobian."""
    grads = [np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)]
    dh = q.shape[-1] // heads
    for i in range(q.shape[0]):
        for hh in range(heads):
            cols = slice(hh * dh, (hh + 1) * dh)
            qi, ki, vi, gi = q[i][:, cols], k[i][:, cols], v[i][:, cols], g[i][:, cols]
            s = qi @ ki.T / np.sqrt(dh)
            p = np.exp(s - s.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            dp = gi @ vi.T
            ds = np.stack([(np.diag(row) - np.outer(row, row)) @ d for row, d in zip(p, dp)])
            grads[0][i][:, cols] = ds @ ki / np.sqrt(dh)
            grads[1][i][:, cols] = ds.T @ qi / np.sqrt(dh)
            grads[2][i][:, cols] = p.T @ gi
    return grads


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
        q, k, v = (parameter(a) for a in arrays)
        ad.backward(weighted_sum(ad.attention(q, k, v, 4, [0, 5, 10], [0, 5, 10]), weighting))
        for fused, reference in zip((q, k, v), _attention_gradients(*arrays, 4, weighting)):
            np.testing.assert_allclose(fused.grad, reference, rtol=0, atol=1e-13)

    def test_segments_do_not_see_each_other(self):
        rng = np.random.default_rng(44)
        q, k, v = rng.normal(size=(7, 4)), rng.normal(size=(9, 4)), rng.normal(size=(9, 4))
        out = ad.attention(q, k, v, 2, [0, 3, 7], [0, 5, 9])
        for (a, b), (c, d) in (((0, 3), (0, 5)), ((3, 7), (5, 9))):
            alone = ad.attention(q[a:b], k[c:d], v[c:d], 2, [0, b - a], [0, d - c])
            np.testing.assert_allclose(out[a:b], alone, rtol=0, atol=1e-14)

    def test_backward_keeps_the_probabilities(self):
        x = parameter(np.random.default_rng(45).normal(size=(6, 4)))
        out = ad.attention(x, x, x, 2, [0, 2, 4, 6], [0, 2, 4, 6])
        (probs,) = out.node._backward.probs  # three segments of equal length: one group
        assert probs.shape == (3, 2, 2, 2)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("q_offsets,kv_offsets", [
        ([0, 2, 5], [0, 4]), ([0, 3, 3, 5], [0, 2, 4, 7]), ([1, 5], [0, 7]), ([0, 5], [0, 6]),
    ])
    def test_bad_offsets_rejected(self, q_offsets, kv_offsets):
        with pytest.raises(ShapeError, match="attention"):
            ad.attention(np.zeros((5, 4)), np.zeros((7, 4)), np.zeros((7, 4)), 2,
                         q_offsets, kv_offsets)


def _composed_nt_xent(a, b, inv_tau, anchors, positives, masks):
    """Value and block gradients of the loss by the numpy operations of the
    composed ops nt_xent replaced: scale(matmul(a, transpose(b))), then per
    direction take_rows -> masked_logsumexp -> one-hot product -> sum -> sub,
    and the mean over both directions, differentiated in reverse."""
    sim = np.matmul(a, np.transpose(b)) * inv_tau
    terms, g_sim = [], np.zeros_like(sim)
    n = 2 * len(anchors)
    for s, g_s, rows, cols, mask in ((sim, g_sim, anchors, positives, masks[0]),
                                     (sim.T, g_sim.T, positives, anchors, masks[1])):
        picked = s[rows]
        onehot = np.zeros(picked.shape)
        onehot[np.arange(len(rows)), cols] = 1.0
        neg_inf = np.where(mask, picked, -np.inf)
        m = neg_inf.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(neg_inf - m).sum(axis=1, keepdims=True))).squeeze(1)
        terms.append(lse - (picked * onehot).sum(axis=1))
        g_term = np.full(len(rows), 1.0 / n)
        g_picked = g_term[:, None] * np.exp(neg_inf - lse[:, None])
        g_picked += -g_term[:, None] * onehot
        np.add.at(g_s, rows, g_picked)
    g_m = g_sim * inv_tau
    g_a = np.matmul(g_m, np.swapaxes(np.transpose(b), -1, -2))
    g_b = np.transpose(np.matmul(np.swapaxes(a, -1, -2), g_m))
    return np.concatenate(terms).mean(), g_a, g_b


class TestNtXent:
    def test_matches_composed_ops_bit_for_bit(self):
        rng = np.random.default_rng(41)
        a0, b0 = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))
        (rows, cols), masks = _NT_XENT_PAIRS, _nt_xent_masks(exclude_same_clip=True)
        a, b = parameter(a0), parameter(b0)
        loss = ad.nt_xent(a, b, 1.0 / 0.3, rows, cols, *masks)
        ad.backward(loss)
        expected = _composed_nt_xent(a0, b0, 1.0 / 0.3, rows, cols, masks)
        for got, want in zip((loss.values, a.grad, b.grad), expected):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_stable_at_low_temperature(self):
        # similarities 1000 (positive) and 990 (negative) at 1/tau = 1000:
        # exp(1000) overflows unless the logsumexp is max-shifted
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.99, np.sqrt(1 - 0.99 ** 2)]])
        loss = ad.nt_xent(a, b, 1000.0, [0], [0], np.ones((1, 2), dtype=bool),
                          np.ones((1, 1), dtype=bool))
        # the reverse direction has no negative, so its term is 0
        assert float(loss.values) == pytest.approx(np.log1p(np.exp(-10.0)) / 2, rel=1e-9)

    def test_repeated_anchor_rejected(self):
        rows, cols = np.array([0, 0]), np.array([1, 2])
        masks = np.ones((2, 3), dtype=bool), np.ones((2, 3), dtype=bool)
        with pytest.raises(ValueError, match="distinct"):
            ad.nt_xent(np.zeros((3, 2)), np.zeros((3, 2)), 1.0, rows, cols, *masks)


class TestTopoOrder:
    def test_parents_before_children(self):
        x = parameter(np.ones(2))
        y = ad.relu(x)
        z = weighted_sum(ad.add(y, y), np.ones(2))
        order = ad.topo_order(z)
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for p in node.parents:
                assert pos[id(p)] < pos[id(node)]

    def test_each_node_visited_once(self):
        x = parameter(np.ones(2))
        y = ad.relu(x)
        z = weighted_sum(ad.add(y, y), np.ones(2))
        order = ad.topo_order(z)
        assert len({id(t) for t in order}) == len(order)
