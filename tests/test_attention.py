"""Attention operator tests: residual identities, straight-line oracles,
the layer norm, and gradient checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import attention as att
from stakit import linalg
from stakit.attention import (
    AttentionWeights,
    DualMlpWeights,
    MlpWeights,
    TokenBundle,
)

from helpers import (loop_attend_backward, loop_attend_forward, loop_attention, loop_dual, loop_gelu,
                     loop_gelu_grad, loop_grad_check, loop_layer_norm)


def weight_lists(w: AttentionWeights):
    return ([m.tolist() for m in w.w_q], [m.tolist() for m in w.w_k],
            [m.tolist() for m in w.w_v], w.w_o.tolist())


def mlp_lists(m: MlpWeights):
    return (m.w1.tolist(), m.b1.tolist(), m.w2.tolist(), m.b2.tolist())


# ---------------------------------------------------------------------------
# weight containers


def test_attention_weights_validate_shapes():
    eye = np.eye(3)
    with pytest.raises(ValueError, match="one matrix per head"):
        AttentionWeights(w_q=[eye], w_k=[eye, eye], w_v=[eye], w_o=eye)
    with pytest.raises(ValueError, match="w_k.h0"):
        AttentionWeights(w_q=[eye], w_k=[np.eye(2)], w_v=[eye], w_o=eye)
    with pytest.raises(ValueError, match="w_o"):
        AttentionWeights(w_q=[eye], w_k=[eye], w_v=[eye], w_o=np.eye(4))
    with pytest.raises(ValueError, match=r"w_k.h1 has shape \(3, 2\), expected \(3, 3\)"):
        AttentionWeights(w_q=np.zeros((2, 3, 3)), w_k=[eye, np.zeros((3, 2))], w_v=np.zeros((2, 3, 3)),
                         w_o=np.zeros((6, 3)))
    with pytest.raises(ValueError, match="one matrix per head"):
        AttentionWeights(w_q=np.zeros((0, 3, 3)), w_k=[], w_v=[], w_o=np.zeros((0, 3)))
    with pytest.raises(ValueError, match="heads have width 0"):
        AttentionWeights(w_q=np.zeros((2, 3, 0)), w_k=np.zeros((2, 3, 0)), w_v=np.zeros((2, 3, 0)),
                         w_o=np.zeros((0, 3)))


@pytest.mark.parametrize("heads, d_model", [(0, 8), (-1, 8), (9, 8), (16, 8), (1, 0)])
def test_random_attention_weights_reject_heads_outside_one_to_d_model(heads, d_model):
    with pytest.raises(ValueError, match=f"heads={heads}, d_model={d_model}"):
        AttentionWeights.random(np.random.default_rng(0), d_model, heads)


@pytest.mark.parametrize("as_stack", [False, True])
def test_attention_weights_store_one_stack_per_projection(as_stack):
    rng = np.random.default_rng(60)
    mats = {name: [rng.normal(size=(4, 2)) for _ in range(3)] for name in ("w_q", "w_k", "w_v")}
    passed = {name: np.stack(m) if as_stack else m for name, m in mats.items()}
    w = AttentionWeights(**passed, w_o=rng.normal(size=(6, 4)))
    assert (w.heads, w.d_model, w.d_head) == (3, 4, 2)
    for name, m in mats.items():
        stack = getattr(w, name)
        assert isinstance(stack, np.ndarray) and stack.dtype == np.float64 and stack.shape == (3, 4, 2)
        assert stack.tobytes() == np.stack(m).tobytes()


def test_random_weights_draw_the_per_head_stream():
    # one (heads, d_model, d_head) draw per projection takes the same numbers
    # as one (d_model, d_head) draw per head did
    w = AttentionWeights.random(np.random.default_rng(61), 6, 3, scale=0.3)
    rng = np.random.default_rng(61)
    for name in ("w_q", "w_k", "w_v"):
        per_head = [rng.normal(scale=0.3, size=(6, 2)) for _ in range(3)]
        assert getattr(w, name).tobytes() == np.stack(per_head).tobytes()
    assert w.w_o.tobytes() == rng.normal(scale=0.3, size=(6, 6)).tobytes()


def test_identity_and_zero_values_keep_the_stack_shape():
    w = AttentionWeights.identity(3)
    assert w.w_q.shape == w.w_k.shape == w.w_v.shape == (1, 3, 3)
    assert np.array_equal(w.w_q[0], np.eye(3)) and np.array_equal(w.w_o, np.eye(3))
    zero = AttentionWeights.random(np.random.default_rng(62), 4, 2).with_zero_values()
    assert zero.w_v.shape == (2, 4, 2) and not zero.w_v.any()


def test_token_bundle_validates_shapes():
    with pytest.raises(ValueError, match="2-D"):
        TokenBundle(tokens=np.zeros(3))
    with pytest.raises(ValueError, match="class token"):
        TokenBundle(tokens=np.zeros((2, 3)), class_token=np.zeros(2))
    with pytest.raises(ValueError, match="positional"):
        TokenBundle(tokens=np.zeros((2, 3)), class_token=np.zeros(3),
                    positional=np.zeros((2, 3)))  # needs 3 rows with the class token


def test_mlp_weights_validate_shapes():
    with pytest.raises(ValueError, match="mlp shapes"):
        MlpWeights(np.zeros((2, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# mha


def test_mha_single_key_identity_projections():
    # softmax over one key is 1, so the output is queries + that value row
    q = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    kv = np.array([[10.0, 20.0, 30.0]])
    out = att.mha(TokenBundle(q), TokenBundle(kv), AttentionWeights.identity(3))
    assert np.allclose(out.tokens, q + kv, atol=1e-12, rtol=0)


def test_mha_zero_values_is_residual_identity():
    rng = np.random.default_rng(10)
    q = TokenBundle(rng.normal(size=(3, 4)))
    kv = TokenBundle(rng.normal(size=(5, 4)))
    w = AttentionWeights.random(rng, 4, 2).with_zero_values()
    out = att.mha(q, kv, w)
    assert np.array_equal(out.tokens, q.tokens)


def test_mha_zero_output_projection_is_residual_identity():
    rng = np.random.default_rng(11)
    q = TokenBundle(rng.normal(size=(3, 4)))
    kv = TokenBundle(rng.normal(size=(5, 4)))
    w = AttentionWeights.random(rng, 4, 2)
    w.w_o[:] = 0.0
    out = att.mha(q, kv, w)
    assert np.array_equal(out.tokens, q.tokens)


def test_mha_matches_straight_line_oracle():
    rng = np.random.default_rng(12)
    q = TokenBundle(rng.normal(size=(2, 4)))
    kv = TokenBundle(rng.normal(size=(3, 4)))
    w = AttentionWeights.random(rng, 4, 2)
    out = att.mha(q, kv, w)
    expected = np.array(loop_attention(q.tokens.tolist(), kv.tokens.tolist(),
                                       *weight_lists(w))) + q.tokens
    assert np.allclose(out.tokens, expected, atol=1e-12, rtol=0)


def test_mha_maps_are_row_stochastic():
    rng = np.random.default_rng(13)
    q = TokenBundle(rng.normal(size=(4, 6)))
    kv = TokenBundle(rng.normal(size=(7, 6)))
    w = AttentionWeights.random(rng, 6, 3)
    out, maps = att.mha_with_maps(q, kv, w)
    assert out.tokens.shape == (4, 6)
    assert len(maps) == 3
    for m in maps:
        assert m.shape == (4, 7)
        assert np.all(m >= 0)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12, rtol=0)


def test_mha_key_order_does_not_matter():
    rng = np.random.default_rng(14)
    q = TokenBundle(rng.normal(size=(3, 4)))
    kv = rng.normal(size=(5, 4))
    w = AttentionWeights.random(rng, 4, 2)
    out = att.mha(q, TokenBundle(kv), w)
    perm = rng.permutation(5)
    out_perm = att.mha(q, TokenBundle(kv[perm]), w)
    assert np.allclose(out.tokens, out_perm.tokens, atol=1e-12, rtol=0)


def test_mha_width_mismatch_error():
    with pytest.raises(ValueError, match="token width mismatch"):
        att.mha(TokenBundle(np.zeros((2, 3))), TokenBundle(np.zeros((2, 4))),
                AttentionWeights.identity(3))


# ---------------------------------------------------------------------------
# frame-guided pooling


def test_pooling_collapses_to_query_token_count():
    rng = np.random.default_rng(20)
    last = TokenBundle(rng.normal(size=(4, 6)))
    video = TokenBundle(rng.normal(size=(12, 6)))  # 3 frames x 4 tokens
    out = att.frame_guided_pooling(last, video, AttentionWeights.random(rng, 6, 2))
    assert out.tokens.shape == (4, 6)


def test_pooling_single_frame_zero_output_projection():
    rng = np.random.default_rng(21)
    last = rng.normal(size=(3, 4))
    w = AttentionWeights.identity(4)
    w.w_o[:] = 0.0
    out = att.frame_guided_pooling(TokenBundle(last), TokenBundle(last.copy()), w)
    assert np.array_equal(out.tokens, last)


def test_pooling_zero_values_residual_identity():
    rng = np.random.default_rng(22)
    last = TokenBundle(rng.normal(size=(2, 4)))
    video = TokenBundle(rng.normal(size=(6, 4)))
    w = AttentionWeights.random(rng, 4, 2).with_zero_values()
    out = att.frame_guided_pooling(last, video, w)
    assert np.array_equal(out.tokens, last.tokens)


def test_pooling_matches_straight_line_oracle():
    rng = np.random.default_rng(23)
    last = TokenBundle(rng.normal(size=(2, 2)))
    video = TokenBundle(rng.normal(size=(4, 2)))  # t=2 frames of N=2 tokens
    w = AttentionWeights.random(rng, 2, 1)
    out = att.frame_guided_pooling(last, video, w)
    expected = np.array(loop_attention(last.tokens.tolist(), video.tokens.tolist(),
                                       *weight_lists(w))) + last.tokens
    assert np.allclose(out.tokens, expected, atol=1e-12, rtol=0)


def test_pooling_rejects_more_queries_than_stack():
    rng = np.random.default_rng(25)
    with pytest.raises(ValueError, match="only has"):
        att.frame_guided_pooling(TokenBundle(rng.normal(size=(5, 4))),
                                 TokenBundle(rng.normal(size=(3, 4))),
                                 AttentionWeights.random(rng, 4, 2))


# ---------------------------------------------------------------------------
# layer norm


@pytest.mark.parametrize("shape", [(4, 6), (3, 5, 8)])
def test_layer_norm_matches_loop_oracle_slice_by_slice(shape):
    rng = np.random.default_rng(47)
    x = rng.normal(scale=3.0, size=shape)
    x[..., 0, :] = 2.5
    out, _ = att._ln_forward(x)
    assert np.all(out[..., 0, :] == 0.0)
    for idx in np.ndindex(shape[:-2]):
        expected = np.array(loop_layer_norm(x[idx].tolist(), att.LN_EPS))
        assert np.allclose(out[idx], expected, atol=1e-12, rtol=0)
        assert np.array_equal(out[idx], att._ln_forward(x[idx])[0])


def test_layer_norm_two_point_row():
    # mean 2, population std 1, so the row maps to (-1, 1) scaled by the epsilon
    out, _ = att._ln_forward(np.array([[1.0, 3.0]]))
    scale = 1.0 / np.sqrt(1.0 + att.LN_EPS)
    assert np.allclose(out, [[-scale, scale]], atol=1e-15, rtol=0)


def test_layer_norm_moments():
    rng = np.random.default_rng(49)
    x = rng.normal(size=(5, 8)) * 3.0 + 1.0
    out, _ = att._ln_forward(x)
    var = x.var(axis=1)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=1), var / (var + att.LN_EPS), atol=1e-12, rtol=0)


def test_layer_norm_ignores_a_per_row_shift():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(4, 6))
    shifted = x + rng.normal(scale=10.0, size=(4, 1))
    assert np.allclose(att._ln_forward(shifted)[0], att._ln_forward(x)[0], atol=1e-12, rtol=0)


@pytest.mark.parametrize("shape", [(1, 3), (4, 6)])
def test_layer_norm_backward_matches_central_differences(shape):
    rng = np.random.default_rng(51)
    x = rng.normal(scale=2.0, size=shape)
    g = rng.normal(size=shape)
    _, cache = att._ln_forward(x)
    analytic = att._ln_backward(g, cache)
    numeric = np.zeros(shape)
    h = 1e-6
    for idx in np.ndindex(shape):
        up, down = x.copy(), x.copy()
        up[idx] += h
        down[idx] -= h
        numeric[idx] = (np.sum(g * att._ln_forward(up)[0]) - np.sum(g * att._ln_forward(down)[0])) / (2 * h)
    assert np.allclose(analytic, numeric, atol=1e-7, rtol=0)


def test_layer_norm_backward_rows_sum_to_zero():
    # the forward pass ignores a per-row shift, so no gradient flows along it
    rng = np.random.default_rng(52)
    x = rng.normal(size=(4, 6))
    _, cache = att._ln_forward(x)
    dx = att._ln_backward(rng.normal(size=(4, 6)), cache)
    assert np.allclose(dx.sum(axis=1), 0.0, atol=1e-12)


def test_layer_norm_backward_of_a_row_constant_upstream_is_zero():
    rng = np.random.default_rng(53)
    x = rng.normal(size=(3, 5))
    _, cache = att._ln_forward(x)
    g = np.repeat(rng.normal(size=(3, 1)), 5, axis=1)
    assert np.allclose(att._ln_backward(g, cache), 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# dual attention


def make_dual_inputs(rng, n=2, d=4, with_pos=True):
    def bundle():
        return TokenBundle(
            tokens=rng.normal(size=(n, d)),
            class_token=rng.normal(size=d),
            positional=rng.normal(scale=0.3, size=(n + 1, d)) if with_pos else None,
        )
    return bundle(), bundle()


def test_dual_zero_values_and_zero_mlp_returns_position_embedded_inputs():
    rng = np.random.default_rng(30)
    image, video = make_dual_inputs(rng)
    w_i = AttentionWeights.random(rng, 4, 2).with_zero_values()
    w_v = AttentionWeights.random(rng, 4, 2).with_zero_values()
    mlp = DualMlpWeights(image=MlpWeights.zeros(4), video=MlpWeights.zeros(4))
    out_i, out_v = att.dual_attention(image, video, w_i, w_v, mlp)
    exp_i = np.concatenate([image.tokens, image.class_token[None]]) + image.positional
    exp_v = np.concatenate([video.tokens, video.class_token[None]]) + video.positional
    assert np.array_equal(np.concatenate([out_i.tokens, out_i.class_token[None]]), exp_i)
    assert np.array_equal(np.concatenate([out_v.tokens, out_v.class_token[None]]), exp_v)


def test_dual_without_positional_residual_identity():
    rng = np.random.default_rng(31)
    image, video = make_dual_inputs(rng, with_pos=False)
    w_i = AttentionWeights.random(rng, 4, 2).with_zero_values()
    w_v = AttentionWeights.random(rng, 4, 2).with_zero_values()
    mlp = DualMlpWeights(image=MlpWeights.zeros(4), video=MlpWeights.zeros(4))
    out_i, out_v = att.dual_attention(image, video, w_i, w_v, mlp)
    assert np.array_equal(out_i.tokens, image.tokens)
    assert np.array_equal(out_i.class_token, image.class_token)
    assert np.array_equal(out_v.tokens, video.tokens)
    assert np.array_equal(out_v.class_token, video.class_token)


def test_dual_shape_conservation():
    rng = np.random.default_rng(32)
    image, video = make_dual_inputs(rng, n=3, d=6)
    w = AttentionWeights.random(rng, 6, 2)
    mlp = DualMlpWeights(image=MlpWeights.random(rng, 6), video=MlpWeights.random(rng, 6))
    out_i, out_v = att.dual_attention(image, video, w, w, mlp)
    assert out_i.tokens.shape == (3, 6)
    assert out_i.class_token.shape == (6,)
    assert out_v.tokens.shape == (3, 6)
    assert out_v.class_token.shape == (6,)


def test_dual_matches_straight_line_oracle():
    rng = np.random.default_rng(33)
    image, video = make_dual_inputs(rng, n=2, d=2)
    w_i = AttentionWeights.random(rng, 2, 1)
    w_v = AttentionWeights.random(rng, 2, 1)
    mlp = DualMlpWeights(image=MlpWeights.random(rng, 2, 3),
                         video=MlpWeights.random(rng, 2, 3))
    out_i, out_v = att.dual_attention(image, video, w_i, w_v, mlp)

    rows_i = (np.concatenate([image.tokens, image.class_token[None]]) + image.positional).tolist()
    rows_v = (np.concatenate([video.tokens, video.class_token[None]]) + video.positional).tolist()
    exp_i, exp_v = loop_dual(rows_i, rows_v, weight_lists(w_i), weight_lists(w_v),
                             mlp_lists(mlp.image), mlp_lists(mlp.video), att.LN_EPS)
    got_i = np.concatenate([out_i.tokens, out_i.class_token[None]])
    got_v = np.concatenate([out_v.tokens, out_v.class_token[None]])
    assert np.allclose(got_i, np.array(exp_i), atol=1e-12, rtol=0)
    assert np.allclose(got_v, np.array(exp_v), atol=1e-12, rtol=0)


def test_gelu_and_its_gradient_match_loop_gelu_at_large_inputs():
    # up to |x| = 1e100, where the cube is still finite for the oracle's float pow
    xs = np.array([s * m for m in (0.5, 2.0, 4.0, 8.0, 30.0, 1e3, 1e6, 1e50, 1e100) for s in (1.0, -1.0)])
    got, slope = att._gelu(xs), att._gelu_grad(xs)
    for x, y, dy in zip(xs.tolist(), got.tolist(), slope.tolist()):
        scale = max(1.0, abs(x))
        assert abs(y - loop_gelu(x)) <= 1e-14 * scale, x
        h = 1e-6 * scale
        assert abs(dy - (loop_gelu(x + h) - loop_gelu(x - h)) / (2 * h)) <= 1e-7, x


def test_gelu_grad_matches_loop_oracle_up_to_1e300_without_warnings():
    rng = np.random.default_rng(61)
    xs = np.concatenate([rng.normal(scale=4.0, size=200),
                         [s * m for m in (10.0, 20.0, 26.0, 50.0, 1e3, 1e102, 1e103, 1e154, 1.4e154, 1e200, 1e300)
                          for s in (1.0, -1.0)]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, slope = att._gelu(xs), att._gelu_grad(xs)
    for x, y, dy in zip(xs.tolist(), got.tolist(), slope.tolist()):
        assert abs(dy - loop_gelu_grad(x)) <= 1e-12, x
        if abs(x) >= 10.0:
            assert y == (x if x > 0 else 0.0), x


def test_gelu_clamp_changes_no_bit_of_the_formulas():
    # the unclamped formulas, before x was clamped inside tanh and the
    # polynomial, on both sides of the clamp while they raise no overflow
    x = np.concatenate([np.random.default_rng(60).normal(scale=4.0, size=2000),
                        [s * m for m in (21.0, 25.0, 1e3, 1e50, 1e100) for s in (1.0, -1.0)]])
    u = att._GELU_C * (x + att._GELU_A * (x * x * x))
    t = np.tanh(u)
    assert np.array_equal(att._gelu(x), 0.5 * x * (1.0 + t))
    assert np.array_equal(att._gelu_grad(x), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * att._GELU_C
                          * (1.0 + 3.0 * att._GELU_A * x ** 2))


def test_dual_requires_class_tokens():
    rng = np.random.default_rng(34)
    plain = TokenBundle(rng.normal(size=(2, 4)))
    with_cls = TokenBundle(rng.normal(size=(2, 4)), class_token=rng.normal(size=4))
    w = AttentionWeights.random(rng, 4, 2)
    mlp = DualMlpWeights(image=MlpWeights.zeros(4), video=MlpWeights.zeros(4))
    with pytest.raises(ValueError, match="class token on the image side"):
        att.dual_attention(plain, with_cls, w, w, mlp)
    with pytest.raises(ValueError, match="class token on the video side"):
        att.dual_attention(with_cls, plain, w, w, mlp)


def test_dual_token_count_mismatch_error():
    rng = np.random.default_rng(35)
    a = TokenBundle(rng.normal(size=(2, 4)), class_token=rng.normal(size=4))
    b = TokenBundle(rng.normal(size=(3, 4)), class_token=rng.normal(size=4))
    w = AttentionWeights.random(rng, 4, 2)
    mlp = DualMlpWeights(image=MlpWeights.zeros(4), video=MlpWeights.zeros(4))
    with pytest.raises(ValueError, match="token-count mismatch"):
        att.dual_attention(a, b, w, w, mlp)


def test_dual_maps_shapes_and_row_sums():
    rng = np.random.default_rng(36)
    image, video = make_dual_inputs(rng, n=3, d=4)
    w = AttentionWeights.random(rng, 4, 2)
    mlp = DualMlpWeights(image=MlpWeights.random(rng, 4), video=MlpWeights.random(rng, 4))
    _, _, maps = att.dual_attention_with_maps(image, video, w, w, mlp)
    for side in ("image_queries", "video_queries"):
        assert len(maps[side]) == 2
        for m in maps[side]:
            assert m.shape == (4, 4)  # n + 1 rows each way
            assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# class-token fusion


def test_fuse_class_tokens_examples():
    x = np.array([1.5, -2.0])
    assert np.array_equal(att.fuse_class_tokens(np.zeros(2), x), x)
    assert np.array_equal(att.fuse_class_tokens(x, -x), np.zeros(2))
    assert np.array_equal(att.fuse_class_tokens(np.array([1.0, 2.0]), np.array([3.0, 5.0])),
                          np.array([4.0, 7.0]))


def test_fuse_class_tokens_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        att.fuse_class_tokens(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_rejects_unknown_op_and_bad_eps():
    with pytest.raises(ValueError, match="unknown grad-check op"):
        att.grad_check("nope", (), ())
    inputs, weights = att.random_instance("mha", 0)
    for epsilon in (0.0, -1e-5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            att.grad_check("mha", inputs, weights, epsilon=epsilon)


@pytest.mark.parametrize("side", [0, 1])
def test_grad_check_reports_nan_for_a_nan_token(side):
    inputs, weights = att.random_instance("mha", 3)
    inputs[side].tokens[1, 2] = math.nan
    report = att.grad_check("mha", inputs, weights)
    assert math.isnan(report.max_rel_error)
    assert not report.max_rel_error <= 1e-5
    assert report.worst == "queries.tokens"  # the NaN reaches every loss, so the first tensor's error is NaN
    assert report.params_checked == 312


def test_grad_check_names_the_first_tensor_with_a_nan_error(monkeypatch):
    # losses(stack) = sum(stack ** 2) / 2 per slice, whose gradient is the tensor itself
    half_square = lambda stack: 0.5 * np.sum(stack * stack, axis=-1)
    x = np.array([1.0, -2.0])
    table = {"close": (x, 1.01 * x, half_square), "nan": (x, np.array([1.0, math.nan]), half_square),
             "far": (x, 3.0 * x, half_square), "nan_again": (x, np.full(2, math.nan), half_square)}
    monkeypatch.setitem(att._CASE_BUILDERS, "mha", lambda inputs, weights: table)
    report = att.grad_check("mha", None, None)
    assert math.isnan(report.max_rel_error)
    assert (report.worst, report.params_checked) == ("nan", 8)


def test_grad_check_linear_case_is_nearly_exact():
    # a single key/value bypasses the softmax, so the loss is quadratic in
    # each scalar and the central difference has no truncation error; a
    # large step then leaves only negligible cancellation roundoff
    rng = np.random.default_rng(50)
    q = TokenBundle(rng.normal(size=(2, 4)))
    kv = TokenBundle(rng.normal(size=(1, 4)))
    w = AttentionWeights.random(rng, 4, 1)
    report = att.grad_check("mha", (q, kv), w, epsilon=1e-2)
    assert report.max_rel_error <= 1e-9


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), heads=st.integers(1, 4), d_head=st.integers(1, 4),
       d_model=st.integers(1, 6), n_q=st.integers(1, 5), n_kv=st.integers(1, 5),
       stacked=st.sampled_from([None, "queries", "keys_values"]), copies=st.integers(1, 3))
def test_attend_forward_equals_the_per_head_loop(seed, heads, d_head, d_model, n_q, n_kv, stacked, copies):
    rng = np.random.default_rng(seed)
    stacks = {name: rng.normal(size=(heads, d_model, d_head)) for name in ("w_q", "w_k", "w_v")}
    w = AttentionWeights(**stacks, w_o=rng.normal(size=(heads * d_head, d_model)))
    # grad_check passes (copies, n, d) stacks of perturbed sources on either side
    q_src = rng.normal(size=((copies,) if stacked == "queries" else ()) + (n_q, d_model))
    kv_src = rng.normal(size=((copies,) if stacked == "keys_values" else ()) + (n_kv, d_model))
    out, cache = att._attend_forward(q_src, kv_src, w)
    want_out, want_concat, want_heads = loop_attend_forward(q_src, kv_src, w, linalg.matmul,
                                                            linalg.softmax_rows)
    assert out.tobytes() == want_out.tobytes()
    assert cache["concat"].tobytes() == want_concat.tobytes()
    assert len(cache["heads"]) == heads
    for got, want in zip(cache["heads"], want_heads):
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_with_maps_return_one_matrix_per_head_in_head_order(heads):
    rng = np.random.default_rng(40 + heads)
    d = 8
    oracle = lambda q, kv, w: [probs for *_, probs in loop_attend_forward(q, kv, w, linalg.matmul,
                                                                          linalg.softmax_rows)[2]]
    w, w_video = AttentionWeights.random(rng, d, heads), AttentionWeights.random(rng, d, heads)
    q, kv = TokenBundle(rng.normal(size=(3, d))), TokenBundle(rng.normal(size=(6, d)))
    image, video = make_dual_inputs(rng, n=3, d=d)
    mlp = DualMlpWeights(image=MlpWeights.random(rng, d), video=MlpWeights.random(rng, d))
    n_i, n_v = (att._ln_forward(x)[0] for x in att._residual_streams(image, video))
    _, _, dual_maps = att.dual_attention_with_maps(image, video, w, w_video, mlp)
    cases = [
        (att.mha_with_maps(q, kv, w)[1], oracle(q.tokens, kv.tokens, w)),
        (att.frame_guided_pooling_with_maps(q, kv, w)[1], oracle(q.tokens, kv.tokens, w)),
        (dual_maps["image_queries"], oracle(n_i, n_v, w)),
        (dual_maps["video_queries"], oracle(n_v, n_i, w_video)),
    ]
    for maps, want in cases:
        assert isinstance(maps, list) and len(maps) == heads
        for m, expected in zip(maps, want):
            assert m.ndim == 2 and m.shape == expected.shape
            assert m.tobytes() == expected.tobytes()


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), heads=st.integers(1, 4), d_head=st.integers(1, 4),
       d_model=st.integers(1, 6), n_q=st.integers(1, 5), n_kv=st.integers(1, 5), sparse=st.booleans())
def test_attend_backward_equals_the_per_head_loop(seed, heads, d_head, d_model, n_q, n_kv, sparse):
    rng = np.random.default_rng(seed)
    stacks = {name: rng.normal(size=(heads, d_model, d_head)) for name in ("w_q", "w_k", "w_v")}
    w = AttentionWeights(**stacks, w_o=rng.normal(size=(heads * d_head, d_model)))
    q_src, kv_src = rng.normal(size=(n_q, d_model)), rng.normal(size=(n_kv, d_model))
    d_out = rng.normal(size=(n_q, d_model))
    if sparse:  # zero rows and entries, where a sum's sign of zero could differ
        d_out *= rng.integers(0, 2, size=(n_q, 1)) * rng.integers(0, 2, size=(n_q, d_model))
    _, cache = att._attend_forward(q_src, kv_src, w)
    d_q_src, d_kv_src, grads = att._attend_backward(d_out, cache, w)
    want_q, want_kv, want_wq, want_wk, want_wv, want_wo = loop_attend_backward(d_out, cache, w, linalg.matmul)
    assert d_q_src.tobytes() == want_q.tobytes()
    assert d_kv_src.tobytes() == want_kv.tobytes()
    assert grads.w_q.tobytes() == np.stack(want_wq).tobytes()
    assert grads.w_k.tobytes() == np.stack(want_wk).tobytes()
    assert grads.w_v.tobytes() == np.stack(want_wv).tobytes()
    assert grads.w_o.tobytes() == want_wo.tobytes()


@pytest.mark.parametrize("op", att.GRAD_CHECK_OPS)
def test_grad_check_all_ops_single_seed(op):
    inputs, weights = att.random_instance(op, 123, d_model=6, heads=2,
                                          n_tokens=2, mlp_hidden=8)
    report = att.grad_check(op, inputs, weights, epsilon=1e-5)
    assert report.max_rel_error <= 1e-5
    assert report.params_checked > 0
    assert report.worst  # names the worst tensor


@pytest.mark.parametrize("op", att.GRAD_CHECK_OPS)
def test_grad_check_partial_loss_equals_full_pass(op):
    # the stacked losses recompute only the stages a perturbed tensor feeds;
    # each slice's loss must equal the public 2-D operator's loss with the
    # tensor set to that slice
    inputs, weights = att.random_instance(op, 5, d_model=6, heads=2,
                                          n_tokens=2, mlp_hidden=8)
    for name, (arr, _, losses) in att._CASE_BUILDERS[op](inputs, weights).items():
        stack = np.repeat(arr[None], 2, axis=0)
        stack[0].flat[0] += 1e-3
        stack[1].flat[arr.size - 1] += 1e-3
        got = losses(stack)
        orig = arr.copy()
        for s in range(2):
            arr[...] = stack[s]  # the table's tensors alias the instance's arrays
            assert got[s] == full_pass_loss(op, inputs, weights), (name, s)
        arr[...] = orig


# the checked tensors of random_instance(op, 0) (d_model 8, heads 2), in
# table order; the order decides which tensor a tie reports as worst
CHECKED_NAMES = {
    "mha": ["queries.tokens", "keys_values.tokens", "w_q.h0", "w_k.h0", "w_v.h0",
            "w_q.h1", "w_k.h1", "w_v.h1", "w_o"],
    "frame_guided_pooling": ["last_frame.tokens", "video.tokens", "w_q.h0", "w_k.h0", "w_v.h0",
                             "w_q.h1", "w_k.h1", "w_v.h1", "w_o"],
    "dual_attention": ["image.tokens", "image.class_token", "image.positional",
                       "video.tokens", "video.class_token", "video.positional",
                       "image_branch.w_q.h0", "image_branch.w_k.h0", "image_branch.w_v.h0",
                       "image_branch.w_q.h1", "image_branch.w_k.h1", "image_branch.w_v.h1", "image_branch.w_o",
                       "video_branch.w_q.h0", "video_branch.w_k.h0", "video_branch.w_v.h0",
                       "video_branch.w_q.h1", "video_branch.w_k.h1", "video_branch.w_v.h1", "video_branch.w_o",
                       "mlp.image.w1", "mlp.image.b1", "mlp.image.w2", "mlp.image.b2",
                       "mlp.video.w1", "mlp.video.b1", "mlp.video.w2", "mlp.video.b2"],
}


@pytest.mark.parametrize("op", att.GRAD_CHECK_OPS)
def test_grad_check_table_order_and_gradient_shapes(op):
    inputs, weights = att.random_instance(op, 0)
    table = att._CASE_BUILDERS[op](inputs, weights)
    assert list(table) == CHECKED_NAMES[op]
    for name, (arr, grad, _) in table.items():
        assert np.shape(grad) == arr.shape, name


def full_pass_loss(op, inputs, weights) -> float:
    """sum(output ** 2) / 2 through the public 2-D operator."""
    if op == "dual_attention":
        outs = [np.vstack([b.tokens, b.class_token]) for b in att.dual_attention(*inputs, *weights)]
    else:
        outs = [getattr(att, op)(*inputs, weights).tokens]
    return 0.5 * float(sum(np.sum(y * y) for y in outs))


def loop_report(op, inputs, weights, epsilon=1e-5):
    table = att._CASE_BUILDERS[op](inputs, weights)
    params = {name: arr for name, (arr, _, _) in table.items()}
    grads = {name: grad for name, (_, grad, _) in table.items()}
    return loop_grad_check(params, lambda: full_pass_loss(op, inputs, weights), grads, epsilon)


def criterion_instance(op, seed, heads=2):
    if op == "dual_attention":
        return att.random_instance(op, seed, d_model=6, heads=heads, n_tokens=2, mlp_hidden=12)
    return att.random_instance(op, seed, heads=heads)


@pytest.mark.parametrize("op,seed,heads", [(op, seed, 2) for op in ("mha", "frame_guided_pooling")
                                            for seed in range(4)]
                         + [("dual_attention", seed, 2) for seed in range(2)]
                         + [(op, 3, heads) for op in att.GRAD_CHECK_OPS for heads in (1, 4)])
def test_grad_check_report_equals_per_scalar_loop(op, seed, heads):
    inputs, weights = criterion_instance(op, seed, heads)
    report = att.grad_check(op, inputs, weights, epsilon=1e-5).to_json()
    assert report == loop_report(op, inputs, weights)


@pytest.mark.parametrize("op", att.GRAD_CHECK_OPS)
def test_grad_check_report_does_not_depend_on_the_chunk(op, monkeypatch):
    inputs, weights = criterion_instance(op, 7)
    expected = att.grad_check(op, inputs, weights).to_json()
    for chunk in (1, 7):
        monkeypatch.setattr(att, "_STACK_CHUNK", chunk)
        assert att.grad_check(op, inputs, weights).to_json() == expected, chunk


def test_grad_check_memory_is_bounded_by_the_chunk():
    # the largest tensor is the (16, 64) MLP weight; unchunked, its 2048
    # perturbed copies alone would take 16 MiB
    inputs, weights = att.random_instance("dual_attention", 0, d_model=16)
    largest = max(arr.size for arr, _, _ in att._CASE_BUILDERS["dual_attention"](inputs, weights).values())
    tracemalloc.start()
    try:
        att.grad_check("dual_attention", inputs, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * att._STACK_CHUNK * largest * 8, peak


@pytest.mark.parametrize("op", ["mha", "frame_guided_pooling"])
def test_grad_check_ignores_class_tokens_and_positions_the_operator_does_not_read(op):
    (queries, keys_values), w = att.random_instance(op, 3)
    rng = np.random.default_rng(48)

    def dressed(b):
        n, d = b.tokens.shape
        return TokenBundle(b.tokens, class_token=rng.normal(size=d), positional=rng.normal(size=(n + 1, d)))

    plain = att.grad_check(op, (queries, keys_values), w)
    assert att.grad_check(op, (dressed(queries), dressed(keys_values)), w) == plain


def test_random_instance_is_reproducible():
    (q1, kv1), w1 = att.random_instance("mha", 7)
    (q2, kv2), w2 = att.random_instance("mha", 7)
    assert np.array_equal(q1.tokens, q2.tokens)
    assert np.array_equal(kv1.tokens, kv2.tokens)
    assert np.array_equal(w1.w_o, w2.w_o)
    (q3, _), _ = att.random_instance("mha", 8)
    assert not np.array_equal(q1.tokens, q3.tokens)


def test_grad_check_report_to_json():
    inputs, weights = att.random_instance("mha", 1, d_model=4, heads=1, n_tokens=2)
    report = att.grad_check("mha", inputs, weights)
    doc = report.to_json()
    assert set(doc) == {"max_rel_error", "params_checked", "worst"}
    assert isinstance(doc["max_rel_error"], float)
