"""Cross-attention operators with hand-written backward passes.

Three operators make up the feature-fusion stage of the anticipation
model:

* ``mha``: multi-head attention where queries and keys/values may come
  from different token sets, with the query tokens added back as a
  residual.
* ``frame_guided_pooling``: collapses a stack of video-frame tokens to
  one frame's worth of tokens by letting the last frame's tokens query
  the whole stack.
* ``dual_attention``: two symmetric cross-attention branches between an
  image token set and a video token set.  Each side gets a class token
  row appended, optional positional embeddings added into the residual
  stream, a pre-attention layer norm, and a residual MLP after the
  attention.

Every operator has an analytic backward pass for the scalar loss
``sum(output ** 2) / 2``; ``grad_check`` compares those gradients
against central finite differences and reports the worst offender.  The
forward stages are rank-generic: they take stacks of token matrices or
weights (leading batch axes), so ``grad_check`` runs every perturbed copy
of a tensor through one pass, and the 2-D operators run the same code.

Class-token fusion lives here too since it shares the token layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg

__all__ = [
    "AttentionWeights",
    "MlpWeights",
    "DualMlpWeights",
    "TokenBundle",
    "GradCheckReport",
    "mha",
    "mha_with_maps",
    "frame_guided_pooling",
    "frame_guided_pooling_with_maps",
    "dual_attention",
    "dual_attention_with_maps",
    "fuse_class_tokens",
    "grad_check",
    "random_instance",
    "GRAD_CHECK_OPS",
]

LN_EPS = 1e-6


@dataclass
class AttentionWeights:
    """Projection weights for one multi-head attention block.

    w_q, w_k, w_v are (heads, d_model, d_head) float64 stacks, one slice per
    head; construction takes such a stack or a sequence of per-head
    (d_model, d_head) matrices and stores the stack.  w_o maps the
    concatenated head outputs (heads * d_head) back to d_model.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self) -> None:
        if not len(self.w_q) or len(self.w_q) != len(self.w_k) or len(self.w_q) != len(self.w_v):
            raise ValueError("w_q, w_k, w_v need one matrix per head")
        d_model, d_head = self.w_q[0].shape
        if d_head == 0:
            raise ValueError("heads have width 0; each head needs at least one column")
        for name in ("w_q", "w_k", "w_v"):
            for h, m in enumerate(getattr(self, name)):
                if m.shape != (d_model, d_head):
                    raise ValueError(f"{name}.h{h} has shape {m.shape}, expected {(d_model, d_head)}")
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if self.w_o.shape != (len(self.w_q) * d_head, d_model):
            raise ValueError(
                f"w_o has shape {self.w_o.shape}, expected {(len(self.w_q) * d_head, d_model)}"
            )

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def d_model(self) -> int:
        return self.w_q.shape[1]

    @property
    def d_head(self) -> int:
        return self.w_q.shape[2]

    @classmethod
    def identity(cls, d_model: int) -> "AttentionWeights":
        """Single head, all projections the identity. Handy in tests."""
        return cls(w_q=[np.eye(d_model)], w_k=[np.eye(d_model)], w_v=[np.eye(d_model)], w_o=np.eye(d_model))

    @classmethod
    def random(cls, rng: np.random.Generator, d_model: int, heads: int,
               scale: float = 0.5) -> "AttentionWeights":
        if not 1 <= heads <= d_model:
            raise ValueError(f"heads must be between 1 and d_model; got heads={heads}, d_model={d_model}")
        d_head = d_model // heads
        draw = lambda *shape: rng.normal(scale=scale, size=shape)
        return cls(w_q=draw(heads, d_model, d_head), w_k=draw(heads, d_model, d_head),
                   w_v=draw(heads, d_model, d_head), w_o=draw(heads * d_head, d_model))

    def with_zero_values(self) -> "AttentionWeights":
        return replace(self, w_v=np.zeros_like(self.w_v))


@dataclass
class MlpWeights:
    """Two affine layers with a GELU between them (tanh form)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        d, hidden = self.w1.shape
        if self.b1.shape != (hidden,) or self.w2.shape != (hidden, d) or self.b2.shape != (d,):
            raise ValueError(
                f"mlp shapes inconsistent: w1 {self.w1.shape}, b1 {self.b1.shape}, "
                f"w2 {self.w2.shape}, b2 {self.b2.shape}"
            )

    @classmethod
    def zeros(cls, d_model: int, hidden: int | None = None) -> "MlpWeights":
        hidden = hidden if hidden is not None else 4 * d_model
        return cls(np.zeros((d_model, hidden)), np.zeros(hidden), np.zeros((hidden, d_model)), np.zeros(d_model))

    @classmethod
    def random(cls, rng: np.random.Generator, d_model: int, hidden: int | None = None,
               scale: float = 0.5) -> "MlpWeights":
        hidden = hidden if hidden is not None else 4 * d_model
        return cls(
            rng.normal(scale=scale, size=(d_model, hidden)),
            rng.normal(scale=scale, size=hidden),
            rng.normal(scale=scale, size=(hidden, d_model)),
            rng.normal(scale=scale, size=d_model),
        )


@dataclass
class DualMlpWeights:
    """One residual MLP per dual-attention branch."""

    image: MlpWeights
    video: MlpWeights


@dataclass
class TokenBundle:
    """A token matrix plus optional class token and positional embeddings.

    tokens is (n, d_model); class_token, when present, is a length-d_model
    vector that ops append as an extra row; positional, when present, must
    cover tokens plus the class row.
    """

    tokens: np.ndarray
    class_token: np.ndarray | None = None
    positional: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.tokens.ndim != 2:
            raise ValueError(f"tokens must be 2-D, got shape {self.tokens.shape}")
        d = self.tokens.shape[1]
        if self.class_token is not None and self.class_token.shape != (d,):
            raise ValueError(f"class token has shape {self.class_token.shape}, expected ({d},)")
        if self.positional is not None:
            rows = self.tokens.shape[0] + (1 if self.class_token is not None else 0)
            if self.positional.shape != (rows, d):
                raise ValueError(
                    f"positional embeddings have shape {self.positional.shape}, expected ({rows}, {d})"
                )

    @property
    def d_model(self) -> int:
        return self.tokens.shape[1]


# ---------------------------------------------------------------------------
# shared attention core (no residual; callers add their own residual stream)


def _head_products(q_src: np.ndarray, kv_src: np.ndarray, w_q: np.ndarray, w_k: np.ndarray,
                   w_v: np.ndarray):
    """One head's projections q, k, v and its unscaled scores q k^T."""
    q = linalg.matmul(q_src, w_q)
    k = linalg.matmul(kv_src, w_k)
    return q, k, linalg.matmul(kv_src, w_v), linalg.matmul(q, k.swapaxes(-1, -2))


def _attend_forward(q_src: np.ndarray, kv_src: np.ndarray, w: AttentionWeights):
    if q_src.shape[-1] != w.d_model or kv_src.shape[-1] != w.d_model:
        raise ValueError(
            f"token width mismatch: queries {q_src.shape}, keys/values {kv_src.shape}, "
            f"weights expect d_model={w.d_model}"
        )
    scale = 1.0 / math.sqrt(w.d_head)
    # The head products stay separate calls: bench/spans.py's matmul flop
    # hook unpacks 2-D operand shapes only, so a product stacked over the
    # heads would fail every traced operation until that hook takes batch
    # axes.  The scores stack on a leading axis for one softmax, which
    # leaves each probs[h] C-contiguous, with the bits of a per-head call.
    products = [_head_products(q_src, kv_src, *mats) for mats in zip(w.w_q, w.w_k, w.w_v)]
    scores = np.array([s for *_, s in products])
    scores *= scale
    probs = linalg.softmax_rows(scores)
    heads = [(q, k, v, p) for (q, k, v, _), p in zip(products, probs)]
    concat = np.concatenate([linalg.matmul(p, v) for _, _, v, p in heads], axis=-1)
    out = linalg.matmul(concat, w.w_o)
    cache = {"q_src": q_src, "kv_src": kv_src, "heads": heads, "concat": concat, "scale": scale}
    return out, cache


def _attend_backward(d_out: np.ndarray, cache: dict, w: AttentionWeights):
    q_src, kv_src = cache["q_src"], cache["kv_src"]
    q, k, v, probs = (np.stack(t) for t in zip(*cache["heads"]))  # each (heads, rows, cols)
    d_concat = linalg.matmul(d_out, w.w_o.T)
    d_wo = linalg.matmul(cache["concat"].T, d_out)
    d_o = d_concat.reshape(d_concat.shape[0], w.heads, w.d_head).swapaxes(0, 1)
    d_probs = linalg.matmul(d_o, v.swapaxes(-1, -2))
    d_v = linalg.matmul(probs.swapaxes(-1, -2), d_o)
    # softmax jacobian: dS = P * (dP - rowsum(P * dP))
    d_scores = probs * (d_probs - np.sum(probs * d_probs, axis=-1, keepdims=True))
    d_qk = d_scores * cache["scale"]
    d_q = linalg.matmul(d_qk, k)
    d_k = linalg.matmul(d_qk.swapaxes(-1, -2), q)
    # the builtin sum adds the heads' source gradients to 0 in head order
    d_q_src = sum(linalg.matmul(d_q, w.w_q.swapaxes(-1, -2)))
    d_kv_src = sum(linalg.matmul(d_k, w.w_k.swapaxes(-1, -2)) + linalg.matmul(d_v, w.w_v.swapaxes(-1, -2)))
    grads = AttentionWeights(w_q=linalg.matmul(q_src.T, d_q), w_k=linalg.matmul(kv_src.T, d_k),
                             w_v=linalg.matmul(kv_src.T, d_v), w_o=d_wo)
    return d_q_src, d_kv_src, grads


# ---------------------------------------------------------------------------
# layer norm (no affine) and MLP with caches for the dual-attention backward


def _ln_forward(x: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mu) ** 2, axis=-1, keepdims=True)
    std = np.sqrt(var + LN_EPS)
    xhat = (x - mu) / std
    return xhat, {"xhat": xhat, "std": std}


def _ln_backward(g: np.ndarray, cache: dict) -> np.ndarray:
    xhat, std = cache["xhat"], cache["std"]
    g_mean = g.mean(axis=1, keepdims=True)
    gx_mean = np.mean(g * xhat, axis=1, keepdims=True)
    return (g - g_mean - xhat * gx_mean) / std


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# Past |x| = 20 the tanh argument exceeds 300 and tanh is exactly +-1 in
# float64, so clamping x there inside the tanh argument and the polynomial
# factor changes no bit of a finite result; it only keeps the cube and the
# square from overflowing (inf * 0 would make the gradient NaN).
_GELU_CLAMP = 20.0


def _gelu(x: np.ndarray) -> np.ndarray:
    xc = np.minimum(np.maximum(x, -_GELU_CLAMP), _GELU_CLAMP)
    u = _GELU_C * (xc + _GELU_A * (xc * xc * xc))
    return 0.5 * x * (1.0 + np.tanh(u))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    xc = np.minimum(np.maximum(x, -_GELU_CLAMP), _GELU_CLAMP)
    u = _GELU_C * (xc + _GELU_A * (xc * xc * xc))
    t = np.tanh(u)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * xc ** 2)


def _mlp_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray):
    """Residual MLP over rows; the biases (or stacks of them) add to every row."""
    pre = linalg.matmul(x, w1) + b1[..., None, :]
    act = _gelu(pre)
    out = linalg.matmul(act, w2) + b2[..., None, :]
    return x + out, {"x": x, "pre": pre, "act": act}


def _mlp_backward(d_y: np.ndarray, cache: dict, mw: MlpWeights):
    d_out = d_y
    d_act = linalg.matmul(d_out, mw.w2.T)
    d_w2 = linalg.matmul(cache["act"].T, d_out)
    d_b2 = d_out.sum(axis=0)
    d_pre = d_act * _gelu_grad(cache["pre"])
    d_w1 = linalg.matmul(cache["x"].T, d_pre)
    d_b1 = d_pre.sum(axis=0)
    d_x = d_y + linalg.matmul(d_pre, mw.w1.T)
    return d_x, MlpWeights(d_w1, d_b1, d_w2, d_b2)


# ---------------------------------------------------------------------------
# public operators


def _maps(cache: dict) -> list[np.ndarray]:
    """The per-head attention matrices of an ``_attend_forward`` cache."""
    return [probs for (_, _, _, probs) in cache["heads"]]


def mha(queries: TokenBundle, keys_values: TokenBundle, weights: AttentionWeights) -> TokenBundle:
    """Residual multi-head attention: queries attend over keys/values.

    Output token count equals the query token count; the query tokens are
    added back to the attention output.  Zeroing w_v (or w_o) therefore
    returns the queries untouched.
    """
    return mha_with_maps(queries, keys_values, weights)[0]


def mha_with_maps(queries: TokenBundle, keys_values: TokenBundle,
                  weights: AttentionWeights) -> tuple[TokenBundle, list[np.ndarray]]:
    """Like ``mha`` but also returns the per-head attention matrices."""
    out, cache = _attend_forward(queries.tokens, keys_values.tokens, weights)
    return TokenBundle(tokens=queries.tokens + out), _maps(cache)


def frame_guided_pooling(last_frame: TokenBundle, video: TokenBundle,
                         weights: AttentionWeights) -> TokenBundle:
    """Pool a token stack down to one frame guided by the last frame.

    The last frame's n tokens issue the queries; keys and values come from
    the full stack (t frames, t * n tokens), both taken as they are, with
    no normalisation.  The pooled result keeps the last frame as a
    residual, so identical projections with a zero output map reproduce
    the last frame exactly.
    """
    return frame_guided_pooling_with_maps(last_frame, video, weights)[0]


def frame_guided_pooling_with_maps(last_frame: TokenBundle, video: TokenBundle,
                                   weights: AttentionWeights) -> tuple[TokenBundle, list[np.ndarray]]:
    """Like ``frame_guided_pooling`` but also returns the per-head attention matrices."""
    if last_frame.tokens.shape[0] > video.tokens.shape[0]:
        raise ValueError(
            f"last frame has {last_frame.tokens.shape[0]} tokens but the video stack "
            f"only has {video.tokens.shape[0]}"
        )
    out, cache = _attend_forward(last_frame.tokens, video.tokens, weights)
    return TokenBundle(tokens=last_frame.tokens + out), _maps(cache)


def _stack_with_class(tokens: np.ndarray, class_token: np.ndarray | None,
                      positional: np.ndarray | None, side: str) -> np.ndarray:
    """One side's residual stream: the tokens with the class token appended as
    a last row, plus the positional embeddings.  Any of the three may be a
    stack; the others are shared by every slice."""
    if class_token is None:
        raise ValueError(f"dual_attention requires a class token on the {side} side")
    rows, d = tokens.shape[-2:]
    x = np.empty((tokens.shape[:-2] or class_token.shape[:-1]) + (rows + 1, d))
    x[..., :rows, :] = tokens
    x[..., rows, :] = class_token
    if positional is not None:
        x = x + positional
    return x


def _residual_streams(image: TokenBundle, video: TokenBundle) -> tuple[np.ndarray, np.ndarray]:
    if image.tokens.shape != video.tokens.shape:
        raise ValueError(
            f"token-count mismatch: image tokens {image.tokens.shape}, video tokens {video.tokens.shape}"
        )
    return _stack_with_class(**vars(image), side="image"), _stack_with_class(**vars(video), side="video")


def _dual_forward(x_i: np.ndarray, x_v: np.ndarray, w_image: AttentionWeights,
                  w_video: AttentionWeights, mlp: DualMlpWeights):
    n_i, ln_i = _ln_forward(x_i)
    n_v, ln_v = _ln_forward(x_v)
    att_i, cache_i = _attend_forward(n_i, n_v, w_image)
    att_v, cache_v = _attend_forward(n_v, n_i, w_video)
    h_i = x_i + att_i
    h_v = x_v + att_v
    y_i, mlp_i = _mlp_forward(h_i, **vars(mlp.image))
    y_v, mlp_v = _mlp_forward(h_v, **vars(mlp.video))
    cache = {"ln_i": ln_i, "ln_v": ln_v, "att_i": cache_i, "att_v": cache_v,
             "mlp_i": mlp_i, "mlp_v": mlp_v}
    return y_i, y_v, cache


def _split_rows(y: np.ndarray) -> TokenBundle:
    return TokenBundle(tokens=y[:-1].copy(), class_token=y[-1].copy())


def dual_attention(image: TokenBundle, video: TokenBundle, w_image: AttentionWeights,
                   w_video: AttentionWeights, mlp: DualMlpWeights) -> tuple[TokenBundle, TokenBundle]:
    """Symmetric image/video cross-attention refinement.

    Each side's class token is appended as an extra row, positional
    embeddings (when supplied) are added into the residual stream, and a
    layer norm without affine parameters (epsilon ``LN_EPS``) always feeds
    the attention inputs.  The image branch queries with image rows
    against video rows; the video branch swaps the roles.  Both branches
    end with a residual MLP.  With w_v and the MLP weights all zero each
    side comes back equal to its position-embedded residual stream.
    """
    return dual_attention_with_maps(image, video, w_image, w_video, mlp)[:2]


def dual_attention_with_maps(image: TokenBundle, video: TokenBundle, w_image: AttentionWeights,
                             w_video: AttentionWeights, mlp: DualMlpWeights):
    """``dual_attention`` plus the attention matrices of both branches."""
    y_i, y_v, cache = _dual_forward(*_residual_streams(image, video), w_image, w_video, mlp)
    maps = {"image_queries": _maps(cache["att_i"]), "video_queries": _maps(cache["att_v"])}
    return _split_rows(y_i), _split_rows(y_v), maps


def fuse_class_tokens(image_class: np.ndarray, video_class: np.ndarray) -> np.ndarray:
    """Elementwise sum of the two refined class tokens."""
    if image_class.shape != video_class.shape:
        raise ValueError(
            f"class token length mismatch: {image_class.shape} vs {video_class.shape}"
        )
    return image_class + video_class


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-finite-difference comparison."""

    max_rel_error: float
    params_checked: int
    worst: str

    def to_json(self) -> dict:
        return {
            "max_rel_error": float(self.max_rel_error),
            "params_checked": int(self.params_checked),
            "worst": self.worst,
        }


def _loss(outputs: list[np.ndarray]):
    """sum(y ** 2) / 2 over the outputs; one loss per slice when they are stacks."""
    return 0.5 * sum(np.sum(y * y, axis=(-2, -1)) for y in outputs)


def _attend_after_change(w: AttentionWeights, base: dict, kind: str, h: int,
                         value: np.ndarray) -> np.ndarray:
    """Attention output after head ``h``'s ``kind`` projection ("w_q", "w_k"
    or "w_v") of ``w`` took ``value``, one matrix or a stack of them, since
    the pass that produced ``base``, the cache of ``_attend_forward``.

    A head's projections only enter that head's slice of the concatenated
    outputs, so the other heads' slices are reused; the arithmetic matches a
    full pass bit for bit, slice by slice, since ``softmax_rows`` gives one
    head's scores the bits of that head's slice of the full pass's stack.
    """
    mats = {"w_q": w.w_q[h], "w_k": w.w_k[h], "w_v": w.w_v[h], kind: value}
    _, _, v, scores = _head_products(base["q_src"], base["kv_src"], mats["w_q"], mats["w_k"], mats["w_v"])
    out_h = linalg.matmul(linalg.softmax_rows(scores * base["scale"]), v)
    concat = np.broadcast_to(base["concat"], out_h.shape[:-1] + base["concat"].shape[-1:]).copy()
    concat[..., h * w.d_head:(h + 1) * w.d_head] = out_h
    return linalg.matmul(concat, w.w_o)


def _attention_entries(prefix: str, w: AttentionWeights, base: dict, grads: AttentionWeights, finish):
    """Checked-tensor entries of one attention block's weights: each head's
    w_q, w_k and w_v in head order, then w_o.  ``finish(out)`` turns a stack
    of the block's outputs into losses; w_o only enters the output
    projection, so its stack multiplies the cached concatenation."""
    def head_losses(kind, h):
        return lambda stack: finish(_attend_after_change(w, base, kind, h, stack))

    for h in range(w.heads):
        for kind in ("w_q", "w_k", "w_v"):
            yield f"{prefix}{kind}.h{h}", (getattr(w, kind)[h], getattr(grads, kind)[h], head_losses(kind, h))
    yield f"{prefix}w_o", (w.w_o, grads.w_o, lambda stack: finish(linalg.matmul(base["concat"], stack)))


def _field_entries(prefix: str, fields, grads: dict, rerun):
    """Checked-tensor entries of the arrays of a token or weights dataclass,
    by field, skipping absent ones; ``rerun(**fields)`` turns the fields,
    one of them a perturbed stack, into losses."""
    def losses(field):
        return lambda stack: rerun(**{**vars(fields), field: stack})

    for field, arr in vars(fields).items():
        if arr is not None:
            yield f"{prefix}{field}", (arr, grads[field], losses(field))


def _mha_like_case(q_name: str, kv_name: str):
    def build(inputs, weights):
        q, kv = inputs
        w: AttentionWeights = weights
        # The operator reads the tokens only; a class token or positions
        # that a bundle carries do not reach the output.
        out, base = _attend_forward(q.tokens, kv.tokens, w)
        y = q.tokens + out
        d_q, d_kv, gw = _attend_backward(y, base, w)
        finish = lambda out: _loss([q.tokens + out])
        return dict([
            (f"{q_name}.tokens", (q.tokens, d_q + y,
                                  lambda stack: _loss([stack + _attend_forward(stack, kv.tokens, w)[0]]))),
            (f"{kv_name}.tokens", (kv.tokens, d_kv, lambda stack: finish(_attend_forward(q.tokens, stack, w)[0]))),
            *_attention_entries("", w, base, gw, finish),
        ])

    return build


def _dual_case(inputs, weights):
    image, video = inputs
    w_image, w_video, mlp = weights

    # Stages of the unperturbed pass.  A weight tensor only feeds its own
    # branch, so perturbing it recomputes that branch from here on and
    # keeps the other branch's output; the arithmetic is the same as a
    # full pass, so the losses come out bit for bit the same.
    x_i, x_v = _residual_streams(image, video)
    y_i0, y_v0, base = _dual_forward(x_i, x_v, w_image, w_video, mlp)

    # the analytic gradients come from the same pass's caches
    d_h_i, g_mlp_i = _mlp_backward(y_i0, base["mlp_i"], mlp.image)
    d_h_v, g_mlp_v = _mlp_backward(y_v0, base["mlp_v"], mlp.video)
    d_n_i_a, d_n_v_a, g_image = _attend_backward(d_h_i, base["att_i"], w_image)
    d_n_v_b, d_n_i_b, g_video = _attend_backward(d_h_v, base["att_v"], w_video)
    d_x_i = d_h_i + _ln_backward(d_n_i_a + d_n_i_b, base["ln_i"])
    d_x_v = d_h_v + _ln_backward(d_n_v_a + d_n_v_b, base["ln_v"])
    token_grads = lambda d_x: {"tokens": d_x[:-1], "class_token": d_x[-1], "positional": d_x}

    # a perturbed token, class token or position runs both branches
    rerun_i = lambda **f: _loss(_dual_forward(_stack_with_class(**f, side="image"), x_v, w_image, w_video, mlp)[:2])
    rerun_v = lambda **f: _loss(_dual_forward(x_i, _stack_with_class(**f, side="video"), w_image, w_video, mlp)[:2])
    finish_i = lambda y_i: _loss([y_i, y_v0])
    finish_v = lambda y_v: _loss([y_i0, y_v])
    return dict([
        *_field_entries("image.", image, token_grads(d_x_i), rerun_i),
        *_field_entries("video.", video, token_grads(d_x_v), rerun_v),
        *_attention_entries("image_branch.", w_image, base["att_i"], g_image,
                            lambda att: finish_i(_mlp_forward(x_i + att, **vars(mlp.image))[0])),
        *_attention_entries("video_branch.", w_video, base["att_v"], g_video,
                            lambda att: finish_v(_mlp_forward(x_v + att, **vars(mlp.video))[0])),
        *_field_entries("mlp.image.", mlp.image, vars(g_mlp_i),
                        lambda **f: finish_i(_mlp_forward(base["mlp_i"]["x"], **f)[0])),
        *_field_entries("mlp.video.", mlp.video, vars(g_mlp_v),
                        lambda **f: finish_v(_mlp_forward(base["mlp_v"]["x"], **f)[0])),
    ])


GRAD_CHECK_OPS = ("mha", "frame_guided_pooling", "dual_attention")

# op -> build(inputs, weights), which returns the checked tensors as one
# ordered table, name -> (tensor, analytic gradient, losses): the gradient
# comes from one unperturbed pass, and losses(stack) is the loss of each
# slice of a stack of perturbed copies of the tensor.
_CASE_BUILDERS = {
    "mha": _mha_like_case("queries", "keys_values"),
    "frame_guided_pooling": _mha_like_case("last_frame", "video"),
    "dual_attention": _dual_case,
}

# Perturbed copies per stacked forward pass in ``grad_check``.
_STACK_CHUNK = 128


def grad_check(op_id: str, inputs, weights, epsilon: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    The loss is sum(output ** 2) / 2 over every output of the operator.
    Each scalar of every input and weight tensor is perturbed by +/-
    epsilon.  Error is measured per tensor: the largest entrywise
    difference divided by max(|analytic|_inf, |numeric|_inf, 1e-8), so an
    entry is judged against its own tensor's gradient scale rather than
    against a near-zero value finite differences cannot resolve.  Returns
    the worst error, the number of scalars checked, and which tensor held
    the worst one; a NaN error (say from a NaN input) is the worst, and the
    report names the first tensor that had one.

    The 2n perturbed copies of an n-scalar tensor (+epsilon, then
    -epsilon, for each scalar in C order) form one stack, and only the
    stages that tensor feeds run over it, as one rank-generic pass; every
    loss has the same bits as a full 2-D pass at that perturbation.  The
    stack goes through ``_STACK_CHUNK`` (128) copies at a time, so a chunk
    holds at most 128 x n floats, 1 MiB for the (16, 64) MLP weight of a
    d_model 16 ``dual_attention`` instance and 16 MiB for the (64, 256)
    one at d_model 64.  With its pass's intermediates the check peaks
    below four chunks of its largest tensor (2.7 and 22 MiB traced at
    those two sizes), however many scalars it checks.  The inputs are
    never modified.
    """
    if op_id not in _CASE_BUILDERS:
        raise ValueError(f"unknown grad-check op {op_id!r}; expected one of {GRAD_CHECK_OPS}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    worst = ""
    max_rel = 0.0
    checked = 0
    for name, (arr, grad, losses) in _CASE_BUILDERS[op_id](inputs, weights).items():
        n = arr.size
        flat = arr.reshape(-1)
        perturbed = np.concatenate([flat + epsilon, flat - epsilon])
        loss = np.empty(2 * n)
        buffer = np.empty((min(2 * n, _STACK_CHUNK), n))
        for start in range(0, 2 * n, _STACK_CHUNK):
            rows = np.arange(start, min(start + _STACK_CHUNK, 2 * n))
            stack = buffer[:rows.size]
            stack[...] = flat
            stack[rows - start, rows % n] = perturbed[rows]
            loss[rows] = losses(stack.reshape((rows.size,) + arr.shape))
        numeric = (loss[:n] - loss[n:]) / (2.0 * epsilon)
        analytic = np.asarray(grad, dtype=np.float64).reshape(-1)
        scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-8)
        rel = float(np.max(np.abs(analytic - numeric))) / scale
        # a NaN error fails every tolerance, so the first one is the worst
        if rel > max_rel or (math.isnan(rel) and not math.isnan(max_rel)):
            max_rel = rel
            worst = name
        checked += arr.size
    return GradCheckReport(max_rel_error=max_rel, params_checked=checked, worst=worst)


def random_instance(op_id: str, seed: int, *, d_model: int = 8, heads: int = 2,
                    n_tokens: int = 3, mlp_hidden: int | None = None):
    """Build a random (inputs, weights) pair for ``grad_check``.

    Heads are d_model // heads wide and the pooling stack holds two
    frames.  The same seed always produces the same instance, which keeps
    CLI runs and test sweeps reproducible.
    """
    if op_id not in _CASE_BUILDERS:
        raise ValueError(f"unknown grad-check op {op_id!r}; expected one of {GRAD_CHECK_OPS}")
    rng = np.random.default_rng(seed)
    if op_id == "mha":
        queries = TokenBundle(tokens=rng.normal(size=(n_tokens, d_model)))
        keys_values = TokenBundle(tokens=rng.normal(size=(n_tokens + 1, d_model)))
        return (queries, keys_values), AttentionWeights.random(rng, d_model, heads)
    if op_id == "frame_guided_pooling":
        last = TokenBundle(tokens=rng.normal(size=(n_tokens, d_model)))
        video = TokenBundle(tokens=rng.normal(size=(2 * n_tokens, d_model)))
        return (last, video), AttentionWeights.random(rng, d_model, heads)
    image = TokenBundle(tokens=rng.normal(size=(n_tokens, d_model)),
                        class_token=rng.normal(size=d_model),
                        positional=rng.normal(scale=0.2, size=(n_tokens + 1, d_model)))
    video = TokenBundle(tokens=rng.normal(size=(n_tokens, d_model)),
                        class_token=rng.normal(size=d_model),
                        positional=rng.normal(scale=0.2, size=(n_tokens + 1, d_model)))
    weights = (AttentionWeights.random(rng, d_model, heads),
               AttentionWeights.random(rng, d_model, heads),
               DualMlpWeights(image=MlpWeights.random(rng, d_model, mlp_hidden),
                              video=MlpWeights.random(rng, d_model, mlp_hidden)))
    return (image, video), weights
