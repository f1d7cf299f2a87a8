"""Reference computations the output checks compare against.

Written from the method's definitions with plain numpy and Python, apart
from stakit: attention through ``@`` (BLAS order, so comparisons use a
tolerance), top-K retrieval through one matrix of zone descriptors, the
exponential label vote, half-pixel bilinear resizing and sampling, and
Top-5 mAP under the four nested criteria.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

LN_EPS = 1e-6


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(actual, wanted, what: str, tol: float) -> None:
    actual = np.asarray(actual, dtype=np.float64)
    wanted = np.asarray(wanted, dtype=np.float64)
    expect(actual.shape == wanted.shape, f"{what}: shape {actual.shape} != {wanted.shape}")
    if actual.size:
        # error relative to the largest magnitude in the reference array
        err = float(np.max(np.abs(actual - wanted))) / max(float(np.max(np.abs(wanted))), 1e-300)
        expect(err <= tol, f"{what}: off by {err:.3g} relative (tolerance {tol:g})")


# ---------------------------------------------------------------------------
# attention


def softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def attend(q_src: np.ndarray, kv_src: np.ndarray, w: dict) -> np.ndarray:
    """Multi-head attention output before the residual; w holds per-head lists."""
    outs = []
    for wq, wk, wv in zip(w["w_q"], w["w_k"], w["w_v"]):
        q, k, v = q_src @ wq, kv_src @ wk, kv_src @ wv
        outs.append(softmax_rows(q @ k.T / math.sqrt(wq.shape[1])) @ v)
    return np.hstack(outs) @ w["w_o"]


def layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(((x - mu) ** 2).mean(axis=1, keepdims=True) + LN_EPS)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def residual_mlp(x: np.ndarray, m: dict) -> np.ndarray:
    return x + gelu(x @ m["w1"] + m["b1"]) @ m["w2"] + m["b2"]


def frame_guided_pooling(last: np.ndarray, stack: np.ndarray, w: dict) -> np.ndarray:
    return last + attend(last, stack, w)


def dual_attention(img, cls_i, pos_i, vid, cls_v, pos_v, w_i, w_v, mlp_i, mlp_v):
    """Refined (tokens + class row) of the image side and the video side."""
    x_i = np.vstack([img, cls_i]) + pos_i
    x_v = np.vstack([vid, cls_v]) + pos_v
    n_i, n_v = layer_norm(x_i), layer_norm(x_v)
    return residual_mlp(x_i + attend(n_i, n_v, w_i), mlp_i), residual_mlp(x_v + attend(n_v, n_i, w_v), mlp_v)


# ---------------------------------------------------------------------------
# retrieval and priors


def unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt((m * m).sum(axis=1, keepdims=True))
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def top_k(unit_matrix: np.ndarray, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and cosines of the k best rows; ties go to the earlier row."""
    q = query / np.sqrt(query @ query)
    sims = unit_matrix @ q
    order = np.argsort(-sims, kind="stable")[:k]
    return order, sims


def vote_prior(votes, labels_of, size: int) -> np.ndarray:
    """exp(sum of the votes of the zones carrying each label), normalised."""
    exponent = np.zeros(size)
    for zone, vote in votes:
        for label in labels_of[zone]:
            exponent[label] += vote
    e = np.exp(exponent)
    return e / e.sum()


# ---------------------------------------------------------------------------
# hotspot maps


def resize_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centre bilinear resize of a 2-D grid, one output row at a time."""
    h, w = grid.shape
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    x0 = np.floor(xs).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    fx = xs - x0
    out = np.empty((out_h, out_w))
    for i in range(out_h):
        y = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(y))
        y1 = min(y0 + 1, h - 1)
        fy = y - y0
        row = grid[y0] * (1.0 - fy) + grid[y1] * fy
        out[i] = row[x0] * (1.0 - fx) + row[x1] * fx
    return out


def sample_bilinear(grid: np.ndarray, x: float, y: float) -> float:
    """Interpolate between cell centres (col + 0.5, row + 0.5), clamped to the grid."""
    h, w = grid.shape
    sx = min(max(x - 0.5, 0.0), w - 1.0)
    sy = min(max(y - 0.5, 0.0), h - 1.0)
    c0, r0 = int(sx), int(sy)
    c1, r1 = min(c0 + 1, w - 1), min(r0 + 1, h - 1)
    fx, fy = sx - c0, sy - r0
    top = grid[r0, c0] * (1 - fx) + grid[r0, c1] * fx
    bottom = grid[r1, c0] * (1 - fx) + grid[r1, c1] * fx
    return float(top * (1 - fy) + bottom * fy)


def sample_nearest(grid: np.ndarray, x: float, y: float) -> float:
    h, w = grid.shape
    return float(grid[min(max(int(math.floor(y)), 0), h - 1), min(max(int(math.floor(x)), 0), w - 1)])


# ---------------------------------------------------------------------------
# Top-5 mAP


def box_iou(a, b) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def mean_ap(dets, gts, *, top_k: int = 5, iou_thr: float = 0.5, ttc_tol: float = 0.25) -> dict:
    """mAP per criterion.

    dets are (uid, box, noun, verb, ttc, score) tuples in input order, gts
    are (uid, box, noun, verb, ttc).  Per image the top_k scores survive;
    each survivor, in score order, claims the free same-noun box of highest
    IoU at or above the threshold; the criteria then filter that one
    assignment by verb and time to contact.
    """
    gts_of = defaultdict(list)
    npos = defaultdict(int)
    for g in gts:
        gts_of[g[0]].append(g)
        npos[g[2]] += 1
    dets_of = defaultdict(list)
    for idx, d in enumerate(dets):
        dets_of[d[0]].append((idx, d))
    crits = {"noun": (False, False), "noun_verb": (True, False), "noun_ttc": (False, True), "overall": (True, True)}
    hits = {name: defaultdict(list) for name in crits}
    for uid, pairs in dets_of.items():
        survivors = sorted(pairs, key=lambda p: (-p[1][5], p[0]))[:top_k]
        free = list(gts_of.get(uid, []))
        taken = [False] * len(free)
        for idx, d in survivors:
            best, best_iou = None, 0.0
            for j, g in enumerate(free):
                if taken[j] or g[2] != d[2]:
                    continue
                o = box_iou(d[1], g[1])
                if o >= iou_thr and (best is None or o > best_iou):
                    best, best_iou = j, o
            if best is not None:
                taken[best] = True
            if d[2] not in npos:
                continue
            g = free[best] if best is not None else None
            for name, (need_verb, need_ttc) in crits.items():
                tp = (g is not None and (not need_verb or d[3] == g[3])
                      and (not need_ttc or abs(d[4] - g[4]) <= ttc_tol))
                hits[name][d[2]].append((-d[5], idx, tp))
    out = {}
    for name in crits:
        total = 0.0
        for cls, n in npos.items():
            rows = sorted(hits[name][cls])
            tp, precision = 0, []
            for i, (_, _, flag) in enumerate(rows, start=1):
                tp += flag
                precision.append(tp / i)
            # all-point interpolation: each true positive adds 1/n recall at the
            # best precision reached at or beyond its rank
            best, ap = 0.0, 0.0
            for (_, _, flag), p in zip(reversed(rows), reversed(precision)):
                best = max(best, p)
                if flag:
                    ap += best
            total += ap / n
        out[name] = total / len(npos)
    return out
