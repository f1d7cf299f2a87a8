"""Independent reference implementations used as test oracles.

Everything here is written with plain Python loops and ``math`` so that a
bug in the package's vectorised code cannot hide in a shared helper.  The
only allowed import from the package is nothing at all.  The exceptions
are ``loop_attend_forward`` and ``loop_attend_backward``, which keep the
package's numpy kernels, passed in, and ``gather_bilinear``, which keeps
the numpy formula: each is the pass that a faster one replaced, kept so
that the two can be compared bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# ---------------------------------------------------------------------------
# small dense kernels on lists of lists


def loop_matmul(a, b):
    n, k = len(a), len(a[0])
    m = len(b[0])
    assert len(b) == k
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def loop_softmax_row(row):
    top = max(row)
    exps = [math.exp(v - top) for v in row]
    total = sum(exps)
    return [e / total for e in exps]


def loop_layer_norm(rows, eps):
    out = []
    for row in rows:
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        std = math.sqrt(var + eps)
        out.append([(v - mu) / std for v in row])
    return out


def loop_gelu(x):
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
    return 0.5 * x * (1.0 + math.tanh(u))


def loop_gelu_grad(x):
    """Derivative of the tanh-form GELU.  Past |x| = 50 tanh has saturated to
    exactly +-1, so the derivative is that of the step: 1 above, 0 below
    (the float pow would overflow there)."""
    if abs(x) > 50.0:
        return 1.0 if x > 0 else 0.0
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    t = math.tanh(c * (x + a * x ** 3))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * a * x * x)


def loop_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# ---------------------------------------------------------------------------
# attention, step by step


def loop_attention(q_rows, kv_rows, w_q, w_k, w_v, w_o):
    """Multi-head attention without the residual; weights are per-head lists."""
    heads = len(w_q)
    d_head = len(w_q[0][0])
    scale = 1.0 / math.sqrt(d_head)
    concat = [[] for _ in q_rows]
    for h in range(heads):
        q = loop_matmul(q_rows, w_q[h])
        k = loop_matmul(kv_rows, w_k[h])
        v = loop_matmul(kv_rows, w_v[h])
        scores = [[scale * sum(qi[t] * kj[t] for t in range(d_head)) for kj in k] for qi in q]
        probs = [loop_softmax_row(row) for row in scores]
        out = loop_matmul(probs, v)
        for i, row in enumerate(out):
            concat[i].extend(row)
    return loop_matmul(concat, w_o)


def loop_attend_forward(q_src, kv_src, w, matmul, softmax_rows):
    """The attention forward pass one head at a time, each with its own softmax.

    q_src is a matrix or a stack of them, w the weights, and matmul and
    softmax_rows the package's ``linalg`` kernels.  Returns the output
    (before the residual), the concatenated head outputs and the per-head
    (q, k, v, probs) tuples, as ``_attend_forward``'s cache holds them.
    """
    scale = 1.0 / math.sqrt(w.d_head)
    outs, heads = [], []
    for h in range(w.heads):
        q = matmul(q_src, w.w_q[h])
        k = matmul(kv_src, w.w_k[h])
        v = matmul(kv_src, w.w_v[h])
        probs = softmax_rows(matmul(q, k.swapaxes(-1, -2)) * scale)
        outs.append(matmul(probs, v))
        heads.append((q, k, v, probs))
    concat = np.concatenate(outs, axis=-1)
    return matmul(concat, w.w_o), concat, heads


def loop_attend_backward(d_out, cache, w, matmul):
    """The attention backward pass one head at a time, accumulating into zeros.

    d_out is the gradient of the attention output (before the residual),
    cache the ``_attend_forward`` cache, w the weights and matmul the
    package's ``linalg.matmul``.  Returns (d_q_src, d_kv_src, d_wq, d_wk,
    d_wv, d_wo), with the three projection gradients as per-head lists.
    """
    q_src, kv_src, scale = cache["q_src"], cache["kv_src"], cache["scale"]
    d_concat = matmul(d_out, w.w_o.T)
    d_wo = matmul(cache["concat"].T, d_out)
    d_q_src = np.zeros_like(q_src)
    d_kv_src = np.zeros_like(kv_src)
    d_wq, d_wk, d_wv = [], [], []
    dh = w.d_head
    for h, (q, k, v, probs) in enumerate(cache["heads"]):
        d_o = d_concat[:, h * dh:(h + 1) * dh]
        d_probs = matmul(d_o, v.T)
        d_v = matmul(probs.T, d_o)
        d_scores = probs * (d_probs - np.sum(probs * d_probs, axis=1, keepdims=True))
        d_qk = d_scores * scale
        d_q = matmul(d_qk, k)
        d_k = matmul(d_qk.T, q)
        d_q_src += matmul(d_q, w.w_q[h].T)
        d_kv_src += matmul(d_k, w.w_k[h].T) + matmul(d_v, w.w_v[h].T)
        d_wq.append(matmul(q_src.T, d_q))
        d_wk.append(matmul(kv_src.T, d_k))
        d_wv.append(matmul(kv_src.T, d_v))
    return d_q_src, d_kv_src, d_wq, d_wk, d_wv, d_wo


def loop_mlp(rows, w1, b1, w2, b2):
    """Residual two-layer MLP with the tanh-form GELU in the middle."""
    pre = [[v + bias for v, bias in zip(row, b1)] for row in loop_matmul(rows, w1)]
    act = [[loop_gelu(v) for v in row] for row in pre]
    out = [[v + bias for v, bias in zip(row, b2)] for row in loop_matmul(act, w2)]
    return loop_add(rows, out)


def loop_dual(image_rows, video_rows, w_image, w_video, mlp_image, mlp_video, eps):
    """Both dual-attention branches; rows already carry class token + positions."""
    n_i = loop_layer_norm(image_rows, eps)
    n_v = loop_layer_norm(video_rows, eps)
    att_i = loop_attention(n_i, n_v, *w_image)
    att_v = loop_attention(n_v, n_i, *w_video)
    h_i = loop_add(image_rows, att_i)
    h_v = loop_add(video_rows, att_v)
    y_i = loop_mlp(h_i, *mlp_image)
    y_v = loop_mlp(h_v, *mlp_video)
    return y_i, y_v


def loop_bilinear(grid, out_h, out_w):
    """Half-pixel-centre bilinear resize of an (h, w, c) nested list."""
    h, w, c = len(grid), len(grid[0]), len(grid[0][0])
    out = [[[0.0] * c for _ in range(out_w)] for _ in range(out_h)]
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                top = grid[y0][x0][ch] * (1 - fx) + grid[y0][x1][ch] * fx
                bot = grid[y1][x0][ch] * (1 - fx) + grid[y1][x1][ch] * fx
                out[i][j][ch] = top * (1 - fy) + bot * fy
    return out


def gather_bilinear(grid, out_h, out_w):
    """The half-pixel-centre bilinear resize of an (h, w, c) array that gathers
    two source rows per output row and blends along x within each of them."""
    h, w, _ = grid.shape
    if (out_h, out_w) == (h, w):
        return grid.copy()
    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    top = grid[y0][:, x0] * (1.0 - wx) + grid[y0][:, x1] * wx
    bot = grid[y1][:, x0] * (1.0 - wx) + grid[y1][:, x1] * wx
    return top * (1.0 - wy) + bot * wy


# ---------------------------------------------------------------------------
# gradient checking


def loop_grad_check(params, loss, grads, epsilon):
    """Central differences one scalar at a time, reported like ``grad_check``.

    params maps tensor names to the arrays that loss() reads; each scalar
    is set in place to its value + epsilon, then - epsilon, and loss()
    reruns the whole forward pass each time.  grads maps the same names to
    the analytic gradients.  Per tensor the error is the largest entrywise
    difference over max(|analytic|_inf, |numeric|_inf, 1e-8).  Returns
    the report as a dict of max_rel_error, params_checked and worst.
    """
    worst, max_rel, checked = "", 0.0, 0
    for name, arr in params.items():
        if not arr.size:
            continue
        numeric = []
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + epsilon
            lp = loss()
            arr.flat[i] = orig - epsilon
            lm = loss()
            arr.flat[i] = orig
            numeric.append((lp - lm) / (2.0 * epsilon))
        analytic = [float(g) for g in grads[name].flat]
        scale = max(max(abs(g) for g in analytic), max(abs(g) for g in numeric), 1e-8)
        rel = max(abs(g - f) for g, f in zip(analytic, numeric)) / scale
        if rel > max_rel:
            max_rel, worst = rel, name
        checked += arr.size
    return {"max_rel_error": max_rel, "params_checked": checked, "worst": worst}


# ---------------------------------------------------------------------------
# affordance voting and retrieval


def vote_prior(entries, labels_by_zone, vocabulary, weighted):
    """Exponential label prior from (zone_id, similarity) votes.

    Sums the exponents per label in entry order, which is also what the
    implementation must do, so agreement can be checked to 1e-12.
    """
    probs = []
    for label in vocabulary:
        exponent = 0.0
        for zone_id, similarity in entries:
            if label in labels_by_zone[zone_id]:
                exponent += similarity if weighted else 1.0
        probs.append(math.exp(exponent))
    total = sum(probs)
    return [p / total for p in probs]


def loop_knn(query, zones, k, similarity):
    """Top-k (zone_id, similarity, channel) per channel, visual first, by scanning every zone.

    similarity(query, descriptor) scores one zone; a zone whose descriptor
    is None scores 0.  Each channel sorts (-similarity, zone position), so
    ties go to the earlier zone.  Passing the package's cosine_similarity
    makes this the per-zone loop that retrieval must agree with exactly.
    """
    out = []
    for channel in ("visual", "text"):
        scored = []
        for idx, zone in enumerate(zones):
            desc = getattr(zone, channel)
            sim = similarity(query, desc) if desc is not None else 0.0
            scored.append((-sim, idx))
        scored.sort()
        out.extend((zones[idx].zone_id, -neg_sim, channel) for neg_sim, idx in scored[:k])
    return out


def loop_apply_affordance(detections, prior_nouns, prior_verbs, from_scores, fuse):
    """Fuse label priors into detections one detection at a time.

    Each detection's noun and verb vectors become fuse(prior,
    from_scores(vector)) and its labels their argmax.  Passing the
    package's CategoricalDistribution.from_scores and fuse_distributions
    makes this the per-detection loop whose bits and first error the
    array pass must reproduce.
    """
    out = []
    for det in detections:
        if det.noun_probs is None or det.verb_probs is None:
            raise ValueError(f"detection {det.uid!r} is missing label probability vectors")
        nouns = fuse(prior_nouns, from_scores(det.noun_probs)).p
        verbs = fuse(prior_verbs, from_scores(det.verb_probs)).p
        out.append(dataclasses.replace(det, noun=int(nouns.argmax()), verb=int(verbs.argmax()),
                                       noun_probs=nouns, verb_probs=verbs))
    return out


# ---------------------------------------------------------------------------
# detection evaluation


def accepts(criterion, det, gt, ttc_tolerance):
    """Whether one matched pair counts under criterion: the pair-by-pair oracle for its holds."""
    if criterion.require_verb and det.verb != gt.verb:
        return False
    return not (criterion.require_ttc and abs(det.ttc - gt.ttc) > ttc_tolerance)


def loop_iou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0 or area_b <= 0:
        return 0.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def loop_average_precision(rows, npos):
    """All-point interpolated AP from (score, original_index, is_tp) rows.

    Rows are ranked by descending score, then index; recall and precision
    are taken at each rank, the precision envelope runs from the last rank
    back, and the AP sums each recall step times the envelope from the
    first rank on.  This is the per-(criterion, class) loop whose bits
    evaluate's array pass must reproduce.
    """
    if not rows:
        return 0.0
    rows = sorted(rows, key=lambda r: (-r[0], r[1]))
    recalls, precisions = [], []
    tp = fp = 0
    for _, _, flag in rows:
        if flag:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / npos)
        precisions.append(tp / (tp + fp))
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    prev = 0.0
    for r, p in zip(recalls, precisions):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return ap


def loop_evaluate(dets, gts, criteria, top_k):
    """Reference top-k mAP evaluator built from explicit dictionaries.

    dets: (uid, box, noun, verb, ttc, score) tuples in submission order.
    gts: (uid, box, noun, verb, ttc) tuples.
    criteria: (name, iou_threshold, require_verb, require_ttc, ttc_tol).
    Returns {criterion_name: {class: ap}} and {criterion_name: map}.
    """
    dets_by_uid = {}
    for idx, det in enumerate(dets):
        dets_by_uid.setdefault(det[0], []).append((det, idx))
    gts_by_uid = {}
    for gt in gts:
        gts_by_uid.setdefault(gt[0], []).append(gt)

    kept_by_uid = {}
    for uid, pairs in dets_by_uid.items():
        ranked = sorted(pairs, key=lambda pair: -pair[0][5])
        kept_by_uid[uid] = ranked[:top_k]

    npos = {}
    for gt in gts:
        npos[gt[2]] = npos.get(gt[2], 0) + 1
    classes = sorted(npos, key=str)

    # gt index assigned to each kept detection, keyed by iou threshold;
    # matching looks at boxes and nouns only
    assigned = {}
    for thr in {c[1] for c in criteria}:
        for uid, kept in kept_by_uid.items():
            by_class = {}
            for det, idx in kept:
                by_class.setdefault(det[2], []).append((det, idx))
            for cls, group in by_class.items():
                gts_cls = [g for g in gts_by_uid.get(uid, []) if g[2] == cls]
                taken = set()
                for det, idx in group:
                    best_j, best_iou = None, 0.0
                    for j, gt in enumerate(gts_cls):
                        if j in taken:
                            continue
                        overlap = loop_iou(det[1], gt[1])
                        if overlap >= thr and (best_j is None or overlap > best_iou):
                            best_j, best_iou = j, overlap
                    if best_j is not None:
                        taken.add(best_j)
                    assigned[(thr, idx)] = gts_cls[best_j] if best_j is not None else None

    per_class = {}
    maps = {}
    for name, thr, need_verb, need_ttc, ttc_tol in criteria:
        table = {}
        for cls in classes:
            rows = []
            for uid, kept in kept_by_uid.items():
                for det, idx in kept:
                    if det[2] != cls:
                        continue
                    gt = assigned[(thr, idx)]
                    ok = gt is not None
                    if ok and need_verb and det[3] != gt[3]:
                        ok = False
                    if ok and need_ttc and abs(det[4] - gt[4]) > ttc_tol:
                        ok = False
                    rows.append((det[5], idx, ok))
            table[cls] = loop_average_precision(rows, npos[cls])
        per_class[name] = table
        total = 0.0
        for cls in classes:
            total += table[cls]
        maps[name] = total / len(classes)
    return per_class, maps


# ---------------------------------------------------------------------------
# hotspot sampling and rasterisation


def loop_sample_at(grid, x, y, bilinear=False):
    """Probability of an (h, w) nested-list grid at image point (x, y), one point at a time.

    Nearest: the cell containing the point, out-of-range points clamped to
    the border cells.  Bilinear: interpolation between the cell centres at
    (col + 0.5, row + 0.5).  math.floor takes a float of any size exactly.
    """
    h, w = len(grid), len(grid[0])
    if bilinear:
        sx = min(max(x - 0.5, 0.0), w - 1.0)
        sy = min(max(y - 0.5, 0.0), h - 1.0)
        x0, y0 = int(math.floor(sx)), int(math.floor(sy))
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = sx - x0, sy - y0
        top = grid[y0][x0] * (1 - fx) + grid[y0][x1] * fx
        bot = grid[y1][x0] * (1 - fx) + grid[y1][x1] * fx
        return top * (1 - fy) + bot * fy
    col = int(min(max(math.floor(x), 0), w - 1))
    row = int(min(max(math.floor(y), 0), h - 1))
    return grid[row][col]


def loop_gaussian_map(h, w, centers):
    """Direct per-cell evaluation of a sum of Gaussians, then normalise."""
    grid = [[0.0] * w for _ in range(h)]
    for row in range(h):
        for col in range(w):
            cy, cx = row + 0.5, col + 0.5
            for gx, gy, sigma in centers:
                d2 = (cx - gx) ** 2 + (cy - gy) ** 2
                grid[row][col] += math.exp(-d2 / (2.0 * sigma * sigma))
    total = sum(v for row in grid for v in row)
    return [[v / total for v in row] for row in grid]


# ---------------------------------------------------------------------------
# curation


def loop_curate(boxes, segments, gap, fps, split="train"):
    """Reference curation in four stages over explicit track dictionaries.

    boxes and segments are objects with the attributes of
    ``BoxAnnotation`` (video_id, frame, noun, box) and ``ActionSegment``
    (video_id, start, verb, noun).  Returns (video_id, frame, box, noun,
    verb, ttc, split) tuples, the fields of ``STARecord`` in order, sorted
    by (video, frame, str(noun)).
    """
    # 1. chain the boxes of each (video, noun), frames sorted, while the gap stays <= gap
    grouped, order = {}, []
    for b in boxes:
        key = (b.video_id, b.noun)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(b)
    tracks = []
    for video_id, noun in order:
        chain = sorted(grouped[(video_id, noun)], key=lambda b: b.frame)
        runs = []
        for b in chain:
            if runs and b.frame - runs[-1][-1].frame <= gap:
                runs[-1].append(b)
            else:
                runs.append([b])
        for run in runs:
            tracks.append({"video_id": video_id, "noun": noun, "frames": [(b.frame, b.box) for b in run]})

    # 2. drop every track touching a (video, frame, noun) that carries two or more boxes
    counts = {}
    for b in boxes:
        key = (b.video_id, b.frame, b.noun)
        counts[key] = counts.get(key, 0) + 1
    tracks = [t for t in tracks
              if all(counts[(t["video_id"], frame, t["noun"])] == 1 for frame, _ in t["frames"])]

    records = []
    for t in tracks:
        # 3. scan every segment for the earliest same-video same-noun start at or after the
        #    first frame; ties on start go to the earlier segment
        first = t["frames"][0][0]
        best = None
        for idx, seg in enumerate(segments):
            if seg.video_id != t["video_id"] or seg.noun != t["noun"] or seg.start < first:
                continue
            if best is None or (seg.start, idx) < best[:2]:
                best = (seg.start, idx, seg)
        if best is None:
            continue
        seg = best[2]
        # 4. cut at the segment start and emit one record per remaining frame
        for frame, box in t["frames"]:
            if frame < seg.start:
                records.append((t["video_id"], frame, box, t["noun"], seg.verb, (seg.start - frame) / fps, split))
    records.sort(key=lambda r: (r[0], r[1], str(r[3])))
    return records


# ---------------------------------------------------------------------------
# zone building


def loop_build_zones(clips, same_zone, theta, recent):
    """Zones as (zone_id, member clips), each clip scored against every window member.

    Clips are taken in input order.  A clip joins the zone of its video
    with the highest mean same_zone(clip, member) over that zone's
    ``recent`` latest members, the earlier zone on a tie, when that mean
    reaches theta, and founds a new zone otherwise.  A similarity outside
    [0, 1] raises ValueError.  Passing the package's
    descriptor_similarity_01 makes this the pairwise loop whose zones and
    errors build_zones must reproduce.
    """
    groups, order = {}, []
    for clip in clips:
        if clip.video_id not in groups:
            groups[clip.video_id] = []
            order.append(clip.video_id)
        per_video = groups[clip.video_id]
        best_idx, best_mean = -1, -1.0
        for idx, members in enumerate(per_video):
            window = members[-recent:]
            total = 0.0
            for member in window:
                sim = float(same_zone(clip, member))
                if not (0.0 <= sim <= 1.0):
                    raise ValueError(f"similarity oracle returned {sim!r} for clips "
                                     f"({clip.clip_id!r}, {member.clip_id!r}); expected [0, 1]")
                total += sim
            mean = total / len(window)
            if mean > best_mean:
                best_idx, best_mean = idx, mean
        if best_idx >= 0 and best_mean >= theta:
            per_video[best_idx].append(clip)
        else:
            per_video.append([clip])
    return [(f"{video_id}:{k}", members) for video_id in order for k, members in enumerate(groups[video_id])]
