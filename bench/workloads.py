"""The four workloads: seeded inputs, timed set-up, operations, output checks.

Every workload class offers:

* ``generate()`` writes the standing data and per-operation inputs into the
  run's work directory, keeping in memory what the checks compare against;
* ``setup()`` loads the standing data through stakit and returns the
  seconds spent in those program calls alone;
* ``run(k)`` performs operation k (timed by the caller);
* ``items(k)`` is the work operation k completes;
* ``check(k, out)`` raises ``CheckFailed`` when the output is wrong.

A run attempts whole rounds of ``round_size`` operations.  The program is
always reached through module attributes (``attention.dual_attention``,
not a name imported once) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter

import numpy as np

from stakit import affordance, attention, curation, evaluation, formats, hotspot

import oracles
from oracles import expect, expect_close

ATTN_TOL = 1e-9  # attention through einsum vs BLAS: same math, another summation order
EXACT_TOL = 1e-12


def _matrix(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return {"rows": m.shape[0], "cols": m.shape[1], "data": m.ravel().tolist()}


def _attention_json(w: dict, prefix: str) -> dict:
    out = {}
    for h in range(len(w["w_q"])):
        for key in ("w_q", "w_k", "w_v"):
            out[f"{prefix}{key}.h{h}"] = _matrix(w[key][h])
    out[f"{prefix}w_o"] = _matrix(w["w_o"])
    return out


def _mlp_json(m: dict, prefix: str) -> dict:
    return {f"{prefix}0": _matrix(m["w1"]), f"{prefix}0.b": _matrix(m["b1"]),
            f"{prefix}1": _matrix(m["w2"]), f"{prefix}1.b": _matrix(m["b2"])}


def _random_attention(rng, d: int, heads: int, scale: float) -> dict:
    dh = d // heads
    return {key: [rng.normal(scale=scale, size=(d, dh)) for _ in range(heads)] for key in ("w_q", "w_k", "w_v")} | {
        "w_o": rng.normal(scale=scale, size=(heads * dh, d))}


def _random_mlp(rng, d: int, hidden: int, scale: float) -> dict:
    return {"w1": rng.normal(scale=scale, size=(d, hidden)), "b1": rng.normal(scale=scale, size=hidden),
            "w2": rng.normal(scale=scale, size=(hidden, d)), "b2": rng.normal(scale=scale, size=d)}


def _write_jsonl(path: Path, rows) -> None:
    # row by row, so that generating inputs never holds a whole file in memory
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")


class Online:
    """Per-frame anticipation requests over an in-memory zone database."""

    D, TOKENS, FRAMES, HEADS, HIDDEN = 64, 16, 4, 4, 256
    ZONES, K, NOUNS, VERBS = 1000, affordance.DEFAULT_K, 128, 81
    VIDEOS, FRAMES_PER_VIDEO, DETECTIONS = 4, 128, 8
    LOW, FULL = (12, 16), (96, 128)  # hotspot map (h, w) before and after upsampling
    round_size = 1

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.state = None

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        d, n = self.D, self.TOKENS
        self.zone_visual = rng.normal(size=(self.ZONES, d))
        self.zone_text = rng.normal(size=(self.ZONES, d))
        self.zone_nouns = [sorted(rng.choice(self.NOUNS, size=rng.integers(1, 5), replace=False).tolist())
                           for _ in range(self.ZONES)]
        self.zone_verbs = [sorted(rng.choice(self.VERBS, size=rng.integers(1, 4), replace=False).tolist())
                           for _ in range(self.ZONES)]
        zones = [{"id": f"z{i:04d}", "clips": [f"c{i:04d}"], "nouns": self.zone_nouns[i],
                  "verbs": self.zone_verbs[i], "visual": self.zone_visual[i].tolist(),
                  "text": self.zone_text[i].tolist()} for i in range(self.ZONES)]
        self.zone_path = self.work / "zones.json"
        self.zone_path.write_text(json.dumps({"zones": zones, "noun_vocab": list(range(self.NOUNS)),
                                              "verb_vocab": list(range(self.VERBS)),
                                              "params": {"theta": affordance.DEFAULT_THETA,
                                                         "M": affordance.DEFAULT_RECENT}}))
        self.unit_visual = oracles.unit_rows(self.zone_visual)
        self.unit_text = oracles.unit_rows(self.zone_text)

        w = self.w = {
            "pool": _random_attention(rng, d, self.HEADS, 0.1),
            "image": _random_attention(rng, d, self.HEADS, 0.1),
            "video": _random_attention(rng, d, self.HEADS, 0.1),
            "mlp_image": _random_mlp(rng, d, self.HIDDEN, 0.06),
            "mlp_video": _random_mlp(rng, d, self.HIDDEN, 0.06),
            "cls_image": rng.normal(size=d), "cls_video": rng.normal(size=d),
            "pos_image": rng.normal(scale=0.2, size=(n + 1, d)), "pos_video": rng.normal(scale=0.2, size=(n + 1, d)),
        }
        doc = (_attention_json(w["pool"], "pool.") | _attention_json(w["image"], "image_branch.")
               | _attention_json(w["video"], "video_branch.") | _mlp_json(w["mlp_image"], "mlp.image.")
               | _mlp_json(w["mlp_video"], "mlp.video."))
        for key in ("cls_image", "cls_video", "pos_image", "pos_video"):
            doc[key] = _matrix(w[key])
        self.weights_path = self.work / "weights.json"
        self.weights_path.write_text(json.dumps(doc))

        # frame tokens drift slowly within a video (AR(1)), image tokens are fresh per frame
        v, f = self.VIDEOS, self.FRAMES_PER_VIDEO
        frames = np.empty((v, f, n, d))
        frames[:, 0] = rng.normal(size=(v, n, d))
        for t in range(1, f):
            frames[:, t] = 0.9 * frames[:, t - 1] + 0.44 * rng.normal(size=(v, n, d))
        self.frames = frames
        self.images = rng.normal(size=(v, f, n, d))
        self.pool_size = v * (f - self.FRAMES + 1)
        h, wd = self.FULL
        self.detections, self.maps = [], []
        for p in range(self.pool_size):
            uid = f"req{p:05d}"
            dets = []
            for _ in range(self.DETECTIONS):
                bw, bh = rng.uniform(8, 40), rng.uniform(8, 30)
                x1, y1 = rng.uniform(0, wd - bw), rng.uniform(0, h - bh)
                dets.append(hotspot.Detection(
                    uid=uid, box=(x1, y1, x1 + bw, y1 + bh), noun=int(rng.integers(self.NOUNS)),
                    verb=int(rng.integers(self.VERBS)), ttc=float(rng.uniform(0.1, 3.0)),
                    score=float(rng.uniform(0.05, 1.0)),
                    noun_probs=oracles.softmax_rows(rng.normal(scale=1.5, size=(1, self.NOUNS)))[0],
                    verb_probs=oracles.softmax_rows(rng.normal(scale=1.5, size=(1, self.VERBS)))[0]))
            self.detections.append(dets)
            grid = np.exp(rng.normal(size=self.LOW))
            self.maps.append(hotspot.HotspotMap(uid=uid, p=grid / grid.sum()))

    def setup(self) -> float:
        t0 = perf_counter()
        zones, nouns, verbs, _ = formats.read_zone_db(self.zone_path)
        doc = formats.read_json(self.weights_path)
        s = {
            "zones": zones, "nouns": nouns, "verbs": verbs,
            "pool": formats.attention_weights_from_json(doc, "pool."),
            "image": formats.attention_weights_from_json(doc, "image_branch."),
            "video": formats.attention_weights_from_json(doc, "video_branch."),
            "mlp": attention.DualMlpWeights(image=formats.mlp_weights_from_json(doc, "mlp.image."),
                                            video=formats.mlp_weights_from_json(doc, "mlp.video.")),
        }
        for key in ("cls_image", "cls_video"):
            s[key] = formats.matrix_from_json(doc[key])[0]
        for key in ("pos_image", "pos_video"):
            s[key] = formats.matrix_from_json(doc[key])
        elapsed = perf_counter() - t0
        self.state = s
        return elapsed

    def request(self, k: int):
        """Tokens of request k: frames of one video in order; later passes over
        the pool are shifted so that no descriptor repeats exactly."""
        p, cycle = k % self.pool_size, k // self.pool_size
        per_video = self.FRAMES_PER_VIDEO - self.FRAMES + 1
        v, f = p // per_video, self.FRAMES - 1 + p % per_video
        shift = 0.01 * cycle
        stack = self.frames[v, f - self.FRAMES + 1:f + 1].reshape(-1, self.D) + shift
        return p, stack, stack[-self.TOKENS:], self.images[v, f] + shift

    def run(self, k: int):
        s = self.state
        p, stack, last, image = self.request(k)
        pooled = attention.frame_guided_pooling(attention.TokenBundle(last), attention.TokenBundle(stack), s["pool"])
        img_out, vid_out = attention.dual_attention(
            attention.TokenBundle(image, s["cls_image"], s["pos_image"]),
            attention.TokenBundle(pooled.tokens, s["cls_video"], s["pos_video"]),
            s["image"], s["video"], s["mlp"])
        fused = attention.fuse_class_tokens(img_out.class_token, vid_out.class_token)
        knn = affordance.knn_query(fused, s["zones"], self.K)
        prior_nouns = affordance.affordance_distribution(knn, s["zones"], s["nouns"], "noun")
        prior_verbs = affordance.affordance_distribution(knn, s["zones"], s["verbs"], "verb")
        refined = affordance.apply_affordance_to_detections(self.detections[p], prior_nouns, prior_verbs)
        hmap = hotspot.upsample_map(self.maps[p], *self.FULL)
        final = hotspot.reweight(refined, {hmap.uid: hmap}, bilinear=True)
        return pooled, img_out, vid_out, fused, knn, prior_nouns, prior_verbs, refined, hmap, final

    def items(self, k: int) -> int:
        return 1

    def check(self, k: int, out) -> None:
        pooled, img_out, vid_out, fused, knn, prior_nouns, prior_verbs, refined, hmap, final = out
        w = self.w
        p, stack, last, image = self.request(k)
        ref_pooled = oracles.frame_guided_pooling(last, stack, w["pool"])
        expect_close(pooled.tokens, ref_pooled, "frame_guided_pooling", ATTN_TOL)
        y_i, y_v = oracles.dual_attention(image, w["cls_image"], w["pos_image"], ref_pooled, w["cls_video"],
                                          w["pos_video"], w["image"], w["video"], w["mlp_image"], w["mlp_video"])
        expect_close(np.vstack([img_out.tokens, img_out.class_token]), y_i, "dual_attention image side", ATTN_TOL)
        expect_close(np.vstack([vid_out.tokens, vid_out.class_token]), y_v, "dual_attention video side", ATTN_TOL)
        ref_fused = y_i[-1] + y_v[-1]
        expect_close(fused, ref_fused, "fuse_class_tokens", ATTN_TOL)

        votes = []
        for channel, matrix in (("visual", self.unit_visual), ("text", self.unit_text)):
            order, sims = oracles.top_k(matrix, ref_fused, self.K)
            got = [e for e in knn.entries if e.channel == channel]
            expect(len(got) == self.K, f"knn {channel}: {len(got)} entries")
            for rank, (entry, want) in enumerate(zip(got, order)):
                idx = int(entry.zone_id[1:])
                # a swap is only acceptable between zones that tie to rounding error
                expect(idx == want or abs(sims[idx] - sims[want]) <= ATTN_TOL,
                       f"knn {channel} rank {rank}: zone {idx}, brute force says {want}")
                expect(abs(entry.similarity - sims[want]) <= ATTN_TOL, f"knn {channel} rank {rank}: similarity")
                votes.append((int(want), float(sims[want])))
        ref_nouns = oracles.vote_prior(votes, self.zone_nouns, self.NOUNS)
        ref_verbs = oracles.vote_prior(votes, self.zone_verbs, self.VERBS)
        expect_close(prior_nouns.p, ref_nouns, "noun prior", ATTN_TOL)
        expect_close(prior_verbs.p, ref_verbs, "verb prior", ATTN_TOL)

        ref_map = oracles.resize_bilinear(self.maps[p].p, *self.FULL)
        ref_map /= ref_map.sum()
        expect_close(hmap.p, ref_map, "upsample_map", EXACT_TOL)
        dets = self.detections[p]
        expect(len(refined) == len(dets) == len(final), "detection count changed")
        for det, ref, fin in zip(dets, refined, final):
            for probs, prior, got, label, what in ((det.noun_probs, ref_nouns, ref.noun_probs, ref.noun, "noun"),
                                                   (det.verb_probs, ref_verbs, ref.verb_probs, ref.verb, "verb")):
                want = prior * probs
                want /= want.sum()
                expect_close(got, want, f"fused {what} distribution", ATTN_TOL)
                expect(want[label] >= want.max() - ATTN_TOL, f"fused {what} label is not the argmax")
            cx, cy = 0.5 * (det.box[0] + det.box[2]), 0.5 * (det.box[1] + det.box[3])
            expect_close(fin.score, det.score * oracles.sample_bilinear(ref_map, cx, cy), "reweighted score",
                         EXACT_TOL)
            expect(fin.box == det.box and fin.noun == ref.noun, "reweight altered more than the score")


class BatchEval:
    """Detection shards scored against ground truth: reweight, evaluate, report."""

    SHARDS, PLANTED, IMAGES, GT_PER_IMAGE, DETS_PER_IMAGE = 8, (6, 7), 100, 2, 8
    MAP = (24, 32)  # full-resolution hotspot map (h, w); boxes live in the same pixel frame
    NOUNS, VERBS = 128, 81

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.state = None
        self.round_size = self.SHARDS

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        h, w = self.MAP
        gt_rows = []
        self.gt_path, self.map_path = self.work / "gt.jsonl", self.work / "maps.jsonl"
        self.gts = [[] for _ in range(self.SHARDS)]
        self.dets = [[] for _ in range(self.SHARDS)]
        self.grids = {}
        ys, xs = np.arange(h)[:, None] + 0.5, np.arange(w)[None, :] + 0.5

        def jitter(box, scale):
            x1, y1, x2, y2 = (round(float(c + rng.normal(scale=scale)), 3) for c in box)
            return (x1, y1, x2, y2) if x1 < x2 and y1 < y2 else box

        with open(self.map_path, "w") as map_file:  # row by row, as _write_jsonl does
            for s in range(self.SHARDS):
                for i in range(self.IMAGES):
                    uid = f"s{s}i{i:03d}"
                    gts = []
                    for _ in range(self.GT_PER_IMAGE):
                        bw, bh = rng.uniform(4, 12), rng.uniform(3, 9)
                        x1, y1 = round(float(rng.uniform(0, w - bw)), 3), round(float(rng.uniform(0, h - bh)), 3)
                        gts.append((uid, (x1, y1, round(x1 + bw, 3), round(y1 + bh, 3)), int(rng.integers(self.NOUNS)),
                                    int(rng.integers(self.VERBS)), round(float(rng.uniform(0.2, 3.0)), 3)))
                    self.gts[s].extend(gts)
                    if s in self.PLANTED:
                        # copies of the ground truth, then distractors scored so low that no hotspot
                        # weight (at most ~3000x apart within a map) lifts them above a copy
                        self.dets[s].extend(g + (round(float(rng.uniform(0.5, 1.0)), 4),) for g in gts)
                        distractors, score_range = self.DETS_PER_IMAGE - self.GT_PER_IMAGE, (1e-5, 1e-4)
                    else:
                        for g in gts:
                            for box_jitter, p_noun, p_verb in ((0.4, 1.0, 0.7), (2.0, 0.5, 0.5)):
                                noun = g[2] if rng.random() < p_noun else int(rng.integers(self.NOUNS))
                                verb = g[3] if rng.random() < p_verb else int(rng.integers(self.VERBS))
                                ttc = round(max(0.05, g[4] + float(rng.normal(scale=0.2))), 3)
                                self.dets[s].append((uid, jitter(g[1], box_jitter), noun, verb, ttc,
                                                     round(float(rng.uniform(0.05, 1.0)), 4)))
                        distractors, score_range = self.DETS_PER_IMAGE - 2 * self.GT_PER_IMAGE, (0.05, 1.0)
                    for _ in range(distractors):  # every shard holds DETS_PER_IMAGE per image
                        bw, bh = rng.uniform(4, 12), rng.uniform(3, 9)
                        x1, y1 = round(float(rng.uniform(0, w - bw)), 3), round(float(rng.uniform(0, h - bh)), 3)
                        self.dets[s].append((uid, (x1, y1, round(x1 + bw, 3), round(y1 + bh, 3)),
                                             int(rng.integers(self.NOUNS)), int(rng.integers(self.VERBS)),
                                             round(float(rng.uniform(0.2, 3.0)), 3),
                                             round(float(rng.uniform(*score_range)), 7)))
                    grid = np.full((h, w), 1e-3)
                    for g in gts:
                        cx, cy = 0.5 * (g[1][0] + g[1][2]) + rng.normal(), 0.5 * (g[1][1] + g[1][3]) + rng.normal()
                        sigma = rng.uniform(2.0, 5.0)
                        grid += np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))
                    grid /= grid.sum()
                    self.grids[uid] = grid
                    map_file.write(json.dumps({"uid": uid, "h": h, "w": w, "p": grid.ravel().tolist()}) + "\n")
                    gt_rows.extend({"uid": g[0], "box": list(g[1]), "noun": g[2], "verb": g[3], "ttc": g[4]} for g in gts)
        _write_jsonl(self.gt_path, gt_rows)
        self.shard_paths, self.report_paths = [], []
        for s in range(self.SHARDS):
            self.shard_paths.append(self.work / f"dets-{s}.jsonl")
            self.report_paths.append(self.work / f"report-{s}.json")
            _write_jsonl(self.shard_paths[s], ({"uid": d[0], "box": list(d[1]), "noun": d[2], "verb": d[3],
                                                "ttc": d[4], "score": d[5]} for d in self.dets[s]))

    def setup(self) -> float:
        t0 = perf_counter()
        gts = formats.read_ground_truth(self.gt_path)
        maps = formats.read_hotspot_maps(self.map_path)
        elapsed = perf_counter() - t0
        by_shard = [[] for _ in range(self.SHARDS)]
        for g in gts:
            by_shard[int(g.uid[1:g.uid.index("i")])].append(g)
        self.state = {"gts": by_shard, "maps": maps}
        return elapsed

    def run(self, k: int):
        s = k % self.SHARDS
        dets = formats.read_detections(self.shard_paths[s])
        refined = hotspot.reweight(dets, self.state["maps"])
        report = evaluation.evaluate(refined, self.state["gts"][s], evaluation.standard_criteria())
        formats.write_eval_report(self.report_paths[s], report)
        return refined, report

    def items(self, k: int) -> int:
        return self.IMAGES

    def check(self, k: int, out) -> None:
        s = k % self.SHARDS
        refined, report = out
        expect(len(refined) == len(self.dets[s]), "reweight changed the detection count")
        ref_dets = []
        for d in self.dets[s]:
            cx, cy = 0.5 * (d[1][0] + d[1][2]), 0.5 * (d[1][1] + d[1][3])
            ref_dets.append(d[:5] + (d[5] * oracles.sample_nearest(self.grids[d[0]], cx, cy),))
        expect_close([r.score for r in refined], [d[5] for d in ref_dets], "reweighted scores", EXACT_TOL)
        want = oracles.mean_ap(ref_dets, self.gts[s])
        maps = report.maps
        for name, value in want.items():
            expect(abs(maps[name] - value) <= EXACT_TOL, f"shard {s} {name} mAP {maps[name]!r}, reference {value!r}")
        expect(maps["overall"] <= maps["noun_verb"] <= maps["noun"] and maps["overall"] <= maps["noun_ttc"]
               <= maps["noun"], f"shard {s}: criteria do not nest: {maps}")
        if s in self.PLANTED:
            expect(all(abs(v - 1.0) <= EXACT_TOL for v in maps.values()), f"planted shard {s} scored {maps}")
        written = json.loads(self.report_paths[s].read_text())
        expect(written["maps"] == {k: float(v) for k, v in maps.items()}, f"shard {s}: written report differs")


class Ingest:
    """One video per operation: clips to zones, boxes plus segments to records."""

    VIDEOS, CLIPS, ANCHORS, D = 40, 60, 5, 64
    TRACKS, BOXES_PER_TRACK, AMBIGUOUS, DISTRACTORS = 16, 10, 3, 8
    NOUNS, VERBS = 128, 81
    THETA, RECENT, FPS = affordance.DEFAULT_THETA, affordance.DEFAULT_RECENT, 30.0
    IMAGE = (456, 256)

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.state = None
        self.round_size = self.VIDEOS

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.noun_vocab = [f"n{i:03d}" for i in range(self.NOUNS)]
        self.verb_vocab = [f"v{i:02d}" for i in range(self.VERBS)]
        self.videos = [f"P{v:02d}" for v in range(self.VIDEOS)]
        self.clip_paths, self.box_paths, self.zone_out, self.record_out = [], [], [], []
        self.planted_zones, self.clip_desc, self.records, self.dropped = [], [], [], []
        segments = []
        for video in self.videos:
            self._generate_clips(rng, video)
            segments.extend(self._generate_boxes(rng, video))
            self.zone_out.append(self.work / f"zones-{video}.json")
            self.record_out.append(self.work / f"records-{video}.jsonl")
        self.segment_path = self.work / "segments.csv"
        self.segment_path.write_text("video_id,start,stop,verb,noun\n"
                                     + "".join(f"{v},{a},{b},{verb},{noun}\n" for v, a, b, verb, noun in segments))

    def _generate_clips(self, rng, video: str) -> None:
        # visual anchors at the corners of a regular simplex (pairwise cosine -1/4): clips of one
        # anchor have similarity01 ~0.99, of two ~0.38, either side of theta 0.5; text anchors
        # are orthonormal (the default oracle reads visual descriptors only)
        basis = np.linalg.qr(rng.normal(size=(self.D, 2 * self.ANCHORS)))[0].T
        visual_anchors = basis[:self.ANCHORS] - basis[:self.ANCHORS].mean(axis=0)
        visual_anchors /= np.linalg.norm(visual_anchors, axis=1, keepdims=True)
        text_anchors = basis[self.ANCHORS:]
        labels = [(rng.choice(self.NOUNS, 4, replace=False), rng.choice(self.VERBS, 3, replace=False))
                  for _ in range(self.ANCHORS)]
        visits = list(rng.permutation(self.ANCHORS))
        while len(visits) < self.CLIPS:
            visits.append(visits[-1] if rng.random() < 0.6 else int(rng.integers(self.ANCHORS)))
        rows, desc, groups = [], {}, {}
        for i, a in enumerate(visits):
            clip = f"{video}_c{i:03d}"
            visual = visual_anchors[a] + rng.normal(scale=0.02, size=self.D)
            text = text_anchors[a] + rng.normal(scale=0.02, size=self.D)
            nouns, verbs = labels[a]
            rows.append({"clip": clip, "video": video, "frame": 30 * i, "visual": visual.tolist(),
                         "text": text.tolist(),
                         "nouns": [self.noun_vocab[j] for j in rng.choice(nouns, rng.integers(1, 4), replace=False)],
                         "verbs": [self.verb_vocab[j] for j in rng.choice(verbs, rng.integers(1, 3), replace=False)]})
            desc[clip] = (visual, text)
            groups.setdefault(a, []).append(clip)  # dict order = order of first visit = zone order
        path = self.work / f"clips-{video}.jsonl"
        _write_jsonl(path, rows)
        self.clip_paths.append(path)
        self.clip_desc.append(desc)
        self.planted_zones.append(list(groups.values()))

    def _generate_boxes(self, rng, video: str) -> list:
        nouns = [self.noun_vocab[j] for j in rng.choice(self.NOUNS, self.TRACKS + self.DISTRACTORS, replace=False)]
        boxes, segments, records = [], [], []
        ambiguous = set(rng.choice(self.TRACKS, self.AMBIGUOUS, replace=False).tolist())
        for t in range(self.TRACKS):
            noun = nouns[t]
            frames = (int(rng.integers(1, 3000)) + np.cumsum(rng.integers(1, 31, self.BOXES_PER_TRACK))).tolist()
            track = []
            for f in frames:
                bw, bh = rng.uniform(10, 120), rng.uniform(10, 80)
                x1, y1 = round(float(rng.uniform(0, self.IMAGE[0] - bw)), 2), round(float(rng.uniform(0, self.IMAGE[1] - bh)), 2)
                track.append((f, (x1, y1, round(x1 + bw, 2), round(y1 + bh, 2))))
            boxes.extend((f, noun, box) for f, box in track)
            if t in ambiguous:  # a second same-noun box on one frame drops the whole track
                f = track[int(rng.integers(len(track)))][0]
                boxes.append((f, noun, (1.0, 1.0, 20.0, 20.0)))
            keep = int(rng.integers(2, self.BOXES_PER_TRACK + 1))
            if keep == self.BOXES_PER_TRACK:
                start = frames[-1] + int(rng.integers(1, 61))
            else:  # the segment starts inside the track, which is cut there
                start = int(rng.integers(frames[keep - 1] + 1, frames[keep] + 1))
            verb = self.verb_vocab[int(rng.integers(self.VERBS))]
            segments.append((video, start, start + int(rng.integers(10, 121)), verb, noun))
            later = start + int(rng.integers(1, 200))
            segments.append((video, later, later + 30, self.verb_vocab[int(rng.integers(self.VERBS))], noun))
            earlier = int(rng.integers(0, frames[0]))
            segments.append((video, earlier, earlier + 20, self.verb_vocab[int(rng.integers(self.VERBS))], noun))
            if t not in ambiguous:
                records.extend((video, f, box, noun, verb, (start - f) / self.FPS, "train")
                               for f, box in track[:keep])
        for noun in nouns[self.TRACKS:]:
            a = int(rng.integers(0, 3300))
            segments.append((video, a, a + 40, self.verb_vocab[int(rng.integers(self.VERBS))], noun))
        boxes.sort(key=lambda b: b[0])
        path = self.work / f"boxes-{video}.csv"
        path.write_text("video_id,frame,noun,x1,y1,x2,y2\n" + "".join(
            f"{video},{f},{noun},{b[0]!r},{b[1]!r},{b[2]!r},{b[3]!r}\n" for f, noun, b in boxes))
        self.box_paths.append(path)
        records.sort(key=lambda r: (r[0], r[1], r[3]))
        self.records.append(records)
        self.dropped.append({nouns[t] for t in ambiguous})
        return segments

    def setup(self) -> float:
        t0 = perf_counter()
        segments = formats.read_segments_csv(self.segment_path)
        elapsed = perf_counter() - t0
        self.state = segments
        return elapsed

    def run(self, k: int):
        v = k % self.VIDEOS
        clips = formats.read_clips(self.clip_paths[v])
        zones = affordance.build_zones(clips, affordance.descriptor_similarity_01, self.THETA, self.RECENT)
        formats.write_zone_db(self.zone_out[v], zones, self.noun_vocab, self.verb_vocab, self.THETA, self.RECENT)
        boxes = formats.read_boxes_csv(self.box_paths[v])
        records = curation.curate(boxes, self.state, fps=self.FPS)
        formats.write_sta_records(self.record_out[v], records)
        return zones, records

    def items(self, k: int) -> int:
        return self.CLIPS + self.TRACKS * self.BOXES_PER_TRACK + self.AMBIGUOUS

    def check(self, k: int, out) -> None:
        v = k % self.VIDEOS
        zones, records = out
        members = [m for z in zones for m in z.clip_ids]
        expect(len(members) == len(set(members)) and set(members) == set(self.clip_desc[v]),
               f"video {v}: zones do not partition the clips")
        expect([z.clip_ids for z in zones] == self.planted_zones[v], f"video {v}: zones differ from the planted ones")
        for z in zones:
            visual = np.mean([self.clip_desc[v][c][0] for c in z.clip_ids], axis=0)
            text = np.mean([self.clip_desc[v][c][1] for c in z.clip_ids], axis=0)
            expect_close(z.visual, visual, f"zone {z.zone_id} visual mean", EXACT_TOL)
            expect_close(z.text, text, f"zone {z.zone_id} text mean", EXACT_TOL)
        written = json.loads(self.zone_out[v].read_text())
        expect([z["clips"] for z in written["zones"]] == self.planted_zones[v], f"video {v}: written zones differ")
        got = [(r.video_id, r.frame, r.box, r.noun, r.verb, r.ttc, r.split) for r in records]
        expect(got == self.records[v], f"video {v}: curated records differ from the planted ones")
        expect(not {r.noun for r in records} & self.dropped[v], f"video {v}: an ambiguous track survived")
        lines = self.record_out[v].read_text().count("\n")
        expect(lines == len(records), f"video {v}: wrote {lines} records, curated {len(records)}")


class GradCheck:
    """Finite-difference gradient checks at the acceptance suite's sizes."""

    INSTANCES = 20
    OPS = ("mha", "frame_guided_pooling", "dual_attention")
    round_size = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.state = None

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        docs = []
        self.scalars = {}
        for i in range(self.INSTANCES):
            for op in self.OPS:
                if op == "dual_attention":
                    d, n = 6, 2
                    inputs = {}
                    for side in ("image", "video"):
                        inputs |= {f"{side}.tokens": rng.normal(size=(n, d)),
                                   f"{side}.class_token": rng.normal(size=d),
                                   f"{side}.positional": rng.normal(scale=0.2, size=(n + 1, d))}
                    weights = (_attention_json(_random_attention(rng, d, 2, 0.5), "image_branch.")
                               | _attention_json(_random_attention(rng, d, 2, 0.5), "video_branch.")
                               | _mlp_json(_random_mlp(rng, d, 12, 0.5), "mlp.image.")
                               | _mlp_json(_random_mlp(rng, d, 12, 0.5), "mlp.video."))
                else:
                    d, n = 8, 3
                    kv_rows = n + 1 if op == "mha" else 2 * n  # frame_guided_pooling: two frames of n tokens
                    inputs = {"queries": rng.normal(size=(n, d)), "keys_values": rng.normal(size=(kv_rows, d))}
                    weights = _attention_json(_random_attention(rng, d, 2, 0.5), "")
                self.scalars[(i, op)] = (sum(np.size(a) for a in inputs.values())
                                         + sum(m["rows"] * m["cols"] for m in weights.values()))
                docs.append({"op": op, "inputs": {k: _matrix(a) for k, a in inputs.items()}, "weights": weights})
        self.path = self.work / "instances.json"
        self.path.write_text(json.dumps({"instances": docs}))

    def setup(self) -> float:
        t0 = perf_counter()
        doc = formats.read_json(self.path)
        loaded = []
        for inst in doc["instances"]:
            m = {k: formats.matrix_from_json(v) for k, v in inst["inputs"].items()}
            w = inst["weights"]
            if inst["op"] == "dual_attention":
                sides = [attention.TokenBundle(m[f"{s}.tokens"], m[f"{s}.class_token"][0], m[f"{s}.positional"])
                         for s in ("image", "video")]
                weights = (formats.attention_weights_from_json(w, "image_branch."),
                           formats.attention_weights_from_json(w, "video_branch."),
                           attention.DualMlpWeights(image=formats.mlp_weights_from_json(w, "mlp.image."),
                                                    video=formats.mlp_weights_from_json(w, "mlp.video.")))
                loaded.append((tuple(sides), weights))
            else:
                loaded.append(((attention.TokenBundle(m["queries"]), attention.TokenBundle(m["keys_values"])),
                               formats.attention_weights_from_json(w)))
        elapsed = perf_counter() - t0
        self.state = loaded
        return elapsed

    def _pick(self, k: int) -> tuple[int, str]:
        return (k // len(self.OPS)) % self.INSTANCES, self.OPS[k % len(self.OPS)]

    def run(self, k: int):
        inputs, weights = self.state[k % (len(self.OPS) * self.INSTANCES)]
        return attention.grad_check(self._pick(k)[1], inputs, weights, 1e-5)

    def items(self, k: int) -> int:
        return self.scalars[self._pick(k)]

    def check(self, k: int, report) -> None:
        i, op = self._pick(k)
        expect(report.max_rel_error <= 1e-5, f"{op} instance {i}: max_rel_error {report.max_rel_error!r} "
                                             f"at {report.worst}")
        expect(report.params_checked == self.scalars[(i, op)],
               f"{op} instance {i}: checked {report.params_checked} scalars, instance has {self.scalars[(i, op)]}")


WORKLOADS = {"online": Online, "batch-eval": BatchEval, "ingest": Ingest, "gradcheck": GradCheck}
