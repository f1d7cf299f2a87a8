"""Seeded synthetic end-to-end run: zones, priors, hotspots, evaluation.

Everything is driven by one RNG seed, so two runs with the same seed
write byte-identical artifacts and print the same report.  The demo is
plumbing for the CLI and the test suite, not a model.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import formats
from .affordance import (DEFAULT_K, DEFAULT_RECENT, DEFAULT_THETA, DEFAULT_WEIGHTED,
                         affordance_distribution, apply_affordance_to_detections, build_zones,
                         descriptor_similarity_01, knn_query, ClipRecord, ZoneIndex)
from .evaluation import GroundTruth, evaluate, standard_criteria
from .hotspot import Detection, Detections, reweight, synth_gaussian_map
from .linalg import softmax_rows

NOUNS = ["knife", "plate", "cup", "pan", "sponge", "kettle"]
VERBS = ["take", "cut", "wash", "pour"]
FRAME = 64  # synthetic image side, pixels
DESCRIPTOR_DIM = 8
N_VIDEOS = 3
CLIPS_PER_VIDEO = 6
N_IMAGES = 6
ORDERS = ("fuse-first", "reweight-first")


def _synth_clips(rng: np.random.Generator, n_videos: int, per_video: int) -> list[ClipRecord]:
    clips = []
    for v in range(n_videos):
        # two antipodal descriptor clusters per video, so zone building
        # separates them at any reasonable threshold
        first = rng.normal(size=DESCRIPTOR_DIM)
        first /= np.sqrt(first @ first)
        anchors = np.stack([first, -first])
        for i in range(per_video):
            anchor = anchors[rng.integers(2)]
            visual = anchor + rng.normal(scale=0.15, size=DESCRIPTOR_DIM)
            nouns = rng.choice(len(NOUNS), size=rng.integers(1, 4), replace=False)
            verbs = rng.choice(len(VERBS), size=rng.integers(1, 3), replace=False)
            clips.append(ClipRecord(
                clip_id=f"v{v:02d}c{i:02d}",
                visual=visual,
                text=visual + rng.normal(scale=0.05, size=DESCRIPTOR_DIM),
                nouns=frozenset(NOUNS[j] for j in nouns),
                verbs=frozenset(VERBS[j] for j in verbs),
                video_id=f"v{v:02d}",
                frame_index=i * 30,
            ))
    return clips


def _synth_image(rng: np.random.Generator, uid: str):
    gts = []
    for _ in range(int(rng.integers(1, 3))):
        w, h = rng.uniform(8, 20, size=2)
        x1 = rng.uniform(0, FRAME - w)
        y1 = rng.uniform(0, FRAME - h)
        gts.append(GroundTruth(
            uid=uid,
            box=(x1, y1, x1 + w, y1 + h),
            noun=int(rng.integers(len(NOUNS))),
            verb=int(rng.integers(len(VERBS))),
            ttc=float(rng.uniform(0.3, 2.0)),
        ))
    dets = []
    for gt in gts:
        # a near-hit and a competitor per annotation
        for jitter, label_ok in ((1.0, True), (6.0, False)):
            x1, y1, x2, y2 = (c + rng.normal(scale=jitter) for c in gt.box)
            if x1 >= x2 or y1 >= y2:
                x1, y1, x2, y2 = gt.box
            noun = gt.noun if label_ok else int(rng.integers(len(NOUNS)))
            verb = gt.verb if label_ok else int(rng.integers(len(VERBS)))
            noun_logits = rng.normal(scale=0.5, size=len(NOUNS))
            noun_logits[noun] += 2.5
            verb_logits = rng.normal(scale=0.5, size=len(VERBS))
            verb_logits[verb] += 2.5
            dets.append(Detection(
                uid=uid,
                box=(x1, y1, x2, y2),
                noun=noun,
                verb=verb,
                ttc=float(max(0.05, gt.ttc + rng.normal(scale=0.1))),
                score=float(rng.uniform(0.2, 0.95)),
                noun_probs=softmax_rows(noun_logits[None])[0],
                verb_probs=softmax_rows(verb_logits[None])[0],
            ))
    centers = [(0.5 * (g.box[0] + g.box[2]) + rng.normal(scale=1.0),
                0.5 * (g.box[1] + g.box[3]) + rng.normal(scale=1.0),
                float(rng.uniform(3.0, 8.0))) for g in gts]
    hmap = synth_gaussian_map(uid, FRAME, FRAME, centers)
    return gts, dets, hmap


def run_synth_demo(seed: int, out_dir, *, k: int = DEFAULT_K, weighted: bool = DEFAULT_WEIGHTED,
                   theta: float = DEFAULT_THETA, top_k: int = 5, order: str = "fuse-first"):
    """Generate a synthetic scenario, run the full pipeline, return the report.

    order controls whether affordance fusion runs before hotspot
    re-weighting ("fuse-first", the default) or after ("reweight-first").
    """
    if order not in ORDERS:
        raise ValueError(f"order must be 'fuse-first' or 'reweight-first', got {order!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    clips = _synth_clips(rng, N_VIDEOS, CLIPS_PER_VIDEO)
    zones = ZoneIndex(build_zones(clips, descriptor_similarity_01, theta, DEFAULT_RECENT))

    all_gts: list[GroundTruth] = []
    raw_dets: list[Detection] = []
    maps = {}
    queries = {}
    for i in range(N_IMAGES):
        uid = f"img{i:03d}"
        gts, dets, hmap = _synth_image(rng, uid)
        all_gts.extend(gts)
        raw_dets.extend(dets)
        maps[uid] = hmap
        anchor = zones[int(rng.integers(len(zones)))]
        queries[uid] = anchor.visual + rng.normal(scale=0.1, size=DESCRIPTOR_DIM)

    k_eff = min(k, len(zones))  # tiny synthetic databases stay queryable

    def fuse_stage(dets: Detections) -> Detections:
        refined = []
        for uid in sorted(set(dets.uids)):
            knn = knn_query(queries[uid], zones, k_eff)
            prior_nouns = affordance_distribution(knn, zones, NOUNS, "noun", weighted)
            prior_verbs = affordance_distribution(knn, zones, VERBS, "verb", weighted)
            rows = [d for d in dets if d.uid == uid]
            refined.extend(apply_affordance_to_detections(rows, prior_nouns, prior_verbs))
        return Detections.of(refined)

    raw = Detections.of(raw_dets)
    if order == "fuse-first":
        final = reweight(fuse_stage(raw), maps)
    else:
        final = fuse_stage(reweight(raw, maps))

    report = evaluate(final, all_gts, standard_criteria(), top_k=top_k)

    formats.write_clips(out / "clips.jsonl", clips)
    formats.write_zone_db(out / "zones.json", zones, NOUNS, VERBS, theta, DEFAULT_RECENT)
    formats.write_ground_truth(out / "gt.jsonl", all_gts)
    formats.write_detections(out / "detections.jsonl", raw)
    formats.write_detections(out / "refined.jsonl", final)
    formats.write_hotspot_maps(out / "maps.jsonl", maps)
    formats.write_eval_report(out / "report.json", report)
    return report
