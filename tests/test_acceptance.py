"""Acceptance suite: one pass/fail line per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to see the status lines.
Each test pins the tolerances the package promises; none of them may be
loosened without changing what the package claims to do.
"""

import functools
import time

import numpy as np

from stakit import attention as att
from stakit import curation as cur
from stakit import evaluation as ev
from stakit import formats
from stakit import hotspot as hs
from stakit.affordance import (DEFAULT_K, DEFAULT_WEIGHTED, CategoricalDistribution,
                               ClipRecord, KnnEntry, KnnResult, Zone, ZoneIndex,
                               affordance_distribution, build_zones, fuse_distributions)
from stakit.attention import (GRAD_CHECK_OPS, AttentionWeights, DualMlpWeights,
                              MlpWeights, TokenBundle, grad_check, random_instance)
from stakit.curation import ActionSegment, BoxAnnotation
from stakit.evaluation import GroundTruth
from stakit.hotspot import Detection, HotspotMap

from helpers import loop_evaluate, vote_prior
from test_evaluation import as_tuples, criteria_tuples
from test_evaluation import random_instance as random_eval_instance


def criterion(number, label):
    """Print one machine-greppable status line per acceptance check."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] {label}: FAIL")
                raise
            print(f"[criterion {number}] {label}: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. attention operator gradients


@criterion(1, "attention gradients match central differences")
def test_criterion_01_gradient_fidelity():
    start = time.perf_counter()
    for op in GRAD_CHECK_OPS:
        for seed in range(20):
            if op == "dual_attention":
                inputs, weights = random_instance(op, seed, d_model=6, heads=2,
                                                  n_tokens=2, mlp_hidden=12)
            else:
                inputs, weights = random_instance(op, seed)
            report = grad_check(op, inputs, weights, epsilon=1e-5)
            assert report.max_rel_error <= 1e-5, (op, seed, report.worst,
                                                  report.max_rel_error)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"gradient checks took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. residual identities


@criterion(2, "zero-value residual identities and stochastic rows")
def test_criterion_02_residual_identities():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = TokenBundle(rng.normal(size=(3, 4)))
        kv = TokenBundle(rng.normal(size=(5, 4)))
        w = AttentionWeights.random(rng, 4, 2)

        out, maps = att.mha_with_maps(q, kv, w.with_zero_values())
        assert out.tokens.shape == q.tokens.shape
        assert np.max(np.abs(out.tokens - q.tokens)) <= 1e-12
        for m in maps:
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12

        last = TokenBundle(rng.normal(size=(2, 4)))
        video = TokenBundle(rng.normal(size=(6, 4)))
        pooled, pool_maps = att.frame_guided_pooling_with_maps(
            last, video, w.with_zero_values())
        assert pooled.tokens.shape == last.tokens.shape
        assert np.max(np.abs(pooled.tokens - last.tokens)) <= 1e-12
        for m in pool_maps:
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12

        image = TokenBundle(rng.normal(size=(2, 4)), class_token=rng.normal(size=4))
        clip = TokenBundle(rng.normal(size=(2, 4)), class_token=rng.normal(size=4))
        zero_mlp = DualMlpWeights(image=MlpWeights.zeros(4), video=MlpWeights.zeros(4))
        out_i, out_v = att.dual_attention(
            image, clip,
            AttentionWeights.random(rng, 4, 2).with_zero_values(),
            AttentionWeights.random(rng, 4, 2).with_zero_values(),
            zero_mlp)
        assert out_i.tokens.shape == image.tokens.shape
        assert out_v.tokens.shape == clip.tokens.shape
        assert np.max(np.abs(out_i.tokens - image.tokens)) <= 1e-12
        assert np.max(np.abs(out_i.class_token - image.class_token)) <= 1e-12
        assert np.max(np.abs(out_v.tokens - clip.tokens)) <= 1e-12
        assert np.max(np.abs(out_v.class_token - clip.class_token)) <= 1e-12

        live_mlp = DualMlpWeights(image=MlpWeights.random(rng, 4),
                                  video=MlpWeights.random(rng, 4))
        _, _, dual_maps = att.dual_attention_with_maps(
            image, clip, AttentionWeights.random(rng, 4, 2),
            AttentionWeights.random(rng, 4, 2), live_mlp)
        for side in ("image_queries", "video_queries"):
            for m in dual_maps[side]:
                assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# 3. affordance prior


@criterion(3, "affordance prior matches brute-force voting")
def test_criterion_03_affordance_prior_oracle():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n_zones = int(rng.integers(1, 7))
        n_labels = int(rng.integers(1, 6))
        vocab = [f"l{i}" for i in range(n_labels)]
        zones = [Zone(zone_id=f"z{i}", clip_ids=(f"c{i}",),
                      nouns=frozenset(v for v in vocab if rng.random() < 0.5),
                      verbs=frozenset(), visual=rng.normal(size=3), text=None)
                 for i in range(n_zones)]
        k = int(rng.integers(1, n_zones + 1))
        sims = np.sort(rng.random(2 * k))[::-1]
        ids = [f"z{int(rng.integers(n_zones))}" for _ in range(2 * k)]
        entries = [KnnEntry(ids[i], float(sims[i]), "visual") for i in range(k)]
        entries += [KnnEntry(ids[k + i], float(sims[k + i]), "text") for i in range(k)]
        knn = KnnResult(k=k, entries=entries)
        weighted = bool(rng.integers(2))
        dist = affordance_distribution(knn, ZoneIndex(zones), vocab, weighted=weighted)
        expected = vote_prior([(e.zone_id, e.similarity) for e in entries],
                              {z.zone_id: z.nouns for z in zones}, vocab, weighted)
        assert np.max(np.abs(dist.p - np.array(expected))) <= 1e-12

    # two-zone worked example: retrieved at similarity 0.8 and 0.5
    zones = [Zone("Z1", ("a",), frozenset({"knife", "plate"}), frozenset(),
                  np.array([1.0, 0.0]), None),
             Zone("Z2", ("b",), frozenset({"plate"}), frozenset(),
                  np.array([0.0, 1.0]), None)]
    knn = KnnResult(k=1, entries=[KnnEntry("Z1", 0.8, "visual"),
                                  KnnEntry("Z2", 0.5, "text")])
    dist = affordance_distribution(knn, ZoneIndex(zones), ["knife", "plate", "cup"])
    for got, want in zip(dist.p, (0.3228, 0.5322, 0.1450)):
        assert abs(got - want) < 1e-4


# ---------------------------------------------------------------------------
# 4. fusion


@criterion(4, "fusion identity, rescaling invariance, worked example")
def test_criterion_04_fusion_properties():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        predicted = CategoricalDistribution.from_scores(rng.random(n) + 0.05)
        fused = fuse_distributions(CategoricalDistribution.uniform(n), predicted)
        assert np.max(np.abs(fused.p - predicted.p)) <= 1e-12

        scores = rng.random(n) + 0.05
        scale = float(rng.uniform(0.1, 50.0))
        a = fuse_distributions(CategoricalDistribution.from_scores(scores), predicted)
        b = fuse_distributions(CategoricalDistribution.from_scores(scores * scale),
                               predicted)
        assert np.max(np.abs(a.p - b.p)) <= 1e-12

    prior = CategoricalDistribution(np.array([0.5, 0.3, 0.2]))
    predicted = CategoricalDistribution(np.array([0.2, 0.5, 0.3]))
    fused = fuse_distributions(prior, predicted)
    for got, want in zip(fused.p, (0.3226, 0.4839, 0.1935)):
        assert abs(got - want) < 1e-4


# ---------------------------------------------------------------------------
# 5. top-5 mAP


def _perfect_pair():
    gts = [GroundTruth("img0", (0.0, 0.0, 10.0, 10.0), "cup", "take", 1.0),
           GroundTruth("img1", (5.0, 5.0, 20.0, 20.0), "plate", "wash", 0.5)]
    dets = [Detection(g.uid, g.box, g.noun, g.verb, g.ttc, 0.9) for g in gts]
    return dets, gts


@criterion(5, "top-5 mAP matches the brute-force reference")
def test_criterion_05_map_engine():
    dets, gts = _perfect_pair()
    maps = ev.evaluate(dets, gts).maps
    assert maps == {"noun": 1.0, "noun_verb": 1.0, "noun_ttc": 1.0, "overall": 1.0}

    wrong_verb = [Detection(d.uid, d.box, d.noun, "poke", d.ttc, d.score) for d in dets]
    maps = ev.evaluate(wrong_verb, gts).maps
    assert maps["noun"] == 1.0 and maps["noun_ttc"] == 1.0
    assert maps["noun_verb"] == 0.0 and maps["overall"] == 0.0

    criteria = ev.standard_criteria()
    rng = np.random.default_rng(5)
    for trial in range(200):
        rand_dets, rand_gts = random_eval_instance(rng, quantize=bool(trial % 2))
        report = ev.evaluate(rand_dets, rand_gts, criteria)
        det_t, gt_t = as_tuples(rand_dets, rand_gts)
        per_class, ref_maps = loop_evaluate(det_t, gt_t, criteria_tuples(criteria),
                                            top_k=5)
        assert report.maps == ref_maps
        assert report.per_class == per_class

    for _ in range(100):
        rand_dets, rand_gts = random_eval_instance(rng)
        maps = ev.evaluate(rand_dets, rand_gts).maps
        assert maps["overall"] <= maps["noun_verb"] + 1e-15
        assert maps["noun_verb"] <= maps["noun"] + 1e-15
        assert maps["noun_ttc"] <= maps["noun"] + 1e-15


# ---------------------------------------------------------------------------
# 6. relative gain


@criterion(6, "report diff reproduces the headline relative gain")
def test_criterion_06_relative_gain():
    a = ev.EvalReport(maps={"overall": 3.77}, per_class={}, counts={})
    b = ev.EvalReport(maps={"overall": 2.60}, per_class={}, counts={})
    row = ev.diff_reports(a, b)[0]
    assert row["gain_defined"]
    assert abs(row["relative_gain_pct"] - 45.0) < 0.05


# ---------------------------------------------------------------------------
# 7. hotspot reweighting


@criterion(7, "hotspot reweighting preserves uniform-map rankings")
def test_criterion_07_hotspot_reweighting():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        hmap = HotspotMap.uniform("img0", h, w)
        dets = []
        for _ in range(int(rng.integers(1, 8))):
            x, y = rng.uniform(0, w, size=2)
            dets.append(Detection("img0", (x, y, x + 1.0, y + 1.0), 0, 0,
                                  1.0, float(rng.random())))
        out = hs.reweight(dets, {"img0": hmap})
        before = np.argsort([-d.score for d in dets], kind="stable")
        after = np.argsort([-d.score for d in out], kind="stable")
        assert np.array_equal(before, after)

    assert 0.8 * 0.02 == 0.016
    hmap = HotspotMap("img0", np.array([[0.02, 0.49, 0.49]]))
    det = Detection("img0", (0.0, 0.0, 1.0, 1.0), 0, 0, 1.0, 0.8)
    assert hs.reweight([det], {"img0": hmap})[0].score == 0.016


# ---------------------------------------------------------------------------
# 8. zone clustering


def _random_clips(rng):
    clips = []
    for v in range(int(rng.integers(1, 4))):
        for i in range(int(rng.integers(1, 9))):
            clips.append(ClipRecord(clip_id=f"v{v}c{i}", visual=rng.normal(size=3),
                                    text=None, nouns=frozenset({"cup"}),
                                    verbs=frozenset({"take"}), video_id=f"v{v}",
                                    frame_index=i))
    return clips


@criterion(8, "zone clustering partitions clips deterministically")
def test_criterion_08_zone_clustering():
    rng = np.random.default_rng(8)
    for _ in range(50):
        clips = _random_clips(rng)
        theta = float(rng.uniform(0.1, 0.9))
        recent = int(rng.integers(1, 6))

        def same_zone(a, b):
            return 0.5 * (1.0 + float(np.dot(a.visual, b.visual))
                          / (np.linalg.norm(a.visual) * np.linalg.norm(b.visual)))

        zones = build_zones(clips, same_zone, theta, recent)
        members = [cid for z in zones for cid in z.clip_ids]
        assert sorted(members) == sorted(c.clip_id for c in clips)
        assert len(members) == len(set(members))
        again = build_zones(clips, same_zone, theta, recent)
        assert [z.clip_ids for z in again] == [z.clip_ids for z in zones]

    # one pair above threshold, the third clip on its own
    table = {frozenset({"c1", "c2"}): 0.9,
             frozenset({"c1", "c3"}): 0.1,
             frozenset({"c2", "c3"}): 0.1}
    clips = [ClipRecord(cid, np.zeros(2), None, frozenset({"cup"}),
                        frozenset({"take"}), "v", i)
             for i, cid in enumerate(["c1", "c2", "c3"])]
    zones = build_zones(clips, lambda a, b: table[frozenset({a.clip_id, b.clip_id})],
                        theta=0.5)
    assert [set(z.clip_ids) for z in zones] == [{"c1", "c2"}, {"c3"}]


# ---------------------------------------------------------------------------
# 9. curation


GOLDEN_RECORDS = (
    '{"uid": "v01_0000020", "video": "v01", "frame": 20, "box": [0.0, 0.0, 10.0, 10.0],'
    ' "noun": "plate", "verb": "take", "ttc": 1.0, "split": "train"}\n'
    '{"uid": "v01_0000035", "video": "v01", "frame": 35, "box": [1.0, 1.0, 11.0, 11.0],'
    ' "noun": "plate", "verb": "take", "ttc": 0.5, "split": "train"}\n'
    '{"uid": "v01_0000100", "video": "v01", "frame": 100, "box": [2.0, 2.0, 12.0, 12.0],'
    ' "noun": "plate", "verb": "wash", "ttc": 1.0, "split": "train"}\n'
)


def _golden_annotations():
    def b(frame, noun, off):
        return BoxAnnotation("v01", frame, noun, (off, off, off + 10.0, off + 10.0))
    boxes = [b(20, "plate", 0.0), b(35, "plate", 1.0), b(100, "plate", 2.0),
             b(30, "cup", 3.0), b(30, "cup", 4.0), b(40, "knife", 5.0)]
    segments = [ActionSegment("v01", 50, 80, "take", "plate"),
                ActionSegment("v01", 130, 160, "wash", "plate")]
    return boxes, segments


@criterion(9, "curation reproduces the golden record file")
def test_criterion_09_curation(tmp_path):
    boxes, segments = _golden_annotations()
    records = cur.curate(boxes, segments)
    out = tmp_path / "records.jsonl"
    formats.write_sta_records(out, records)
    assert out.read_bytes() == GOLDEN_RECORDS.encode()

    rng = np.random.default_rng(9)
    nouns = ["cup", "plate", "pan"]
    for _ in range(100):
        fuzz_boxes, fuzz_segments = [], []
        for v in range(int(rng.integers(1, 3))):
            video = f"v{v}"
            for _ in range(int(rng.integers(1, 12))):
                off = float(rng.uniform(0, 5))
                fuzz_boxes.append(BoxAnnotation(video, int(rng.integers(0, 200)),
                                                str(rng.choice(nouns)),
                                                (off, off, off + 10.0, off + 10.0)))
            for _ in range(int(rng.integers(0, 4))):
                start = int(rng.integers(1, 250))
                fuzz_segments.append(ActionSegment(video, start,
                                                   start + int(rng.integers(1, 40)),
                                                   str(rng.choice(["take", "wash"])),
                                                   str(rng.choice(nouns))))
        for record in cur.curate(fuzz_boxes, fuzz_segments):
            assert record.ttc > 0


# ---------------------------------------------------------------------------
# 10. defaults


@criterion(10, "retrieval defaults: K=4, similarity-weighted voting")
def test_criterion_10_defaults():
    assert DEFAULT_K == 4
    assert DEFAULT_WEIGHTED is True
