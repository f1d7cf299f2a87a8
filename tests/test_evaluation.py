"""Top-5 mAP engine tests: fixtures, brute-force equivalence, invariants."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import evaluation as ev
from stakit.evaluation import GroundTruth, MatchCriterion
from stakit.hotspot import Detection, Detections

from helpers import accepts, loop_evaluate, loop_iou

NAMES = ("noun", "noun_verb", "noun_ttc", "overall")


def det(uid, box, noun, verb, ttc, score):
    return Detection(uid=uid, box=box, noun=noun, verb=verb, ttc=ttc, score=score)


def gt(uid, box, noun, verb, ttc):
    return GroundTruth(uid=uid, box=box, noun=noun, verb=verb, ttc=ttc)


def criteria_tuples(criteria, iou_threshold=0.5, ttc_tolerance=0.25):
    return [(c.name, iou_threshold, c.require_verb, c.require_ttc, ttc_tolerance)
            for c in criteria]


def random_instance(rng, n_images=3, max_gt=3, max_dets=5, quantize=False):
    """Random detections/ground truth over a tiny label space."""
    dets, gts = [], []
    nouns = [0, 1, 2]
    verbs = ["take", "cut"]
    for i in range(n_images):
        uid = f"img{i}"
        for _ in range(int(rng.integers(1, max_gt + 1))):
            x, y = rng.uniform(0, 20, size=2)
            w, h = rng.uniform(2, 10, size=2)
            gts.append(gt(uid, (x, y, x + w, y + h), int(rng.choice(nouns)),
                          str(rng.choice(verbs)), float(rng.uniform(0.3, 2.0))))
        for _ in range(int(rng.integers(0, max_dets + 1))):
            x, y = rng.uniform(0, 20, size=2)
            w, h = rng.uniform(2, 10, size=2)
            score = float(rng.integers(1, 11)) / 10.0 if quantize else float(rng.uniform(0.05, 1.0))
            dets.append(det(uid, (x, y, x + w, y + h), int(rng.choice(nouns)),
                            str(rng.choice(verbs)), float(rng.uniform(0.3, 2.0)), score))
        # sprinkle near-duplicates of ground truth so matches actually occur
        for g in gts:
            if g.uid == uid and rng.random() < 0.6:
                x1, y1, x2, y2 = g.box
                dx = float(rng.uniform(-1.5, 1.5))
                score = float(rng.integers(1, 11)) / 10.0 if quantize else float(rng.uniform(0.05, 1.0))
                ttc = max(0.05, g.ttc + float(rng.uniform(-0.4, 0.4)))
                dets.append(det(uid, (x1 + dx, y1, x2 + dx, y2),
                                g.noun if rng.random() < 0.8 else int(rng.choice(nouns)),
                                g.verb if rng.random() < 0.7 else str(rng.choice(verbs)),
                                ttc, score))
    return dets, gts


# ---------------------------------------------------------------------------
# box overlap, seen through evaluate


def noun_map(det_box, gt_box, iou_threshold):
    """The noun mAP of one detection against one same-class ground truth: 1.0 if they match, else 0.0."""
    report = ev.evaluate([det("u", det_box, 0, "take", 1.0, 0.9)], [gt("u", gt_box, 0, "take", 1.0)],
                         iou_threshold=iou_threshold)
    return report.maps["noun"]


def test_identical_boxes_match_at_threshold_one():
    assert noun_map((0, 0, 10, 10), (0, 0, 10, 10), 1.0) == 1.0


def test_disjoint_boxes_never_match():
    # apart on both axes, the negative width times the negative height is a positive product
    assert noun_map((0, 0, 10, 10), (11, 11, 12, 12), np.nextafter(0.0, 1.0)) == 0.0


def test_half_overlap_matches_at_one_third_exactly():
    assert noun_map((0, 0, 10, 10), (5, 0, 15, 10), 1.0 / 3.0) == 1.0
    assert noun_map((0, 0, 10, 10), (5, 0, 15, 10), np.nextafter(1.0 / 3.0, 1.0)) == 0.0


def test_overlap_is_symmetric_and_the_threshold_is_inclusive():
    rng = np.random.default_rng(80)
    for _ in range(20):
        x1, x2 = np.sort(rng.uniform(0, 10, 2))
        y1, y2 = np.sort(rng.uniform(0, 10, 2))
        a = (x1, y1, x2, y2)
        x1, x2 = np.sort(rng.uniform(0, 10, 2))
        y1, y2 = np.sort(rng.uniform(0, 10, 2))
        b = (x1, y1, x2, y2)
        overlap = loop_iou(a, b)
        if overlap == 0.0:
            assert noun_map(a, b, np.nextafter(0.0, 1.0)) == noun_map(b, a, np.nextafter(0.0, 1.0)) == 0.0
            continue
        assert noun_map(a, b, overlap) == noun_map(b, a, overlap) == 1.0
        assert noun_map(a, b, np.nextafter(overlap, 1.0)) == noun_map(b, a, np.nextafter(overlap, 1.0)) == 0.0


# ---------------------------------------------------------------------------
# criteria


def test_standard_criteria_names_and_conditions():
    crits = ev.standard_criteria()
    assert [c.name for c in crits] == list(NAMES)
    assert not crits[0].require_verb and not crits[0].require_ttc
    assert crits[1].require_verb and not crits[1].require_ttc
    assert not crits[2].require_verb and crits[2].require_ttc
    assert crits[3].require_verb and crits[3].require_ttc


def test_criterion_ttc_boundary_is_inclusive():
    c = MatchCriterion("x", require_ttc=True)
    d = det("u", (0, 0, 1, 1), 0, "take", 1.25, 0.5)
    g = gt("u", (0, 0, 1, 1), 0, "take", 1.0)
    assert accepts(c, d, g, 0.25)
    d_late = det("u", (0, 0, 1, 1), 0, "take", 1.2500001, 0.5)
    assert not accepts(c, d_late, g, 0.25)
    assert [ev.evaluate([p], [g], [c]).maps["x"] for p in (d, d_late)] == [1.0, 0.0]


def test_criterion_holds_elementwise_as_accepts_does_pair_by_pair():
    verb_ok, ttc_ok = np.array([True, True, False, False]), np.array([True, False, True, False])
    for crit in ev.standard_criteria():
        want = [crit.holds(bool(v), bool(t)) for v, t in zip(verb_ok, ttc_ok)]
        assert crit.holds(verb_ok, ttc_ok).tolist() == want
        g = gt("u", (0, 0, 1, 1), 0, "take", 1.0)
        assert [accepts(crit, det("u", (0, 0, 1, 1), 0, "take" if v else "cut", 1.0 if t else 2.0, 0.5), g, 0.25)
                for v, t in zip(verb_ok, ttc_ok)] == want
    assert [crit.holds(True, False) for crit in ev.standard_criteria()] == [True, True, False, False]


def test_criterion_validation():
    # the IoU threshold and ttc tolerance are checked where they are set: once per evaluation
    gts = [gt("img0", (0, 0, 10, 10), 0, "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), 0, "take", 1.0, 0.5)]
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="iou_threshold"):
            ev.evaluate(dets, gts, iou_threshold=bad)
    for bad in (0.0, -0.25, np.nan):
        with pytest.raises(ValueError, match="ttc_tolerance"):
            ev.evaluate(dets, gts, ttc_tolerance=bad)


# ---------------------------------------------------------------------------
# fixtures


def test_perfect_prediction_scores_one_everywhere():
    gts = [gt("img0", (0, 0, 10, 10), "knife", "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), "knife", "take", 1.0, 0.9)]
    report = ev.evaluate(dets, gts)
    for name in NAMES:
        assert report.maps[name] == 1.0


def test_wrong_verb_decomposes_cleanly():
    gts = [gt("img0", (0, 0, 10, 10), "knife", "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), "knife", "cut", 1.0, 0.9)]
    report = ev.evaluate(dets, gts)
    assert report.maps["noun"] == 1.0
    assert report.maps["noun_ttc"] == 1.0
    assert report.maps["noun_verb"] == 0.0
    assert report.maps["overall"] == 0.0


def test_wrong_ttc_decomposes_cleanly():
    gts = [gt("img0", (0, 0, 10, 10), "knife", "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), "knife", "take", 2.0, 0.9)]
    report = ev.evaluate(dets, gts)
    assert report.maps["noun"] == 1.0
    assert report.maps["noun_verb"] == 1.0
    assert report.maps["noun_ttc"] == 0.0
    assert report.maps["overall"] == 0.0


def test_class_with_no_predictions_scores_zero_and_counts():
    gts = [gt("img0", (0, 0, 10, 10), "knife", "take", 1.0),
           gt("img0", (20, 20, 30, 30), "plate", "wash", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), "knife", "take", 1.0, 0.9)]
    report = ev.evaluate(dets, gts)
    assert report.per_class["noun"]["knife"] == 1.0
    assert report.per_class["noun"]["plate"] == 0.0
    assert report.maps["noun"] == 0.5


def test_predicted_class_without_ground_truth_is_ignored():
    gts = [gt("img0", (0, 0, 10, 10), "knife", "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), "knife", "take", 1.0, 0.9)]
    ghost = dets + [det("img0", (50, 50, 60, 60), "ghost", "cut", 1.0, 0.99)]
    a = ev.evaluate(dets, gts)
    b = ev.evaluate(ghost, gts)
    assert a.maps == b.maps
    assert "ghost" not in b.per_class["noun"]


def test_top_k_cut_drops_low_scores():
    gts = [gt("img0", (0, 0, 10, 10), 0, "take", 1.0)]
    wrong = [det("img0", (30 + i, 30, 40 + i, 40), 0, "take", 1.0, 0.9 - i * 0.1)
             for i in range(5)]
    right = [det("img0", (0, 0, 10, 10), 0, "take", 1.0, 0.1)]
    report5 = ev.evaluate(wrong + right, gts, top_k=5)
    assert report5.maps["noun"] == 0.0
    assert report5.counts["predictions_kept"] == 5
    report6 = ev.evaluate(wrong + right, gts, top_k=6)
    assert abs(report6.maps["noun"] - 1.0 / 6.0) < 1e-12


def test_top_k_ties_break_toward_input_order():
    gts = [gt("img0", (0, 0, 10, 10), 0, "take", 1.0)]
    right = det("img0", (0, 0, 10, 10), 0, "take", 1.0, 0.5)
    wrong = [det("img0", (30 + i, 30, 40 + i, 40), 0, "take", 1.0, 0.5) for i in range(5)]
    report = ev.evaluate([right] + wrong, gts, top_k=5)
    assert report.maps["noun"] == 1.0  # the correct one came first, so it survived
    report = ev.evaluate(wrong + [right], gts, top_k=5)
    assert report.maps["noun"] == 0.0  # now it was sixth in line


def test_evaluate_validates_inputs():
    gts = [gt("img0", (0, 0, 10, 10), 0, "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), 0, "take", 1.0, 0.5)]
    with pytest.raises(ValueError, match="ground truth is empty"):
        ev.evaluate(dets, [])
    with pytest.raises(ValueError, match="top_k"):
        ev.evaluate(dets, gts, top_k=0)
    with pytest.raises(ValueError, match="unknown image"):
        ev.evaluate([det("mystery", (0, 0, 1, 1), 0, "take", 1.0, 0.5)], gts)
    with pytest.raises(ValueError, match="unique"):
        ev.evaluate(dets, gts, [MatchCriterion("a"), MatchCriterion("a")])
    with pytest.raises(ValueError, match="at least one criterion"):
        ev.evaluate(dets, gts, [])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ground_truth_rejects_non_finite_ttc(bad):
    # a NaN ttc would pass every ttc tolerance: abs(nan - 1.0) > tol is False
    with pytest.raises(ValueError, match="finite and positive"):
        gt("img0", (0, 0, 10, 10), 0, "take", bad)
    with pytest.raises(ValueError, match="finite and positive"):
        det("img0", (0, 0, 10, 10), 0, "take", bad, 0.5)


@pytest.mark.parametrize("box", [(0, 0, np.inf, np.inf), (-np.inf, 0, 10, 10), (0, np.nan, 10, 10)])
def test_ground_truth_and_detection_reject_non_finite_box(box):
    # an infinite box has IoU NaN with everything, so it would silently never match
    with pytest.raises(ValueError, match="finite"):
        gt("img0", box, 0, "take", 1.0)
    with pytest.raises(ValueError, match="finite"):
        det("img0", box, 0, "take", 1.0, 0.5)


GT_FIELD_CHANGES = {"uid": "img9", "box": (3.0, 0.0, 1.0, 1.0), "noun": "cup", "verb": "cut", "ttc": -3.0}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(GroundTruth)])
def test_ground_truth_row_is_frozen_and_holds_its_own_corners(field):
    corners = [0.0, 0.0, 10.0, 10.0]
    row = gt("img0", corners, "knife", "take", 1.0)
    corners[2] = -5.0  # the row holds its own copy of the corners it checked
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(row, field, GT_FIELD_CHANGES[field])
    assert row == gt("img0", (0.0, 0.0, 10.0, 10.0), "knife", "take", 1.0)
    report = ev.evaluate([det("img0", (0, 0, 10, 10), "knife", "take", 1.0, 0.9)], [row])
    assert all(report.maps[name] == 1.0 for name in NAMES)


# ---------------------------------------------------------------------------
# greedy assignment; the verb shows which ground truth a detection took


def test_tie_in_iou_goes_to_the_earlier_ground_truth():
    gts = [gt("u", (0, 0, 10, 10), 0, "take", 1.0), gt("u", (0, 0, 10, 10), 0, "cut", 1.0)]
    maps = ev.evaluate([det("u", (0, 0, 10, 10), 0, "take", 1.0, 0.9)], gts).maps
    assert (maps["noun"], maps["noun_verb"]) == (0.5, 0.5)


def test_higher_iou_wins_over_the_earlier_ground_truth():
    gts = [gt("u", (0, 0, 10, 10), 0, "cut", 1.0), gt("u", (2, 0, 12, 10), 0, "take", 1.0)]
    maps = ev.evaluate([det("u", (2, 0, 12, 10), 0, "take", 1.0, 0.9)], gts).maps
    assert (maps["noun"], maps["noun_verb"]) == (0.5, 0.5)


def test_ground_truth_is_used_up_in_score_order():
    g0 = gt("u", (0, 0, 10, 10), 0, "take", 1.0)
    second = det("u", (0, 0, 10, 10), 0, "cut", 1.0, 0.5)  # listed first, but scored lower
    best = det("u", (1, 0, 11, 10), 0, "take", 1.0, 0.9)
    maps = ev.evaluate([second, best], [g0]).maps
    assert (maps["noun"], maps["noun_verb"]) == (1.0, 1.0)


def test_no_match_below_the_threshold():
    g0 = gt("u", (0, 0, 10, 10), 0, "take", 1.0)
    weak = det("u", (8, 8, 18, 18), 0, "take", 1.0, 0.9)
    assert ev.evaluate([weak], [g0], iou_threshold=0.5).maps["noun"] == 0.0
    assert ev.evaluate([weak], [g0], iou_threshold=4.0 / 196.0).maps["noun"] == 1.0


# ---------------------------------------------------------------------------
# brute-force equivalence and structural invariants


def as_tuples(dets, gts):
    det_t = [(d.uid, d.box, d.noun, d.verb, d.ttc, d.score) for d in dets]
    gt_t = [(g.uid, g.box, g.noun, g.verb, g.ttc) for g in gts]
    return det_t, gt_t


@pytest.mark.parametrize("iou_threshold, ttc_tolerance", [(0.5, 0.25), (0.3, 0.1)])
def test_evaluate_matches_brute_force_oracle(iou_threshold, ttc_tolerance):
    rng = np.random.default_rng(81)
    criteria = ev.standard_criteria()
    for trial in range(40):
        dets, gts = random_instance(rng, quantize=bool(trial % 2))
        report = ev.evaluate(dets, gts, criteria, iou_threshold=iou_threshold,
                             ttc_tolerance=ttc_tolerance)
        det_t, gt_t = as_tuples(dets, gts)
        per_class, maps = loop_evaluate(det_t, gt_t,
                                        criteria_tuples(criteria, iou_threshold, ttc_tolerance), top_k=5)
        assert report.maps == maps
        assert report.per_class == per_class
        assert report.params["iou_thresholds"] == [iou_threshold]


def edge_case_instance(rng, n_images, quantize):
    """Random detections and ground truth holding every AP edge case at once.

    Labels mix integers and strings, two of which print alike (1 and "1"),
    so they sort together but stay two classes.  Class "unpredicted" has
    ground truth but no detection, class "missed" has detections that never
    overlap its ground truth (all false positives), and class "ghost" is
    predicted but absent from the ground truth.  Quantized scores tie often.
    Some ground truth is duplicated under the other verb, so IoUs tie, and
    some images hold a box with corners near 1e200 and a detection on it,
    whose areas overflow to inf.
    """
    labels = [0, 1, "1", "cup"]
    score = (lambda: float(rng.integers(1, 5)) / 4.0) if quantize else (lambda: float(rng.uniform(0.05, 1.0)))
    dets, gts = [], []
    for i in range(n_images):
        uid = f"img{i}"
        image_gts = [gt(uid, (0.0, 0.0, 4.0, 4.0), "unpredicted", "take", 1.0),
                     gt(uid, (0.0, 0.0, 4.0, 4.0), "missed", "take", 1.0)]
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.uniform(0, 20, size=2)
            image_gts.append(gt(uid, (x, y, x + rng.uniform(2, 8), y + rng.uniform(2, 8)),
                                labels[int(rng.integers(len(labels)))], str(rng.choice(["take", "cut"])),
                                float(rng.uniform(0.3, 2.0))))
        if rng.random() < 0.5:
            g = image_gts[int(rng.integers(2, len(image_gts)))]
            image_gts.append(gt(uid, g.box, g.noun, "cut" if g.verb == "take" else "take", g.ttc))
        if rng.random() < 0.3:
            s = float(rng.uniform(1e200, 2e200))
            noun = labels[int(rng.integers(len(labels)))]
            image_gts.append(gt(uid, (-s, -s, s, s), noun, "take", 1.0))
            dets.append(det(uid, (-0.5 * s, -s, s, 0.5 * s), noun, "take", 1.0, score()))
        gts += image_gts
        for _ in range(int(rng.integers(0, 8))):
            roll = rng.random()
            if roll < 0.5:  # a shifted copy of a ground truth, often with its labels
                g = image_gts[int(rng.integers(2, len(image_gts)))]
                dx = float(rng.uniform(-1.5, 1.5))
                box = (g.box[0] + dx, g.box[1], g.box[2] + dx, g.box[3])
                noun = g.noun if rng.random() < 0.8 else labels[int(rng.integers(len(labels)))]
                verb = g.verb if rng.random() < 0.7 else "cut"
                ttc = max(0.05, g.ttc + float(rng.uniform(-0.4, 0.4)))
            else:
                x, y = rng.uniform(30, 50, size=2)  # far from every ground-truth box
                box = (x, y, x + 3.0, y + 3.0)
                noun = ["missed", "ghost", *labels][int(rng.integers(len(labels) + 2))]
                verb, ttc = "take", 1.0
            dets.append(det(uid, box, noun, verb, ttc, score()))
    return dets, gts


def bits(table):
    return {key: value.hex() if isinstance(value, float) else bits(value) for key, value in table.items()}


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n_images=st.integers(1, 5), quantize=st.booleans(),
       top_k=st.sampled_from([1, 3, 5, 100]),
       thresholds=st.sampled_from([(0.5, 0.25), (0.3, 0.1), (0.1, 0.25), (0.9, 0.25)]),
       as_table=st.booleans())
def test_evaluate_equals_the_per_class_loop_oracle_bit_for_bit(seed, n_images, quantize, top_k, thresholds,
                                                               as_table):
    dets, gts = edge_case_instance(np.random.default_rng(seed), n_images, quantize)
    criteria = ev.standard_criteria()
    report = ev.evaluate(Detections.of(dets) if as_table else dets, gts, criteria, top_k=top_k,
                         iou_threshold=thresholds[0],
                         ttc_tolerance=thresholds[1])
    det_t, gt_t = as_tuples(dets, gts)
    per_class, maps = loop_evaluate(det_t, gt_t, criteria_tuples(criteria, *thresholds), top_k=top_k)
    assert bits(report.per_class) == bits(per_class)
    assert bits(report.maps) == bits(maps)
    assert list(report.per_class["noun"]) == list(per_class["noun"])  # class order too
    assert all(report.per_class[name]["unpredicted"] == 0.0 for name in NAMES)
    assert all(report.per_class[name]["missed"] == 0.0 for name in NAMES)
    assert "ghost" not in report.per_class["noun"]


def test_monotone_nesting_of_criteria():
    rng = np.random.default_rng(82)
    for _ in range(40):
        dets, gts = random_instance(rng, quantize=True)
        maps = ev.evaluate(dets, gts).maps
        assert maps["overall"] <= maps["noun_verb"] + 1e-15
        assert maps["overall"] <= maps["noun_ttc"] + 1e-15
        assert maps["noun_verb"] <= maps["noun"] + 1e-15
        assert maps["noun_ttc"] <= maps["noun"] + 1e-15


def test_score_scaling_leaves_report_unchanged():
    rng = np.random.default_rng(83)
    dets, gts = random_instance(rng)
    scaled = [det(d.uid, d.box, d.noun, d.verb, d.ttc, d.score * 0.5) for d in dets]
    assert ev.evaluate(dets, gts).maps == ev.evaluate(scaled, gts).maps


def test_report_json_stringifies_class_keys():
    gts = [gt("img0", (0, 0, 10, 10), 3, "take", 1.0)]
    dets = [det("img0", (0, 0, 10, 10), 3, "take", 1.0, 0.9)]
    doc = ev.evaluate(dets, gts).to_json()
    assert doc["per_class"]["noun"] == {"3": 1.0}
    assert doc["counts"] == {"images": 1, "ground_truth": 1, "predictions_kept": 1}
    assert doc["params"]["top_k"] == 5


# ---------------------------------------------------------------------------
# report comparison


def make_report(values):
    return ev.EvalReport(maps=dict(values), per_class={}, counts={})


def test_diff_reports_identity():
    r = make_report({"noun": 0.5, "overall": 0.25})
    for row in ev.diff_reports(r, r):
        assert row["delta"] == 0.0
        assert row["relative_gain_pct"] == 0.0
        assert row["gain_defined"]


def test_diff_reports_reproduces_headline_gain():
    a = make_report({"overall": 3.77})
    b = make_report({"overall": 2.60})
    row = ev.diff_reports(a, b)[0]
    assert abs(row["relative_gain_pct"] - 45.0) < 0.05


def test_diff_reports_zero_baseline_flagged_undefined():
    a = make_report({"overall": 0.3})
    b = make_report({"overall": 0.0})
    row = ev.diff_reports(a, b)[0]
    assert row["relative_gain_pct"] is None
    assert not row["gain_defined"]
    assert row["delta"] == 0.3


def test_diff_reports_requires_matching_criteria():
    with pytest.raises(ValueError, match="criterion sets differ"):
        ev.diff_reports(make_report({"noun": 1.0}), make_report({"overall": 1.0}))


def test_relative_gain_formula():
    assert ev.relative_gain(3.0, 2.0) == 50.0
    assert ev.relative_gain(1.0, 2.0) == -50.0
    assert ev.relative_gain(1.0, 0.0) is None
