"""File format tests: byte-identical round trips and located parse errors."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stakit import formats as fm
from stakit.affordance import (CategoricalDistribution, ClipRecord, Zone, ZoneIndex, build_zones,
                               descriptor_similarity_01, knn_query)
from stakit.attention import AttentionWeights, MlpWeights
from stakit.curation import STARecord
from stakit.evaluation import GroundTruth, evaluate
from stakit.hotspot import Detection, HotspotMap


def roundtrip_bytes(tmp_path, name, write, read):
    """write -> read -> write must produce identical bytes."""
    first = tmp_path / f"{name}.a"
    second = tmp_path / f"{name}.b"
    write(first)
    loaded = read(first)
    return first.read_bytes(), loaded, second


# ---------------------------------------------------------------------------
# matrices, weights, distributions


def test_matrix_round_trip_is_exact():
    rng = np.random.default_rng(100)
    m = rng.normal(size=(3, 4))
    doc = json.loads(json.dumps(fm.matrix_to_json(m)))
    assert np.array_equal(fm.matrix_from_json(doc), m)


def test_matrix_from_json_validates_data_length():
    with pytest.raises(fm.InputError, match="expected 4 entries") as info:
        fm.matrix_from_json({"rows": 2, "cols": 2, "data": [1.0]}, path="weights.json")
    assert info.value.field == "data"
    assert info.value.path == "weights.json"


def test_matrix_from_json_missing_field():
    with pytest.raises(fm.InputError) as info:
        fm.matrix_from_json({"rows": 2, "data": []})
    assert info.value.field == "cols"


def test_matrix_from_json_rejects_non_finite_entries():
    with pytest.raises(fm.InputError, match="finite") as info:
        fm.matrix_from_json({"rows": 2, "cols": 1, "data": [1.0, math.inf]}, path="weights.json")
    assert info.value.field == "data"
    assert info.value.path == "weights.json"


@pytest.mark.parametrize("rows", ["2", 2.5, -1, True])
def test_matrix_from_json_rejects_a_bad_row_count(rows):
    with pytest.raises(fm.InputError, match="nonnegative integer") as info:
        fm.matrix_from_json({"rows": rows, "cols": 1, "data": [1.0, 2.0]})
    assert info.value.field == "rows"


def test_matrix_from_json_rejects_a_non_object():
    with pytest.raises(fm.InputError, match="JSON object") as info:
        fm.matrix_from_json([1.0, 2.0], path="weights.json")
    assert info.value.path == "weights.json"


def test_matrix_from_json_zero_rows():
    m = fm.matrix_from_json({"rows": 0, "cols": 3, "data": []})
    assert m.shape == (0, 3)
    assert m.dtype == np.float64


def test_attention_weights_round_trip():
    rng = np.random.default_rng(102)
    w = AttentionWeights.random(rng, 6, 2)
    doc = json.loads(json.dumps(fm.attention_weights_to_json(w)))
    back = fm.attention_weights_from_json(doc)
    assert back.heads == 2
    for name in ("w_q", "w_k", "w_v"):  # the per-head matrices come back as one stack
        assert getattr(back, name).shape == (2, 6, 3)
        assert np.array_equal(getattr(back, name), getattr(w, name))
    assert np.array_equal(back.w_o, w.w_o)
    assert json.dumps(fm.attention_weights_to_json(back)) == json.dumps(doc)


def test_mlp_weights_round_trip():
    rng = np.random.default_rng(103)
    m = MlpWeights.random(rng, 4, 7)
    doc = json.loads(json.dumps(fm.mlp_weights_to_json(m)))
    back = fm.mlp_weights_from_json(doc)
    assert np.array_equal(back.w1, m.w1)
    assert np.array_equal(back.b1, m.b1)
    assert np.array_equal(back.w2, m.w2)
    assert np.array_equal(back.b2, m.b2)


def test_distribution_round_trip_with_vocab():
    dist = CategoricalDistribution(np.array([0.2, 0.5, 0.3]))
    doc = json.loads(json.dumps(fm.distribution_to_json(dist, ["a", "b", "c"])))
    assert doc["size"] == dist.size == 3 and doc["vocab"] == ["a", "b", "c"]
    back = fm.distribution_from_json(doc)
    assert np.array_equal(back.p, dist.p)


@pytest.mark.parametrize("doc, match", [
    ({"size": 3, "p": [0.5, 0.5]}, r"expected 3 probabilities, got shape \(2,\)"),
    ({"size": 1, "p": [0.5, 0.5]}, r"expected 1 probabilities, got shape \(2,\)"),
    ({"size": 0, "p": []}, "nonempty vector"),
    ({"p": []}, "nonempty vector"),
])
def test_distribution_reader_checks_size_and_p_at_p(doc, match):
    with pytest.raises(fm.InputError, match=match) as info:
        fm.distribution_from_json(doc, path="dist.json")
    assert (info.value.path, info.value.field) == ("dist.json", "p")


# ---------------------------------------------------------------------------
# JSONL files


def sample_clips():
    return [
        ClipRecord("c0", np.array([1.0, 0.5]), np.array([0.0, 1.0]),
                   frozenset({"knife"}), frozenset({"cut"}), "v0", 3),
        ClipRecord("c1", np.array([0.25, -0.5]), None,
                   frozenset({"plate", "cup"}), frozenset(), "v1", 9),
    ]


def test_clips_round_trip_byte_identical(tmp_path):
    path_a = tmp_path / "clips.a.jsonl"
    path_b = tmp_path / "clips.b.jsonl"
    fm.write_clips(path_a, sample_clips())
    loaded = fm.read_clips(path_a)
    fm.write_clips(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded[0].nouns == {"knife"}
    assert loaded[1].text is None


def test_read_clips_reports_bad_line(tmp_path):
    path = tmp_path / "clips.jsonl"
    good = json.dumps({"clip": "c0", "video": "v", "frame": 0,
                       "visual": [1.0], "nouns": [], "verbs": []})
    path.write_text(good + "\nnot json\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_clips(path)
    assert info.value.line == 2
    assert str(path) in str(info.value)


def test_read_clips_missing_field_names_it(tmp_path):
    path = tmp_path / "clips.jsonl"
    path.write_text(json.dumps({"clip": "c0", "video": "v"}) + "\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_clips(path)
    assert info.value.field == "visual"
    assert info.value.line == 1


@pytest.mark.parametrize("field, value", [
    ("frame", "x"), ("visual", ["a"]), ("text", "words"), ("nouns", 5),
    ("frame", 2.7), ("frame", True), ("visual", 5), ("verbs", [1.5]),
    ("visual", [None, 1.0]), ("visual", [1e200, 1.0]), ("text", [1e200, 0.0]),
])
def test_read_clips_names_unreadable_field(tmp_path, field, value):
    path = tmp_path / "clips.jsonl"
    row = {"clip": "c0", "video": "v", "frame": 0, "visual": [1.0], "nouns": [], "verbs": []}
    path.write_text(json.dumps({**row, field: value}) + "\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_clips(path)
    assert (info.value.path, info.value.line, info.value.field) == (str(path), 1, field)


@pytest.mark.parametrize("rows, line, field", [
    ([{"visual": [1.0, 0.0], "text": [1.0, 0.0, 0.0]}], 1, "text"),
    ([{"visual": [1.0, 0.0], "text": [1.0]}], 1, "text"),
    ([{"visual": [1.0, 0.0]}, {"visual": [1.0, 0.0, 2.0]}], 2, "visual"),
    ([{"visual": [1.0, 0.0]}, {"visual": [1.0, 0.0], "text": [0.0]}], 2, "text"),
    # clip 0 sets the length for every video, not only its own
    ([{"visual": [1.0, 0.0]}, {"visual": [1.0], "video": "w"}], 2, "visual"),
])
def test_read_clips_holds_every_descriptor_to_clip_zeros_visual_length(tmp_path, rows, line, field):
    path = tmp_path / "clips.jsonl"
    base = {"clip": "c", "video": "v", "nouns": [], "verbs": []}
    path.write_text("".join(json.dumps({**base, **row}) + "\n" for row in rows))
    with pytest.raises(fm.InputError) as info:
        fm.read_clips(path)
    assert (info.value.path, info.value.line, info.value.field) == (str(path), line, field)
    assert "entries, got" in str(info.value)


def test_zone_db_round_trip_byte_identical(tmp_path):
    clips = sample_clips()
    zones = build_zones(clips, descriptor_similarity_01, theta=0.5, recent=5)
    path_a = tmp_path / "zones.a.json"
    path_b = tmp_path / "zones.b.json"
    fm.write_zone_db(path_a, zones, ["cup", "knife", "plate"], ["cut"], 0.5, 5)
    loaded, nouns, verbs, params = fm.read_zone_db(path_a)
    fm.write_zone_db(path_b, loaded, nouns, verbs, params["theta"], params["M"])
    assert path_a.read_bytes() == path_b.read_bytes()
    assert nouns == ["cup", "knife", "plate"]
    assert params == {"theta": 0.5, "M": 5}


def test_zone_db_reports_broken_zone(tmp_path):
    path = tmp_path / "zones.json"
    path.write_text(json.dumps({"zones": [{"id": "z0", "nouns": []}]}))
    with pytest.raises(fm.InputError) as info:
        fm.read_zone_db(path)
    assert info.value.field == "zones[0].verbs"


def test_zone_db_names_unreadable_field(tmp_path):
    path = tmp_path / "zones.json"
    zone = {"id": "z0", "clips": 3, "nouns": [], "verbs": [], "visual": [1.0]}
    path.write_text(json.dumps({"zones": [zone]}))
    with pytest.raises(fm.InputError) as info:
        fm.read_zone_db(path)
    assert (info.value.path, info.value.field) == (str(path), "zones[0].clips")


ZONE = {"id": "z0", "nouns": ["cup"], "verbs": [], "visual": [1.0, 0.0]}


@pytest.mark.parametrize("doc, field", [
    ({"zones": [5]}, "zones[0]"),
    ({"zones": {"id": "z0"}}, "zones"),
    ({"zones": [ZONE], "noun_vocab": "cup"}, "noun_vocab"),
    ({"zones": [ZONE], "verb_vocab": 3}, "verb_vocab"),
    ({"zones": [ZONE], "params": [0.5, 5]}, "params"),
    ({"zones": [ZONE, {**ZONE, "id": "z1", "visual": [1.0]}]}, "zones[1].visual"),
    ({"zones": [{**ZONE, "text": [1.0, 0.0, 0.0]}]}, "zones[0].text"),
    ({"zones": [{**ZONE, "text": [None, 0.0]}]}, "zones[0].text"),
    ({"zones": [{**ZONE, "visual": [1e200, 1.0]}]}, "zones[0].visual"),
    ({"zones": [{**ZONE, "text": [1e200, 0.0]}]}, "zones[0].text"),
    ({"zones": [{**ZONE, "id": 1}, {**ZONE, "id": "1"}]}, "zones[1].id"),
])
def test_zone_db_names_malformed_field(tmp_path, doc, field):
    path = tmp_path / "zones.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fm.InputError) as info:
        fm.read_zone_db(path)
    assert (info.value.path, info.value.field) == (str(path), field)


def test_zone_db_loads_into_read_only_index_rows(tmp_path):
    path = tmp_path / "zones.json"
    path.write_text(json.dumps({"zones": [ZONE, {**ZONE, "id": "z1", "visual": [0.0, 3.0], "text": [0.0, 2.0]}]}))
    index, _, _, _ = fm.read_zone_db(path)
    assert isinstance(index, ZoneIndex) and [z.zone_id for z in index] == ["z0", "z1"]
    assert index.visual.tolist() == [[1.0, 0.0], [0.0, 3.0]]
    assert index.text.tolist() == [[0.0, 0.0], [0.0, 2.0]] and index[0].text is None
    assert not index.visual.flags.writeable and not index.text.flags.writeable
    for rows, desc in ((index.visual, index[0].visual), (index.visual, index[1].visual), (index.text, index[1].text)):
        assert np.shares_memory(desc, rows) and not desc.flags.writeable


def test_zone_db_rejects_a_duplicate_zone_id_at_its_second_zone(tmp_path):
    path = tmp_path / "zones.json"
    path.write_text(json.dumps({"zones": [
        {"id": "z", "nouns": ["knife"], "verbs": ["cut"], "visual": [1.0, 0.0]},
        {"id": "z", "nouns": ["cup"], "verbs": ["pour"], "visual": [0.0, 1.0]},
    ]}))
    with pytest.raises(fm.InputError, match="duplicate zone id 'z'") as info:
        fm.read_zone_db(path)
    assert (info.value.path, info.value.field) == (str(path), "zones[1].id")


@pytest.mark.parametrize("doc", [{"zones": []}, {}])
def test_zone_db_without_zones_loads_but_cannot_be_queried(tmp_path, doc):
    path = tmp_path / "zones.json"
    path.write_text(json.dumps(doc))
    index, _, _, _ = fm.read_zone_db(path)
    assert len(index) == 0 and list(index) == []
    with pytest.raises(ValueError, match="nonempty"):
        knn_query(np.array([1.0]), index, 1)


@pytest.mark.parametrize("doc, match", [
    ({"visual": "abc"}, "list of numbers"), ({"visual": [1.0, 0.0, 0.0]}, "expected 2 entries"),
    ({"visual": [[1.0, 0.0]]}, "list of numbers"), ({"text": [1.0, 0.0]}, "missing"),
    ({"visual": [float("inf"), 0.0]}, "finite"), ({"visual": [1e200, 0.0]}, "squared norm overflows"),
])
def test_read_descriptor_names_visual(tmp_path, doc, match):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fm.InputError, match=match) as info:
        fm.read_descriptor(path, 2)
    assert (info.value.path, info.value.field) == (str(path), "visual")


def sample_detections():
    return [
        Detection("img0", (0.0, 0.0, 10.0, 10.0), "knife", "cut", 1.0, 0.9,
                  noun_probs=np.array([0.7, 0.3]), verb_probs=np.array([0.4, 0.6])),
        Detection("img1", (1.0, 2.0, 3.0, 4.0), 2, 0, 0.5, 0.25),
    ]


def test_detections_round_trip_byte_identical(tmp_path):
    path_a = tmp_path / "dets.a.jsonl"
    path_b = tmp_path / "dets.b.jsonl"
    fm.write_detections(path_a, sample_detections())
    loaded = fm.read_detections(path_a)
    fm.write_detections(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded[0].noun == "knife"
    assert loaded[1].noun_probs is None


def test_read_detections_locates_constraint_violations(tmp_path):
    path = tmp_path / "dets.jsonl"
    bad = {"uid": "img0", "box": [5.0, 0.0, 1.0, 1.0], "noun": 0, "verb": 0,
           "ttc": 1.0, "score": 0.5}
    path.write_text(json.dumps(bad) + "\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_detections(path)
    assert info.value.line == 1
    assert "x1 < x2" in str(info.value)


def test_read_detections_box_shape_error(tmp_path):
    path = tmp_path / "dets.jsonl"
    path.write_text(json.dumps({"uid": "u", "box": [1.0, 2.0], "noun": 0,
                                "verb": 0, "ttc": 1.0, "score": 0.5}) + "\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_detections(path)
    assert info.value.field == "box"


@pytest.mark.parametrize("read, field, value", [
    (fm.read_detections, "ttc", None), (fm.read_detections, "score", "high"),
    (fm.read_ground_truth, "ttc", [1.0]),
    (fm.read_detections, "noun", [1]), (fm.read_detections, "noun_probs", "abc"),
    (fm.read_ground_truth, "verb", 1.5),
    pytest.param(fm.read_detections, "ttc", 10 ** 400, id="ttc-overflows-float"),
])
def test_detection_readers_name_unreadable_field(tmp_path, read, field, value):
    path = tmp_path / "dets.jsonl"
    row = {"uid": "u", "box": [0.0, 0.0, 1.0, 1.0], "noun": 0, "verb": 0, "ttc": 1.0, "score": 0.5}
    path.write_text(json.dumps({**row, field: value}) + "\n")
    with pytest.raises(fm.InputError) as info:
        read(path)
    assert (info.value.path, info.value.line, info.value.field) == (str(path), 1, field)


GOOD_DETECTION = '{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5}'

# (bad line 2, the full message of both readers or, where ground truth lacks the field, of read_detections)
PINNED_READER_ERRORS = {
    "missing-uid": ('{"box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5}',
                    "line 2, field 'uid': missing required field"),
    "box-of-3": ('{"uid": "a", "box": [0, 0, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5}',
                 "line 2, field 'box': box must be [x1, y1, x2, y2], got [0, 0, 1]"),
    "box-string": ('{"uid": "a", "box": [0, 0, "x", 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5}',
                   "line 2, field 'box': box must be [x1, y1, x2, y2], got [0, 0, 'x', 1]"),
    "noun-1.5": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1.5, "verb": 2, "ttc": 1.0, "score": 0.5}',
                 "line 2, field 'noun': expected a string or integer label, got 1.5"),
    "verb-true": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": true, "ttc": 1.0, "score": 0.5}',
                  "line 2, field 'verb': expected a string or integer label, got True"),
    "ttc-string": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": "x", "score": 0.5}',
                   "line 2, field 'ttc': expected a number, got 'x'"),
    "ttc-1e400": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1e400, "score": 0.5}',
                  "line 2: time to contact must be finite and positive, got inf"),
    "list-line": ("[1, 2]", "line 2: expected a JSON object, got [1, 2]"),
    "x1-above-x2": ('{"uid": "a", "box": [2, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5}',
                    "line 2: box must be finite with x1 < x2 and y1 < y2, got (2.0, 0.0, 1.0, 1.0)"),
}
PINNED_DETECTION_ERRORS = {
    "score-null": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": null}',
                   "line 2, field 'score': expected a number, got None"),
    "noun_probs-NaN": ('{"uid": "a", "box": [0, 0, 1, 1], "noun": 1, "verb": 2, "ttc": 1.0, "score": 0.5, '
                       '"noun_probs": [NaN]}',
                       "line 2, field 'noun_probs': entries must be finite numbers, got [nan]"),
}


@pytest.mark.parametrize("read, line, message", [
    *[pytest.param(read, *case, id=f"{read.__name__}-{name}") for name, case in PINNED_READER_ERRORS.items()
      for read in (fm.read_detections, fm.read_ground_truth)],
    *[pytest.param(fm.read_detections, *case, id=f"read_detections-{name}")
      for name, case in PINNED_DETECTION_ERRORS.items()],
])
def test_detection_readers_report_the_pinned_located_error(tmp_path, read, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text(GOOD_DETECTION + "\n" + line + "\n")
    with pytest.raises(fm.InputError) as info:
        read(path)
    assert str(info.value) == f"{path}, {message}"


def test_ground_truth_round_trip_and_extra_fields(tmp_path):
    gts = [GroundTruth("img0", (0.0, 0.0, 5.0, 5.0), "cup", "take", 0.8)]
    path_a = tmp_path / "gt.a.jsonl"
    path_b = tmp_path / "gt.b.jsonl"
    fm.write_ground_truth(path_a, gts)
    loaded = fm.read_ground_truth(path_a)
    fm.write_ground_truth(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    # curated record files carry extra keys; the reader must tolerate them
    rec = STARecord("v01", 20, (0.0, 0.0, 10.0, 10.0), "plate", "take", 1.0)
    sta_path = tmp_path / "records.jsonl"
    fm.write_sta_records(sta_path, [rec])
    as_gt = fm.read_ground_truth(sta_path)
    assert as_gt[0].uid == "v01_0000020"
    assert as_gt[0].noun == "plate"


def test_hotspot_maps_round_trip_byte_identical(tmp_path):
    maps = {"img0": HotspotMap("img0", np.array([[0.25, 0.25], [0.25, 0.25]])),
            "img1": HotspotMap("img1", np.array([[0.1, 0.9]]))}
    path_a = tmp_path / "maps.a.jsonl"
    path_b = tmp_path / "maps.b.jsonl"
    fm.write_hotspot_maps(path_a, maps)
    loaded = fm.read_hotspot_maps(path_a)
    fm.write_hotspot_maps(path_b, loaded)
    assert path_a.read_bytes() == path_b.read_bytes()
    assert loaded["img1"].p.shape == (1, 2)


def test_hotspot_maps_duplicate_uid_error(tmp_path):
    path = tmp_path / "maps.jsonl"
    line = json.dumps({"uid": "img0", "h": 1, "w": 2, "p": [0.5, 0.5]})
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(fm.InputError, match="duplicate") as info:
        fm.read_hotspot_maps(path)
    assert info.value.line == 2


def test_hotspot_maps_length_mismatch_error(tmp_path):
    path = tmp_path / "maps.jsonl"
    path.write_text(json.dumps({"uid": "u", "h": 2, "w": 2, "p": [1.0]}) + "\n")
    with pytest.raises(fm.InputError, match="expected 4") as info:
        fm.read_hotspot_maps(path)
    assert info.value.field == "p"


@pytest.mark.parametrize("field, value", [("h", "two"), ("w", None), ("p", ["x", 0.5]),
                                          ("h", 1.5), ("w", True)])
def test_hotspot_maps_name_unreadable_field(tmp_path, field, value):
    path = tmp_path / "maps.jsonl"
    row = {"uid": "u", "h": 1, "w": 2, "p": [0.5, 0.5]}
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, "uid": "v", field: value}) + "\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_hotspot_maps(path)
    assert (info.value.path, info.value.line, info.value.field) == (str(path), 2, field)


# text is decoded block by block, so a byte that is not UTF-8 is reported at the file only,
# after the lines of the blocks before it may have been parsed
@pytest.mark.parametrize("bad_line, line", [(b"[" * 100_000 + b"]" * 100_000, 2),
                                            (b'{"uid": "\xff"}', None)],
                         ids=["too-deeply-nested", "not-utf-8"])
def test_jsonl_unparseable_line_is_located(tmp_path, bad_line, line):
    path = tmp_path / "dets.jsonl"
    good = json.dumps({"uid": "u", "box": [0, 0, 1, 1], "noun": 0, "verb": 0, "ttc": 1.0, "score": 0.5})
    path.write_bytes(good.encode() + b"\n" + bad_line + b"\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_detections(path)
    assert (info.value.path, info.value.line) == (str(path), line)


@pytest.mark.parametrize("char", ["\u2028", "\x85"], ids=["line-separator", "next-line"])
def test_jsonl_lines_end_only_at_newlines(tmp_path, char):
    path = tmp_path / "dets.jsonl"
    det = {"uid": f"img{char}0", "box": [0, 0, 1, 1], "noun": 0, "verb": 0, "ttc": 1.0, "score": 0.5}
    path.write_text(json.dumps(det, ensure_ascii=False) + "\n", encoding="utf-8")
    assert [d.uid for d in fm.read_detections(path)] == [f"img{char}0"]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_record_files_split_at_crlf_and_cr_and_locate_record_3(tmp_path, newline):
    det = json.dumps({"uid": "u", "box": [0, 0, 1, 1], "noun": 0, "verb": 0, "ttc": 1.0, "score": 0.5})
    files = [(fm.read_detections, tmp_path / "dets.jsonl", [det, det], det.replace('"ttc": 1.0', '"ttc": "x"')),
             (fm.read_segments_csv, tmp_path / "segments.csv", ["v01,50,80,take,plate"] * 2, "v01,x,80,take,plate")]
    for read, path, lines, bad in files:
        path.write_bytes(newline.join(lines + [""]).encode())
        assert len(read(path)) == 2
        path.write_bytes(newline.join(lines + [bad, ""]).encode())
        with pytest.raises(fm.InputError) as info:
            read(path)
        assert (info.value.path, info.value.line) == (str(path), 3)


def test_read_hotspot_maps_peak_memory_stays_below_the_file_size(tmp_path):
    rng = np.random.default_rng(8)
    grids = rng.random((100, 24, 32))
    path = tmp_path / "maps.jsonl"
    fm.write_hotspot_maps(path, [HotspotMap(f"img{i:03d}", g / g.sum()) for i, g in enumerate(grids)])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert len(fm.read_hotspot_maps(path)) == 100
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_write_hotspot_maps_peak_memory_stays_below_a_quarter_of_the_file_size(tmp_path):
    rng = np.random.default_rng(8)
    maps = [HotspotMap(f"img{i:03d}", g / g.sum()) for i, g in enumerate(rng.random((100, 24, 32)))]
    path = tmp_path / "maps.jsonl"
    path.write_text("stale\n" * 1000)  # a file written over is truncated first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fm.write_hotspot_maps(path, maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == "".join(json.dumps({"uid": m.uid, "h": 24, "w": 32, "p": m.p.ravel().tolist()}) + "\n"
                                       for m in maps)
    assert peak < path.stat().st_size / 4


def test_sta_record_uid_format():
    rec = STARecord("v01", 20, (0.0, 0.0, 10.0, 10.0), "plate", "take", 1.0)
    assert fm.sta_record_uid(rec) == "v01_0000020"


# ---------------------------------------------------------------------------
# CSV files


BOXES_CSV = """video_id,frame,noun,x1,y1,x2,y2
v01,20,plate,0,0,10,10
v01,35,plate,1,1,11,11
"""


def test_read_boxes_csv_with_header(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text(BOXES_CSV)
    boxes = fm.read_boxes_csv(path)
    assert len(boxes) == 2
    assert boxes[0].video_id == "v01"
    assert boxes[0].frame == 20
    assert boxes[0].box == (0.0, 0.0, 10.0, 10.0)


def test_read_boxes_csv_without_header(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text("v01,20,plate,0,0,10,10\n")
    assert len(fm.read_boxes_csv(path)) == 1


def test_read_boxes_csv_locates_bad_row(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text("video_id,frame,noun,x1,y1,x2,y2\nv01,twenty,plate,0,0,10,10\n")
    with pytest.raises(fm.InputError) as info:
        fm.read_boxes_csv(path)
    assert info.value.line == 2
    assert str(path) in str(info.value)


def test_read_boxes_csv_wrong_column_count(tmp_path):
    path = tmp_path / "boxes.csv"
    path.write_text("v01,20,plate\n")
    with pytest.raises(fm.InputError, match="columns"):
        fm.read_boxes_csv(path)


def test_read_segments_csv(tmp_path):
    path = tmp_path / "segments.csv"
    path.write_text("video_id,start,stop,verb,noun\nv01,50,80,take,plate\n")
    segments = fm.read_segments_csv(path)
    assert len(segments) == 1
    assert segments[0].start == 50
    assert segments[0].verb == "take"


# ---------------------------------------------------------------------------
# reports and misc


def test_eval_report_round_trip(tmp_path):
    gts = [GroundTruth("img0", (0.0, 0.0, 10.0, 10.0), "cup", "take", 1.0)]
    dets = [Detection("img0", (0.0, 0.0, 10.0, 10.0), "cup", "take", 1.0, 0.9)]
    report = evaluate(dets, gts)
    path = tmp_path / "report.json"
    fm.write_eval_report(path, report)
    back = fm.read_eval_report(path)
    assert back.maps == report.maps
    assert back.counts == {"images": 1, "ground_truth": 1, "predictions_kept": 1}


@pytest.mark.parametrize("value", ["0.5", True, None])
def test_eval_report_rejects_a_map_that_is_no_number(tmp_path, value):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"maps": {"noun": 0.5, "overall": value}}))
    with pytest.raises(fm.InputError, match="expected a number") as info:
        fm.read_eval_report(path)
    assert (info.value.path, info.value.field) == (str(path), "maps")


def test_read_json_reports_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(fm.InputError) as info:
        fm.read_json(path)
    assert info.value.path == str(path)


def test_input_error_string_shows_location():
    err = fm.InputError("missing required field", path="data.jsonl", line=7, field="box")
    text = str(err)
    assert "data.jsonl" in text
    assert "line 7" in text
    assert "'box'" in text


def test_matrix_json_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        fm.matrix_to_json(np.array([[math.nan]]))


# ---------------------------------------------------------------------------
# any JSON value in any field: a reader returns or raises a located InputError


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def weights_doc():
    w = AttentionWeights.random(np.random.default_rng(104), 4, 2)
    return json.loads(json.dumps(fm.attention_weights_to_json(w)))


def read_weights_file(path):
    return fm.attention_weights_from_json(fm.read_json(path), path=str(path))


def read_distribution_file(path):
    return fm.distribution_from_json(fm.read_json(path), path=str(path))


# (reader, one valid record or document, whether the file is JSON lines)
VALID_INPUTS = {
    "clips": (fm.read_clips, {"clip": "c0", "video": "v", "frame": 3, "visual": [1.0, 0.5],
                              "text": [0.0, 1.0], "nouns": ["cup", 2], "verbs": ["take"]}, True),
    "detections": (fm.read_detections, {"uid": "u", "box": [0.0, 0.0, 1.0, 1.0], "noun": 0,
                                        "verb": "take", "ttc": 1.0, "score": 0.5,
                                        "noun_probs": [0.5, 0.5], "verb_probs": [1.0]}, True),
    "ground_truth": (fm.read_ground_truth, {"uid": "u", "box": [0.0, 0.0, 1.0, 1.0], "noun": "cup",
                                            "verb": 0, "ttc": 1.0}, True),
    "hotspot_maps": (fm.read_hotspot_maps, {"uid": "u", "h": 1, "w": 2, "p": [0.25, 0.75]}, True),
    "zone_db": (fm.read_zone_db,
                {"zones": [{**ZONE, "clips": ["c0"], "text": [0.0, 1.0]}, {**ZONE, "id": "z1"}],
                 "noun_vocab": ["cup"], "verb_vocab": ["take"], "params": {"theta": 0.5, "M": 5}},
                False),
    "weights": (read_weights_file, weights_doc(), False),
    "distribution": (read_distribution_file, {"size": 2, "p": [0.25, 0.75], "vocab": ["cup", 2]}, False),
}


def field_paths(value, prefix=()):
    """Key and index paths to every value nested in value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from field_paths(item, prefix + (key,))


@pytest.mark.parametrize("kind", sorted(VALID_INPUTS))
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_value_in_any_field_returns_or_raises_located_error(tmp_path, kind, data):
    read, valid, jsonl = VALID_INPUTS[kind]
    doc = json.loads(json.dumps(valid))
    *parents, last = data.draw(st.sampled_from(sorted(field_paths(doc), key=str)))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(JSON_VALUES)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc) + "\n")
    try:
        read(path)
    except fm.InputError as exc:
        assert exc.path == str(path)
        assert exc.line == (1 if jsonl else None)


def test_valid_inputs_of_the_property_test_load(tmp_path):
    for read, valid, _ in VALID_INPUTS.values():
        path = tmp_path / "input.json"
        path.write_text(json.dumps(valid) + "\n")
        read(path)


# (reader, path to a number in its valid input, the field the error names); each number in turn
# becomes a JSON string that float() would parse, then a boolean, which Python counts as an int
NUMBER_FIELDS = [
    ("clips", ("visual", 0), "visual"), ("clips", ("text", 1), "text"),
    ("detections", ("box", 2), "box"), ("detections", ("ttc",), "ttc"), ("detections", ("score",), "score"),
    ("detections", ("noun_probs", 0), "noun_probs"), ("detections", ("verb_probs", 0), "verb_probs"),
    ("ground_truth", ("box", 0), "box"), ("ground_truth", ("ttc",), "ttc"),
    ("hotspot_maps", ("p", 1), "p"),
    ("zone_db", ("zones", 0, "visual", 0), "zones[0].visual"), ("zone_db", ("zones", 0, "text", 1), "zones[0].text"),
    ("weights", ("w_o", "data", 0), "w_o.data"), ("weights", ("w_q.h1", "data", 3), "w_q.h1.data"),
    ("distribution", ("p", 1), "p"),
]


@pytest.mark.parametrize("kind, at, field", NUMBER_FIELDS, ids=["-".join(map(str, (k, *a))) for k, a, _ in NUMBER_FIELDS])
@pytest.mark.parametrize("make", [lambda v: repr(float(v)), lambda v: bool(v)], ids=["string", "boolean"])
def test_readers_reject_a_string_or_boolean_number(tmp_path, kind, at, field, make):
    read, valid, jsonl = VALID_INPUTS[kind]
    doc = json.loads(json.dumps(valid))
    *parents, last = at
    target = doc
    for key in parents:
        target = target[key]
    target[last] = make(target[last])
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc) + "\n")
    with pytest.raises(fm.InputError, match=r"number|\[x1, y1, x2, y2\]") as info:
        read(path)
    assert (info.value.path, info.value.line, info.value.field) == (str(path), 1 if jsonl else None, field)


def test_weights_file_with_zero_width_heads_is_a_located_error(tmp_path):
    doc = weights_doc()
    for name in ("w_q", "w_k", "w_v"):
        for h in range(2):
            doc[f"{name}.h{h}"] = {"rows": 4, "cols": 0, "data": []}
    doc["w_o"] = {"rows": 0, "cols": 4, "data": []}
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fm.InputError, match="heads have width 0") as info:
        read_weights_file(path)
    assert info.value.path == str(path)


def test_weights_file_names_the_nested_matrix_field(tmp_path):
    doc = weights_doc()
    doc["w_q.h0"]["data"] = doc["w_q.h0"]["data"][:-1]
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(fm.InputError, match="expected 8 entries, got 7") as info:
        read_weights_file(path)
    assert (info.value.path, info.value.field) == (str(path), "w_q.h0.data")


# ---------------------------------------------------------------------------
# JSON lines through the scan_once decoder: the value json.loads returns, or the error it raises


def decoded(decode, line):
    """repr of decode(line), or the text of the error it raises as located at line 3 of f.jsonl."""
    try:
        return repr(decode(line))
    except fm._BAD_VALUE as exc:
        return str(fm._located(exc, path="f.jsonl", line=3))


# (line text, what both decoders give: the value's repr or the located error)
DECODER_LINES = {
    "trailing-garbage": ('{"a": 1} x\n', "f.jsonl, line 3: invalid JSON: Extra data"),
    "two-objects": ('{"a": 1}{"b": 2}\n', "f.jsonl, line 3: invalid JSON: Extra data"),
    "two-objects-spaced": ('{"a": 1} {"b": 2}', "f.jsonl, line 3: invalid JSON: Extra data"),
    "byte-order-mark": ('\ufeff{"a": 1}\n',
                        "f.jsonl, line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "nan-and-infinity": ('{"a": NaN, "b": [Infinity, -Infinity]}\n', "{'a': nan, 'b': [inf, -inf]}"),
    "whitespace-only": (" \t \n", "f.jsonl, line 3: invalid JSON: Expecting value"),
    "empty": ("", "f.jsonl, line 3: invalid JSON: Expecting value"),
    "cr": ('{"a": 1}\r', "{'a': 1}"),
    "crlf": ('{"a": 1}\r\n', "{'a': 1}"),
    "leading-whitespace": (' \t{"a": [1.5]}\n', "{'a': [1.5]}"),
    "form-feed-after": ('{"a": 1}\x0c\n', "f.jsonl, line 3: invalid JSON: Extra data"),
    "truncated": ('{"a": [1, 2\n', "f.jsonl, line 3: invalid JSON: Expecting ',' delimiter"),
    "number-then-garbage": ("12abc", "f.jsonl, line 3: invalid JSON: Extra data"),
}


@pytest.mark.parametrize("line, want", DECODER_LINES.values(), ids=DECODER_LINES.keys())
def test_decode_gives_what_json_loads_gives_on_edge_lines(line, want):
    assert decoded(fm._decode, line) == decoded(json.loads, line) == want


LINE_TEXTS = st.one_of(
    st.text(max_size=30),
    st.builds(lambda before, value, after: before + json.dumps(value) + after,
              st.sampled_from(["", " ", "\t", "\ufeff", "x", "["]), JSON_VALUES,
              st.one_of(st.text(" \t\r\n", max_size=3), st.text(max_size=6),
                        st.sampled_from(["}", "]", " NaN", "{}", "\x0c\n", " ", "\r\n", "\r"]))),
)


@settings(max_examples=300)
@given(line=LINE_TEXTS)
def test_decode_returns_the_value_of_json_loads_or_raises_the_same_located_error(line):
    assert decoded(fm._decode, line) == decoded(json.loads, line)


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_read_detections_skips_whitespace_lines_and_locates_a_byte_order_mark(tmp_path, newline):
    path = tmp_path / "dets.jsonl"
    lines = [GOOD_DETECTION, " \t ", GOOD_DETECTION.replace("1.0", "NaN") + " ", GOOD_DETECTION + "\t"]
    path.write_bytes(newline.join(lines + [""]).encode())
    with pytest.raises(fm.InputError) as info:  # NaN passes the decoder, not the ttc check
        fm.read_detections(path)
    assert str(info.value) == f"{path}, line 3: time to contact must be finite and positive, got nan"
    lines[2] = GOOD_DETECTION
    path.write_bytes(newline.join(lines + [""]).encode())
    assert [d.ttc for d in fm.read_detections(path)] == [1.0, 1.0, 1.0]
    lines[2] = "\ufeff" + GOOD_DETECTION
    path.write_bytes(newline.join(lines + [""]).encode())
    with pytest.raises(fm.InputError) as info:
        fm.read_detections(path)
    assert str(info.value) == f"{path}, line 3: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"


# ---------------------------------------------------------------------------
# the detection reader's column checks: the located error of the per-record path


# (line 3's fault, the field its error names, its message); line 5 fails on its score as well
COLUMN_FAULTS = {
    "box-x-order": ({"box": [2, 0, 1, 1]}, None,
                    "box must be finite with x1 < x2 and y1 < y2, got (2.0, 0.0, 1.0, 1.0)"),
    "box-y-order": ({"box": [0, 1, 1, 1]}, None,
                    "box must be finite with x1 < x2 and y1 < y2, got (0.0, 1.0, 1.0, 1.0)"),
    "box-infinite": ({"box": [0, 0, math.inf, 1]}, None,
                     "box must be finite with x1 < x2 and y1 < y2, got (0.0, 0.0, inf, 1.0)"),
    "box-nan": ({"box": [math.nan, 0, 1, 1]}, None,
                "box must be finite with x1 < x2 and y1 < y2, got (nan, 0.0, 1.0, 1.0)"),
    "ttc-zero": ({"ttc": 0}, None, "time to contact must be finite and positive, got 0.0"),
    "ttc-negative": ({"ttc": -1.5}, None, "time to contact must be finite and positive, got -1.5"),
    "ttc-infinite": ({"ttc": math.inf}, None, "time to contact must be finite and positive, got inf"),
    "score-above-one": ({"score": 1.5}, None, "score must lie in [0, 1], got 1.5"),
    "score-negative": ({"score": -0.25}, None, "score must lie in [0, 1], got -0.25"),
    "score-nan": ({"score": math.nan}, None, "score must lie in [0, 1], got nan"),
    "noun-bool": ({"noun": True}, "noun", "expected a string or integer label, got True"),
    "verb-float": ({"verb": 1.5}, "verb", "expected a string or integer label, got 1.5"),
    "noun-integral-float": ({"noun": 2.0}, "noun", "expected a string or integer label, got 2.0"),
}


@pytest.mark.parametrize("fault, field, message", COLUMN_FAULTS.values(), ids=COLUMN_FAULTS.keys())
def test_column_checks_report_the_per_record_error_of_the_earliest_faulty_line(tmp_path, fault, field, message):
    good = json.loads(GOOD_DETECTION)
    path = tmp_path / "dets.jsonl"
    rows = [good, good, {**good, **fault}, good, {**good, "score": 2.0}]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(fm.InputError) as info:
        fm.read_detections(path)
    with pytest.raises(fm.InputError) as per_record:
        list(fm._records(path, fm._detection_fields))
    assert (info.value.line, info.value.field) == (per_record.value.line, per_record.value.field) == (3, field)
    where = "line 3" if field is None else f"line 3, field {field!r}"
    assert str(info.value) == str(per_record.value) == f"{path}, {where}: {message}"


def test_detections_with_and_without_vectors_of_any_lengths_round_trip_byte_for_byte(tmp_path):
    rows = [Detection("a", (0.0, 0.0, 1.0, 1.0), 1, 2, 1.0, 0.5, noun_probs=np.array([0.25, 0.75])),
            Detection("a", (0.5, 0.0, 1.5, 1.0), "cup", 0, 0.75, 0.125),
            Detection("b", (0.0, 0.5, 1.0, 2.0), 3, "take", 2.0, 1.0, np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5])),
            Detection("b", (1.0, 1.0, 2.0, 2.0), 0, 0, 0.5, 0.0, verb_probs=np.array([]))]
    path_a, path_b = tmp_path / "dets.a.jsonl", tmp_path / "dets.b.jsonl"
    fm.write_detections(path_a, rows)
    table = fm.read_detections(path_a)
    fm.write_detections(path_b, table)
    assert path_a.read_bytes() == path_b.read_bytes()
    vectors = lambda column: [None if v is None else v.tolist() for v in column]
    assert vectors(table.noun_probs) == [[0.25, 0.75], None, [1.0, 0.0, 0.0], None]
    assert vectors(table.verb_probs) == [None, None, [0.5, 0.5], []]


def detection_rows(dets):
    """Every field of every row, probability vectors as lists, as text that tells 1, 1.0 and True apart."""
    return repr([(d.uid, d.box, d.noun, d.verb, d.ttc, d.score,
                  *(None if v is None else v.tolist() for v in (d.noun_probs, d.verb_probs))) for d in dets])


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_read_detections_equals_the_per_record_reader(tmp_path, data):
    valid = VALID_INPUTS["detections"][1]
    docs = [json.loads(json.dumps(valid)) for _ in range(data.draw(st.integers(1, 5)))]
    for _ in range(data.draw(st.integers(0, 2))):
        doc = data.draw(st.sampled_from(docs))
        paths = sorted(field_paths(doc), key=str)
        *parents, last = data.draw(st.sampled_from(paths + [("noun_probs",), ("verb_probs",)]))
        target = doc
        for key in parents:
            target = target[key]
        target[last] = data.draw(JSON_VALUES)
    path = tmp_path / "dets.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    try:
        want = detection_rows(fm._records(path, fm._detection_fields))
    except fm.InputError as exc:
        with pytest.raises(fm.InputError) as info:
            fm.read_detections(path)
        assert (str(info.value), info.value.line, info.value.field) == (str(exc), exc.line, exc.field)
    else:
        assert detection_rows(fm.read_detections(path)) == want
