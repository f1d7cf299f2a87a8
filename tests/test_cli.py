"""End-to-end CLI tests driven through main(argv)."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stakit
from stakit import cli, demo, formats
from stakit.evaluation import evaluate


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def run_cli_process(argv, **env):
    """stdout of the CLI run in a fresh interpreter, with env added to its environment."""
    src = str(Path(stakit.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", "import sys; from stakit.cli import main; sys.exit(main())",
                           *argv], env=env, capture_output=True, check=True).stdout


# ---------------------------------------------------------------------------
# zones build -> afford query

# three clips in three videos, one zone each; vectors chosen so the visual
# channel retrieves zone a:0 at cosine 0.8 and the text channel retrieves
# zone b:0 at cosine 0.5 for the query [1, 0]
CLIP_ROWS = [
    {"clip": "c0", "video": "a", "frame": 0, "visual": [0.8, 0.6],
     "text": [0.0, 1.0], "nouns": ["knife", "plate"], "verbs": ["cut"]},
    {"clip": "c1", "video": "b", "frame": 0,
     "visual": [0.5, math.sqrt(0.75)], "text": [0.5, math.sqrt(0.75)],
     "nouns": ["plate"], "verbs": ["take"]},
    {"clip": "c2", "video": "c", "frame": 0, "visual": [-1.0, 0.0],
     "text": [-1.0, 0.0], "nouns": ["cup"], "verbs": ["wash"]},
]


def expected_prior(exponents):
    weights = [math.exp(e) for e in exponents]
    total = sum(weights)
    return [w / total for w in weights]


def test_zones_build_then_afford_query(tmp_path, capsys):
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, CLIP_ROWS)
    zones_path = tmp_path / "zones.json"

    code, out, err = run_cli(["zones", "build", "--clips", str(clips_path),
                              "--theta", "0.5", "--out", str(zones_path)], capsys)
    assert code == 0, err
    assert json.loads(out) == {"clips": 3, "zones": 3, "out": str(zones_path)}

    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps({"visual": [1.0, 0.0]}))
    out_path = tmp_path / "prior.json"
    code, out, err = run_cli(["afford", "query", "--zones", str(zones_path),
                              "--desc", str(query_path), "--k", "1",
                              "--weighted", "true", "--out", str(out_path)], capsys)
    assert code == 0, err
    result = json.loads(out)

    assert result["k"] == 1
    assert result["weighted"] is True
    knn = result["knn"]
    assert [e["zone"] for e in knn] == ["a:0", "b:0"]
    assert [e["channel"] for e in knn] == ["visual", "text"]
    assert abs(knn[0]["similarity"] - 0.8) < 1e-12
    assert abs(knn[1]["similarity"] - 0.5) < 1e-12

    assert result["nouns"]["vocab"] == ["cup", "knife", "plate"]
    # knife sits only in zone a (exponent 0.8); plate in both (0.8 + 0.5)
    want_nouns = expected_prior([0.0, 0.8, 1.3])
    for got, want in zip(result["nouns"]["p"], want_nouns):
        assert abs(got - want) < 1e-9
    for got, want in zip(result["nouns"]["p"], (0.1450, 0.3228, 0.5322)):
        assert abs(got - want) < 1e-4

    assert result["verbs"]["vocab"] == ["cut", "take", "wash"]
    want_verbs = expected_prior([0.8, 0.5, 0.0])
    for got, want in zip(result["verbs"]["p"], want_verbs):
        assert abs(got - want) < 1e-9

    assert formats.read_json(out_path) == result


def test_afford_query_rejects_oversized_k(tmp_path, capsys):
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, CLIP_ROWS)
    zones_path = tmp_path / "zones.json"
    run_cli(["zones", "build", "--clips", str(clips_path), "--out", str(zones_path)], capsys)
    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps({"visual": [1.0, 0.0]}))

    code, out, err = run_cli(["afford", "query", "--zones", str(zones_path),
                              "--desc", str(query_path), "--k", "9"], capsys)
    assert code == 1
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert "k must lie in" in record["message"]


def test_afford_query_prints_the_same_bytes_at_any_blas_thread_count(tmp_path):
    demo.run_synth_demo(7, tmp_path)
    zones = json.loads((tmp_path / "zones.json").read_text())["zones"]
    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps({"visual": [0.5 * v + 0.1 for v in zones[0]["visual"]]}))
    outputs = [run_cli_process(["afford", "query", "--zones", str(tmp_path / "zones.json"),
                                "--desc", str(query_path), "--k", "2"], OPENBLAS_NUM_THREADS=threads)
               for threads in ("1", "2")]
    assert json.loads(outputs[0])["knn"] and outputs[0] == outputs[1]


ZONE = {"id": "a:0", "clips": ["c0"], "nouns": ["cup"], "verbs": ["take"], "visual": [1.0, 0.0]}


@pytest.mark.parametrize("zones_doc, desc_doc, bad_file, field", [
    ({"zones": [5]}, {"visual": [1.0, 0.0]}, "zones", "zones[0]"),
    ({"zones": "a:0"}, {"visual": [1.0, 0.0]}, "zones", "zones"),
    ({"zones": [ZONE], "noun_vocab": "cup"}, {"visual": [1.0, 0.0]}, "zones", "noun_vocab"),
    ({"zones": [ZONE], "verb_vocab": {"take": 0}}, {"visual": [1.0, 0.0]}, "zones", "verb_vocab"),
    ({"zones": [ZONE], "params": 0.5}, {"visual": [1.0, 0.0]}, "zones", "params"),
    ({"zones": [ZONE]}, {"visual": "abc"}, "desc", "visual"),
    ({"zones": [ZONE]}, {"visual": [1.0, 0.0, 0.0]}, "desc", "visual"),
    ({"zones": [ZONE]}, {"text": [1.0, 0.0]}, "desc", "visual"),
    ({"zones": [ZONE]}, {"visual": [None, 1.0]}, "desc", "visual"),
    ({"zones": [{**ZONE, "visual": [1e200, 1.0]}]}, {"visual": [1e200, 0.0]}, "zones", "zones[0].visual"),
    ({"zones": [{**ZONE, "text": [1e200, 0.0]}]}, {"visual": [1.0, 0.0]}, "zones", "zones[0].text"),
    ({"zones": [ZONE]}, {"visual": [1e200, 0.0]}, "desc", "visual"),
    ({"zones": [ZONE, {**ZONE, "visual": [0.0, 1.0]}]}, {"visual": [1.0, 0.0]}, "zones", "zones[1].id"),
])
def test_afford_query_bad_input_exits_two_naming_file_and_field(tmp_path, capsys, zones_doc,
                                                                desc_doc, bad_file, field):
    paths = {"zones": tmp_path / "zones.json", "desc": tmp_path / "query.json"}
    paths["zones"].write_text(json.dumps({"noun_vocab": ["cup"], "verb_vocab": ["take"], **zones_doc}))
    paths["desc"].write_text(json.dumps(desc_doc))
    code, out, err = run_cli(["afford", "query", "--zones", str(paths["zones"]),
                              "--desc", str(paths["desc"]), "--k", "1"], capsys)
    assert code == 2, err
    record = json.loads(err)["error"]
    assert record["type"] == "InputError"
    assert record["file"] == str(paths[bad_file])
    assert record["field"] == field


def test_zones_build_splits_opposite_visuals(tmp_path, capsys):
    # their cosine rounds to just below -1, which the similarity used to report out of [0, 1] (exit 1)
    rows = [{"clip": "a", "video": "v", "frame": 0, "visual": [1.0, 1.0, 1.0], "nouns": [], "verbs": []},
            {"clip": "b", "video": "v", "frame": 1, "visual": [-1.0, -1.0, -1.0], "nouns": [], "verbs": []}]
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, rows)
    zones_path = tmp_path / "zones.json"
    code, out, err = run_cli(["zones", "build", "--clips", str(clips_path), "--out", str(zones_path)], capsys)
    assert code == 0, err
    assert json.loads(out) == {"clips": 2, "zones": 2, "out": str(zones_path)}


@pytest.mark.parametrize("rows, line, field", [
    # a text longer than its visual used to pass here and fail only when afford query read the database
    ([{**CLIP_ROWS[0], "text": [0.0, 1.0, 0.0]}], 1, "text"),
    # visuals of two lengths in one video used to exit 1 with an unlocated length mismatch
    ([CLIP_ROWS[0], {**CLIP_ROWS[0], "clip": "c1", "visual": [0.8, 0.6, 0.0], "text": None}], 2, "visual"),
])
def test_zones_build_rejects_descriptor_lengths_unlike_clip_zeros(tmp_path, capsys, rows, line, field):
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, rows)
    zones_path = tmp_path / "zones.json"
    code, out, err = run_cli(["zones", "build", "--clips", str(clips_path), "--out", str(zones_path)], capsys)
    assert code == 2, err
    record = json.loads(err)["error"]
    assert record["type"] == "InputError"
    assert (record["file"], record["line"], record["field"]) == (str(clips_path), line, field)
    assert "expected 2 entries, got 3" in record["message"]
    assert not zones_path.exists()


# ---------------------------------------------------------------------------
# afford fuse


def test_afford_fuse_worked_example(tmp_path, capsys):
    aff = tmp_path / "aff.json"
    sta = tmp_path / "sta.json"
    aff.write_text(json.dumps({"size": 3, "p": [0.5, 0.3, 0.2]}))
    sta.write_text(json.dumps({"size": 3, "p": [0.2, 0.5, 0.3]}))

    code, out, err = run_cli(["afford", "fuse", "--aff", str(aff), "--sta", str(sta)], capsys)
    assert code == 0, err
    got = json.loads(out)["p"]
    raw = [0.5 * 0.2, 0.3 * 0.5, 0.2 * 0.3]
    want = [v / sum(raw) for v in raw]
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12
    for g, w in zip(got, (0.3226, 0.4839, 0.1935)):
        assert abs(g - w) < 1e-4


def test_afford_fuse_kind_selects_from_query_output(tmp_path, capsys):
    aff = tmp_path / "aff.json"
    sta = tmp_path / "sta.json"
    query_output = {
        "nouns": {"size": 2, "p": [0.5, 0.5], "vocab": ["cup", "plate"]},
        "verbs": {"size": 2, "p": [0.9, 0.1], "vocab": ["cut", "take"]},
    }
    aff.write_text(json.dumps(query_output))
    sta.write_text(json.dumps({"size": 2, "p": [0.2, 0.8]}))

    code, out, err = run_cli(["afford", "fuse", "--aff", str(aff), "--sta", str(sta),
                              "--kind", "nouns"], capsys)
    assert code == 0, err
    result = json.loads(out)
    assert result["vocab"] == ["cup", "plate"]
    assert abs(result["p"][0] - 0.2) < 1e-12
    assert abs(result["p"][1] - 0.8) < 1e-12

    # without --kind the file is ambiguous
    code, out, err = run_cli(["afford", "fuse", "--aff", str(aff), "--sta", str(sta)], capsys)
    assert code == 2
    record = json.loads(err)["error"]
    assert record["field"] == "kind"
    assert "--kind" in record["message"]


def test_afford_fuse_rejects_a_vocabulary_in_another_order(tmp_path, capsys):
    aff, sta = tmp_path / "aff.json", tmp_path / "sta.json"
    aff.write_text(json.dumps({"size": 2, "p": [0.9, 0.1], "vocab": ["a", "b"]}))
    sta.write_text(json.dumps({"size": 2, "p": [0.9, 0.1], "vocab": ["b", "a"]}))
    code, out, err = run_cli(["afford", "fuse", "--aff", str(aff), "--sta", str(sta)], capsys)
    assert code == 2 and out == ""
    record = json.loads(err)["error"]
    assert (record["type"], record["file"], record["field"]) == ("InputError", str(sta), "vocab")

    # the same vocabulary on both sides, or one on one side only, fuses
    for sta_doc in ({"size": 2, "p": [0.9, 0.1], "vocab": ["a", "b"]}, {"size": 2, "p": [0.9, 0.1]}):
        sta.write_text(json.dumps(sta_doc))
        code, out, err = run_cli(["afford", "fuse", "--aff", str(aff), "--sta", str(sta)], capsys)
        assert code == 0, err
        assert json.loads(out)["vocab"] == ["a", "b"]


# ---------------------------------------------------------------------------
# hotspot reweight


def test_hotspot_reweight_cli(tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    maps = tmp_path / "maps.jsonl"
    out_path = tmp_path / "refined.jsonl"
    write_jsonl(dets, [{"uid": "img0", "box": [0.0, 0.0, 1.0, 1.0], "noun": 0,
                        "verb": 0, "ttc": 1.0, "score": 0.8}])
    write_jsonl(maps, [{"uid": "img0", "h": 1, "w": 3, "p": [0.02, 0.49, 0.49]}])

    code, out, err = run_cli(["hotspot", "reweight", "--dets", str(dets),
                              "--maps", str(maps), "--out", str(out_path)], capsys)
    assert code == 0, err
    assert json.loads(out) == {"detections": 1, "out": str(out_path)}
    refined = formats.read_detections(out_path)
    assert refined[0].score == 0.016


def test_hotspot_reweight_upsample_needs_both_dims(tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    maps = tmp_path / "maps.jsonl"
    write_jsonl(dets, [{"uid": "img0", "box": [0.0, 0.0, 1.0, 1.0], "noun": 0,
                        "verb": 0, "ttc": 1.0, "score": 0.8}])
    write_jsonl(maps, [{"uid": "img0", "h": 1, "w": 3, "p": [0.02, 0.49, 0.49]}])

    code, out, err = run_cli(["hotspot", "reweight", "--dets", str(dets),
                              "--maps", str(maps), "--out", str(tmp_path / "o.jsonl"),
                              "--upsample-h", "4"], capsys)
    assert code == 1
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError"
    assert "together" in record["message"]


def test_hotspot_reweight_with_upsampling(tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    maps = tmp_path / "maps.jsonl"
    out_path = tmp_path / "refined.jsonl"
    write_jsonl(dets, [{"uid": "img0", "box": [0.0, 0.0, 2.0, 2.0], "noun": 0,
                        "verb": 0, "ttc": 1.0, "score": 1.0}])
    write_jsonl(maps, [{"uid": "img0", "h": 1, "w": 1, "p": [1.0]}])

    code, out, err = run_cli(["hotspot", "reweight", "--dets", str(dets),
                              "--maps", str(maps), "--out", str(out_path),
                              "--upsample-h", "2", "--upsample-w", "2"], capsys)
    assert code == 0, err
    # a constant map upsamples to uniform, so the centre cell holds 1/4
    assert formats.read_detections(out_path)[0].score == 0.25


# ---------------------------------------------------------------------------
# eval sta


def test_eval_sta_cli_perfect_scores(tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    gt = tmp_path / "gt.jsonl"
    report_path = tmp_path / "report.json"
    rows = [{"uid": "img0", "box": [0.0, 0.0, 10.0, 10.0], "noun": "cup",
             "verb": "take", "ttc": 1.0},
            {"uid": "img1", "box": [5.0, 5.0, 20.0, 20.0], "noun": "plate",
             "verb": "wash", "ttc": 0.5}]
    write_jsonl(gt, rows)
    write_jsonl(dets, [dict(r, score=0.9) for r in rows])

    code, out, err = run_cli(["eval", "sta", "--dets", str(dets), "--gt", str(gt),
                              "--report", str(report_path)], capsys)
    assert code == 0, err
    result = json.loads(out)
    assert result["maps"] == {"noun": 1.0, "noun_verb": 1.0, "noun_ttc": 1.0, "overall": 1.0}
    assert result["counts"] == {"images": 2, "ground_truth": 2, "predictions_kept": 2}

    saved = formats.read_eval_report(report_path)
    assert saved.maps == result["maps"]
    assert saved.params == result["params"]


def test_eval_sta_cli_passes_iou_and_ttc_tolerance(tmp_path, capsys):
    # img0's detection overlaps at IoU 0.43 and is 0.2 s late: a match at --iou 0.3, not at 0.5,
    # and within the default ttc tolerance 0.25 but not within 0.1
    dets = tmp_path / "dets.jsonl"
    gt = tmp_path / "gt.jsonl"
    write_jsonl(gt, [{"uid": "img0", "box": [0.0, 0.0, 10.0, 10.0], "noun": "cup", "verb": "take", "ttc": 1.0},
                     {"uid": "img1", "box": [5.0, 5.0, 20.0, 20.0], "noun": "plate", "verb": "wash", "ttc": 0.5}])
    write_jsonl(dets, [{"uid": "img0", "box": [4.0, 0.0, 14.0, 10.0], "noun": "cup", "verb": "take",
                        "ttc": 1.2, "score": 0.9},
                       {"uid": "img1", "box": [5.0, 5.0, 20.0, 20.0], "noun": "plate", "verb": "cut",
                        "ttc": 0.5, "score": 0.8}])
    code, out, err = run_cli(["eval", "sta", "--dets", str(dets), "--gt", str(gt),
                              "--iou", "0.3", "--ttc-tol", "0.1"], capsys)
    assert code == 0, err
    loaded = formats.read_detections(dets), formats.read_ground_truth(gt)
    expected = evaluate(*loaded, iou_threshold=0.3, ttc_tolerance=0.1).to_json()
    assert json.loads(out) == expected
    assert expected["maps"] != evaluate(*loaded).to_json()["maps"]
    assert expected["params"]["iou_thresholds"] == [0.3]


# ---------------------------------------------------------------------------
# curate ek

BOXES_CSV = """video_id,frame,noun,x1,y1,x2,y2
v01,20,plate,0,0,10,10
v01,35,plate,1,1,11,11
v01,100,plate,2,2,12,12
v01,30,cup,3,3,13,13
v01,30,cup,4,4,14,14
v01,40,knife,5,5,15,15
"""

SEGMENTS_CSV = """video_id,start,stop,verb,noun
v01,50,80,take,plate
v01,130,160,wash,plate
"""

GOLDEN_RECORDS = (
    '{"uid": "v01_0000020", "video": "v01", "frame": 20, "box": [0.0, 0.0, 10.0, 10.0],'
    ' "noun": "plate", "verb": "take", "ttc": 1.0, "split": "train"}\n'
    '{"uid": "v01_0000035", "video": "v01", "frame": 35, "box": [1.0, 1.0, 11.0, 11.0],'
    ' "noun": "plate", "verb": "take", "ttc": 0.5, "split": "train"}\n'
    '{"uid": "v01_0000100", "video": "v01", "frame": 100, "box": [2.0, 2.0, 12.0, 12.0],'
    ' "noun": "plate", "verb": "wash", "ttc": 1.0, "split": "train"}\n'
)


def test_curate_ek_cli_golden_output(tmp_path, capsys):
    boxes = tmp_path / "boxes.csv"
    segments = tmp_path / "segments.csv"
    out_path = tmp_path / "records.jsonl"
    boxes.write_text(BOXES_CSV)
    segments.write_text(SEGMENTS_CSV)

    code, out, err = run_cli(["curate", "ek", "--boxes", str(boxes),
                              "--segments", str(segments), "--out", str(out_path)], capsys)
    assert code == 0, err
    assert json.loads(out) == {"boxes": 6, "segments": 2, "records": 3,
                               "out": str(out_path)}
    assert out_path.read_bytes() == GOLDEN_RECORDS.encode()


@pytest.mark.parametrize("segments_csv", [SEGMENTS_CSV, SEGMENTS_CSV.replace("plate", "bowl")],
                         ids=["tracks-reach-segments", "no-track-reaches-a-segment"])
@pytest.mark.parametrize("flag, value", [("--fps", "0"), ("--fps", "-30"), ("--fps", "nan"), ("--fps", "inf"),
                                         ("--gap", "-1")])
def test_curate_ek_rejects_a_bad_fps_or_gap_whatever_the_input(tmp_path, capsys, segments_csv, flag, value):
    boxes = tmp_path / "boxes.csv"
    segments = tmp_path / "segments.csv"
    out_path = tmp_path / "records.jsonl"
    boxes.write_text(BOXES_CSV)
    segments.write_text(segments_csv)
    code, out, err = run_cli(["curate", "ek", "--boxes", str(boxes), "--segments", str(segments),
                              "--out", str(out_path), flag, value], capsys)
    assert code == 1 and out == ""
    record = json.loads(err)["error"]
    assert record["type"] == "ValueError" and record["message"].startswith(flag[2:])
    assert not out_path.exists()


INFINITE_BOX_DET = {"uid": "img0", "box": [0.0, 0.0, math.inf, math.inf], "noun": "cup",
                    "verb": "take", "ttc": 1.0, "score": 0.9}


# CSV text is decoded block by block, so a byte that is not UTF-8 is reported at the file only
@pytest.mark.parametrize("argv, files, bad_file, line", [
    (["eval", "sta"], {"dets": json.dumps(INFINITE_BOX_DET).encode(),
                       "gt": json.dumps({**INFINITE_BOX_DET, "box": [0.0, 0.0, 1.0, 1.0]}).encode()},
     "dets", 1),
    (["curate", "ek"], {"boxes": b"v01,20,plate,0,0,inf,10\n", "segments": SEGMENTS_CSV.encode()},
     "boxes", 1),
    (["curate", "ek"], {"boxes": BOXES_CSV.encode(),
                        "segments": SEGMENTS_CSV.encode() + b"v01,1,2,take," + b"x" * 200_000},
     "segments", 4),
    (["curate", "ek"], {"boxes": BOXES_CSV.encode(), "segments": SEGMENTS_CSV.encode() + b"v01,1,2,take,\xff"},
     "segments", None),
], ids=["eval-infinite-box", "curate-infinite-box", "curate-oversized-cell", "curate-not-utf-8"])
def test_unreadable_input_exits_two_naming_file_and_line(tmp_path, capsys, argv, files, bad_file, line):
    paths = {name: tmp_path / name for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    flags = [arg for name in files for arg in (f"--{name}", str(paths[name]))]
    if argv[0] == "curate":
        flags += ["--out", str(tmp_path / "records.jsonl")]
    code, out, err = run_cli(argv + flags, capsys)
    assert code == 2, err
    record = json.loads(err)["error"]
    assert record["type"] == "InputError"
    assert (record["file"], record.get("line")) == (str(paths[bad_file]), line)


# ---------------------------------------------------------------------------
# attn check-grad


def test_attn_check_grad_cli(capsys):
    code, out, err = run_cli(["attn", "check-grad", "--op", "mha", "--seed", "3"], capsys)
    assert code == 0, err
    result = json.loads(out)
    assert result["op"] == "mha"
    assert result["seed"] == 3
    assert result["epsilon"] == 1e-5
    assert result["max_rel_error"] <= 1e-5
    assert result["params_checked"] > 0
    assert isinstance(result["worst"], str)


@pytest.mark.parametrize("flags, message", [
    ("--eps nan", "epsilon must be finite and positive, got nan"),
    ("--eps inf", "epsilon must be finite and positive, got inf"),
    ("--eps 0", "epsilon must be finite and positive, got 0.0"),
    ("--heads 16", "heads must be between 1 and d_model; got heads=16, d_model=8"),
    ("--heads 0", "heads must be between 1 and d_model; got heads=0, d_model=8"),
])
def test_attn_check_grad_rejects_a_bad_epsilon_or_head_count(flags, message, capsys):
    code, out, err = run_cli(["attn", "check-grad", "--op", "mha", "--seed", "3", *flags.split()], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


# what the per-scalar loop (helpers.loop_grad_check) reports, by op and
# extra flags (the default is --d-model 8 --heads 2); the stacked
# grad_check must print it byte for byte
CHECK_GRAD_SEED_3 = {
    ("mha", ""): (5.16217650176333e-10, 312, "w_k.h0"),
    ("mha", "--heads 1"): (2.0915874792615488e-10, 312, "w_k.h0"),
    ("mha", "--heads 4"): (1.1547225983882143e-09, 312, "w_k.h2"),
    ("mha", "--d-model 8 --heads 8"): (1.589691784914213e-09, 312, "w_k.h6"),
    ("frame_guided_pooling", ""): (1.135728473190766e-09, 328, "w_q.h0"),
    ("frame_guided_pooling", "--heads 1"): (4.4793810110605744e-10, 328, "w_q.h0"),
    ("frame_guided_pooling", "--heads 4"): (9.003653276862138e-10, 328, "w_k.h1"),
    ("frame_guided_pooling", "--d-model 8 --heads 8"): (1.870307568048733e-09, 328, "w_k.h7"),
    ("dual_attention", ""): (4.928164399134572e-10, 1744, "video_branch.w_q.h1"),
    ("dual_attention", "--heads 1"): (3.5867530517004287e-10, 1744, "mlp.image.b1"),
    ("dual_attention", "--heads 4"): (1.1073770596147604e-09, 1744, "video_branch.w_q.h0"),
    ("dual_attention", "--d-model 8 --heads 8"): (2.709081903488155e-08, 1744, "video_branch.w_q.h3"),
}


@pytest.mark.parametrize("op, flags", sorted(CHECK_GRAD_SEED_3))
def test_attn_check_grad_output_is_golden(op, flags, capsys):
    max_rel_error, params_checked, worst = CHECK_GRAD_SEED_3[op, flags]
    code, out, err = run_cli(["attn", "check-grad", "--op", op, "--seed", "3", *flags.split()], capsys)
    assert code == 0, err
    assert out == (f'{{\n  "op": "{op}",\n  "seed": 3,\n  "epsilon": 1e-05,\n'
                   f'  "max_rel_error": {max_rel_error!r},\n  "params_checked": {params_checked},\n'
                   f'  "worst": "{worst}"\n}}\n')


# ---------------------------------------------------------------------------
# demo synth


def demo_artifacts(out_dir):
    return sorted(p.name for p in out_dir.iterdir())


def test_demo_synth_is_deterministic(tmp_path, capsys):
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    code, out_a, err = run_cli(["demo", "synth", "--seed", "7", "--out", str(dir_a)], capsys)
    assert code == 0, err
    code, out_b, err = run_cli(["demo", "synth", "--seed", "7", "--out", str(dir_b)], capsys)
    assert code == 0, err

    assert out_a == out_b
    names = demo_artifacts(dir_a)
    assert names == demo_artifacts(dir_b)
    assert "report.json" in names
    assert "refined.jsonl" in names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    result = json.loads(out_a)
    assert set(result["maps"]) == {"noun", "noun_verb", "noun_ttc", "overall"}


def test_demo_synth_is_identical_across_processes_with_other_hash_seeds(tmp_path):
    runs = []
    for hash_seed in ("0", "12345"):
        out_dir = tmp_path / f"hash-seed-{hash_seed}"
        stdout = run_cli_process(["demo", "synth", "--seed", "7", "--out", str(out_dir)],
                                 PYTHONHASHSEED=hash_seed)
        runs.append((stdout, {name: (out_dir / name).read_bytes() for name in demo_artifacts(out_dir)}))
    assert "report.json" in runs[0][1] and runs[0] == runs[1]


# sha256 of the bytes `stakit demo synth --seed 7` wrote and printed before detections became one
# table; fusion changes no score and re-weighting no label, so both orders write the same bytes
DEMO_SEED_7_SHA256 = {
    "clips.jsonl": "c73d38c33c2e00b9fe143887973461f3c88633b337685823a8e36d6789e23c86",
    "detections.jsonl": "73c2377988d42bc122b451f834def07e3dc67c46049115a8155d86169de4103d",
    "gt.jsonl": "f52fc21304ca41af0ffa4fe26ef2faa3ea0352a6a7720f0512b3cee1dc2712de",
    "maps.jsonl": "fdb89639c565d2f2fb749a5d285c711442dd63ad993eacef1dfc500398588d00",
    "refined.jsonl": "f3975991aa443262a8252e0bfdd765e48e965faaecebbad3d886373157e8e7ad",
    "report.json": "1bd81d7ffabecde253ae5dfdb47801340ac8a75b5aad6dc1faf87e27df0657cf",
    "zones.json": "664886b6ee82c633443f1ad1d58a59874910b5df348d507876efccc14164d793",
    "stdout": "1bd81d7ffabecde253ae5dfdb47801340ac8a75b5aad6dc1faf87e27df0657cf",
}
# (argv after the demo's directory is filled in, the output whose sha256 is pinned, that sha256)
DEMO_SEED_7_COMMANDS = [
    (["eval", "sta", "--dets", "{d}/refined.jsonl", "--gt", "{d}/gt.jsonl"], "stdout",
     "1bd81d7ffabecde253ae5dfdb47801340ac8a75b5aad6dc1faf87e27df0657cf"),
    (["eval", "sta", "--dets", "{d}/detections.jsonl", "--gt", "{d}/gt.jsonl"], "stdout",
     "c41dbcff3507d1b2d02727b510205747a63bcd3fe7a54f8312a25ed369f5c108"),
    (["eval", "sta", "--dets", "{d}/refined.jsonl", "--gt", "{d}/gt.jsonl", "--iou", "0.3", "--ttc-tol", "0.1",
      "--topk", "1"], "stdout", "987d554e431323b0fe489563386328df7fe8f2434e8e02546dae0063866cf9b0"),
    (["eval", "sta", "--dets", "{d}/detections.jsonl", "--gt", "{d}/gt.jsonl", "--iou", "0.1", "--topk", "3"],
     "stdout", "51b051a0ee0ce34a83699a0bbb65b16ecb197608144c44d202465f1896796dd5"),
    (["hotspot", "reweight", "--dets", "{d}/detections.jsonl", "--maps", "{d}/maps.jsonl", "--out", "{out}"],
     "out", "18a719c2f3f4eda2cca7391fc39132db192a7db2f7c455fe213e3d4ce0796851"),
    (["hotspot", "reweight", "--bilinear", "--dets", "{d}/detections.jsonl", "--maps", "{d}/maps.jsonl",
      "--out", "{out}"], "out", "e857e11c1289d929bfa3571790195ae458975073abc894dc7b9c8728066a1893"),
    (["hotspot", "reweight", "--bilinear", "--dets", "{d}/refined.jsonl", "--maps", "{d}/maps.jsonl",
      "--out", "{out}"], "out", "d25f4429913f31e05b2cdd6a8ac127e4798b3ef40480c01517d1614263407f07"),
    (["hotspot", "reweight", "--bilinear", "--upsample-h", "96", "--upsample-w", "128", "--dets",
      "{d}/detections.jsonl", "--maps", "{d}/maps.jsonl", "--out", "{out}"],
     "out", "5a0ad2c1221cf882e51a5de0e9447527444c7af1ea2346cde48ad55c183f46ca"),
    (["zones", "build", "--clips", "{d}/clips.jsonl", "--out", "{out}"],
     "out", "2bd19ccfbfb5ff7a4da6a74c96ff69619d76d0cf7e381c95d9ae85db073f104b"),
    (["afford", "query", "--zones", "{d}/zones.json", "--desc", "{query}", "--out", "{out}"],
     "out", "1fa518d9f233cb9195b84742951d9af545fa27d7c60a4e5f4e1e519d70b4116d"),
]
# the {query} of DEMO_SEED_7_COMMANDS, the one CI writes beside the demo
DEMO_QUERY = '{"visual": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}\n'


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


@pytest.mark.parametrize("order", demo.ORDERS)
def test_demo_synth_and_the_commands_on_its_files_write_the_pinned_bytes(tmp_path, capsys, order):
    out_dir = tmp_path / "demo"
    code, out, err = run_cli(["demo", "synth", "--seed", "7", "--order", order, "--out", str(out_dir)], capsys)
    assert code == 0, err
    got = {name: sha256((out_dir / name).read_bytes()) for name in demo_artifacts(out_dir)}
    assert {**got, "stdout": sha256(out)} == DEMO_SEED_7_SHA256
    query = tmp_path / "query.json"
    query.write_text(DEMO_QUERY)
    for argv, output, digest in DEMO_SEED_7_COMMANDS:
        target = tmp_path / "out.jsonl"
        code, out, err = run_cli([a.format(d=out_dir, out=target, query=query) for a in argv], capsys)
        assert code == 0, err
        assert sha256(out if output == "stdout" else target.read_bytes()) == digest, argv


def test_demo_synth_reweight_first_order(tmp_path, capsys):
    code, out, err = run_cli(["demo", "synth", "--seed", "7",
                              "--out", str(tmp_path / "d"),
                              "--order", "reweight-first"], capsys)
    assert code == 0, err
    assert set(json.loads(out)["maps"]) == {"noun", "noun_verb", "noun_ttc", "overall"}


# ---------------------------------------------------------------------------
# config file and error handling


def test_config_file_fills_missing_flags(tmp_path, capsys):
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, CLIP_ROWS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": 0.7, "recent": 3}))

    zones_path = tmp_path / "zones_a.json"
    code, out, err = run_cli(["--config", str(config), "zones", "build",
                              "--clips", str(clips_path), "--out", str(zones_path)], capsys)
    assert code == 0, err
    _, _, _, params = formats.read_zone_db(zones_path)
    assert params == {"theta": 0.7, "M": 3}

    # an explicit flag beats the config file
    zones_path = tmp_path / "zones_b.json"
    code, out, err = run_cli(["--config", str(config), "zones", "build",
                              "--clips", str(clips_path), "--theta", "0.25",
                              "--out", str(zones_path)], capsys)
    assert code == 0, err
    _, _, _, params = formats.read_zone_db(zones_path)
    assert params == {"theta": 0.25, "M": 3}


def test_defaults_apply_without_config(tmp_path, capsys):
    clips_path = tmp_path / "clips.jsonl"
    write_jsonl(clips_path, CLIP_ROWS)
    zones_path = tmp_path / "zones.json"
    code, out, err = run_cli(["zones", "build", "--clips", str(clips_path),
                              "--out", str(zones_path)], capsys)
    assert code == 0, err
    _, _, _, params = formats.read_zone_db(zones_path)
    assert params == {"theta": 0.5, "M": 5}


@pytest.mark.parametrize("content, field", [
    ({"weighted": "false"}, "weighted"),
    ({"k": "4"}, "k"),
    ({"k": True}, "k"),
    ({"theta": None}, "theta"),
    ({"thetaa": 0.9}, "thetaa"),
    ({"order": "sideways"}, "order"),
])
def test_bad_config_value_exits_two_naming_file_and_field(tmp_path, capsys, content, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    code, out, err = run_cli(["--config", str(config), "afford", "query",
                              "--zones", str(tmp_path / "zones.json"),
                              "--desc", str(tmp_path / "query.json")], capsys)
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "InputError"
    assert record["file"] == str(config)
    assert record["field"] == field


def test_config_float_field_takes_a_json_integer(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"theta": 1, "recent": 3}))
    args = cli.build_parser().parse_args(["--config", str(config), "zones", "build",
                                          "--clips", "c.jsonl", "--out", "z.json"])
    cfg = cli.resolve_config(args)
    assert (cfg.theta, type(cfg.theta), cfg.recent) == (1.0, float, 3)


def test_bilinear_comes_from_flag_then_config_then_default(tmp_path):
    argv = ["hotspot", "reweight", "--dets", "d.jsonl", "--maps", "m.jsonl", "--out", "o.jsonl"]
    on = tmp_path / "on.json"
    on.write_text(json.dumps({"bilinear": True}))
    off = tmp_path / "off.json"
    off.write_text(json.dumps({"bilinear": False}))

    def resolved(prefix, extra=()):
        args = cli.build_parser().parse_args([*prefix, *argv, *extra])
        return cli.resolve_config(args).bilinear

    assert resolved([]) is False
    assert resolved([], ["--bilinear"]) is True
    assert resolved(["--config", str(on)]) is True
    assert resolved(["--config", str(off)]) is False
    assert resolved(["--config", str(off)], ["--bilinear"]) is True


def test_removed_jobs_flag_is_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--jobs", "2", "demo", "synth", "--out", "unused"])
    capsys.readouterr()


def test_missing_input_file_exits_one(tmp_path, capsys):
    code, out, err = run_cli(["zones", "build", "--clips", str(tmp_path / "absent.jsonl"),
                              "--out", str(tmp_path / "z.json")], capsys)
    assert code == 1
    record = json.loads(err)["error"]
    assert record["type"] == "FileNotFoundError"


def test_malformed_jsonl_exits_two_with_location(tmp_path, capsys):
    dets = tmp_path / "dets.jsonl"
    gt = tmp_path / "gt.jsonl"
    dets.write_text("not json\n")
    write_jsonl(gt, [{"uid": "img0", "box": [0.0, 0.0, 1.0, 1.0], "noun": 0,
                      "verb": 0, "ttc": 1.0}])

    code, out, err = run_cli(["eval", "sta", "--dets", str(dets), "--gt", str(gt)], capsys)
    assert code == 2
    record = json.loads(err)["error"]
    assert record["type"] == "InputError"
    assert record["file"] == str(dets)
    assert record["line"] == 1


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        cli.main(["bogus"])
    capsys.readouterr()
