"""Annotation curation pipeline tests: stage rules plus end-to-end fuzz."""

import numpy as np
import pytest

from stakit import curation as cur
from stakit.curation import ActionSegment, BoxAnnotation, ObjectTrack


def box(video, frame, noun, offset=0.0):
    return BoxAnnotation(video_id=video, frame=frame, noun=noun,
                         box=(offset, offset, offset + 10.0, offset + 10.0))


def seg(video, start, stop, verb, noun):
    return ActionSegment(video_id=video, start=start, stop=stop, verb=verb, noun=noun)


# ---------------------------------------------------------------------------
# track building


def test_contiguous_frames_chain_into_one_track():
    tracks = cur.build_tracks([box("v", 1, "cup"), box("v", 2, "cup"), box("v", 3, "cup")])
    assert len(tracks) == 1
    assert [f for f, _ in tracks[0].frames] == [1, 2, 3]
    assert tracks[0].track_id == "v:cup:0"


def test_different_nouns_never_share_a_track():
    tracks = cur.build_tracks([box("v", 1, "cup"), box("v", 2, "plate")])
    assert len(tracks) == 2
    assert {t.noun for t in tracks} == {"cup", "plate"}


def test_gap_splits_tracks():
    tracks = cur.build_tracks([box("v", 1, "cup"), box("v", 100, "cup")], gap=30)
    assert len(tracks) == 2
    assert [t.track_id for t in tracks] == ["v:cup:0", "v:cup:1"]
    merged = cur.build_tracks([box("v", 1, "cup"), box("v", 31, "cup")], gap=30)
    assert len(merged) == 1


def test_build_tracks_sorts_frames_within_group():
    tracks = cur.build_tracks([box("v", 20, "cup"), box("v", 5, "cup")])
    assert [f for f, _ in tracks[0].frames] == [5, 20]


def test_build_tracks_same_frame_duplicates_share_a_track():
    tracks = cur.build_tracks([box("v", 10, "cup", offset=0.0), box("v", 10, "cup", offset=5.0)])
    assert len(tracks) == 1
    assert len(tracks[0].frames) == 2


def test_build_tracks_validates_gap():
    with pytest.raises(ValueError, match="gap"):
        cur.build_tracks([], gap=-1)


def test_videos_are_independent():
    tracks = cur.build_tracks([box("a", 1, "cup"), box("b", 2, "cup")])
    assert len(tracks) == 2


# ---------------------------------------------------------------------------
# ambiguity filtering


def test_duplicate_same_noun_frame_drops_the_track():
    boxes = [box("v", 10, "plate"), box("v", 30, "plate", offset=1.0),
             box("v", 30, "plate", offset=5.0)]
    tracks = cur.build_tracks(boxes)
    kept = cur.drop_ambiguous_tracks(tracks, boxes)
    assert kept == []


def test_single_instance_frames_pass_through():
    boxes = [box("v", 10, "plate"), box("v", 20, "plate", offset=1.0)]
    tracks = cur.build_tracks(boxes)
    assert cur.drop_ambiguous_tracks(tracks, boxes) == tracks


def test_duplicates_of_other_nouns_do_not_disqualify():
    boxes = [box("v", 10, "plate"), box("v", 10, "cup"), box("v", 10, "cup", offset=5.0)]
    tracks = cur.build_tracks(boxes)
    kept = cur.drop_ambiguous_tracks(tracks, boxes)
    assert {t.noun for t in kept} == {"plate"}


# ---------------------------------------------------------------------------
# segment matching and truncation


def test_match_takes_earliest_starting_segment():
    track = cur.build_tracks([box("v", 10, "cup")])[0]
    segments = [seg("v", 80, 90, "wash", "cup"), seg("v", 50, 60, "take", "cup")]
    matched = cur.match_track_to_segment(track, segments)
    assert matched.segment.start == 50


def test_match_requires_same_noun_and_video():
    track = cur.build_tracks([box("v", 10, "cup")])[0]
    assert cur.match_track_to_segment(track, [seg("v", 50, 60, "take", "plate")]).segment is None
    assert cur.match_track_to_segment(track, [seg("w", 50, 60, "take", "cup")]).segment is None


def test_match_ignores_segments_starting_before_the_track():
    track = cur.build_tracks([box("v", 10, "cup")])[0]
    matched = cur.match_track_to_segment(
        track, [seg("v", 5, 60, "take", "cup"), seg("v", 40, 60, "wash", "cup")])
    assert matched.segment.verb == "wash"


def test_match_tie_breaks_toward_input_order():
    track = cur.build_tracks([box("v", 10, "cup")])[0]
    matched = cur.match_track_to_segment(
        track, [seg("v", 50, 60, "first", "cup"), seg("v", 50, 70, "second", "cup")])
    assert matched.segment.verb == "first"


def test_truncate_drops_frames_at_or_past_start():
    track = ObjectTrack("t", "v", "cup",
                        [(10, (0, 0, 1, 1)), (20, (0, 0, 1, 1)), (30, (0, 0, 1, 1))],
                        segment=seg("v", 25, 60, "take", "cup"))
    cut = cur.truncate_track(track)
    assert [f for f, _ in cut.frames] == [10, 20]


def test_truncate_boundary_frame_is_removed():
    track = ObjectTrack("t", "v", "cup", [(10, (0, 0, 1, 1)), (25, (0, 0, 1, 1))],
                        segment=seg("v", 25, 60, "take", "cup"))
    cut = cur.truncate_track(track)
    assert [f for f, _ in cut.frames] == [10]


def test_truncate_returns_none_when_nothing_remains():
    track = ObjectTrack("t", "v", "cup", [(30, (0, 0, 1, 1))],
                        segment=seg("v", 25, 60, "take", "cup"))
    assert cur.truncate_track(track) is None


def test_truncate_requires_a_segment():
    track = ObjectTrack("t", "v", "cup", [(10, (0, 0, 1, 1))])
    with pytest.raises(ValueError, match="no matched segment"):
        cur.truncate_track(track)


# ---------------------------------------------------------------------------
# record emission


def test_emit_time_to_contact_arithmetic():
    track = ObjectTrack("t", "v", "cup", [(300, (0, 0, 1, 1))],
                        segment=seg("v", 336, 400, "take", "cup"))
    records = cur.emit_sta_records(track, fps=30.0)
    assert records[0].ttc == 1.2
    assert records[0].verb == "take"
    assert records[0].frame == 300


def test_emit_boundary_frame_has_positive_ttc():
    track = ObjectTrack("t", "v", "cup", [(335, (0, 0, 1, 1))],
                        segment=seg("v", 336, 400, "take", "cup"))
    records = cur.emit_sta_records(track, fps=30.0)
    assert records[0].ttc == pytest.approx(1.0 / 30.0)
    assert records[0].ttc > 0


def test_emit_three_frames_share_labels_with_decreasing_ttc():
    track = ObjectTrack("t", "v", "cup",
                        [(10, (0, 0, 1, 1)), (20, (0, 0, 1, 1)), (30, (0, 0, 1, 1))],
                        segment=seg("v", 46, 60, "take", "cup"))
    records = cur.emit_sta_records(track, fps=30.0)
    assert [r.ttc for r in records] == sorted([r.ttc for r in records], reverse=True)
    assert {(r.noun, r.verb) for r in records} == {("cup", "take")}


def test_emit_validates_fps_and_segment():
    track = ObjectTrack("t", "v", "cup", [(10, (0, 0, 1, 1))],
                        segment=seg("v", 46, 60, "take", "cup"))
    with pytest.raises(ValueError, match="fps"):
        cur.emit_sta_records(track, fps=0.0)
    bare = ObjectTrack("t", "v", "cup", [(10, (0, 0, 1, 1))])
    with pytest.raises(ValueError, match="no matched segment"):
        cur.emit_sta_records(bare, fps=30.0)


# ---------------------------------------------------------------------------
# full pipeline


def golden_input():
    boxes = [
        BoxAnnotation("v01", 20, "plate", (0.0, 0.0, 10.0, 10.0)),
        BoxAnnotation("v01", 35, "plate", (1.0, 1.0, 11.0, 11.0)),
        BoxAnnotation("v01", 100, "plate", (2.0, 2.0, 12.0, 12.0)),
        BoxAnnotation("v01", 30, "cup", (3.0, 3.0, 13.0, 13.0)),
        BoxAnnotation("v01", 30, "cup", (4.0, 4.0, 14.0, 14.0)),
        BoxAnnotation("v01", 40, "knife", (5.0, 5.0, 15.0, 15.0)),
    ]
    segments = [
        ActionSegment("v01", 50, 80, "take", "plate"),
        ActionSegment("v01", 130, 160, "wash", "plate"),
    ]
    return boxes, segments


def test_curate_golden_records():
    boxes, segments = golden_input()
    records = cur.curate(boxes, segments, gap=30, fps=30.0)
    assert [(r.video_id, r.frame, r.noun, r.verb, r.ttc) for r in records] == [
        ("v01", 20, "plate", "take", 1.0),
        ("v01", 35, "plate", "take", 0.5),
        ("v01", 100, "plate", "wash", 1.0),
    ]
    assert all(r.split == "train" for r in records)
    assert records[0].box == (0.0, 0.0, 10.0, 10.0)


def test_curate_output_is_sorted():
    boxes = [box("b", 10, "cup"), box("a", 10, "cup"), box("a", 5, "plate")]
    segments = [seg("a", 50, 60, "take", "cup"), seg("a", 40, 70, "wash", "plate"),
                seg("b", 30, 44, "cut", "cup")]
    records = cur.curate(boxes, segments)
    keys = [(r.video_id, r.frame, str(r.noun)) for r in records]
    assert keys == sorted(keys)


def test_curate_fuzz_all_ttc_positive_and_deterministic():
    rng = np.random.default_rng(90)
    for _ in range(20):
        boxes = []
        segments = []
        for v in range(int(rng.integers(1, 3))):
            video = f"v{v}"
            for _ in range(int(rng.integers(1, 12))):
                boxes.append(box(video, int(rng.integers(0, 200)),
                                 str(rng.choice(["cup", "plate", "pan"])),
                                 offset=float(rng.uniform(0, 5))))
            for _ in range(int(rng.integers(0, 4))):
                start = int(rng.integers(1, 250))
                segments.append(seg(video, start, start + int(rng.integers(1, 40)),
                                    str(rng.choice(["take", "wash"])),
                                    str(rng.choice(["cup", "plate", "pan"]))))
        records = cur.curate(boxes, segments)
        assert all(r.ttc > 0 for r in records)
        again = cur.curate(boxes, segments)
        assert records == again


def test_curate_matches_each_track_against_every_segment():
    # curate hands each track only its (video, noun) segments; the result must be
    # that of scanning all of them, with ties on start going to the earlier segment
    rng = np.random.default_rng(91)
    boxes, segments = [], []
    for v in range(3):
        for noun in ("cup", "plate", "pan"):
            for frame in rng.choice(200, size=6, replace=False):
                boxes.append(box(f"v{v}", int(frame), noun))
            for _ in range(4):
                start = int(rng.choice([40, 80, 120, 160, 210]))
                segments.append(seg(f"v{v}", start, start + 5, str(rng.choice(["take", "wash", "cut"])), noun))
    rng.shuffle(segments)
    expected = []
    for track in cur.drop_ambiguous_tracks(cur.build_tracks(boxes), boxes):
        matched = cur.match_track_to_segment(track, segments)
        cut = cur.truncate_track(matched) if matched.segment is not None else None
        expected.extend(cur.emit_sta_records(cut, 30.0) if cut is not None else [])
    expected.sort(key=lambda r: (r.video_id, r.frame, str(r.noun)))
    assert len({(s.video_id, s.noun, s.start) for s in segments}) < len(segments)  # ties are planted
    assert expected and cur.curate(boxes, segments) == expected


def test_curate_records_only_cover_input_frames():
    boxes, segments = golden_input()
    records = cur.curate(boxes, segments)
    input_frames = {(b.video_id, b.frame) for b in boxes}
    assert all((r.video_id, r.frame) in input_frames for r in records)


# ---------------------------------------------------------------------------
# dataclass validation


def test_annotation_validation():
    with pytest.raises(ValueError, match="box"):
        BoxAnnotation("v", 1, "cup", (5.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="frame"):
        BoxAnnotation("v", -1, "cup", (0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="start < stop"):
        ActionSegment("v", 10, 10, "take", "cup")
    with pytest.raises(ValueError, match="at least one frame"):
        ObjectTrack("t", "v", "cup", [])
    with pytest.raises(ValueError, match="nondecreasing"):
        ObjectTrack("t", "v", "cup", [(5, (0, 0, 1, 1)), (3, (0, 0, 1, 1))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_sta_record_rejects_non_finite_or_nonpositive_ttc(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        cur.STARecord("v", 1, (0.0, 0.0, 1.0, 1.0), "cup", "take", bad)


@pytest.mark.parametrize("bad", [(0.0, 0.0, np.inf, np.inf), (-np.inf, 0.0, 1.0, 1.0), (0.0, np.nan, 1.0, 1.0)])
def test_box_annotation_rejects_non_finite_box(bad):
    with pytest.raises(ValueError, match="finite"):
        BoxAnnotation("v", 1, "cup", bad)
