"""Annotation curation tests: each stage's rule as curate input and records, the
staged oracle, and end-to-end fuzz."""

import dataclasses
import math

import numpy as np
import pytest
from helpers import loop_curate
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import curation as cur
from stakit.curation import ActionSegment, BoxAnnotation


def box(video, frame, noun, offset=0.0):
    return BoxAnnotation(video_id=video, frame=frame, noun=noun,
                         box=(offset, offset, offset + 10.0, offset + 10.0))


def seg(video, start, stop, verb, noun):
    return ActionSegment(video_id=video, start=start, stop=stop, verb=verb, noun=noun)


# ---------------------------------------------------------------------------
# the stages, each seen through curate's records


def rows(records):
    return [(r.video_id, r.frame, r.noun, r.verb, r.ttc) for r in records]


def test_contiguous_frames_chain_into_one_track():
    # frame 40 chains on at gap 38, so the track's segment cuts it instead of it taking the later one
    records = cur.curate([box("v", 1, "cup"), box("v", 2, "cup"), box("v", 40, "cup")],
                         [seg("v", 3, 9, "take", "cup"), seg("v", 50, 60, "wash", "cup")], gap=38)
    assert rows(records) == [("v", 1, "cup", "take", 2 / 30), ("v", 2, "cup", "take", 1 / 30)]


def test_gap_splits_tracks():
    segments = [seg("v", 20, 30, "take", "cup"), seg("v", 50, 60, "wash", "cup")]
    boxes = [box("v", 1, "cup"), box("v", 31, "cup")]
    # a gap of exactly 30 chains the boxes, and the track is cut at frame 20
    assert rows(cur.curate(boxes, segments, gap=30)) == [("v", 1, "cup", "take", 19 / 30)]
    # one less splits them, and the second track takes the later segment
    assert rows(cur.curate(boxes, segments, gap=29)) == [("v", 1, "cup", "take", 19 / 30),
                                                          ("v", 31, "cup", "wash", 19 / 30)]


def test_frames_are_sorted_before_chaining():
    segments = [seg("v", 20, 30, "take", "cup"), seg("v", 50, 60, "wash", "cup")]
    records = cur.curate([box("v", 40, "cup"), box("v", 5, "cup")], segments, gap=30)
    assert rows(records) == [("v", 5, "cup", "take", 0.5), ("v", 40, "cup", "wash", 1 / 3)]


def test_different_nouns_and_videos_never_share_a_track():
    boxes = [box("a", 1, "cup"), box("a", 2, "plate"), box("b", 3, "cup")]
    segments = [seg("a", 10, 20, "take", "plate"), seg("b", 10, 20, "wash", "cup")]
    assert rows(cur.curate(boxes, segments)) == [("a", 2, "plate", "take", 8 / 30),
                                                 ("b", 3, "cup", "wash", 7 / 30)]


def test_duplicate_same_noun_frame_drops_only_its_track():
    boxes = [box("v", 10, "plate"), box("v", 30, "plate", offset=1.0), box("v", 30, "plate", offset=5.0),
             box("v", 100, "plate")]
    segments = [seg("v", 50, 60, "take", "plate"), seg("v", 130, 160, "wash", "plate")]
    assert rows(cur.curate(boxes, segments, gap=30)) == [("v", 100, "plate", "wash", 1.0)]
    # at gap 0 the duplicates still share a track, whose only frame is 30
    assert rows(cur.curate(boxes, segments, gap=0)) == [("v", 10, "plate", "take", 40 / 30),
                                                        ("v", 100, "plate", "wash", 1.0)]


def test_duplicates_of_other_nouns_do_not_disqualify():
    boxes = [box("v", 10, "plate"), box("v", 10, "cup"), box("v", 10, "cup", offset=5.0)]
    segments = [seg("v", 40, 50, "take", "plate"), seg("v", 40, 50, "take", "cup")]
    assert rows(cur.curate(boxes, segments)) == [("v", 10, "plate", "take", 1.0)]


def test_match_takes_earliest_starting_segment():
    records = cur.curate([box("v", 10, "cup")], [seg("v", 80, 90, "wash", "cup"), seg("v", 50, 60, "take", "cup")])
    assert rows(records) == [("v", 10, "cup", "take", 40 / 30)]


def test_match_requires_same_noun_and_video():
    boxes = [box("v", 10, "cup")]
    assert cur.curate(boxes, [seg("v", 50, 60, "take", "plate"), seg("w", 50, 60, "take", "cup")]) == []


def test_match_ignores_segments_starting_before_the_track():
    records = cur.curate([box("v", 10, "cup")], [seg("v", 5, 60, "take", "cup"), seg("v", 40, 60, "wash", "cup")])
    assert rows(records) == [("v", 10, "cup", "wash", 1.0)]


def test_match_tie_breaks_toward_input_order():
    records = cur.curate([box("v", 10, "cup")],
                         [seg("v", 50, 60, "first", "cup"), seg("v", 50, 70, "second", "cup")])
    assert [r.verb for r in records] == ["first"]


def test_track_is_cut_at_the_segment_start():
    boxes = [box("v", 10, "cup"), box("v", 20, "cup"), box("v", 25, "cup"), box("v", 30, "cup")]
    records = cur.curate(boxes, [seg("v", 25, 60, "take", "cup")])
    # the boundary frame 25 is cut along with the frames past it
    assert rows(records) == [("v", 10, "cup", "take", 0.5), ("v", 20, "cup", "take", 1 / 6)]


def test_track_starting_on_the_segment_start_is_cut_to_nothing():
    boxes = [box("v", 25, "cup"), box("v", 30, "cup")]
    assert cur.curate(boxes, [seg("v", 25, 60, "take", "cup")]) == []


def test_time_to_contact_arithmetic():
    boxes = [box("v", 300, "cup", offset=1.0), box("v", 320, "cup"), box("v", 335, "cup")]
    records = cur.curate(boxes, [seg("v", 336, 400, "take", "cup")], fps=30.0)
    assert rows(records) == [("v", 300, "cup", "take", 1.2), ("v", 320, "cup", "take", 16 / 30),
                             ("v", 335, "cup", "take", 1 / 30)]
    assert records[0].box == (1.0, 1.0, 11.0, 11.0)
    assert rows(cur.curate(boxes, [seg("v", 336, 400, "take", "cup")], fps=10.0))[0][4] == 3.6


@pytest.mark.parametrize("kwargs, match", [
    ({"fps": 0.0}, "fps"), ({"fps": -30.0}, "fps"), ({"fps": math.nan}, "fps"), ({"fps": math.inf}, "fps"),
    ({"gap": -1}, "gap"),
])
def test_curate_validates_fps_and_gap_before_any_work(kwargs, match):
    with pytest.raises(ValueError, match=match):
        cur.curate([], [], **kwargs)
    with pytest.raises(ValueError, match=match):
        cur.curate([box("v", 10, "cup")], [seg("v", 50, 60, "take", "cup")], **kwargs)


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
    assert rows(records) == [
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
    expected = [cur.STARecord(*r) for r in loop_curate(boxes, segments, cur.DEFAULT_GAP, 30.0)]
    assert len({(s.video_id, s.noun, s.start) for s in segments}) < len(segments)  # ties are planted
    assert expected and cur.curate(boxes, segments) == expected


NOUNS = st.sampled_from([1, "1", "cup"])  # 1 and "1" are two nouns that sort as equal strings


@st.composite
def annotations(draw):
    """Segments on few starts, so starts tie, and boxes half of the time on a start frame,
    so frames repeat and tracks begin or end on a segment start."""
    videos = st.sampled_from(["v0", "v1", "v2"])
    starts = st.sampled_from([0, 10, 25, 40, 60, 90, 130])
    frames = st.integers(0, 140) | starts
    boxes = draw(st.lists(st.builds(box, videos, frames, NOUNS, st.floats(0, 5)), max_size=25))
    segments = draw(st.lists(st.builds(lambda v, a, verb, noun: seg(v, a, a + 5, verb, noun),
                                       videos, starts, st.sampled_from(["take", "wash", 7]), NOUNS),
                             max_size=12))
    return boxes, segments


@settings(max_examples=300)
@given(data=annotations(), gap=st.sampled_from([0, 30]), fps=st.sampled_from([30.0, 25.0, 59.94]))
def test_curate_equals_the_staged_oracle(data, gap, fps):
    boxes, segments = data
    expected = [cur.STARecord(*r) for r in loop_curate(boxes, segments, gap, fps, "val")]
    assert cur.curate(boxes, segments, gap=gap, fps=fps, split="val") == expected


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


def test_box_annotation_holds_its_own_corners():
    corners = [0.0, 0.0, 10.0, 10.0]
    annotation = BoxAnnotation("v", 1, "cup", corners)
    corners[2] = -5.0  # the row holds its own copy of the corners it checked
    assert annotation.box == (0.0, 0.0, 10.0, 10.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        annotation.box = (3.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_sta_record_rejects_non_finite_or_nonpositive_ttc(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        cur.STARecord("v", 1, (0.0, 0.0, 1.0, 1.0), "cup", "take", bad)


@pytest.mark.parametrize("bad", [(0.0, 0.0, np.inf, np.inf), (-np.inf, 0.0, 1.0, 1.0), (0.0, np.nan, 1.0, 1.0)])
def test_box_annotation_rejects_non_finite_box(bad):
    with pytest.raises(ValueError, match="finite"):
        BoxAnnotation("v", 1, "cup", bad)
