"""Curate interaction ground truth from box and action-segment annotations.

Sparse per-frame object boxes plus temporal action segments become
anticipation records in four steps: (1) chain boxes of the same video and
noun into tracks while the frame gap stays within a limit, (2) discard
tracks touching any frame where the same video/frame/noun carries two or
more boxes (ambiguous instance), (3) attach each surviving track to the
earliest same-noun segment starting at or after the track's first frame
and cut the track at the segment start, (4) emit one record per remaining
frame with the segment's verb and the time to contact
(segment_start - frame) / fps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "DEFAULT_GAP",
    "BoxAnnotation",
    "ActionSegment",
    "ObjectTrack",
    "STARecord",
    "build_tracks",
    "drop_ambiguous_tracks",
    "match_track_to_segment",
    "truncate_track",
    "emit_sta_records",
    "curate",
]

DEFAULT_GAP = 30


@dataclass(frozen=True)
class BoxAnnotation:
    video_id: str
    frame: int
    noun: object
    box: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.box
        if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
            raise ValueError(f"box must be finite with x1 < x2 and y1 < y2, got {self.box}")
        if self.frame < 0:
            raise ValueError(f"frame must be nonnegative, got {self.frame}")


@dataclass(frozen=True)
class ActionSegment:
    video_id: str
    start: int
    stop: int
    verb: object
    noun: object

    def __post_init__(self) -> None:
        if not self.start < self.stop:
            raise ValueError(f"segment must have start < stop, got [{self.start}, {self.stop})")


@dataclass
class ObjectTrack:
    """Chained appearances of one object instance in one video.

    Frames are nondecreasing while a track is being built; once ambiguous
    tracks are dropped they are strictly increasing.
    """

    track_id: str
    video_id: str
    noun: object
    frames: list  # (frame, box) pairs
    segment: ActionSegment | None = None

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a track needs at least one frame")
        for (fa, _), (fb, _) in zip(self.frames, self.frames[1:]):
            if fb < fa:
                raise ValueError("track frames must be nondecreasing")

    @property
    def first_frame(self) -> int:
        return self.frames[0][0]


@dataclass(frozen=True)
class STARecord:
    """One curated anticipation example."""

    video_id: str
    frame: int
    box: tuple[float, float, float, float]
    noun: object
    verb: object
    ttc: float
    split: str = "train"

    def __post_init__(self) -> None:
        if not 0 < self.ttc < math.inf:
            raise ValueError(f"time to contact must be finite and positive, got {self.ttc}")


def build_tracks(boxes: list[BoxAnnotation], gap: int = DEFAULT_GAP) -> list[ObjectTrack]:
    """Chain boxes of the same (video, noun) while frame gaps stay <= gap.

    Boxes sharing a frame land in the same track (zero gap); those tracks
    are ambiguous and fall to drop_ambiguous_tracks.  Output order follows
    first appearance of each (video, noun) in the input.
    """
    if gap < 0:
        raise ValueError(f"gap must be nonnegative, got {gap}")
    grouped: dict = {}
    order: list = []
    for box in boxes:
        key = (box.video_id, box.noun)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(box)
    tracks = []
    for key in order:
        video_id, noun = key
        chain = sorted(grouped[key], key=lambda b: b.frame)
        runs: list[list[BoxAnnotation]] = []
        for box in chain:
            if runs and box.frame - runs[-1][-1].frame <= gap:
                runs[-1].append(box)
            else:
                runs.append([box])
        for k, run in enumerate(runs):
            tracks.append(ObjectTrack(
                track_id=f"{video_id}:{noun}:{k}",
                video_id=video_id,
                noun=noun,
                frames=[(b.frame, b.box) for b in run],
            ))
    return tracks


def drop_ambiguous_tracks(tracks: list[ObjectTrack], boxes: list[BoxAnnotation]) -> list[ObjectTrack]:
    """Remove tracks touching a frame with duplicate same-noun boxes.

    Duplicates of a different noun on the same frame do not disqualify a
    track.
    """
    seen: dict = {}
    for box in boxes:
        key = (box.video_id, box.frame, box.noun)
        seen[key] = seen.get(key, 0) + 1
    ambiguous = {key for key, count in seen.items() if count >= 2}
    kept = []
    for track in tracks:
        if any((track.video_id, frame, track.noun) in ambiguous for frame, _ in track.frames):
            continue
        kept.append(track)
    return kept


def match_track_to_segment(track: ObjectTrack, segments: list[ActionSegment]) -> ObjectTrack:
    """Attach the earliest same-video same-noun segment starting at or
    after the track's first frame; ties on start frame break toward input
    order.  Tracks with no eligible segment come back with segment None.
    """
    best = None
    for idx, seg in enumerate(segments):
        if seg.video_id != track.video_id or seg.noun != track.noun:
            continue
        if seg.start < track.first_frame:
            continue
        if best is None or (seg.start, idx) < best[:2]:
            best = (seg.start, idx, seg)
    return replace(track, segment=best[2] if best else None)


def truncate_track(track: ObjectTrack) -> ObjectTrack | None:
    """Drop frames at or past the matched segment's start.

    Requires a matched segment.  Returns None when nothing is left, which
    drops the track from the pipeline.
    """
    if track.segment is None:
        raise ValueError(f"track {track.track_id!r} has no matched segment to truncate against")
    remaining = [(frame, box) for frame, box in track.frames if frame < track.segment.start]
    if not remaining:
        return None
    return replace(track, frames=remaining)


def emit_sta_records(track: ObjectTrack, fps: float, split: str = "train") -> list[STARecord]:
    """One record per remaining frame; ttc = (segment_start - frame) / fps."""
    if fps <= 0:
        raise ValueError(f"fps must be positive, got {fps}")
    if track.segment is None:
        raise ValueError(f"track {track.track_id!r} has no matched segment")
    return [
        STARecord(
            video_id=track.video_id,
            frame=frame,
            box=box,
            noun=track.noun,
            verb=track.segment.verb,
            ttc=(track.segment.start - frame) / fps,
            split=split,
        )
        for frame, box in track.frames
    ]


def curate(boxes: list[BoxAnnotation], segments: list[ActionSegment], *,
           gap: int = DEFAULT_GAP, fps: float = 30.0, split: str = "train") -> list[STARecord]:
    """Full pipeline; output sorted by (video, frame, noun) for stable files."""
    tracks = drop_ambiguous_tracks(build_tracks(boxes, gap), boxes)
    candidates: dict = {}  # (video, noun) -> its segments, in input order
    for seg in segments:
        candidates.setdefault((seg.video_id, seg.noun), []).append(seg)
    records: list[STARecord] = []
    for track in tracks:
        matched = match_track_to_segment(track, candidates.get((track.video_id, track.noun), []))
        if matched.segment is None:
            continue
        cut = truncate_track(matched)
        if cut is None:
            continue
        records.extend(emit_sta_records(cut, fps, split))
    records.sort(key=lambda r: (r.video_id, r.frame, str(r.noun)))
    return records
