"""Curate interaction ground truth from box and action-segment annotations.

Sparse per-frame object boxes plus temporal action segments become
anticipation records in one pass over the boxes of each (video, noun):
(1) sorted by frame, they split into tracks wherever the frame gap exceeds
a limit, (2) a track holding two boxes on one frame is an ambiguous
instance and is dropped, (3) each other track attaches to the earliest
segment of its video and noun starting at or after its first frame and is
cut at the segment start, (4) every remaining frame becomes one record with
the segment's verb and the time to contact (segment_start - frame) / fps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DEFAULT_GAP",
    "BoxAnnotation",
    "ActionSegment",
    "STARecord",
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


def curate(boxes: list[BoxAnnotation], segments: list[ActionSegment], *,
           gap: int = DEFAULT_GAP, fps: float = 30.0, split: str = "train") -> list[STARecord]:
    """One record per frame of each unambiguous track before its segment.

    A track is a run of boxes of one (video, noun) whose frames, sorted,
    stay within ``gap`` of each other.  Boxes sharing a frame land in the
    same track, which is dropped.  Among equal segment starts the earlier
    segment in ``segments`` wins.  Output is sorted by (video, frame, noun)
    for stable files.
    """
    if not 0 < fps < math.inf:
        raise ValueError(f"fps must be finite and positive, got {fps}")
    if gap < 0:
        raise ValueError(f"gap must be nonnegative, got {gap}")
    groups: dict = {}  # (video, noun) -> its boxes; keys in order of first appearance
    for box in boxes:
        groups.setdefault((box.video_id, box.noun), []).append(box)
    candidates: dict = {}  # (video, noun) -> its segments, in input order
    for seg in segments:
        candidates.setdefault((seg.video_id, seg.noun), []).append(seg)
    records: list[STARecord] = []
    for (video_id, noun), group in groups.items():
        group.sort(key=lambda b: b.frame)
        group_segments = candidates.get((video_id, noun), ())
        runs = [[group[0]]]
        for prev, box in zip(group, group[1:]):
            if box.frame - prev.frame <= gap:
                runs[-1].append(box)
            else:
                runs.append([box])
        for run in runs:
            if any(a.frame == b.frame for a, b in zip(run, run[1:])):
                continue  # ambiguous: two boxes on one frame
            first = run[0].frame
            segment = min((s for s in group_segments if s.start >= first), key=lambda s: s.start, default=None)
            if segment is None:
                continue  # no segment starts at or after the track
            if segment.start == first:
                continue  # the segment starts on the first frame: nothing is left before it
            records.extend(STARecord(video_id, b.frame, b.box, noun, segment.verb,
                                     (segment.start - b.frame) / fps, split)
                           for b in run if b.frame < segment.start)
    records.sort(key=lambda r: (r.video_id, r.frame, str(r.noun)))
    return records
