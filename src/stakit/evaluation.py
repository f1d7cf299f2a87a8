"""Top-5 mean average precision for anticipated interactions.

Protocol: per image, only the five highest-scored detections are kept
(ties break toward input order).  Per noun class, kept detections are
greedily assigned to ground-truth boxes in descending score order; a
detection takes the unassigned same-class box with the highest IoU at or
above the threshold.  The assignment depends on boxes and nouns only and
is shared by all criteria; each criterion then accepts or rejects the
assigned pair through its extra conditions (verb equality,
time-to-contact proximity within the tolerance).  The IoU threshold and
the ttc tolerance are set once per evaluation, so sharing the assignment
guarantees the nesting overall <= noun_verb/noun_ttc <= noun for every
input.  AP uses all-point interpolation (the precision envelope);
mAP averages over the noun classes present in the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "GroundTruth",
    "MatchCriterion",
    "EvalReport",
    "standard_criteria",
    "iou",
    "assign_matches",
    "evaluate",
    "relative_gain",
    "diff_reports",
]


@dataclass
class GroundTruth:
    """Annotated next interaction for one image."""

    uid: str
    box: tuple[float, float, float, float]
    noun: object
    verb: object
    ttc: float

    def __post_init__(self) -> None:
        x1, y1, x2, y2 = self.box
        if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
            raise ValueError(f"box must be finite with x1 < x2 and y1 < y2, got {self.box}")
        if not 0 < self.ttc < math.inf:
            raise ValueError(f"time to contact must be finite and positive, got {self.ttc}")


@dataclass(frozen=True)
class MatchCriterion:
    """What a matched prediction must get right to count as a true positive."""

    name: str
    require_verb: bool = False
    require_ttc: bool = False

    def accepts(self, det, gt, ttc_tolerance: float) -> bool:
        if self.require_verb and det.verb != gt.verb:
            return False
        if self.require_ttc and abs(det.ttc - gt.ttc) > ttc_tolerance:
            return False
        return True


def standard_criteria() -> list[MatchCriterion]:
    """The four report columns: noun, noun+verb, noun+ttc, overall."""
    return [
        MatchCriterion("noun"),
        MatchCriterion("noun_verb", require_verb=True),
        MatchCriterion("noun_ttc", require_ttc=True),
        MatchCriterion("overall", require_verb=True, require_ttc=True),
    ]


def iou(a: tuple, b: tuple) -> float:
    """Intersection over union of two (x1, y1, x2, y2) boxes.

    Degenerate boxes (zero or negative area) have IoU 0 with everything.
    """
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0 or area_b <= 0:
        return 0.0
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


@dataclass
class EvalReport:
    """mAP per criterion plus the per-class AP tables behind them."""

    maps: dict
    per_class: dict
    counts: dict
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "maps": {k: float(v) for k, v in self.maps.items()},
            "per_class": {
                crit: {str(cls): float(ap) for cls, ap in table.items()}
                for crit, table in self.per_class.items()
            },
            "counts": {k: int(v) for k, v in self.counts.items()},
            "params": dict(self.params),
        }


def _top_k(dets_with_idx: list, k: int) -> list:
    ranked = sorted(dets_with_idx, key=lambda pair: -pair[0].score)
    return ranked[:k]


def assign_matches(dets_sorted: list, gts: list, iou_threshold: float) -> list:
    """Greedy box assignment for one image and one noun class.

    dets_sorted must already be in descending score order.  Each detection
    takes the unassigned ground truth with the highest IoU at or above the
    threshold (ties toward the earlier ground truth); returns one ground
    truth index or None per detection.
    """
    taken = [False] * len(gts)
    assigned = []
    for det in dets_sorted:
        best_j = None
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if taken[j]:
                continue
            overlap = iou(det.box, gt.box)
            if overlap >= iou_threshold and (best_j is None or overlap > best_iou):
                best_j, best_iou = j, overlap
        if best_j is not None:
            taken[best_j] = True
        assigned.append(best_j)
    return assigned


def _average_precision(rows: list, npos: int) -> float:
    """All-point interpolated AP from (score, order, is_tp) rows."""
    if not rows:
        return 0.0
    rows = sorted(rows, key=lambda r: (-r[0], r[1]))
    recalls = []
    precisions = []
    tp = 0
    fp = 0
    for _, _, flag in rows:
        if flag:
            tp += 1
        else:
            fp += 1
        recalls.append(tp / npos)
        precisions.append(tp / (tp + fp))
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    prev = 0.0
    for r, p in zip(recalls, precisions):
        if r > prev:
            ap += (r - prev) * p
            prev = r
    return ap


def _image_assignments(retained: list, gts_img: list, iou_threshold: float) -> list:
    """(detection, index, assigned ground truth or None) for one image's kept detections."""
    by_class: dict = {}
    for det, idx in retained:
        by_class.setdefault(det.noun, []).append((det, idx))
    gt_by_class: dict = {}
    for gt in gts_img:
        gt_by_class.setdefault(gt.noun, []).append(gt)
    matches = []
    for cls, dets_cls in by_class.items():
        gts_cls = gt_by_class.get(cls, [])
        assigned = assign_matches([d for d, _ in dets_cls], gts_cls, iou_threshold)
        for (det, idx), j in zip(dets_cls, assigned):
            matches.append((det, idx, gts_cls[j] if j is not None else None))
    return matches


def evaluate(dets: list, gts: list, criteria: list | None = None, *, top_k: int = 5,
             iou_threshold: float = 0.5, ttc_tolerance: float = 0.25) -> EvalReport:
    """Score detections against ground truth under every criterion.

    Images are identified by uid, and the ground-truth uids define the
    image set.  One box assignment at iou_threshold is shared by every
    criterion, and the criteria that require a time to contact accept it
    within ttc_tolerance seconds.  Classes that appear in the ground
    truth but attract no predictions score AP 0; predicted classes absent
    from the ground truth are ignored.
    """
    if not gts:
        raise ValueError("ground truth is empty, mAP is undefined")
    if top_k < 1:
        raise ValueError(f"top_k must be at least 1, got {top_k}")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")
    if not ttc_tolerance > 0:
        raise ValueError(f"ttc_tolerance must be positive, got {ttc_tolerance}")
    criteria = list(criteria) if criteria is not None else standard_criteria()
    if not criteria:
        raise ValueError("at least one criterion is required")
    names = [c.name for c in criteria]
    if len(set(names)) != len(names):
        raise ValueError(f"criterion names must be unique, got {names}")

    gts_by_uid: dict = {}
    for gt in gts:
        gts_by_uid.setdefault(gt.uid, []).append(gt)
    for det in dets:
        if det.uid not in gts_by_uid:
            raise ValueError(f"detection references unknown image {det.uid!r}")

    dets_by_uid: dict = {}
    for idx, det in enumerate(dets):
        dets_by_uid.setdefault(det.uid, []).append((det, idx))

    retained_by_uid = {uid: _top_k(pairs, top_k) for uid, pairs in dets_by_uid.items()}
    kept = sum(len(v) for v in retained_by_uid.values())

    per_image = [_image_assignments(retained_by_uid[uid], gts_by_uid[uid], iou_threshold)
                 for uid in sorted(retained_by_uid)]

    npos: dict = {}
    for gt in gts:
        npos[gt.noun] = npos.get(gt.noun, 0) + 1
    classes = sorted(npos, key=str)

    rows: dict = {c.name: {cls: [] for cls in classes} for c in criteria}
    for assignments in per_image:
        for crit in criteria:
            for det, idx, gt in assignments:
                if det.noun not in npos:
                    continue  # predicted class absent from ground truth
                flag = gt is not None and crit.accepts(det, gt, ttc_tolerance)
                rows[crit.name][det.noun].append((det.score, idx, flag))

    per_class = {}
    maps = {}
    for crit in criteria:
        table = {cls: _average_precision(rows[crit.name][cls], npos[cls]) for cls in classes}
        per_class[crit.name] = table
        total = 0.0
        for cls in classes:
            total += table[cls]
        maps[crit.name] = total / len(classes)

    return EvalReport(
        maps=maps,
        per_class=per_class,
        counts={"images": len(gts_by_uid), "ground_truth": len(gts), "predictions_kept": kept},
        params={"top_k": top_k,
                "iou_thresholds": [iou_threshold],
                "criteria": names},
    )


def relative_gain(x: float, y: float) -> float | None:
    """Percent improvement of x over baseline y; None when y is 0."""
    if y == 0:
        return None
    return 100.0 * (x - y) / y


def diff_reports(a: EvalReport, b: EvalReport) -> list[dict]:
    """Per-metric comparison of two reports sharing a criterion set."""
    if set(a.maps) != set(b.maps):
        raise ValueError(f"criterion sets differ: {sorted(a.maps)} vs {sorted(b.maps)}")
    out = []
    for name in a.maps:
        x, y = float(a.maps[name]), float(b.maps[name])
        gain = relative_gain(x, y)
        out.append({
            "metric": name,
            "a": x,
            "b": y,
            "delta": x - y,
            "relative_gain_pct": gain,
            "gain_defined": gain is not None,
        })
    return out
