"""Top-5 mean average precision for anticipated interactions.

Protocol: per image, only the five highest-scored detections are kept
(ties break toward input order).  Per image and noun class, kept
detections are greedily assigned to ground-truth boxes in descending
score order; a detection takes the unassigned same-class box with the
highest IoU at or above the threshold, the earlier box on ties.  Every
(image, class) group assigns at once, one array step per rank, from one
elementwise IoU pass over each kept detection's group.  The assignment
depends on boxes and nouns only and is shared by all criteria; each
criterion then accepts or rejects the assigned pair through its extra
conditions (verb equality, time-to-contact proximity within the
tolerance).  The IoU threshold and
the ttc tolerance are set once per evaluation, so sharing the assignment
guarantees the nesting overall <= noun_verb/noun_ttc <= noun for every
input.  AP uses all-point interpolation (the precision envelope);
mAP averages over the noun classes present in the ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hotspot import Detections

__all__ = [
    "GroundTruth",
    "MatchCriterion",
    "EvalReport",
    "standard_criteria",
    "evaluate",
    "relative_gain",
    "diff_reports",
]


@dataclass(frozen=True)
class GroundTruth:
    """Annotated next interaction for one image; frozen, so the checks it passed when built still hold."""

    uid: str
    box: tuple[float, float, float, float]
    noun: object
    verb: object
    ttc: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", tuple(self.box))  # a list given as box could change after the check
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

    def holds(self, verb_ok, ttc_ok):
        """Whether a matched pair counts, given whether its verb and its time to contact agree.

        Takes booleans or boolean arrays, elementwise.
        """
        return (verb_ok | (not self.require_verb)) & (ttc_ok | (not self.require_ttc))


def standard_criteria() -> list[MatchCriterion]:
    """The four report columns: noun, noun+verb, noun+ttc, overall."""
    return [
        MatchCriterion("noun"),
        MatchCriterion("noun_verb", require_verb=True),
        MatchCriterion("noun_ttc", require_ttc=True),
        MatchCriterion("overall", require_verb=True, require_ttc=True),
    ]


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


def _match(row_key: np.ndarray, boxes: np.ndarray, gt_key: np.ndarray, gt_boxes: np.ndarray,
           iou_threshold: float) -> np.ndarray:
    """Greedy box assignment of every group at once: the ground truth index each row takes, or -1.

    Row i (box boxes[i]) may take the ground truth of its key, an (image,
    class) group id; key -1 takes none.  A group's rows come in descending
    score order and each takes the untaken box of its group with the
    highest IoU at or above the threshold, the earlier box on ties; groups
    share no ground truth, so step t lets the t-th row of every group
    choose.  One elementwise pass over the padded groups keeps the per-pair
    IoU formula operation for operation: a degenerate box or no overlap
    never matches, and overflowing areas go to inf and nan silently, as
    Python floats do.
    """
    by_key = np.argsort(gt_key, kind="stable")  # ground truth grouped by key, input order within each
    sorted_key = gt_key[by_key]
    start = np.searchsorted(sorted_key, row_key, "left")
    size = np.searchsorted(sorted_key, row_key, "right") - start
    rows = np.flatnonzero(size)  # the rows whose group holds ground truth
    start, size = start[rows], size[rows]
    slot = np.arange(size.max(initial=0))
    valid = slot < size[:, None]
    cand = np.where(valid, start[:, None] + slot, 0)  # sorted positions of each row's ground truth, padded
    a, b = boxes[rows][:, None, :], gt_boxes[by_key[cand]]
    with np.errstate(all="ignore"):
        area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
        area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = iw * ih
        overlap = inter / (area_a + area_b - inter)
    eligible = valid & ~((area_a <= 0) | (area_b <= 0) | (iw <= 0) | (ih <= 0)) & (overlap >= iou_threshold)
    by_group = np.argsort(start, kind="stable")  # rows of one group share start, and keep their order
    grouped = start[by_group]
    rank = np.arange(len(rows)) - np.searchsorted(grouped, grouped)  # of the rows by_group lists
    taken = np.zeros(len(gt_key), dtype=bool)  # by sorted position
    match = np.full(len(row_key), -1, dtype=np.intp)
    for step in range(rank.max(initial=-1) + 1):
        at = by_group[rank == step]
        free = eligible[at] & ~taken[cand[at]]
        pick = np.argmax(np.where(free, overlap[at], -np.inf), axis=1)  # the first of equal maxima
        hit = free[np.arange(len(at)), pick]
        chosen = cand[at[hit], pick[hit]]
        taken[chosen] = True
        match[rows[at[hit]]] = by_key[chosen]
    return match


def _average_precisions(classes: np.ndarray, flags: np.ndarray, npos: list) -> np.ndarray:
    """All-point interpolated AP of every (criterion, class), in one array pass.

    Row i of the ranking is a detection of class classes[i], a true positive
    (a hit) under criterion c when flags[i, c]; the rows of each class come
    in rank order (descending score, then input order), and npos[k] counts
    class k's ground truth.  The loop over one class's ranks takes recall
    and precision at each rank, runs the precision envelope from the last
    rank back, and sums each recall step times the envelope from the first
    rank on.  Recall steps at hits only, and a miss at rank j after the
    k-th hit has precision k / j, at most the k / r of that hit at rank r
    (in float too: division rounds monotonically), so the envelope at
    every hit is the same over the hits alone.  Each
    (criterion, class) is therefore one row of hits, padded with zeros to
    the most hits of any row, and every step keeps the loop's float
    operations in their order.  Returns a (criteria, classes) array; a
    class without hits scores 0.
    """
    n_criteria, n_classes = flags.shape[1], len(npos)
    counts = np.bincount(classes, minlength=n_classes)
    rank = np.arange(1, len(classes) + 1) - (np.cumsum(counts) - counts)[classes]  # within the class, from 1
    criterion, row = np.nonzero(flags.T)  # hits by criterion, then in rank order within each class
    segment = criterion * n_classes + classes[row]
    hits = np.bincount(segment, minlength=n_criteria * n_classes)
    ap = np.zeros(n_criteria * n_classes)
    if len(segment):
        tp = np.arange(1, len(segment) + 1) - (np.cumsum(hits) - hits)[segment]  # hits so far in the row
        slot = (segment, tp - 1)
        envelope = np.zeros((len(hits), hits.max()))
        envelope[slot] = tp / rank[row]
        envelope = np.maximum.accumulate(envelope[:, ::-1], axis=1)[:, ::-1]
        total = np.asarray(npos)[classes[row]]
        steps = np.zeros_like(envelope)
        steps[slot] = (tp / total - (tp - 1) / total) * envelope[slot]
        ap = np.add.accumulate(steps, axis=1)[:, -1]
    return ap.reshape(n_criteria, n_classes)


def evaluate(dets, gts: list, criteria: list | None = None, *, top_k: int = 5,
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

    dets = Detections.of(dets)
    image_of: dict = {}  # image uid -> its position
    npos: dict = {}
    for gt in gts:
        image_of.setdefault(gt.uid, len(image_of))
        npos[gt.noun] = npos.get(gt.noun, 0) + 1
    try:
        image = np.fromiter(map(image_of.__getitem__, dets.uids), np.intp, len(dets))
    except KeyError as exc:  # raised at the earliest unknown uid
        raise ValueError(f"detection references unknown image {exc.args[0]!r}") from None
    classes = sorted(npos, key=str)
    position = {cls: k for k, cls in enumerate(classes)}

    # the top_k highest-scored detections of each image, ties toward input order
    scores = dets.scores
    ranked = np.lexsort((-scores, image))  # by image, then descending score; lexsort is stable
    counts = np.bincount(image, minlength=len(image_of))
    place = np.arange(len(dets)) - (np.cumsum(counts) - counts)[image[ranked]]  # rank within the image
    kept = ranked[place < top_k]

    # one row per kept detection: its class (-1 if absent from the ground truth) and a flag per criterion
    nouns, verbs = dets.nouns, dets.verbs
    row_class = np.fromiter([position.get(nouns[idx], -1) for idx in kept.tolist()], np.intp, len(kept))
    # boxes match within an (image, class) group, in descending score order
    gt_key = np.fromiter([image_of[g.uid] * len(classes) + position[g.noun] for g in gts], np.intp, len(gts))
    row_key = np.where(row_class >= 0, image[kept] * len(classes) + row_class, -1)
    match = _match(row_key, dets.boxes[kept], gt_key, np.array([g.box for g in gts], dtype=np.float64),
                   iou_threshold)
    matched = np.flatnonzero(match >= 0)  # kept rows assigned a ground truth
    at, pair = kept[matched], match[matched].tolist()
    verb_ok = np.array([verbs[i] == gts[j].verb for i, j in zip(at.tolist(), pair)], dtype=bool)
    ttc_ok = np.abs(dets.ttc[at] - np.array([gts[j].ttc for j in pair], dtype=np.float64)) <= ttc_tolerance
    flags = np.zeros((len(kept), len(criteria)), dtype=bool)
    for c, crit in enumerate(criteria):
        flags[matched, c] = crit.holds(verb_ok, ttc_ok)
    rows = np.flatnonzero(row_class >= 0)
    index = kept[rows]
    order = rows[np.lexsort((index, -scores[index], row_class[rows]))]
    ap = _average_precisions(row_class[order], flags[order], [npos[cls] for cls in classes])
    per_class = {name: dict(zip(classes, row)) for name, row in zip(names, ap.tolist())}
    # the mean adds the classes in order, left to right, as a loop would
    maps = dict(zip(names, (np.add.accumulate(ap, axis=1)[:, -1] / len(classes)).tolist()))

    return EvalReport(
        maps=maps,
        per_class=per_class,
        counts={"images": len(image_of), "ground_truth": len(gts), "predictions_kept": len(kept)},
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
