"""Interaction hotspot maps, the detections table, and score re-weighting.

A hotspot map is a per-image probability grid over pixel locations.
Detections travel as one Detections table of columns, from the reader
through re-weighting, fusion and evaluation to the writer; a Detection is
one row of it.  Re-weighting multiplies every detection's confidence by
the hotspot probability sampled at its box centre; scores are
deliberately left un-normalised afterwards so that absolute confidences
stay comparable across images.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "HotspotMap",
    "Detection",
    "Detections",
    "reweight",
    "upsample_map",
    "synth_gaussian_map",
]


@dataclass
class HotspotMap:
    """Probability grid for one image, indexed by the image uid."""

    uid: str
    p: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.ndim != 2 or self.p.size == 0:
            raise ValueError(f"hotspot grid must be a nonempty 2-D array, got shape {self.p.shape}")
        if not np.all(np.isfinite(self.p)):
            raise ValueError("hotspot probabilities must be finite")
        if np.any(self.p < 0):
            raise ValueError("hotspot probabilities must be nonnegative")
        total = float(self.p.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"hotspot grid must sum to 1, got {total!r}")

    @property
    def h(self) -> int:
        return self.p.shape[0]

    @property
    def w(self) -> int:
        return self.p.shape[1]

    @classmethod
    def uniform(cls, uid: str, h: int, w: int) -> "HotspotMap":
        if h <= 0 or w <= 0:
            raise ValueError(f"grid size must be positive, got ({h}, {w})")
        return cls(uid=uid, p=np.full((h, w), 1.0 / (h * w)))


@dataclass(frozen=True)
class Detection:
    """One anticipated interaction: box, labels, time to contact, score.

    noun and verb are opaque ids except on the affordance-fusion path,
    where they must index the label vocabularies.  The optional
    probability vectors feed that fusion.  A row is frozen, so the checks
    it passed when it was built still hold: assigning to a field raises.
    """

    uid: str
    box: tuple[float, float, float, float]
    noun: object
    verb: object
    ttc: float
    score: float
    noun_probs: np.ndarray | None = None
    verb_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", tuple(self.box))  # a list given as box could change after the check
        x1, y1, x2, y2 = self.box
        if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
            raise ValueError(f"box must be finite with x1 < x2 and y1 < y2, got {self.box}")
        if not 0 < self.ttc < math.inf:
            raise ValueError(f"time to contact must be finite and positive, got {self.ttc}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


def _frozen(values, shape: tuple) -> np.ndarray:
    """values as a read-only float64 array of shape; an array that already is one is shared, not copied."""
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and not values.flags.writeable):
        values = np.array(values, dtype=np.float64)
        values.flags.writeable = False
    if values.size == 0:
        values = values.reshape(shape)
    if values.shape != shape:
        raise ValueError(f"expected a column of shape {shape}, got {values.shape}")
    return values


# Detection's checks on each numeric column: the rows that pass them
_PASSES = {
    "boxes": lambda b: np.isfinite(b).all(axis=1) & (b[:, 0] < b[:, 2]) & (b[:, 1] < b[:, 3]),
    "ttc": lambda ttc: (0 < ttc) & (ttc < math.inf),
    "scores": lambda score: (0.0 <= score) & (score <= 1.0),
}
_ROW = operator.attrgetter(*(f.name for f in dataclasses.fields(Detection)))  # a row's fields, in column order


class Detections:
    """Detections as columns, one row per anticipated interaction, in input order.

    uids, nouns and verbs are tuples; boxes is a read-only (n, 4) float64
    array of (x1, y1, x2, y2) rows, and ttc and scores are read-only (n,)
    float64 arrays.  noun_probs and verb_probs hold one vector or None per
    row, of any lengths; None for the whole column means None in every row.
    Construction converts each column, sharing one that already has its
    final type, and checks every row as Detection does, raising the error
    of the earliest row that fails.  A table is never changed in place:
    replace makes a new one.  Indexing or iterating gives Detection rows.
    """

    __slots__ = ("uids", "boxes", "nouns", "verbs", "ttc", "scores", "noun_probs", "verb_probs")

    def __init__(self, uids, boxes, nouns, verbs, ttc, scores, noun_probs=None, verb_probs=None):
        self._fill(dict(zip(self.__slots__, (uids, boxes, nouns, verbs, ttc, scores, noun_probs, verb_probs))),
                   len(uids))
        self._check(_PASSES)

    def _fill(self, columns: dict, n: int) -> None:
        """Set the given columns of n rows, converted."""
        for name, column in columns.items():
            if name in _PASSES:
                column = _frozen(column, (n, 4) if name == "boxes" else (n,))
            elif column is None and name.endswith("_probs"):
                column = (None,) * n
            else:
                column = tuple(column)
            if len(column) != n:
                raise ValueError(f"column {name!r} holds {len(column)} rows, expected {n}")
            object.__setattr__(self, name, column)

    def _check(self, names) -> None:
        """Raise the error of the earliest row that fails Detection's checks on the numeric columns in names."""
        passes = np.True_
        for name, test in _PASSES.items():
            if name in names:
                passes = passes & test(getattr(self, name))
        if not passes.all():
            self[int(np.argmin(passes))]  # the earliest faulty row raises its own error
            raise AssertionError("the array checks rejected a row that passes every check")

    def __setattr__(self, name, value):
        raise AttributeError(f"a Detections table is not changed in place; replace({name}=...) makes a new one")

    def replace(self, **columns) -> "Detections":
        """A table with the given columns swapped in, converted and checked; it shares every other column."""
        new = object.__new__(Detections)
        for name in self.__slots__:
            object.__setattr__(new, name, getattr(self, name))
        new._fill(columns, len(self))
        new._check(columns)
        return new

    @classmethod
    def of(cls, detections) -> "Detections":
        """A table as it is, or the table of an iterable of Detection rows.

        The rows are not checked again: each passed its checks when it was
        built, and a frozen row cannot have changed since.
        """
        if isinstance(detections, cls):
            return detections
        rows = list(detections)
        table = object.__new__(cls)
        columns = zip(*map(_ROW, rows)) if rows else [()] * len(cls.__slots__)
        table._fill(dict(zip(cls.__slots__, columns)), len(rows))
        return table

    def __len__(self) -> int:
        return len(self.uids)

    def __getitem__(self, i) -> Detection:
        i = operator.index(i)
        return Detection(self.uids[i], tuple(self.boxes[i].tolist()), self.nouns[i], self.verbs[i],
                         float(self.ttc[i]), float(self.scores[i]), self.noun_probs[i], self.verb_probs[i])

    def __iter__(self):
        for uid, box, *rest in zip(self.uids, self.boxes.tolist(), self.nouns, self.verbs, self.ttc.tolist(),
                                   self.scores.tolist(), self.noun_probs, self.verb_probs):
            yield Detection(uid, tuple(box), *rest)


def _sample(cells: np.ndarray, layout: np.ndarray, points: np.ndarray, bilinear: bool) -> np.ndarray:
    """Probability at each image point points[i] = (x, y), in one array pass.

    layout[i] = (start, h, w) places point i's map: an (h, w) grid stored
    row-major in cells from start on; one (3,) layout serves every point.
    Nearest sampling reads the cell containing the point, bilinear sampling
    interpolates between the cell centres at (col + 0.5, row + 0.5), and
    points outside the grid clamp to its border cells.  Clamping happens in
    float, before the cast to an index, so any finite or infinite
    coordinate is safe.
    """
    if np.isnan(points).any():
        raise ValueError("sampling point must not be NaN")
    start, w = layout[..., 0], layout[..., 2]
    size = layout[..., :0:-1]  # (w, h), the bounds of (x, y)
    if not bilinear:
        col, row = np.minimum(np.maximum(np.floor(points), 0.0), size - 1.0).astype(np.intp).T
        return cells[start + row * w + col]
    s = np.minimum(np.maximum(points - 0.5, 0.0), size - 1.0)
    fx, fy = (s - np.floor(s)).T
    lo = s.astype(np.intp)  # s >= 0, so truncation is floor
    (x0, y0), (x1, y1) = lo.T, np.minimum(lo + 1, size - 1).T
    row0, row1 = start + y0 * w, start + y1 * w
    top = cells[row0 + x0] * (1 - fx) + cells[row0 + x1] * fx
    bot = cells[row1 + x0] * (1 - fx) + cells[row1 + x1] * fx
    return top * (1 - fy) + bot * fy


def reweight(detections, maps: dict[str, HotspotMap], *, bilinear: bool = False) -> Detections:
    """Multiply each detection's score by the hotspot value at its centre.

    Every detection uid must have a map, or the earliest detection without
    one is named before any score is computed.  Returns a table that shares
    every column with the input but the scores, which are not
    renormalised.  All detections are sampled in one array pass, whatever
    the shapes of their maps.
    """
    dets = Detections.of(detections)
    used = {}  # uid -> its map, in the order of the uids' first detections
    for uid in dict.fromkeys(dets.uids):
        used[uid] = maps.get(uid)
        if used[uid] is None:
            raise ValueError(f"no hotspot map for image {uid!r}")
    if not dets:
        return dets
    if len(used) == 1:  # one image: its own grid, and one layout for every point
        [hmap] = used.values()
        cells, layout = hmap.p.ravel(), np.array([0, *hmap.p.shape])
    else:
        slot = {uid: k for k, uid in enumerate(used)}
        starts = itertools.accumulate((hmap.p.size for hmap in used.values()), initial=0)
        layout = np.array([(start, *hmap.p.shape) for start, hmap in zip(starts, used.values())])
        layout = layout[np.fromiter(map(slot.__getitem__, dets.uids), np.intp, len(dets))]
        cells = np.concatenate([hmap.p.ravel() for hmap in used.values()])
    values = _sample(cells, layout, 0.5 * (dets.boxes[:, :2] + dets.boxes[:, 2:]), bilinear)
    return dets.replace(scores=dets.scores * values)


def upsample_map(hmap: HotspotMap, h: int, w: int) -> HotspotMap:
    """Bilinearly resize a map to (h, w) and renormalise to sum 1.

    The total adds the cells column by column when the shape changes and
    row by row when it does not, so the renormalised map has the bits of
    dividing by the sum of a two-row-gather resize, whose result is laid
    out column-major (``tests/helpers.py::gather_bilinear``).
    """
    resized = linalg.bilinear_resize(hmap.p[:, :, None], h, w)[:, :, 0]
    order = "C" if resized.shape == hmap.p.shape else "F"
    return HotspotMap(uid=hmap.uid, p=resized / resized.ravel(order=order).sum())


def synth_gaussian_map(uid: str, h: int, w: int,
                       centers: list[tuple[float, float, float]]) -> HotspotMap:
    """Normalised sum of isotropic Gaussians rasterised on the grid.

    centers holds (x, y, sigma) triples evaluated at cell centres
    (col + 0.5, row + 0.5).  No centers means a uniform map.  Synthetic
    fixture helper, not a learned predictor.
    """
    if h <= 0 or w <= 0:
        raise ValueError(f"grid size must be positive, got ({h}, {w})")
    if not centers:
        return HotspotMap.uniform(uid, h, w)
    ys = np.arange(h, dtype=np.float64) + 0.5
    xs = np.arange(w, dtype=np.float64) + 0.5
    grid = np.zeros((h, w))
    for cx, cy, sigma in centers:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        dy2 = (ys - cy)[:, None] ** 2
        dx2 = (xs - cx)[None, :] ** 2
        grid += np.exp(-(dx2 + dy2) / (2.0 * sigma * sigma))
    return HotspotMap(uid=uid, p=grid / grid.sum())
