"""Interaction hotspot maps and detection score re-weighting.

A hotspot map is a per-image probability grid over pixel locations.
Re-weighting multiplies every detection's confidence by the hotspot
probability sampled at its box centre; scores are deliberately left
un-normalised afterwards so that absolute confidences stay comparable
across images.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg

__all__ = [
    "HotspotMap",
    "Detection",
    "sample_at",
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


@dataclass
class Detection:
    """One anticipated interaction: box, labels, time to contact, score.

    noun and verb are opaque ids except on the affordance-fusion path,
    where they must index the label vocabularies.  The optional
    probability vectors feed that fusion.
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
        x1, y1, x2, y2 = self.box
        if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
            raise ValueError(f"box must be finite with x1 < x2 and y1 < y2, got {self.box}")
        if not 0 < self.ttc < math.inf:
            raise ValueError(f"time to contact must be finite and positive, got {self.ttc}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    @property
    def center(self) -> tuple[float, float]:
        x1, y1, x2, y2 = self.box
        return (0.5 * (x1 + x2), 0.5 * (y1 + y2))


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


def sample_at(hmap: HotspotMap, x: float, y: float, *, bilinear: bool = False) -> float:
    """Probability at image point (x, y).

    Default is a nearest-cell lookup: the value of the grid cell containing
    the point, with out-of-range points, infinite ones too, clamped to the
    border cells.  The bilinear variant interpolates between cell centres
    instead.  A NaN coordinate raises ValueError.
    """
    layout = np.array([0, hmap.h, hmap.w])
    return float(_sample(hmap.p.ravel(), layout, np.array([[x, y]], dtype=np.float64), bilinear)[0])


def reweight(detections, maps: dict[str, HotspotMap], *, bilinear: bool = False) -> list:
    """Multiply each detection's score by the hotspot value at its centre.

    Every detection uid must have a map, or the earliest detection without
    one is named before any score is computed.  Input order is preserved
    and the scores are not renormalised.  All detections are sampled in
    one array pass, whatever the shapes of their maps.
    """
    detections = list(detections)
    slot_of: dict = {}  # uid -> position of its map in used
    used, slots = [], []
    for det in detections:
        slot = slot_of.get(det.uid)
        if slot is None:
            hmap = maps.get(det.uid)
            if hmap is None:
                raise ValueError(f"no hotspot map for image {det.uid!r}")
            slot = slot_of[det.uid] = len(used)
            used.append(hmap)
        slots.append(slot)
    if not detections:
        return []
    starts = itertools.accumulate((hmap.p.size for hmap in used), initial=0)
    layout = np.array([(start, *hmap.p.shape) for start, hmap in zip(starts, used)])[slots]
    centers = np.fromiter(itertools.chain.from_iterable([det.center for det in detections]), np.float64,
                          2 * len(detections)).reshape(-1, 2)
    values = _sample(np.concatenate([hmap.p.ravel() for hmap in used]), layout, centers, bilinear)
    scores = np.fromiter([det.score for det in detections], np.float64, len(detections)) * values
    return [Detection(det.uid, det.box, det.noun, det.verb, det.ttc, score, det.noun_probs, det.verb_probs)
            for det, score in zip(detections, scores.tolist())]


def upsample_map(hmap: HotspotMap, h: int, w: int) -> HotspotMap:
    """Bilinearly resize a map to (h, w) and renormalise to sum 1."""
    resized = linalg.bilinear_resize(hmap.p[:, :, None], h, w)[:, :, 0]
    return HotspotMap(uid=hmap.uid, p=resized / resized.sum())


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
