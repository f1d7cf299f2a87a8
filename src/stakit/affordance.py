"""Environment affordance database: zones, retrieval, label priors.

Clips observed in a video are grouped into "interaction zones" by a
sequential pass: each incoming clip is compared (through a pluggable
pairwise similarity oracle in [0, 1]) against the most recent members of
every zone already open for that video, joins the best zone when the
mean similarity clears a threshold, and founds a new zone otherwise.

A query descriptor retrieves the top-K zones on a visual channel and a
text channel from a ZoneIndex, which holds the database's descriptors as
one matrix per channel; the union of both top-K lists (2K entries,
duplicates kept) votes an exponential prior over a label vocabulary,
which can then be fused multiplicatively with a model's predicted
distribution.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .hotspot import Detections

__all__ = [
    "DEFAULT_K",
    "DEFAULT_WEIGHTED",
    "DEFAULT_THETA",
    "DEFAULT_RECENT",
    "ClipRecord",
    "Zone",
    "ZoneIndex",
    "KnnEntry",
    "KnnResult",
    "CategoricalDistribution",
    "cosine_similarity",
    "descriptor_similarity_01",
    "build_zones",
    "zone_descriptors",
    "knn_query",
    "affordance_distribution",
    "fuse_distributions",
    "apply_affordance_to_detections",
]

DEFAULT_K = 4
DEFAULT_WEIGHTED = True
DEFAULT_THETA = 0.5
DEFAULT_RECENT = 5
# A zone whose screened score lies within this of the k-th (knn_query), or a clip
# whose screened zone choice is this close to a tie (build_zones), is rescored
# exactly.  The screen's rounding error is about d * 1e-16, far below it.
_SCREEN_MARGIN = 1e-9
# How far a probability vector's sum may lie from 1.
_SUM_TOLERANCE = 1e-9


@dataclass
class ClipRecord:
    """One observed clip: descriptors plus the labels seen in it."""

    clip_id: str
    visual: np.ndarray
    text: np.ndarray | None
    nouns: frozenset
    verbs: frozenset
    video_id: str
    frame_index: int


@dataclass
class Zone:
    """A group of clips from one video that share a physical location."""

    zone_id: str
    clip_ids: list[str]
    nouns: set
    verbs: set
    visual: np.ndarray
    text: np.ndarray | None


class ZoneIndex(Sequence):
    """A zone database as queried: its zones plus one descriptor matrix per channel.

    Row i of ``visual`` and of ``text``, (n, d) float64 matrices, holds zone
    i's descriptor, and a zone without text has a zero text row.  Both
    matrices are read-only, and each zone's ``visual`` and ``text`` are
    views of its rows, so no descriptor is held twice.  The row norms and
    the id -> zone map are kept too, so a query recomputes neither.
    """

    def __init__(self, zones: Iterable[Zone]):
        """Index copies of zones, whose ids must be unique; the zones given keep their own descriptors."""
        zones = [replace(z) for z in zones]
        d = len(zones[0].visual) if zones else 0
        visual, text = np.zeros((len(zones), d)), np.zeros((len(zones), d))
        for i, zone in enumerate(zones):
            for rows, desc in ((visual, zone.visual), (text, zone.text)):
                if desc is None:  # no text: the zero row stays
                    continue
                desc = np.asarray(desc, dtype=np.float64)
                if desc.shape != (d,):
                    raise ValueError(f"zone {zone.zone_id!r}: descriptor length mismatch: "
                                     f"{desc.shape} vs {(d,)}")
                rows[i] = desc
        visual.flags.writeable = text.flags.writeable = False
        self.by_id: dict[str, Zone] = {}
        for i, zone in enumerate(zones):  # views taken after the freeze are read-only too
            if self.by_id.setdefault(zone.zone_id, zone) is not zone:
                raise ValueError(f"duplicate zone id {zone.zone_id!r}")
            zone.visual = visual[i]
            if zone.text is not None:
                zone.text = text[i]
        self._zones = tuple(zones)
        self.visual, self.text = visual, text
        self.visual_norms = np.sqrt(np.einsum("ij,ij->i", visual, visual))
        self.text_norms = np.sqrt(np.einsum("ij,ij->i", text, text))

    def __len__(self) -> int:
        return len(self._zones)

    def __getitem__(self, i):
        return self._zones[i]

    def __iter__(self):
        return iter(self._zones)


@dataclass(frozen=True)
class KnnEntry:
    zone_id: str
    similarity: float
    channel: str  # "visual" or "text"


@dataclass
class KnnResult:
    """Union of the visual and text top-K lists; always 2K entries.

    A zone close on both channels appears twice and votes twice.  Entries
    are sorted by descending similarity within each channel.
    """

    k: int
    entries: list[KnnEntry]

    def __post_init__(self) -> None:
        if len(self.entries) != 2 * self.k:
            raise ValueError(f"expected {2 * self.k} entries, got {len(self.entries)}")
        for channel in ("visual", "text"):
            sims = [e.similarity for e in self.entries if e.channel == channel]
            if len(sims) != self.k:
                raise ValueError(f"expected {self.k} entries on the {channel} channel")
            if any(sims[i] < sims[i + 1] for i in range(len(sims) - 1)):
                raise ValueError(f"{channel} entries must be sorted by descending similarity")


@dataclass
class CategoricalDistribution:
    """Probability vector over an implicit vocabulary order."""

    p: np.ndarray

    def __post_init__(self) -> None:
        self.p = np.asarray(self.p, dtype=np.float64)
        if self.p.ndim != 1 or self.p.size == 0:
            raise ValueError(f"probabilities must be a nonempty vector, got shape {self.p.shape}")
        if not np.all(np.isfinite(self.p)):
            raise ValueError("probabilities must be finite")
        if np.any(self.p < 0):
            raise ValueError("probabilities must be nonnegative")
        total = float(self.p.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")

    @property
    def size(self) -> int:
        return len(self.p)

    @classmethod
    def from_scores(cls, scores) -> "CategoricalDistribution":
        """Normalise nonnegative scores into a distribution."""
        s = np.asarray(scores, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise ValueError(f"scores must be a nonempty vector, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("scores must be finite")
        if np.any(s < 0):
            raise ValueError("scores must be nonnegative")
        total = float(s.sum())
        if total <= 0:
            raise ValueError("scores sum to zero, cannot normalise")
        return cls(s / total)

    @classmethod
    def uniform(cls, size: int) -> "CategoricalDistribution":
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        return cls(np.full(size, 1.0 / size))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; zero-norm vectors get similarity 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"descriptor length mismatch: {a.shape} vs {b.shape}")
    na = float(np.sqrt(np.dot(a, a)))
    nb = float(np.sqrt(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def descriptor_similarity_01(a: ClipRecord, b: ClipRecord) -> float:
    """Default zone-building oracle: visual cosine rescaled into [0, 1].

    The result is clipped into [0, 1], so a cosine that rounds just past
    -1 or 1 (opposite or equal descriptors) scores 0 or 1; NaN stays NaN,
    since max and min keep their first argument when a comparison fails.
    """
    return min(max(0.5 * (cosine_similarity(a.visual, b.visual) + 1.0), 0.0), 1.0)


def zone_descriptors(members: list[ClipRecord]) -> tuple[np.ndarray, np.ndarray | None]:
    """Arithmetic means of the member descriptors.

    Every member must carry a visual descriptor.  The text mean is taken
    over all members when every one has a text descriptor, is None when
    none do, and errors on a mix.
    """
    if not members:
        raise ValueError("zone_descriptors needs at least one member clip")
    for m in members:
        if m.visual is None:
            raise ValueError(f"clip {m.clip_id!r} is missing its visual descriptor")
    visual = np.mean([np.asarray(m.visual, dtype=np.float64) for m in members], axis=0)
    with_text = [m for m in members if m.text is not None]
    if not with_text:
        return visual, None
    if len(with_text) != len(members):
        missing = [m.clip_id for m in members if m.text is None]
        raise ValueError(f"clips missing text descriptors: {missing}")
    text = np.mean([np.asarray(m.text, dtype=np.float64) for m in members], axis=0)
    return visual, text


def _screened_table(members: list[ClipRecord]) -> np.ndarray | None:
    """descriptor_similarity_01 of every pair of members, screened by one Gram product.

    Entry (i, j) is 0.5 * (cos + 1) of the visual descriptors of members i
    and j, and a zero-norm row scores 0.5, as in cosine_similarity.  The
    entries differ from the oracle's only in rounding, about d * 1e-16.
    Returns None, and every clip is then scored exactly, unless the visuals
    stack into one float64 matrix with entries of magnitude at most 1e50
    and no nonzero row of squared norm below 1e-100: past those bounds the
    products could over- or underflow and stray further.
    """
    try:
        visual = np.array([m.visual for m in members], dtype=np.float64)
    except (TypeError, ValueError):
        return None
    if visual.ndim != 2 or not (np.abs(visual) <= 1e50).all():  # NaN fails the bound too
        return None
    squares = np.einsum("ij,ij->i", visual, visual)
    if ((squares < 1e-100) & visual.any(axis=1)).any():
        return None
    norms = np.sqrt(squares)
    denominators = norms[:, None] * norms
    cos = np.divide(visual @ visual.T, denominators, out=np.zeros(denominators.shape),
                    where=denominators != 0.0)
    return 0.5 * (cos + 1.0)


def _screened_choice(row: list[float], windows: list[list[int]], theta: float) -> int | None:
    """_exact_choice for the clip whose screened similarities are row, or None if too close to call.

    A clip is too close to call when an entry it reads is NaN or lies
    within _SCREEN_MARGIN of 0 or 1, or when its best window mean lies
    within the margin of theta or of the runner-up's.
    """
    best_idx, best_mean, runner_up = -1, -1.0, -1.0
    for idx, window in enumerate(windows):
        total = 0.0
        for j in window:
            sim = row[j]
            if not _SCREEN_MARGIN <= sim <= 1.0 - _SCREEN_MARGIN:
                return None
            total += sim
        mean = total / len(window)
        if mean > best_mean:
            best_idx, best_mean, runner_up = idx, mean, best_mean
        elif mean > runner_up:
            runner_up = mean
    if best_mean - runner_up <= _SCREEN_MARGIN or abs(best_mean - theta) <= _SCREEN_MARGIN:
        return None
    return best_idx if best_mean >= theta else -1


def _exact_choice(clip: ClipRecord, windows: list[list[ClipRecord]], same_zone, theta: float) -> int:
    """The zone whose window has the highest mean same_zone with clip, if it reaches theta; else -1."""
    best_idx = -1
    best_mean = -1.0
    for idx, window in enumerate(windows):
        total = 0.0
        for member in window:
            sim = float(same_zone(clip, member))
            if not (0.0 <= sim <= 1.0):
                raise ValueError(
                    f"similarity oracle returned {sim!r} for clips "
                    f"({clip.clip_id!r}, {member.clip_id!r}); expected [0, 1]"
                )
            total += sim
        mean = total / len(window)
        if mean > best_mean:
            best_idx, best_mean = idx, mean
    return best_idx if best_idx >= 0 and best_mean >= theta else -1


def build_zones(clips: list[ClipRecord], same_zone, theta: float = DEFAULT_THETA,
                recent: int = DEFAULT_RECENT) -> list[Zone]:
    """Sequentially assign clips (per video, in input order) to zones.

    same_zone(candidate, member) must return a similarity in [0, 1].  The
    candidate joins the zone with the highest mean similarity over that
    zone's ``recent`` most recent members, provided the mean reaches
    theta; otherwise it founds a new zone.  Ties go to the earlier zone.
    The result is a partition of the input clips.

    When same_zone is this module's descriptor_similarity_01 (looked up at
    call time, so a wrapper put in its place counts too), one Gram product
    per video screens every pair, and only a clip too close to call on the
    screen (see _screened_choice) calls same_zone on its window members.
    The zones are therefore those of calling same_zone on every pair.  Any
    other oracle is called on every pair.  Videos go one at a time, in
    order of first appearance, so one n x n table is alive however the
    input interleaves videos, and errors are raised video by video: the
    first failing pair of the earliest video that fails.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if recent < 1:
        raise ValueError(f"recent window must be at least 1, got {recent}")
    videos: dict[str, list[ClipRecord]] = {}  # each video's clips in input order
    for clip in clips:
        videos.setdefault(clip.video_id, []).append(clip)
    screen = same_zone is descriptor_similarity_01
    zones: list[Zone] = []
    for video_id, video in videos.items():
        table = _screened_table(video) if screen else None
        groups: list[list[int]] = []  # zones as positions in the video
        for i, clip in enumerate(video):
            windows = [group[-recent:] for group in groups]
            choice = None if table is None else _screened_choice(table[i, :i].tolist(), windows, theta)
            if choice is None:
                choice = _exact_choice(clip, [[video[j] for j in w] for w in windows], same_zone, theta)
            if choice >= 0:
                groups[choice].append(i)
            else:
                groups.append([i])
        del table  # freed before the next video's is built
        for k, positions in enumerate(groups):
            members = [video[j] for j in positions]
            visual, text = zone_descriptors(members)
            zones.append(Zone(
                zone_id=f"{video_id}:{k}",
                clip_ids=[m.clip_id for m in members],
                nouns=set().union(*[set(m.nouns) for m in members]),
                verbs=set().union(*[set(m.verbs) for m in members]),
                visual=visual,
                text=text,
            ))
    return zones


def knn_query(query: np.ndarray, index: ZoneIndex, k: int = DEFAULT_K) -> KnnResult:
    """Top-K zones of index by cosine on the visual and text channels.

    On each channel one matrix-vector product screens every zone, and the
    zones screened within a fixed margin of the k-th score are rescored
    with cosine_similarity, so the similarities reported are exactly those
    of cosine_similarity whatever order the product sums in.  Zones
    without a text descriptor score 0 on the text channel, matching the
    zero-norm convention.  Ties break toward the earlier zone in the
    database, keeping results deterministic.
    """
    if not index:
        raise ValueError("knn_query needs a nonempty zone database")
    if not 1 <= k <= len(index):
        raise ValueError(f"k must lie in [1, {len(index)}], got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != index.visual.shape[1:]:
        raise ValueError(f"descriptor length mismatch: {query.shape} vs {index.visual.shape[1:]}")
    query_norm = float(np.sqrt(np.dot(query, query)))
    entries: list[KnnEntry] = []
    for channel, rows, norms in (("visual", index.visual, index.visual_norms),
                                 ("text", index.text, index.text_norms)):
        denominators = norms * query_norm
        screened = np.divide(rows @ query, denominators, out=np.zeros(len(index)),
                             where=denominators != 0.0)
        floor = np.partition(screened, len(index) - k)[len(index) - k] - _SCREEN_MARGIN
        rescored = np.flatnonzero(~(screened < floor)).tolist()  # NaN scores are rescored too
        scored = sorted((-cosine_similarity(query, rows[idx]), idx) for idx in rescored)
        for neg_sim, idx in scored[:k]:
            entries.append(KnnEntry(zone_id=index[idx].zone_id, similarity=-neg_sim, channel=channel))
    return KnnResult(k=k, entries=entries)


def affordance_distribution(knn: KnnResult, zones: ZoneIndex, vocabulary: list,
                            kind: str = "noun", weighted: bool = DEFAULT_WEIGHTED) -> CategoricalDistribution:
    """Exponential label prior voted by the retrieved zones.

    Each retrieved entry adds its similarity (or 1 in unweighted mode) to
    the exponent of every label carried by its zone; probabilities are
    exp(exponent) normalised over the vocabulary.  With no entries this
    degenerates to the uniform distribution.
    """
    if kind not in ("noun", "verb"):
        raise ValueError(f"kind must be 'noun' or 'verb', got {kind!r}")
    if not vocabulary:
        raise ValueError("vocabulary must be nonempty")
    exponents = np.zeros(len(vocabulary))
    index = {label: i for i, label in enumerate(vocabulary)}
    for entry in knn.entries:
        zone = zones.by_id.get(entry.zone_id)
        if zone is None:
            raise ValueError(f"knn entry references unknown zone {entry.zone_id!r}")
        labels = zone.nouns if kind == "noun" else zone.verbs
        vote = entry.similarity if weighted else 1.0
        for label in labels:
            i = index.get(label)
            if i is not None:
                exponents[i] += vote
    scores = np.exp(exponents)
    return CategoricalDistribution(scores / scores.sum())


def fuse_distributions(prior: CategoricalDistribution,
                       predicted: CategoricalDistribution) -> CategoricalDistribution:
    """Multiply two distributions elementwise and renormalise.

    Treating the two sources as independent evidence, the fused
    probability is proportional to the product.  Disjoint supports leave
    nothing to normalise and raise.
    """
    if prior.size != predicted.size:
        raise ValueError(f"distribution size mismatch: {prior.size} vs {predicted.size}")
    product = prior.p * predicted.p
    total = float(product.sum())
    if total <= 0.0:
        raise ValueError("distributions have disjoint supports, fused mass is zero")
    return CategoricalDistribution(product / total)


def _fused_rows(prior: CategoricalDistribution, vectors: Sequence) -> np.ndarray | None:
    """from_scores then fuse_distributions with prior on each vector, in one array pass.

    The vectors are stacked into one matrix, and each row is normalised,
    multiplied by the prior and renormalised, which gives the bits of the
    two functions on that vector alone.  Returns None when any vector
    would fail one of their checks.
    """
    try:
        scores = np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if scores.shape != (len(vectors), prior.size):
        return None
    with np.errstate(all="ignore"):  # a faulty row fails a check below; its warnings are not reported
        p = scores / scores.sum(axis=1, keepdims=True)
        product = prior.p * p
        fused = product / product.sum(axis=1, keepdims=True)
    # These two stand for every check: NaN fails scores >= 0, and an infinite
    # score, a zero or overflowing total or a zero mass leaves a row of NaNs
    # or zeros, whose sum is not 1.  Rows that pass hold entries in [0, 1].
    if (scores >= 0).all() and (np.abs(fused.sum(axis=1) - 1.0) <= _SUM_TOLERANCE).all():
        return fused
    return None


def apply_affordance_to_detections(detections, prior_nouns: CategoricalDistribution,
                                   prior_verbs: CategoricalDistribution) -> Detections:
    """Fuse label priors into each detection's probability vectors.

    Each detection's vectors become fuse_distributions(prior,
    CategoricalDistribution.from_scores(vector)), computed for all
    detections at once.  Noun and verb ids must be indices into the
    respective vocabularies.  The reported labels become the argmax of the
    fused vectors; boxes, times and scores pass through untouched, as
    columns shared with the input table.  If any detection fails a check,
    the error of the earliest one is raised.
    """
    dets = Detections.of(detections)
    if not dets:
        return dets
    nouns = _fused_rows(prior_nouns, dets.noun_probs)
    verbs = _fused_rows(prior_verbs, dets.verb_probs)
    if nouns is None or verbs is None:
        # the scalar checks, in the order a detection is fused, raise the earliest fault
        for uid, noun_probs, verb_probs in zip(dets.uids, dets.noun_probs, dets.verb_probs):
            if noun_probs is None or verb_probs is None:
                raise ValueError(f"detection {uid!r} is missing label probability vectors")
            fuse_distributions(prior_nouns, CategoricalDistribution.from_scores(noun_probs))
            fuse_distributions(prior_verbs, CategoricalDistribution.from_scores(verb_probs))
        raise AssertionError("the array pass rejected detections that pass every check")
    return dets.replace(nouns=nouns.argmax(axis=1).tolist(), verbs=verbs.argmax(axis=1).tolist(),
                        noun_probs=list(nouns), verb_probs=list(verbs))
