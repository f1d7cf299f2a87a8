"""Zone construction, retrieval, and label-prior fusion tests."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import affordance as aff
from stakit import formats as fm
from stakit.affordance import (
    CategoricalDistribution,
    ClipRecord,
    KnnEntry,
    KnnResult,
    Zone,
)
from stakit.hotspot import Detection

from helpers import loop_apply_affordance, loop_build_zones, loop_knn, vote_prior


def clip(cid, visual, video="v", nouns=(), verbs=(), text=None, frame=0):
    return ClipRecord(clip_id=cid, visual=np.asarray(visual, dtype=np.float64),
                      text=None if text is None else np.asarray(text, dtype=np.float64),
                      nouns=frozenset(nouns), verbs=frozenset(verbs),
                      video_id=video, frame_index=frame)


def zone(zid, visual, nouns=(), verbs=(), text=None):
    return Zone(zone_id=zid, clip_ids=[], nouns=set(nouns), verbs=set(verbs),
                visual=np.asarray(visual, dtype=np.float64),
                text=None if text is None else np.asarray(text, dtype=np.float64))


# ---------------------------------------------------------------------------
# similarity and descriptors


def test_cosine_similarity_basics():
    assert aff.cosine_similarity(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 1.0
    assert aff.cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert aff.cosine_similarity(np.array([1.0, 0.0]), np.array([-2.0, 0.0])) == -1.0
    assert aff.cosine_similarity(np.array([0.0, 0.0]), np.array([1.0, 2.0])) == 0.0


def test_cosine_similarity_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        aff.cosine_similarity(np.zeros(2), np.zeros(3))


def test_default_oracle_rescales_into_unit_interval():
    a = clip("a", [1.0, 0.0])
    b = clip("b", [-1.0, 0.0])
    assert aff.descriptor_similarity_01(a, a) == 1.0
    assert aff.descriptor_similarity_01(a, b) == 0.0
    c = clip("c", [0.0, 1.0])
    assert aff.descriptor_similarity_01(a, c) == 0.5


def test_zone_descriptors_mean():
    visual, text = aff.zone_descriptors([clip("a", [1.0, 2.0]), clip("b", [3.0, 6.0])])
    assert np.array_equal(visual, np.array([2.0, 4.0]))
    assert text is None


def test_zone_descriptors_single_member_and_symmetry():
    v = np.array([0.3, -0.7])
    visual, _ = aff.zone_descriptors([clip("a", v)])
    assert np.array_equal(visual, v)
    visual, _ = aff.zone_descriptors([clip("a", v), clip("b", -v)])
    assert np.allclose(visual, 0.0, atol=1e-15)


def test_zone_descriptors_text_handling():
    both = [clip("a", [1.0], text=[2.0]), clip("b", [3.0], text=[4.0])]
    visual, text = aff.zone_descriptors(both)
    assert np.array_equal(text, np.array([3.0]))
    with pytest.raises(ValueError, match="missing text"):
        aff.zone_descriptors([clip("a", [1.0], text=[2.0]), clip("b", [3.0])])
    with pytest.raises(ValueError, match="at least one"):
        aff.zone_descriptors([])


# ---------------------------------------------------------------------------
# zone construction


def oracle_from_table(table):
    def same_zone(a, b):
        return table[frozenset((a.clip_id, b.clip_id))]
    return same_zone


def test_build_zones_three_clip_example():
    clips = [clip("c1", [1.0], nouns=["knife"]), clip("c2", [1.0], nouns=["plate"]),
             clip("c3", [1.0], nouns=["cup"])]
    table = {frozenset(("c1", "c2")): 0.9,
             frozenset(("c1", "c3")): 0.1,
             frozenset(("c2", "c3")): 0.1}
    zones = aff.build_zones(clips, oracle_from_table(table), theta=0.5)
    assert [z.clip_ids for z in zones] == [["c1", "c2"], ["c3"]]
    assert zones[0].nouns == {"knife", "plate"}
    assert zones[0].zone_id == "v:0"
    assert zones[1].zone_id == "v:1"


def test_build_zones_single_clip():
    zones = aff.build_zones([clip("only", [1.0, 0.0])], aff.descriptor_similarity_01)
    assert len(zones) == 1
    assert zones[0].clip_ids == ["only"]


def test_build_zones_zero_oracle_gives_singletons():
    clips = [clip(f"c{i}", [1.0]) for i in range(4)]
    zones = aff.build_zones(clips, lambda a, b: 0.0, theta=0.3)
    assert len(zones) == 4


def test_build_zones_videos_never_mix():
    clips = [clip("a1", [1.0], video="a"), clip("b1", [1.0], video="b")]
    zones = aff.build_zones(clips, lambda a, b: 1.0, theta=0.0)
    assert len(zones) == 2
    assert {z.zone_id for z in zones} == {"a:0", "b:0"}


def test_build_zones_recent_window_changes_grouping():
    # c joins [a, b] under recent=1 (only b is compared) but founds a new
    # zone under recent=2 where the mean with a drags it below theta
    clips = [clip("a", [1.0]), clip("b", [1.0]), clip("c", [1.0])]
    table = {frozenset(("a", "b")): 0.9,
             frozenset(("a", "c")): 0.0,
             frozenset(("b", "c")): 0.8}
    zones_narrow = aff.build_zones(clips, oracle_from_table(table), theta=0.5, recent=1)
    assert [z.clip_ids for z in zones_narrow] == [["a", "b", "c"]]
    zones_wide = aff.build_zones(clips, oracle_from_table(table), theta=0.5, recent=2)
    assert [z.clip_ids for z in zones_wide] == [["a", "b"], ["c"]]


def test_build_zones_is_a_partition_and_deterministic():
    rng = np.random.default_rng(60)
    for _ in range(10):
        n = int(rng.integers(1, 12))
        clips = [clip(f"c{i}", rng.normal(size=3), video=f"v{int(rng.integers(2))}")
                 for i in range(n)]
        zones = aff.build_zones(clips, aff.descriptor_similarity_01, theta=0.6)
        assigned = [cid for z in zones for cid in z.clip_ids]
        assert sorted(assigned) == sorted(c.clip_id for c in clips)
        assert len(assigned) == len(set(assigned))
        again = aff.build_zones(clips, aff.descriptor_similarity_01, theta=0.6)
        assert [z.clip_ids for z in again] == [z.clip_ids for z in zones]


def test_build_zones_validates_oracle_and_params():
    clips = [clip("a", [1.0]), clip("b", [1.0])]
    with pytest.raises(ValueError, match="expected \\[0, 1\\]"):
        aff.build_zones(clips, lambda a, b: 1.5)
    with pytest.raises(ValueError, match="theta"):
        aff.build_zones(clips, lambda a, b: 0.5, theta=1.2)
    with pytest.raises(ValueError, match="recent"):
        aff.build_zones(clips, lambda a, b: 0.5, recent=0)


def test_build_zones_empty_input():
    assert aff.build_zones([], aff.descriptor_similarity_01) == []


def oracle_zones(clips, same_zone, theta, recent):
    """loop_build_zones' partition as Zones, with labels and descriptors merged as build_zones merges them."""
    return [Zone(zone_id, [m.clip_id for m in members], set().union(*[m.nouns for m in members]),
                 set().union(*[m.verbs for m in members]), *aff.zone_descriptors(members))
            for zone_id, members in loop_build_zones(clips, same_zone, theta, recent)]


def zone_db_bytes(zones, path):
    fm.write_zone_db(path, zones, ["cup", "knife"], ["cut"], 0.5, 5)
    return path.read_bytes()


def near_tie_clips(rng, n, d, videos, with_text):
    """Clips whose similarities often tie exactly or land on 0.5: duplicates, scaled copies,
    lattice and one-hot vectors (orthogonal pairs), zero vectors; videos interleave."""
    clips = []
    for i in range(n):
        roll = int(rng.integers(6))
        if roll == 0 and clips:
            visual = clips[int(rng.integers(len(clips)))].visual.copy()
        elif roll == 1 and clips:
            visual = float(rng.choice([-1.0, 0.5, 2.0, 3.0])) * clips[int(rng.integers(len(clips)))].visual
        elif roll == 2:
            visual = rng.integers(-1, 2, size=d).astype(np.float64)
        elif roll == 3:
            visual = np.eye(d)[int(rng.integers(d))]
        elif roll == 4:
            visual = np.zeros(d)
        else:
            visual = rng.normal(size=d)
        clips.append(clip(f"c{i}", visual, video=f"v{int(rng.integers(videos))}",
                          nouns=rng.choice(["cup", "knife"], int(rng.integers(3)), replace=False).tolist(),
                          verbs=["cut"] if rng.integers(2) else [],
                          text=rng.normal(size=d) if with_text else None))
    return clips


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), d=st.integers(1, 4), videos=st.integers(1, 3),
       theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), recent=st.integers(1, 6),
       with_text=st.booleans())
def test_build_zones_equals_the_pairwise_loop(tmp_path_factory, seed, n, d, videos, theta, recent, with_text):
    clips = near_tie_clips(np.random.default_rng(seed), n, d, videos, with_text)
    want = oracle_zones(clips, aff.descriptor_similarity_01, theta, recent)
    got = aff.build_zones(clips, aff.descriptor_similarity_01, theta, recent)
    assert [(z.zone_id, z.clip_ids) for z in got] == [(z.zone_id, z.clip_ids) for z in want]
    folder = tmp_path_factory.mktemp("zones")
    assert zone_db_bytes(got, folder / "got.json") == zone_db_bytes(want, folder / "want.json")


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 8), videos=st.integers(1, 3),
       on_the_tie=st.booleans())
def test_build_zones_decides_rounding_close_calls_as_the_pairwise_loop(seed, d, videos, on_the_tie):
    # per video: p and q mirror each other about u, so u is as close to p's zone as to q's
    # up to rounding, which the screen and the oracle do differently, and theta lies between
    # sim(p, q) and sim(u, p); or q is left out and theta is sim(u, p) as the oracle rounds it
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.1, 1.4)
    clips = []
    for v in range(videos):
        u, w = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
        p, q = math.cos(angle) * u + math.sin(angle) * w, math.cos(angle) * u - math.sin(angle) * w
        clips += [clip(f"v{v}{name}", rng.uniform(0.5, 3.0) * x, video=f"v{v}")
                  for name, x in (("p", p), ("q", q), ("u", u)) if not (on_the_tie and name == "q")]
    sim = aff.descriptor_similarity_01(clips[-1], clips[-2 if on_the_tie else -3])
    theta = sim if on_the_tie else 0.5 * (0.5 * (math.cos(2 * angle) + 1.0) + sim)
    got = aff.build_zones(clips, aff.descriptor_similarity_01, theta, aff.DEFAULT_RECENT)
    want = loop_build_zones(clips, aff.descriptor_similarity_01, theta, aff.DEFAULT_RECENT)
    assert [z.clip_ids for z in got] == [[m.clip_id for m in members] for _, members in want]


def by_video(clips):
    """clips grouped by video: videos in order of first appearance, each video's clips in input order."""
    first = {}
    for c in clips:
        first.setdefault(c.video_id, len(first))
    return sorted(clips, key=lambda c: first[c.video_id])


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24), d=st.integers(1, 4), videos=st.integers(2, 4),
       theta=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)), recent=st.integers(1, 6),
       with_text=st.booleans())
def test_build_zones_gives_interleaved_videos_the_zones_of_the_same_clips_sorted_by_video(
        tmp_path_factory, seed, n, d, videos, theta, recent, with_text):
    clips = near_tie_clips(np.random.default_rng(seed), n, d, videos, with_text)
    got = aff.build_zones(clips, aff.descriptor_similarity_01, theta, recent)
    want = aff.build_zones(by_video(clips), aff.descriptor_similarity_01, theta, recent)
    assert [(z.zone_id, z.clip_ids, z.nouns, z.verbs) for z in got] == \
        [(z.zone_id, z.clip_ids, z.nouns, z.verbs) for z in want]
    folder = tmp_path_factory.mktemp("zones")
    assert zone_db_bytes(got, folder / "got.json") == zone_db_bytes(want, folder / "want.json")


def test_build_zones_holds_one_screen_table_however_videos_interleave():
    # each video's n x n table (n = 300: 0.7 MB) dominates the peak; interleaved input
    # must not keep one video's table alive while another video's is built
    rng = np.random.default_rng(23)
    videos, per_video = 4, 300
    anchors = rng.normal(size=(videos, 4, 16))
    interleaved = [clip(f"c{i}", anchors[i % videos, i // videos % 4] + 0.05 * rng.normal(size=16),
                        video=f"v{i % videos}") for i in range(videos * per_video)]
    peaks = []
    tracemalloc.start()
    try:
        for clips in (interleaved, by_video(interleaved)):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            zones = aff.build_zones(clips, aff.descriptor_similarity_01, theta=0.9)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            assert len(zones) == videos * 4
            del zones
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 1.1 * peaks[1], peaks


@pytest.fixture
def counted_oracle(monkeypatch):
    """descriptor_similarity_01 replaced by a wrapper that logs each call, as the benchmark tracer does."""
    original, calls = aff.descriptor_similarity_01, []

    def counted(a, b):
        calls.append((a.clip_id, b.clip_id))
        return original(a, b)

    monkeypatch.setattr(aff, "descriptor_similarity_01", counted)
    return counted, calls


def test_build_zones_screens_well_separated_clips_without_the_oracle(counted_oracle):
    oracle, calls = counted_oracle
    rng = np.random.default_rng(17)
    anchors = rng.normal(size=(4, 16))
    clips = [clip(f"c{i}", anchors[i % 4] + 0.05 * rng.normal(size=16), video=f"v{i % 3}")
             for i in range(48)]
    got = aff.build_zones(clips, oracle, theta=0.9)
    assert calls == []
    want = loop_build_zones(clips, oracle, 0.9, aff.DEFAULT_RECENT)
    assert [(z.zone_id, z.clip_ids) for z in got] == [(zid, [m.clip_id for m in ms]) for zid, ms in want]
    assert len(got) == 12  # one zone per anchor and video


@pytest.mark.parametrize("clips, theta, rescored, want", [
    # c2 is equally close to both zones: an exact tie, which goes to the earlier zone
    ([clip("c0", [1.0, 0.0]), clip("c1", [0.0, 1.0]), clip("c2", [1.0, 1.0])], 0.8,
     [("c2", "c0"), ("c2", "c1")], [["c0", "c2"], ["c1"]]),
    # c1 is orthogonal to c0, similarity exactly 0.5: a mean equal to theta joins
    ([clip("c0", [1.0, 0.0]), clip("c1", [0.0, 3.0])], 0.5, [("c1", "c0")], [["c0", "c1"]]),
    # a zero vector scores 0.5 against everything
    ([clip("c0", [1.0, 0.0]), clip("c1", [0.0, 0.0])], 0.5, [("c1", "c0")], [["c0", "c1"]]),
    # a duplicate scores 1 (or a rounding off it), too near the end of the range to screen
    ([clip("c0", [0.3, 0.7]), clip("c1", [0.3, 0.7])], 0.5, [("c1", "c0")], [["c0", "c1"]]),
    # a1's squared norm, 1e-120, is below the screen's 1e-100 floor, so video a gets no table and
    # every pair it reads is rescored; video b, interleaved with it, is still screened
    ([clip("a0", [1.0, 0.0], video="a"), clip("b0", [1.0, 0.2], video="b"),
      clip("a1", [1e-60, 0.0], video="a"), clip("b1", [0.2, 1.0], video="b"),
      clip("a2", [0.0, 1.0], video="a"), clip("b2", [1.0, 0.25], video="b")], 0.9,
     [("a1", "a0"), ("a2", "a0"), ("a2", "a1")], [["a0", "a1"], ["a2"], ["b0", "b2"], ["b1"]]),
])
def test_build_zones_rescores_near_ties_with_the_oracle(counted_oracle, clips, theta, rescored, want):
    oracle, calls = counted_oracle
    got = aff.build_zones(clips, oracle, theta=theta)
    assert calls == rescored
    assert [z.clip_ids for z in got] == want
    assert want == [[m.clip_id for m in ms] for _, ms in loop_build_zones(clips, oracle, theta, aff.DEFAULT_RECENT)]


def test_build_zones_calls_any_other_oracle_on_every_pair(counted_oracle):
    oracle, calls = counted_oracle
    clips = [clip(f"c{i}", [1.0, float(i)]) for i in range(4)]
    aff.build_zones(clips, lambda a, b: oracle(a, b), theta=1.0)  # every clip founds a zone
    assert calls == [(f"c{i}", f"c{j}") for i in range(4) for j in range(i)]


@pytest.mark.parametrize("visuals, message", [
    ([[1.0, 0.0], [1.0, 0.0, 0.0]], "descriptor length mismatch"),
    ([[1.0, 0.0], [np.nan, 1.0]], "similarity oracle returned nan"),
    ([[1.0, 0.0], [np.inf, 1.0]], "similarity oracle returned nan"),
    ([[1.0, 0.0], None], "descriptor length mismatch"),
    ([None, None], "similarity oracle returned nan"),
    ([None], "missing its visual descriptor"),
])
def test_build_zones_raises_the_pairwise_errors_on_visuals_that_do_not_stack(visuals, message):
    clips = [ClipRecord(f"c{i}", None if v is None else np.asarray(v, dtype=np.float64), None,
                        frozenset(), frozenset(), "v", i) for i, v in enumerate(visuals)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message) as info:
            aff.build_zones(clips, aff.descriptor_similarity_01)
        if len(clips) > 1:
            with pytest.raises(ValueError) as want:
                loop_build_zones(clips, aff.descriptor_similarity_01, aff.DEFAULT_THETA, aff.DEFAULT_RECENT)
            assert str(info.value) == str(want.value)


# ---------------------------------------------------------------------------
# knn retrieval


def test_knn_single_zone_k1():
    z = zone("z0", [1.0, 0.0], text=[0.0, 1.0])
    result = aff.knn_query(np.array([1.0, 1.0]), aff.ZoneIndex([z]), k=1)
    assert len(result.entries) == 2
    assert all(e.zone_id == "z0" for e in result.entries)
    assert {e.channel for e in result.entries} == {"visual", "text"}


def test_knn_self_similarity_tops_visual_channel():
    zones = aff.ZoneIndex([zone("z0", [1.0, 0.0]), zone("z1", [0.6, 0.8])])
    result = aff.knn_query(np.array([0.6, 0.8]), zones, k=1)
    visual = [e for e in result.entries if e.channel == "visual"][0]
    assert visual.zone_id == "z1"
    assert abs(visual.similarity - 1.0) < 1e-12


def test_knn_hand_cosine_ranking():
    zones = aff.ZoneIndex([zone("z0", [1.0, 0.0]), zone("z1", [1.0, 1.0]), zone("z2", [0.0, 1.0])])
    result = aff.knn_query(np.array([1.0, 0.0]), zones, k=2)
    visual = [e for e in result.entries if e.channel == "visual"]
    assert [e.zone_id for e in visual] == ["z0", "z1"]
    assert abs(visual[0].similarity - 1.0) < 1e-12
    assert abs(visual[1].similarity - 1.0 / math.sqrt(2.0)) < 1e-12


def test_knn_missing_text_scores_zero():
    zones = aff.ZoneIndex([zone("z0", [1.0, 0.0]), zone("z1", [0.0, 1.0], text=[-1.0, 0.0])])
    result = aff.knn_query(np.array([1.0, 0.0]), zones, k=1)
    text = [e for e in result.entries if e.channel == "text"][0]
    # z0 has no text (sim 0); z1's text points away (sim -1); 0 wins
    assert text.zone_id == "z0"
    assert text.similarity == 0.0


def test_knn_ties_break_toward_earlier_zone():
    zones = aff.ZoneIndex([zone("z0", [1.0, 0.0]), zone("z1", [1.0, 0.0])])
    result = aff.knn_query(np.array([1.0, 0.0]), zones, k=1)
    visual = [e for e in result.entries if e.channel == "visual"][0]
    assert visual.zone_id == "z0"


def test_knn_validates_k_and_db():
    zones = aff.ZoneIndex([zone("z0", [1.0])])
    with pytest.raises(ValueError, match="k must lie"):
        aff.knn_query(np.array([1.0]), zones, k=2)
    with pytest.raises(ValueError, match="k must lie"):
        aff.knn_query(np.array([1.0]), zones, k=0)
    with pytest.raises(ValueError, match="nonempty"):
        aff.knn_query(np.array([1.0]), aff.ZoneIndex([]), k=1)


def test_knn_rejects_query_of_another_length():
    with pytest.raises(ValueError, match="descriptor length mismatch"):
        aff.knn_query(np.array([1.0, 0.0, 0.0]), aff.ZoneIndex([zone("z0", [1.0, 0.0])]), k=1)


def random_zone_db(rng, n, d):
    """Zones with planted exact ties: duplicates, power-of-two multiples
    (the same cosine to the last bit), small-integer descriptors, zones
    without text and all-zero descriptors."""
    zones = []
    for i in range(n):
        roll = int(rng.integers(6)) if zones else 0
        source = zones[int(rng.integers(len(zones)))] if zones else None
        if roll == 1:
            visual, text = source.visual, source.text
        elif roll == 2:
            scale = 2.0 ** int(rng.integers(-3, 4))
            visual, text = scale * source.visual, None if source.text is None else scale * source.text
        elif roll == 3:
            visual, text = rng.integers(-1, 2, size=d), rng.integers(-1, 2, size=d)
        elif roll == 4:
            visual, text = rng.normal(size=d), None
        elif roll == 5:
            visual, text = np.zeros(d), np.zeros(d)
        else:
            visual, text = rng.normal(size=d), rng.normal(size=d)
        zones.append(zone(f"z{i}", visual, text=text))
    return zones


@settings(max_examples=200)
@given(n=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       query_kind=st.sampled_from(["normal", "integer", "zone", "zero"]), data=st.data())
def test_knn_equals_the_per_zone_loop_exactly(n, d, seed, query_kind, data):
    rng = np.random.default_rng(seed)
    zones = random_zone_db(rng, n, d)
    query = {"normal": lambda: rng.normal(size=d),
             "integer": lambda: rng.integers(-1, 2, size=d).astype(np.float64),
             "zone": lambda: zones[int(rng.integers(n))].visual.copy(),
             "zero": lambda: np.zeros(d)}[query_kind]()
    k = data.draw(st.integers(1, n), label="k")
    want = loop_knn(query, zones, k, aff.cosine_similarity)
    got = aff.knn_query(query, aff.ZoneIndex(zones), k)
    assert [(e.zone_id, e.similarity, e.channel) for e in got.entries] == want


def test_knn_orders_zones_a_rounding_error_apart_as_the_loop_does():
    # the screen's product sums in another order than cosine_similarity, so it may
    # swap zones whose cosines differ in the last bits; the rescoring must undo that
    rng = np.random.default_rng(5)
    eps = np.finfo(np.float64).eps
    for _ in range(300):
        base, query, k = rng.normal(size=64), rng.normal(size=64), int(rng.integers(1, 4))
        zones = [zone(f"z{j}", base * (1 + eps * rng.integers(-2, 3, size=64))) for j in range(6)]
        got = aff.knn_query(query, aff.ZoneIndex(zones), k)
        assert ([(e.zone_id, e.similarity, e.channel) for e in got.entries]
                == loop_knn(query, zones, k, aff.cosine_similarity))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_knn_rescores_zones_whose_screened_score_is_nan(k):
    zones = [zone("z0", [1.0, 0.0]), zone("z1", [np.nan, 1.0]), zone("z2", [0.5, 0.5])]
    got = aff.knn_query(np.array([1.0, 0.2]), aff.ZoneIndex(zones), k)
    want = loop_knn(np.array([1.0, 0.2]), zones, k, aff.cosine_similarity)
    assert [(e.zone_id, e.channel) for e in got.entries] == [(z, c) for z, _, c in want]


def test_knn_rescores_only_the_screened_top_k(monkeypatch):
    rng = np.random.default_rng(4000)
    n, d, k = 4000, 64, aff.DEFAULT_K
    index = aff.ZoneIndex(zone(f"z{i}", rng.normal(size=d), text=rng.normal(size=d)) for i in range(n))
    query = rng.normal(size=d)
    near_ties = 0  # zones past the k-th that lie within twice the screen's margin of it
    for rows in (index.visual, index.text):
        sims = np.sort(rows @ query / (np.linalg.norm(rows, axis=1) * np.linalg.norm(query)))[::-1]
        near_ties += int(np.sum(sims[k:] >= sims[k - 1] - 2e-9))
    cosine, calls = aff.cosine_similarity, []
    monkeypatch.setattr(aff, "cosine_similarity", lambda a, b: calls.append(1) or cosine(a, b))
    result = aff.knn_query(query, index, k)
    assert 2 * k <= len(calls) <= 2 * k + near_ties
    assert [(e.zone_id, e.similarity, e.channel) for e in result.entries] == loop_knn(query, index, k, cosine)


def test_zone_index_descriptors_are_read_only_rows():
    zones = [zone("z0", [1.0, 0.0], text=[0.0, 1.0]), zone("z1", [0.5, 0.5])]
    index = aff.ZoneIndex(zones)
    assert not index.visual.flags.writeable and not index.text.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index.visual[0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        index[0].text[0] = 2.0
    assert np.shares_memory(index[0].visual, index.visual) and np.shares_memory(index[0].text, index.text)
    assert index[1].text is None and index.text[1].tolist() == [0.0, 0.0]
    assert index.visual_norms.tolist() == [1.0, math.sqrt(0.5)] and index.text_norms.tolist() == [1.0, 0.0]
    assert index.by_id["z1"] is index[1]
    zones[0].visual[0] = 3.0  # the zones given keep their own, writable descriptors
    assert index.visual[0, 0] == 1.0


def test_zone_index_rejects_descriptors_of_different_lengths():
    with pytest.raises(ValueError, match="'z1': descriptor length mismatch"):
        aff.ZoneIndex([zone("z0", [1.0, 0.0]), zone("z1", [1.0])])
    with pytest.raises(ValueError, match="'z0': descriptor length mismatch"):
        aff.ZoneIndex([zone("z0", [1.0, 0.0], text=[1.0])])


def test_zone_index_rejects_duplicate_zone_ids():
    with pytest.raises(ValueError, match="duplicate zone id 'z'"):
        aff.ZoneIndex([zone("z", [1.0, 0.0]), zone("y", [0.5, 0.5]), zone("z", [0.0, 1.0])])


def test_knn_result_validation():
    with pytest.raises(ValueError, match="expected 2"):
        KnnResult(k=1, entries=[KnnEntry("z", 0.5, "visual")])
    with pytest.raises(ValueError, match="descending"):
        KnnResult(k=2, entries=[KnnEntry("a", 0.1, "visual"), KnnEntry("b", 0.9, "visual"),
                                KnnEntry("a", 0.5, "text"), KnnEntry("b", 0.2, "text")])


# ---------------------------------------------------------------------------
# affordance distribution


def knife_plate_fixture():
    zones = aff.ZoneIndex([zone("Z1", [1.0], nouns={"knife", "plate"}),
                           zone("Z2", [1.0], nouns={"plate"})])
    knn = KnnResult(k=1, entries=[KnnEntry("Z1", 0.8, "visual"),
                                  KnnEntry("Z2", 0.5, "text")])
    return knn, zones, ["knife", "plate", "cup"]


def test_affordance_distribution_worked_example():
    knn, zones, vocab = knife_plate_fixture()
    dist = aff.affordance_distribution(knn, zones, vocab, kind="noun", weighted=True)
    # unnormalised (e^0.8, e^1.3, e^0)
    expected = vote_prior([("Z1", 0.8), ("Z2", 0.5)],
                          {"Z1": {"knife", "plate"}, "Z2": {"plate"}}, vocab, True)
    assert np.allclose(dist.p, expected, atol=1e-12, rtol=0)
    assert np.allclose(dist.p, [0.3228, 0.5322, 0.1450], atol=1e-4, rtol=0)


def test_affordance_distribution_unweighted_votes_count_once_each():
    knn, zones, vocab = knife_plate_fixture()
    dist = aff.affordance_distribution(knn, zones, vocab, kind="noun", weighted=False)
    expected = vote_prior([("Z1", 0.8), ("Z2", 0.5)],
                          {"Z1": {"knife", "plate"}, "Z2": {"plate"}}, vocab, False)
    assert np.allclose(dist.p, expected, atol=1e-12, rtol=0)


def test_affordance_distribution_empty_knn_is_uniform():
    dist = aff.affordance_distribution(KnnResult(k=0, entries=[]), aff.ZoneIndex([]), ["a", "b", "c"])
    assert np.allclose(dist.p, 1.0 / 3.0, atol=1e-15)


def test_affordance_distribution_symmetric_votes_are_uniform():
    zones = aff.ZoneIndex([zone("z0", [1.0], nouns={"a", "b"}), zone("z1", [1.0], nouns={"a", "b"})])
    knn = KnnResult(k=1, entries=[KnnEntry("z0", 0.7, "visual"), KnnEntry("z1", 0.7, "text")])
    dist = aff.affordance_distribution(knn, zones, ["a", "b"])
    assert np.allclose(dist.p, 0.5, atol=1e-12)


def test_affordance_distribution_verbs_channel():
    zones = aff.ZoneIndex([zone("z0", [1.0], verbs={"cut"})])
    knn = KnnResult(k=1, entries=[KnnEntry("z0", 1.0, "visual"), KnnEntry("z0", 1.0, "text")])
    dist = aff.affordance_distribution(knn, zones, ["cut", "wash"], kind="verb")
    assert dist.p[0] > dist.p[1]


def test_affordance_distribution_ignores_labels_outside_vocabulary():
    zones = aff.ZoneIndex([zone("z0", [1.0], nouns={"seen", "unseen"})])
    knn = KnnResult(k=1, entries=[KnnEntry("z0", 0.9, "visual"), KnnEntry("z0", 0.4, "text")])
    dist = aff.affordance_distribution(knn, zones, ["seen", "other"])
    expected = vote_prior([("z0", 0.9), ("z0", 0.4)], {"z0": {"seen"}}, ["seen", "other"], True)
    assert np.allclose(dist.p, expected, atol=1e-12)


def test_affordance_distribution_monotone_in_votes():
    # an extra vote for a label can only raise its probability
    zones = aff.ZoneIndex([zone("z0", [1.0], nouns={"a"}), zone("z1", [1.0], nouns={"a", "b"})])
    weak = KnnResult(k=1, entries=[KnnEntry("z1", 0.3, "visual"), KnnEntry("z1", 0.3, "text")])
    strong = KnnResult(k=1, entries=[KnnEntry("z0", 0.9, "visual"), KnnEntry("z1", 0.3, "text")])
    p_weak = aff.affordance_distribution(weak, zones, ["a", "b"]).p
    p_strong = aff.affordance_distribution(strong, zones, ["a", "b"]).p
    assert p_strong[0] > p_weak[0]


def test_affordance_distribution_matches_brute_force_on_random_dbs():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n_zones = int(rng.integers(1, 7))
        n_labels = int(rng.integers(1, 6))
        vocab = [f"l{i}" for i in range(n_labels)]
        zones = []
        for i in range(n_zones):
            labels = {v for v in vocab if rng.random() < 0.5}
            zones.append(zone(f"z{i}", rng.normal(size=3), nouns=labels))
        k = int(rng.integers(1, n_zones + 1))
        sims = np.sort(rng.random(2 * k))[::-1]
        ids = [f"z{int(rng.integers(n_zones))}" for _ in range(2 * k)]
        entries = [KnnEntry(ids[i], float(sims[i]), "visual") for i in range(k)]
        entries += [KnnEntry(ids[k + i], float(sims[k + i]), "text") for i in range(k)]
        # per-channel descending order
        entries = (sorted(entries[:k], key=lambda e: -e.similarity)
                   + sorted(entries[k:], key=lambda e: -e.similarity))
        knn = KnnResult(k=k, entries=entries)
        weighted = bool(rng.integers(2))
        dist = aff.affordance_distribution(knn, aff.ZoneIndex(zones), vocab, weighted=weighted)
        expected = vote_prior([(e.zone_id, e.similarity) for e in entries],
                              {z.zone_id: z.nouns for z in zones}, vocab, weighted)
        assert np.allclose(dist.p, expected, atol=1e-12, rtol=0)


def test_affordance_distribution_validates_inputs():
    knn, zones, vocab = knife_plate_fixture()
    with pytest.raises(ValueError, match="kind"):
        aff.affordance_distribution(knn, zones, vocab, kind="adjective")
    with pytest.raises(ValueError, match="vocabulary"):
        aff.affordance_distribution(knn, zones, [])
    orphan = KnnResult(k=1, entries=[KnnEntry("ghost", 0.5, "visual"),
                                     KnnEntry("Z1", 0.5, "text")])
    with pytest.raises(ValueError, match="unknown zone"):
        aff.affordance_distribution(orphan, zones, vocab)


# ---------------------------------------------------------------------------
# fusion


def test_fuse_distributions_worked_example():
    prior = CategoricalDistribution(np.array([0.5, 0.3, 0.2]))
    predicted = CategoricalDistribution(np.array([0.2, 0.5, 0.3]))
    fused = aff.fuse_distributions(prior, predicted)
    exact = np.array([0.10, 0.15, 0.06]) / 0.31
    assert np.allclose(fused.p, exact, atol=1e-12, rtol=0)
    assert np.allclose(fused.p, [0.3226, 0.4839, 0.1935], atol=1e-4, rtol=0)


def test_fuse_distributions_uniform_prior_identity():
    predicted = CategoricalDistribution(np.array([0.1, 0.2, 0.3, 0.4]))
    fused = aff.fuse_distributions(CategoricalDistribution.uniform(4), predicted)
    assert np.allclose(fused.p, predicted.p, atol=1e-12, rtol=0)


def test_fuse_distributions_one_hot_prior():
    prior = CategoricalDistribution(np.array([0.0, 1.0, 0.0]))
    predicted = CategoricalDistribution(np.array([0.2, 0.5, 0.3]))
    fused = aff.fuse_distributions(prior, predicted)
    assert np.array_equal(fused.p, np.array([0.0, 1.0, 0.0]))


def test_fuse_distributions_rescaling_invariance():
    scores = np.array([2.0, 1.0, 4.0])
    prior = CategoricalDistribution.from_scores(scores)
    prior_scaled = CategoricalDistribution.from_scores(scores * 37.5)
    predicted = CategoricalDistribution(np.array([0.2, 0.5, 0.3]))
    a = aff.fuse_distributions(prior, predicted)
    b = aff.fuse_distributions(prior_scaled, predicted)
    assert np.allclose(a.p, b.p, atol=1e-12, rtol=0)


def test_fuse_distributions_errors():
    with pytest.raises(ValueError, match="size mismatch"):
        aff.fuse_distributions(CategoricalDistribution.uniform(2),
                               CategoricalDistribution.uniform(3))
    a = CategoricalDistribution(np.array([1.0, 0.0]))
    b = CategoricalDistribution(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="disjoint"):
        aff.fuse_distributions(a, b)


def test_categorical_distribution_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        CategoricalDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="nonnegative"):
        CategoricalDistribution(np.array([1.5, -0.5]))
    for shape in [(0,), (1, 2), ()]:
        with pytest.raises(ValueError, match="nonempty vector"):
            CategoricalDistribution(np.full(shape, 0.5))
    with pytest.raises(ValueError, match="zero"):
        CategoricalDistribution.from_scores(np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_categorical_distribution_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        CategoricalDistribution([bad, 0.5])
    with pytest.raises(ValueError, match="finite"):
        CategoricalDistribution.from_scores([bad, 1.0])


# ---------------------------------------------------------------------------
# applying priors to detections


def make_det(noun, verb, noun_probs, verb_probs, score=0.9):
    return Detection(uid="img0", box=(0.0, 0.0, 10.0, 10.0), noun=noun, verb=verb,
                     ttc=1.0, score=score,
                     noun_probs=None if noun_probs is None else np.asarray(noun_probs),
                     verb_probs=None if verb_probs is None else np.asarray(verb_probs))


def test_apply_affordance_rejects_nan_probabilities():
    det = make_det(0, 0, [np.nan, 0.5, 0.5], [0.6, 0.4])
    with pytest.raises(ValueError, match="finite"):
        aff.apply_affordance_to_detections(
            [det], CategoricalDistribution.uniform(3), CategoricalDistribution.uniform(2))


def test_apply_affordance_uniform_priors_leave_detections_alone():
    det = make_det(2, 0, [0.1, 0.2, 0.7], [0.6, 0.4])
    out = aff.apply_affordance_to_detections(
        [det], CategoricalDistribution.uniform(3), CategoricalDistribution.uniform(2))
    assert out[0].noun == 2
    assert out[0].verb == 0
    assert np.allclose(out[0].noun_probs, det.noun_probs, atol=1e-12)
    assert np.allclose(out[0].verb_probs, det.verb_probs, atol=1e-12)
    assert out[0].score == det.score


def test_apply_affordance_relabels_by_fused_argmax():
    det = make_det(0, 0, [0.55, 0.45], [1.0, 0.0])
    prior = CategoricalDistribution(np.array([0.1, 0.9]))
    out = aff.apply_affordance_to_detections([det], prior, CategoricalDistribution.uniform(2))
    assert out[0].noun == 1  # 0.45 * 0.9 beats 0.55 * 0.1
    assert out[0].verb == 0
    assert out[0].box == det.box
    assert out[0].ttc == det.ttc
    assert out[0].score == det.score


def test_apply_affordance_single_class_vocabulary():
    det = make_det(0, 0, [1.0], [1.0])
    out = aff.apply_affordance_to_detections(
        [det], CategoricalDistribution.uniform(1), CategoricalDistribution.uniform(1))
    assert out[0].noun == 0
    assert out[0].verb == 0


def test_apply_affordance_requires_probability_vectors():
    det = make_det(0, 0, None, [1.0])
    with pytest.raises(ValueError, match="missing label probability"):
        aff.apply_affordance_to_detections(
            [det], CategoricalDistribution.uniform(1), CategoricalDistribution.uniform(1))


def _loop_fusion(detections, prior_nouns, prior_verbs):
    return loop_apply_affordance(detections, prior_nouns, prior_verbs,
                                 CategoricalDistribution.from_scores, aff.fuse_distributions)


def _random_prior(rng, size):
    return CategoricalDistribution.from_scores(rng.random(size) ** 3 * (rng.random(size) > 0.2) + 1e-3)


def _random_dets(rng, count, nouns, verbs):
    """Unnormalised score vectors with zeros, as detectors emit them."""
    return [Detection(uid=f"img{i}", box=(0.0, 0.0, 10.0, 10.0), noun=0, verb=0, ttc=1.0, score=0.9,
                      noun_probs=rng.random(nouns) ** 4 * (rng.random(nouns) > 0.3) + (np.arange(nouns) == 0),
                      verb_probs=rng.random(verbs) * 10.0 ** rng.integers(-3, 4)) for i in range(count)]


def test_apply_affordance_equals_the_per_detection_loop_bit_for_bit():
    rng = np.random.default_rng(11)
    for nouns, verbs in ((1, 1), (3, 2), (9, 8), (128, 81), (300, 129)):
        prior_nouns, prior_verbs = _random_prior(rng, nouns), _random_prior(rng, verbs)
        for count in (0, 1, 2, 8, 17):
            dets = _random_dets(rng, count, nouns, verbs)
            got = aff.apply_affordance_to_detections(iter(dets), prior_nouns, prior_verbs)
            want = _loop_fusion(dets, prior_nouns, prior_verbs)
            assert len(got) == len(want) == count
            for g, w in zip(got, want):
                assert (g.uid, g.box, g.noun, g.verb, g.ttc, g.score) == (w.uid, w.box, w.noun, w.verb, w.ttc, w.score)
                assert g.noun_probs.tobytes() == w.noun_probs.tobytes()
                assert g.verb_probs.tobytes() == w.verb_probs.tobytes()


# one fault in a detection's noun or verb vector (priors of 4 nouns and 3 verbs)
FUSION_FAULTS = {
    "missing": lambda v: None,
    "nan": lambda v: np.where(np.arange(len(v)) == 1, np.nan, v),
    "inf": lambda v: np.where(np.arange(len(v)) == 1, np.inf, v),
    "overflowing-sum": lambda v: np.full_like(v, 1e308),
    "negative": lambda v: np.where(np.arange(len(v)) == 0, -0.25, v),
    "zero-sum": lambda v: np.zeros_like(v),
    "disjoint": lambda v: (np.arange(len(v)) == len(v) - 1).astype(float),  # the prior is 0 there
    "size": lambda v: np.append(v, 0.5),
}


def _fault_error(call):
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # from_scores on the overflowing sum
@pytest.mark.parametrize("fault", sorted(FUSION_FAULTS))
@pytest.mark.parametrize("channel", ["noun", "verb"])
def test_apply_affordance_raises_the_loop_error_of_one_fault_at_any_position(fault, channel):
    prior_nouns = CategoricalDistribution(np.array([0.4, 0.3, 0.3, 0.0]))
    prior_verbs = CategoricalDistribution(np.array([0.5, 0.5, 0.0]))
    for position in range(8):
        rng = np.random.default_rng(position)
        dets = _random_dets(rng, 8, 4, 3)
        field = f"{channel}_probs"
        faulty = FUSION_FAULTS[fault](getattr(dets[position], field))
        dets[position] = dataclasses.replace(dets[position], **{field: faulty})
        want = _fault_error(lambda: _loop_fusion(dets, prior_nouns, prior_verbs))
        got = _fault_error(lambda: aff.apply_affordance_to_detections(dets, prior_nouns, prior_verbs))
        assert got == want, (fault, channel, position)


def test_apply_affordance_raises_the_earliest_detection_error():
    prior_nouns, prior_verbs = CategoricalDistribution.uniform(4), CategoricalDistribution.uniform(3)
    dets = _random_dets(np.random.default_rng(5), 8, 4, 3)
    dets[2] = dataclasses.replace(dets[2], verb_probs=np.array([0.5, np.inf, 0.5]))
    dets[5] = dataclasses.replace(dets[5], noun_probs=None)
    dets[6] = dataclasses.replace(dets[6], noun_probs=np.ones(5))
    with pytest.raises(ValueError, match="scores must be finite"):
        aff.apply_affordance_to_detections(dets, prior_nouns, prior_verbs)
    dets[2] = dataclasses.replace(dets[2], verb_probs=np.ones(3))
    with pytest.raises(ValueError, match="detection 'img5' is missing label probability"):
        aff.apply_affordance_to_detections(dets, prior_nouns, prior_verbs)


def test_default_operating_point():
    assert aff.DEFAULT_K == 4
    assert aff.DEFAULT_WEIGHTED is True
    assert aff.DEFAULT_THETA == 0.5
    assert aff.DEFAULT_RECENT == 5
