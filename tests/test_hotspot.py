"""Hotspot map sampling and score re-weighting tests."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import hotspot as hs
from stakit.hotspot import Detection, Detections, HotspotMap

from helpers import loop_gaussian_map, loop_sample_at


def det(uid="img0", box=(2.0, 2.0, 6.0, 6.0), score=0.5, noun=0, verb=0, ttc=1.0):
    return Detection(uid=uid, box=box, noun=noun, verb=verb, ttc=ttc, score=score)


# ---------------------------------------------------------------------------
# map container


def test_hotspot_map_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        HotspotMap("u", np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match="nonnegative"):
        HotspotMap("u", np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="2-D"):
        HotspotMap("u", np.full(4, 0.25))
    m = HotspotMap.uniform("u", 3, 5)
    assert m.h == 3 and m.w == 5
    assert np.allclose(m.p, 1.0 / 15.0)
    with pytest.raises(ValueError, match="positive"):
        HotspotMap.uniform("u", 0, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hotspot_map_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        HotspotMap("a", [[bad, 0.5]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_detection_rejects_non_finite_or_nonpositive_ttc(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        det(ttc=bad)


# ---------------------------------------------------------------------------
# the detections table


def test_detections_table_rows_are_detections_with_float_boxes():
    rows = [det(box=(0, 0, 2, 3), noun="cup", verb=1, ttc=0.5, score=0.75), det(uid="img1")]
    table = Detections.of(iter(rows))
    assert len(table) == 2 and list(table) == rows and table[-1] == rows[1]
    assert type(table[0].box) is tuple and [type(v) for v in table[0].box] == [float] * 4
    assert table.uids == ("img0", "img1") and table.boxes.shape == (2, 4)
    assert Detections.of(table) is table
    with pytest.raises(IndexError):
        table[2]
    with pytest.raises(TypeError):
        table[0:1]


def test_detections_table_is_read_only():
    table = Detections.of([det()])
    for column in (table.boxes, table.ttc, table.scores):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.25
    with pytest.raises(AttributeError, match="replace"):
        table.scores = np.array([0.25])


def test_detections_table_copies_a_writable_column_and_shares_a_read_only_one():
    scores = np.array([0.5])
    table = Detections(["img0"], [(0.0, 0.0, 1.0, 1.0)], [0], [0], [1.0], scores)
    scores[0] = 2.0
    assert table.scores.tolist() == [0.5]
    assert Detections(table.uids, table.boxes, table.nouns, table.verbs, table.ttc, table.scores).scores is table.scores


# (column, faulty value) for each check Detection makes
ROW_FAULTS = {
    "box-x-order": ("boxes", (2.0, 0.0, 1.0, 1.0)), "box-y-order": ("boxes", (0.0, 1.0, 1.0, 1.0)),
    "box-infinite": ("boxes", (0.0, 0.0, math.inf, 1.0)), "box-nan": ("boxes", (0.0, math.nan, 1.0, 1.0)),
    "ttc-zero": ("ttc", 0.0), "ttc-infinite": ("ttc", math.inf), "ttc-nan": ("ttc", math.nan),
    "score-negative": ("scores", -0.25), "score-above-one": ("scores", 1.5), "score-nan": ("scores", math.nan),
}


@pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
def test_detections_table_raises_the_row_error_of_the_earliest_faulty_row(fault):
    column, value = ROW_FAULTS[fault]
    for position in range(4):
        columns = {"uids": ["img0"] * 5, "boxes": [(0.0, 0.0, 1.0, 1.0)] * 5, "nouns": [0] * 5, "verbs": [0] * 5,
                   "ttc": [1.0] * 5, "scores": [0.5] * 4 + [7.0]}  # row 4's score fails too
        columns[column] = [value if i == position else v for i, v in enumerate(columns[column])]
        with pytest.raises(ValueError) as want:
            Detection(**{name: columns[plural][position] for name, plural in (
                ("uid", "uids"), ("box", "boxes"), ("noun", "nouns"), ("verb", "verbs"), ("ttc", "ttc"),
                ("score", "scores"))})
        with pytest.raises(ValueError) as got:
            Detections(**columns)
        assert str(got.value) == str(want.value), (fault, position)
        table = Detections(**{**columns, "ttc": [1.0] * 5, "scores": [0.5] * 5,
                              "boxes": [(0.0, 0.0, 1.0, 1.0)] * 5})
        with pytest.raises(ValueError) as got:  # replace checks the column it swaps in
            table.replace(**{column: columns[column]})
        assert str(got.value) == str(want.value), (fault, position)


# a value for each Detection field that a row's checks or a table's columns would not hold
FIELD_CHANGES = {"uid": "img9", "box": (3.0, 0.0, 1.0, 1.0), "noun": 7, "verb": 7, "ttc": -1.0, "score": 2.0,
                 "noun_probs": np.ones(3), "verb_probs": np.ones(2)}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Detection)])
def test_assigning_to_a_detection_field_raises_and_leaves_its_table_as_it_was(field):
    corners = [2.0, 2.0, 6.0, 6.0]
    built = det(uid="img0", box=corners)
    corners[2] = -5.0  # the row holds its own copy of the corners it checked
    table = Detections.of([built, det(uid="img1", box=(1.0, 1.0, 2.0, 2.0))])
    rows = list(table)
    for row in (built, table[0], rows[1]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field, FIELD_CHANGES[field])
    assert list(table) == rows and rows[0] == built == det(uid="img0")


def test_detections_of_rows_does_not_check_them_again(monkeypatch):
    rows = [det(uid="img0"), det(uid="img1", score=0.25)]

    def checked(row):
        raise AssertionError("a frozen row was checked again")

    monkeypatch.setattr(Detection, "__post_init__", checked)
    assert Detections.of(rows).scores.tolist() == [0.5, 0.25]


def test_detections_table_rejects_columns_of_other_lengths():
    with pytest.raises(ValueError, match="'nouns' holds 1 rows, expected 2"):
        Detections(["a", "b"], [(0, 0, 1, 1)] * 2, [0], [0, 0], [1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"shape \(2, 4\)"):
        Detections(["a", "b"], [(0, 0, 1)] * 2, [0, 0], [0, 0], [1.0, 1.0], [0.5, 0.5])


# ---------------------------------------------------------------------------
# sampling


def sample(hmap, points, bilinear=False):
    """hotspot._sample at each (x, y) of points on the one map hmap, as floats."""
    points = np.array(points, dtype=np.float64).reshape(-1, 2)
    return hs._sample(hmap.p.ravel(), np.array([0, hmap.h, hmap.w]), points, bilinear).tolist()


def test_sample_uniform_map_anywhere():
    m = HotspotMap.uniform("u", 4, 5)
    assert sample(m, [(0.1, 0.1), (2.5, 3.5), (4.9, 3.9)]) == [1.0 / 20.0] * 3


def test_sample_one_hot_map():
    p = np.zeros((4, 5))
    p[2, 3] = 1.0
    m = HotspotMap("u", p)
    assert sample(m, [(3.5, 2.5), (0.5, 0.5)]) == [1.0, 0.0]  # inside cell (row 2, col 3), then outside it


def test_sample_two_by_two_bottom_right():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert sample(m, [(1.5, 1.5)]) == [0.4]


def test_sample_clamps_out_of_range_points():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert sample(m, [(-5.0, -5.0), (99.0, 99.0), (99.0, -5.0)]) == [0.1, 0.4, 0.2]


def test_sample_bilinear_at_cell_centers_equals_cell_value():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert sample(m, [(0.5, 0.5), (1.5, 1.5)], bilinear=True) == [0.1, 0.4]


def test_sample_bilinear_midpoint_averages_neighbours():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    edge, centre = sample(m, [(1.0, 0.5), (1.0, 1.0)], bilinear=True)
    assert abs(edge - 0.15) < 1e-15
    assert abs(centre - 0.25) < 1e-15


def random_map(rng, uid, h, w):
    p = rng.random((h, w))
    return HotspotMap(uid, p / p.sum())


# a point inside the grid, outside it, on an integer cell edge, on a cell centre, or far out
COORDINATE = st.one_of(
    st.floats(-3.0, 43.0),
    st.integers(-2, 42).map(float),
    st.integers(-2, 42).map(lambda i: i + 0.5),
    st.sampled_from([1e300, -1e300]),
)


@settings(max_examples=400)
@given(h=st.integers(1, 40), w=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       x=COORDINATE, y=COORDINATE, bilinear=st.booleans())
def test_sample_equals_the_scalar_loop_bit_for_bit(h, w, seed, x, y, bilinear):
    m = random_map(np.random.default_rng(seed), "u", h, w)
    [got] = sample(m, [(x, y)], bilinear)
    assert type(got) is float
    assert got.hex() == loop_sample_at(m.p.tolist(), x, y, bilinear).hex()


@pytest.mark.parametrize("bilinear", [False, True])
def test_sample_clamps_infinite_points_and_rejects_nan(bilinear):
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert sample(m, [(math.inf, -math.inf), (-math.inf, math.inf)], bilinear) == [0.2, 0.3]
    with pytest.raises(ValueError, match="NaN"):
        sample(m, [(math.nan, 0.5)], bilinear)


# ---------------------------------------------------------------------------
# re-weighting


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_maps=st.integers(1, 5), n_dets=st.integers(1, 30),
       bilinear=st.booleans())
def test_reweight_equals_the_per_detection_loop_over_maps_of_mixed_shapes(seed, n_maps, n_dets, bilinear):
    rng = np.random.default_rng(seed)
    maps = {f"img{i}": random_map(rng, f"img{i}", int(rng.integers(1, 41)), int(rng.integers(1, 41)))
            for i in range(n_maps)}
    dets = []
    for _ in range(n_dets):
        x, y = rng.uniform(-5.0, 45.0, size=2)
        dets.append(det(uid=f"img{int(rng.integers(n_maps))}", box=(x, y, x + rng.uniform(0.1, 9.0),
                                                                    y + rng.uniform(0.1, 9.0)),
                        score=float(rng.random())))
    out = hs.reweight(dets, maps, bilinear=bilinear)
    centers = [(0.5 * (d.box[0] + d.box[2]), 0.5 * (d.box[1] + d.box[3])) for d in dets]
    want = [d.score * loop_sample_at(maps[d.uid].p.tolist(), *c, bilinear) for d, c in zip(dets, centers)]
    assert [d.score.hex() for d in out] == [v.hex() for v in want]
    assert [d.uid for d in out] == [d.uid for d in dets]


def test_reweight_of_no_detections_is_empty():
    assert list(hs.reweight([], {})) == []
    assert list(hs.reweight(iter([]), {"img0": HotspotMap.uniform("img0", 2, 2)}, bilinear=True)) == []


def test_reweight_names_the_earliest_detection_without_a_map():
    maps = {"img0": HotspotMap.uniform("img0", 2, 2)}
    with pytest.raises(ValueError, match="no hotspot map for image 'img2'"):
        hs.reweight([det(uid="img0"), det(uid="img2"), det(uid="img1")], maps)


def test_reweight_checks_every_map_before_computing_a_score():
    broken = HotspotMap.uniform("img0", 2, 2)
    broken.p = None  # sampling this map would fail with another error
    with pytest.raises(ValueError, match="no hotspot map for image 'img1'"):
        hs.reweight([det(uid="img0"), det(uid="img1")], {"img0": broken})


def test_reweight_multiplication_is_exact():
    p = np.array([[0.02, 0.49, 0.49]])
    m = HotspotMap("img0", p)
    out = hs.reweight([det(box=(0.0, 0.0, 1.0, 1.0), score=0.8)], {"img0": m})
    assert out[0].score == 0.016  # 0.8 * 0.02 is exact in binary64


def test_reweight_zero_region_annihilates_score():
    p = np.array([[0.0, 1.0]])
    m = HotspotMap("img0", p)
    out = hs.reweight([det(box=(0.0, 0.0, 1.0, 1.0), score=0.9)], {"img0": m})
    assert out[0].score == 0.0


def test_reweight_uniform_map_preserves_ranking():
    rng = np.random.default_rng(70)
    m = HotspotMap.uniform("img0", 6, 6)
    dets = [det(box=(i, i, i + 1.0, i + 1.0), score=float(s))
            for i, s in enumerate(rng.random(5))]
    out = hs.reweight(dets, {"img0": m})
    before = np.argsort([-d.score for d in dets], kind="stable")
    after = np.argsort([-d.score for d in out], kind="stable")
    assert np.array_equal(before, after)
    for d_in, d_out in zip(dets, out):
        assert abs(d_out.score - d_in.score / 36.0) < 1e-15


def test_reweight_preserves_order_and_skips_renormalisation():
    p = np.array([[0.5, 0.5]])
    m = HotspotMap("img0", p)
    dets = [det(box=(0.0, 0.0, 1.0, 1.0), score=0.8),
            det(box=(1.0, 0.0, 2.0, 1.0), score=0.4)]
    out = hs.reweight(dets, {"img0": m})
    assert [d.score for d in out] == [0.4, 0.2]  # halved, not renormalised
    assert [d.uid for d in out] == [d.uid for d in dets]


def test_reweight_missing_map_error():
    with pytest.raises(ValueError, match="no hotspot map for image 'img1'"):
        hs.reweight([det(uid="img1")], {"img0": HotspotMap.uniform("img0", 2, 2)})


def test_reweight_returns_a_table_sharing_every_column_but_the_scores():
    maps = {"img0": HotspotMap("img0", np.array([[0.25, 0.75]])), "img1": HotspotMap.uniform("img1", 2, 2)}
    dets = Detections.of([det(uid="img0", box=(1.0, 0.0, 2.0, 1.0), score=0.5, noun="cup"),
                          det(uid="img1", score=0.25)])
    out = hs.reweight(dets, maps)
    for name in ("uids", "boxes", "nouns", "verbs", "ttc", "noun_probs", "verb_probs"):
        assert getattr(out, name) is getattr(dets, name), name
    assert out.scores.tolist() == [0.375, 0.0625] and dets.scores.tolist() == [0.5, 0.25]
    assert not out.scores.flags.writeable


def test_reweight_leaves_other_fields_alone():
    m = HotspotMap.uniform("img0", 2, 2)
    d = det(box=(0.0, 0.0, 1.0, 1.0), score=0.8, noun="knife", verb="cut", ttc=0.7)
    out = hs.reweight([d], {"img0": m})[0]
    assert (out.uid, out.box, out.noun, out.verb, out.ttc) == \
        ("img0", (0.0, 0.0, 1.0, 1.0), "knife", "cut", 0.7)


# ---------------------------------------------------------------------------
# upsampling and synthesis


def test_upsample_map_renormalises():
    m = HotspotMap("u", np.array([[0.7, 0.1], [0.1, 0.1]]))
    up = hs.upsample_map(m, 8, 8)
    assert up.p.shape == (8, 8)
    assert abs(up.p.sum() - 1.0) < 1e-12
    assert up.uid == "u"


def test_upsample_uniform_stays_uniform():
    up = hs.upsample_map(HotspotMap.uniform("u", 2, 2), 5, 5)
    assert np.allclose(up.p, 1.0 / 25.0, atol=1e-12)


def test_upsample_same_size_is_identity():
    m = HotspotMap("u", np.array([[0.25, 0.25], [0.3, 0.2]]))
    up = hs.upsample_map(m, 2, 2)
    assert np.allclose(up.p, m.p, atol=1e-15)


def test_gaussian_map_empty_centers_is_uniform():
    m = hs.synth_gaussian_map("u", 3, 4, [])
    assert np.allclose(m.p, 1.0 / 12.0, atol=1e-15)


def test_gaussian_map_matches_direct_evaluation():
    centers = [(2.0, 2.0, 1.0)]
    m = hs.synth_gaussian_map("u", 4, 4, centers)
    expected = np.array(loop_gaussian_map(4, 4, centers))
    assert np.allclose(m.p, expected, atol=1e-12, rtol=0)
    two = [(1.0, 2.5, 0.8), (3.0, 0.5, 1.5)]
    m2 = hs.synth_gaussian_map("u", 5, 3, two)
    assert np.allclose(m2.p, np.array(loop_gaussian_map(5, 3, two)), atol=1e-12, rtol=0)


def test_gaussian_map_symmetry():
    m = hs.synth_gaussian_map("u", 4, 4, [(2.0, 2.0, 1.0)])
    assert np.allclose(m.p, m.p[::-1, :], atol=1e-9)
    assert np.allclose(m.p, m.p[:, ::-1], atol=1e-9)


def test_gaussian_map_validates_inputs():
    with pytest.raises(ValueError, match="sigma"):
        hs.synth_gaussian_map("u", 4, 4, [(1.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="positive"):
        hs.synth_gaussian_map("u", 0, 4, [])
