"""Hotspot map sampling and score re-weighting tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stakit import hotspot as hs
from stakit.hotspot import Detection, HotspotMap

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
# sampling


def test_sample_uniform_map_anywhere():
    m = HotspotMap.uniform("u", 4, 5)
    for x, y in [(0.1, 0.1), (2.5, 3.5), (4.9, 3.9)]:
        assert hs.sample_at(m, x, y) == 1.0 / 20.0


def test_sample_one_hot_map():
    p = np.zeros((4, 5))
    p[2, 3] = 1.0
    m = HotspotMap("u", p)
    assert hs.sample_at(m, 3.5, 2.5) == 1.0  # inside cell (row 2, col 3)
    assert hs.sample_at(m, 0.5, 0.5) == 0.0


def test_sample_two_by_two_bottom_right():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert hs.sample_at(m, 1.5, 1.5) == 0.4


def test_sample_clamps_out_of_range_points():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert hs.sample_at(m, -5.0, -5.0) == 0.1
    assert hs.sample_at(m, 99.0, 99.0) == 0.4
    assert hs.sample_at(m, 99.0, -5.0) == 0.2


def test_sample_bilinear_at_cell_centers_equals_cell_value():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert hs.sample_at(m, 0.5, 0.5, bilinear=True) == 0.1
    assert hs.sample_at(m, 1.5, 1.5, bilinear=True) == 0.4


def test_sample_bilinear_midpoint_averages_neighbours():
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert abs(hs.sample_at(m, 1.0, 0.5, bilinear=True) - 0.15) < 1e-15
    assert abs(hs.sample_at(m, 1.0, 1.0, bilinear=True) - 0.25) < 1e-15


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
def test_sample_at_equals_the_scalar_loop_bit_for_bit(h, w, seed, x, y, bilinear):
    m = random_map(np.random.default_rng(seed), "u", h, w)
    got = hs.sample_at(m, x, y, bilinear=bilinear)
    assert type(got) is float
    assert got.hex() == loop_sample_at(m.p.tolist(), x, y, bilinear).hex()


@pytest.mark.parametrize("bilinear", [False, True])
def test_sample_clamps_infinite_points_and_rejects_nan(bilinear):
    m = HotspotMap("u", np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert hs.sample_at(m, math.inf, -math.inf, bilinear=bilinear) == 0.2
    assert hs.sample_at(m, -math.inf, math.inf, bilinear=bilinear) == 0.3
    with pytest.raises(ValueError, match="NaN"):
        hs.sample_at(m, math.nan, 0.5, bilinear=bilinear)


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
    want = [d.score * loop_sample_at(maps[d.uid].p.tolist(), *d.center, bilinear) for d in dets]
    assert [d.score.hex() for d in out] == [v.hex() for v in want]
    assert [d.uid for d in out] == [d.uid for d in dets]


def test_reweight_of_no_detections_is_empty():
    assert hs.reweight([], {}) == []
    assert hs.reweight(iter([]), {"img0": HotspotMap.uniform("img0", 2, 2)}, bilinear=True) == []


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
