"""Dense kernel tests: frozen hand values plus algebraic properties."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stakit
from stakit import linalg

from helpers import gather_bilinear, loop_bilinear, loop_matmul, loop_softmax_row


@st.composite
def small_matrices(draw, max_rows=5, max_cols=5, lo=-50.0, hi=50.0):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    values = draw(st.lists(
        st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        min_size=rows * cols, max_size=rows * cols,
    ))
    return np.array(values, dtype=np.float64).reshape(rows, cols)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_hand_value():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    assert np.array_equal(linalg.matmul(a, b), np.array([[17.0], [39.0]]))


def test_matmul_identity():
    m = np.array([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(linalg.matmul(np.eye(2), m), m)


def test_matmul_zero():
    z = np.zeros((2, 2))
    m = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert np.array_equal(linalg.matmul(z, m), np.zeros((2, 3)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\) x \(2, 2\)"):
        linalg.matmul(np.zeros((2, 3)), np.zeros((2, 2)))


def test_matmul_rejects_non_2d():
    with pytest.raises(ValueError):
        linalg.matmul(np.zeros(3), np.zeros((3, 2)))


def test_matmul_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k, m = rng.integers(1, 6, size=3)
        a = rng.normal(size=(n, k))
        b = rng.normal(size=(k, m))
        expected = np.array(loop_matmul(a.tolist(), b.tolist()))
        assert np.allclose(linalg.matmul(a, b), expected, atol=1e-12, rtol=0)


def test_matmul_associative_within_tolerance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        c = rng.normal(size=(2, 5))
        left = linalg.matmul(linalg.matmul(a, b), c)
        right = linalg.matmul(a, linalg.matmul(b, c))
        assert np.allclose(left, right, atol=1e-10, rtol=0)


def test_matmul_is_deterministic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(7, 9))
    b = rng.normal(size=(9, 4))
    assert np.array_equal(linalg.matmul(a, b), linalg.matmul(a, b))


# (rows, inner, cols) of the products that online inference and the gradient
# checks make, then one-row and one-column operands, which the BLAS computes
# with a matrix-vector kernel
CONTRACT_SHAPES = [
    (17, 64, 16), (16, 64, 16), (64, 64, 16), (17, 16, 17), (17, 17, 16), (16, 16, 64),
    (17, 64, 64), (16, 64, 64), (17, 64, 256), (17, 256, 64),
    (3, 6, 3), (3, 6, 12), (3, 12, 6), (6, 8, 4), (3, 8, 4), (3, 8, 8), (4, 8, 4), (3, 3, 3),
    (3, 6, 6), (3, 6, 4), (3, 4, 6), (3, 4, 4), (6, 3, 3), (8, 3, 4), (8, 6, 4), (12, 3, 6),
    (1, 64, 256), (1, 256, 64), (1, 6, 12), (1, 64, 1), (17, 64, 1), (256, 64, 1), (3, 6, 1),
]

HASH_PRODUCTS = """
import hashlib, json, sys
import numpy as np
from stakit import linalg
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n, k, m in json.loads(sys.argv[1]):
    a, b = rng.normal(size=(n, k)), rng.normal(size=(m, k)).T
    digest.update(linalg.matmul(a, b).tobytes())
    digest.update(linalg.matmul(a, np.ascontiguousarray(b)).tobytes())
print(digest.hexdigest())
"""


# stacks of three, a shared matrix on either side, and swapped-axes views
HASH_STACKED_PRODUCTS = """
import hashlib, json, sys
import numpy as np
from stakit import linalg
rng = np.random.default_rng(0)
digest = hashlib.sha256()
for n, k, m in json.loads(sys.argv[1]):
    a, b = rng.normal(size=(3, n, k)), rng.normal(size=(3, m, k)).swapaxes(-1, -2)
    for x, y in ((a, b), (a[0], b), (a, b[0]), (a, np.ascontiguousarray(b))):
        digest.update(linalg.matmul(x, y).tobytes())
print(digest.hexdigest())
"""


def digests_at_one_and_two_blas_threads(script):
    src = str(Path(stakit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        digests.add(subprocess.run([sys.executable, "-c", script, json.dumps(CONTRACT_SHAPES)], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    return digests


def test_matmul_bits_are_the_same_at_one_and_two_blas_threads():
    assert len(digests_at_one_and_two_blas_threads(HASH_PRODUCTS)) == 1


def test_stacked_matmul_bits_are_the_same_at_one_and_two_blas_threads():
    assert len(digests_at_one_and_two_blas_threads(HASH_STACKED_PRODUCTS)) == 1


def _layouts(m):
    """m as a C-order copy, a transposed view, Fortran order, a column slice and at an odd offset."""
    rows, cols = m.shape
    wide = np.zeros((rows, 2 * cols + 1))
    wide[:, 1::2] = m
    shifted = np.zeros(rows * cols + 1)[1:].reshape(rows, cols)
    shifted[...] = m
    return [m.copy(), np.ascontiguousarray(m.T).T, np.asfortranarray(m), wide[:, 1::2], shifted]


def test_matmul_bits_do_not_depend_on_operand_layout():
    rng = np.random.default_rng(3)
    for n, k, m in CONTRACT_SHAPES + [(80, 64, 256), (7, 1, 7)]:
        a, b = rng.normal(size=(n, k)), rng.normal(size=(k, m))
        expected = linalg.matmul(a, b)
        for a_view, b_view in itertools.product(_layouts(a), _layouts(b)):
            assert np.array_equal(a_view, a) and np.array_equal(b_view, b)
            assert np.array_equal(linalg.matmul(a_view, b_view), expected), (n, k, m)


def test_stacked_matmul_slices_equal_the_2d_products():
    rng = np.random.default_rng(8)
    for n, k, m in CONTRACT_SHAPES:
        a, b = rng.normal(size=(3, n, k)), rng.normal(size=(3, k, m))
        stacked = linalg.matmul(a, b)
        assert stacked.shape == (3, n, m)
        for i in range(3):
            assert np.array_equal(stacked[i], linalg.matmul(a[i], b[i])), (n, k, m)


def test_stacked_matmul_broadcasts_a_matrix_against_a_stack_on_either_side():
    rng = np.random.default_rng(9)
    for n, k, m in CONTRACT_SHAPES:
        a, b = rng.normal(size=(2, 3, n, k)), rng.normal(size=(k, m))
        left, right = linalg.matmul(a, b), linalg.matmul(b.T, a.swapaxes(-1, -2))
        for i, j in itertools.product(range(2), range(3)):
            assert np.array_equal(left[i, j], linalg.matmul(a[i, j], b)), (n, k, m)
            assert np.array_equal(right[i, j], linalg.matmul(b.T, a[i, j].T)), (n, k, m)


def test_stacked_matmul_bits_do_not_depend_on_operand_layout():
    rng = np.random.default_rng(10)
    for n, k, m in CONTRACT_SHAPES:
        a, b = rng.normal(size=(3, n, k)), rng.normal(size=(3, k, m))
        expected = linalg.matmul(a, b)
        a_view = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
        b_view = np.ascontiguousarray(b.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert np.array_equal(a_view, a) and np.array_equal(b_view, b)
        assert np.array_equal(linalg.matmul(a_view, b_view), expected), (n, k, m)
        assert np.array_equal(linalg.matmul(a_view, b), expected), (n, k, m)


def test_stacked_matmul_rejects_mismatched_inner_and_batch_sizes():
    with pytest.raises(ValueError, match=r"\(3, 2, 3\) x \(3, 2, 2\)"):
        linalg.matmul(np.zeros((3, 2, 3)), np.zeros((3, 2, 2)))
    with pytest.raises(ValueError, match=r"\(2, 3\) x \(4, 2, 2\)"):
        linalg.matmul(np.zeros((2, 3)), np.zeros((4, 2, 2)))
    with pytest.raises(ValueError, match=r"batch axes.*\(3, 2, 2\) x \(4, 2, 2\)"):
        linalg.matmul(np.zeros((3, 2, 2)), np.zeros((4, 2, 2)))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    assert np.array_equal(linalg.softmax_rows(np.array([[0.0, 0.0]])), np.array([[0.5, 0.5]]))


def test_softmax_single_element():
    assert np.array_equal(linalg.softmax_rows(np.array([[7.0]])), np.array([[1.0]]))


def test_softmax_hand_value():
    out = linalg.softmax_rows(np.array([[1.0, 2.0]]))
    expected = loop_softmax_row([1.0, 2.0])
    assert np.allclose(out[0], expected, atol=1e-15, rtol=0)
    assert abs(out[0, 0] - 0.2689414213699951) < 1e-15
    assert abs(out[0, 1] - 0.7310585786300049) < 1e-15


def test_softmax_rejects_empty_and_1d():
    with pytest.raises(ValueError):
        linalg.softmax_rows(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        linalg.softmax_rows(np.zeros(3))


def test_softmax_of_a_stack_equals_each_slice_alone():
    rng = np.random.default_rng(11)
    for shape in ((4, 1, 1), (4, 3, 1), (4, 1, 17), (2, 3, 17, 64), (5, 16, 64)):
        m = rng.normal(scale=3.0, size=shape)
        out = linalg.softmax_rows(m)
        for idx in np.ndindex(shape[:-2]):
            assert np.array_equal(out[idx], linalg.softmax_rows(m[idx])), (shape, idx)


@settings(max_examples=60)
@given(small_matrices())
def test_softmax_rows_sum_to_one(m):
    out = linalg.softmax_rows(m)
    assert np.all(out >= 0)
    assert np.all(out <= 1)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12, rtol=0)


@settings(max_examples=60)
@given(small_matrices(), st.floats(-30, 30, allow_nan=False))
def test_softmax_shift_invariance(m, shift):
    assert np.allclose(linalg.softmax_rows(m + shift), linalg.softmax_rows(m),
                       atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# bilinear resize


def test_bilinear_half_pixel_hand_value():
    grid = np.array([[[0.0], [1.0]]])
    out = linalg.bilinear_resize(grid, 1, 4)
    assert np.array_equal(out[:, :, 0], np.array([[0.0, 0.25, 0.75, 1.0]]))


def test_bilinear_identity_is_exact_copy():
    rng = np.random.default_rng(5)
    grid = rng.normal(size=(3, 4, 2))
    out = linalg.bilinear_resize(grid, 3, 4)
    assert np.array_equal(out, grid)
    out[0, 0, 0] = 99.0
    assert grid[0, 0, 0] != 99.0  # copy, not a view


def test_bilinear_constant_grid_stays_constant():
    grid = np.full((2, 3, 1), 0.7)
    out = linalg.bilinear_resize(grid, 5, 7)
    assert np.allclose(out, 0.7, atol=1e-12, rtol=0)


def test_bilinear_matches_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h, w = rng.integers(1, 5, size=2)
        oh, ow = rng.integers(1, 7, size=2)
        grid = rng.normal(size=(h, w, 2))
        out = linalg.bilinear_resize(grid, int(oh), int(ow))
        expected = np.array(loop_bilinear(grid.tolist(), int(oh), int(ow)))
        assert np.allclose(out, expected, atol=1e-12, rtol=0)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(1, 20), w=st.integers(1, 20), c=st.integers(1, 3),
       out_h=st.integers(1, 140), out_w=st.integers(1, 140))
@example(seed=0, h=12, w=16, c=1, out_h=96, out_w=128)  # an online hotspot map
@example(seed=1, h=7, w=9, c=2, out_h=7, out_w=9)  # the same shape
@example(seed=2, h=1, w=11, c=3, out_h=40, out_w=5)  # one source row
@example(seed=3, h=13, w=1, c=1, out_h=2, out_w=70)  # one source column
@example(seed=4, h=20, w=20, c=2, out_h=3, out_w=1)  # downsampling
@example(seed=5, h=5, w=6, c=1, out_h=5, out_w=140)  # one axis kept
def test_bilinear_has_the_bits_of_the_two_row_gather(seed, h, w, c, out_h, out_w):
    grid = np.random.default_rng(seed).normal(size=(h, w, c))
    out = linalg.bilinear_resize(grid, out_h, out_w)
    want = gather_bilinear(grid, out_h, out_w)
    assert out.shape == want.shape == (out_h, out_w, c)
    assert out.tobytes() == want.tobytes()


def test_bilinear_outputs_bounded_by_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        grid = rng.normal(size=(3, 3, 1))
        out = linalg.bilinear_resize(grid, 8, 5)
        assert out.min() >= grid.min() - 1e-12
        assert out.max() <= grid.max() + 1e-12


def test_bilinear_rejects_bad_sizes():
    with pytest.raises(ValueError):
        linalg.bilinear_resize(np.zeros((2, 2, 1)), 0, 3)
    with pytest.raises(ValueError):
        linalg.bilinear_resize(np.zeros((2, 2)), 2, 2)


def test_bilinear_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="no pixels"):
        linalg.bilinear_resize(np.zeros((0, 2, 1)), 2, 2)
    with pytest.raises(ValueError, match="no pixels"):
        linalg.bilinear_resize(np.zeros((2, 0, 1)), 2, 2)


# ---------------------------------------------------------------------------
# coercion helpers


def test_as_matrix_rejects_nan_and_wrong_ndim():
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[1.0, math.nan]])
    with pytest.raises(ValueError):
        linalg.as_matrix([1.0, 2.0])


def test_as_matrix_rejects_inf_and_a_grid():
    with pytest.raises(ValueError, match="finite"):
        linalg.as_matrix([[-math.inf, 1.0]])
    with pytest.raises(ValueError, match="ndim=3"):
        linalg.as_matrix([[[1.0]]])
