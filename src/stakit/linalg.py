"""Dense numeric kernels shared by every other module.

Conventions: a "matrix" is a 2-D float64 ndarray (rows x cols, row-major),
a "grid" is a 3-D float64 ndarray (height x width x channels).  matmul and
softmax_rows also take stacks of matrices (..., rows, cols): the leading
axes are batch axes, and each slice comes out with the same bits as the
kernel applied to that matrix alone.  All kernels are pure functions,
inputs are never mutated.  Every kernel gives the same bits for the same
values and shapes on one install, whatever the memory layout of its
operands; golden tests rely on that.  matmul, the one kernel that calls
the BLAS, states how far that holds across BLAS thread counts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "matmul",
    "softmax_rows",
    "bilinear_resize",
]


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product (..., m, k) @ (..., k, n) with explicit shape checks, computed by the linked BLAS.

    Operands have rank 2 or more; their leading axes are batch axes that
    broadcast against each other, so a single matrix pairs with every
    slice of a stack.  Each slice of a stacked product has the same bits
    as the 2-D product of that slice: numpy hands the BLAS one slice at a
    time, with the same kernel and layout as the 2-D call.  Both operands
    are copied to C order first, so the BLAS sees one layout for each pair
    of shapes: the same values and shapes give the same bits on one
    install whatever the operands' strides or offsets (a transposed or
    swapped-axes view, Fortran order or a column slice would otherwise
    take another kernel).  The products that attention makes give the same
    bits at one and two BLAS threads too; a larger product that the BLAS
    splits among threads may not (OpenBLAS 0.3.31 rounds a 64x64 by 64x300
    product differently at 1 and 2 threads).  Results are not
    row-independent: a one-row product takes a matrix-vector kernel, so a
    row computed alone can differ in its last bit from the same row inside
    a larger product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul expects operands of rank 2 or more, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim > 2:
        try:
            np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            raise ValueError(f"matmul batch axes do not broadcast: {a.shape} x {b.shape}") from None
    return np.ascontiguousarray(a) @ np.ascontiguousarray(b)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, stabilised by subtracting each row's max.

    m is a nonempty matrix or a stack of them (..., rows, cols); each slice
    of a stack comes out with the same bits as that matrix alone.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.size == 0:
        raise ValueError(f"softmax_rows expects a nonempty matrix or stack of matrices, got shape {m.shape}")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def bilinear_resize(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resample a (h, w, c) grid to (out_h, out_w, c).

    Sample positions use half-pixel centres: output pixel i maps to source
    coordinate (i + 0.5) * h / out_h - 0.5, clamped to the valid range, so
    resizing to the same shape is an exact copy and corner values survive
    upsampling.  Outputs are convex combinations of inputs, hence bounded
    by the input min and max.

    The x interpolation runs once on the h source rows, giving an
    (h, out_w, c) grid; each output row then blends the two of its rows
    that bracket its y coordinate, in place.  Every output element gets
    the same products and sums in the same order as gathering two source
    rows per output row and blending each along x, so the bits are those
    of that formula.  The result is C-ordered.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 3:
        raise ValueError(f"bilinear_resize expects an (h, w, c) grid, got shape {grid.shape}")
    h, w, _ = grid.shape
    if h == 0 or w == 0:
        raise ValueError("bilinear_resize source grid has no pixels")
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"bilinear_resize target size must be positive, got ({out_h}, {out_w})")
    if (out_h, out_w) == (h, w):
        return grid.copy()

    ys = np.clip((np.arange(out_h, dtype=np.float64) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w, dtype=np.float64) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]

    rows = np.take(grid, x0, axis=1) * (1.0 - wx) + np.take(grid, x1, axis=1) * wx
    out = np.take(rows, y0, axis=0)
    out *= 1.0 - wy
    bot = np.take(rows, y1, axis=0)
    bot *= wy
    out += bot
    return out
