"""Dense 3x2 / 3x3 tensor helpers and extended values.

Matrices are plain float64 numpy arrays: shape (3, 2) for surface
gradients (two columns spanning a tangent plane), shape (3, 3) for bulk
gradients.  Energy densities take values in [0, +inf], carried as IEEE
floats with +inf throughout the package; :class:`ExtValue` tags a
scalar result as such a value, and refuses NaN and negative ones.

Every (N, 3, 2) stack a public function takes is read by :func:`as_stack`
and every column cross product of a stack is formed by
:func:`column_invariants`; :func:`cross3` is its form for two 3-vectors.
The Gram matrix xi^T xi is formed once, by :func:`singular_frame`, which
reads the singular values, the norms and the principal frame off it.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "ExtValue",
    "as_mat32",
    "as_stack",
    "is_integer",
    "frob_norm",
    "cofactors",
    "sum3",
    "column_invariants",
    "cross3",
    "wedge",
    "singular_frame",
]


class ExtValue(float):
    """A nonnegative float or +inf; construction refuses NaN and negative
    values.  Arithmetic is plain float arithmetic."""

    __slots__ = ()

    def __new__(cls, value):
        v = float(value)
        if math.isnan(v):
            raise ValueError("extended value cannot be NaN")
        if v < 0.0:
            raise ValueError(f"extended value must be nonnegative, got {v}")
        return super().__new__(cls, v)

    def as_float(self) -> float:
        """The plain float, +inf included."""
        return float(self)


def _read(arr, stack: bool) -> np.ndarray:
    """arr as floats: one (3, 2) matrix, or an (N, 3, 2) stack, of finite
    entries, or ValueError. A float array of that shape, of any memory
    layout, is returned as it is."""
    out = np.asarray(arr, dtype=float)
    if out.shape[-2:] != (3, 2) or out.ndim != 2 + stack:
        want = "stack must have shape (N, 3, 2)" if stack else (
            "must have shape (3, 2)")
        raise ValueError(f"mat32 {want}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("mat32 entries must be finite")
    return out


def as_mat32(arr) -> np.ndarray:
    return _read(arr, stack=False)


def as_stack(arr) -> np.ndarray:
    """The one reader of (N, 3, 2) stacks: a lone (3, 2) matrix is refused
    (pass ``xi[None]``), and so is any other shape or a NaN or infinite
    entry, all with ValueError. A float stack is never copied."""
    return _read(arr, stack=True)


def is_integer(value) -> bool:
    """True for an int or a numpy integer, False for anything else: a
    float, even an integral one, and a bool, which counts as an integer
    in Python but is never a count, a depth or an index here."""
    return isinstance(value, numbers.Integral) and not isinstance(value,
                                                                  bool)


def frob_norm(F) -> float:
    """Frobenius norm (the norm used throughout for matrices)."""
    a = np.asarray(F, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


# rows (r, r + 1, r + 2) mod 3 as slices, for r = 0 and r = 1, 2
_ROW_BLOCKS = ((slice(0, 1), slice(1, 2), slice(2, 3)),
               (slice(1, 3), slice(2, None, -2), slice(0, 2)))

# columns k + 1 for k = 0, 1, 2, then column 1: k + 2 is one further
_NEXT_COLUMNS = np.array([1, 2, 0, 1])


def cofactors(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and cofactor matrices of 3x3 matrices held as entry
    rows: ``F[i, j]`` holds entry (i, j) of every matrix, shape
    (3, 3, ...), and the cofactors come back in the same layout.

    Column k of the cofactor matrix is the cross product of columns k + 1
    and k + 2 (cyclic), so F^T cof = det I, written with the products and
    differences of ``np.cross`` on a cyclic copy of the columns, for row 0
    and rows 1 and 2 in turn. The determinant is the expansion along row
    0, its terms F[0, j] cof[0, j] added by :func:`sum3`; when two columns
    are equal their products cancel exactly and det is 0.0, not a
    rounding residue.
    """
    F = np.asarray(F, dtype=float)
    cols = np.take(F, _NEXT_COLUMNS, axis=1)
    cof = np.empty_like(F)
    for rows, r1, r2 in _ROW_BLOCKS:
        block = cof[rows]
        np.multiply(cols[r1, :3], cols[r2, 1:], out=block)
        block -= cols[r2, :3] * cols[r1, 1:]
    del cols
    return sum3(F[0] * cof[0]), cof


def sum3(q: np.ndarray) -> np.ndarray:
    """q[0] + q[1] + q[2], added as (q[0] + q[2]) + q[1]: the order in
    which numpy's einsum adds three products, so a three-term dot product
    written with it equals its einsum bit for bit."""
    out = q[0] + q[2]
    out += q[1]
    return out


def column_invariants(xis: np.ndarray):
    """Column cross products c, their norms |c| and the squared norms
    |xi|^2 of a stack that :func:`as_stack` has read; c comes back as
    contiguous (3, N) rows.

    Reads the six entry rows ``xis[:, i, j]`` in place, whatever the
    stack's layout: they are contiguous for a component-major stack, the
    (N, 3, 2) view of contiguous (3, 2, N) memory, and strided for a
    C-ordered one. The products and sums are those of ``np.cross``,
    ``np.linalg.norm(..., axis=1)`` and ``np.sum(xis * xis, axis=(1, 2))``
    in their order, so all three are bit-identical to those.
    """
    rows = [xis[:, i, j] for i in range(3) for j in range(2)]
    x0, x1, y0, y1, z0, z1 = rows
    c = np.empty((3, xis.shape[0]))
    np.subtract(y0 * z1, z0 * y1, out=c[0])
    np.subtract(z0 * x1, x0 * z1, out=c[1])
    np.subtract(x0 * y1, y0 * x1, out=c[2])
    sq = np.empty(xis.shape[0])
    a = np.multiply(c[0], c[0])
    for k in (1, 2):
        a += np.multiply(c[k], c[k], out=sq)
    np.sqrt(a, out=a)
    q = np.multiply(x0, x0)
    for r in rows[1:]:
        q += np.multiply(r, r, out=sq)
    return c, a, q


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors bit for bit, in the products and
    differences of :func:`column_invariants`; scalar and unchecked, for
    callers that cross one pair at a time."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def wedge(xi) -> np.ndarray:
    """Cross product of the two columns of a 3x2 matrix or an (N, 3, 2)
    stack, shape (3,) or (N, 3): the rows c of :func:`column_invariants`,
    transposed, so bit-identical to ``np.cross``. Both are read like
    :func:`as_stack`."""
    x = np.asarray(xi, dtype=float)
    if x.shape == (3, 2):
        return wedge(x[None])[0]
    return column_invariants(as_stack(x))[0].T


# |w|^2 is a fourth power of the entries: below a largest singular value
# of 2^-240 it loses digits to underflow, above entries of 2^240 it
# overflows.  Such rows are scaled by a power of two, which is exact.
_GRAM_MIN = 2.0 ** -240
_GRAM_MAX = 2.0 ** 240


def _gram_frame(x: np.ndarray):
    _, w, q = column_invariants(x)
    c1, c2 = x[:, :, 0], x[:, :, 1]
    diff = np.einsum("ni,ni->n", c1, c1) - np.einsum("ni,ni->n", c2, c2)
    off = 2.0 * np.einsum("ni,ni->n", c1, c2)
    r = np.hypot(diff, off)
    sig = np.empty((x.shape[0], 2))
    s1 = np.sqrt(0.5 * (q + r), out=sig[:, 0])
    # |w| = s1 s2 exactly; s1 = 0 only for the zero matrix, where w = 0
    np.minimum(w / np.where(s1 > 0.0, s1, 1.0), s1, out=sig[:, 1])
    cos = np.divide(diff, r, out=np.ones_like(r), where=r > 0.0)
    sin = np.divide(off, r, out=np.zeros_like(r), where=r > 0.0)
    return sig, np.sqrt(q), cos, sin


def _scaled_frame(x: np.ndarray):
    """:func:`_gram_frame` of the rows scaled by powers of two, their
    singular values and norms scaled back."""
    e = np.frexp(np.abs(x).max(axis=(1, 2), initial=0.0))[1]
    sig, norms, cos, sin = _gram_frame(np.ldexp(x, -e[:, None, None]))
    return np.ldexp(sig, e[:, None]), np.ldexp(norms, e), cos, sin


def singular_frame(xis):
    """Singular values ``sigma`` (N, 2), descending, Frobenius norms and
    principal frame ``(cos, sin)`` of an (N, 3, 2) stack, read off its
    Gram matrix [[a, b], [b, d]] = xi^T xi in one pass. The top
    eigenvector v1 has v1 v1^T = [[1 + cos, sin], [sin, 1 - cos]] / 2 with
    (cos, sin) = (a - d, 2b) / r, r = hypot(a - d, 2b) = s1^2 - s2^2, and
    (1, 0) where r = 0 (s1 = s2). With the wedge w and q = |xi|^2 of
    :func:`column_invariants`, s1 = sqrt((q + r) / 2), s2 = |w| / s1 and
    |xi| = sqrt(q): every term of s1 is nonnegative, and s2 divides the
    directly computed wedge instead of subtracting two close numbers, so
    both keep an absolute error of a few ulps of s1 at s1 = s2 and at
    rank deficiency.

    Squares must stay in the normal range: a stack with an entry beyond
    2^240 is scaled row by row by powers of two (exact), and otherwise
    only the rows with s1 below 2^-240 are, so the common case pays one
    max over the stack; the frame is that of the scaled rows. The stack
    is read by :func:`as_stack`.
    """
    x = as_stack(xis)
    if float(np.abs(x).max(initial=0.0)) > _GRAM_MAX:
        return _scaled_frame(x)
    frame = _gram_frame(x)
    far = frame[0][:, 0] < _GRAM_MIN
    if far.any():
        for whole, part in zip(frame, _scaled_frame(x[far])):
            whole[far] = part
    return frame
