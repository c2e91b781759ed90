"""Dense 3x2 / 3x3 tensor helpers and extended-value arithmetic.

Matrices are plain float64 numpy arrays: shape (3, 2) for surface
gradients (two columns spanning a tangent plane), shape (3, 3) for bulk
gradients.  Energy densities take values in [0, +inf]; the infinite
value is carried by the ExtValue tag so that it never leaks into
optimizer arithmetic as a bare float.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ExtValue",
    "INFINITE",
    "ZERO",
    "mat32",
    "mat33",
    "as_mat32",
    "as_mat33",
    "append_column",
    "frob_norm",
    "cofactors",
    "det3",
    "wedge_norm",
    "wedge",
    "singular_values",
]


class ExtValue:
    """A nonnegative real extended with +inf.

    Total order, absorbing addition, scalar scaling with the measure
    convention 0 * inf = 0.  Instances are immutable.
    """

    __slots__ = ("_value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v):
            raise ValueError("extended value cannot be NaN")
        if v < 0.0:
            raise ValueError(f"extended value must be nonnegative, got {v}")
        object.__setattr__(self, "_value", v)

    def __setattr__(self, name, value):
        raise AttributeError("ExtValue is immutable")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._value)

    @property
    def finite(self) -> float:
        """The finite payload; raises if the value is +inf."""
        if not self.is_finite:
            raise ValueError("value is +inf; branch on is_finite before unwrapping")
        return self._value

    def as_float(self) -> float:
        """Lossy view for display and numpy seams (+inf maps to math.inf)."""
        return self._value

    def __add__(self, other):
        o = _coerce(other)
        return ExtValue(self._value + o._value)

    __radd__ = __add__

    def __mul__(self, scalar):
        s = float(scalar)
        if math.isnan(s) or s < 0.0:
            raise ValueError(f"scale factor must be nonnegative, got {scalar}")
        if s == 0.0:
            # measure convention: a zero-area region contributes nothing
            return ZERO
        return ExtValue(self._value * s)

    __rmul__ = __mul__

    def __lt__(self, other):
        return self._value < _coerce(other)._value

    def __le__(self, other):
        return self._value <= _coerce(other)._value

    def __gt__(self, other):
        return self._value > _coerce(other)._value

    def __ge__(self, other):
        return self._value >= _coerce(other)._value

    def __eq__(self, other):
        try:
            return self._value == _coerce(other)._value
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return "ExtValue(+inf)" if not self.is_finite else f"ExtValue({self._value!r})"


def _coerce(x) -> ExtValue:
    if isinstance(x, ExtValue):
        return x
    return ExtValue(x)


INFINITE = ExtValue(math.inf)
ZERO = ExtValue(0.0)


def _validated(arr, shape, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} entries must be finite")
    return out


def mat32(col1, col2) -> np.ndarray:
    """Stack two 3-vectors as the columns of a 3x2 matrix."""
    out = np.column_stack([np.asarray(col1, dtype=float).reshape(3),
                           np.asarray(col2, dtype=float).reshape(3)])
    return _validated(out, (3, 2), "mat32")


def mat33(col1, col2, col3) -> np.ndarray:
    """Stack three 3-vectors as the columns of a 3x3 matrix."""
    out = np.column_stack([np.asarray(c, dtype=float).reshape(3)
                           for c in (col1, col2, col3)])
    return _validated(out, (3, 3), "mat33")


def as_mat32(arr) -> np.ndarray:
    return _validated(arr, (3, 2), "mat32")


def as_mat33(arr) -> np.ndarray:
    return _validated(arr, (3, 3), "mat33")


def append_column(xi, zeta) -> np.ndarray:
    """Adjoin a third column to a 3x2 matrix."""
    xi = as_mat32(xi)
    z = np.asarray(zeta, dtype=float).reshape(3)
    return np.column_stack([xi, z])


def frob_norm(F) -> float:
    """Frobenius norm (the norm used throughout for matrices)."""
    a = np.asarray(F, dtype=float)
    return float(np.sqrt(np.sum(a * a)))


def cofactors(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and cofactor matrices of an (N, 3, 3) stack.

    Column k of the cofactor matrix is the cross product of the other two
    columns in cyclic order, so F^T cof = det I.  The determinant is the
    expansion along row 0; when two columns are equal their products
    cancel exactly and det is 0.0, not a rounding residue.
    """
    F = np.asarray(F, dtype=float)
    cof = np.empty_like(F)
    # column pairs (1, 2), (2, 0), (0, 1) as strided views, no copies
    cof[:, :, 0] = wedge(F[:, :, 1:])
    cof[:, :, 1] = wedge(F[:, :, 2::-2])
    cof[:, :, 2] = wedge(F[:, :, :2])
    return np.einsum("ki,ki->k", F[:, 0, :], cof[:, 0, :]), cof


def det3(F) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion (deterministic)."""
    f = np.asarray(F, dtype=float)
    if f.shape != (3, 3):
        raise ValueError(f"det3 expects shape (3, 3), got {f.shape}")
    return float(cofactors(f[None])[0][0])


def wedge(xi) -> np.ndarray:
    """Cross product of the two columns of a 3x2 matrix or an (N, 3, 2)
    stack, shape (3,) or (N, 3).

    Written out component by component with the products and differences
    of ``np.cross``, so the result is bit-identical to it.  A single matrix
    is validated like :func:`as_mat32`; a stack only by its shape.
    """
    x = np.asarray(xi, dtype=float)
    if x.ndim == 2:
        x = as_mat32(x)
    elif x.ndim != 3 or x.shape[1:] != (3, 2):
        raise ValueError(
            f"wedge expects shape (3, 2) or (N, 3, 2), got {x.shape}")
    a = x[..., 0]
    b = x[..., 1]
    out = np.empty(a.shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def wedge_norm(xi) -> float:
    """Norm of the column cross product; zero exactly at rank deficiency."""
    return float(np.linalg.norm(wedge(xi)))


# |w|^2 is a fourth power of the entries: below a largest singular value
# of 2^-240 it loses digits to underflow, above entries of 2^240 it
# overflows.  Such rows are scaled by a power of two, which is exact.
_GRAM_MIN = 2.0 ** -240
_GRAM_MAX = 2.0 ** 240


def _gram_singular(x: np.ndarray) -> np.ndarray:
    c1 = x[:, :, 0]
    c2 = x[:, :, 1]
    a = np.einsum("ni,ni->n", c1, c1)
    d = np.einsum("ni,ni->n", c2, c2)
    b = np.einsum("ni,ni->n", c1, c2)
    w = wedge(x)
    s1 = np.sqrt(0.5 * (a + d + np.hypot(a - d, 2.0 * b)))
    # |w| = s1 s2 exactly; s1 = 0 only for the zero matrix, where w = 0
    s2 = np.sqrt(np.einsum("ni,ni->n", w, w)) / np.where(s1 > 0.0, s1, 1.0)
    return np.column_stack([s1, np.minimum(s2, s1)])


def singular_values(xis) -> np.ndarray:
    """Singular values of an (N, 3, 2) stack, (N, 2) in descending order.

    Closed form from the column Gram invariants a = |c1|^2, d = |c2|^2,
    b = c1.c2 and the wedge w = c1 x c2:
    s1 = sqrt((a + d + hypot(a - d, 2b)) / 2) and s2 = |w| / s1.  Every
    term of s1 is nonnegative, and s2 divides the directly computed wedge
    instead of subtracting two close numbers, so both keep an absolute
    error of a few ulps of s1 at s1 = s2 and at rank deficiency.

    Squares must stay in the normal range: a stack with an entry beyond
    2^240 is scaled row by row by powers of two (exact), and otherwise
    only the rows with s1 below 2^-240 are, so the common case pays one
    max over the stack.  Raises ValueError on NaN or infinite entries.
    """
    x = np.asarray(xis, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (3, 2):
        raise ValueError(
            f"mat32 stack must have shape (N, 3, 2), got {x.shape}")
    top = float(np.abs(x).max(initial=0.0))
    if not math.isfinite(top):
        raise ValueError("mat32 entries must be finite")
    if top > _GRAM_MAX:
        sig = np.empty((x.shape[0], 2))
        far = np.ones(x.shape[0], dtype=bool)
    else:
        sig = _gram_singular(x)
        far = sig[:, 0] < _GRAM_MIN
        if not np.any(far):
            return sig
    rows = x[far]
    e = np.frexp(np.abs(rows).max(axis=(1, 2), initial=0.0))[1]
    sig[far] = np.ldexp(_gram_singular(np.ldexp(rows, -e[:, None, None])),
                        e[:, None])
    return sig
