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
    "cross3",
    "cofactors",
    "det3",
    "wedge_norm",
    "wedge",
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


def cross3(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float).reshape(3)
    b = np.asarray(b, dtype=float).reshape(3)
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def cofactors(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinants and cofactor matrices of an (N, 3, 3) stack.

    Column k of the cofactor matrix is the cross product of the other two
    columns in cyclic order, so F^T cof = det I.  The determinant is the
    expansion along row 0; when two columns are equal their products
    cancel exactly and det is 0.0, not a rounding residue.
    """
    F = np.asarray(F, dtype=float)
    cof = np.empty_like(F)
    for k in range(3):
        cof[:, :, k] = np.cross(F[:, :, (k + 1) % 3], F[:, :, (k + 2) % 3],
                                axis=1)
    return np.einsum("ki,ki->k", F[:, 0, :], cof[:, 0, :]), cof


def det3(F) -> float:
    """Determinant of a 3x3 matrix by cofactor expansion (deterministic)."""
    f = np.asarray(F, dtype=float)
    if f.shape != (3, 3):
        raise ValueError(f"det3 expects shape (3, 3), got {f.shape}")
    return float(cofactors(f[None])[0][0])


def wedge(xi) -> np.ndarray:
    """Cross product of the two columns of a 3x2 matrix."""
    xi = as_mat32(xi)
    return cross3(xi[:, 0], xi[:, 1])


def wedge_norm(xi) -> float:
    """Norm of the column cross product; zero exactly at rank deficiency."""
    return float(np.linalg.norm(wedge(xi)))
