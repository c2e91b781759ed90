"""Bulk stored-energy models with a determinant barrier.

The shipped family is W(F) = h(|det F|) + |F|^p with p > 1, where the
barrier h is positive, continuous on (0, inf), +inf exactly at 0, and
bounded by a plateau r(delta) on [delta, inf).  Two barriers ship
(reciprocal power and shifted log); anything exposing the same small
surface plugs in: ``plateau``, ``values``, ``derivative``,
``second_derivative`` and ``blowup_order``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReciprocalBarrier",
    "ShiftedLogBarrier",
    "EnergyModel",
]


@dataclass(frozen=True)
class ReciprocalBarrier:
    """h(t) = t^-power.  Nonincreasing, so the plateau on [delta, inf) is h(delta)."""

    power: float = 1.0

    def __post_init__(self):
        if not 0 < self.power < math.inf:
            raise ValueError("barrier power must be finite and positive")

    def plateau(self, delta: float) -> float:
        if not delta > 0:
            raise ValueError("plateau threshold must be positive")
        return delta ** -self.power

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, np.inf)
        pos = t > 0
        np.power(t, -self.power, out=out, where=pos)
        return out

    @property
    def blowup_order(self) -> float:
        """r with h(t) ~ t^-r as t -> 0."""
        return self.power

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """h'(t) for t > 0 (used by descent assembly)."""
        t = np.asarray(t, dtype=float)
        return -self.power * t ** (-self.power - 1.0)

    def second_derivative(self, t: np.ndarray) -> np.ndarray:
        """h''(t) for t > 0."""
        t = np.asarray(t, dtype=float)
        return self.power * (self.power + 1.0) * t ** (-self.power - 2.0)


@dataclass(frozen=True)
class ShiftedLogBarrier:
    """h(t) = max(-log t, 0) + 1/t.  Nonincreasing with plateau h(delta)."""

    def plateau(self, delta: float) -> float:
        if not delta > 0:
            raise ValueError("plateau threshold must be positive")
        return float(self.values(np.array([delta]))[0])

    def values(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, np.inf)
        pos = t > 0
        safe = np.where(pos, t, 1.0)
        val = np.maximum(-np.log(safe), 0.0) + 1.0 / safe
        out[pos] = val[pos]
        return out

    @property
    def blowup_order(self) -> float:
        """r with h(t) ~ t^-r as t -> 0."""
        return 1.0

    def derivative(self, t: np.ndarray) -> np.ndarray:
        """h'(t) for t > 0, the right derivative at the kink t = 1."""
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, -1.0 / t, 0.0) - 1.0 / (t * t)

    def second_derivative(self, t: np.ndarray) -> np.ndarray:
        """h''(t) for t > 0, the right derivative at the kink t = 1."""
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, 1.0 / (t * t), 0.0) + 2.0 / (t * t * t)


@dataclass(frozen=True)
class EnergyModel:
    """W(F) = h(|det F|) + |F|^p.  Coercive: W(F) >= |F|^p, since h > 0."""

    barrier: ReciprocalBarrier | ShiftedLogBarrier = field(
        default_factory=ReciprocalBarrier)
    p: float = 2.0

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ValueError("growth exponent p must be finite and exceed 1")

    # ---- numeric cores (float arrays, +inf as IEEE inf) ----------------

    def norm_power(self, sq: np.ndarray) -> np.ndarray:
        """(squared Frobenius norm) -> |F|^p, elementwise."""
        sq = np.asarray(sq, dtype=float)
        if self.p == 2.0:
            return sq
        return sq ** (self.p / 2.0)

    def density(self, adet: np.ndarray, sq: np.ndarray) -> np.ndarray:
        """W from |det F| and |F|^2, elementwise: h(adet) + sq^{p/2}.

        +inf where adet is 0.  Every evaluation of W in the package goes
        through here.
        """
        return self.barrier.values(adet) + self.norm_power(sq)
