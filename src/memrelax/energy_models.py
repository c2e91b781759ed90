"""Bulk stored-energy models with a determinant barrier.

The shipped family is W(F) = h(|det F|) + |F|^p with p > 1, where the
barrier h is positive, continuous on (0, inf), +inf exactly at 0, and
bounded by a plateau r(delta) on [delta, inf).  Two barriers ship
(reciprocal power and shifted log); anything exposing the same small
surface plugs in: ``name``, ``plateau``, ``values``, ``derivative``,
``second_derivative`` and ``blowup_order``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_kernel import ExtValue, as_mat33, cofactors

__all__ = [
    "ReciprocalBarrier",
    "ShiftedLogBarrier",
    "EnergyModel",
    "ConditionReport",
    "eval_w",
    "check_conditions",
]


@dataclass(frozen=True)
class ReciprocalBarrier:
    """h(t) = t^-power.  Nonincreasing, so the plateau on [delta, inf) is h(delta)."""

    power: float = 1.0

    def __post_init__(self):
        if not 0 < self.power < math.inf:
            raise ValueError("barrier power must be finite and positive")

    @property
    def name(self) -> str:
        return "reciprocal" if self.power == 1.0 else f"reciprocal^{self.power:g}"

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

    @property
    def name(self) -> str:
        return "shifted_log"

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
    """W(F) = h(|det F|) + |F|^p.  Coercive: W(F) >= coercivity * |F|^p."""

    barrier: ReciprocalBarrier | ShiftedLogBarrier = field(
        default_factory=ReciprocalBarrier)
    p: float = 2.0
    coercivity: float = 1.0

    def __post_init__(self):
        if not 1 < self.p < math.inf:
            raise ValueError("growth exponent p must be finite and exceed 1")
        if not 0 < self.coercivity <= 1:
            raise ValueError("coercivity constant must lie in (0, 1]")

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

    def w_batch(self, F: np.ndarray) -> np.ndarray:
        """W over a stack of 3x3 matrices, as a float array with +inf."""
        F = np.asarray(F, dtype=float).reshape(-1, 3, 3)
        if not np.all(np.isfinite(F)):
            raise ValueError("mat33 entries must be finite")
        dets, _ = cofactors(F)
        return self.density(np.abs(dets), np.sum(F * F, axis=(1, 2)))


def eval_w(model: EnergyModel, F) -> ExtValue:
    """Evaluate the stored energy at a 3x3 gradient."""
    return ExtValue(model.w_batch(as_mat33(F))[0])


@dataclass(frozen=True)
class ConditionReport:
    """Sampled audit of the extended-value energy conditions.

    empirical_c[k] is the max of W/(1 + |F|^p) over samples with
    |det F| >= deltas[k]; plateau_bound[k] the matching a-priori bound.
    """

    barrier: str
    p: float
    n_samples: int
    deltas: tuple
    empirical_c: tuple
    plateau_bound: tuple
    singular_samples: int
    singular_all_infinite: bool
    max_symmetry_defect: float

    def as_dict(self) -> dict:
        return {
            "barrier": self.barrier,
            "p": self.p,
            "n_samples": self.n_samples,
            "deltas": list(self.deltas),
            "empirical_c": list(self.empirical_c),
            "plateau_bound": list(self.plateau_bound),
            "singular_samples": self.singular_samples,
            "singular_all_infinite": self.singular_all_infinite,
            "max_symmetry_defect": self.max_symmetry_defect,
        }


def _sample_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Generic samples plus near-singular perturbations A + eps*B."""
    n_generic = n // 2
    generic = rng.uniform(-3.0, 3.0, size=(n_generic, 3, 3))
    n_adv = n - n_generic
    A = rng.uniform(-3.0, 3.0, size=(n_adv, 3, 3))
    mix = rng.uniform(-1.0, 1.0, size=(n_adv, 2))
    # force the third column into the span of the first two
    A[:, :, 2] = A[:, :, 0] * mix[:, :1] + A[:, :, 1] * mix[:, 1:]
    B = rng.uniform(-1.0, 1.0, size=(n_adv, 3, 3))
    eps = 10.0 ** rng.integers(-6, 0, size=(n_adv, 1, 1)).astype(float)
    return np.concatenate([generic, A + eps * B], axis=0)


def _singular_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """Exactly singular samples: duplicated or zeroed columns.

    Column duplication cancels exactly in the expansion along row 0 that
    :func:`cofactors` uses, so the determinant is 0.0 and not a rounding
    residue.
    """
    out = rng.uniform(-3.0, 3.0, size=(n, 3, 3))
    half = n // 2
    out[:half, :, 2] = out[:half, :, 0]
    out[half:, :, 1] = 0.0
    return out


def check_conditions(model: EnergyModel, n_samples: int = 2000,
                     deltas=(1.0, 0.5, 0.1), seed: int = 0) -> ConditionReport:
    """Sampled verification of blow-up, growth, and plane symmetry.

    Not a proof; a randomized audit used by the test suite.
    """
    rng = np.random.default_rng(seed)
    F = _sample_matrices(rng, n_samples)
    dets = np.abs(cofactors(F)[0])
    sq = np.sum(F * F, axis=(1, 2))
    vals = model.density(dets, sq)
    ratio = vals / (1.0 + model.norm_power(sq))

    emp, bound = [], []
    for d in deltas:
        mask = dets >= d
        emp.append(float(ratio[mask].max()) if mask.any() else 0.0)
        bound.append(model.barrier.plateau(d) + max(1.0, 2.0 ** (model.p / 2.0 - 1.0)))

    n_sing = max(16, n_samples // 20)
    sing = _singular_matrices(rng, n_sing)
    sing_vals = model.w_batch(sing)
    all_inf = bool(np.all(np.isinf(sing_vals)))

    # plane symmetry: flipping the third column must not change W
    flipped = F.copy()
    flipped[:, :, 2] *= -1.0
    defect = np.abs(model.w_batch(flipped) - vals)
    defect = float(np.max(defect[np.isfinite(defect)], initial=0.0))

    return ConditionReport(
        barrier=model.barrier.name,
        p=model.p,
        n_samples=n_samples,
        deltas=tuple(float(d) for d in deltas),
        empirical_c=tuple(emp),
        plateau_bound=tuple(bound),
        singular_samples=n_sing,
        singular_all_infinite=all_inf,
        max_symmetry_defect=defect,
    )
