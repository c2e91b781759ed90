"""Bulk stored-energy models with a determinant barrier.

The shipped family is W(F) = h(|det F|) + |F|^p with p > 1, where the
barrier h is positive, continuous on (0, inf), +inf exactly at 0, and
bounded by a plateau r(delta) on [delta, inf).  Two barriers ship
(reciprocal power and shifted log); anything exposing the same small
surface plugs in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor_kernel import ExtValue, INFINITE, as_mat33, det3, frob_norm

__all__ = [
    "ReciprocalBarrier",
    "ShiftedLogBarrier",
    "EnergyModel",
    "ConditionReport",
    "eval_w",
    "check_conditions",
    "barrier_from_name",
]


@dataclass(frozen=True)
class ReciprocalBarrier:
    """h(t) = t^-power.  Nonincreasing, so the plateau on [delta, inf) is h(delta)."""

    power: float = 1.0

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("barrier power must be positive")

    @property
    def name(self) -> str:
        return "reciprocal" if self.power == 1.0 else f"reciprocal^{self.power:g}"

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("barrier argument must be nonnegative")
        if t == 0.0:
            return math.inf
        return t ** -self.power

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

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("barrier argument must be nonnegative")
        if t == 0.0:
            return math.inf
        return max(-math.log(t), 0.0) + 1.0 / t

    def plateau(self, delta: float) -> float:
        if not delta > 0:
            raise ValueError("plateau threshold must be positive")
        return self(delta)

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


_BARRIERS = {
    "reciprocal": ReciprocalBarrier,
    "shifted_log": ShiftedLogBarrier,
}


def barrier_from_name(name: str, **kwargs):
    try:
        cls = _BARRIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown barrier {name!r}; available: {sorted(_BARRIERS)}"
        ) from None
    return cls(**kwargs)


@dataclass(frozen=True)
class EnergyModel:
    """W(F) = h(|det F|) + |F|^p.  Coercive: W(F) >= coercivity * |F|^p."""

    barrier: ReciprocalBarrier | ShiftedLogBarrier = field(
        default_factory=ReciprocalBarrier)
    p: float = 2.0
    coercivity: float = 1.0

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("growth exponent p must exceed 1")
        if not 0 < self.coercivity <= 1:
            raise ValueError("coercivity constant must lie in (0, 1]")

    def energy(self, F) -> ExtValue:
        return eval_w(self, F)

    def describe(self) -> dict:
        return {"barrier": self.barrier.name, "p": self.p,
                "coercivity": self.coercivity}

    # ---- numeric cores (float arrays, +inf as IEEE inf) ----------------

    def norm_power(self, sq: np.ndarray) -> np.ndarray:
        """(squared Frobenius norm) -> |F|^p, elementwise."""
        sq = np.asarray(sq, dtype=float)
        if self.p == 2.0:
            return sq
        return sq ** (self.p / 2.0)

    def third_column_values(self, xi, zetas: np.ndarray) -> np.ndarray:
        """W((xi | zeta_k)) for a batch of third columns, as a float array.

        Returns +inf where the determinant vanishes exactly.
        """
        xi = np.asarray(xi, dtype=float)
        z = np.asarray(zetas, dtype=float).reshape(-1, 3)
        c = np.array([
            xi[1, 0] * xi[2, 1] - xi[2, 0] * xi[1, 1],
            xi[2, 0] * xi[0, 1] - xi[0, 0] * xi[2, 1],
            xi[0, 0] * xi[1, 1] - xi[1, 0] * xi[0, 1],
        ])
        dets = z @ c
        q = float(np.sum(xi * xi))
        return self.barrier.values(np.abs(dets)) + self.norm_power(
            q + np.sum(z * z, axis=1))

    def w_batch(self, F: np.ndarray) -> np.ndarray:
        """W over a stack of 3x3 matrices, as a float array with +inf."""
        F = np.asarray(F, dtype=float).reshape(-1, 3, 3)
        dets = (
            F[:, 0, 0] * (F[:, 1, 1] * F[:, 2, 2] - F[:, 1, 2] * F[:, 2, 1])
            - F[:, 0, 1] * (F[:, 1, 0] * F[:, 2, 2] - F[:, 1, 2] * F[:, 2, 0])
            + F[:, 0, 2] * (F[:, 1, 0] * F[:, 2, 1] - F[:, 1, 1] * F[:, 2, 0])
        )
        sq = np.sum(F * F, axis=(1, 2))
        return self.barrier.values(np.abs(dets)) + self.norm_power(sq)


def eval_w(model: EnergyModel, F) -> ExtValue:
    """Evaluate the stored energy at a 3x3 gradient."""
    F = as_mat33(F)
    d = det3(F)
    if d == 0.0:
        return INFINITE
    n = frob_norm(F)
    return ExtValue(model.barrier(abs(d)) + n ** model.p)


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

    Column duplication cancels exactly in the cofactor expansion, so
    det3 returns 0.0 and not a rounding residue.
    """
    out = rng.uniform(-3.0, 3.0, size=(n, 3, 3))
    half = n // 2
    out[:half, :, 2] = out[:half, :, 0]
    out[half:, :, 1] = 0.0
    return out


def check_conditions(model: EnergyModel, n_samples: int = 2000,
                     deltas=(1.0, 0.5, 0.1), seed: int = 0) -> ConditionReport:
    """Sampled verification of blow-up, growth, and plane symmetry.

    Not a proof; a randomized audit used by the CLI selftest and the
    test suite.
    """
    rng = np.random.default_rng(seed)
    F = _sample_matrices(rng, n_samples)
    vals = model.w_batch(F)
    dets = np.abs([det3(f) for f in F])
    sq = np.sum(F * F, axis=(1, 2))
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
