"""Seeded inputs, jobs and output checks of the memrelax benchmark.

Each workload builds its inputs from a seed in ``__init__`` (the timed
set-up), runs one job in ``run`` and judges a job's output in ``check``
outside the timed region. Jobs call memrelax through module attributes,
so the tracer's wrappers see every call. Seed 0 uses the canonical
inputs; other seeds draw them from small ranges around those, which keeps
the headline energies within a few percent of each other across seeds.

Sizes are chosen so a job takes a few seconds on one core: a run then
holds several jobs, a warm-up pass under tracemalloc and the set-up
samples, and the median of several jobs is steadier than one long job.
"""
from __future__ import annotations

import math

import numpy as np

from memrelax import (dimension_reduction, director_field, envelope,
                      fiber_reduction, pw_affine)
from memrelax.energy_models import (EnergyModel, ReciprocalBarrier,
                                    ShiftedLogBarrier)


def _rel_dev(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


class Table:
    """Writes an envelope table: laminate search over batched fiber solves."""

    name = "table"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        # varying r keeps a closed form from special-casing r = 1
        r = 1.0 if seed == 0 else float(rng.uniform(0.99, 1.01))
        self.model = EnergyModel(ReciprocalBarrier(r))
        self.depth = 1 if smoke else 2

    def prepare_checks(self) -> None:
        pass

    def run(self):
        return envelope.build_envelope_table(
            self.model, sigma_max=0.5, pitch=0.5, depth=self.depth,
            threads=1)

    def energy(self, tab) -> float:
        return float(tab.values.mean())

    def extras(self, tab) -> dict:
        return {}

    def check(self, tab) -> list[str]:
        bad = []
        p = self.model.p
        for e in tab.entries:
            s1, s2 = e.sigma
            xi = np.array([[s1, 0.0], [0.0, s2], [0.0, 0.0]])
            w0 = fiber_reduction.w0_closed_form(self.model, xi).as_float()
            if not e.value <= w0 + 1e-9:
                bad.append(f"node {e.sigma} = {e.value!r} above w0 {w0!r}")
            floor = (s1 * s1 + s2 * s2) ** (p / 2.0)
            if not e.value >= floor - 1e-9:
                bad.append(f"node {e.sigma} = {e.value!r} below |xi|^p")
        growth = tab.audit_growth()
        if not growth <= 1.0:
            bad.append(f"audit_growth {growth!r} > 1")
        return bad

    def outputs(self, tab) -> dict:
        return {"values": [e.value for e in tab.entries]}

    def deviation(self, tab, ref: dict) -> float:
        return _rel_dev(self.outputs(tab)["values"], ref["values"])


class Sweep:
    """Reads an envelope table: membrane and film descents of a sweep."""

    name = "sweep"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        load = np.array([0.0, 0.0, -1.0])
        if seed != 0:
            load += rng.uniform(-0.05, 0.05, size=3)
        self.load_vec = load
        self.model = EnergyModel()
        self.table = envelope.build_envelope_table(
            self.model, sigma_max=2.0, pitch=1.0 if smoke else 0.5, depth=1,
            threads=1)
        self.load = dimension_reduction.LoadPotential(self._psi)
        self.mesh = pw_affine.unit_square_mesh(2 if smoke else 8)
        self.eps = [0.2, 0.1]
        self.iters = 5 if smoke else 200
        self.flat_total = math.nan

    def _psi(self, pts, x3):
        return np.tile(self.load_vec, (len(pts), 1))

    def prepare_checks(self) -> None:
        # zero descent steps score the flat start the minimizer begins from
        self.flat_total = dimension_reduction.minimize_membrane(
            self.table, self.load, self.mesh, iters=0).total

    def run(self):
        return dimension_reduction.gamma_sweep(
            self.model, self.table, self.load, self.mesh, self.eps,
            iters=self.iters, threads=1)

    def energy(self, report) -> float:
        return float(report.rows[0].emem)

    def extras(self, report) -> dict:
        return {"film_energy": float(np.mean([r.e3d for r in report.rows]))}

    def check(self, report) -> list[str]:
        bad = []
        for r in report.rows:
            nums = (r.eps, r.e3d, r.emem, r.gap, r.lp_distance)
            if not all(math.isfinite(x) for x in nums):
                bad.append(f"row eps={r.eps} is not finite: {nums}")
            if not r.lp_distance >= 0.0:
                bad.append(f"row eps={r.eps} has lp_distance < 0")
        emem = report.rows[0].emem
        if not emem <= self.flat_total:
            bad.append(f"emem {emem!r} above the flat start {self.flat_total!r}")
        return bad

    def outputs(self, report) -> dict:
        return {"rows": [[r.eps, r.e3d, r.emem, r.lp_distance]
                         for r in report.rows]}

    def deviation(self, report, ref: dict) -> float:
        got = np.asarray(self.outputs(report)["rows"])[:, 1:]
        return _rel_dev(got, np.asarray(ref["rows"])[:, 1:])


class Nirf:
    """Scalar constrained fiber solves and adaptive quadrature per cell,
    after a mesh refinement that runs the quadratic point locator."""

    name = "nirf"

    def __init__(self, seed: int, smoke: bool = False):
        rng = np.random.default_rng(seed)
        if seed == 0:
            c1, c2, c3 = 0.1, 0.1, 0.2
        else:
            c1, c2 = rng.uniform(0.09, 0.11, size=2)
            c3 = rng.uniform(0.18, 0.22)
        mesh = pw_affine.unit_square_mesh(2 if smoke else 12)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        vals = np.column_stack([x + c1 * np.sin(y), y + c2 * np.cos(x),
                                c3 * x * y])
        self.v = pw_affine.PwAffineField(mesh, vals)
        _, j_v, _ = director_field.feasible_normal(self.v.gradients())
        self.j = 4 * j_v
        self.model = EnergyModel(ShiftedLogBarrier())
        self.lower = math.nan

    def prepare_checks(self) -> None:
        # every blended director value is feasible for its cell's
        # constrained problem, so the cellwise minimum bounds the job below
        v_ref = pw_affine.refine_field(self.v, 1)
        asn = director_field.build_assignment(self.model, v_ref, self.j)
        self.lower = director_field.cellwise_energy(asn)

    def run(self):
        v_ref = pw_affine.refine_field(self.v, 1)
        return director_field.nirf_value(self.model, v_ref, self.j, 64,
                                         threads=1).as_float()

    def energy(self, value) -> float:
        return float(value)

    def extras(self, value) -> dict:
        return {}

    def check(self, value) -> list[str]:
        if not math.isfinite(value):
            return [f"nirf value {value!r} is not finite"]
        if not value >= self.lower * (1.0 - 1e-4):
            return [f"nirf value {value!r} below cellwise {self.lower!r}"]
        return []

    def outputs(self, value) -> dict:
        return {"value": value}

    def deviation(self, value, ref: dict) -> float:
        return _rel_dev(value, ref["value"])


WORKLOADS = {w.name: w for w in (Table, Sweep, Nirf)}
