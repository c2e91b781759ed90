"""In-memory spans and counters around memrelax's public entry points.

The tracer patches module and class attributes from outside the package,
so no file under ``src/`` knows about it. Each name is wrapped where the
caller looks it up: ``director_field`` imports ``integrate_adaptive`` into
its own namespace, so that is the attribute replaced. ``uninstall`` puts
every original object back.

A span is (name, start, end, parent, job, sizes). Spans are recorded only
while a job is open, and every job has a root span named ``bench.job``.
Leaves called about 10k times or more per job (the barrier methods) get
counters only, since a span each would dominate the traced time.
"""
from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

ROOT_SPAN = "bench.job"

# module prefixes whose self time is reported as a share of the job
LAYERS = ("fiber_reduction", "envelope", "dimension_reduction",
          "director_field", "quadrature", "pw_affine")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int
    sizes: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "sizes": self.sizes}


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[int, str], list[int]] = {}
        self.patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._job: int | None = None

    # ---- jobs -----------------------------------------------------------

    def run_job(self, job_id: int, fn):
        """Call fn() under a root span; returns its result."""
        self._job = job_id
        self._stack = []
        idx = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()
            self._job = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._job))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    # ---- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner, attr: str, name: str, sizes=None,
                  peak: bool = False) -> None:
        """Replace owner.attr by a wrapper that records one span per call.

        ``sizes(args, kwargs, result)`` returns numbers stored on the span;
        ``peak`` also records the call's peak traced allocation in MB.
        """
        original = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return original(*args, **kwargs)
            idx = tracer._open(name)
            started = peak and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer.spans[idx]
                if started:
                    span.sizes["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                span.end = time.perf_counter()
                tracer._stack.pop()
            if sizes is not None:
                span.sizes.update(sizes(args, kwargs, result))
            return result

        self._patch(owner, attr, wrapper)

    def wrap_counter(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr by a wrapper that counts calls and elements
        of its first array argument after self."""
        original = vars(owner)[attr]
        tracer = self

        def wrapper(obj, t, *args, **kwargs):
            if tracer._job is not None:
                c = tracer.counters.setdefault((tracer._job, name), [0, 0])
                c[0] += 1
                c[1] += getattr(t, "size", 1)
            return original(obj, t, *args, **kwargs)

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # ---- analysis -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part of it covered by its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                if cur_end is None or c.start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c.start, c.end
                else:
                    cur_end = max(cur_end, c.end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append((s.end - s.start) - covered)
        return out

    def within(self, idx: int, name: str) -> bool:
        """Is some ancestor of span idx named name?"""
        p = self.spans[idx].parent
        while p is not None:
            if self.spans[p].name == name:
                return True
            p = self.spans[p].parent
        return False

    def to_dict(self) -> dict:
        return {"spans": [s.as_dict() for s in self.spans],
                "counters": [{"job": j, "name": n, "calls": c[0],
                              "elements": c[1]}
                             for (j, n), c in sorted(self.counters.items())]}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each memrelax layer."""
    import numpy as np
    from memrelax import (dimension_reduction, director_field, energy_models,
                          envelope, fiber_reduction, pw_affine)

    def n_xi(args, kwargs, result):
        return {"xi": int(result.shape[0])}

    def n_points(args, kwargs, result):
        return {"points": int(result.shape[0])}

    def values_at(args, kwargs, result):
        table = args[0]
        pts = np.asarray(args[1], dtype=float).reshape(-1, 3, 2)
        # largest singular value from the 2x2 Gram matrix, no LAPACK call
        g = (pts.transpose(0, 2, 1) @ pts)
        tr = g[:, 0, 0] + g[:, 1, 1]
        det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
        smax2 = 0.5 * (tr + (tr * tr - 4.0 * det).clip(min=0.0) ** 0.5)
        outside = int((smax2 ** 0.5 > table.sigma_max + 1e-12).sum())
        return {"points": int(pts.shape[0]), "outside": outside}

    def iterations(args, kwargs, result):
        return {"iterations": int(result.iterations)}

    def membrane_cells(args, kwargs, result):
        return {"cells": int(args[0].mesh.n_cells)}

    def film_cells(args, kwargs, result):
        obj = args[0]
        return {"cells": int(obj.mesh.n_cells * (obj.layers - 1))}

    def assignment_cells(args, kwargs, result):
        return {"cells": int(result.n_cells)}

    def quad(args, kwargs, result):
        return {"n_evals": int(result.n_evals), "level": int(result.level)}

    def locate(args, kwargs, result):
        return {"points": int(result.shape[0]),
                "pairs": int(result.shape[0]) * int(args[0].n_cells)}

    fr, env, dr, df, pw = (fiber_reduction, envelope, dimension_reduction,
                           director_field, pw_affine)
    t = tracer
    t.wrap_span(fr, "w0_batch", "fiber_reduction.w0_batch", n_xi)
    t.wrap_span(fr, "w0_closed_form", "fiber_reduction.w0_closed_form")
    t.wrap_span(env, "laminate_search", "envelope.laminate_search")
    t.wrap_span(env, "four_corner_bound", "envelope.four_corner_bound")
    t.wrap_span(env, "square_refine_bound", "envelope.square_refine_bound")
    t.wrap_span(env.EnvelopeTable, "values_at", "envelope.values_at",
                values_at)
    t.wrap_span(dr, "minimize_membrane",
                "dimension_reduction.minimize_membrane", iterations)
    t.wrap_span(dr, "minimize_thin_film",
                "dimension_reduction.minimize_thin_film", iterations)
    t.wrap_span(dr._MembraneObjective, "__call__",
                "dimension_reduction.membrane_objective", membrane_cells)
    t.wrap_span(dr._ThinObjective, "__call__",
                "dimension_reduction.film_objective", film_cells)
    t.wrap_span(dr, "recovery_sequence",
                "dimension_reduction.recovery_sequence")
    # gamma_sweep looks build_assignment up in its own module
    for owner in (dr, df):
        t.wrap_span(owner, "build_assignment",
                    "director_field.build_assignment", assignment_cells)
    t.wrap_span(df, "cell_min_constrained",
                "director_field.cell_min_constrained")
    t.wrap_span(df.BlendedDirector, "evaluate",
                "director_field.BlendedDirector.evaluate", n_points)
    t.wrap_span(df, "nirf_value", "director_field.nirf_value")
    t.wrap_span(df, "integrate_adaptive", "quadrature.integrate_adaptive",
                quad)
    t.wrap_span(pw.TriMesh, "locate", "pw_affine.locate", locate)
    t.wrap_span(pw, "refine_field", "pw_affine.refine_field", peak=True)
    for cls in (energy_models.ReciprocalBarrier,
                energy_models.ShiftedLogBarrier):
        t.wrap_counter(cls, "values", "energy_models.barrier.values")
        t.wrap_counter(cls, "derivative", "energy_models.barrier.derivative")


_UNITS = (("_frac", "ratio"), (".us_per_xi", "us"), (".us_per_point", "us"),
          (".us_per_cell", "us"), (".ms_per_kcell", "ms"),
          (".s_per_node", "s"), (".peak_mb", "MB"), (".mean_level", "level"),
          (".s", "s"), ("_s", "s"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_metrics(tracer: Tracer, job: int, selfs: list[float]) -> dict:
    """Per-layer numbers of one traced job, keyed by metric name."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    sizes: dict[str, dict] = {}
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    laminate_xi = 0
    job_s = 0.0
    for i, s in enumerate(tracer.spans):
        if s.job != job:
            continue
        if s.name == ROOT_SPAN:
            job_s = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        secs[s.name] = secs.get(s.name, 0.0) + (s.end - s.start)
        agg = sizes.setdefault(s.name, {})
        for k, v in s.sizes.items():
            agg[k] = max(agg.get(k, 0.0), v) if k == "peak_mb" \
                else agg.get(k, 0) + v
        self_s[s.name.split(".")[0]] += selfs[i]
        if s.name.startswith("fiber_reduction.") and tracer.within(
                i, "envelope.laminate_search"):
            laminate_xi += s.sizes.get("xi", 1)

    def c(name):
        return calls.get(name, 0)

    def sec(name):
        return secs.get(name, 0.0)

    def size(name, key):
        return sizes.get(name, {}).get(key, 0)

    w0b = "fiber_reduction.w0_batch"
    w0c = "fiber_reduction.w0_closed_form"
    lam = "envelope.laminate_search"
    va = "envelope.values_at"
    mm = "dimension_reduction.minimize_membrane"
    mf = "dimension_reduction.minimize_thin_film"
    mo = "dimension_reduction.membrane_objective"
    fo = "dimension_reduction.film_objective"
    ba = "director_field.build_assignment"
    ev = "director_field.BlendedDirector.evaluate"
    qa = "quadrature.integrate_adaptive"
    lo = "pw_affine.locate"
    rf = "pw_affine.refine_field"
    m = {
        f"{w0b}.calls": c(w0b),
        f"{w0b}.xi": size(w0b, "xi"),
        f"{w0b}.s": sec(w0b),
        f"{w0b}.us_per_xi": _ratio(1e6 * sec(w0b), size(w0b, "xi")),
        f"{w0c}.calls": c(w0c),
        f"{w0c}.s": sec(w0c),
        f"{lam}.calls": c(lam),
        f"{lam}.s_per_node": _ratio(sec(lam), c(lam)),
        f"{lam}.xi_per_node": _ratio(laminate_xi, c(lam)),
        "envelope.four_corner_bound.s": sec("envelope.four_corner_bound"),
        "envelope.square_refine_bound.s": sec("envelope.square_refine_bound"),
        f"{va}.calls": c(va),
        f"{va}.points": size(va, "points"),
        f"{va}.us_per_point": _ratio(1e6 * sec(va), size(va, "points")),
        f"{va}.outside_frac": _ratio(size(va, "outside"), size(va, "points")),
    }
    for name, obj in ((mm, mo), (mf, fo)):
        m[f"{name}.s"] = sec(name)
        m[f"{name}.iterations"] = size(name, "iterations")
        m[f"{name}.evals"] = c(obj)
        m[f"{name}.accepted_frac"] = _ratio(size(name, "iterations"), c(obj))
    m[f"{mo}.ms_per_kcell"] = _ratio(1e6 * sec(mo), size(mo, "cells"))
    m[f"{fo}.ms_per_kcell"] = _ratio(1e6 * sec(fo), size(fo, "cells"))
    m["dimension_reduction.recovery_sequence.s"] = \
        sec("dimension_reduction.recovery_sequence")
    m.update({
        f"{ba}.s": sec(ba),
        f"{ba}.cells": size(ba, "cells"),
        f"{ba}.us_per_cell": _ratio(1e6 * sec(ba), size(ba, "cells")),
        "director_field.cell_min_constrained.calls":
            c("director_field.cell_min_constrained"),
        f"{ev}.s": sec(ev),
        f"{ev}.points": size(ev, "points"),
        "director_field.nirf_value.s": sec("director_field.nirf_value"),
        f"{qa}.calls": c(qa),
        f"{qa}.s": sec(qa),
        f"{qa}.n_evals": size(qa, "n_evals"),
        f"{qa}.evals_per_call": _ratio(size(qa, "n_evals"), c(qa)),
        f"{qa}.mean_level": _ratio(size(qa, "level"), c(qa)),
        f"{lo}.calls": c(lo),
        f"{lo}.points": size(lo, "points"),
        f"{lo}.pairs": size(lo, "pairs"),
        f"{lo}.s": sec(lo),
        f"{rf}.s": sec(rf),
        f"{rf}.peak_mb": size(rf, "peak_mb"),
    })
    for kind in ("values", "derivative"):
        calls_n, elems = tracer.counters.get(
            (job, f"energy_models.barrier.{kind}"), (0, 0))
        m[f"energy_models.barrier.{kind}.calls"] = calls_n
        m[f"energy_models.barrier.{kind}.elements"] = elems
    for layer, s in self_s.items():
        m[f"{layer}.self_frac"] = _ratio(s, job_s)
    return m


def traced_metrics(tracer: Tracer, jobs: list[int]) -> dict:
    """Median over traced jobs of each per-layer number."""
    selfs = tracer.self_times()
    per_job = [job_metrics(tracer, j, selfs) for j in jobs]
    return {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
