#!/usr/bin/env python3
"""Seeded benchmark of memrelax: the table, sweep and nirf workloads.

Run from the repository root, for example

    python3 bench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

The program is imported from ``src/`` with BLAS and OpenMP pinned to one
thread, and every memrelax call passes ``threads=1``. One run

1. times the set-up (import plus input building) in this process and in
   fresh child processes, and reports the median as ``setup_s``;
2. with ``--trace 0``: runs one warm-up job under tracemalloc for
   ``peak_mb``, then times jobs until ``--seconds`` of job time is spent
   and reports their median as ``job_s``. Both times are taken under the
   host-speed probe of ``speed.py`` and scaled to a core of fixed speed;
   the plain wall times are printed beside them;
   with ``--trace 1``: alternates untraced and traced jobs for
   ``--seconds`` and reports the per-layer numbers of the traced ones;
3. checks every job's output outside the timed region.

It prints one line per metric with its unit, and as the last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import spans
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_SAMPLES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("table", "sweep", "nirf"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=BENCH / "results",
                    help="directory for the span file of a traced run")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def build(args, t0: float):
    """Pin threads, import the program and build the inputs.

    Returns the workload, the seconds since t0 and the same scaled by the
    host-speed probe.
    """
    with speed.Probe() as probe:
        w = _build(args)
        wall = time.perf_counter() - t0
    return w, wall, probe.scaled(wall)


def _build(args):
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, args.smoke)


def probe_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, measured inside it: (wall,
    scaled)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=120)
    wall, scaled = done.stdout.split()[-2:]
    return float(wall), float(scaled)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def attempt(fn):
    """Call fn once: (output or None, wall s, cpu s, traceback or None)."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception:  # a failing job is counted, the run goes on
        out, err = None, traceback.format_exc()
    return out, time.perf_counter() - t0, time.process_time() - c0, err


class Ledger:
    """Counts attempted and failed jobs and keeps the first good output."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.first = None

    def record(self, out, err) -> None:
        self.attempted += 1
        problems = [err] if err is not None else self.w.check(out)
        if err is None:
            if self.first is None:
                self.first = out
            elif self.w.energy(out) != self.w.energy(self.first):
                problems.append("energy differs from the first job at "
                                "threads=1")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"job {self.attempted} failed: {p}", file=sys.stderr)


def timed_jobs(w, ledger: Ledger, seconds: float) -> dict:
    """Warm-up under tracemalloc, then untraced jobs for `seconds`, each
    under the host-speed probe."""
    tracemalloc.start()
    out, _, _, err = attempt(w.run)
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    ledger.record(out, err)
    walls, scaled, cpus, spent = [], [], [], 0.0
    while spent < seconds:
        with speed.Probe() as probe:
            out, wall, cpu, err = attempt(w.run)
        ledger.record(out, err)
        spent += wall
        if err is None:
            walls.append(wall)
            scaled.append(probe.scaled(wall))
            cpus.append(cpu)
    return {"peak_mb": peak, "walls": walls, "scaled": scaled, "cpus": cpus}


def traced_jobs(w, ledger: Ledger, seconds: float, out_dir: Path,
                tag: str) -> dict:
    """Warm-up, then untraced and traced jobs in turn for `seconds`.

    Returns the per-layer metrics and writes the spans to out_dir.
    """
    out, _, _, err = attempt(w.run)
    ledger.record(out, err)
    tracer = spans.Tracer()
    plain, cpus, traced, jobs, spent = [], [], [], [], 0.0
    while spent < seconds:
        out, wall, cpu, err = attempt(w.run)
        ledger.record(out, err)
        plain.append(wall)
        cpus.append(cpu)
        job = len(jobs)
        spans.install(tracer)
        try:
            out, twall, _, err = attempt(lambda: tracer.run_job(job, w.run))
        finally:
            tracer.uninstall()
        ledger.record(out, err)
        traced.append(twall)
        jobs.append(job)
        spent += wall + twall
    metrics = spans.traced_metrics(tracer, jobs)
    metrics["proc.cpu_s"] = statistics.median(cpus)
    metrics["trace.job_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": environment(), **tracer.to_dict()}, fh)
    print(f"spans written to {path}")
    return metrics


def high_percentile(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def reference_deviation(w, args, output):
    if args.smoke or output is None or not REFERENCE.is_file():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(args.workload, {}).get(str(args.seed))
    return None if ref is None else w.deviation(output, ref)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "memrelax" / "__init__.py").is_file():
        print(f"memrelax sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    w, *own_setup = build(args, t0)
    if args.setup_probe:
        print(*own_setup)
        return 0
    w.prepare_checks()
    ledger = Ledger(w)
    print("env " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        tag = f"{args.workload}-seed{args.seed}"
        layer = traced_jobs(w, ledger, args.seconds, args.out, tag)
        report = {k: (v, spans.unit_of(k)) for k, v in layer.items()}
    else:
        setup = [own_setup] + [probe_setup(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        res = timed_jobs(w, ledger, args.seconds)
        walls, scaled = res["walls"], res["scaled"]
        report = {
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "job_s": (statistics.median(scaled) if scaled else math.nan,
                      "s"),
            "peak_mb": (res["peak_mb"], "MB"),
            "energy": (w.energy(ledger.first) if ledger.first is not None
                       else math.nan, "energy"),
        }
        print(f"setup_wall_s = {statistics.median(s for s, _ in setup)!r} s")
        print(f"job_wall_s = "
              + (f"{statistics.median(walls)!r} s" if walls else "nan s"))
        print(f"job_s samples n={len(scaled)}: "
              + " ".join(f"{x:.4f}" for x in scaled))
        hp = high_percentile(scaled)
        print("job_s high percentile: " + (
            f"p{hp[0]} = {hp[1]!r} s" if hp else
            "none (fewer than 11 samples)"))
        print(f"proc.cpu_s = {statistics.median(res['cpus'])!r} s"
              if res["cpus"] else "proc.cpu_s = nan s")

    if ledger.first is not None:
        for k, v in w.extras(ledger.first).items():
            print(f"{k} = {v!r} energy")
    print(f"fail_frac = {ledger.failed / ledger.attempted!r} ratio "
          f"({ledger.failed} of {ledger.attempted})")
    dev = reference_deviation(w, args, ledger.first)
    print("check.max_rel_dev = " + (f"{dev!r} ratio" if dev is not None
                                    else "none (no stored output)"))
    for name, (value, unit) in report.items():
        print(f"{name} = {value!r} {unit}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}
    correct = ledger.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
