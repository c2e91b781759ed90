"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs."""
from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = sorted(workloads.WORKLOADS)


def _main(capsys, *argv) -> list[str]:
    assert run.main(list(argv) + ["--smoke", "--seconds", "0.01"]) == 0
    return capsys.readouterr().out.splitlines()


def _patch_targets() -> list[tuple[object, str, object]]:
    tracer = spans.Tracer()
    spans.install(tracer)
    targets = list(tracer.patches)
    tracer.uninstall()
    return targets


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_end_to_end_metrics(name, capsys):
    lines = _main(capsys, "--workload", name, "--seed", "1")
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert "fail_frac = 0.0 ratio (0 of " in "\n".join(lines)
    assert any(line.startswith("proc.cpu_s = ") for line in lines)
    has_film = any(line.startswith("film_energy = ") for line in lines)
    assert has_film == (name == "sweep")


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_per_layer_metrics(name, capsys, tmp_path):
    targets = _patch_targets()
    lines = _main(capsys, "--workload", name, "--seed", "0", "--trace", "1",
                  "--out", str(tmp_path))
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert (tmp_path / f"trace-{name}-seed0.json").is_file()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


@pytest.fixture(scope="module")
def traced() -> spans.Tracer:
    tracer = spans.Tracer()
    for job, name in enumerate(NAMES):
        w = workloads.WORKLOADS[name](0, smoke=True)
        w.prepare_checks()
        spans.install(tracer)
        try:
            tracer.run_job(job, w.run)
        finally:
            tracer.uninstall()
    return tracer


def test_spans_nest_inside_their_parents(traced):
    roots = [s for s in traced.spans if s.parent is None]
    assert [s.name for s in roots] == [spans.ROOT_SPAN] * len(NAMES)
    assert len(traced.spans) > len(roots)
    for s in traced.spans:
        assert s.start <= s.end
        if s.parent is not None:
            p = traced.spans[s.parent]
            assert p.job == s.job
            assert p.start <= s.start and s.end <= p.end


def test_self_times_are_nonnegative(traced):
    selfs = traced.self_times()
    # rounding of perf_counter differences is far below a nanosecond
    assert min(selfs) >= -1e-9
    for job in range(len(NAMES)):
        root = next(s for s in traced.spans
                    if s.job == job and s.parent is None)
        total = sum(t for s, t in zip(traced.spans, selfs) if s.job == job)
        assert total == pytest.approx(root.end - root.start, rel=1e-9)


def test_uninstall_restores_every_wrapped_attribute():
    tracer = spans.Tracer()
    spans.install(tracer)
    targets = list(tracer.patches)
    assert targets
    for owner, attr, original in targets:
        assert vars(owner)[attr] is not original
    tracer.uninstall()
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_energies(name):
    a = workloads.WORKLOADS[name](7, smoke=True)
    b = workloads.WORKLOADS[name](7, smoke=True)
    out_a, out_b = a.run(), b.run()
    assert a.energy(out_a) == b.energy(out_b)
    assert a.extras(out_a) == b.extras(out_b)


class _Stub:
    def check(self, out):
        return [] if out >= 0 else ["negative"]

    def energy(self, out):
        return out


def test_ledger_counts_raises_violations_and_drift():
    ledger = run.Ledger(_Stub())
    ledger.record(1.0, None)
    ledger.record(None, "Traceback: boom")
    ledger.record(-1.0, None)
    ledger.record(2.0, None)
    ledger.record(1.0, None)
    assert (ledger.attempted, ledger.failed) == (5, 3)


def test_probe_restores_the_alarm_and_scales_short_blocks():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        speed.ref_loop()
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a block shorter than one period still gets a sample
    assert probe.samples
    assert probe.scaled(wall) > 0
