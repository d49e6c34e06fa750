"""Tests of the benchmark itself: span accounting, patching, repeatable
counts and the output check.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from layers import COUNT_METRICS, layer_metrics, targets  # noqa: E402
from speedprobe import REFERENCE_S, SpeedProbe  # noqa: E402
from tracing import CALLS, SELF, SIZE, SIZE_MAX, TOTAL, Tracer  # noqa: E402
from workloads import Workload, check_output, digest, run_once  # noqa: E402


class ThreadClock:
    """A perf_counter stand-in with one clock per thread, advanced only by
    `tick`, so span durations are exact whatever the scheduler does."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self) -> float:
        return getattr(self._local, "t", 0.0)

    def tick(self, dt: float) -> None:
        self._local.t = self() + dt


@pytest.fixture
def clock(monkeypatch):
    c = ThreadClock()
    monkeypatch.setattr(tracing, "perf_counter", c)
    return c


def _tree(tracer: Tracer, clock: ThreadClock, barrier=None):
    """outer (1 s own work) -> 2 x mid (2 s own) -> leaf (4 s)."""
    def leaf():
        if barrier is not None:
            barrier.wait(timeout=10)
        clock.tick(4.0)
        return "x" * 3

    leaf = tracer.wrap("leaf", leaf, size=lambda a, k, r: len(r))

    def mid():
        clock.tick(1.0)
        leaf()
        clock.tick(1.0)

    mid = tracer.wrap("mid", mid)

    def outer():
        clock.tick(1.0)
        mid()
        mid()

    return tracer.wrap("outer", outer)


def test_self_time_of_nested_spans(clock):
    tracer = Tracer()
    _tree(tracer, clock)()
    e = tracer.edges()
    assert set(e) == {(None, "outer"), ("outer", "mid"), ("mid", "leaf")}
    assert e[(None, "outer")][TOTAL] == 13.0
    assert e[(None, "outer")][SELF] == 1.0
    assert e[("outer", "mid")][CALLS] == 2
    assert e[("outer", "mid")][TOTAL] == 12.0
    assert e[("outer", "mid")][SELF] == 4.0
    assert e[("mid", "leaf")][SELF] == 8.0
    assert e[("mid", "leaf")][SIZE] == 6 and e[("mid", "leaf")][SIZE_MAX] == 3


def test_self_time_per_thread(clock):
    """Two workers inside their spans at the same moment keep separate
    stacks: neither's leaf is charged to the other's mid."""
    tracer = Tracer()
    barrier = threading.Barrier(2)
    outer = _tree(tracer, clock, barrier)
    workers = [threading.Thread(target=outer) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=10)
    assert not any(w.is_alive() for w in workers)
    e = tracer.edges()
    assert set(e) == {("<worker>", "outer"), ("outer", "mid"), ("mid", "leaf")}
    assert e[("<worker>", "outer")][CALLS] == 2
    assert e[("<worker>", "outer")][SELF] == 2.0
    assert e[("outer", "mid")][SELF] == 8.0
    assert e[("mid", "leaf")][SELF] == 16.0


def test_counted_callable_opens_no_span_and_loses_no_call(clock):
    """A counted helper's time stays with its caller, and its calls from
    several threads add up exactly."""
    tracer = Tracer()

    def helper():
        clock.tick(0.5)

    helper = tracer.count("helper", helper)

    def work():
        for _ in range(20000):
            helper()

    work = tracer.wrap("work", work)
    workers = [threading.Thread(target=work) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    e = tracer.edges()
    assert set(e) == {("<worker>", "work"), (tracing.COUNTED_CALLER, "helper")}
    assert e[(tracing.COUNTED_CALLER, "helper")][CALLS] == 80000
    assert e[("<worker>", "work")][SELF] == 40000.0


def test_exception_closes_span(clock):
    tracer = Tracer()

    def boom():
        clock.tick(2.0)
        raise ValueError

    boom = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        boom()
    assert tracer.edges()[(None, "boom")][:3] == [1, 2.0, 2.0]


def test_install_patches_every_binding_and_uninstall_restores():
    import corrkit
    from corrkit import (correspondences, engine, exactlinalg, labelled,
                         properties, setexpr, smith)

    before = {"solve": exactlinalg.solve, "express": exactlinalg.express,
              "det": exactlinalg.det, "snf": smith.smith_normal_form,
              "union_all": setexpr.union_all, "mul": engine.Engine._mul}
    tracer = Tracer()
    tracer.install(*targets())
    try:
        assert correspondences.solve.__wrapped__ is before["solve"]
        assert correspondences.express.__wrapped__ is before["express"]
        assert labelled.express.__wrapped__ is before["express"]
        assert smith.det.__wrapped__ is before["det"]
        assert properties.det.__wrapped__ is before["det"]
        assert properties.smith_normal_form.__wrapped__ is before["snf"]
        assert corrkit.smith_normal_form.__wrapped__ is before["snf"]
        assert labelled.union_all.__wrapped__ is before["union_all"]
        assert engine.Engine.__dict__["_mul"].__wrapped__ is before["mul"]
        assert setexpr.SetExpr.intersect.__name__ == "intersect"
        assert setexpr.SetExpr.intersect.__code__.co_name == "counted"
        assert exactlinalg.frac is not None and not hasattr(exactlinalg.frac, "__wrapped__")
    finally:
        tracer.uninstall()
    assert correspondences.solve is before["solve"]
    assert labelled.express is before["express"]
    assert properties.smith_normal_form is before["snf"]
    assert engine.Engine.__dict__["_mul"] is before["mul"]


def _traced_counts(argv, jobs):
    tracer = Tracer()
    tracer.install(*targets())
    try:
        rc, stream, err = run_once(argv)
    finally:
        tracer.uninstall()
    assert rc == 0, err
    m = layer_metrics(tracer.edges(), jobs)
    return {k: m[k] for k in COUNT_METRICS}, stream


@pytest.mark.parametrize("argv, jobs, nonzero", [
    (("verify-sphere", "--n", "2", "--trunc", "4"), 1,
     ("exactlinalg.solve.calls", "exactlinalg.solve.cells", "exactlinalg.express.calls",
      "correspondences.kernel_and_jx.calls", "correspondences.compact_decomposition.calls",
      "algebra.mul.calls", "algebra.eval_at_atom.calls",
      "engine.mul.calls", "labelled.relative_range.calls")),
    (("obstruction", "--max-vertices", "5"), 1,
     ("smith.calls", "smith.cells", "obstruction.candidates",
      "ktheory.membership.calls", "graphs.canonical_encoding.calls")),
    (("obstruction", "--max-vertices", "5", "--jobs", "2"), 2,
     ("smith.calls", "obstruction.candidates", "ktheory.membership.calls")),
    (("properties", "--cases", "120", "--seed", "5"), 1,
     ("engine.mul.calls", "engine.mul.terms_out", "engine.mul.peak_terms",
      "engine.equals.calls", "setexpr.ops.calls", "smith.calls")),
])
def test_counts_repeat_exactly(argv, jobs, nonzero):
    first, stream1 = _traced_counts(argv, jobs)
    second, stream2 = _traced_counts(argv, jobs)
    assert first == second
    assert stream1 == stream2
    for key in nonzero:
        assert first[key] > 0, key


def test_traced_sweep_counts_match_its_report_at_any_jobs():
    serial, stream = _traced_counts(("obstruction", "--max-vertices", "5"), 1)
    threaded, _ = _traced_counts(("obstruction", "--max-vertices", "5", "--jobs", "2"), 2)
    assert serial == threaded
    head = stream.splitlines()[0]
    assert f'"candidates":{serial["obstruction.candidates"]}' in head
    assert serial["ktheory.membership.calls"] == serial["obstruction.candidates"]


_COUNTS_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from test_bench import _traced_counts
print(json.dumps([_traced_counts(tuple(a), 1)[0] for a in json.loads(sys.argv[3])]))
"""


def test_counts_repeat_across_interpreters_and_hash_seeds():
    argvs = [["verify-sphere", "--n", "2", "--trunc", "4"],
             ["properties", "--cases", "120", "--seed", "5"]]
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _COUNTS_SCRIPT, str(Path(__file__).parent), str(HERE),
             json.dumps(argvs)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]


def test_output_check_reads_any_mismatch_as_failure():
    argv = ("properties", "--cases", "60", "--seed", "3")
    wl = Workload("props", argv, 360, "cases", 1, "props")
    rc, stream, _ = run_once(argv)
    unrecorded = {"props": {"checks": 15, "sha256_by_seed": {}}}
    assert check_output(wl, 3, rc, stream, unrecorded) == (15, 0, "")
    recorded = {"props": {"checks": 15, "sha256_by_seed": {"3": digest(stream)}}}
    assert check_output(wl, 3, rc, stream, recorded)[1] == 0

    flipped = stream.replace('"ok":true', '"ok":false', 1)
    assert check_output(wl, 3, rc, flipped, unrecorded)[:2] == (15, 15)
    changed = stream.replace("60 cases", "61 cases", 1)
    assert check_output(wl, 3, rc, changed, recorded)[:2] == (15, 15)
    assert check_output(wl, 3, None, "", recorded)[:2] == (15, 15)
    assert check_output(wl, 3, 1, stream, unrecorded)[:2] == (15, 15)


def test_speed_probe_samples_during_the_run_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(period=0.01) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.ticks) >= 5
    assert all(t0 <= start < t0 + 1 for start, _, _ in probe.ticks)
    wall, cpu = probe.spent(float("-inf"), float("inf"))
    assert wall == pytest.approx(sum(t[1] for t in probe.ticks))
    assert 0 < cpu <= wall * 1.5
    assert probe.spent(t0 + 10, float("inf")) == (0, 0)


def test_speed_probe_scales_by_the_mean_snippet_time():
    probe = SpeedProbe()
    probe.ticks = [(0.0, 0.001, 0.0005), (1.0, 0.003, 0.0015)]
    wall_scale, cpu_scale = probe.scales()
    assert wall_scale == pytest.approx(REFERENCE_S / 0.002)
    assert cpu_scale == pytest.approx(REFERENCE_S / 0.001)
    with pytest.raises(RuntimeError):
        SpeedProbe().scales()
