"""corrkit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  For about S seconds a single client
runs the workload again and again, each run in a fresh interpreter
(`worker.py`) that runs nothing else, as a CLI user would; every run's
output is checked against `reference.json`.  `setup_s` is the time from
spawning an interpreter to `corrkit.cli` imported and the inputs ready,
over every run but the first.  Times are reported at a reference host
speed (`speedprobe.py`), each with its value as measured.  With
`--trace 1` untraced and traced runs alternate.  A results file with the run record and every sample
goes to `.bench_results/`.  The last line of stdout is one JSON object:
correct, attempted, failed and the metrics (end-to-end with `--trace 0`,
per-layer with `--trace 1`).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
from layers import COUNT_METRICS  # noqa: E402
from workloads import workloads  # noqa: E402


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str | None:
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sample(name: str, seed: int, deadline: float, trace: int) -> dict:
    """Spawn one worker; its sample, with `setup_s` (spawn to inputs ready)
    and `process_s` (spawn to exit) added."""
    args = ["--workload", name, "--seed", str(seed), "--trace", str(trace)]
    spawned = _now()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - _now()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out.pop("ready_at") - spawned
    out["process_s"] = _now() - spawned
    return out


def closed_loop(name: str, seed: int, traces: tuple, until: float, deadline: float) -> list:
    """One client: the next run starts when the previous one has ended, and
    only while it is expected to end before `until`.  Runs take their
    trace flag from `traces` in turn, and each flag gets at least one run."""
    runs = []
    while len(runs) < len(traces) or _now() + runs[-1]["process_s"] <= until:
        trace = traces[len(runs) % len(traces)]
        runs.append(dict(sample(name, seed, deadline, trace), trace=trace))
    return runs


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Measure one workload; returns the run record."""
    wl = workloads(seed)[name]
    record = {
        "workload": name, "argv": list(wl.argv), "seed": seed, "seconds": seconds,
        "trace": trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "loadavg_start": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    # Traced and untraced runs alternate, so a drift of the host's speed
    # during the measurement shifts both alike.
    runs = closed_loop(name, seed, (0, 1) if trace else (0,), _now() + seconds, deadline)
    untraced = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    rss = [r["peak_rss_mb"] for r in untraced]
    # Tracing starts after the inputs are ready, so every run's set-up
    # counts, except the first: that interpreter may compile bytecode.
    for r in runs:
        r["setup_ref_s"] = (r["setup_s"] - r["setup_probe_s"]) * r["wall_scale"]
    later = runs[1:] or runs

    def timed(key: str, sample: list) -> dict:
        q1, med, q3 = quartiles([r[key + "_ref_s"] for r in sample])
        return {"value": med, "unit": "s", "q1": q1, "q3": q3, "n": len(sample),
                "measured": statistics.median(r[key + "_s"] for r in sample)}

    wall = timed("wall", untraced)
    summary = {
        "wall_s": wall,
        "items_per_s": {"value": wl.items / wall["value"], "unit": "1/s", "items": wl.items,
                        "item_unit": wl.item_unit, "measured": wl.items / wall["measured"]},
        "cpu_s": timed("cpu", untraced),
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        "setup_s": timed("setup", later),
        "fail_frac": {"value": failed / attempted, "unit": "ratio"},
        # Host time per reference second: above 1, the host ran slower.
        "host_slowdown": {"value": statistics.median(1 / r["wall_scale"] for r in runs),
                          "unit": "x"},
    }
    record.update(samples={key: [r[key] for r in sample] for key, sample in (
                      ("wall_s", untraced), ("wall_ref_s", untraced), ("cpu_s", untraced),
                      ("cpu_ref_s", untraced), ("peak_rss_mb", untraced),
                      ("setup_s", later), ("setup_ref_s", later), ("wall_scale", runs))},
                  summary=summary, attempted=attempted, failed=failed,
                  failures=sorted({r["reason"] for r in runs if r["failed"]}))
    if trace:
        # Counts repeat exactly between runs; median_low keeps them integers.
        layers = {key: (statistics.median_low if key in COUNT_METRICS else statistics.median)(
                      [r["layers"][key] for r in traced])
                  for key in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_ref_s"] for r in traced)
        layers["trace_overhead_frac"] = (traced_wall - wall["value"]) / wall["value"]
        record.update(layers=layers, traced=traced)
    return record


def _print_summary(rec: dict) -> None:
    s = rec["summary"]
    print(f"{rec['workload']} (seed {rec['seed']}, {rec['seconds']:g} s, "
          f"trace {'on' if rec['trace'] else 'off'}, load {rec['loadavg_start'][0]:.2f})")
    for key in ("wall_s", "items_per_s", "cpu_s", "peak_rss_mb", "setup_s", "fail_frac",
                "host_slowdown"):
        m = s[key]
        extra = f"  (q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n {m['n']})" if "q1" in m else ""
        if "measured" in m:
            extra += f"  measured {m['measured']:.6g}"
        print(f"  {key:<13} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  checks       {rec['failed']} failed of {rec['attempted']}"
          + (f": {'; '.join(rec['failures'])}" if rec["failures"] else ""))
    if rec["trace"]:
        for key, val in rec["layers"].items():
            print(f"  {key:<36} {val:.6g}")


def _write_record(rec: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / (f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}-"
                      f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    path.write_text(json.dumps(rec, indent=1) + "\n")
    return path


def _result(rec: dict, spec: dict) -> dict:
    if rec["trace"]:
        metrics = {m["name"]: {"value": rec["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": rec["summary"][m["name"]]["value"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads(0)) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "corrkit" / "cli.py").is_file():
        print(f"error: no corrkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(workloads(0)) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        deadline = _now() + TIMEOUT_S
        rec = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        path = _write_record(rec)
        _print_summary(rec)
        print(f"  record       {path.relative_to(ROOT)}")
        results[name] = _result(rec, spec)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
