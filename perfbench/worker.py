"""Child process of the benchmark: one fresh interpreter, one run.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 1]

It imports corrkit from the checkout's `src/` and prepares the
workload's inputs, then runs the workload once, traced with
`--trace 1`, and checks the output.  A `SpeedProbe` samples the host's
speed from before the import to the end of the run.  It prints one JSON
object: `ready_at` (CLOCK_MONOTONIC when the inputs were ready, which the
parent compares with the time it spawned this process), the run's wall
and CPU time as measured and at the reference host speed (`*_ref_s`),
the factors between the two, peak RSS, the output check and, when
traced, the per-layer metrics and the span table.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_corrkit():
    """Import corrkit.cli from this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import corrkit.cli
    if Path(corrkit.cli.__file__).resolve().parent != src / "corrkit":
        raise SystemExit(f"corrkit imported from {corrkit.cli.__file__}, not {src}")
    return corrkit.cli


def _cpu_s() -> float:
    """CPU time of this process and of any worker processes it waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from speedprobe import SpeedProbe

    with SpeedProbe() as probe:
        out = measure(args)
    wall_scale, cpu_scale = probe.scales()
    wall_probe, cpu_probe = probe.spent(out.pop("run_started"), out.pop("run_ended"))
    out.update(
        wall_ref_s=(out["wall_s"] - wall_probe) * wall_scale,
        cpu_ref_s=(out["cpu_s"] - cpu_probe) * cpu_scale,
        # The parent times set-up from spawning; it takes off the probe's
        # share and scales the rest by `wall_scale`.
        setup_probe_s=probe.spent(float("-inf"), out.pop("ready_perf"))[0],
        wall_scale=wall_scale, cpu_scale=cpu_scale, probe_ticks=len(probe.ticks))
    print(json.dumps(out))
    return 0


def measure(args) -> dict:
    """Import, prepare and run the workload once; the worker's output
    before the speed probe's corrections."""
    cli = import_corrkit()
    from workloads import check_output, load_reference, run_once, workloads

    wl = workloads(args.seed)[args.workload]
    cli.build_parser().parse_args(list(wl.argv) + ["--format", "json"])
    out: dict = {"ready_at": time.clock_gettime(time.CLOCK_MONOTONIC),
                 "ready_perf": time.perf_counter()}

    reference = load_reference()
    tracer = None
    if args.trace:
        from layers import layer_metrics, targets
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(*targets())
    w0, c0 = time.perf_counter(), _cpu_s()
    out["run_started"] = w0
    try:
        rc, stream, err = run_once(wl.argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["run_ended"] = time.perf_counter()
    out["wall_s"] = out["run_ended"] - w0
    out["cpu_s"] = _cpu_s() - c0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"], out["failed"], reason = check_output(wl, args.seed, rc, stream, reference)
    out["reason"] = reason or err.strip()[-500:]
    if tracer is not None:
        edges = tracer.edges()
        out["layers"] = layer_metrics(edges, wl.jobs)
        out["spans"] = [[parent, name] + rec for (parent, name), rec in sorted(
            edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
    return out


if __name__ == "__main__":
    sys.exit(main())
