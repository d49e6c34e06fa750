"""The benchmark's workloads and the checks on their output.

Every workload is one `corrkit` CLI invocation with `--format json`,
driven in-process through `corrkit.cli.main` by a single client in a
closed loop.  Only `props-3k` takes the benchmark seed; the other inputs
are fixed parameters.  A run's output counts as correct only when its
JSON record stream matches the digest recorded in `reference.json` (or,
for a `props-3k` seed with no recorded digest, when every check in it
passes), so a wrong answer is never read as a fast one.
"""
from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

SWEEP_CANDIDATES = 7696
PROPS_CASES = 3000


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # corrkit CLI arguments, without --format
    items: int           # work units in one run
    item_unit: str
    jobs: int            # worker threads the program is asked for
    reference: str       # key of the recorded digests in reference.json


def workloads(seed: int) -> dict[str, Workload]:
    """Every workload, with the seed applied where a workload takes one.

    `sweep-v6-jobs2` is not in BENCHMARK.json, so no change is gated on
    it; run it by hand to measure the thread-pool dispatch."""
    cases = PROPS_CASES
    table = [  # why each was chosen: README.md and BENCHMARK.json
        Workload("sphere-n3", ("verify-sphere", "--n", "3", "--trunc", "4"),
                 94, "report checks", 1, "sphere-n3"),
        Workload("sweep-v6", ("obstruction", "--max-vertices", "6"),
                 SWEEP_CANDIDATES, "candidates", 1, "sweep-v6"),
        Workload("sweep-v6-jobs2", ("obstruction", "--max-vertices", "6", "--jobs", "2"),
                 SWEEP_CANDIDATES, "candidates", 2, "sweep-v6"),
        Workload("props-3k", ("properties", "--cases", str(cases), "--seed", str(seed)),
                 cases * 6, "cases x suites", 1, "props-3k"),
    ]
    return {w.name: w for w in table}


def run_once(argv) -> tuple[int | None, str, str]:
    """Run the CLI once in this process; (exit code or None, stdout, error)."""
    from corrkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv) + ["--format", "json"])
    except Exception as exc:  # a crash is a failed run, never a fast one
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def digest(stream: str) -> str:
    return hashlib.sha256(stream.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_output(wl: Workload, seed: int, rc, stream: str, reference: dict) -> tuple[int, int, str]:
    """(checks attempted, checks failed, reason) for one run.

    A crash, a nonzero exit, a failed check or any mismatch with the
    reference counts every check of the run as failed.
    """
    ref = reference[wl.reference]
    attempted = ref["checks"]
    if rc is None:
        return attempted, attempted, "raised"
    try:
        records = [json.loads(line) for line in stream.splitlines()]
    except ValueError:
        return attempted, attempted, "stream is not JSON lines"
    summaries = [r for r in records if r.get("summary")]
    checks = [r for r in records if "check" in r]
    if len(summaries) != 1 or summaries[0]["total"] != attempted or len(checks) != attempted:
        return attempted, attempted, f"expected {attempted} checks"
    bad = sum(1 for r in checks if not r["ok"])
    if rc != 0 or bad:
        return attempted, attempted, f"exit {rc}, {bad} failed checks"
    if wl.reference == "sweep-v6":
        head = records[0]
        if (head.get("record") != "obstruction" or head["candidates"] != SWEEP_CANDIDATES
                or head["counterexamples"] != 0):
            return attempted, attempted, f"unexpected sweep record {head}"
    if "sha256_by_seed" in ref:
        want = ref["sha256_by_seed"].get(str(seed))
    else:
        want = ref["sha256"]
    if want is not None and digest(stream) != want:
        return attempted, attempted, "stream differs from the recorded digest"
    return attempted, 0, ""
