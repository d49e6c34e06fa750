"""The benchmark's gated workloads still print their recorded streams.

Each workload of `BENCHMARK.json` runs once in-process, as the benchmark
runs it, and is judged by the benchmark's own output check against its
recorded digests, so a change that alters any of those streams fails
here before a benchmark run would count it as incorrect output.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

SEED = 1


@pytest.mark.parametrize("name", ["sphere-n3", "sweep-v6", "props-3k"])
def test_gated_workload_matches_its_recorded_digest(name):
    wl = workloads.workloads(SEED)[name]
    rc, stream, err = workloads.run_once(wl.argv)
    attempted, failed, reason = workloads.check_output(
        wl, SEED, rc, stream, workloads.load_reference())
    assert (failed, reason) == (0, ""), err
    assert attempted > 0
