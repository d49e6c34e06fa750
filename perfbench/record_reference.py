"""Record the output digests that `workloads.check_output` compares against.

    python3 perfbench/record_reference.py > perfbench/reference.json

Run it only on a commit whose output is known to be right: a later
change must reproduce these streams byte for byte, so re-recording them
would hide the change it is meant to catch.
"""
from __future__ import annotations

import json
import sys

from worker import HERE, import_corrkit

PROPS_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20411)


def _checks(stream: str) -> int:
    return sum(1 for line in stream.splitlines() if "check" in json.loads(line))


def main() -> int:
    import_corrkit()
    sys.path.insert(0, str(HERE))
    from workloads import digest, run_once, workloads

    ref = {}
    for seed in PROPS_SEEDS:
        rc, stream, err = run_once(workloads(seed)["props-3k"].argv)
        if rc != 0:
            raise SystemExit(f"props-3k seed {seed}: exit {rc} {err}")
        entry = ref.setdefault("props-3k", {"checks": 0, "sha256_by_seed": {}})
        entry["checks"] = _checks(stream)
        entry["sha256_by_seed"][str(seed)] = digest(stream)
    for name in ("sphere-n3", "sweep-v6"):
        rc, stream, err = run_once(workloads(0)[name].argv)
        if rc != 0:
            raise SystemExit(f"{name}: exit {rc} {err}")
        ref[name] = {"checks": _checks(stream),
                     "sha256": digest(stream)}
    print(json.dumps(ref, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
