"""The hot loops leave no cyclic garbage: a second run of each workload,
with the cyclic collector off, leaves nothing for it to find."""
import gc

import pytest

from corrkit.obstruction import sweep
from corrkit.properties import run_property_suites
from corrkit.spheres import SphereConfig, verify_sphere_suite

_RUNS = {
    "sweep-5": lambda: sweep(5),
    "sweep-5-wide": lambda: sweep(5, wide=True),
    "sphere-2-4": lambda: verify_sphere_suite(SphereConfig(2, 4)),
    "properties-60": lambda: run_property_suites(cases=60, seed=1),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_a_warm_run_leaves_no_cyclic_garbage(name):
    run = _RUNS[name]
    run()  # warm-up: fills the module-level caches and interned values
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
