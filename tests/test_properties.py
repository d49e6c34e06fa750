"""Randomized invariant suites: reproducibility and health."""
from corrkit.engine import Engine
from corrkit.properties import DEFAULT_SEED, run_property_suites


def test_suites_pass_at_reduced_budget():
    rep = run_property_suites(cases=240, seed=DEFAULT_SEED)
    assert rep.ok, rep.render()
    assert len(rep.checks) >= 6


def test_fixed_seed_is_reproducible():
    a = run_property_suites(cases=120, seed=77)
    b = run_property_suites(cases=120, seed=77)
    assert [(c.name, c.ok, c.detail) for c in a.checks] == [
        (c.name, c.ok, c.detail) for c in b.checks
    ]


def test_distinct_seeds_still_pass():
    for seed in (1, 2):
        assert run_property_suites(cases=60, seed=seed).ok


def test_case_counts_reported():
    rep = run_property_suites(cases=90, seed=3)
    # the requested budget is visible in the rendered checks
    assert sum("90" in c.name or "90" in c.detail for c in rep.checks) >= 3


def test_one_run_builds_one_pair_of_engines(monkeypatch):
    """The three engine suites share the two engines of one run, so the
    product memo of each fills once; a second run builds its own pair."""
    built = []
    init = Engine.__init__

    def counted(self, space):
        built.append(self)
        init(self, space)

    monkeypatch.setattr(Engine, "__init__", counted)
    run_property_suites(cases=20, seed=5)
    assert len(built) == 2
    run_property_suites(cases=20, seed=5)
    assert len(built) == 4 and not set(built[:2]) & set(built[2:])
