"""Randomized invariant suites: reproducibility and health."""
from fractions import Fraction
from random import Random

from corrkit.engine import Engine
from corrkit.properties import (DEFAULT_SEED, _engines, _factor_pool, _random_element,
                                run_property_suites)
from oracles import fold_random_element


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


def test_random_elements_match_the_fold_of_sums():
    """On both engines, every element drawn from seeds 1-50 has the
    fold's terms, in the fold's key order, with equal nonzero `Fraction`
    coefficients, and both leave the generator in the same state.  Ten
    draws per seed, of up to 3 and up to 8 words, include sums where a
    term cancels (9 and 43 of them)."""
    for eng, labels, sets in _engines():
        pool = _factor_pool(eng, labels, sets)
        for terms in (3, 8):
            for seed in range(1, 51):
                rng, ref = Random(seed), Random(seed)
                for _ in range(10):
                    got = _random_element(rng, eng, pool, terms)
                    want = fold_random_element(ref, eng, pool, terms)
                    assert list(got.terms.items()) == list(want.terms.items()), seed
                    assert all(type(c) is Fraction and c for c in got.terms.values())
                    assert got.engine is eng and rng.getstate() == ref.getstate()


def test_choice_draws_as_randrange_of_the_length():
    """The suites draw from a sequence by `rng.choice(seq)`; the seeded
    cases stay those of `seq[rng.randrange(len(seq))]` only while the
    two consume the generator alike.  For seeds 0-49 and lengths 1-40,
    a run of draws each way gives equal items and equal states."""
    for seed in range(50):
        for n in range(1, 41):
            seq = list(range(n))
            by_choice, by_index = Random(seed), Random(seed)
            got = [by_choice.choice(seq) for _ in range(8)]
            want = [seq[by_index.randrange(len(seq))] for _ in range(8)]
            assert got == want, (seed, n)
            assert by_choice.getstate() == by_index.getstate(), (seed, n)
