"""Randomized invariant suites: reproducibility and health."""
import os
from fractions import Fraction
from random import Random

import pytest

from corrkit import cli, properties
from corrkit.engine import Engine
from corrkit.errors import BudgetError
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


def _cpus(monkeypatch, n):
    """Make `run_property_suites` see `n` usable CPUs, and count forks."""
    monkeypatch.setattr(properties, "_usable_cpus", lambda: n)
    forks = []
    fork = os.fork

    def counted():
        forks.append(n)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [1, 5, 77])
def test_serial_and_forked_runs_print_the_same_stream(seed, monkeypatch, capsys):
    streams = []
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        assert cli.main(["properties", "--cases", "120", "--seed", str(seed),
                         "--format", "json"]) == 0
        streams.append(capsys.readouterr().out)
        assert len(forks) == cpus - 1
        _assert_no_child_left()
    assert streams[0] == streams[1]


def _raise(exc):
    def suite(*args):
        raise exc
    return suite


@pytest.mark.parametrize("exc, code, err", [
    (BudgetError("closure budget of 7 exhausted"), cli.EXIT_BUDGET,
     "error: closure budget of 7 exhausted\n"),
    (AssertionError("x y != y x for x=s_l"), cli.EXIT_INTERNAL,
     "error: internal: AssertionError: x y != y x for x=s_l\n"),
])
def test_a_child_side_exception_is_raised_as_in_a_serial_run(exc, code, err, monkeypatch,
                                                             capsys):
    monkeypatch.setattr(properties, "associativity_suite", _raise(exc))
    for cpus in (1, 2):
        forks = _cpus(monkeypatch, cpus)
        with pytest.raises(type(exc)) as info:
            properties.run_property_suites(40, 3)
        assert str(info.value) == str(exc)
        _assert_no_child_left()
        assert cli.main(["properties", "--cases", "40", "--seed", "3"]) == code
        assert capsys.readouterr() == ("", err)
        assert len(forks) == 2 * (cpus - 1)
        _assert_no_child_left()


@pytest.mark.parametrize("child_suite, parent_suite, first", [
    ("associativity_suite", "involution_suite", "child"),
    ("range_cocycle_suite", "grading_suite", "parent"),
    ("setexpr_truncation_suite", "snf_selfcheck_suite", "child"),
])
def test_the_earliest_failing_suite_in_report_order_wins(child_suite, parent_suite, first,
                                                         monkeypatch):
    monkeypatch.setattr(properties, child_suite, _raise(BudgetError("child")))
    monkeypatch.setattr(properties, parent_suite, _raise(AssertionError("parent")))
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        with pytest.raises((BudgetError, AssertionError)) as info:
            properties.run_property_suites(40, 3)
        assert str(info.value) == first
        _assert_no_child_left()


def test_a_child_that_ends_without_a_result_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr(properties, "range_cocycle_suite", lambda *args: os._exit(3))
    _cpus(monkeypatch, 2)
    assert cli.main(["properties", "--cases", "40", "--seed", "3"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr() == ("", "error: internal: RuntimeError: property suite child "
                                       "process ended without a result (exit status 3)\n")
    _assert_no_child_left()


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_a_sample_too_small_for_products_says_so(seed, capsys):
    """`--cases 2` may draw no nonzero product at all: the check still
    fails, and its detail gives the count, the threshold and a case count
    that passes at the same seed."""
    assert cli.main(["properties", "--cases", "2", "--seed", str(seed)]) == cli.EXIT_FAIL
    failed = [line.strip() for line in capsys.readouterr().out.splitlines()
              if line.strip().startswith("[FAIL]")]
    assert failed == ["[FAIL] product associativity / nonzero products seen: sample too "
                      "small to exercise products: 0 nontrivial cases, need more than "
                      "cases // 10 = 0; --cases 4 passes at this seed"]
    rep = properties.run_property_suites(4, seed)
    assert [c.ok for c in rep.checks if c.name.endswith("nonzero products seen")] == [True]
