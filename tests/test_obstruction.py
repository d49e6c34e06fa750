"""Counterexample sweep over small ad-hoc graph models."""
from corrkit.obstruction import enumerate_candidates, sweep


def test_enumeration_count_small():
    # frozen counts; any change to the enumerator should be deliberate
    assert len(enumerate_candidates(4)) == 39
    assert len(enumerate_candidates(5)) == 806


def test_candidates_are_distinct():
    cands = enumerate_candidates(5)
    keys = {tuple(sorted(c.pairs)) for c in cands}
    assert len(keys) == len(cands)


def test_sweep_small_has_no_violations():
    res = sweep(4)
    assert res.candidates_checked == 39
    assert res.violations == []
    assert res.report.ok


def test_wide_class_is_larger():
    narrow = enumerate_candidates(4)
    wide = enumerate_candidates(4, wide=True)
    assert len(wide) > len(narrow)
    res = sweep(4, wide=True)
    assert res.report.ok
