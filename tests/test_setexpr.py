"""Vertex-set expressions: finite atoms plus indexed tails."""
from random import Random

import pytest

from corrkit import properties, setexpr
from corrkit.properties import _random_setexpr, run_property_suites
from corrkit.setexpr import EMPTY, SetExpr, atoms, tail, union_all


def test_tail_absorbs_atoms():
    s = SetExpr([("v", 5)], [("v", 3)])
    assert s == tail("v", 3)


def test_adjacent_atom_extends_tail():
    s = SetExpr([("v", 2)], [("v", 3)])
    assert s == tail("v", 2)


def test_membership():
    s = atoms("w1", ("v", 2)).union(tail("u", 4))
    assert "w1" in s
    assert ("v", 2) in s
    assert ("u", 9) in s
    assert ("u", 3) not in s
    assert "w2" not in s


def test_union_intersect_difference():
    a = tail("v", 2)
    b = atoms(("v", 3), "w1")
    assert a.union(b) == SetExpr(["w1"], [("v", 2)])
    assert a.intersect(b) == atoms(("v", 3))
    diff = a.difference(b)
    assert ("v", 2) in diff and ("v", 3) not in diff and ("v", 4) in diff


def test_difference_cuts_tail_with_holes():
    a = tail("v", 1)
    b = atoms(("v", 2))
    d = a.difference(b)
    assert d == SetExpr([("v", 1)], [("v", 3)])


def test_subset():
    assert tail("v", 5).is_subset(tail("v", 2))
    assert not tail("v", 2).is_subset(tail("v", 5))
    assert atoms("a").is_subset(atoms("a", "b"))
    assert EMPTY.is_subset(atoms("a"))


def test_truncate():
    s = atoms("w").union(tail("v", 3))
    assert s.truncate(5) == frozenset({"w", ("v", 3), ("v", 4), ("v", 5)})
    assert tail("v", 7).truncate(5) == frozenset()


def test_empty_and_finite():
    assert EMPTY.is_empty()
    assert atoms("a").is_finite()
    assert not tail("v", 1).is_finite()
    assert not tail("v", 1).is_empty()


def test_tail_index_and_max_index():
    s = atoms(("v", 2)).union(tail("w", 6))
    assert s.tail_index("w") == 6
    assert s.tail_index("v") is None
    assert s.max_index() == 6


def test_tail_start_validation():
    with pytest.raises(ValueError):
        tail("v", 0)


@pytest.mark.parametrize("below", [[("v", 0)], [("v", -1), ("v", 0)]])
def test_an_index_below_one_is_refused_even_under_a_tail(below):
    """The atom check runs before a tail absorbs atoms or extends down
    over them, so a tail cannot reach below index 1."""
    with pytest.raises(ValueError, match="^vertex index must be >= 1$"):
        SetExpr(atoms=below, tails=[("v", 1)])


def test_union_all():
    parts = [atoms("a"), atoms("b"), tail("v", 4)]
    u = union_all(parts)
    assert "a" in u and "b" in u and ("v", 4) in u
    assert union_all([]) == EMPTY


def test_equality_is_structural():
    assert atoms(("v", 1)).union(tail("v", 2)) == tail("v", 1)
    assert hash(tail("v", 1)) == hash(SetExpr((), [("v", 1)]))


# ------------------------------------------------ unique and computed tables

TABLES = ("_UNIQUE", "_UNION", "_INTERSECT", "_DIFFERENCE", "_SUBSET")
# each memoised op, with the computation behind it
OPS = [(SetExpr.union, SetExpr._union), (SetExpr.intersect, SetExpr._intersect),
       (SetExpr.difference, SetExpr._difference), (SetExpr.is_subset, SetExpr._is_subset)]


def _copy(s: SetExpr) -> SetExpr:
    return SetExpr(s.atoms, s.tails)


def _random_pairs(seed: int, count: int = 400):
    rng = Random(seed)
    return [(_random_setexpr(rng, rng.randrange(4)), _random_setexpr(rng, rng.randrange(4)))
            for _ in range(count)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoised_ops_match_a_fresh_computation_cold_and_warm(monkeypatch, seed):
    """Every op answers as its computation does on fresh copies of the
    operands: first against emptied tables, then from the filled ones."""
    pairs = _random_pairs(seed)
    for name in TABLES:
        monkeypatch.setattr(setexpr, name, {})
    for warm in (False, True):
        for a, b in pairs:
            for op, compute in OPS:
                assert op(a, b) == compute(_copy(a), _copy(b)), (op.__name__, a, b, warm)
    assert all(getattr(setexpr, name) for name in TABLES)


def test_equal_operands_give_the_identical_result():
    a1, a2 = SetExpr(["p", ("t", 2)], [("t", 5)]), SetExpr([("t", 2), "p"], [("t", 5)])
    b1, b2 = SetExpr([("t", 3)], [("u", 1)]), SetExpr([("t", 3)], [("u", 1)])
    assert a1 is not a2 and b1 is not b2
    for op in (SetExpr.union, SetExpr.intersect, SetExpr.difference):
        assert op(a1, b1) is op(a2, b2)
    assert atoms("p", "q") is atoms("q", "p") is atoms("p").union(atoms("q"))
    assert tail("t", 3) is tail("t", 3) is atoms(("t", 3)).union(tail("t", 4))
    assert union_all([]) is EMPTY is atoms() is tail("t", 2).difference(tail("t", 1))
    assert union_all([atoms("p"), tail("t", 2)]) is atoms("p").union(tail("t", 2))
    # the bare constructor stays a plain value constructor
    assert SetExpr(["p"]) is not SetExpr(["p"])
    # the tables keep one object per value: their operands and set answers
    for name in TABLES[1:]:
        for pair, got in getattr(setexpr, name).items():
            assert all(setexpr._UNIQUE[s] is s for s in pair)
            assert isinstance(got, bool) or setexpr._UNIQUE[got] is got


# ------------------------------------------------------------ leaf tables

LEAF_TABLES = ("_ATOMS", "_TAILS")


@pytest.mark.parametrize("cold", [True, False])
def test_a_repeated_leaf_call_returns_the_canonical_object(monkeypatch, cold):
    if cold:
        for name in LEAF_TABLES:
            monkeypatch.setattr(setexpr, name, {})
    first = atoms("x9", ("y", 2))
    assert atoms("x9", ("y", 2)) is first is setexpr._intern(SetExpr(["x9", ("y", 2)]))
    first = tail("y", 7)
    assert tail("y", 7) is first is setexpr._intern(SetExpr((), [("y", 7)]))
    assert setexpr._ATOMS[("x9", ("y", 2))] is atoms("x9", ("y", 2))
    assert setexpr._TAILS[("y", 7)] is tail("y", 7)


def test_a_refused_leaf_is_refused_on_every_call_and_never_stored():
    for _ in range(3):
        with pytest.raises(ValueError):
            tail("v", 0)
        with pytest.raises(ValueError):
            atoms(("v", 0))
    assert ("v", 0) not in setexpr._TAILS
    assert (("v", 0),) not in setexpr._ATOMS


@pytest.mark.parametrize("base,atoms_first", [("za", True), ("zb", False)])
def test_atoms_and_tail_keys_never_collide(base, atoms_first):
    """`atoms(base, 3)` has the same argument tuple as `tail(base, 3)`;
    each function keeps its own table, so neither answers for the other,
    whichever is called first.  The bases are used by no other test, so
    the first call of each misses its table."""
    calls = [lambda: atoms(base, 3), lambda: atoms(base, 3, None), lambda: tail(base, 3)]
    got = [call() for call in (calls if atoms_first else calls[::-1])]
    if not atoms_first:
        got.reverse()
    pair, triple, ray = got
    assert pair == SetExpr([base, 3]) and triple == SetExpr([base, 3, None])
    assert ray == SetExpr((), [(base, 3)])
    assert ray != pair and ray != triple


def test_a_second_property_run_adds_no_leaf_or_unique_entry(monkeypatch):
    # one CPU: all six suites run in this process, none in a forked child
    monkeypatch.setattr(properties, "_usable_cpus", lambda: 1)
    run_property_suites(300, 1)
    sizes = {name: len(getattr(setexpr, name)) for name in ("_UNIQUE",) + LEAF_TABLES}
    run_property_suites(300, 1)
    assert {name: len(getattr(setexpr, name)) for name in sizes} == sizes
