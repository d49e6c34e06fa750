"""Vertex-set expressions: finite atoms plus indexed tails."""
import pytest

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


def test_union_all():
    parts = [atoms("a"), atoms("b"), tail("v", 4)]
    u = union_all(parts)
    assert "a" in u and "b" in u and ("v", 4) in u
    assert union_all([]) == EMPTY


def test_equality_is_structural():
    assert atoms(("v", 1)).union(tail("v", 2)) == tail("v", 1)
    assert hash(tail("v", 1)) == hash(SetExpr((), [("v", 1)]))
