"""Labelled graphs, relative ranges, and generated set families."""
import dataclasses
from random import Random

import pytest

from corrkit import setexpr
from corrkit.correspondences import check_morphism
from corrkit.errors import BudgetError, UnsupportedSpaceError
from corrkit.labelled import (
    EdgeFamily,
    LabelledGraph,
    build_space,
    check_labelled_morphism,
    concrete_graph,
    induced_morphism,
    is_left_resolving,
    is_weakly_left_resolving,
    _relative_range,
    label_set,
    label_instances,
    relative_range,
    sink_set,
    to_correspondence,
    truncate_space,
)
from corrkit.setexpr import SetExpr, atoms, tail
from corrkit.spheres import SphereConfig, build_En_graph, build_En_space


@pytest.fixture(scope="module")
def e2():
    cfg = SphereConfig(2)
    return build_En_graph(cfg), build_En_space(cfg)


def test_relative_ranges_frozen(e2):
    g, _ = e2
    a1 = tail("v", 1)
    assert relative_range(g, a1, "g") == tail("v", 2)
    assert relative_range(g, a1, "h") == atoms("w1")
    assert relative_range(g, atoms("u1"), "f1") == atoms("w1", "w2").union(tail("v", 1))
    assert relative_range(g, atoms("w1"), "g").is_empty()


def test_label_sets(e2):
    g, _ = e2
    labs, finite = label_set(g, tail("v", 1))
    assert labs == frozenset({"g", "h"}) and finite
    labs, finite = label_set(g, atoms("w1"))
    assert labs == frozenset() and finite
    assert sink_set(g) == atoms("w1")


def test_resolving_properties(e2):
    g, sp = e2
    ok, witness = is_left_resolving(g)
    assert not ok
    assert witness == ("w1", "h")
    ok, _ = is_weakly_left_resolving(sp)
    assert ok


def test_weakly_left_resolving_failure_witness():
    """Two disjoint sets with edges of one label into the same vertex:
    r({a} & {b}, l) is empty but r({a}, l) & r({b}, l) is {c}."""
    g = concrete_graph(["a", "b", "c"], [("e1", "a", "c", "l"), ("e2", "b", "c", "l")])
    sp = build_space(g, generators=[atoms("a"), atoms("b")])
    assert is_weakly_left_resolving(sp) == (
        False, (atoms("a"), atoms("b"), "l", atoms(), atoms("c")))


def test_lattice_membership(e2):
    _, sp = e2
    assert sp.in_lattice(tail("v", 1))
    assert sp.in_lattice(atoms("u1"))
    assert not sp.in_lattice(atoms(("v", 2)))


def test_budget_exhaustion(e2):
    g, _ = e2
    with pytest.raises(BudgetError):
        build_space(g, (), budget=2)


def test_truncation(e2):
    _, sp = e2
    t = truncate_space(sp, 3)
    named = {v for v in t.graph.named_vertices}
    assert named == {"u1", "w1", "w2", ("v", 1), ("v", 2), ("v", 3)}
    assert not t.graph.families
    assert len(t.core) == 7
    # every truncated core set is the clip of a symbolic one
    clips = {c.truncate(3) for c in sp.core if c.truncate(3)}
    assert {frozenset(c.atoms) for c in t.core} == clips


def test_truncation_needs_an_index():
    fam = EdgeFamily("k", 1, ("const", "a"), ("const", "b"), ("const", "k"))
    g = LabelledGraph(frozenset({"a", "b"}), frozenset(), (), (fam,))
    sp = build_space(g)
    with pytest.raises(UnsupportedSpaceError):
        truncate_space(sp, 3)


def test_concrete_graph_roundtrip():
    g = concrete_graph(
        {"x", "y"},
        [("e1", "x", "y", "a"), ("e2", "x", "x", "b")],
    )
    assert relative_range(g, atoms("x"), "a") == atoms("y")
    assert relative_range(g, atoms("x"), "b") == atoms("x")
    sp = build_space(g)
    assert sp.in_lattice(atoms("y"))


def _random_core_sets(space, seed: int, count: int = 60):
    """Seeded unions and differences of core sets of `space`."""
    rng = Random(seed)
    core = space.core
    out = []
    for _ in range(count):
        a, b = rng.choice(core), rng.choice(core)
        out.append(a.union(b) if rng.randrange(2) else a.difference(b))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_range_memo_matches_a_fresh_computation_cold_and_warm(seed):
    """A new graph starts with an empty memo; every range it answers, the
    first time (asked with a fresh copy of the set) and again from the
    memo (asked with the canonical set), is the one computed afresh.  The
    memo keeps the canonical set, not the copy."""
    cfg = SphereConfig(2)
    g = build_En_graph(cfg)
    sets = _random_core_sets(build_En_space(cfg), seed)
    labels = label_instances(g, 4)
    assert g._ranges == {}
    for warm in (False, True):
        for a in sets:
            for lab in labels:
                fresh = _relative_range(g, SetExpr(a.atoms, a.tails), lab)
                asked = a if warm else SetExpr(a.atoms, a.tails)
                assert relative_range(g, asked, lab) == fresh, (a, lab, warm)
    assert len(g._ranges) == len(set(sets)) * len(labels)
    assert all(setexpr._UNIQUE[a] is a for a, _ in g._ranges)


def test_each_graph_keeps_its_own_ranges():
    g1 = concrete_graph(["a", "b", "c"], [("e1", "a", "b", "l")])
    g2 = concrete_graph(["a", "b", "c"], [("e1", "a", "c", "l")])
    for _ in range(2):
        assert relative_range(g1, atoms("a"), "l") == atoms("b")
        assert relative_range(g2, atoms("a"), "l") == atoms("c")


def test_range_memo_is_no_part_of_the_graph_value():
    cfg = SphereConfig(2)
    g, twin = build_En_graph(cfg), build_En_graph(cfg)
    before = (hash(g), repr(g))
    for lab in ("f1", "g", "h"):
        relative_range(g, tail("v", 1), lab)
    assert g._ranges and not twin._ranges
    assert g == twin and hash(g) == hash(twin) == before[0]
    assert repr(g) == repr(twin) == before[1]
    assert dataclasses.replace(g)._ranges == {}


# ------------------------------------- functor to correspondences


@pytest.fixture(scope="module")
def e2_trunc():
    space = truncate_space(build_En_space(SphereConfig(2)), 3)
    identity_vertices = {v: v for v in space.graph.named_vertices}
    identity_edges = {e.name: e for e in space.graph.edges}
    return space, to_correspondence(space), identity_vertices, identity_edges


def test_model_correspondence_validates(e2_trunc):
    _, model, _, _ = e2_trunc
    rep = model.corr.validate()
    assert rep.ok and len(rep.checks) == 6, rep.render()


def test_identity_labelled_morphism_passes(e2_trunc):
    space, _, verts, edges = e2_trunc
    rep = check_labelled_morphism(space, space, verts, edges)
    assert rep.ok and len(rep.checks) == 6, rep.render()


def test_induced_identity_morphism_passes(e2_trunc):
    _, model, verts, edges = e2_trunc
    rep = check_morphism(induced_morphism(model, model, verts, edges))
    assert rep.ok, rep.render()


def test_collapsing_vertex_map_fails_injectivity(e2_trunc):
    space, _, verts, edges = e2_trunc
    rep = check_labelled_morphism(space, space, {**verts, ("v", 2): ("v", 1)}, edges)
    failed = {c.name: c.detail for c in rep.failures()}
    assert "injective on surviving vertices" in failed
    assert "('v', 2)" in failed["injective on surviving vertices"]
