"""K-theory of graph algebras against hand-reduced Smith forms."""
import pytest

from corrkit.graphs import Graph
from corrkit.ktheory import k0_class_membership, k_theory, presentation_matrix
from corrkit.spheres import SphereConfig, build_disc_graph, build_z_graph

from oracles import HAND_SMITH


def _loop():
    return Graph(("v1",), [("e", "v1", "v1")])


def _case_graph(key):
    if key == "loop":
        return _loop()
    kind, _, tail = key.partition(" n=")
    cfg = SphereConfig(int(tail))
    return build_disc_graph(cfg) if kind == "disc" else build_z_graph(cfg)


@pytest.mark.parametrize("key", sorted(HAND_SMITH))
def test_presentation_matches_hand_reduction(key):
    hand = HAND_SMITH[key]
    g = _case_graph(key)
    m = presentation_matrix(g)
    assert list(m.row_labels) == hand["rows"]
    assert list(m.col_labels) == hand["cols"]
    assert m.as_lists() == hand["matrix"]


@pytest.mark.parametrize("key", sorted(HAND_SMITH))
def test_k_theory_matches_hand_reduction(key):
    hand = HAND_SMITH[key]
    res = k_theory(_case_graph(key))
    assert list(res.diagonal) == hand["diagonal"]
    assert res.pair_str() == hand["pair"]


def test_disc_pairs_stable_in_n():
    for n in (1, 2, 3, 4):
        assert k_theory(build_disc_graph(SphereConfig(n))).pair_str() == "K0 = Z, K1 = 0"


def test_sphere_pairs_stable_in_n():
    for n in (1, 2, 3, 4):
        assert k_theory(build_z_graph(SphereConfig(n))).pair_str() == "K0 = Z, K1 = Z"


def test_torsion_example():
    # one vertex, three loops: presentation [2], so K0 = Z/2
    g = Graph(("v",), [(e, "v", "v") for e in "abc"])
    res = k_theory(g)
    assert res.k0_free_rank == 0
    assert list(res.k0_torsion) == [2]
    assert res.k0_str() == "Z/2"
    assert res.k1_str() == "0"


def test_class_membership_loop():
    g = _loop()
    ok, cert = k0_class_membership(g, {"v1": 1})
    assert not ok and cert is None
    ok, cert = k0_class_membership(g, {})
    assert ok and cert == {}


def test_class_membership_disc():
    g = build_disc_graph(SphereConfig(1))
    # the class of v2 vanishes: the v1 relation column reads (0, 1)
    ok, cert = k0_class_membership(g, {"v2": 1})
    assert ok
    # certificate re-verified inside; here just confirm it names regular vertices
    assert set(cert) <= {"v1"}
    ok, cert = k0_class_membership(g, {"v1": 1})
    assert not ok and cert is None


def test_sink_only_graph():
    g = Graph(("v1", "v2"), [])
    res = k_theory(g)
    assert res.k0_free_rank == 2
    assert not res.k0_torsion
    assert res.k1_free_rank == 0
    # no regular vertex, so no relation: only the zero class vanishes
    assert k0_class_membership(g, {"v1": 0}) == (True, {})
    assert k0_class_membership(g, {"v2": 1}) == (False, None)
