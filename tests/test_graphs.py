"""Directed graph basics."""
from corrkit.graphs import Graph, canonical_encoding, from_edge_pairs, hereditary_closure, is_acyclic_among


def _g():
    return Graph(
        ("a", "b", "c"),
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")],
    )


def test_validate_and_queries():
    g = _g()
    assert g.validate().ok
    assert g.out_edges("a") == ["e1", "e2"]
    assert g.sinks() == ["c"]
    assert g.regular_vertices() == ["a", "b"]


def test_validate_catches_dangling():
    g = Graph(("a",), [("e", "a", "zz")])
    rep = g.validate()
    assert not rep.ok
    assert any("endpoint" in c.name for c in rep.checks if not c.ok)


def test_validate_catches_duplicates():
    assert not Graph(("a", "a"), []).validate().ok


def test_hereditary_closure():
    g = _g()
    assert hereditary_closure(g, {"a"}) == {"a", "b", "c"}
    assert hereditary_closure(g, {"c"}) == {"c"}


def test_acyclicity():
    g = _g()
    assert is_acyclic_among(g, set(g.vertices))
    loop = Graph(("v",), [("e", "v", "v")])
    assert not is_acyclic_among(loop, {"v"})
    assert is_acyclic_among(loop, set())


def test_from_edge_pairs_and_encoding():
    vs = ("a", "b", "c")
    g1 = from_edge_pairs(vs, [("a", "b"), ("a", "b"), ("b", "c")])
    g2 = _g()
    assert canonical_encoding(g1) == canonical_encoding(g2)
    g3 = from_edge_pairs(vs, [("a", "b"), ("b", "c")])
    assert canonical_encoding(g1) != canonical_encoding(g3)
