"""Directed graph basics."""
import random

from corrkit.exactlinalg import sort_key
from corrkit.graphs import Graph, canonical_encoding, from_edge_pairs, hereditary_closure, is_acyclic_among

from oracles import (scan_hereditary_closure, scan_is_acyclic_among, scan_out_edges,
                     scan_regular_vertices, scan_sinks)


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


def test_acyclicity_on_a_path_deeper_than_the_recursion_limit():
    """The peel keeps no call stack: a 3000-vertex path is acyclic, and
    one edge back from its end to its start makes a cycle."""
    n = 3000
    verts = [f"v{i}" for i in range(n)]
    path = [(f"e{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    assert is_acyclic_among(Graph(verts, path), frozenset(verts))
    closed = Graph(verts, path + [("back", verts[-1], verts[0])])
    assert not is_acyclic_among(closed, frozenset(verts))
    assert is_acyclic_among(closed, frozenset(verts[1:]))


def _edge_pairs(g):
    return [(g.src[e], g.dst[e]) for e in g.edges]


def test_from_edge_pairs_and_encoding():
    vs = ("a", "b", "c")
    pairs = [("a", "b"), ("a", "b"), ("b", "c")]
    g1 = from_edge_pairs(vs, pairs)
    g2 = _g()
    assert (canonical_encoding(g1.vertices, _edge_pairs(g1))
            == canonical_encoding(g2.vertices, _edge_pairs(g2)))
    # vertex and edge order do not matter; edge multiplicity does
    assert canonical_encoding(vs[::-1], pairs[::-1]) == canonical_encoding(vs, pairs)
    g3 = from_edge_pairs(vs, [("a", "b"), ("b", "c")])
    assert canonical_encoding(g3.vertices, _edge_pairs(g3)) != canonical_encoding(vs, pairs)


def test_from_edge_pairs_names_edges_in_order_past_the_precomputed_names():
    pairs = [("a", "b")] * 20
    g = from_edge_pairs(("a", "b"), pairs)
    assert g.edges == tuple(f"e{i}" for i in range(20))
    assert g.out_edges("a") == list(g.edges)


def test_canonical_encoding_ignores_input_order():
    rng = random.Random(2511)
    vs = ["a", "b", ("v", 1), ("v", 2), "c"]
    pairs = [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")]
    want = canonical_encoding(vs, pairs)
    for _ in range(20):
        rng.shuffle(vs)
        rng.shuffle(pairs)
        assert canonical_encoding(vs, pairs) == want
        assert canonical_encoding(tuple(vs), tuple(pairs)) == want
        assert canonical_encoding(iter(vs), iter(pairs)) == want


def test_canonical_encoding_keeps_an_already_sorted_pairs_tuple():
    pairs = (("a", "b"), ("a", "b"), ("b", "c"))
    assert canonical_encoding(("c", "b", "a"), pairs)[1] is pairs
    unsorted = (("b", "c"), ("a", "b"))
    enc = canonical_encoding(("a", "b", "c"), unsorted)[1]
    assert enc == (("a", "b"), ("b", "c")) and enc is not unsorted
    # a sorted list is still copied into a tuple
    assert canonical_encoding(("a", "b"), [("a", "b")])[1] == (("a", "b"),)


def test_canonical_encoding_orders_mixed_vertex_keys_by_sort_key():
    vs = (("v", 2), "w", ("v", 1), "a", ("u", 10))
    got = canonical_encoding(vs, ())[0]
    assert got == tuple(sorted(vs, key=sort_key))
    assert got == ("a", "w", ("u", 10), ("v", 1), ("v", 2))


def _random_multigraph(rng: random.Random) -> Graph:
    """Up to 6 vertices and 14 edges, with a self-loop, a pair of
    parallel edges, an edge to the unlisted vertex "zz" and one from the
    unlisted vertex "yy", all at random places in the edge order."""
    verts = [f"v{i}" for i in range(rng.randint(1, 6))]
    pairs = [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(0, 9))]
    u, w = rng.choice(verts), rng.choice(verts)
    for pair in [(u, u), (u, w), (u, w), (rng.choice(verts), "zz"), ("yy", rng.choice(verts))]:
        pairs.insert(rng.randint(0, len(pairs)), pair)
    return Graph(verts, [(f"e{i}", s, d) for i, (s, d) in enumerate(pairs)])


def test_index_queries_match_the_edge_scans():
    """The out-edge index answers every query as the scans over all
    edges did, in the same order, on dangling multigraphs too."""
    rng = random.Random(1709)
    for _ in range(300):
        g = _random_multigraph(rng)
        assert not g.validate().ok  # the dangling edges
        for v in g.vertices + ("zz", "yy", "nowhere"):
            assert g.out_edges(v) == scan_out_edges(g, v)
        assert g.sinks() == scan_sinks(g)
        assert g.regular_vertices() == scan_regular_vertices(g)
        for seed in [[v] for v in g.vertices] + [["yy"], ["zz"], []]:
            assert hereditary_closure(g, seed) == scan_hereditary_closure(g, seed)
        for _ in range(4):
            verts = frozenset(rng.sample(g.vertices, rng.randint(0, len(g.vertices))))
            assert is_acyclic_among(g, verts) == scan_is_acyclic_among(g, verts)
        assert is_acyclic_among(g, frozenset(g.vertices)) is False  # the self-loop
