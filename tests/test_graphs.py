"""Directed graph basics."""
import random

from corrkit.exactlinalg import sort_key
from corrkit.graphs import Graph, canonical_encoding, hereditary_closure, successors, topological_order

from oracles import scan_hereditary_closure, scan_is_acyclic_among, scan_successors


def _g():
    return Graph(
        ("a", "b", "c"),
        [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")],
    )


def test_validate_and_queries():
    g = _g()
    assert g.validate().ok
    assert g.succ == {"a": ["b", "b"], "b": ["c"], "c": []}


def test_validate_catches_dangling():
    g = Graph(("a",), [("e", "a", "zz")])
    rep = g.validate()
    assert not rep.ok
    assert any("endpoint" in c.name for c in rep.checks if not c.ok)


def test_validate_catches_duplicates():
    assert not Graph(("a", "a"), []).validate().ok


def test_hereditary_closure():
    g = _g()
    assert hereditary_closure(g.succ, {"a"}) == {"a", "b", "c"}
    assert hereditary_closure(g.succ, {"c"}) == {"c"}


def test_acyclicity():
    g = _g()
    assert topological_order(g.succ, set(g.vertices)) is not None
    loop = Graph(("v",), [("e", "v", "v")])
    assert topological_order(loop.succ, {"v"}) is None
    assert topological_order(loop.succ, set()) is not None


def test_acyclicity_on_a_path_deeper_than_the_recursion_limit():
    """The peel keeps no call stack: a 3000-vertex path is acyclic, and
    one edge back from its end to its start makes a cycle."""
    n = 3000
    verts = [f"v{i}" for i in range(n)]
    path = [(f"e{i}", verts[i], verts[i + 1]) for i in range(n - 1)]
    assert topological_order(Graph(verts, path).succ, frozenset(verts)) == verts
    closed = Graph(verts, path + [("back", verts[-1], verts[0])]).succ
    assert topological_order(closed, frozenset(verts)) is None
    assert topological_order(closed, frozenset(verts[1:])) is not None


def _edge_pairs(g):
    return [(g.src[e], g.dst[e]) for e in g.edges]


def test_successors_and_encoding():
    vs = ("a", "b", "c")
    pairs = [("a", "b"), ("a", "b"), ("b", "c")]
    g = _g()
    assert successors(vs, pairs) == g.succ
    assert canonical_encoding(g.vertices, _edge_pairs(g)) == canonical_encoding(vs, pairs)
    # vertex and edge order do not matter; edge multiplicity does
    assert canonical_encoding(vs[::-1], pairs[::-1]) == canonical_encoding(vs, pairs)
    assert canonical_encoding(vs, [("a", "b"), ("b", "c")]) != canonical_encoding(vs, pairs)
    # an unlisted source gets a key of its own
    assert successors(("a",), [("b", "a"), ("a", "a")]) == {"a": ["a"], "b": ["a"]}


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


def _assert_succ_scans(g: Graph) -> None:
    """`g.succ` has a key for each listed vertex and each edge source, and
    lists under it what the edge scan finds."""
    sources = set(g.vertices) | {g.src[e] for e in g.edges}
    assert set(g.succ) == sources
    for v in sources:
        assert g.succ[v] == scan_successors(g, v)


def test_index_queries_match_the_edge_scans():
    """The successor index answers every query as the scans over all
    edges did, in the same order, on dangling multigraphs too; a
    repeated edge name is listed under its last source once per
    occurrence, as the scans see it."""
    rng = random.Random(1709)
    for _ in range(300):
        g = _random_multigraph(rng)
        assert not g.validate().ok  # the dangling edges
        assert "yy" in g.succ and "zz" not in g.succ
        _assert_succ_scans(g)
        triples = [(e, g.src[e], g.dst[e]) for e in g.edges]
        i, j = sorted(rng.sample(range(len(triples)), 2))
        triples[j] = (triples[i][0],) + triples[j][1:]
        dup = Graph(g.vertices, triples)
        assert len(set(dup.edges)) == len(dup.edges) - 1
        _assert_succ_scans(dup)
        for seed in [[v] for v in g.vertices] + [["yy"], ["zz"], []]:
            assert hereditary_closure(g.succ, seed) == scan_hereditary_closure(g, seed)
        for _ in range(4):
            verts = frozenset(rng.sample(g.vertices, rng.randint(0, len(g.vertices))))
            assert (topological_order(g.succ, verts) is not None) == scan_is_acyclic_among(g, verts)
        assert topological_order(g.succ, frozenset(g.vertices)) is None  # the self-loop


def _assert_order_certifies(g: Graph, verts: frozenset) -> None:
    """`topological_order` lists exactly the keys of the index in
    `verts`, each once, with every edge among them going forward, and
    returns None exactly when the depth-first oracle finds a cycle."""
    order = topological_order(g.succ, verts)
    if not scan_is_acyclic_among(g, verts):
        assert order is None
        return
    assert order is not None and sorted(order) == sorted(v for v in g.succ if v in verts)
    pos = {v: i for i, v in enumerate(order)}
    for e in g.edges:
        if g.src[e] in pos and g.dst[e] in pos:
            assert pos[g.src[e]] < pos[g.dst[e]], e


def _random_mostly_forward_graph(rng: random.Random) -> Graph:
    """Up to 7 vertices and 10 edges, no loop, each edge going from a
    lower to a higher index except now and then one going back, so
    about half of these graphs are acyclic."""
    n = rng.randint(2, 7)
    verts = [f"u{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(0, 10)):
        a, b = sorted(rng.sample(range(n), 2))
        if rng.random() < 0.1:
            a, b = b, a
        edges.append((f"e{i}", verts[a], verts[b]))
    return Graph(verts, edges)


def test_topological_order_matches_the_scan_oracle():
    """On the seeded random multigraphs of the index test above
    (dangling edges, loops and parallel edges) and on seeded random
    mostly forward graphs, over all their vertices and over random
    subsets."""
    rng = random.Random(2904)
    verdicts = []
    for _ in range(300):
        for g in (_random_multigraph(rng), _random_mostly_forward_graph(rng)):
            for k in (len(g.vertices), rng.randint(0, len(g.vertices))):
                verts = frozenset(rng.sample(g.vertices, k))
                _assert_order_certifies(g, verts)
                verdicts.append(scan_is_acyclic_among(g, verts))
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300
