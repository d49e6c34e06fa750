"""K-theory of graph algebras against hand-reduced Smith forms."""
import pytest

import corrkit.ktheory
from corrkit.graphs import Graph, successors
from corrkit.ktheory import _presentation, k0_class_membership, k_theory, presentation_matrix
from corrkit.obstruction import enumerate_candidates, sweep
from corrkit.smith import integer_solve
from corrkit.spheres import SphereConfig, build_disc_graph, build_z_graph

from oracles import HAND_SMITH, smith_form_lies_in_image


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


def test_presentation_counts_parallel_edges():
    # a -> b twice, b -> c: entry [v][w] of A^t - I counts the edges w -> v
    g = Graph(("a", "b", "c"), [("e1", "a", "b"), ("e2", "a", "b"), ("e3", "b", "c")])
    m = presentation_matrix(g)
    assert m.col_labels == ("a", "b")
    assert m.as_lists() == [[-1, 0], [2, -1], [0, 1]]


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
    ok, cert = k0_class_membership(g.vertices, g.succ, {"v1": 1})
    assert not ok and cert is None
    ok, cert = k0_class_membership(g.vertices, g.succ, {})
    assert ok and cert == {}


def test_class_membership_disc():
    g = build_disc_graph(SphereConfig(1))
    # the class of v2 vanishes: the v1 relation column reads (0, 1)
    ok, cert = k0_class_membership(g.vertices, g.succ, {"v2": 1})
    assert ok
    # certificate re-verified inside; here just confirm it names regular vertices
    assert set(cert) <= {"v1"}
    ok, cert = k0_class_membership(g.vertices, g.succ, {"v1": 1})
    assert not ok and cert is None


def test_sink_only_graph():
    g = Graph(("v1", "v2"), [])
    res = k_theory(g)
    assert res.k0_free_rank == 2
    assert not res.k0_torsion
    assert res.k1_free_rank == 0
    # no regular vertex, so no relation: only the zero class vanishes
    assert k0_class_membership(g.vertices, g.succ, {"v1": 0}) == (True, {})
    assert k0_class_membership(g.vertices, g.succ, {"v2": 1}) == (False, None)


# -- membership on the full system ------------------------------------------

SINK_PAIR = {"w1": 1, "w2": 1}


def _solves(pres, target, cert):
    """Does the certificate satisfy M x = b on the full presentation?"""
    x = [cert.get(v, 0) for v in pres.col_labels]
    return all(sum(a * c for a, c in zip(row, x)) == target.get(v, 0)
               for v, row in zip(pres.row_labels, pres.entries))


@pytest.mark.parametrize("max_vertices, wide", [(5, False), (4, True)], ids=["narrow5", "wide4"])
def test_membership_matches_the_full_system_solve(max_vertices, wide):
    for c in enumerate_candidates(max_vertices, wide=wide):
        succ = successors(c.vertices, c.pairs)
        pres = _presentation(c.vertices, succ)
        b = [SINK_PAIR.get(v, 0) for v in pres.row_labels]
        want = integer_solve(pres.as_lists(), b) is not None
        ok, cert = k0_class_membership(c.vertices, succ, SINK_PAIR)
        assert ok == want, c.pairs
        assert (cert is not None) == ok
        if ok:
            assert _solves(pres, SINK_PAIR, cert), c.pairs


def _count_calls(monkeypatch, name):
    """Replace `corrkit.ktheory.<name>` by a wrapper that counts its calls."""
    calls = []
    real = getattr(corrkit.ktheory, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(corrkit.ktheory, name, counted)
    return calls


# -- a guessed certificate, checked on the graph's own system ---------------

def _wrong_guesses(cert, regular):
    """Guesses that do not solve the sink-pair system, given a certificate
    `cert` that does and the graph's regular vertices."""
    first = next(iter(cert))
    return [
        dict.fromkeys(regular, 0),  # all zeros, while b is not
        {**cert, first: cert[first] + 1},  # one entry perturbed
        {**cert, "w1": 0},  # a key on a sink
        {**cert, "zz": 0},  # a key on an unlisted vertex
        {**cert, "zz": 1},
    ]


@pytest.mark.parametrize("max_vertices, wide", [(4, False), (4, True)], ids=["narrow4", "wide4"])
def test_a_wrong_guess_gives_the_guess_free_verdict(monkeypatch, max_vertices, wide):
    """A guess that fails M x = b, or names a sink or an unlisted vertex,
    is a miss: the call builds the matrix and answers as without a guess,
    a "no" included, and never raises."""
    pres_calls = _count_calls(monkeypatch, "_presentation")
    cands = enumerate_candidates(max_vertices, wide=wide)
    checked = 0
    for c in cands:
        succ = successors(c.vertices, c.pairs)
        want = k0_class_membership(c.vertices, succ, SINK_PAIR)
        regular = [v for v in c.vertices if succ[v]]
        cert = want[1] or {regular[0]: 1}
        for guess in _wrong_guesses(cert, regular):
            del pres_calls[:]
            assert k0_class_membership(c.vertices, succ, SINK_PAIR, guess=guess) == want, c.pairs
            assert len(pres_calls) == 1
            checked += 1
    assert checked == 5 * len(cands)


def test_a_wrong_guess_cannot_turn_a_no_into_a_yes():
    g = _loop()
    for guess in ({}, {"v1": 1}, {"v1": -1}, {"v2": 1}):
        assert k0_class_membership(g.vertices, g.succ, {"v1": 1}, guess=guess) == (False, None)
    g = Graph(("v1", "v2"), [])  # no regular vertex, so no guess key can be one
    assert k0_class_membership(g.vertices, g.succ, {"v2": 1}, guess={"v1": 1}) == (False, None)
    assert k0_class_membership(g.vertices, g.succ, {}, guess={"v1": 0}) == (True, {})
    # an edge from an unlisted source is in `succ` but not in the system
    vertices = ("a", "b")
    succ = successors(vertices, [("a", "b"), ("z", "b")])
    assert k0_class_membership(vertices, succ, {"b": 1}, guess={"z": 1}) == (False, None)


@pytest.mark.parametrize("max_vertices, wide", [(5, False), (4, True)], ids=["narrow5", "wide4"])
def test_the_previous_certificate_as_guess_keeps_every_verdict(max_vertices, wide):
    """With the certificate of the previous member, on whatever vertices,
    as the guess, every verdict is the guess-free one and every
    certificate passes the dense M x = b test."""
    prev = None
    hits = 0
    for c in enumerate_candidates(max_vertices, wide=wide):
        succ = successors(c.vertices, c.pairs)
        pres = _presentation(c.vertices, succ)
        want = k0_class_membership(c.vertices, succ, SINK_PAIR)
        got = k0_class_membership(c.vertices, succ, SINK_PAIR, guess=prev)
        assert got[0] == want[0], c.pairs
        if got[0]:
            assert _solves(pres, SINK_PAIR, got[1]), c.pairs
            hits += got[1] == prev
            prev = got[1]
        else:
            assert got == want == (False, None)
    assert hits > 0


def test_a_correct_guess_builds_no_matrix_and_solves_nothing(monkeypatch):
    c = next(c for c in enumerate_candidates(5) if "x1" in c.vertices and "t1" in c.vertices)
    succ = successors(c.vertices, c.pairs)
    ok, cert = k0_class_membership(c.vertices, succ, SINK_PAIR)
    # the narrow-class lemma's certificate (`obstruction` docstring)
    assert ok and cert == {"w0": 1, "x1": 1}
    pres_calls = _count_calls(monkeypatch, "_presentation")
    solve_calls = _count_calls(monkeypatch, "integer_solve")
    for guess in (cert, {**cert, "t1": 0}):  # a zero on a regular vertex is no miss
        assert k0_class_membership(c.vertices, succ, SINK_PAIR, guess=guess) == (True, cert)
    assert pres_calls == solve_calls == []
    assert k0_class_membership(c.vertices, succ, SINK_PAIR, guess={}) == (True, cert)
    assert len(pres_calls) == len(solve_calls) == 1


# -- small systems: a weighted source, a chain, no relation, no column ------

def test_presolve_keeps_a_source_with_target_weight():
    # s -> w: [p_s] = [p_w], so [p_s] - [p_w] = 0 needs the row of s
    g = Graph(("s", "w"), [("e", "s", "w")])
    assert k0_class_membership(g.vertices, g.succ, {"s": 1, "w": -1}) == (True, {"s": -1})


def test_presolve_drops_a_chain_of_sources_in_turn():
    # t1 -> t2 -> t3 -> w, listed against the chain
    g = Graph(("w", "t3", "t2", "t1"),
              [("a", "t1", "t2"), ("b", "t2", "t3"), ("c", "t3", "w")])
    assert k0_class_membership(g.vertices, g.succ, {"w": 1}) == (False, None)
    assert k0_class_membership(g.vertices, g.succ, {"w": 1, "t1": -1})[0]


def test_presolve_to_an_empty_system():
    g = _loop()
    assert k0_class_membership(g.vertices, g.succ, {}) == (True, {})
    assert k0_class_membership(g.vertices, g.succ, {}) == (True, {})
    assert k0_class_membership(g.vertices, g.succ, {"v1": 1}) == (False, None)


def test_presolve_on_a_sink_only_graph():
    g = Graph(("v1", "v2"), [])
    assert k0_class_membership(g.vertices, g.succ, {"v1": 0}) == (True, {})
    assert k0_class_membership(g.vertices, g.succ, {"v2": 1}) == (False, None)


# -- the target is checked -------------------------------------------------

def test_a_target_on_an_unlisted_vertex_raises():
    vertices = ("a", "b")
    succ = successors(vertices, [("a", "b")])
    with pytest.raises(ValueError, match="target vertex 'zz' is not a listed vertex"):
        k0_class_membership(vertices, succ, {"zz": 1})
    # a source named by an edge but not listed is no vertex of the system
    succ = successors(vertices, [("a", "b"), ("z", "b")])
    with pytest.raises(ValueError, match="target vertex 'z' is not a listed vertex"):
        k0_class_membership(vertices, succ, {"b": 1, "z": 0}, guess={"a": 1})


@pytest.mark.parametrize("value", [1.5, 1.0, "1", None], ids=["half", "float", "str", "none"])
def test_a_non_integer_target_coefficient_raises(value):
    vertices = ("a", "b")
    succ = successors(vertices, [("a", "b")])
    with pytest.raises(ValueError, match=f"target coefficient {value!r} of vertex 'a' is not an integer"):
        k0_class_membership(vertices, succ, {"a": value})
    # integer coefficients pass
    assert k0_class_membership(vertices, succ, {"a": 1, "b": -1}) == (True, {"a": -1})


# -- "no" verdicts against an independent oracle ---------------------------

def test_sweep_violations_are_the_smith_form_non_members():
    """On every candidate of the wide class at 4 vertices, the sweep's
    verdict is the one sympy's Smith forms give (`oracles`): b lies in the
    image of M exactly when M and [M | b] have the same rank and product
    of nonzero invariant factors.  Every "no" comes from `integer_solve`
    alone, so this is its check by a second route."""
    pytest.importorskip("sympy")
    cands = enumerate_candidates(4, wide=True)
    outside = []
    for c in cands:
        pres = _presentation(c.vertices, successors(c.vertices, c.pairs))
        b = [SINK_PAIR.get(v, 0) for v in pres.row_labels]
        if not smith_form_lies_in_image(pres.as_lists(), b):
            outside.append(c)
    assert sweep(4, wide=True).violations == outside
    assert (len(cands), len(outside)) == (1212, 1173)
