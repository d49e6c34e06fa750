"""K-theory of graph algebras against hand-reduced Smith forms."""
import random

import pytest

import corrkit.ktheory
from corrkit.graphs import Graph
from corrkit.ktheory import (_forced_zero_presolve, k0_class_membership, k_theory,
                             presentation_matrix)
from corrkit.obstruction import enumerate_candidates
from corrkit.smith import integer_solve
from corrkit.spheres import SphereConfig, build_disc_graph, build_z_graph

from oracles import HAND_SMITH, dense_forced_zero_presolve


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


# -- membership through the forced-zero reduction and a shared memo ---------

SINK_PAIR = {"w1": 1, "w2": 1}


def _solves(g, target, cert):
    """Does the certificate satisfy M x = b on the full presentation?"""
    pres = presentation_matrix(g)
    x = [cert.get(v, 0) for v in pres.col_labels]
    return all(sum(a * c for a, c in zip(row, x)) == target.get(v, 0)
               for v, row in zip(pres.row_labels, pres.entries))


@pytest.mark.parametrize("max_vertices, wide", [(5, False), (4, True)], ids=["narrow5", "wide4"])
def test_membership_matches_the_full_system_solve(max_vertices, wide):
    memo = {}
    cands = enumerate_candidates(max_vertices, wide=wide)
    for c in cands:
        g = c.graph()
        pres = presentation_matrix(g)
        b = [SINK_PAIR.get(v, 0) for v in pres.row_labels]
        want = integer_solve(pres.as_lists(), b) is not None
        for shared in (None, memo):
            ok, cert = k0_class_membership(g, SINK_PAIR, memo=shared)
            assert ok == want, c.pairs
            assert (cert is not None) == ok
            if ok:
                assert _solves(g, SINK_PAIR, cert), c.pairs
    # the narrow candidates share a handful of reduced systems
    assert 0 < len(memo) <= 10 < len(cands)


def test_memo_factors_each_reduced_system_once(monkeypatch):
    calls = []
    real = corrkit.ktheory.integer_solve

    def counted(m, b):
        calls.append(1)
        return real(m, b)

    monkeypatch.setattr(corrkit.ktheory, "integer_solve", counted)
    memo = {}
    for c in enumerate_candidates(5):
        assert k0_class_membership(c.graph(), SINK_PAIR, memo=memo)[0]
    assert len(calls) == len(memo) == 10


def test_presolve_keeps_a_source_with_target_weight():
    # s -> w: [p_s] = [p_w], so [p_s] - [p_w] = 0 needs the row of s
    g = Graph(("s", "w"), [("e", "s", "w")])
    pres = presentation_matrix(g)
    assert _forced_zero_presolve(pres.entries, [1, -1]) == ([0, 1], [0])
    assert k0_class_membership(g, {"s": 1, "w": -1}, memo={}) == (True, {"s": -1})


def test_presolve_drops_a_chain_of_sources_in_turn():
    # t1 -> t2 -> t3 -> w, listed against the chain so each pass frees the next source
    g = Graph(("w", "t3", "t2", "t1"),
              [("a", "t1", "t2"), ("b", "t2", "t3"), ("c", "t3", "w")])
    pres = presentation_matrix(g)
    assert _forced_zero_presolve(pres.entries, [1, 0, 0, 0]) == ([0], [])
    assert _forced_zero_presolve(pres.entries, [0, 0, 0, 0]) == ([], [])
    assert k0_class_membership(g, {"w": 1}, memo={}) == (False, None)
    assert k0_class_membership(g, {"w": 1, "t1": -1}, memo={})[0]


def test_presolve_to_an_empty_system():
    g = _loop()
    pres = presentation_matrix(g)
    assert _forced_zero_presolve(pres.entries, [0]) == ([], [0])
    memo = {}
    assert k0_class_membership(g, {}, memo=memo) == (True, {})
    assert k0_class_membership(g, {}, memo=memo) == (True, {})
    assert k0_class_membership(g, {"v1": 1}, memo=memo) == (False, None)


def test_presolve_on_a_sink_only_graph():
    g = Graph(("v1", "v2"), [])
    pres = presentation_matrix(g)
    assert _forced_zero_presolve(pres.entries, [0, 1]) == ([1], [])
    memo = {}
    assert k0_class_membership(g, {"v1": 0}, memo=memo) == (True, {})
    assert k0_class_membership(g, {"v2": 1}, memo=memo) == (False, None)


def test_corrupted_memo_entry_raises_and_gives_no_verdict():
    cands = enumerate_candidates(4)
    memo = {}
    assert k0_class_membership(cands[0].graph(), SINK_PAIR, memo=memo)[0]
    for key, sol in memo.items():
        memo[key] = (0,) * len(sol)
    with pytest.raises(AssertionError, match="lifted K0 solution fails M x = b"):
        k0_class_membership(cands[0].graph(), SINK_PAIR, memo=memo)


def _chain_system(rng: random.Random) -> tuple[list, list]:
    """A small integer system M x = b holding a forced-zero chain: link
    k has b = 0, +-1 at column c_k and otherwise entries only at
    c_1..c_{k-1}, so it qualifies once the links before it have dropped
    their columns.  The links are listed last first, against the drop
    order, so each pass of the presolve frees one more; random rows with
    random targets follow."""
    n_cols = rng.randint(1, 6)
    cols = rng.sample(range(n_cols), n_cols)
    m, b = [], []
    for k in range(rng.randint(0, n_cols)):
        row = [0] * n_cols
        row[cols[k]] = rng.choice((1, -1))
        for j in cols[:k]:
            row[j] = rng.choice((0, 0, 1, -1, 2, -3))
        m.insert(0, row)
        b.insert(0, 0)
    for _ in range(rng.randint(0 if m else 1, 4)):
        m.append([rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n_cols)])
        b.append(rng.choice((0, 0, 1, -1)))
    return m, b


def test_presolve_matches_the_dense_rescan_in_any_row_order():
    """Each row's support listed once gives the rows and columns the
    dense rescan gave; shuffling the rows drops the same ones (the
    module docstring's order argument)."""
    rng = random.Random(2982)
    longest = 0
    for _ in range(500):
        m, b = _chain_system(rng)
        rows, cols = _forced_zero_presolve(m, b)
        assert (rows, cols) == dense_forced_zero_presolve(m, b)
        longest = max(longest, len(m[0]) - len(cols))
        perm = rng.sample(range(len(m)), len(m))
        p_rows, p_cols = _forced_zero_presolve([m[i] for i in perm], [b[i] for i in perm])
        assert sorted(perm[i] for i in p_rows) == rows and p_cols == cols
    assert longest == 6  # some chain ran through every column
