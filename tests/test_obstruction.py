"""Counterexample sweep over small ad-hoc graph models."""
import hashlib
from itertools import combinations_with_replacement, product

import pytest

from corrkit.obstruction import (LOOP_VERTEX, SINKS, _arborescences, _canonical, _h_parts,
                                 _renamings, _v_parts_wide, enumerate_candidates, sweep)
from oracles import graph_v_parts_wide, permutation_canonical


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


def test_three_vertices_and_three_edges_is_the_smallest_budget():
    # the loop at w0 and one edge into each sink; the CLI refuses less
    assert [sorted(c.pairs) for c in enumerate_candidates(3, max_edges=3)] == [
        [("w0", "w0"), ("w0", "w1"), ("w0", "w2")]]
    assert enumerate_candidates(3, max_edges=2) == []
    assert enumerate_candidates(2) == []


def test_candidates_at_five_vertices_are_pairwise_non_isomorphic():
    """networkx counts the isomorphism classes of the enumerator's output
    with w0, w1 and w2 held fixed (the other vertices may move): 806
    candidates, 806 classes.  Graphs are compared only within a bucket of
    equal role-and-degree invariants, which isomorphic graphs share."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import categorical_node_match

    roles = {"w0", "w1", "w2"}
    match = categorical_node_match("role", None)
    buckets: dict = {}
    cands = enumerate_candidates(5)
    for c in cands:
        g = nx.MultiDiGraph()
        for v in c.vertices:
            g.add_node(v, role=v if v in roles else "x")
        g.add_edges_from(c.pairs)
        sig = {v: (g.nodes[v]["role"], g.in_degree(v), g.out_degree(v)) for v in g}
        key = (tuple(sorted(sig.values())), tuple(sorted((sig[a], sig[b]) for a, b in c.pairs)))
        buckets.setdefault(key, []).append(g)
    classes = 0
    for graphs in buckets.values():
        reps: list = []
        for g in graphs:
            if not any(nx.is_isomorphic(g, r, node_match=match) for r in reps):
                reps.append(g)
        classes += len(reps)
    assert len(cands) == classes == 806


@pytest.mark.parametrize("extra", [(), ("x1",), ("x1", "x2")], ids=["0", "1", "2"])
def test_wide_v_parts_match_the_graph_loop(extra):
    """The pair-level reachability and acyclicity tests keep exactly the
    V-parts the per-multiset `Graph` loop kept, in the same order."""
    got = _v_parts_wide(extra, 10)
    assert got == graph_v_parts_wide(extra, 10)
    assert got


# (max_vertices, wide) -> sha256 of repr([(c.vertices, c.pairs) for c in
# enumerate_candidates(max_vertices, wide=wide)]), recorded at commit
# 46ece91, before the out-edge index and the renamings built once per
# call.  No JSON stream shows the candidate order (the narrow class has no
# violation to print), so these digests pin it.
CANDIDATE_ORDER_SHA256 = {
    (6, False): "f2ead20e5e40a8c4910c20cd6962b004ec3a064c3ac0c539435fda0a29b5d1bf",
    (4, True): "d49f2dcccd47270bfeb1725b6beae76be44fb91f32816fca986816d6089e54d0",
}


@pytest.mark.parametrize("max_vertices, wide", sorted(CANDIDATE_ORDER_SHA256))
def test_candidate_order_is_pinned(max_vertices, wide):
    listing = repr([(c.vertices, c.pairs) for c in enumerate_candidates(max_vertices, wide=wide)])
    digest = hashlib.sha256(listing.encode()).hexdigest()
    assert digest == CANDIDATE_ORDER_SHA256[max_vertices, wide]


def test_h_part_canonical_forms_match_the_permutation_loop():
    """Every edge multiset `_h_parts(("t1", "t2", "t3"), ("w1", "w2"), 7)`
    ranges over gets the canonical form the per-permutation renaming
    gave, and the h-parts are the forms of the multisets in which every
    h-vertex emits."""
    h_nodes, v_targets = ("t1", "t2", "t3"), ("w1", "w2")
    slots = [(h, t) for i, h in enumerate(h_nodes) for t in v_targets + h_nodes[i + 1:]]
    renamings = _renamings(h_nodes, slots, forward=True)
    expected = set()
    seen = 0
    for count in range(8):
        for combo in combinations_with_replacement(slots, count):
            form = _canonical(combo, renamings)
            assert form == permutation_canonical(combo, h_nodes, forward=True), combo
            if {s for s, _ in combo} == set(h_nodes):
                expected.add(form)
            seen += 1
    assert seen == 11440
    assert _h_parts(h_nodes, v_targets, 7) == sorted(expected)


@pytest.mark.parametrize("extra", [("x1", "x2"), ("x1", "x2", "x3")], ids=["2", "3"])
def test_arborescence_canonical_forms_match_the_permutation_loop(extra):
    """Every parent assignment `_arborescences` ranges over gets the
    canonical form the per-permutation renaming gave, and each
    arborescence it returns is its own canonical form."""
    nodes = SINKS + extra
    choices = [(LOOP_VERTEX,) + tuple(x for x in extra if x != v) for v in nodes]
    renamings = _renamings(extra, [(p, v) for v, opts in zip(nodes, choices) for p in opts])
    for assignment in product(*choices):
        pairs = tuple(zip(assignment, nodes))
        assert _canonical(pairs, renamings) == permutation_canonical(pairs, extra)
    arbs = _arborescences(extra)
    assert arbs and all(permutation_canonical(a, extra) == a for a in arbs)
