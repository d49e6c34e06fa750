"""Counterexample sweep over small ad-hoc graph models."""
import pytest

from corrkit.obstruction import _v_parts_wide, enumerate_candidates, sweep
from oracles import graph_v_parts_wide


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
