"""Counterexample sweep over small ad-hoc graph models."""
import gc
import hashlib
import tracemalloc
from itertools import combinations_with_replacement, product

import pytest

import corrkit.graphs
import corrkit.ktheory
import corrkit.obstruction
from corrkit.graphs import hereditary_closure, successors, topological_order
from corrkit.obstruction import (LOOP_VERTEX, SINKS, Candidate, _arborescences, _canonical,
                                 _h_parts, _renamings, _structural_ok, _TupleRecord,
                                 _v_parts_wide, enumerate_candidates, sweep)
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


@pytest.mark.parametrize("max_vertices, wide, count", [(5, False, 806), (4, True, 1212)],
                         ids=["narrow5", "wide4"])
def test_sweep_builds_no_graph(monkeypatch, max_vertices, wide, count):
    """The sweep reads each candidate's successor index and never builds
    a named `Graph`: with `Graph.__init__` raising it checks the same
    candidates and prints the same report lines as without."""
    want = sweep(max_vertices, wide=wide)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the sweep built a Graph")

    monkeypatch.setattr(corrkit.graphs.Graph, "__init__", refuse)
    got = sweep(max_vertices, wide=wide)
    assert got.candidates_checked == want.candidates_checked == count
    assert got.violations == want.violations
    assert got.report.render().splitlines() == want.report.render().splitlines()


def test_sweep_reuses_the_last_certificate_on_each_vertex_tuple(monkeypatch):
    """`sweep(5)` calls `integer_solve` once for each of its six vertex
    tuples, for the first candidate on it; without the guess it calls it
    once per candidate, 806 times, and the report lines are the same
    either way."""
    calls = []
    real_solve = corrkit.ktheory.integer_solve

    def counted(m, b):
        calls.append(1)
        return real_solve(m, b)

    monkeypatch.setattr(corrkit.ktheory, "integer_solve", counted)
    got = sweep(5)
    assert len(calls) == len({c.vertices for c in enumerate_candidates(5)}) == 6
    real_membership = corrkit.obstruction.k0_class_membership

    def no_guess(vertices, succ, target, *, guess=None):
        return real_membership(vertices, succ, target)

    monkeypatch.setattr(corrkit.obstruction, "k0_class_membership", no_guess)
    del calls[:]
    want = sweep(5)
    assert len(calls) == 806
    assert got.candidates_checked == want.candidates_checked == 806
    assert got.violations == want.violations == []
    assert got.report.render().splitlines() == want.report.render().splitlines()


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
    (5, True): "70b6f3c7128bb9fb6590cca3e8b7df04b927552b91bcea17fa70b8322b6050a6",
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


def test_h_parts_at_four_h_vertices_are_pinned():
    """The h-parts with four h-vertices, two sink targets and budget 7,
    in order, as recorded at commit 40b026e (the combination loop that
    dropped multisets with a silent h-vertex)."""
    parts = _h_parts(("t1", "t2", "t3", "t4"), ("w1", "w2"), 7)
    assert len(parts) == 6926
    assert (hashlib.sha256(repr(parts).encode()).hexdigest()
            == "c88be5d500abbaf61dc9c1ccfe888101eccb32012da171527842d0a138ba4854")
    # no h-vertex: the one empty part; a budget below one edge each: none
    assert _h_parts((), ("w1", "w2"), 0) == [()]
    assert _h_parts(("t1", "t2"), ("w1", "w2"), 1) == []
    assert _h_parts(("t1", "t2"), ("w1",), 2) == [(("t1", "t2"), ("t2", "w1")),
                                                  (("t1", "w1"), ("t2", "w1"))]


_BASE = [("w0", "w0"), ("w0", "w1"), ("w0", "w2")]  # the smallest candidate

# name -> (vertices, pairs, verdict in the wide class, verdict in the narrow class)
_REJECTIONS = {
    "missing-sink": (("w0", "w1"), [("w0", "w0"), ("w0", "w1")],
                     (False, "missing w0/w1/w2"), None),
    "third-sink": (("w0", "w1", "w2", "x1"), _BASE,
                   (False, "sinks are ['w1', 'w2', 'x1'], need exactly ['w1', 'w2']"), None),
    "w1-emits": (("w0", "w1", "w2"), _BASE + [("w1", "w2")],
                 (False, "sinks are ['w2'], need exactly ['w1', 'w2']"), None),
    "two-loops-at-w0": (("w0", "w1", "w2"), _BASE + [("w0", "w0")],
                        (False, "need exactly one loop, at w0"), None),
    "loop-elsewhere": (("w0", "w1", "w2", "x1"), _BASE + [("w0", "x1"), ("x1", "x1"), ("x1", "w1")],
                       (False, "need exactly one loop, at w0"), None),
    "edge-into-w0": (("w0", "w1", "w2", "x1"), _BASE + [("w0", "x1"), ("x1", "w0")],
                     (False, "edge into w0 from elsewhere"), None),
    "sink-outside-V": (("w0", "w1", "w2", "t1"), [("w0", "w0"), ("w0", "w1"), ("t1", "w2")],
                       (False, "a sink is outside the hereditary closure of w0"), None),
    "second-cycle": (("w0", "w1", "w2", "t1", "t2"),
                     _BASE + [("t1", "t2"), ("t2", "t1"), ("t1", "w1")],
                     (False, "second cycle outside the loop"), None),
    "second-cycle-in-V": (("w0", "w1", "w2", "x1", "x2"),
                          _BASE + [("w0", "x1"), ("x1", "x2"), ("x2", "x1")],
                          (False, "second cycle outside the loop"), None),
    "double-feed": (("w0", "w1", "w2"), _BASE + [("w0", "w1")],
                    (True, ""), (False, "w1 receives 2 edges from V (need exactly 1)")),
    "fed-twice-inside-V": (("w0", "w1", "w2", "x1"),
                           [("w0", "w0"), ("w0", "x1"), ("x1", "w1"), ("x1", "w2"), ("w0", "w2")],
                           (True, ""), (False, "w2 receives 2 edges from V (need exactly 1)")),
    "in-class": (("w0", "w1", "w2", "x1", "t1"),
                 [("w0", "w0"), ("w0", "x1"), ("x1", "w1"), ("x1", "w2"), ("t1", "w1"), ("t1", "x1")],
                 (True, ""), (True, "")),
}


@pytest.mark.parametrize("name", list(_REJECTIONS))
def test_structural_rejection_reasons_are_pinned(name):
    """Each filter of `_structural_ok` that can fail, with its exact
    message, in both classes; a filter that the wide class skips passes
    there.  Where no narrow verdict is listed the two classes agree."""
    vertices, pairs, wide, narrow = _REJECTIONS[name]
    succ = successors(vertices, pairs)
    assert _structural_ok(vertices, succ, True) == wide
    assert _structural_ok(vertices, succ, False) == (wide if narrow is None else narrow)


def _own_order_and_closure(vertices, succ):
    """A topological order of the vertices other than w0 (their listed
    order when there is none) and the hereditary closure of w0."""
    rest = frozenset(vertices) - {LOOP_VERTEX}
    order = topological_order(succ, rest) or [v for v in vertices if v in rest]
    return order, hereditary_closure(succ, [LOOP_VERTEX])


def _wrong_certificates(vertices, succ) -> dict:
    """name -> (order, closure) offered to `_structural_ok` for the graph
    on `vertices` with index `succ`; none is its own certificate, save
    where the graph makes a wrong guess coincide with the right one."""
    order, closure = _own_order_and_closure(vertices, succ)
    in_class_vertices, in_class_pairs = _REJECTIONS["in-class"][:2]
    in_class = _own_order_and_closure(in_class_vertices,
                                      successors(in_class_vertices, in_class_pairs))
    rest = sorted(closure - {LOOP_VERTEX})
    return {
        "in-class": in_class,
        "reversed-order": (order[::-1], closure),
        "order-missing-a-vertex": (order[:-1], closure),
        "order-ending-at-w0": (order + [LOOP_VERTEX], closure),
        "order-then-reversed": (order + order[::-1], closure),
        "V-too-large": (order, closure | set(vertices) | {"zz"}),
        "V-too-small": (order, frozenset([LOOP_VERTEX])),
        "V-not-closed": (order, closure - set(rest[-1:])),
        "V-without-w0": (order, closure - {LOOP_VERTEX}),
        "V-empty": (order, frozenset()),
    }


def _assert_holds_a_certificate(rec, vertices, succ):
    """The record's order is forward on every edge between vertices
    other than w0, and its closure is the hereditary closure of w0."""
    assert rec.closure == hereditary_closure(succ, [LOOP_VERTEX])
    for s in vertices:
        for d in succ[s]:
            if LOOP_VERTEX not in (s, d):
                assert d in rec.after[s], (s, d)


@pytest.mark.parametrize("name", list(_REJECTIONS))
def test_wrong_certificates_change_no_verdict(name):
    """Every pinned graph keeps its exact verdict and message in both
    classes whatever order and V it is offered, and a pass leaves a
    true certificate in the record (computed afresh where the offered
    one failed)."""
    vertices, pairs, wide, narrow = _REJECTIONS[name]
    succ = successors(vertices, pairs)
    want = {True: wide, False: wide if narrow is None else narrow}
    offers = _wrong_certificates(vertices, succ)
    offers["own"] = _own_order_and_closure(vertices, succ)
    for offer, (order, closure) in offers.items():
        for in_wide in (True, False):
            rec = _TupleRecord(order, closure)
            assert _structural_ok(vertices, succ, in_wide, rec) == want[in_wide], offer
            if want[in_wide][0]:
                _assert_holds_a_certificate(rec, vertices, succ)


@pytest.mark.parametrize("pairs, why", [
    ([("w0", "w0"), ("w0", "x1"), ("x1", "w1"), ("x1", "w2"), ("x1", "t1"), ("t1", "x1")],
     "second cycle outside the loop"),
    ([("w0", "w0"), ("w0", "x1"), ("x1", "w1"), ("x1", "w2"), ("w0", "w1"), ("t1", "w1")],
     "w1 receives 2 edges from V (need exactly 1)"),
    ([("w0", "w0"), ("w0", "x1"), ("x1", "w1"), ("x1", "w2"), ("t1", "w0")],
     "edge into w0 from elsewhere"),
    ([("w0", "w0"), ("w0", "w1"), ("w0", "w2"), ("x1", "w1"), ("t1", "x1"), ("w1", "t1")],
     "sinks are ['w2'], need exactly ['w1', 'w2']"),
], ids=["second-cycle", "double-feed", "edge-into-w0", "w1-emits"])
def test_an_out_of_class_graph_after_certified_members_still_fails(monkeypatch, pairs, why):
    """An out-of-class graph slipped into the enumeration right after
    the last member on its vertex tuple meets that member's certificate
    and still stops the sweep with the message it gets alone."""
    vertices = ("w0", "x1", "w1", "w2", "t1")
    bad = Candidate(vertices, tuple(sorted(pairs)))
    assert _structural_ok(vertices, successors(vertices, bad.pairs), False) == (False, why)
    cands = enumerate_candidates(5)
    at = max(i for i, c in enumerate(cands) if c.vertices == vertices) + 1
    assert sum(c.vertices == vertices for c in cands) > 100
    cands.insert(at, bad)
    monkeypatch.setattr(corrkit.obstruction, "enumerate_candidates", lambda *a, **kw: cands)
    with pytest.raises(AssertionError) as err:
        sweep(5)
    assert str(err.value) == f"enumerator produced out-of-class candidate: {why}: {bad.pairs}"


@pytest.mark.parametrize("max_vertices, wide, fallbacks", [(5, False, 13), (6, False, 26),
                                                           (4, True, 6)],
                         ids=["narrow5", "narrow6", "wide4"])
def test_structural_certificates_change_no_report_line(monkeypatch, max_vertices, wide,
                                                       fallbacks):
    """With the certificates reused the sweep peels (`topological_order`)
    and searches (`hereditary_closure`) afresh only where the offered
    ones fail, 26 times each on 6 vertices; with them suppressed it does
    so on every candidate.  The report lines are the same.  The
    enumerator runs before the counting starts, so its own calls are
    left out."""
    cands = enumerate_candidates(max_vertices, wide=wide)
    monkeypatch.setattr(corrkit.obstruction, "enumerate_candidates", lambda *a, **kw: cands)
    calls = {"topological_order": 0, "hereditary_closure": 0}
    for fn in calls:
        def counted(*args, _real=getattr(corrkit.obstruction, fn), _fn=fn):
            calls[_fn] += 1
            return _real(*args)
        monkeypatch.setattr(corrkit.obstruction, fn, counted)
    got = sweep(max_vertices, wide=wide)
    assert calls == dict.fromkeys(calls, fallbacks)
    real_check = corrkit.obstruction._structural_ok

    def no_certificate(vertices, succ, in_wide, cert=None):
        return real_check(vertices, succ, in_wide)

    monkeypatch.setattr(corrkit.obstruction, "_structural_ok", no_certificate)
    calls.update(dict.fromkeys(calls, 0))
    want = sweep(max_vertices, wide=wide)
    assert calls == dict.fromkeys(calls, len(cands))
    assert got.candidates_checked == want.candidates_checked == len(cands)
    assert got.violations == want.violations
    assert got.report.render().splitlines() == want.report.render().splitlines()


def test_structural_filters_run_in_a_fixed_order():
    """A graph failing several filters is rejected by the first of them:
    here an extra sink, a second loop and an edge into w0 all at once."""
    vertices = ("w0", "w1", "w2", "x1", "x2")
    succ = successors(vertices, _BASE + [("w0", "w0"), ("x1", "w0"), ("w0", "x1")])
    for wide in (True, False):
        assert _structural_ok(vertices, succ, wide) == (
            False, "sinks are ['w1', 'w2', 'x2'], need exactly ['w1', 'w2']")
    vertices = ("w0", "w1", "w2", "x1")
    succ = successors(vertices, _BASE + [("w0", "w0"), ("w0", "x1"), ("x1", "w0")])
    assert _structural_ok(vertices, succ, False) == (False, "need exactly one loop, at w0")


def test_enumeration_peak_memory_stays_small():
    """After a warm-up, `enumerate_candidates(6)` allocates at most 3.5 MB
    at its peak (tracemalloc): the candidates share one vertex tuple per
    vertex set, the encodings of the dedupe pass share the candidates'
    own pairs tuples, and no multiset is built only to be dropped.  A
    full collection first empties the free lists, whose reuse tracemalloc
    does not see, so the reading repeats: on CPython 3.11 it is 2.9 MB,
    and it was 5.0 MB when each candidate and each encoding held its own
    copies."""
    enumerate_candidates(6)
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        enumerate_candidates(6)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 3.5e6, peak
