"""Exhaustive sweep behind the no-graph-algebra argument.

The argument: a graph algebra extension of the circle algebra by two
elementary ideals would require a finite graph E with a distinguished
vertex w0 carrying the only loop, two sinks w1 and w2 lying in the
hereditary closure V of w0, and no edge from the complement back into
w0.  The contradiction is that [p_w1] + [p_w2] must vanish in K0 while
the two sink classes stay independent.

`enumerate_candidates` builds every graph in the structural class up to
a vertex and edge budget, and `sweep` checks the K0 membership
[p_w1]+[p_w2] = 0 on each one, returning any violations.

Two classes are supported.  The default class additionally requires
that every vertex of V receives exactly one edge from inside V (the
V-part is an arborescence rooted at w0, plus the loop); this is the
regime in which the range-projection step of the argument is valid.
The wide class drops that condition; it contains genuine violations of
the membership claim, which the sweep surfaces and reports as lying
outside the narrow class.

Narrow-class lemma.  Let E be a narrow candidate with adjacency matrix A
and V the hereditary closure of w0, and let x be 1 on each regular
vertex of V and 0 elsewhere.  Then (A^t - I)x = e_w1 + e_w2.  Proof:
entry v of (A^t - I)x is the number of edges into v from regular
vertices of V, less 1 if v is itself a regular vertex of V.  The only
sinks are w1 and w2, so the regular vertices of V are V minus the two
sinks, and the edges from them are all the edges from V.  For v in V
that number is 1, since every vertex of V receives exactly one edge
from V (w0 its loop); so entry v is 1 at w1 and w2 and 0 at every other
vertex of V.  For v outside V (an h-vertex) it is 0, since V is
hereditary, and v carries 0 in x; so entry v is 0.  The solution is
also the only one.  Take the h-vertices in topological order (the part
outside V is acyclic).  No edge enters an h-vertex t from V, so its row
reads -x_t plus the x of the earlier h-vertices with an edge into t, and
b is 0 there; so x_t = 0 in turn, in every solution.  With those zeros
the rows of V read only the columns of V, and if y solves the
homogeneous system on V, the row of a child c of a regular vertex w
reads y_w = y_c, with y_c read as 0 at a sink, so y vanishes from the
deepest regular vertices of the arborescence up to w0.

The enumerator builds the vertex tuple as w0, the x_i, w1, w2 and then
the h-vertices, and the V-part spans exactly the first four groups, so
every candidate on one tuple has the same certificate: 1 on w0 and on
every x_i.  This is why `sweep`, which tries the certificate of the
last member on the same tuple first, needs a solve only for the first
candidate on each tuple.  The sweep still checks the certificate on
each candidate's own system and reports nothing more, so its report
lines are unchanged.

Closure lemma.  Let E be a graph whose only loop sits at w0, in which
every edge between two vertices other than w0 goes forward in some
order of those vertices.  If a vertex set V contains w0, is closed under
the edges of E, and every vertex of V other than w0 receives at least
one edge from V, then V is the hereditary closure of w0.  Proof: the
closure lies in V, since V contains w0 and is closed.  Conversely, walk
backward from any vertex of V along in-edges from V.  At a vertex x
other than w0 there is such an edge u -> x; it is no loop, so either u
is w0 or the edge goes forward and u comes earlier in the order than x.
The positions fall at every step, so the walk ends, and w0 is the only
vertex of V where it can end.  Read forward, the walk is a path from w0,
so every vertex of V lies in the closure.

The structural filters reuse certificates the same way.  Candidates on
one tuple share their V-part, so the topological order of the vertices
other than w0 and the closure V of the last accepted member on the
tuple usually hold for the next.  `_structural_ok` checks the order in
its one pass over the successor index (the order certifies acyclicity,
Kahn 1962) and the three conditions of the closure lemma by one count of
the edges from V into V, which the narrow filter reuses.  Kahn's peel
(`graphs.topological_order`) and the closure search run only
when a check fails: 26 times each on the 7696 candidates at 6 vertices,
10 of them for the first candidate on a tuple, 45 times on the 34226 at
7 and 783 times on the 16221 of the wide class at 5.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice, permutations, product

from .errors import BudgetError
from .graphs import canonical_encoding, hereditary_closure, successors, topological_order
from .ktheory import k0_class_membership
from .reports import Report

LOOP_VERTEX = "w0"
SINKS = ("w1", "w2")
_SINK_SET = frozenset(SINKS)


@dataclass(frozen=True, slots=True)
class Candidate:
    vertices: tuple
    pairs: tuple  # (src, dst) with multiplicity as repetition


class _TupleRecord:
    """What the last accepted member on one vertex tuple proved, for
    `sweep` to try on the next: a topological order of its vertices
    other than w0, the hereditary closure V of w0 (`closure`) and the K0
    certificate (`k0`).  Each is None until set, and none is trusted:
    `_structural_ok` and `k0_class_membership` check them on each
    candidate's own graph.  The order is kept as `after`, which maps each
    vertex to the set of vertices after its last place in the order
    (w0 left out), so an edge goes forward exactly when its target is in
    the set of its source."""

    __slots__ = ("after", "closure", "k0")

    def __init__(self, order=None, closure=None, k0=None):
        self.closure, self.k0 = closure, k0
        self.set_order(order)

    def set_order(self, order) -> None:
        if order is None:
            self.after = None
        else:
            order = [v for v in order if v != LOOP_VERTEX]
            self.after = {v: frozenset(order[i + 1:]) for i, v in enumerate(order)}


_NOTHING: frozenset = frozenset()


def _feeds(succ: dict, v_set) -> dict | None:
    """The number of edges from `v_set` into each of its vertices, or
    None when an edge leaves `v_set`."""
    feeds = dict.fromkeys(v_set, 0)
    try:
        for v in v_set:
            for d in succ.get(v, ()):
                feeds[d] += 1
    except KeyError:
        return None
    return feeds


def _structural_ok(vertices: tuple, succ: dict, wide: bool,
                   cert: _TupleRecord | None = None) -> tuple[bool, str]:
    """Check the filters that define the enumeration class on the graph
    on `vertices` with successor index `succ` (`graphs.successors`);
    `sweep` asserts them on every enumerated candidate.  One pass over
    `succ` finds the sinks, the loops and the edges into w0; the filters
    then run in a fixed order and the first that fails names the reason.

    `cert`, a `_TupleRecord`, may offer the order and V of an earlier
    graph on the same vertices.  The same pass checks that every edge
    between two vertices other than w0 goes forward in the order; if so,
    the graph is acyclic there, and the offered V is its closure when one
    count of the edges from V into V shows the three conditions of the
    module docstring's closure lemma.  Whatever fails is computed afresh
    (`topological_order`, `hereditary_closure`), so a wrong certificate
    costs time and changes no verdict and no message.  On a pass, what
    was computed afresh is written back into `cert`."""
    vs = set(vertices)
    if LOOP_VERTEX not in vs or not _SINK_SET <= vs:
        return False, "missing w0/w1/w2"
    after = cert.after if cert is not None else None
    forward = after is not None  # every edge seen so far away from w0 goes forward
    sinks = set()
    loops = []  # the source of each loop
    entering = False  # an edge into w0 from another vertex
    for s, ts in succ.items():  # every listed vertex is a key of `succ`
        if not ts:
            sinks.add(s)
        elif s == LOOP_VERTEX:
            loops += [s] * ts.count(s)
        elif not (forward and after.get(s, _NOTHING).issuperset(ts)):
            # an edge against the order, a loop or an edge into w0
            forward = False
            for d in ts:
                if d == s:
                    loops.append(s)
                elif d == LOOP_VERTEX:
                    entering = True
    if sinks != _SINK_SET:
        return False, f"sinks are {sorted(sinks)}, need exactly {list(SINKS)}"
    if loops != [LOOP_VERTEX]:
        return False, "need exactly one loop, at w0"
    if entering:
        return False, "edge into w0 from elsewhere"
    # A forward pass certifies the order: every edge from a vertex other
    # than w0 goes forward, so it is no loop and does not enter w0.
    feeds = None
    if forward and cert.closure is not None and LOOP_VERTEX in cert.closure:
        feeds = _feeds(succ, cert.closure)
        if feeds is not None and 0 in feeds.values():  # w0 counts its loop
            feeds = None
    v_set = cert.closure if feeds is not None else hereditary_closure(succ, [LOOP_VERTEX])
    if not _SINK_SET <= v_set:
        return False, "a sink is outside the hereditary closure of w0"
    order = None
    if not forward:
        order = topological_order(succ, frozenset(vs - {LOOP_VERTEX}))
        if order is None:
            return False, "second cycle outside the loop"
    # No test that every vertex outside V emits: the sinks are exactly w1
    # and w2, both inside V, so a third sink outside V cannot get this far.
    if not wide:
        if feeds is None:
            feeds = _feeds(succ, v_set)  # V is hereditary, so never None
        wrong = [v for v, k in feeds.items() if k != 1 and v != LOOP_VERTEX]
        if wrong:
            v = min(wrong)  # the first in sorted order
            return False, f"{v} receives {feeds[v]} edges from V (need exactly 1)"
        # No test that w0 receives only its loop: by now the one loop sits
        # at w0 and no other edge enters w0, so it could never fail.
    if cert is not None:
        if order is not None:
            cert.set_order(order)
        cert.closure = v_set
    return True, ""


def _renamings(movable: tuple, slots, forward: bool = False) -> list[dict]:
    """One dict per renaming of the interchangeable `movable` vertices
    other than the identity, mapping each pair of `slots` to its image;
    all other vertices stay fixed.  The images must lie in `slots`.
    With `forward`, a pair whose image turns an edge between movable
    vertices against their listed order maps to None instead."""
    order = {v: i for i, v in enumerate(movable)}
    # images are the slot tuples themselves, so canonical forms of slot
    # combinations share their pair objects whichever renaming wins
    # (fresh tuples cost about 2 MB of peak memory at 6 vertices)
    slots = {p: p for p in slots}
    out = []
    for perm in islice(permutations(movable), 1, None):
        rename = dict(zip(movable, perm))
        image = {}
        for p in slots:
            a, b = rename.get(p[0], p[0]), rename.get(p[1], p[1])
            if forward and a in order and b in order and order[a] >= order[b]:
                image[p] = None
            else:
                image[p] = slots[a, b]
        out.append(image)
    return out


def _canonical(pairs, renamings: list[dict]) -> tuple:
    """Least sorted edge tuple over the identity and `renamings` (see
    `_renamings`) of `pairs`, skipping a renaming that maps any pair to
    None."""
    best = tuple(sorted(pairs))
    for image in renamings:
        renamed = list(map(image.__getitem__, pairs))
        if None not in renamed:
            cand = tuple(sorted(renamed))
            if cand < best:
                best = cand
    return best


def _arborescences(extra: tuple) -> list[tuple]:
    """Edge lists (parent -> child) of arborescences on {w0} + extra + sinks,
    rooted at w0, in which every extra vertex has a child and the sinks are
    leaves.  Extra vertices are interchangeable; results are deduped by a
    canonical encoding."""
    nodes = list(SINKS) + list(extra)
    parents_choices = []
    for v in nodes:
        # sinks cannot be parents
        opts = [LOOP_VERTEX] + [x for x in extra if x != v]
        parents_choices.append(opts)
    renamings = _renamings(extra, [(p, v) for v, opts in zip(nodes, parents_choices) for p in opts])
    v_nodes = (LOOP_VERTEX,) + tuple(nodes)
    out = set()
    for assignment in product(*parents_choices):
        parent = dict(zip(nodes, assignment))
        edges = tuple((parent[v], v) for v in nodes)
        # with one parent per vertex, w0 reaches them all exactly when no
        # parent chain cycles
        if not _rooted_and_acyclic(v_nodes, edges):
            continue
        children = {x: 0 for x in extra}
        for v in nodes:
            if parent[v] in children:
                children[parent[v]] += 1
        if any(c == 0 for c in children.values()):
            continue
        out.add(_canonical(edges, renamings))
    return sorted(out)


def _rooted_and_acyclic(v_nodes: tuple, pairs) -> bool:
    """Every vertex of `v_nodes` is reachable from w0 along the edges
    `pairs`, and no cycle avoids w0: the tests `_structural_ok` makes.
    The loop at w0 changes neither, so it may be left out."""
    succ = successors(v_nodes, pairs)
    return (len(hereditary_closure(succ, [LOOP_VERTEX])) == len(v_nodes)
            and topological_order(succ, frozenset(v_nodes) - {LOOP_VERTEX}) is not None)


def _v_parts_wide(extra: tuple, budget: int) -> list[tuple]:
    """All V-internal edge multisets for the wide class: hereditary
    reachability from w0, single loop, nothing into w0, every extra
    vertex emits (no third sink), total edges <= budget."""
    v_nodes = (LOOP_VERTEX,) + extra + SINKS
    slots = [(s, d) for s in (LOOP_VERTEX,) + extra for d in v_nodes if d != LOOP_VERTEX]
    loop = (LOOP_VERTEX, LOOP_VERTEX)
    renamings = _renamings(extra, [loop] + slots)
    out = set()
    # both tests read only which slots a multiset uses, and the 3 x 4
    # slots at two extra vertices have at most 4096 subsets
    verdicts: dict = {}
    max_extra_edges = budget - 1  # one edge is the loop
    for count in range(len(extra) + len(SINKS), max_extra_edges + 1):
        for combo in combinations_with_replacement(slots, count):
            used = frozenset(combo)
            ok = verdicts.get(used)
            if ok is None:
                # an extra vertex that emits nothing would be a third sink
                ok = verdicts[used] = (set(extra) <= {s for s, _ in used}
                                       and _rooted_and_acyclic(v_nodes, used))
            if ok:
                out.add(_canonical((loop,) + combo, renamings))
    return sorted(out)


def _h_parts(h_nodes: tuple, v_targets: tuple, budget: int) -> list[tuple]:
    """Edge multisets for the part outside V: each h-vertex emits at
    least one edge, targets are V \\ {w0} or later h-vertices (acyclic),
    multiset total <= budget.  Deduped under h-vertex permutations that
    preserve the forward (acyclic) orientation.

    Each multiset is one nonempty out-multiset per h-vertex, drawn for
    every choice of sizes (each at least 1, summing to at most `budget`),
    so none is drawn only to be dropped.  A vertex's out-multisets of one
    size are grouped by the h-to-h pairs they use, and `_canonical` gets
    only the renamings that keep all the pairs a choice of groups uses
    forward (it would skip the others), picked once per set of pairs."""
    slots_of = [[(h, t) for t in v_targets + h_nodes[i + 1 :]] for i, h in enumerate(h_nodes)]
    renamings = _renamings(h_nodes, [p for slots in slots_of for p in slots], forward=True)
    top = budget - len(h_nodes) + 1  # the most edges one h-vertex can emit
    h_set = frozenset(h_nodes)
    # groups[i][n - 1]: the out-multisets of size n of the i-th h-vertex,
    # as (h-to-h pairs used, multisets using exactly those)
    groups = []
    for slots in slots_of:
        by_size = []
        for n in range(1, top + 1):
            by_pairs: dict = {}
            for m in combinations_with_replacement(slots, n):
                by_pairs.setdefault(frozenset([p for p in m if p[1] in h_set]), []).append(m)
            by_size.append(list(by_pairs.items()))
        groups.append(by_size)
    allowed: dict = {}  # h-to-h pairs used -> the renamings keeping them forward
    out = set()
    for sizes in product(range(1, top + 1), repeat=len(h_nodes)):
        if sum(sizes) > budget:
            continue
        for choice in product(*[groups[i][n - 1] for i, n in enumerate(sizes)]):
            used = frozenset().union(*[hh for hh, _ in choice])
            keep = allowed.get(used)
            if keep is None:
                keep = allowed[used] = [image for image in renamings
                                        if all(image[p] is not None for p in used)]
            for parts in product(*[ms for _, ms in choice]):
                out.add(_canonical(tuple(chain.from_iterable(parts)), keep))
    return sorted(out)


def enumerate_candidates(max_vertices: int, max_edges: int = 10, wide: bool = False) -> list[Candidate]:
    if max_vertices > 7 or max_edges > 14:
        raise BudgetError(
            f"sweep budget exceeded (max_vertices {max_vertices} > 7 or max_edges {max_edges} > 14); "
            "this enumeration is meant for desk-scale checks"
        )
    if max_vertices < 3:
        return []
    cands: list[Candidate] = []
    spare = max_vertices - 3
    for n_extra in range(spare + 1):
        extra = tuple(f"x{i+1}" for i in range(n_extra))
        v_nodes = (LOOP_VERTEX,) + extra + SINKS
        if wide:
            v_parts = _v_parts_wide(extra, max_edges)
        else:
            v_parts = [
                ((LOOP_VERTEX, LOOP_VERTEX),) + arb for arb in _arborescences(extra)
            ]
        for n_h in range(spare - n_extra + 1):
            h_nodes = tuple(f"t{i+1}" for i in range(n_h))
            vertices = v_nodes + h_nodes  # one tuple for all these candidates
            v_targets = extra + SINKS
            h_parts: dict = {}  # remaining edge budget -> its h-parts
            for v_pairs in v_parts:
                rem = max_edges - len(v_pairs)
                if rem < len(h_nodes):
                    continue
                if rem not in h_parts:
                    h_parts[rem] = _h_parts(h_nodes, v_targets, rem)
                for h_pairs in h_parts[rem]:
                    cands.append(Candidate(vertices, tuple(sorted(v_pairs + h_pairs))))
    # This pass drops only exact duplicates, and construction makes none:
    # V-sourced and h-sourced edges have disjoint sources, and the V-parts
    # are distinct.  It stays because perfbench counts its
    # `canonical_encoding` calls, one per candidate, each read from the
    # vertices and pairs without building a `Graph`.  The pairs are built
    # sorted, so each encoding holds the candidate's own pairs tuple and the
    # sorted vertex tuple shared by all candidates on the same vertices.
    # Isomorphic candidates are not merged here; isomorph-free generation
    # is an open roadmap item.
    seen = set()
    uniq = []
    for c in cands:
        enc = canonical_encoding(c.vertices, c.pairs)
        if enc not in seen:
            seen.add(enc)
            uniq.append(c)
    return uniq


@dataclass
class SweepResult:
    candidates_checked: int
    violations: list
    wide: bool
    report: Report


def sweep(max_vertices: int, max_edges: int = 10, wide: bool = False) -> SweepResult:
    """Check [p_w1]+[p_w2] = 0 in K0 on every enumerated candidate.

    Each candidate's successor index (`graphs.successors`) is built once
    from its vertices and pairs, with no named `Graph`, and both the
    structural check and the K0 test read it.  The K0 test first tries
    the certificate of the last member on the same vertex tuple as its
    `guess`; on the narrow class that holds on every candidate but the
    first on each tuple (the module's narrow-class lemma), so 7686 of the
    7696 graphs on 6 vertices need no matrix, and `integer_solve` runs
    once per vertex tuple.  Every verdict is checked on the candidate's
    own system: a "yes" by M x = b, a "no" by `integer_solve`'s dual
    witness.

    One `_TupleRecord` per vertex tuple holds what the last accepted
    member on it proved: its K0 certificate, topological order and V.
    `_structural_ok` checks the order and V on each candidate and falls
    back to Kahn's peel and the closure search only when they fail, 26
    times on 6 vertices (the module docstring's closure lemma).  Nothing
    of this enters the report, so its lines are the same as without."""
    cands = enumerate_candidates(max_vertices, max_edges, wide)
    rep = Report(f"obstruction sweep ({'wide' if wide else 'default'} class, "
                 f"<= {max_vertices} vertices, <= {max_edges} edges)")
    violations = []
    records: dict = {}  # vertex tuple -> _TupleRecord of the last accepted member on it
    target = {SINKS[0]: 1, SINKS[1]: 1}
    for c in cands:
        succ = successors(c.vertices, c.pairs)
        rec = records.get(c.vertices)
        if rec is None:
            rec = records[c.vertices] = _TupleRecord()
        ok, why = _structural_ok(c.vertices, succ, wide, rec)
        if not ok:
            raise AssertionError(f"enumerator produced out-of-class candidate: {why}: {c.pairs}")
        member, cert = k0_class_membership(c.vertices, succ, target, guess=rec.k0)
        if member:
            rec.k0 = cert
        else:
            violations.append(c)
    rep.add("candidates enumerated", True, str(len(cands)))
    rep.add(
        "[p_w1]+[p_w2] = 0 throughout" if not wide else "membership verdicts collected",
        (not violations) if not wide else True,
        f"{len(violations)} violation(s)" + (f", e.g. {violations[0].pairs}" if violations else ""),
    )
    return SweepResult(len(cands), violations, wide, rep)
