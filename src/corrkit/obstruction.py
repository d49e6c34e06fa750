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
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, permutations, product

from .errors import BudgetError
from .graphs import (Graph, canonical_encoding, from_edge_pairs, hereditary_closure,
                     is_acyclic_among)
from .ktheory import k0_class_membership
from .reports import Report

LOOP_VERTEX = "w0"
SINKS = ("w1", "w2")


@dataclass(frozen=True)
class Candidate:
    vertices: tuple
    pairs: tuple  # (src, dst) with multiplicity as repetition

    def graph(self) -> Graph:
        return from_edge_pairs(self.vertices, self.pairs)


def _structural_ok(g: Graph, wide: bool) -> tuple[bool, str]:
    """Check the filters that define the enumeration class; `sweep`
    asserts them on every enumerated candidate."""
    vs = set(g.vertices)
    if LOOP_VERTEX not in vs or not set(SINKS) <= vs:
        return False, "missing w0/w1/w2"
    sinks = set(g.sinks())
    if sinks != set(SINKS):
        return False, f"sinks are {sorted(sinks)}, need exactly {list(SINKS)}"
    src, dst = g.src, g.dst
    loops = []
    entering = False  # an edge into w0 from another vertex
    for e in g.edges:
        if src[e] == dst[e]:
            loops.append(e)
        elif dst[e] == LOOP_VERTEX:
            entering = True
    if len(loops) != 1 or src[loops[0]] != LOOP_VERTEX:
        return False, "need exactly one loop, at w0"
    if entering:
        return False, "edge into w0 from elsewhere"
    v_set = hereditary_closure(g, [LOOP_VERTEX])
    if not set(SINKS) <= v_set:
        return False, "a sink is outside the hereditary closure of w0"
    rest = frozenset(vs - v_set)
    if not is_acyclic_among(g, frozenset(vs - {LOOP_VERTEX})):
        return False, "second cycle outside the loop"
    for v in rest:
        if not g.out_edges(v):
            return False, f"{v} outside V emits nothing (third sink)"
    if not wide:
        feeds = dict.fromkeys(v_set, 0)  # edges from V into each vertex of V
        loop_feed = 0  # edges into w0 from anywhere
        for e in g.edges:
            d = dst[e]
            if src[e] in v_set:
                feeds[d] += 1  # V is hereditary, so d is in V
            if d == LOOP_VERTEX:
                loop_feed += 1
        for v in sorted(v_set - {LOOP_VERTEX}):
            if feeds[v] != 1:
                return False, f"{v} receives {feeds[v]} edges from V (need exactly 1)"
        if loop_feed != 1:
            return False, "w0 receives more than its loop"
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
    out = set()
    for assignment in product(*parents_choices):
        parent = dict(zip(nodes, assignment))
        # acyclicity / reachability from w0
        ok = True
        for v in nodes:
            seen = set()
            cur = v
            while cur != LOOP_VERTEX:
                if cur in seen:
                    ok = False
                    break
                seen.add(cur)
                cur = parent[cur]
            if not ok:
                break
        if not ok:
            continue
        children = {x: 0 for x in extra}
        for v in nodes:
            if parent[v] in children:
                children[parent[v]] += 1
        if any(c == 0 for c in children.values()):
            continue
        out.add(_canonical(tuple((parent[v], v) for v in nodes), renamings))
    return sorted(out)


def _rooted_and_acyclic(v_nodes: tuple, pairs) -> bool:
    """Every vertex of `v_nodes` is reachable from w0 along the edges
    `pairs`, and no cycle avoids w0: the tests `_structural_ok` makes
    through `hereditary_closure` and `is_acyclic_among`, without a
    `Graph`.  The loop at w0 changes neither, so it may be left out."""
    succ: dict = {v: set() for v in v_nodes}
    for a, b in pairs:
        succ[a].add(b)
    seen = {LOOP_VERTEX}
    frontier = [LOOP_VERTEX]
    while frontier:
        for w in succ[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != len(v_nodes):
        return False
    left = seen - {LOOP_VERTEX}
    while left:  # peel the vertices with no successor left; a cycle never peels
        leaves = {v for v in left if not succ[v] & left}
        if not leaves:
            return False
        left -= leaves
    return True


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
    preserve the forward (acyclic) orientation."""
    if not h_nodes:
        return [()]
    slots = []
    for i, h in enumerate(h_nodes):
        for t in v_targets + h_nodes[i + 1 :]:
            slots.append((h, t))
    renamings = _renamings(h_nodes, slots, forward=True)
    out = set()
    for count in range(len(h_nodes), budget + 1):
        for combo in combinations_with_replacement(slots, count):
            srcs = {s for s, _ in combo}
            if len(srcs) != len(h_nodes):
                continue  # some h-vertex emits nothing
            out.add(_canonical(combo, renamings))
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
            v_targets = extra + SINKS
            h_parts: dict = {}  # remaining edge budget -> its h-parts
            for v_pairs in v_parts:
                rem = max_edges - len(v_pairs)
                if rem < len(h_nodes):
                    continue
                if rem not in h_parts:
                    h_parts[rem] = _h_parts(h_nodes, v_targets, rem)
                for h_pairs in h_parts[rem]:
                    cands.append(Candidate(v_nodes + h_nodes, tuple(sorted(v_pairs + h_pairs))))
    # This pass drops only exact duplicates, and construction makes none:
    # V-sourced and h-sourced edges have disjoint sources, and the V-parts
    # are distinct.  It stays because perfbench counts its
    # `canonical_encoding` calls.  Isomorphic candidates are not merged
    # here; isomorph-free generation is an open roadmap item.
    seen = set()
    uniq = []
    for c in cands:
        enc = canonical_encoding(c.graph())
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

    Each candidate's `Graph` is built for its structural check and K0
    test and dropped after them, so the sweep holds one at a time
    (the 7696 graphs at 6 vertices would take about 10 MB).  The
    candidates share one memo of reduced K0 systems (see `ktheory`), so
    each distinct reduced system is factored once per sweep; every
    verdict is still checked on the candidate's own presentation."""
    cands = enumerate_candidates(max_vertices, max_edges, wide)
    rep = Report(f"obstruction sweep ({'wide' if wide else 'default'} class, "
                 f"<= {max_vertices} vertices, <= {max_edges} edges)")
    violations = []
    memo: dict = {}  # reduced K0 system -> one of its solutions, for this sweep only
    target = {SINKS[0]: 1, SINKS[1]: 1}
    for c in cands:
        g = c.graph()
        ok, why = _structural_ok(g, wide)
        if not ok:
            raise AssertionError(f"enumerator produced out-of-class candidate: {why}: {c.pairs}")
        member, _ = k0_class_membership(g, target, memo=memo)
        if not member:
            violations.append(c)
    rep.add("candidates enumerated", True, str(len(cands)))
    rep.add(
        "[p_w1]+[p_w2] = 0 throughout" if not wide else "membership verdicts collected",
        (not violations) if not wide else True,
        f"{len(violations)} violation(s)" + (f", e.g. {violations[0].pairs}" if violations else ""),
    )
    return SweepResult(len(cands), violations, wide, rep)
