"""Finite directed graphs with named vertices and edges.

Every query reads a successor index built by `successors`:
`hereditary_closure` by a search from the seed, `topological_order` by
one Kahn peel.  The peel answers acyclicity with its certificate, the
order (None on a cycle), which a caller can check on a later graph in
one pass over its edges (`obstruction._structural_ok` does so for the
candidates on one vertex tuple, and peels again only when it fails).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice
from operator import le
from typing import Iterable, Sequence

from .exactlinalg import sort_key
from .reports import Report


class Graph:
    """A finite directed multigraph.

    Edges are named; parallel edges are distinct names with equal
    endpoints.  Vertex and edge order is preserved as given (used for
    deterministic matrix layouts).  `succ` is the successor index of
    `successors`, built from the final `src` and `dst`, so a repeated
    edge name is listed under its last source once per occurrence, as a
    scan of `edges` finds it.
    """

    __slots__ = ("vertices", "edges", "src", "dst", "succ")

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str, str]],
    ):
        self.vertices = tuple(vertices)
        names = []
        src = {}
        dst = {}
        for name, s, d in edges:
            names.append(name)
            src[name] = s
            dst[name] = d
        self.edges = tuple(names)
        self.src = src
        self.dst = dst
        self.succ = successors(self.vertices, [(src[e], dst[e]) for e in names])

    def validate(self) -> Report:
        rep = Report("graph")
        vs = set(self.vertices)
        rep.add("vertex names unique", len(vs) == len(self.vertices))
        rep.add("edge names unique", len(set(self.edges)) == len(self.edges))
        dangling = [
            e for e in self.edges if self.src[e] not in vs or self.dst[e] not in vs
        ]
        rep.add(
            "edge endpoints exist",
            not dangling,
            "" if not dangling else f"dangling: {sorted(dangling)[:5]}",
        )
        return rep

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def successors(vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> dict:
    """The successor index of the graph on `vertices` whose edges are the
    (src, dst) `pairs`: each vertex, and each source named by a pair but
    not listed among the vertices, maps to the targets of its edges in
    the given order, one entry per edge.  Every query below reads it."""
    succ: dict = {v: [] for v in vertices}
    for s, d in pairs:
        succ.setdefault(s, []).append(d)
    return succ


def hereditary_closure(succ: dict, seed: Iterable[str]) -> frozenset:
    """Smallest vertex set containing `seed` and closed under following
    the edges of the successor index `succ`."""
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        for w in succ.get(frontier.pop(), ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def topological_order(succ: dict, verts: frozenset) -> list | None:
    """The keys of the successor index `succ` that lie in `verts`, in the
    order Kahn's peel takes them, or None when a directed cycle visits
    only `verts`.  Every edge among the listed vertices goes forward in
    the order, so it certifies acyclicity: a caller may keep it and check
    it against another graph edge by edge instead of peeling again.

    The peel removes the vertices of `verts` that no remaining edge
    enters; a vertex on a cycle is never peeled.  Only a vertex that
    emits an edge can lie on a cycle, so the keys of `succ` are the
    candidates.  It keeps no call stack, so depth is no limit."""
    indeg = {v: 0 for v in succ if v in verts}
    for v in indeg:
        for w in succ[v]:
            if w in indeg:
                indeg[w] += 1
    ready = [v for v, k in indeg.items() if not k]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in succ[v]:
            if w in indeg:
                indeg[w] -= 1
                if not indeg[w]:
                    ready.append(w)
    return order if len(order) == len(indeg) else None


def canonical_encoding(vertices: Iterable[str], pairs: Iterable[tuple[str, str]]) -> tuple:
    """Encoding of the graph on `vertices` whose edges are the (src, dst)
    `pairs`: equal exactly when the vertex sets and the edge multisets
    are, keeping vertex names (no relabeling) and ignoring edge names.
    A `pairs` tuple that is already sorted is returned as it is, and each
    distinct vertex tuple is sorted once."""
    if not (isinstance(pairs, tuple) and all(map(le, pairs, islice(pairs, 1, None)))):
        pairs = tuple(sorted(pairs))
    return (_sorted_vertices(tuple(vertices)), pairs)


@lru_cache(maxsize=256)
def _sorted_vertices(vertices: tuple) -> tuple:
    return tuple(sorted(vertices, key=sort_key))
