"""Finite directed graphs with named vertices and edges."""
from __future__ import annotations

from typing import Iterable, Sequence

from .exactlinalg import sort_key
from .reports import Report


class Graph:
    """A finite directed multigraph.

    Edges are named; parallel edges are distinct names with equal
    endpoints.  Vertex and edge order is preserved as given (used for
    deterministic matrix layouts).  `out` indexes the edges by source:
    each vertex, and each source named by an edge but not listed among
    the vertices, maps to the names of its edges in the given edge
    order, so the queries below read one vertex's edges instead of
    scanning every edge.
    """

    __slots__ = ("vertices", "edges", "src", "dst", "out")

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
        out: dict = {v: [] for v in self.vertices}
        # read from the final `src`, so a repeated edge name is listed under
        # its last source once per occurrence, as a scan of `edges` finds it
        for name in names:
            out.setdefault(src[name], []).append(name)
        self.out = out

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

    def out_edges(self, v: str) -> list[str]:
        return list(self.out.get(v, ()))

    def sinks(self) -> list[str]:
        return [v for v in self.vertices if not self.out[v]]

    def regular_vertices(self) -> list[str]:
        """Vertices emitting at least one edge (all emitters are finite here)."""
        return [v for v in self.vertices if self.out[v]]

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def hereditary_closure(g: Graph, seed: Iterable[str]) -> frozenset:
    """Smallest vertex set containing `seed` and closed under following edges."""
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        for e in g.out.get(frontier.pop(), ()):
            w = g.dst[e]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def is_acyclic_among(g: Graph, verts: frozenset) -> bool:
    """No directed cycle visiting only `verts`."""
    order = [v for v in g.vertices if v in verts]
    color = {v: 0 for v in order}

    def dfs(v: str) -> bool:
        color[v] = 1
        for e in g.out[v]:
            w = g.dst[e]
            if w in verts:
                if color[w] == 1:
                    return False
                if color[w] == 0 and not dfs(w):
                    return False
        color[v] = 2
        return True

    return all(color[v] == 2 or dfs(v) for v in order)


def canonical_encoding(g: Graph) -> tuple:
    """Isomorphism-sensitive encoding keeping vertex names (no relabeling)."""
    edges = sorted((g.src[e], g.dst[e]) for e in g.edges)
    return (tuple(sorted(g.vertices, key=sort_key)), tuple(edges))


# edge names for `from_edge_pairs`, enough for the obstruction sweep's 14 edges
_EDGE_NAMES = tuple(f"e{i}" for i in range(16))


def from_edge_pairs(vertices: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Graph:
    """A graph whose edges are `pairs`, named e0, e1, ... in order."""
    pairs = tuple(pairs)
    names = (_EDGE_NAMES if len(pairs) <= len(_EDGE_NAMES)
             else [f"e{i}" for i in range(len(pairs))])
    return Graph(vertices, [(e, s, d) for e, (s, d) in zip(names, pairs)])
