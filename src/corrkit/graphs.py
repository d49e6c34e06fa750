"""Finite directed graphs with named vertices and edges."""
from __future__ import annotations

from typing import Iterable, Sequence

from .exactlinalg import sort_key
from .reports import Report


class Graph:
    """A finite directed multigraph.

    Edges are named; parallel edges are distinct names with equal
    endpoints.  Vertex and edge order is preserved as given (used for
    deterministic matrix layouts).
    """

    __slots__ = ("vertices", "edges", "src", "dst")

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
        return [e for e in self.edges if self.src[e] == v]

    def sinks(self) -> list[str]:
        emitting = {self.src[e] for e in self.edges}
        return [v for v in self.vertices if v not in emitting]

    def regular_vertices(self) -> list[str]:
        """Vertices emitting at least one edge (all emitters are finite here)."""
        emitting = {self.src[e] for e in self.edges}
        return [v for v in self.vertices if v in emitting]

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def hereditary_closure(g: Graph, seed: Iterable[str]) -> frozenset:
    """Smallest vertex set containing `seed` and closed under following edges."""
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for e in g.edges:
            if g.src[e] == v and g.dst[e] not in seen:
                seen.add(g.dst[e])
                frontier.append(g.dst[e])
    return frozenset(seen)


def is_acyclic_among(g: Graph, verts: frozenset) -> bool:
    """No directed cycle visiting only `verts`."""
    order = [v for v in g.vertices if v in verts]
    color = {v: 0 for v in order}

    def dfs(v: str) -> bool:
        color[v] = 1
        for e in g.edges:
            if g.src[e] == v and g.dst[e] in verts:
                w = g.dst[e]
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


def from_edge_pairs(vertices: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Graph:
    edges = [(f"e{i}", s, d) for i, (s, d) in enumerate(pairs)]
    return Graph(vertices, edges)
