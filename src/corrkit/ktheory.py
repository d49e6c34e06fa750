"""K-theory of finite graph algebras from the vertex presentation matrix.

Conventions.  For a finite graph with adjacency matrix A (rows index
source vertices), the presentation matrix is (A^t - I) with one row per
vertex and one column per regular (emitting) vertex; the identity is
restricted to the kept columns.  K0 is the cokernel, K1 the kernel, of
the induced map Z^{regular} -> Z^{vertices}, both computed through a
verified Smith normal form (`smith.invariant_factors`).
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .smith import integer_solve, invariant_factors


@dataclass(frozen=True)
class IntMatrix:
    entries: tuple  # tuple of row tuples
    row_labels: tuple
    col_labels: tuple

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


@dataclass(frozen=True)
class KTheoryResult:
    k0_free_rank: int
    k0_torsion: tuple  # invariant factors > 1
    k1_free_rank: int
    presentation: IntMatrix
    diagonal: tuple

    def k0_str(self) -> str:
        return group_str(self.k0_free_rank, self.k0_torsion)

    def k1_str(self) -> str:
        return group_str(self.k1_free_rank, ())

    def pair_str(self) -> str:
        return f"K0 = {self.k0_str()}, K1 = {self.k1_str()}"


def group_str(free_rank: int, torsion: tuple) -> str:
    parts = ["Z"] * free_rank + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def presentation_matrix(g: Graph) -> IntMatrix:
    adj = g.adjacency()
    verts = list(g.vertices)
    regular = g.regular_vertices()
    vidx = {v: i for i, v in enumerate(verts)}
    entries = []
    for v in verts:
        row = []
        for w in regular:
            a_t = adj[vidx[w]][vidx[v]]  # transpose: edges w -> v
            row.append(a_t - (1 if v == w else 0))
        entries.append(tuple(row))
    return IntMatrix(tuple(entries), tuple(verts), tuple(regular))


def k_theory(g: Graph) -> KTheoryResult:
    pres = presentation_matrix(g)
    m = pres.as_lists()
    rows = len(pres.row_labels)
    cols = len(pres.col_labels)
    if cols == 0:
        return KTheoryResult(rows, (), 0, pres, ())
    factors = invariant_factors(m)
    rk = len(factors)
    # a verified Smith diagonal has its zeros after every nonzero factor
    diag = tuple(factors) + (0,) * (min(rows, cols) - rk)
    torsion = tuple(d for d in factors if d > 1)
    return KTheoryResult(rows - rk, torsion, cols - rk, pres, diag)


def k0_class_membership(g: Graph, target: dict) -> tuple[bool, dict | None]:
    """Is sum_v target[v]*[p_v] zero in K0?

    Zero in K0 means the target vector lies in the image of the
    presentation matrix over Z.  Returns (answer, certificate); the
    certificate maps regular vertices to integer coefficients.  Both
    verdicts are certified inside `integer_solve`: a "yes" by checking
    M x = b on the returned x, a "no" by its dual witness.
    """
    pres = presentation_matrix(g)
    b = [int(target.get(v, 0)) for v in pres.row_labels]
    x = integer_solve(pres.as_lists(), b)
    if x is None:
        return False, None
    return True, {v: c for v, c in zip(pres.col_labels, x) if c != 0}
