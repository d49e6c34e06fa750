"""K-theory of finite graph algebras from the vertex presentation matrix.

Conventions.  For a finite graph with adjacency matrix A (rows index
source vertices), the presentation matrix is (A^t - I) with one row per
vertex and one column per regular (emitting) vertex; the identity is
restricted to the kept columns.  It is read from the vertex tuple and
the successor index (`graphs.successors`, a `Graph`'s `succ`) alone:
the regular vertices are those with a listed target.  K0 is the
cokernel, K1 the kernel, of the induced map Z^{regular} ->
Z^{vertices}, both computed through a verified Smith normal form
(`smith.invariant_factors`).

Class membership (`k0_class_membership`) asks whether M x = b has an
integer solution.  A caller may pass a `guess`, a map from regular
vertices to integers, for instance the certificate of a graph it checked
before.  It is tried first, on the graph's own system read straight off
the successor index (`_satisfies`), and if it solves M x = b it is the
certificate, with no matrix built.  `obstruction.sweep` passes the
certificate of the last member on the same vertex tuple, which holds on
7686 of the 7696 graphs on 6 vertices (the narrow-class lemma in
`obstruction`).  Otherwise the verdict is `integer_solve(M, b)` on the
full system: a solution for a "yes", its dual witness behind a "no".
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .smith import integer_solve, invariant_factors


@dataclass(frozen=True, slots=True)
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
    return _presentation(g.vertices, g.succ)


def _presentation(vertices: tuple, succ: dict) -> IntMatrix:
    regular = tuple(v for v in vertices if succ[v])
    row_of = {v: i for i, v in enumerate(vertices)}
    rows = [[0] * len(regular) for _ in vertices]
    for j, w in enumerate(regular):  # column j: -1 at w, +1 per edge out of w
        rows[row_of[w]][j] = -1
        for d in succ[w]:
            rows[row_of[d]][j] += 1
    return IntMatrix(tuple(map(tuple, rows)), vertices, regular)


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


def k0_class_membership(vertices: tuple, succ: dict, target: dict, *,
                        guess: dict | None = None) -> tuple[bool, dict | None]:
    """Is sum_v target[v]*[p_v] zero in K0 of the graph on the tuple
    `vertices` with successor index `succ` (`graphs.successors`)?

    Zero in K0 means the target vector b lies in the image of the
    presentation matrix M over Z.  Returns (answer, certificate); the
    certificate maps regular vertices to integer coefficients.  Both
    verdicts are certified on the graph's own full system: a "yes" by
    M x = b, a "no" by the dual witness of `integer_solve(M, b)`.
    `ValueError` is raised, naming the key or the value, when `target`
    names a vertex that is not listed in `vertices` or maps one to a
    value that is not an `int`.

    `guess`, a map from regular vertices to integers, is tried first: if
    it satisfies M x = b, read off `succ` (`_satisfies`), it is the
    certificate, and no matrix is built.  A guess that fails, or names a
    vertex that is not a listed regular vertex, changes nothing: the
    verdict is `integer_solve(M, b)`'s, as without one.
    """
    for v, c in target.items():
        if v not in vertices:
            raise ValueError(f"target vertex {v!r} is not a listed vertex")
        if not isinstance(c, int):
            raise ValueError(f"target coefficient {c!r} of vertex {v!r} is not an integer")
    b = [target.get(v, 0) for v in vertices]
    if guess is not None and _satisfies(vertices, succ, b, guess):
        return True, {v: c for v, c in guess.items() if c != 0}
    pres = _presentation(vertices, succ)
    x = integer_solve(pres.as_lists(), b)
    if x is None:
        return False, None
    return True, {v: c for v, c in zip(pres.col_labels, x) if c != 0}


def _satisfies(vertices: tuple, succ: dict, b: list, x: dict) -> bool:
    """Does x, a map from regular vertices to integers, solve M x = b,
    with M the presentation matrix of the graph on `vertices` with
    successor index `succ` and b listed along `vertices`?  The system is
    read straight off `succ`: column w adds -x[w] at w and +x[w] at each
    edge target.  A key of x that is not a listed regular vertex makes
    the answer no."""
    r = dict.fromkeys(vertices, 0)  # (M x)[v]
    for w, c in x.items():
        ts = succ.get(w)
        if not ts or w not in r:
            return False
        r[w] -= c
        for d in ts:
            r[d] += c
    return all(r[v] == bi for v, bi in zip(vertices, b))

