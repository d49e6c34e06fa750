"""K-theory of finite graph algebras from the vertex presentation matrix.

Conventions.  For a finite graph with adjacency matrix A (rows index
source vertices), the presentation matrix is (A^t - I) with one row per
vertex and one column per regular (emitting) vertex; the identity is
restricted to the kept columns.  K0 is the cokernel, K1 the kernel, of
the induced map Z^{regular} -> Z^{vertices}, both computed through a
verified Smith normal form (`smith.invariant_factors`).

Class membership (`k0_class_membership`) asks whether M x = b has an
integer solution.  Forced-zero lemma: if row i has b[i] = 0 and its
only nonzero entry among the remaining columns is +-1 at column j, then
x[j] = 0 in every solution, so row i and column j can both go; a zero
row with b[i] = 0 goes as well.  Repeating this until nothing changes
gives a reduced system (M', b') whose integer solutions are exactly the
restrictions of the solutions of M x = b, and a solution of (M', b')
lifted with zeros solves M x = b.  The reduced system does not depend on
the order in which rows are visited: dropping a column only makes rows
sparser, so a row that qualifies once qualifies for good, and every
order drops the same rows and columns.  In graph terms the reduction peels
away regular vertices without target weight that receive no edge from
a remaining regular vertex; on the obstruction sweep's narrow class
that is every vertex outside the hereditary closure of w0, and the
7696 graphs on 6 vertices share 20 reduced systems.  So a caller may
pass a `memo` that maps each reduced system to one of its solutions;
`obstruction.sweep` keeps one for the length of one sweep, and there is
no module-level cache.  Every verdict is still checked on the graph's
own full system: a shared solution is lifted and must satisfy M x = b,
and a "no" always comes from `integer_solve(M, b)` with its dual
witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

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
    regular = tuple(g.regular_vertices())
    row_of = {v: i for i, v in enumerate(g.vertices)}
    col_of = {w: j for j, w in enumerate(regular)}
    rows = [[0] * len(regular) for _ in g.vertices]
    for w, j in col_of.items():
        rows[row_of[w]][j] = -1
    for e in g.edges:  # every source is regular, so every edge has a column
        rows[row_of[g.dst[e]]][col_of[g.src[e]]] += 1
    return IntMatrix(tuple(map(tuple, rows)), g.vertices, regular)


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


def _forced_zero_presolve(m, b: list) -> tuple[list, list]:
    """Indices of the rows and columns of M x = b left once the
    forced-zero rows (module docstring) and their columns are dropped,
    repeated until nothing changes; both lists keep the original order.
    A row's nonzero columns are read from M once, on its first visit;
    later passes only drop the columns gone since."""
    cols = list(range(len(m[0]) if m else 0))
    support: dict = {}  # row with b[i] = 0 -> its nonzero columns still kept
    rows = list(range(len(m)))
    shrinking = True
    while shrinking:
        shrinking = False
        kept = []
        for i in rows:
            if not b[i]:
                if i in support:
                    nonzero = support[i] = [j for j in support[i] if j in cols]
                else:
                    row = m[i]
                    nonzero = support[i] = [j for j in cols if row[j]]
                if not nonzero:
                    shrinking = True
                    continue
                if len(nonzero) == 1 and m[i][nonzero[0]] in (1, -1):
                    cols.remove(nonzero[0])
                    shrinking = True
                    continue
            kept.append(i)
        rows = kept
    return rows, cols


def k0_class_membership(g: Graph, target: dict, *, memo: dict | None = None) -> tuple[bool, dict | None]:
    """Is sum_v target[v]*[p_v] zero in K0?

    Zero in K0 means the target vector b lies in the image of the
    presentation matrix M over Z.  Returns (answer, certificate); the
    certificate maps regular vertices to integer coefficients.  Both
    verdicts are certified on the graph's own full system: a "yes" by
    M x = b, a "no" by the dual witness of `integer_solve(M, b)`.

    `memo`, one dict shared by the graphs of one sweep, maps a system
    reduced by the forced-zero lemma (module docstring), as tuples, to
    one of its solutions.  A stored solution is lifted with zeros and
    must satisfy M x = b, or `AssertionError` is raised and no verdict
    given.  A graph whose reduced system is not stored is solved on its
    full system, and its solution restricted to the kept columns, which
    solves the reduced system by the lemma, is stored.  Without a memo
    the call runs the same path with an empty one.
    """
    pres = presentation_matrix(g)
    b = [int(target.get(v, 0)) for v in pres.row_labels]
    x = _shared_solve(pres, b, {} if memo is None else memo)
    if x is None:
        return False, None
    return True, {v: c for v, c in zip(pres.col_labels, x) if c != 0}


def _shared_solve(pres: IntMatrix, b: list, memo: dict) -> list | None:
    m = pres.entries
    rows, cols = _forced_zero_presolve(m, b)
    key = (tuple([tuple([m[i][j] for j in cols]) for i in rows]), tuple([b[i] for i in rows]))
    y = memo.get(key)
    if y is None:
        x = integer_solve(pres.as_lists(), b)
        if x is not None:
            memo[key] = tuple([x[j] for j in cols])
        return x
    x = [0] * len(pres.col_labels)
    for j, c in zip(cols, y):
        x[j] = c
    for row, bi in zip(m, b):
        if sum(map(mul, row, x)) != bi:
            raise AssertionError("internal: lifted K0 solution fails M x = b")
    return x
