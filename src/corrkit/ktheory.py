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
certificate, with no matrix built.  `obstruction.sweep` passes the certificate of the last
member on the same vertex tuple, which holds on 7686 of the 7696 graphs
on 6 vertices (the narrow-class lemma in `obstruction`).  A guess that
fails leaves the verdict to the path below.

Forced-zero lemma: if row i has b[i] = 0 and its only nonzero entry
among the remaining columns is +-1 at column j, then x[j] = 0 in every
solution, so row i and column j can both go; a zero row with b[i] = 0
goes as well.  Repeating this until nothing changes gives a reduced
system (M', b') whose integer solutions are exactly the restrictions of
the solutions of M x = b, and a solution of (M', b') lifted with zeros
solves M x = b.  The reduced system does not depend on the order in
which rows are visited: dropping a column only makes rows sparser, so a
row that qualifies once qualifies for good, and every order drops the
same rows and columns.  In graph terms the reduction peels away regular
vertices without target weight that receive no edge from a remaining
regular vertex; on the obstruction sweep's narrow class that is every
vertex outside the hereditary closure of w0, and the 7696 graphs on 6
vertices share 20 reduced systems.  So a caller may pass a `memo` that
maps each reduced system to one of its solutions; `obstruction.sweep`
keeps one for the length of one sweep, and there is no module-level
cache.  With the guesses above, the sweep on 6 vertices reaches the memo
10 times and factors 4 of the reduced systems.  Every verdict is still
checked on the graph's own full system: a guess, and a shared solution
lifted with zeros, must satisfy M x = b, and a "no" always comes from
`integer_solve(M, b)` with its dual witness.
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


def _forced_zero_presolve(m, b: list) -> tuple[list, list]:
    """Indices of the rows and columns of M x = b left once the
    forced-zero rows (module docstring) and their columns are dropped,
    repeated until nothing changes; both lists keep the original order.
    Each pass rescans every kept row with b[i] = 0 over the kept columns."""
    rows = list(range(len(m)))
    cols = list(range(len(m[0]) if m else 0))
    shrinking = True
    while shrinking:
        shrinking = False
        kept = []
        for i in rows:
            if not b[i]:
                row = m[i]
                nonzero = [j for j in cols if row[j]]
                if not nonzero:
                    shrinking = True
                    continue
                if len(nonzero) == 1 and row[nonzero[0]] in (1, -1):
                    cols.remove(nonzero[0])
                    shrinking = True
                    continue
            kept.append(i)
        rows = kept
    return rows, cols


def k0_class_membership(vertices: tuple, succ: dict, target: dict, *,
                        memo: dict | None = None,
                        guess: dict | None = None) -> tuple[bool, dict | None]:
    """Is sum_v target[v]*[p_v] zero in K0 of the graph on the tuple
    `vertices` with successor index `succ` (`graphs.successors`)?

    Zero in K0 means the target vector b lies in the image of the
    presentation matrix M over Z.  Returns (answer, certificate); the
    certificate maps regular vertices to integer coefficients.  Both
    verdicts are certified on the graph's own full system: a "yes" by
    M x = b, a "no" by the dual witness of `integer_solve(M, b)`.

    `guess`, a map from regular vertices to integers, is tried first: if
    it satisfies M x = b, read off `succ` (`_satisfies`), it is the
    certificate, and no matrix, presolve or memo key is built.  A guess
    that fails, or names a vertex that is not a listed regular vertex,
    changes nothing: the call goes on as without one.

    `memo`, one dict shared by the graphs of one sweep, maps a system
    reduced by the forced-zero lemma (module docstring), as tuples, to
    one of its solutions.  A stored solution is lifted with zeros and
    must satisfy M x = b, or `AssertionError` is raised and no verdict
    given.  A graph whose reduced system is not stored is solved on its
    full system, and its solution restricted to the kept columns, which
    solves the reduced system by the lemma, is stored.  Without a memo
    the call runs the same path with an empty one.
    """
    b = [int(target.get(v, 0)) for v in vertices]
    if guess is not None and _satisfies(vertices, succ, b, guess):
        return True, {v: c for v, c in guess.items() if c != 0}
    pres = _presentation(vertices, succ)
    x = _shared_solve(pres, succ, b, {} if memo is None else memo)
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


def _shared_solve(pres: IntMatrix, succ: dict, b: list, memo: dict) -> list | None:
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
    if not _satisfies(pres.row_labels, succ, b, dict(zip(pres.col_labels, x))):
        raise AssertionError("internal: lifted K0 solution fails M x = b")
    return x
