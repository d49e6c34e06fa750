"""Smith normal form over the integers, certified by its callers.

`smith_normal_form(m)` returns `(u, s, v)` with `u @ m @ v == s`,
`u` and `v` unimodular, and `s` diagonal with each diagonal entry
dividing the next.  The reduction is not re-verified on every call.
`invariant_factors` (and so `ktheory.k_theory`), which reports S, first
runs `_verify`: the product in `int` `mat_mul`, determinant +-1 by the
fraction-free Bareiss `det`, and the diagonal's shape, signs and chain.
`integer_solve` checks each verdict itself: M x = b on a solution, a
dual witness row of U on a "no".  A failed check raises, never returns.
"""
from __future__ import annotations

from .exactlinalg import det, mat_mul

Matrix = list  # list of list of int


def _clone(m) -> Matrix:
    return [list(map(int, row)) for row in m]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _least(s: Matrix, rows, cols) -> tuple[int, int] | None:
    """Position of a nonzero entry of least absolute value in the block
    `rows` x `cols` of `s` (the first such in row-major order), or None
    when the block is zero."""
    best, size = None, 0
    for i in rows:
        row = s[i]
        for j in cols:
            x = abs(row[j])
            if x and (best is None or x < size):
                best, size = (i, j), x
    return best


def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalise `m` one position t at a time.  The pivot is the
    least entry of the remaining block, made positive; rows and columns
    are cleared with nearest-integer quotients, so every remainder is at
    most half the pivot, and a nonzero remainder becomes the next pivot.
    Once row and column t are clear, a block entry the pivot does not
    divide has its row added to row t, which forces a smaller pivot; so
    the pivot strictly shrinks until it divides the whole block, which
    gives the divisibility chain directly.  Starting each position from
    the least entry of the block keeps the entries of S, U and V small
    (under 100 digits on random 8 x 8 matrices with three-digit entries)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = _clone(m) if rows else []
    u = _identity(rows)
    v = _identity(cols)

    def add_row(dst, src, c):
        s[dst] = [a + c * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + c * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    for t in range(min(rows, cols)):
        pivot = _least(s, range(t, rows), range(t, cols))
        if pivot is None:
            break  # the rest of the diagonal is zero
        while pivot is not None:
            i, j = pivot
            s[t], s[i] = s[i], s[t]
            u[t], u[i] = u[i], u[t]
            for row in s + v:
                row[t], row[j] = row[j], row[t]
            if s[t][t] < 0:
                s[t] = [-a for a in s[t]]
                u[t] = [-a for a in u[t]]
            p = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    add_row(i, t, -((s[i][t] + p // 2) // p))
            for j in range(t + 1, cols):
                if s[t][j]:
                    add_col(j, t, -((s[t][j] + p // 2) // p))
            if p == 1:
                break  # exact quotients, and 1 divides everything
            pivot = _least(s, range(t + 1, rows), (t,)) or _least(s, (t,), range(t + 1, cols))
            if pivot is None:
                bad = next((i for i in range(t + 1, rows) if any(x % p for x in s[i][t + 1:])), None)
                if bad is not None:
                    add_row(t, bad, 1)
                    pivot = (t, t)
    return u, s, v


def _verify(m, u, s, v) -> None:
    rows = len(s)
    cols = len(s[0]) if rows else 0
    for i in range(rows):
        for j in range(cols):
            if i != j and s[i][j] != 0:
                raise AssertionError("SNF verification: result not diagonal")
    diag = [s[i][i] for i in range(min(rows, cols))]
    if any(d < 0 for d in diag):
        raise AssertionError("SNF verification: negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise AssertionError("SNF verification: zero before nonzero on diagonal")
        if a != 0 and b % a != 0:
            raise AssertionError("SNF verification: divisibility chain broken")
    if rows and abs(det(u)) != 1:
        raise AssertionError("SNF verification: U not unimodular")
    if cols and abs(det(v)) != 1:
        raise AssertionError("SNF verification: V not unimodular")
    if rows and cols:
        prod = mat_mul(mat_mul(u, m), v)
        for i in range(rows):
            for j in range(cols):
                if prod[i][j] != s[i][j]:
                    raise AssertionError("SNF verification: U*M*V != S")


def invariant_factors(m) -> list[int]:
    """The nonzero diagonal of the Smith form of `m`, returned only
    after `_verify` has checked the whole factorisation."""
    u, s, v = smith_normal_form(m)
    _verify(m, u, s, v)
    n = min(len(s), len(s[0]) if s else 0)
    return [s[i][i] for i in range(n) if s[i][i] != 0]


def _residue(x: int, d: int) -> int:
    return x % d if d else x  # "mod 0" leaves x as it is


def integer_solve(m, b: list[int]) -> list[int] | None:
    """One integer solution x of M x = b, or None.

    Uses U M V = S: solve S z = U b entrywise, then x = V z.  A solution
    is returned once M x = b holds.  None is returned once the first row
    i where S z = U b fails, with d = S[i][i] (0 when i >= cols), gives
    a dual witness y = U[i] / d: y M integral and y b not, which no
    integer solution allows.  Neither check trusts U, S or V.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return [0] * cols
    u, s, v = smith_normal_form(m)
    ub = [sum(u[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    z = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < cols else 0
        if _residue(ub[i], d):  # U[i] b is not 0 mod d: check U[i] M is
            if any(_residue(sum(u[i][k] * m[k][j] for k in range(rows)), d)
                   for j in range(cols)):
                raise AssertionError("internal: integer_solve non-membership certificate failed")
            return None
        if d:
            z[i] = ub[i] // d
    x = [sum(v[i][k] * z[k] for k in range(cols)) for i in range(cols)]
    for i in range(rows):
        if sum(m[i][k] * x[k] for k in range(cols)) != b[i]:
            raise AssertionError("internal: integer_solve verification failed")
    return x
