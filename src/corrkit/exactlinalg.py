"""Exact linear algebra over rationals.

Everything here works with `fractions.Fraction` and plain lists/dicts;
there is no floating point anywhere.  Sparse vectors are dicts keyed by
arbitrary hashable symbols.  `SpanSolver`, an incremental sparse row
reduction, is the one elimination routine for rational systems:
membership, `express` over generators, and the dense-matrix `solve` and
`nullspace` (which feed it the matrix columns) all go through it.
Dense helpers remain for `mat_mul`, `det` and the LDL^T test `is_psd`;
`mat_mul` keeps the entry type (integer matrices multiply in `int`s)
and `det` is Bareiss's fraction-free elimination, so on integer input
the Smith-form check builds one `Fraction` per `det`: its result.

Sparse sums have one accumulation primitive, the in-place `_axpy`;
`_table_apply` folds it over a linear or bilinear table and is the one
loop behind algebra products, inner products, module actions and
morphism maps; the term engine's sums, combinations and substitutions
go through `_axpy` too.  Both are private: they run hundreds of
thousands of times per suite, too often to wrap for tracing.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Any, Hashable, Iterable, Sequence

Vec = dict  # sparse vector: hashable key -> Fraction (zeros omitted)
_ONE = Fraction(1)  # the shared unit: `frac(1)`, and every generator's coefficient


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else _ONE if x == 1 else Fraction(x)


# ---------------------------------------------------------------- sparse vecs


def vclean(v: Vec) -> Vec:
    return {k: c for k, c in v.items() if c != 0}


def _axpy(out: dict, c, v: dict) -> None:
    """out += c * v in place.  Entries that cancel are removed and new
    keys are appended, so the key order is deterministic in the order
    of the terms.  A key already in `out` gets its sum and a new key gets
    c * x itself, so no zero `Fraction` is built to start an entry; and
    a product with the shared unit `_ONE` as a factor is the other factor
    itself, so multiplying by one builds no `Fraction` (they are
    immutable, so sharing one is safe).  Pass `c` as a `Fraction`: it is
    stored as given against a `_ONE` entry."""
    for k, x in v.items():
        cx = x if c is _ONE else c if x is _ONE else c * x
        nx = out[k] + cx if k in out else cx
        if nx:
            out[k] = nx
        else:
            out.pop(k, None)


def _table_apply(table: dict, x: Vec, y: Vec | None = None) -> Vec:
    """Sum of c * table[k] over the terms c*k of `x` (linear, every key
    must be in the table), or of c*d * table[(k, l)] over the terms of
    `x` and `y` (bilinear, a missing entry is zero).  Accumulates in
    place through `_axpy`, term pair by term pair in the order of `x`
    then `y`; the bilinear form looks each entry up before it forms
    c*d, so a pair with no entry costs no product."""
    out: Vec = {}
    if y is None:
        for k, c in x.items():
            entry = table[k]
            if c and entry:
                _axpy(out, frac(c), entry)
        return out
    for k, c in x.items():
        for l, d in y.items():
            entry = table.get((k, l))
            if entry:
                cd = c * d
                if cd:
                    _axpy(out, frac(cd), entry)
    return out


def sort_key(x: Any):
    """Total order over the mixed key types used in this package
    (strings, ints, tuples thereof, recursively)."""
    if isinstance(x, tuple):
        return (2, tuple(sort_key(y) for y in x))
    if isinstance(x, int):
        return (0, x)
    return (1, str(x))


def vec_repr(v: Vec) -> str:
    if not v:
        return "0"
    parts = []
    for k in sorted(v, key=sort_key):
        c = v[k]
        name = k if isinstance(k, str) else str(k)
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class SpanSolver:
    """Incremental exact row reduction over sparse vectors.

    Keys are discovered as vectors arrive and are assigned column
    positions in first-seen order, so behaviour is deterministic for a
    deterministic insertion sequence.  Each stored row also records the
    combination of added vectors it equals, so `express` can write a
    vector over the inputs.  The inputs that grew the span are the
    greedy independent prefix of the insertion sequence; every other
    input gets coefficient 0, which makes those coefficients unique.
    """

    def __init__(self, vectors: Iterable[Vec] = ()):  # optional bulk init
        self._cols: dict[Hashable, int] = {}
        # (row, combination over input positions); a row's pivot is its
        # least column
        self._rows: list[tuple[dict[int, Fraction], dict[int, Fraction]]] = []
        self._row_of_pivot: dict[int, int] = {}
        # encoded input per add() call; None for inputs already in the span
        self._inputs: list[dict[int, Fraction] | None] = []
        for v in vectors:
            self.add(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _encode(self, vec: Vec, register: bool) -> dict[int, Fraction] | None:
        enc: dict[int, Fraction] = {}
        for k, c in vec.items():
            c = frac(c)
            if c == 0:
                continue
            idx = self._cols.get(k)
            if idx is None:
                if not register:
                    return None  # unseen key: cannot be in the span
                idx = len(self._cols)
                self._cols[k] = idx
            enc[idx] = c
        return enc

    def _reduce(self, enc: dict[int, Fraction],
                taken: dict[int, Fraction] | None = None) -> int | None:
        """Subtract rows from `enc` in place until its least column has no
        row; return that column, or None once `enc` is zero.  `taken`,
        if given, accumulates the subtracted combination of inputs."""
        while enc:
            p = min(enc)
            row_i = self._row_of_pivot.get(p)
            if row_i is None:
                return p
            c = enc[p]
            row, comb = self._rows[row_i]
            _axpy(enc, -c, row)
            if taken is not None:
                _axpy(taken, c, comb)
        return None

    def add(self, vec: Vec) -> bool:
        """Add a vector to the span; True if the dimension grew."""
        enc = self._encode(vec, register=True)
        pos = len(self._inputs)
        self._inputs.append(None)
        orig = dict(enc)
        taken: dict[int, Fraction] = {}
        p = self._reduce(enc, taken)
        if p is None:
            return False
        c = enc[p]
        comb = {i: -v / c for i, v in taken.items()}
        comb[pos] = 1 / c
        self._row_of_pivot[p] = len(self._rows)
        self._rows.append(({j: v / c for j, v in enc.items()}, comb))
        self._inputs[pos] = orig
        return True

    def contains(self, vec: Vec) -> bool:
        enc = self._encode(vec, register=False)
        if enc is None:
            return False
        return self._reduce(enc) is None

    def express(self, vec: Vec) -> list[Fraction] | None:
        """Coefficients over the added vectors, in insertion order, whose
        combination is `vec`; None when `vec` is outside the span."""
        enc = self._encode(vec, register=False)
        if enc is None:
            return None
        want = dict(enc)
        taken: dict[int, Fraction] = {}
        if self._reduce(enc, taken) is not None:
            return None
        # verify by recombining the inputs (insurance against slips)
        got: dict[int, Fraction] = {}
        for i, c in taken.items():
            _axpy(got, c, self._inputs[i])
        if got != want:
            raise AssertionError("internal: SpanSolver.express verification failed")
        return [taken.get(i, Fraction(0)) for i in range(len(self._inputs))]


def same_span(vs: Sequence[Vec], ws: Sequence[Vec]) -> bool:
    a = SpanSolver(vs)
    b = SpanSolver(ws)
    return all(a.contains(w) for w in ws) and all(b.contains(v) for v in vs)


def solve(a: Sequence[Sequence], b: Sequence) -> list[Fraction] | None:
    """One exact solution of A x = b, or None.

    The columns of A enter a `SpanSolver` in order; variables of columns
    in the span of earlier ones (the free variables) are set to 0.
    """
    ncols = len(a[0]) if a else 0
    solver = SpanSolver({i: row[j] for i, row in enumerate(a)} for j in range(ncols))
    return solver.express(dict(enumerate(b)))


def nullspace(a: Sequence[Sequence]) -> list[list[Fraction]]:
    """Basis of the right nullspace of A, one vector per free column in
    column order: 1 on that column, 0 on the other free columns."""
    ncols = len(a[0]) if a else 0
    solver = SpanSolver()
    basis = []
    for j in range(ncols):
        col = {i: row[j] for i, row in enumerate(a)}
        if solver.add(col):
            continue
        v = [-c for c in solver.express(col)] + [Fraction(0)] * (ncols - j - 1)
        v[j] = _ONE
        basis.append(v)
    return basis


def express(target: Vec, gens: Sequence[Vec]) -> list[Fraction] | None:
    """Coefficients c with sum c_i * gens[i] == target, or None."""
    return SpanSolver(gens).express(target)


# ------------------------------------------------------------- dense matrices


def _shape(a: Sequence[Sequence]) -> str:
    """`a`'s shape for an error message: rows x columns, or the row
    lengths of a ragged matrix."""
    lens = sorted({len(row) for row in a})
    return f"{len(a)}x{lens[0] if len(lens) == 1 else lens}" if a else "0x0"


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Exact matrix product that keeps the entry type: the accumulators
    start at int 0 and the entries are multiplied as given, so `int`
    matrices give `int` entries and `Fraction` entries stay exact.
    Raises `ValueError` unless every row of `a` has one entry per row of
    `b` and the rows of `b` have one length."""
    m = len(b[0]) if b else 0
    if any(len(ai) != len(b) for ai in a) or any(len(bt) != m for bt in b):
        raise ValueError(f"mat_mul: cannot multiply a {_shape(a)} matrix by a {_shape(b)} matrix")
    out = []
    for ai in a:
        oi = [0] * m
        for c, bt in zip(ai, b):
            if c:
                for j, x in enumerate(bt):
                    if x:
                        oi[j] += c * x
        out.append(oi)
    return out


def is_psd(g: Sequence[Sequence]) -> bool:
    """Exact positive-semidefiniteness of a symmetric rational matrix.

    Pivoted LDL^T: repeatedly pick a positive diagonal entry and
    eliminate; the matrix is PSD iff whenever all diagonal entries are
    zero the remainder is the zero matrix (a PSD matrix with zero
    diagonal entry has a zero row).
    """
    n = len(g)
    m = [[frac(x) for x in row] for row in g]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    while active:
        piv = next((i for i in active if m[i][i] > 0), None)
        if piv is None:
            # all diagonal entries <= 0; need diag exactly 0 and rows 0
            for i in active:
                if m[i][i] != 0:
                    return False
                if any(m[i][j] != 0 for j in active):
                    return False
            return True
        active.remove(piv)
        d = m[piv][piv]
        for i in active:
            f = m[i][piv] / d
            if f == 0:
                continue
            for j in active:
                m[i][j] -= f * m[piv][j]
    return True


def det(a: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square matrix of `int`s and `Fraction`s.

    A row of `int`s is taken as it is; any other row is scaled to
    integers by the lcm of its denominators.  Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968) then runs on the integer matrix:
    every division by the previous pivot is exact, so no `Fraction` is
    formed until the result, the last pivot over the product of the row
    scales (a one-argument `Fraction`, with no gcd, when no row was
    scaled).  Raises `ValueError` unless every row has one entry per row.
    """
    n = len(a)
    m = []
    scale = 1
    for row in a:
        if len(row) != n:
            raise ValueError(f"det: a {_shape(a)} matrix is not square")
        if all(type(x) is int for x in row):
            m.append(list(row))
            continue
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sign, prev = 1, 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        mc = m[c]
        p = mc[c]
        for i in range(c + 1, n):
            mi = m[i]
            f = mi[c]
            for j in range(c + 1, n):
                mi[j] = (p * mi[j] - f * mc[j]) // prev
        prev = p
    return Fraction(sign * prev) if scale == 1 else Fraction(sign * prev, scale)
