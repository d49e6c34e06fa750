"""Finitely presented commutative *-algebras over the rationals.

An algebra here is a finite linear basis of self-adjoint idempotent
symbols together with a multiplication table whose entries are rational
combinations of basis symbols.  This is exactly what is needed for the
coefficient algebras of the correspondences in this package: spans of
mutually commuting projections.

Elements are sparse dicts mapping basis symbols to `Fraction`s; the
zero element is the empty dict.  The presentation is validated eagerly
on construction (symmetry, idempotents, associativity), so downstream
code can trust the table.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .exactlinalg import (_ONE, SpanSolver, Vec, _axpy, _table_apply, frac, sort_key,
                          vclean, vec_repr)
from .reports import Report


class PresentationError(ValueError):
    """Raised when a presented structure fails eager validation."""


def _grouped(table: dict, i: int) -> dict:
    """The nonzero entries of a pair-keyed table grouped by component
    `i` of their key: symbol -> [(other component, entry)]."""
    out = {}
    for key, v in table.items():
        if v:
            out.setdefault(key[i], []).append((key[1 - i], v))
    return out


def _compose(table: dict, index: dict, key) -> dict:
    """One side of a trilinear axiom as {index triple: vector}: for each
    stored entry ((p, q), v) of `table`, each term x*k of v and each
    entry (r, w) of `index[k]`, add x*w at key(p, q, r)."""
    out = {}
    for (p, q), v in table.items():
        for k, x in v.items():
            for r, w in index.get(k, ()):
                _axpy(out.setdefault(key(p, q, r), {}), x, w)
    return out


def _axiom_failures(label: str, lhs: dict, rhs: dict, detail: bool):
    """One failure per index where the two sides differ (a missing index
    is the zero vector), in the order of nested loops over sorted
    symbols."""
    bad = [k for k in lhs.keys() | rhs.keys() if lhs.get(k, {}) != rhs.get(k, {})]
    for k in sorted(bad, key=lambda k: tuple(map(sort_key, k))):
        yield (f"{label} at ({','.join(map(str, k))})",
               f"{vec_repr(lhs.get(k, {}))} != {vec_repr(rhs.get(k, {}))}" if detail else "")


class CommAlgebra:
    """Commutative algebra spanned by named idempotents.

    `table` maps ordered basis pairs to product vectors; omitted pairs
    multiply to zero.  Both orders of a pair must agree, an explicit
    zero included (or only one may be given, the other is filled in by
    symmetry).
    """

    __slots__ = ("name", "basis", "_table", "_basis_set")

    def __init__(
        self,
        name: str,
        basis: Sequence[str],
        table: Mapping[tuple[str, str], Mapping[str, object]],
    ):
        self.name = name
        self.basis = tuple(basis)
        self._basis_set = frozenset(self.basis)
        if len(self._basis_set) != len(self.basis):
            raise PresentationError(f"{name}: duplicate basis symbols")
        given: dict[tuple[str, str], Vec] = {}
        for (l, r), out in table.items():
            if l not in self._basis_set or r not in self._basis_set:
                raise PresentationError(f"{name}: table entry ({l},{r}) uses unknown symbols")
            v = vclean({k: frac(c) for k, c in out.items()})
            for k in v:
                if k not in self._basis_set:
                    raise PresentationError(f"{name}: product ({l},{r}) leaves the span ({k})")
            # an explicit zero is compared with its mirror like any entry
            if (r, l) in given and given[(r, l)] != v:
                raise PresentationError(f"{name}: table not symmetric at ({r},{l})")
            given[(l, r)] = v
        tab = {pair: v for pair, v in given.items() if v}
        for (l, r) in list(tab):
            tab.setdefault((r, l), tab[(l, r)])
        self._table = tab
        rep = self.validate()
        if not rep.ok:
            raise PresentationError(f"{name}: " + "; ".join(c.line() for c in rep.failures()))

    # -------------------------------------------------------------- elements

    def element(self, sym: str) -> Vec:
        if sym not in self._basis_set:
            raise KeyError(f"{self.name}: unknown basis symbol {sym!r}")
        return {sym: _ONE}

    def mul(self, x: Vec, y: Vec) -> Vec:
        return _table_apply(self._table, x, y)

    def basis_product(self, a: str, b: str) -> Vec:
        return dict(self._table.get((a, b), {}))

    # ------------------------------------------------------------ validation

    def validate(self) -> Report:
        """Idempotent basis symbols and associativity, read off the stored
        products: each side of (ab)c = a(bc) is built by `_compose`, so the
        work follows the nonzero products, not basis^3."""
        rep = Report(f"algebra {self.name}")
        tab = self._table
        rep.tally("idempotent basis",
                  (("idempotent basis", f"{a}*{a} = {vec_repr(tab.get((a, a), {}))}")
                   for a in self.basis if tab.get((a, a), {}) != {a: _ONE}))
        rep.tally("associativity", _axiom_failures(
            "associativity", _compose(tab, _grouped(tab, 0), lambda a, b, c: (a, b, c)),
            _compose(tab, _grouped(tab, 1), lambda b, c, a: (a, b, c)), True))
        return rep

    # ---------------------------------------------------------- struct tools

    def is_idempotent(self, x: Vec) -> bool:
        return self.mul(x, x) == vclean(x)

    def span_is_ideal(self, gens: Sequence[Vec]) -> tuple[bool, str]:
        """Is span(gens) closed under multiplication by every basis symbol?"""
        span = SpanSolver(gens)
        for g in gens:
            for b in self.basis:
                prod = self.mul(g, self.element(b))
                if not span.contains(prod):
                    return False, f"{vec_repr(g)} * {b} = {vec_repr(prod)} leaves the span"
        return True, ""

    def orthogonal_atoms(self) -> list[Vec]:
        """Decompose the basis into pairwise orthogonal idempotents.

        Basis symbols are partially ordered by b' <= b iff b*b' = b'.
        Minimal symbols are kept as they are; every non-minimal symbol
        contributes its residual (itself minus the minimal symbols under
        it).  The result is verified to be pairwise orthogonal,
        idempotent and to span the algebra; presentations where this
        recipe fails (deeper nesting than the coefficient algebras used
        here) are rejected.
        """
        leq: dict[str, set[str]] = {b: set() for b in self.basis}
        for b in self.basis:
            for c in self.basis:
                if c != b and self._table.get((b, c), {}) == {c: _ONE}:
                    leq[b].add(c)  # c <= b
        minimal = [b for b in self.basis if not leq[b]]
        atoms: list[Vec] = [self.element(b) for b in minimal]
        for b in self.basis:
            if b in minimal:
                continue
            residual: Vec = self.element(b)
            for c in leq[b]:
                if c not in minimal:
                    raise PresentationError(
                        f"{self.name}: orthogonal atoms need depth <= 2 (symbol {b} sits over {c})"
                    )
                _axpy(residual, -_ONE, self.element(c))
            if residual:
                atoms.append(residual)
        # verification
        for i, x in enumerate(atoms):
            if not self.is_idempotent(x):
                raise PresentationError(f"{self.name}: atom {vec_repr(x)} is not idempotent")
            for y in atoms[i + 1 :]:
                if self.mul(x, y):
                    raise PresentationError(
                        f"{self.name}: atoms {vec_repr(x)} and {vec_repr(y)} are not orthogonal"
                    )
        span = SpanSolver(atoms)
        for b in self.basis:
            if not span.contains(self.element(b)):
                raise PresentationError(f"{self.name}: atoms do not span {b}")
        if span.dim != len(self.basis):
            raise PresentationError(f"{self.name}: atom count mismatch")
        return atoms

    def eval_at_atom(self, x: Vec, atom: Vec) -> Fraction:
        """Scalar c with x*atom = c*atom (atoms are minimal idempotents)."""
        prod = self.mul(x, atom)
        ratio = self._ratio(prod, atom)
        if ratio is None:
            raise ValueError("element does not act as a scalar on the atom")
        return ratio

    @staticmethod
    def _ratio(prod: Vec, atom: Vec) -> Fraction | None:
        ks = set(prod) | set(atom)
        ratio: Fraction | None = None
        for k in ks:
            p, a = prod.get(k, Fraction(0)), atom.get(k, Fraction(0))
            if a == 0:
                if p != 0:
                    return None
                continue
            r = p / a
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
        return ratio if ratio is not None else Fraction(0)

    def sorted_basis(self) -> list[str]:
        return sorted(self.basis, key=sort_key)

    def __repr__(self) -> str:
        return f"CommAlgebra({self.name!r}, dim={len(self.basis)})"


def diagonal_algebra(name: str, basis: Iterable[str]) -> CommAlgebra:
    """Algebra of pairwise orthogonal projections (the common case)."""
    basis = list(basis)
    table = {(b, b): {b: 1} for b in basis}
    return CommAlgebra(name, basis, table)
