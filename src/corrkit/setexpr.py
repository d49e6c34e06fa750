"""Vertex sets with infinite index tails, in closed form.

A `SetExpr` denotes a set of vertices of a (possibly infinite) graph.
Vertices are either named (plain strings like "w1") or indexed (pairs
`(base, i)` with `i >= 1`, like `("v", 3)`).  A set is stored as

  * `atoms`: a frozenset of individual vertices, and
  * `tails`: a frozenset of `(base, k)` pairs, each denoting the whole
    ray `{(base, j) : j >= k}`; at most one tail per base.

Canonical form: no atom `(base, j)` with `j >= k` coexists with a tail
`(base, k)` (it is absorbed), and a tail absorbs a contiguous run of
atoms directly below it.  With atoms allowed below a tail, union,
intersection and difference are all closed on this representation.

Each value has one canonical object, kept in a module-level unique
table: `atoms`, `tail`, `union_all` and the Boolean operations return
it, while the bare `SetExpr(...)` constructor stays a plain value
constructor.  The leaves `atoms(*vs)` and `tail(base, k)` look their
arguments up first, each in its own leaf table (so the argument tuple
of one can never answer for the other), and build a `SetExpr` only on
a miss; a call that raises `ValueError` stores nothing, so it raises
again on every call.  Each of `union`, `intersect`, `difference` and
`is_subset` looks its operand pair up in its own computed table before
doing the work, and stores the canonical operands with the canonical
answer (the unique and computed tables of a BDD package: Brace, Rudell
and Bryant, DAC 1990).  Both are sound because a `SetExpr` never
changes once built and its equality and hash are those of its value,
so each answer is a pure function of the two operand values; no result
depends on which of two equal objects is used.  Storing only canonical
objects keeps one object per value alive, not one per query.  The
tables live as long as the process and are small: after
`verify-sphere --n 12 --trunc 14` they hold 71 sets, at most 1357
pairs (`intersect`) and 27 `atoms` and 16 `tail` leaves, and after
`properties --cases 3000 --seed 1` 270 sets, at most 1171 pairs
(`is_subset`) and 24 and 9 leaves.
"""
from __future__ import annotations

from typing import Iterable

from .exactlinalg import sort_key

Vertex = object  # str, or tuple (base, index)


def _is_indexed(v) -> bool:
    return isinstance(v, tuple) and len(v) == 2 and isinstance(v[1], int)


class SetExpr:
    __slots__ = ("atoms", "tails", "_hash")

    def __init__(self, atoms: Iterable = (), tails: Iterable[tuple[str, int]] = ()):
        atom_set = set(atoms)
        for a in atom_set:
            if _is_indexed(a) and a[1] < 1:
                raise ValueError("vertex index must be >= 1")
        tail_map: dict[str, int] = {}
        for base, k in tails:
            if k < 1:
                raise ValueError("tail index must be >= 1")
            old = tail_map.get(base)
            tail_map[base] = k if old is None else min(old, k)
        # absorb atoms that lie inside a tail, then extend tails downward
        for base, k in list(tail_map.items()):
            atom_set = {a for a in atom_set if not (_is_indexed(a) and a[0] == base and a[1] >= k)}
            while (base, k - 1) in atom_set:
                atom_set.discard((base, k - 1))
                k -= 1
            tail_map[base] = k
        self.atoms = frozenset(atom_set)
        self.tails = frozenset(tail_map.items())
        self._hash = hash((self.atoms, self.tails))

    # ------------------------------------------------------------- structure

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, SetExpr) and self.atoms == other.atoms
                                 and self.tails == other.tails)

    def __hash__(self) -> int:
        return self._hash

    def is_empty(self) -> bool:
        return not self.atoms and not self.tails

    def is_finite(self) -> bool:
        return not self.tails

    def tail_index(self, base: str) -> int | None:
        for b, k in self.tails:
            if b == base:
                return k
        return None

    def __contains__(self, v) -> bool:
        if v in self.atoms:
            return True
        if _is_indexed(v):
            k = self.tail_index(v[0])
            return k is not None and v[1] >= k
        return False

    # ------------------------------------------------------------------- ops

    def union(self, other: "SetExpr") -> "SetExpr":
        got = _UNION.get((self, other))
        return _store(_UNION, self, other, self._union(other)) if got is None else got

    def intersect(self, other: "SetExpr") -> "SetExpr":
        got = _INTERSECT.get((self, other))
        return _store(_INTERSECT, self, other, self._intersect(other)) if got is None else got

    def difference(self, other: "SetExpr") -> "SetExpr":
        got = _DIFFERENCE.get((self, other))
        return _store(_DIFFERENCE, self, other, self._difference(other)) if got is None else got

    def is_subset(self, other: "SetExpr") -> bool:
        got = _SUBSET.get((self, other))
        return _store(_SUBSET, self, other, self._is_subset(other)) if got is None else got

    def _union(self, other: "SetExpr") -> "SetExpr":
        return SetExpr(self.atoms | other.atoms, list(self.tails) + list(other.tails))

    def _intersect(self, other: "SetExpr") -> "SetExpr":
        atoms = {a for a in self.atoms if a in other} | {a for a in other.atoms if a in self}
        tails = []
        for b, k in self.tails:
            m = other.tail_index(b)
            if m is not None:
                tails.append((b, max(k, m)))
        return SetExpr(atoms, tails)

    def _difference(self, other: "SetExpr") -> "SetExpr":
        atoms = {a for a in self.atoms if a not in other}
        tails = []
        for b, k in self.tails:
            m = other.tail_index(b)
            if m is None:
                # remove finitely many atom holes from the ray
                holes = sorted(a[1] for a in other.atoms if _is_indexed(a) and a[0] == b and a[1] >= k)
                if holes:
                    cut = holes[-1] + 1
                    atoms.update((b, j) for j in range(k, cut) if j not in holes)
                    tails.append((b, cut))
                else:
                    tails.append((b, k))
            elif m > k:
                holes = {a[1] for a in other.atoms if _is_indexed(a) and a[0] == b}
                atoms.update((b, j) for j in range(k, m) if j not in holes)
        return SetExpr(atoms, tails)

    def _is_subset(self, other: "SetExpr") -> bool:
        if any(a not in other for a in self.atoms):
            return False
        for b, k in self.tails:
            m = other.tail_index(b)
            if m is None or m > k:
                return False
        return True

    # ------------------------------------------------------------ inspection

    def truncate(self, n: int) -> frozenset:
        """Concrete vertex set keeping indexed vertices with index <= n."""
        out = {a for a in self.atoms if not _is_indexed(a) or a[1] <= n}
        for b, k in self.tails:
            out.update((b, j) for j in range(k, n + 1))
        return frozenset(out)

    def indexed_atoms(self, base: str) -> list[int]:
        return sorted(a[1] for a in self.atoms if _is_indexed(a) and a[0] == base)

    def max_index(self) -> int:
        """Largest index mentioned anywhere (atoms or tail starts); 0 if none."""
        idx = [a[1] for a in self.atoms if _is_indexed(a)]
        idx.extend(k for _, k in self.tails)
        return max(idx, default=0)

    def sort_key(self):
        return (
            tuple(sorted((sort_key(a) for a in self.atoms))),
            tuple(sorted(self.tails)),
        )

    def __repr__(self) -> str:
        parts = []
        for a in sorted(self.atoms, key=sort_key):
            parts.append(a if isinstance(a, str) else f"{a[0]}{a[1]}")
        for b, k in sorted(self.tails):
            parts.append(f"{b}>={k}")
        return "{" + ",".join(parts) + "}"


_UNIQUE: dict[SetExpr, SetExpr] = {}  # value -> its canonical object
# computed tables: (a, b) -> a op b, with a, b and a set result canonical
_UNION: dict[tuple, SetExpr] = {}
_INTERSECT: dict[tuple, SetExpr] = {}
_DIFFERENCE: dict[tuple, SetExpr] = {}
_SUBSET: dict[tuple, bool] = {}
# leaf tables: the arguments of `atoms` (the tuple of vertices) and of
# `tail` (the pair (base, k)) -> the canonical set
_ATOMS: dict[tuple, SetExpr] = {}
_TAILS: dict[tuple, SetExpr] = {}


def _intern(s: SetExpr) -> SetExpr:
    """The canonical object of the value of `s`."""
    return _UNIQUE.setdefault(s, s)


def _store(table: dict, a: SetExpr, b: SetExpr, value):
    if isinstance(value, SetExpr):
        value = _intern(value)
    table[_intern(a), _intern(b)] = value
    return value


EMPTY = _intern(SetExpr())


def atoms(*vs) -> SetExpr:
    got = _ATOMS.get(vs)
    if got is None:
        got = _ATOMS[vs] = _intern(SetExpr(vs))
    return got


def tail(base: str, k: int) -> SetExpr:
    key = (base, k)
    got = _TAILS.get(key)
    if got is None:
        got = _TAILS[key] = _intern(SetExpr((), [key]))
    return got


def union_all(exprs: Iterable[SetExpr]) -> SetExpr:
    out = EMPTY
    for e in exprs:
        out = out.union(e)
    return out
