"""Finitely presented correspondences and their morphisms.

A correspondence here is a right module over a presented commutative
algebra with an algebra-valued inner product and a left action, all
given by finite tables on a generator set.  Everything downstream is
exact linear algebra over the rationals: validation of the module
axioms (with positivity as per-atom Gram positive semidefiniteness),
rank-one operators and compact decompositions of left actions, the
kernel and Katsura ideals, the four morphism compatibility conditions,
covariant representations into term-arithmetic engines, and the
restricted direct sum of two morphisms with a common target.

Truncation guards: an infinite presentation cut at an index bound
misrepresents its boundary row (the last inner products are clipped to
zero), so ideal and compactness computations accept a set of guard
symbols; atoms whose support meets the guards are reported as deferred
instead of being judged on clipped data.  Callers re-check deferred
atoms in a deeper truncation where they are interior.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CommAlgebra, diagonal_algebra
from .exactlinalg import (SpanSolver, _axpy, _table_apply, express, frac, is_psd,
                          nullspace, same_span, solve, sort_key, vclean, vec_repr)
from .reports import Report

Vec = dict


def _tagged(u: Vec, v: Vec, tags=("X", "Y")) -> Vec:
    """The pair (u, v) as one vector over tagged keys (tag, key)."""
    out = {(tags[0], k): c for k, c in u.items()}
    out.update({(tags[1], k): c for k, c in v.items()})
    return out


def _pairs(syms):
    syms = sorted(syms, key=sort_key)
    for i, a in enumerate(syms):
        for b in syms[i:]:
            yield a, b


class Correspondence:
    """Right Hilbert module presentation with a left action.

    `inner` maps generator pairs to algebra elements (missing pairs are
    zero; the table is symmetrized since scalars are rational), `right`
    maps (generator, algebra basis symbol) to module elements, `left`
    maps (algebra basis symbol, generator) to module elements.
    """

    __slots__ = ("name", "algebra", "gens", "_inner", "_right", "_left", "_atoms")

    def __init__(self, name: str, algebra: CommAlgebra, gens, inner: dict,
                 right: dict, left: dict, validate: bool = True):
        self.name = name
        self.algebra = algebra
        self.gens = tuple(gens)
        gen_set = set(self.gens)
        basis_set = set(algebra.basis)
        self._inner = {}
        for (g, h), v in inner.items():
            if g not in gen_set or h not in gen_set:
                raise ValueError(f"{name}: inner table uses unknown generator ({g},{h})")
            v = vclean({k: frac(c) for k, c in v.items()})
            if set(v) - basis_set:
                raise ValueError(f"{name}: inner entry ({g},{h}) leaves the algebra")
            prev = self._inner.get((h, g))
            if prev is not None and prev != v:
                raise ValueError(f"{name}: inner table asymmetric at ({g},{h})")
            self._inner[(g, h)] = v
            self._inner[(h, g)] = v
        self._right = {}
        for (g, b), v in right.items():
            if g not in gen_set or b not in basis_set:
                raise ValueError(f"{name}: right table uses unknown symbol ({g},{b})")
            self._right[(g, b)] = vclean({k: frac(c) for k, c in v.items()})
        self._left = {}
        for (b, g), v in left.items():
            if g not in gen_set or b not in basis_set:
                raise ValueError(f"{name}: left table uses unknown symbol ({b},{g})")
            self._left[(b, g)] = vclean({k: frac(c) for k, c in v.items()})
        self._atoms = None
        if validate:
            rep = self.validate()
            if not rep.ok:
                raise ValueError(f"{name}: invalid correspondence\n{rep.render(True)}")

    # ------------------------------------------------------------- elements

    def gen(self, sym: str) -> Vec:
        if sym not in self.gens:
            raise KeyError(sym)
        return {sym: Fraction(1)}

    def inner_product(self, x: Vec, y: Vec) -> Vec:
        return _table_apply(self._inner, x, y)

    def right_action(self, x: Vec, a: Vec) -> Vec:
        return _table_apply(self._right, x, a)

    def left_action(self, a: Vec, x: Vec) -> Vec:
        return _table_apply(self._left, a, x)

    def atoms(self) -> list:
        """(name, element) pairs for the algebra's orthogonal atoms."""
        if self._atoms is None:
            vecs = self.algebra.orthogonal_atoms()
            self._atoms = [(vec_repr(v).replace(" ", ""), v) for v in vecs]
        return self._atoms

    # ------------------------------------------------------------ validation

    def validate(self) -> Report:
        rep = Report(f"correspondence {self.name}")
        basis = self.algebra.sorted_basis()
        gens = sorted(self.gens, key=sort_key)

        ok = True
        for g, h in _pairs(self.gens):
            if self._inner.get((g, h), {}) != self._inner.get((h, g), {}):
                ok = False
                rep.add(f"inner symmetric at ({g},{h})", False)
        rep.add("inner product symmetric", ok)

        ok = True
        for g in gens:
            for a in basis:
                for b in basis:
                    lhs = self.right_action(self.right_action(self.gen(g), {a: 1}), {b: 1})
                    rhs = self.right_action(self.gen(g), self.algebra.basis_product(a, b))
                    if lhs != rhs:
                        ok = False
                        rep.add(f"right assoc at ({g},{a},{b})", False,
                                f"{vec_repr(lhs)} != {vec_repr(rhs)}")
        rep.add("right action is a module action", ok)

        ok = True
        for g in gens:
            for h in gens:
                for b in basis:
                    lhs = self.inner_product(self.gen(g), self.right_action(self.gen(h), {b: 1}))
                    rhs = self.algebra.mul(self._inner.get((g, h), {}), {b: Fraction(1)})
                    if lhs != rhs:
                        ok = False
                        rep.add(f"compat at ({g},{h},{b})", False,
                                f"{vec_repr(lhs)} != {vec_repr(rhs)}")
        rep.add("inner product compatible with right action", ok)

        ok = True
        for a in basis:
            for b in basis:
                prod = self.algebra.basis_product(a, b)
                for g in gens:
                    lhs = self.left_action({a: 1}, self.left_action({b: 1}, self.gen(g)))
                    rhs = self.left_action(prod, self.gen(g))
                    if lhs != rhs:
                        ok = False
                        rep.add(f"left hom at ({a},{b},{g})", False)
        rep.add("left action is a homomorphism", ok)

        ok = True
        for b in basis:
            for g in gens:
                for h in gens:
                    lhs = self.inner_product(self.left_action({b: 1}, self.gen(g)), self.gen(h))
                    rhs = self.inner_product(self.gen(g), self.left_action({b: 1}, self.gen(h)))
                    if lhs != rhs:
                        ok = False
                        rep.add(f"adjointable at ({b},{g},{h})", False)
        rep.add("left action adjointable", ok)

        ok = True
        for name, atom in self.atoms():
            gram = [[self.algebra.eval_at_atom(
                self._inner.get((g, h), {}), atom) for h in gens] for g in gens]
            if not is_psd(gram):
                ok = False
                rep.add(f"Gram PSD at atom {name}", False)
        rep.add("inner product positive (per-atom Gram)", ok)
        return rep

    def __repr__(self) -> str:
        return f"Correspondence({self.name!r}, gens={len(self.gens)})"


# ------------------------------------------------------------ rank-one ops


@dataclass(frozen=True)
class FiniteRankOp:
    """Rational combination of rank-one operators z -> x<y, z>."""

    terms: tuple  # of (Fraction, x: Vec, y: Vec)

    def apply(self, corr: Correspondence, z: Vec) -> Vec:
        out: Vec = {}
        for c, x, y in self.terms:
            _axpy(out, c, corr.right_action(x, corr.inner_product(y, z)))
        return out

    def adjoint(self) -> "FiniteRankOp":
        return FiniteRankOp(tuple((c, y, x) for c, x, y in self.terms))

    def __add__(self, other: "FiniteRankOp") -> "FiniteRankOp":
        return FiniteRankOp(self.terms + other.terms)

    def render(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for c, x, y in self.terms:
            t = f"theta[{vec_repr(x)}, {vec_repr(y)}]"
            bits.append(t if c == 1 else f"({c})*{t}")
        return " + ".join(bits)


def theta(x: Vec, y: Vec, coeff=1) -> FiniteRankOp:
    return FiniteRankOp(((frac(coeff), dict(x), dict(y)),))


def ops_agree(corr: Correspondence, a: FiniteRankOp, b: FiniteRankOp) -> bool:
    return all(a.apply(corr, corr.gen(g)) == b.apply(corr, corr.gen(g))
               for g in corr.gens)


def compact_decomposition(corr: Correspondence, a):
    """Rank-one decomposition of the left action of `a`, or None.

    Solves for coefficients over generator-pair theta symbols so the
    combination matches phi(a) on every generator; tried first on a
    support-pruned candidate set, then on all pairs.  The result is
    re-verified against phi(a) on every generator before return.
    """
    if isinstance(a, str):
        a = {a: Fraction(1)}
    images = {g: corr.left_action(a, corr.gen(g)) for g in corr.gens}
    touched = sorted((g for g, img in images.items() if img), key=sort_key)
    if not touched:
        return FiniteRankOp(())

    def attempt(xs, ys):
        pairs = [(x, y) for x in xs for y in ys]
        if not pairs:
            return None
        rows = []
        rhs = []
        for z in sorted(corr.gens, key=sort_key):
            inners = {y: corr.inner_product(corr.gen(y), corr.gen(z)) for y in ys}
            cols = {}
            out_syms = set(images[z])
            for k, (x, y) in enumerate(pairs):
                col = corr.right_action(corr.gen(x), inners[y])
                if col:
                    cols[k] = col
                    out_syms |= set(col)
            for sym in sorted(out_syms, key=sort_key):
                rows.append([cols.get(k, {}).get(sym, Fraction(0))
                             for k in range(len(pairs))])
                rhs.append(images[z].get(sym, Fraction(0)))
        sol = solve(rows, rhs)
        if sol is None:
            return None
        terms = tuple((c, corr.gen(x), corr.gen(y))
                      for c, (x, y) in zip(sol, pairs) if c)
        return FiniteRankOp(terms)

    out_support = sorted(set().union(*(set(v) for v in images.values() if v)),
                         key=sort_key)
    in_support = [y for y in sorted(corr.gens, key=sort_key)
                  if any(corr.inner_product(corr.gen(y), corr.gen(z))
                         for z in touched)]
    op = attempt(out_support, in_support)
    if op is None:
        allg = sorted(corr.gens, key=sort_key)
        op = attempt(allg, allg)
    if op is None:
        return None
    for g in corr.gens:
        if op.apply(corr, corr.gen(g)) != images[g]:
            raise AssertionError("compact decomposition failed re-verification")
    return op


# ----------------------------------------------------------------- ideals


@dataclass
class IdealData:
    """Kernel and Katsura ideal of a left action, by algebra atoms.

    `deferred` holds atoms whose support meets the guard symbols: their
    verdict depends on clipped table rows and must be settled in a
    deeper truncation.  `noncompact` holds unguarded atoms with no
    rank-one decomposition (genuinely outside the ideal).
    `decompositions` maps the name of each `katsura` atom to the
    verified rank-one decomposition of its left action that put it
    there, so the covariance checks (C4) reuse it instead of solving
    again.
    """

    kernel: list
    katsura: list
    deferred: list
    noncompact: list
    decompositions: dict

    def katsura_names(self) -> set:
        return {n for n, _ in self.katsura}


def kernel_and_jx(corr: Correspondence, guards=frozenset()) -> IdealData:
    kernel = []
    katsura = []
    deferred = []
    noncompact = []
    decompositions = {}
    for name, atom in corr.atoms():
        if all(not corr.left_action(atom, corr.gen(g)) for g in corr.gens):
            kernel.append((name, atom))
        elif any(sym in guards for sym in atom):
            deferred.append((name, atom))
        elif (op := compact_decomposition(corr, atom)) is not None:
            katsura.append((name, atom))
            decompositions[name] = op
        else:
            noncompact.append((name, atom))
    return IdealData(kernel, katsura, deferred, noncompact, decompositions)


# -------------------------------------------------------------- morphisms


@dataclass
class Morphism:
    """Generator-image assignment between two correspondences."""

    src: Correspondence
    dst: Correspondence
    alg_map: dict
    mod_map: dict

    def apply_alg(self, x: Vec) -> Vec:
        return _table_apply(self.alg_map, x)

    def apply_mod(self, x: Vec) -> Vec:
        return _table_apply(self.mod_map, x)


def identity_morphism(corr: Correspondence) -> Morphism:
    return Morphism(corr, corr,
                    {b: {b: Fraction(1)} for b in corr.algebra.basis},
                    {g: {g: Fraction(1)} for g in corr.gens})


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    if inner.dst is not outer.src:
        raise ValueError("composition targets do not line up")
    return Morphism(inner.src, outer.dst,
                    {b: outer.apply_alg(v) for b, v in inner.alg_map.items()},
                    {g: outer.apply_mod(v) for g, v in inner.mod_map.items()})


def plus_map(m: Morphism, op: FiniteRankOp) -> FiniteRankOp:
    """Push a rank-one combination through the module map."""
    return FiniteRankOp(tuple((c, m.apply_mod(x), m.apply_mod(y))
                              for c, x, y in op.terms))


def check_morphism(m: Morphism, src_guards=frozenset(), dst_guards=frozenset()) -> Report:
    """The compatibility conditions for a correspondence morphism.

    Checks, in order: the algebra map is multiplicative; inner products
    are preserved (C1); the module map respects the right action; left
    actions are intertwined (C2); the Katsura ideal maps into the
    target's (C3); and covariance of compacts on the ideal (C4), by
    decomposing each source ideal atom and comparing the pushed
    operator with the target left action.  Guarded atoms are listed as
    deferred rather than judged.
    """
    rep = Report("morphism conditions")
    src, dst = m.src, m.dst
    basis = src.algebra.sorted_basis()
    gens = sorted(src.gens, key=sort_key)

    ok = True
    for a in basis:
        for b in basis:
            lhs = m.apply_alg(src.algebra.basis_product(a, b))
            rhs = dst.algebra.mul(m.alg_map[a], m.alg_map[b])
            if lhs != rhs:
                ok = False
                rep.add(f"multiplicative at ({a},{b})", False,
                        f"{vec_repr(lhs)} != {vec_repr(rhs)}")
    rep.add("algebra map multiplicative", ok)

    ok = True
    for g, h in _pairs(src.gens):
        lhs = dst.inner_product(m.mod_map[g], m.mod_map[h])
        rhs = m.apply_alg(src.inner_product(src.gen(g), src.gen(h)))
        if lhs != rhs:
            ok = False
            rep.add(f"(C1) at ({g},{h})", False, f"{vec_repr(lhs)} != {vec_repr(rhs)}")
    rep.add("(C1) inner products preserved", ok)

    ok = True
    for g in gens:
        for b in basis:
            lhs = m.apply_mod(src.right_action(src.gen(g), {b: 1}))
            rhs = dst.right_action(m.mod_map[g], m.alg_map[b])
            if lhs != rhs:
                ok = False
                rep.add(f"right action at ({g},{b})", False)
    rep.add("module map respects right action", ok)

    ok = True
    for b in basis:
        for g in gens:
            lhs = m.apply_mod(src.left_action({b: 1}, src.gen(g)))
            rhs = dst.left_action(m.alg_map[b], m.mod_map[g])
            if lhs != rhs:
                ok = False
                rep.add(f"(C2) at ({b},{g})", False,
                        f"{vec_repr(lhs)} != {vec_repr(rhs)}")
    rep.add("(C2) left actions intertwined", ok)

    src_ideals = kernel_and_jx(src, src_guards)
    dst_ideals = kernel_and_jx(dst, dst_guards)
    allowed = {n for n, _ in dst_ideals.katsura} | {n for n, _ in dst_ideals.deferred}
    ok = True
    for name, atom in src_ideals.katsura + src_ideals.deferred:
        img = m.apply_alg(atom)
        for dname, datom in dst.atoms():
            if dname in allowed:
                continue
            if dst.algebra.eval_at_atom(img, datom):
                ok = False
                rep.add(f"(C3) image of {name}", False,
                        f"meets non-ideal atom {dname}")
    rep.add("(C3) ideal maps into ideal", ok)

    ok = True
    skipped = []
    for name, atom in src_ideals.katsura:
        pushed = plus_map(m, src_ideals.decompositions[name])
        target_action = {g: dst.left_action(m.apply_alg(atom), dst.gen(g))
                         for g in dst.gens}
        for g in sorted(dst.gens, key=sort_key):
            got = pushed.apply(dst, dst.gen(g))
            if got != target_action[g]:
                ok = False
                dst_dec = compact_decomposition(dst, m.apply_alg(atom))
                detail = f"pushed {pushed.render()}"
                if dst_dec is not None:
                    detail += f" vs {dst_dec.render()}"
                detail += f"; first mismatch on {g}: {vec_repr(got)} != {vec_repr(target_action[g])}"
                rep.add(f"(C4) at {name}", False, detail)
                break
    for name, _ in src_ideals.deferred:
        skipped.append(name)
    rep.add("(C4) covariance on the ideal", ok,
            f"deferred atoms: {', '.join(skipped)}" if skipped else "")
    return rep


def check_covariant_rep(corr: Correspondence, mod_images: dict, alg_images: dict,
                        engine, guards=frozenset(), c1_defer=frozenset()) -> Report:
    """Covariant-representation conditions for images inside an engine.

    `mod_images` maps generator symbols and `alg_images` algebra basis
    symbols to engine elements; the engine provides products, adjoints
    and equality.  (C3) needs no check for a representation.  (C4) uses
    a rank-one decomposition per ideal atom: the sum of image products
    must reproduce the image of the atom.

    `c1_defer` lists generator pairs whose tabulated inner product is a
    truncation boundary row (the true value lies outside the truncated
    algebra); those instances are skipped here and the caller is
    expected to verify them against the exact value in the engine.
    """
    rep = Report(f"covariant representation of {corr.name}")
    deferred_pairs = {tuple(p) for p in c1_defer} | {(b, a) for a, b in c1_defer}
    ok = True
    skipped = []
    for g, h in _pairs(corr.gens):
        if (g, h) in deferred_pairs:
            skipped.append(f"({g},{h})")
            continue
        lhs = mod_images[g].adj() * mod_images[h]
        rhs = engine.combine(corr.inner_product(corr.gen(g), corr.gen(h)), alg_images)
        if not engine.equals(lhs, rhs):
            ok = False
            rep.add(f"(C1) at ({g},{h})", False)
    rep.add("(C1) inner products realized", ok,
            f"boundary pairs deferred: {', '.join(skipped)}" if skipped else "")

    basis = corr.algebra.sorted_basis()
    ok = True
    for a in basis:
        for b in basis:
            lhs = alg_images[a] * alg_images[b]
            rhs = engine.combine(corr.algebra.basis_product(a, b), alg_images)
            if not engine.equals(lhs, rhs):
                ok = False
                rep.add(f"algebra relations at ({a},{b})", False)
    rep.add("algebra relations realized", ok)

    ok = True
    for b in basis:
        for g in sorted(corr.gens, key=sort_key):
            lhs = alg_images[b] * mod_images[g]
            rhs = engine.combine(corr.left_action({b: 1}, corr.gen(g)), mod_images)
            if not engine.equals(lhs, rhs):
                ok = False
                rep.add(f"(C2) at ({b},{g})", False)
            lhs = mod_images[g] * alg_images[b]
            rhs = engine.combine(corr.right_action(corr.gen(g), {b: 1}), mod_images)
            if not engine.equals(lhs, rhs):
                ok = False
                rep.add(f"right action at ({g},{b})", False)
    rep.add("(C2) left actions realized (and right actions)", ok)

    ideals = kernel_and_jx(corr, guards)
    ok = True
    for name, atom in ideals.katsura:
        total = engine.zero()
        for c, x, y in ideals.decompositions[name].terms:
            total = total + c * (engine.combine(x, mod_images)
                                 * engine.combine(y, mod_images).adj())
        if not engine.equals(total, engine.combine(atom, alg_images)):
            ok = False
            rep.add(f"(C4) at {name}", False, "image sum differs from atom image")
    deferred = ", ".join(n for n, _ in ideals.deferred)
    rep.add("(C4) covariance realized", ok,
            f"deferred atoms: {deferred}" if deferred else "")
    return rep


# ----------------------------------------------------- restricted direct sum


@dataclass
class RestrictedSum:
    """The pullback correspondence of two morphisms into one target.

    `gen_table` rows are (name, x-part, y-part) module vectors spanning
    the matched pairs; `atom_table` rows are (name, a-part, b-part) for
    the orthogonal atoms of the pair algebra.
    """

    corr: Correspondence
    gen_table: list
    atom_table: list

    def gen_coords(self, x_part: Vec, y_part: Vec):
        """Express a matched pair in the pair-generator basis."""
        gens = [_tagged(vx, vy) for _, vx, vy in self.gen_table]
        return _by_name(self.gen_table, express(_tagged(x_part, y_part), gens))

    def atom_coords(self, a_part: Vec, b_part: Vec):
        """Express a matched algebra pair over the pair atoms."""
        atoms = [_tagged(va, vb, ("A", "B")) for _, va, vb in self.atom_table]
        return _by_name(self.atom_table, express(_tagged(a_part, b_part, ("A", "B")), atoms))


def _by_name(table: list, coeffs) -> Vec | None:
    """Coefficients over the rows of a (name, part, part) table as a
    vector keyed by row name; None (no expression) passes through."""
    if coeffs is None:
        return None
    return vclean({name: c for (name, _, _), c in zip(table, coeffs)})


def _part_name(vec: Vec) -> str:
    if not vec:
        return "0"
    if len(vec) == 1:
        ((sym, c),) = vec.items()
        if c == 1:
            return str(sym)
    return vec_repr(vec).replace(" ", "")


def restricted_direct_sum(mx: Morphism, my: Morphism, name: str = "pullback") -> RestrictedSum:
    """Pairs agreeing after mapping into the common target.

    The pair algebra is computed as the nullspace of the difference of
    the two algebra maps, re-expressed on its orthogonal atoms (found by
    clustering product atoms along the evaluation profile of the
    nullspace); the pair module is the nullspace of the difference of
    the two module maps.  All tables are componentwise.  The pair atoms
    and the pair generators, as tagged vectors (see `_tagged`), are each
    factored once in a `SpanSolver`, and every table entry is written
    over them by `SpanSolver.express`, which verifies its answer.  Pair
    atoms are nonzero orthogonal idempotents, so their coefficients are
    unique; an entry outside either span raises AssertionError.
    """
    if mx.dst is not my.dst:
        raise ValueError("restricted direct sum needs one common target")
    x_corr, y_corr = mx.src, my.src
    a_basis = x_corr.algebra.sorted_basis()
    b_basis = y_corr.algebra.sorted_basis()
    z_basis = mx.dst.algebra.sorted_basis()

    rows = []
    for zsym in z_basis:
        row = [frac(mx.alg_map[a].get(zsym, 0)) for a in a_basis]
        row += [-frac(my.alg_map[b].get(zsym, 0)) for b in b_basis]
        rows.append(row)
    alg_null = nullspace(rows)

    a_atoms = x_corr.atoms()
    b_atoms = y_corr.atoms()
    profiles: dict = {}
    for side, atoms, alg in (("A", a_atoms, x_corr.algebra), ("B", b_atoms, y_corr.algebra)):
        offset = 0 if side == "A" else len(a_basis)
        syms = a_basis if side == "A" else b_basis
        for aname, atom in atoms:
            prof = []
            for v in alg_null:
                vec = vclean({s: v[offset + i] for i, s in enumerate(syms)})
                prof.append(alg.eval_at_atom(vec, atom))
            prof = tuple(prof)
            if any(prof):
                profiles.setdefault(prof, []).append((side, atom))

    atom_table = []
    for prof in sorted(profiles, key=lambda p: [sort_key(str(c)) for c in p]):
        va: Vec = {}
        vb: Vec = {}
        for side, atom in profiles[prof]:
            _axpy(va if side == "A" else vb, 1, atom)
        if mx.apply_alg(va) != my.apply_alg(vb):
            raise AssertionError("pair atom escaped the pullback")
        atom_table.append((f"{_part_name(va)}|{_part_name(vb)}", va, vb))
    atom_table.sort(key=lambda row: sort_key(row[0]))
    if len({n for n, _, _ in atom_table}) != len(atom_table):
        raise AssertionError("pair atom names collide")

    x_gens = sorted(x_corr.gens, key=sort_key)
    y_gens = sorted(y_corr.gens, key=sort_key)
    z_gens = sorted(mx.dst.gens, key=sort_key)
    rows = []
    for zsym in z_gens:
        row = [frac(mx.mod_map[g].get(zsym, 0)) for g in x_gens]
        row += [-frac(my.mod_map[h].get(zsym, 0)) for h in y_gens]
        rows.append(row)
    mod_null = nullspace(rows)

    gen_table = []
    for v in mod_null:
        vx = vclean({g: v[i] for i, g in enumerate(x_gens)})
        vy = vclean({h: v[len(x_gens) + j] for j, h in enumerate(y_gens)})
        if mx.apply_mod(vx) != my.apply_mod(vy):
            raise AssertionError("pair generator escaped the pullback")
        gen_table.append([f"{_part_name(vx)}|{_part_name(vy)}", vx, vy])
    gen_table.sort(key=lambda row: sort_key(row[0]))
    if len({n for n, _, _ in gen_table}) != len(gen_table):
        raise AssertionError("pair generator names collide")

    atom_solver = SpanSolver(_tagged(va, vb, ("A", "B")) for _, va, vb in atom_table)
    gen_solver = SpanSolver(_tagged(vx, vy) for _, vx, vy in gen_table)

    def pair_alg_vec(a_part: Vec, b_part: Vec) -> Vec:
        out = _by_name(atom_table, atom_solver.express(_tagged(a_part, b_part, ("A", "B"))))
        if out is None:
            raise AssertionError("pair element escapes the pair atom span")
        return out

    def pair_mod_vec(x_part: Vec, y_part: Vec) -> Vec:
        out = _by_name(gen_table, gen_solver.express(_tagged(x_part, y_part)))
        if out is None:
            raise AssertionError("componentwise action left the pair module")
        return out

    algebra = diagonal_algebra(f"{name}.algebra", [n for n, _, _ in atom_table])
    inner = {}
    right = {}
    left = {}
    for i, (gname, vx, vy) in enumerate(gen_table):
        for hname, wx, wy in gen_table[i:]:
            val = pair_alg_vec(x_corr.inner_product(vx, wx), y_corr.inner_product(vy, wy))
            if val:
                inner[(gname, hname)] = val
        for pname, va, vb in atom_table:
            r = pair_mod_vec(x_corr.right_action(vx, va), y_corr.right_action(vy, vb))
            if r:
                right[(gname, pname)] = r
            l = pair_mod_vec(x_corr.left_action(va, vx), y_corr.left_action(vb, vy))
            if l:
                left[(pname, gname)] = l
    corr = Correspondence(name, algebra, [n for n, _, _ in gen_table], inner, right, left)
    return RestrictedSum(corr, [tuple(r) for r in gen_table], atom_table)


def check_pullback_hypotheses(mx: Morphism, my: Morphism,
                              x_guards=frozenset(), y_guards=frozenset()) -> Report:
    """The three gluing-theorem hypotheses for a pair of morphisms.

    (1) both maps surjective (as spans on generators) with matching
    kernel images, (2) every algebra atom acts compactly on its module,
    (3) the left-action kernels are complemented ideals.  Guarded atoms
    are reported as deferred in (2).
    """
    rep = Report("pullback hypotheses")
    z = mx.dst

    ok = True
    for label, m in (("first", mx), ("second", my)):
        span = SpanSolver(list(m.mod_map.values()))
        missing = [g for g in sorted(z.gens, key=sort_key)
                   if not span.contains(z.gen(g))]
        if missing:
            ok = False
            rep.add(f"(1) {label} module map surjective", False,
                    f"misses {', '.join(missing)}")
        span = SpanSolver(list(m.alg_map.values()))
        missing = [b for b in z.algebra.sorted_basis()
                   if not span.contains({b: Fraction(1)})]
        if missing:
            ok = False
            rep.add(f"(1) {label} algebra map surjective", False,
                    f"misses {', '.join(missing)}")
    ideal_x = kernel_and_jx(mx.src, x_guards)
    ideal_y = kernel_and_jx(my.src, y_guards)
    img_x = [mx.apply_alg(atom) for _, atom in ideal_x.kernel]
    img_y = [my.apply_alg(atom) for _, atom in ideal_y.kernel]
    if not same_span([v for v in img_x if v], [v for v in img_y if v]):
        ok = False
        rep.add("(1) kernel images agree", False)
    rep.add("(1) surjective with matching kernel images", ok,
            f"kernel image spans: {[vec_repr(v) for v in img_x if v] or '0'} "
            f"= {[vec_repr(v) for v in img_y if v] or '0'}")

    ok = True
    deferred = []
    for label, data in (("first", ideal_x), ("second", ideal_y)):
        deferred += [f"{label}:{n}" for n, _ in data.deferred]
        for n, _ in data.noncompact:
            ok = False
            rep.add(f"(2) {label} atom {n} compact", False)
    rep.add("(2) left actions by compacts", ok,
            f"deferred atoms: {', '.join(deferred)}" if deferred else "")

    ok = True
    details = []
    for label, corr, data in (("first", mx.src, ideal_x), ("second", my.src, ideal_y)):
        kernel_names = {n for n, _ in data.kernel}
        complement = [atom for n, atom in corr.atoms() if n not in kernel_names]
        side_ok = True
        if complement:
            side_ok, why = corr.algebra.span_is_ideal(complement)
            if not side_ok:
                ok = False
                rep.add(f"(3) {label} complement is an ideal", False, str(why))
        comp_names = ", ".join(n for n, _ in corr.atoms() if n not in kernel_names)
        details.append(f"{label}: {comp_names or 'nothing'}")
    rep.add("(3) kernels complemented", ok, "; ".join(details))
    return rep
