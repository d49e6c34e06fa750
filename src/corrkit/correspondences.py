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
zero).  Its builder marks the `Correspondence`: `guards` are the basis
symbols whose ideal verdict depends on clipped rows, and `clipped` the
generator pairs whose inner product is clipped.  The checks read both
from the object and defer what they mark instead of judging it on
clipped data; callers re-check deferred atoms in a deeper truncation
where they are interior.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CommAlgebra, _axiom_failures, _compose, _grouped, diagonal_algebra
from .exactlinalg import (_ONE, SpanSolver, _axpy, _table_apply, express, frac, is_psd,
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
    `guards` and `clipped` (closed under swapping) mark a truncation.
    """

    __slots__ = ("name", "algebra", "gens", "guards", "clipped", "_gen_set", "_inner",
                 "_right", "_left", "_atoms", "_ideal")

    def __init__(self, name: str, algebra: CommAlgebra, gens, inner: dict,
                 right: dict, left: dict, validate: bool = True, *,
                 guards=frozenset(), clipped=frozenset()):
        self.name = name
        self.algebra = algebra
        self.gens = tuple(gens)
        self._gen_set = gen_set = frozenset(self.gens)
        if len(gen_set) != len(self.gens):
            raise ValueError(f"{name}: duplicate generators")
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
        self._right, self._left = {}, {}
        for label, given, stored, (firsts, seconds) in (
                ("right", right, self._right, (gen_set, basis_set)),
                ("left", left, self._left, (basis_set, gen_set))):
            for (p, q), v in given.items():
                if p not in firsts or q not in seconds:
                    raise ValueError(f"{name}: {label} table uses unknown symbol ({p},{q})")
                stored[(p, q)] = vclean({k: frac(c) for k, c in v.items()})
        self.guards = frozenset(guards)
        self.clipped = frozenset({(g, h) for g, h in clipped} | {(h, g) for g, h in clipped})
        if unknown := self.guards - basis_set | {s for p in self.clipped for s in p} - gen_set:
            raise ValueError(f"{name}: guards or clipped pairs use unknown symbol "
                             f"{min(unknown, key=sort_key)}")
        self._atoms = None
        self._ideal = None
        if validate:
            rep = self.validate()
            if not rep.ok:
                raise ValueError(f"{name}: invalid correspondence\n{rep.render(True)}")

    # ------------------------------------------------------------- elements

    def gen(self, sym: str) -> Vec:
        if sym not in self._gen_set:
            raise KeyError(sym)
        return {sym: _ONE}

    def inner_product(self, x: Vec, y: Vec) -> Vec:
        return _table_apply(self._inner, x, y)

    def right_action(self, x: Vec, a: Vec) -> Vec:
        return _table_apply(self._right, x, a)

    def left_action(self, a: Vec, x: Vec) -> Vec:
        return _table_apply(self._left, a, x)

    def atoms(self) -> list:
        """(name, element) pairs for the algebra's orthogonal atoms."""
        if self._atoms is None:
            self._atoms = [(_part_name(v), v) for v in self.algebra.orthogonal_atoms()]
        return self._atoms

    # ------------------------------------------------------------ validation

    def validate(self) -> Report:
        """Check the module axioms, the left action and positivity.

        Sparse, per axiom: each side of each trilinear axiom is one map
        from index triple to vector, built by walking only the stored
        table entries and nonzero basis products (a missing triple is
        zero), so the work follows the stored entries, not gens^2 x
        basis.  Mismatches are reported in nested-loop order over the
        sorted generators and basis.  Positivity is per-atom Gram PSD
        over its support: the principal submatrix of the generators
        whose Gram row is nonzero at the atom, which is PSD exactly
        when the whole (otherwise zero) matrix is.
        """
        rep = Report(f"correspondence {self.name}")
        basis = self.algebra.sorted_basis()
        products = {(a, b): p for a in basis for b in basis
                    if (p := self.algebra.basis_product(a, b))}
        prod_by_first = _grouped(products, 0)
        right_by_gen, right_by_basis = _grouped(self._right, 0), _grouped(self._right, 1)
        left_by_basis, left_by_gen = _grouped(self._left, 0), _grouped(self._left, 1)
        inner_by_row, inner_by_col = _grouped(self._inner, 0), _grouped(self._inner, 1)

        upper = {(g, h): v for (g, h), v in self._inner.items() if sort_key(g) <= sort_key(h)}
        lower = {(h, g): v for (g, h), v in self._inner.items() if sort_key(h) <= sort_key(g)}
        rep.tally("inner product symmetric",
                  _axiom_failures("inner symmetric", upper, lower, False))
        # (g a) b = g (ab)
        rep.tally("right action is a module action", _axiom_failures(
            "right assoc", _compose(self._right, right_by_gen, lambda g, a, b: (g, a, b)),
            _compose(products, right_by_basis, lambda a, b, g: (g, a, b)), True))
        # <g, h b> = <g, h> b
        rep.tally("inner product compatible with right action", _axiom_failures(
            "compat", _compose(self._right, inner_by_col, lambda h, b, g: (g, h, b)),
            _compose(self._inner, prod_by_first, lambda g, h, b: (g, h, b)), True))
        # a (b g) = (ab) g
        rep.tally("left action is a homomorphism", _axiom_failures(
            "left hom", _compose(self._left, left_by_gen, lambda b, g, a: (a, b, g)),
            _compose(products, left_by_basis, lambda a, b, g: (a, b, g)), False))
        # <b g, h> = <g, b h>
        rep.tally("left action adjointable", _axiom_failures(
            "adjointable", _compose(self._left, inner_by_row, lambda b, g, h: (b, g, h)),
            _compose(self._left, inner_by_col, lambda b, h, g: (b, g, h)), False))

        def not_psd():
            for name, atom in self.atoms():
                gram = {}
                for (g, h), v in upper.items():
                    if c := self.algebra.eval_at_atom(v, atom):
                        gram[(g, h)] = gram[(h, g)] = c
                support = sorted({g for g, _ in gram}, key=sort_key)
                if not is_psd([[gram.get((g, h), 0) for h in support] for g in support]):
                    yield f"Gram PSD at atom {name}", ""

        rep.tally("inner product positive (per-atom Gram)", not_psd())
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


def theta(x: Vec, y: Vec) -> FiniteRankOp:
    return FiniteRankOp(((_ONE, dict(x), dict(y)),))


def compact_decomposition(corr: Correspondence, a):
    """Rank-one decomposition of the left action of `a`, or None.

    Solves for coefficients over generator-pair theta symbols so the
    combination matches phi(a) on every generator; tried first on a
    support-pruned candidate set, then on all pairs.  The system is
    built from the stored inner entries: the inner table is indexed by
    its second generator, so for each generator z only the pairs (x, y)
    with a stored <y, z> are visited, and the pair columns that are zero
    on every z are dropped, the others kept in pair order (x, then y).  The solution
    is the one the full system gives, since `solve` sets free variables
    in column order and a zero column never enters the span.  The result
    is re-verified against phi(a) on every generator before return.
    """
    images = {g: corr.left_action(a, corr.gen(g)) for g in corr.gens}
    touched = sorted((g for g, img in images.items() if img), key=sort_key)
    if not touched:
        return FiniteRankOp(())
    gens = sorted(corr.gens, key=sort_key)
    inner_by_col = _grouped(corr._inner, 1)

    def attempt(xs, ys):
        y_pos = {y: j for j, y in enumerate(ys)}
        blocks = []
        used = set()
        for z in gens:
            cols = {}
            for y, v in inner_by_col.get(z, ()):
                if (j := y_pos.get(y)) is not None:
                    for i, x in enumerate(xs):
                        if col := corr.right_action(corr.gen(x), v):
                            cols[i, j] = col
            used.update(cols)
            blocks.append((cols, images[z]))
        keep = sorted(used)
        rows = []
        rhs = []
        for cols, image in blocks:
            out_syms = set(image).union(*cols.values())
            for sym in sorted(out_syms, key=sort_key):
                rows.append([cols[k].get(sym, Fraction(0)) if k in cols else Fraction(0)
                             for k in keep])
                rhs.append(image.get(sym, Fraction(0)))
        sol = solve(rows, rhs)
        if sol is None:
            return None
        terms = tuple((c, corr.gen(xs[i]), corr.gen(ys[j]))
                      for c, (i, j) in zip(sol, keep) if c)
        return FiniteRankOp(terms)

    out_support = sorted(set().union(*(set(v) for v in images.values() if v)),
                         key=sort_key)
    in_support = sorted({y for z in touched for y, _ in inner_by_col.get(z, ())},
                        key=sort_key)
    op = attempt(out_support, in_support)
    if op is None:
        op = attempt(gens, gens)
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

    `deferred` holds atoms whose support meets the correspondence's
    `guards`: their verdict depends on clipped table rows and must be
    settled in a deeper truncation.  `noncompact` holds unguarded atoms with no
    rank-one decomposition (genuinely outside the ideal).
    `decompositions` maps the name of each `katsura` atom to the
    verified rank-one decomposition of its left action that put it
    there, so the covariance checks (C4) reuse it instead of solving
    again.

    `kernel_and_jx` memoises one instance per correspondence and hands
    the same object to every caller, so it is shared: callers read it
    and never mutate it.
    """

    kernel: list
    katsura: list
    deferred: list
    noncompact: list
    decompositions: dict

    def katsura_names(self) -> set:
        return {n for n, _ in self.katsura}


def kernel_and_jx(corr: Correspondence) -> IdealData:
    """`IdealData` of `corr` against its own guards, computed once."""
    if corr._ideal is not None:
        return corr._ideal
    kernel, katsura, deferred, noncompact, decompositions = [], [], [], [], {}
    for name, atom in corr.atoms():
        if all(not corr.left_action(atom, corr.gen(g)) for g in corr.gens):
            kernel.append((name, atom))
        elif not corr.guards.isdisjoint(atom):
            deferred.append((name, atom))
        elif (op := compact_decomposition(corr, atom)) is not None:
            katsura.append((name, atom))
            decompositions[name] = op
        else:
            noncompact.append((name, atom))
    corr._ideal = IdealData(kernel, katsura, deferred, noncompact, decompositions)
    return corr._ideal


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
                    {b: {b: _ONE} for b in corr.algebra.basis},
                    {g: {g: _ONE} for g in corr.gens})


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


def check_morphism(m: Morphism) -> Report:
    """The compatibility conditions for a correspondence morphism.

    Checks, in order: the algebra map is multiplicative; inner products
    are preserved (C1); the module map respects the right action; left
    actions are intertwined (C2); the Katsura ideal maps into the
    target's (C3); and covariance of compacts on the ideal (C4), by
    decomposing each source ideal atom and comparing the pushed
    operator with the target left action.  Atoms meeting the source's
    guards are listed as deferred rather than judged.
    """
    rep = Report("morphism conditions")
    src, dst = m.src, m.dst
    basis = src.algebra.sorted_basis()
    gens = sorted(src.gens, key=sort_key)

    ab = [(a, b) for a in basis for b in basis]
    gb = [(g, b) for g in gens for b in basis]
    gh = list(_pairs(src.gens))
    rep.tally("algebra map multiplicative", _axiom_failures(
        "multiplicative", {(a, b): m.apply_alg(src.algebra.basis_product(a, b)) for a, b in ab},
        {(a, b): dst.algebra.mul(m.alg_map[a], m.alg_map[b]) for a, b in ab}, True))
    rep.tally("(C1) inner products preserved", _axiom_failures(
        "(C1)", {(g, h): dst.inner_product(m.mod_map[g], m.mod_map[h]) for g, h in gh},
        {(g, h): m.apply_alg(src.inner_product(src.gen(g), src.gen(h))) for g, h in gh}, True))
    rep.tally("module map respects right action", _axiom_failures(
        "right action",
        {(g, b): m.apply_mod(src.right_action(src.gen(g), {b: 1})) for g, b in gb},
        {(g, b): dst.right_action(m.mod_map[g], m.alg_map[b]) for g, b in gb}, False))
    rep.tally("(C2) left actions intertwined", _axiom_failures(
        "(C2)", {(b, g): m.apply_mod(src.left_action({b: 1}, src.gen(g))) for g, b in gb},
        {(b, g): dst.left_action(m.alg_map[b], m.mod_map[g]) for g, b in gb}, True))

    src_ideals = kernel_and_jx(src)
    dst_ideals = kernel_and_jx(dst)
    allowed = {n for n, _ in dst_ideals.katsura} | {n for n, _ in dst_ideals.deferred}
    images = {name: m.apply_alg(atom) for name, atom in src_ideals.katsura + src_ideals.deferred}
    rep.tally("(C3) ideal maps into ideal", (
        (f"(C3) image of {name}", f"meets non-ideal atom {dname}")
        for name, img in images.items() for dname, datom in dst.atoms()
        if dname not in allowed and dst.algebra.eval_at_atom(img, datom)))

    def noncovariant():
        for name, _ in src_ideals.katsura:
            pushed = plus_map(m, src_ideals.decompositions[name])
            for g in sorted(dst.gens, key=sort_key):
                got = pushed.apply(dst, dst.gen(g))
                if got != (want := dst.left_action(images[name], dst.gen(g))):
                    dst_dec = compact_decomposition(dst, images[name])
                    detail = f"pushed {pushed.render()}"
                    if dst_dec is not None:
                        detail += f" vs {dst_dec.render()}"
                    yield (f"(C4) at {name}",
                           f"{detail}; first mismatch on {g}: {vec_repr(got)} != {vec_repr(want)}")
                    break

    skipped = [name for name, _ in src_ideals.deferred]
    rep.tally("(C4) covariance on the ideal", noncovariant(),
              f"deferred atoms: {', '.join(skipped)}" if skipped else "")
    return rep


def check_covariant_rep(corr: Correspondence, mod_images: dict, alg_images: dict,
                        engine) -> Report:
    """Covariant-representation conditions for images inside an engine.

    `mod_images` maps generator symbols and `alg_images` algebra basis
    symbols to engine elements; the engine provides products, adjoints
    and equality.  (C3) needs no check for a representation.  (C4) uses
    a rank-one decomposition per ideal atom: the sum of image products
    must reproduce the image of the atom; atoms meeting `corr.guards`
    are listed as deferred.

    The pairs in `corr.clipped` have a truncation boundary row as their
    tabulated inner product (the true value lies outside the truncated
    algebra); those (C1) instances are skipped here and the caller is
    expected to verify them against the exact value in the engine.
    """
    rep = Report(f"covariant representation of {corr.name}")
    adjs = {g: mod_images[g].adj() for g in corr.gens}
    pairs = list(_pairs(corr.gens))
    skipped = [f"({g},{h})" for g, h in pairs if (g, h) in corr.clipped]
    rep.tally("(C1) inner products realized", engine.mismatches(
        (f"(C1) at ({g},{h})", adjs[g] * mod_images[h],
         engine.combine(corr.inner_product(corr.gen(g), corr.gen(h)), alg_images))
        for g, h in pairs if (g, h) not in corr.clipped),
        f"boundary pairs deferred: {', '.join(skipped)}" if skipped else "")

    basis = corr.algebra.sorted_basis()
    rep.tally("algebra relations realized", engine.mismatches(
        (f"algebra relations at ({a},{b})", alg_images[a] * alg_images[b],
         engine.combine(corr.algebra.basis_product(a, b), alg_images))
        for a in basis for b in basis))

    def actions():
        gens = sorted(corr.gens, key=sort_key)
        for b in basis:
            for g in gens:
                yield (f"(C2) at ({b},{g})", alg_images[b] * mod_images[g],
                       engine.combine(corr.left_action({b: 1}, corr.gen(g)), mod_images))
                yield (f"right action at ({g},{b})", mod_images[g] * alg_images[b],
                       engine.combine(corr.right_action(corr.gen(g), {b: 1}), mod_images))

    rep.tally("(C2) left actions realized (and right actions)", engine.mismatches(actions()))

    ideals = kernel_and_jx(corr)
    sums = ((f"(C4) at {name}",
             sum((c * (engine.combine(x, mod_images) * engine.combine(y, mod_images).adj())
                  for c, x, y in ideals.decompositions[name].terms), engine.zero()),
             engine.combine(atom, alg_images))
            for name, atom in ideals.katsura)
    deferred = ", ".join(n for n, _ in ideals.deferred)
    rep.tally("(C4) covariance realized",
              ((name, "image sum differs from atom image") for name, _ in engine.mismatches(sums)),
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
    """The name of an atom or a pair-table part: its `vec_repr` without
    spaces."""
    return vec_repr(vec).replace(" ", "")


def _pair_kernel(x_map: dict, y_map: dict, xs: list, ys: list, targets: list) -> list:
    """A basis of the pairs (u, v) over `xs` and `ys` with x_map(u) =
    y_map(v), as vector pairs: the nullspace of (u, v) -> x_map(u) -
    y_map(v) written over `targets`."""
    rows = [[frac(x_map[a].get(t, 0)) for a in xs] + [-frac(y_map[b].get(t, 0)) for b in ys]
            for t in targets]
    return [(vclean({a: v[i] for i, a in enumerate(xs)}),
             vclean({b: v[len(xs) + j] for j, b in enumerate(ys)})) for v in nullspace(rows)]


def _pair_rows(pairs, apply_x, apply_y, what: str) -> list:
    """(name, x-part, y-part) rows of `pairs`, sorted by name; a pair
    whose parts map apart or a repeated name raises AssertionError."""
    rows = []
    for u, v in pairs:
        if apply_x(u) != apply_y(v):
            raise AssertionError(f"{what} escaped the pullback")
        rows.append((f"{_part_name(u)}|{_part_name(v)}", u, v))
    rows.sort(key=lambda row: sort_key(row[0]))
    if len({n for n, _, _ in rows}) != len(rows):
        raise AssertionError(f"{what} names collide")
    return rows


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
    unique; an entry outside either span raises AssertionError.  A pair
    whose two parts are both zero is the zero entry and is not expressed.

    The glued guards are the pair atoms whose A-part meets the first
    source's guards or whose B-part meets the second's; the glued
    clipped pairs are those whose parts meet a clipped pair on one side.
    """
    if mx.dst is not my.dst:
        raise ValueError("restricted direct sum needs one common target")
    x_corr, y_corr = mx.src, my.src
    alg_null = _pair_kernel(mx.alg_map, my.alg_map, x_corr.algebra.sorted_basis(),
                            y_corr.algebra.sorted_basis(), mx.dst.algebra.sorted_basis())
    profiles: dict = {}
    for side, corr in enumerate((x_corr, y_corr)):
        for _, atom in corr.atoms():
            prof = tuple(corr.algebra.eval_at_atom(pair[side], atom) for pair in alg_null)
            if any(prof):
                profiles.setdefault(prof, []).append((side, atom))
    atom_pairs = []
    for prof in sorted(profiles, key=lambda p: [sort_key(str(c)) for c in p]):
        pair = ({}, {})
        for side, atom in profiles[prof]:
            _axpy(pair[side], _ONE, atom)
        atom_pairs.append(pair)
    atom_table = _pair_rows(atom_pairs, mx.apply_alg, my.apply_alg, "pair atom")
    gen_table = _pair_rows(
        _pair_kernel(mx.mod_map, my.mod_map, sorted(x_corr.gens, key=sort_key),
                     sorted(y_corr.gens, key=sort_key), sorted(mx.dst.gens, key=sort_key)),
        mx.apply_mod, my.apply_mod, "pair generator")

    def pair_express(table: list, tags: tuple, escape: str):
        """Pair (u, v) -> its coefficients over the rows of `table`."""
        solver = SpanSolver(_tagged(u, v, tags) for _, u, v in table)

        def express_pair(u: Vec, v: Vec) -> Vec:
            if not u and not v:
                return {}
            out = _by_name(table, solver.express(_tagged(u, v, tags)))
            if out is None:
                raise AssertionError(escape)
            return out
        return express_pair

    pair_alg_vec = pair_express(atom_table, ("A", "B"), "pair element escapes the pair atom span")
    pair_mod_vec = pair_express(gen_table, ("X", "Y"), "componentwise action left the pair module")

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
    guards = {pname for pname, va, vb in atom_table
              if not x_corr.guards.isdisjoint(va) or not y_corr.guards.isdisjoint(vb)}
    clipped = {(g, h) for g, gx, gy in gen_table for h, hx, hy in gen_table
               if any((a, b) in x_corr.clipped for a in gx for b in hx)
               or any((a, b) in y_corr.clipped for a in gy for b in hy)}
    corr = Correspondence(name, algebra, [n for n, _, _ in gen_table], inner, right, left,
                          guards=guards, clipped=clipped)
    return RestrictedSum(corr, gen_table, atom_table)


def check_pullback_hypotheses(mx: Morphism, my: Morphism) -> Report:
    """The three gluing-theorem hypotheses for a pair of morphisms.

    (1) both maps surjective (as spans on generators) with matching
    kernel images, (2) every algebra atom acts compactly on its module,
    (3) the left-action kernels are complemented ideals.  Atoms meeting
    a source's guards are reported as deferred in (2).
    """
    rep = Report("pullback hypotheses")
    z = mx.dst
    ideal_x = kernel_and_jx(mx.src)
    ideal_y = kernel_and_jx(my.src)
    img_x = [v for _, atom in ideal_x.kernel if (v := mx.apply_alg(atom))]
    img_y = [v for _, atom in ideal_y.kernel if (v := my.apply_alg(atom))]
    sides = (("first", mx, ideal_x), ("second", my, ideal_y))

    def unmatched():
        for label, m, _ in sides:
            span = SpanSolver(list(m.mod_map.values()))
            if missing := [g for g in sorted(z.gens, key=sort_key)
                           if not span.contains(z.gen(g))]:
                yield f"(1) {label} module map surjective", f"misses {', '.join(missing)}"
            span = SpanSolver(list(m.alg_map.values()))
            if missing := [b for b in z.algebra.sorted_basis()
                           if not span.contains({b: _ONE})]:
                yield f"(1) {label} algebra map surjective", f"misses {', '.join(missing)}"
        if not same_span(img_x, img_y):
            yield "(1) kernel images agree", ""

    rep.tally("(1) surjective with matching kernel images", unmatched(),
              f"kernel image spans: {[vec_repr(v) for v in img_x] or '0'} "
              f"= {[vec_repr(v) for v in img_y] or '0'}")

    deferred = [f"{label}:{n}" for label, _, data in sides for n, _ in data.deferred]
    rep.tally("(2) left actions by compacts",
              ((f"(2) {label} atom {n} compact", "")
               for label, _, data in sides for n, _ in data.noncompact),
              f"deferred atoms: {', '.join(deferred)}" if deferred else "")

    complements = []
    for label, m, data in sides:
        kernel_names = {n for n, _ in data.kernel}
        complements.append((label, m.src, [(n, atom) for n, atom in m.src.atoms()
                                           if n not in kernel_names]))

    def not_ideals():
        for label, corr, complement in complements:
            if complement:
                closed, why = corr.algebra.span_is_ideal([atom for _, atom in complement])
                if not closed:
                    yield f"(3) {label} complement is an ideal", str(why)

    rep.tally("(3) kernels complemented", not_ideals(), "; ".join(
        f"{label}: {', '.join(n for n, _ in complement) or 'nothing'}"
        for label, _, complement in complements))
    return rep
