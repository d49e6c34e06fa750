"""Independent oracles the test suite compares library results against.

Each oracle recomputes a quantity by a different route than the library
code under test: invariant factors through minor gcds instead of
elimination, labelled-space arithmetic through a naive edge-walking
calculator over frozensets instead of closed-form set expressions,
correspondence validation and the morphism table checks through dense
loops over every generator and basis index instead of sparse walks over
the stored table entries or one comparison of two index maps,
compact decompositions through a dense system over every generator pair
instead of one built from the stored inner entries, engine products reduced pair by pair instead of through the engine's
memo of term-pair products, `Engine.combine` as a fold of filtered sums
instead of one dict that deletes cancelled terms in place, sparse table
sums through a dense loop over every key pair instead of the in-place
accumulation of `_table_apply`, the wide class's V-parts through a
`Graph` per edge multiset instead of tests on the pairs alone, the
glued module's labelled-space images by recognising each pair row's
generator names instead of extending generator images linearly, graph
queries by scanning every edge instead of reading the out-edge index,
the forced-zero presolve on dense rows instead of each row's support
listed once, the sweep's canonical edge tuples by renaming every pair
of every multiset under every permutation instead of through images
built once per call, and a handful of presentation matrices frozen from
hand reduction.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice, permutations
from math import gcd

from corrkit.correspondences import FiniteRankOp
from corrkit.engine import Element, Engine
from corrkit.exactlinalg import is_psd, solve, sort_key, vec_repr
from corrkit.graphs import Graph
from corrkit.labelled import (label_set, relative_range, sink_set,
                              truncate_space)
from corrkit.obstruction import LOOP_VERTEX, SINKS, Candidate, _canonical, _renamings
from corrkit.reports import Report
from corrkit.setexpr import SetExpr, atoms as atom_set, tail

ONE = Fraction(1)


# ------------------------------------------------------------ Smith oracle

def int_det(m: list) -> int:
    """Exact integer determinant by cofactor expansion (small matrices)."""
    k = len(m)
    if k == 0:
        return 1
    if k == 1:
        return m[0][0]
    total = 0
    for j, c in enumerate(m[0]):
        if not c:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * c * int_det(minor)
    return total


def minor_gcd_invariant_factors(m: list) -> list:
    """Invariant factors as quotients of minor gcds: d_k is the gcd of
    all k x k minors and the k-th factor is d_k / d_{k-1}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    out: list = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                sub = [[m[r][c] for c in cs] for r in rs]
                g = gcd(g, abs(int_det(sub)))
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# Presentation matrices (transposed adjacency minus restricted identity,
# rows over all vertices, columns over emitting vertices) reduced by hand.
#
# disc n=1: v1 emits e11 (loop) and e12 to the sink v2.  Column v1 is
# (1,1) minus the identity at (v1,v1): rows (0),(1).  One unit pivot.
# disc n=2: v1 emits to v1,v2,v3 and v2 emits to v2,v3; subtracting the
# identity on the kept columns leaves rows (0,0),(1,0),(1,1): two pivots.
# loop / sphere n=1: the single loop gives the 1x1 zero matrix.
# sphere n=2: v1 emits to v1,v2 and v2 loops; rows (0,0),(1,0): one
# pivot and one zero diagonal entry.
HAND_SMITH = {
    "disc n=1": {
        "rows": ["v1", "v2"], "cols": ["v1"],
        "matrix": [[0], [1]], "diagonal": [1], "pair": "K0 = Z, K1 = 0",
    },
    "disc n=2": {
        "rows": ["v1", "v2", "v3"], "cols": ["v1", "v2"],
        "matrix": [[0, 0], [1, 0], [1, 1]], "diagonal": [1, 1],
        "pair": "K0 = Z, K1 = 0",
    },
    "loop": {
        "rows": ["v1"], "cols": ["v1"],
        "matrix": [[0]], "diagonal": [0], "pair": "K0 = Z, K1 = Z",
    },
    "sphere n=1": {
        "rows": ["v1"], "cols": ["v1"],
        "matrix": [[0]], "diagonal": [0], "pair": "K0 = Z, K1 = Z",
    },
    "sphere n=2": {
        "rows": ["v1", "v2"], "cols": ["v1", "v2"],
        "matrix": [[0, 0], [1, 0]], "diagonal": [1, 0], "pair": "K0 = Z, K1 = Z",
    },
}


# ------------------------------------------------ dense correspondence check

def dense_validate_records(corr) -> list:
    """(name, ok, detail) records of `Correspondence.validate`, computed
    by the dense loops: every axiom at every index triple of sorted
    generators and basis symbols, and the full Gram matrix per atom."""
    rep = Report(f"correspondence {corr.name}")
    alg = corr.algebra
    basis = alg.sorted_basis()
    gens = sorted(corr.gens, key=sort_key)
    inner = corr._inner

    def gen(g):
        return {g: ONE}

    ok = True
    for i, g in enumerate(gens):
        for h in gens[i:]:
            if inner.get((g, h), {}) != inner.get((h, g), {}):
                ok = False
                rep.add(f"inner symmetric at ({g},{h})", False)
    rep.add("inner product symmetric", ok)

    ok = True
    for g in gens:
        for a in basis:
            for b in basis:
                lhs = corr.right_action(corr.right_action(gen(g), {a: 1}), {b: 1})
                rhs = corr.right_action(gen(g), alg.basis_product(a, b))
                if lhs != rhs:
                    ok = False
                    rep.add(f"right assoc at ({g},{a},{b})", False,
                            f"{vec_repr(lhs)} != {vec_repr(rhs)}")
    rep.add("right action is a module action", ok)

    ok = True
    for g in gens:
        for h in gens:
            for b in basis:
                lhs = corr.inner_product(gen(g), corr.right_action(gen(h), {b: 1}))
                rhs = alg.mul(inner.get((g, h), {}), {b: ONE})
                if lhs != rhs:
                    ok = False
                    rep.add(f"compat at ({g},{h},{b})", False,
                            f"{vec_repr(lhs)} != {vec_repr(rhs)}")
    rep.add("inner product compatible with right action", ok)

    ok = True
    for a in basis:
        for b in basis:
            prod = alg.basis_product(a, b)
            for g in gens:
                lhs = corr.left_action({a: 1}, corr.left_action({b: 1}, gen(g)))
                rhs = corr.left_action(prod, gen(g))
                if lhs != rhs:
                    ok = False
                    rep.add(f"left hom at ({a},{b},{g})", False)
    rep.add("left action is a homomorphism", ok)

    ok = True
    for b in basis:
        for g in gens:
            for h in gens:
                lhs = corr.inner_product(corr.left_action({b: 1}, gen(g)), gen(h))
                rhs = corr.inner_product(gen(g), corr.left_action({b: 1}, gen(h)))
                if lhs != rhs:
                    ok = False
                    rep.add(f"adjointable at ({b},{g},{h})", False)
    rep.add("left action adjointable", ok)

    ok = True
    for name, atom in corr.atoms():
        gram = [[alg.eval_at_atom(inner.get((g, h), {}), atom) for h in gens]
                for g in gens]
        if not is_psd(gram):
            ok = False
            rep.add(f"Gram PSD at atom {name}", False)
    rep.add("inner product positive (per-atom Gram)", ok)
    return [(c.name, c.ok, c.detail) for c in rep.checks]


def dense_morphism_records(m) -> list:
    """(name, ok, detail) records of the four table checks that open
    `check_morphism` (multiplicative, (C1), right action, (C2)), computed
    by nested loops over the sorted basis and generators, comparing and
    reporting each index as it is reached."""
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
    for i, g in enumerate(gens):
        for h in gens[i:]:
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
    return [(c.name, c.ok, c.detail) for c in rep.checks]


# ------------------------------------------------ dense compact decomposition

def dense_compact_decomposition(corr, a):
    """Rank-one decomposition of the left action of `a`, or None.

    Solves for coefficients over generator-pair theta symbols so the
    combination matches phi(a) on every generator; tried first on a
    support-pruned candidate set, then on all pairs.  The result is
    re-verified against phi(a) on every generator before return.
    """
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


# ------------------------------------------------------ dense table sums

def dense_table_apply(table: dict, x: dict, y: dict | None = None) -> dict:
    """`_table_apply` by the dense loop: every key of `x` (linear) or
    every key pair of `x` and `y` (bilinear, a missing entry read as the
    empty vector), every coefficient including zeros, every sum started
    from `Fraction(0)`, and the zeros filtered out only at the end."""
    if y is None:
        scaled = [(Fraction(c), table[k]) for k, c in x.items()]
    else:
        scaled = [(Fraction(c) * Fraction(d), table.get((k, l), {}))
                  for k, c in x.items() for l, d in y.items()]
    out: dict = {}
    for c, entry in scaled:
        for key, v in entry.items():
            out[key] = out.get(key, Fraction(0)) + c * v
    return {key: v for key, v in out.items() if v}


# ------------------------------------------------- naive labelled calculator

def _vadd(x: dict, y: dict) -> dict:
    out = dict(x)
    for t, c in y.items():
        out[t] = out.get(t, Fraction(0)) + c
    return {t: c for t, c in out.items() if c}


def _vscale(c, x: dict) -> dict:
    c = Fraction(c)
    return {t: c * d for t, d in x.items() if c * d}


def recombine_pair(table, coeffs: dict) -> tuple:
    """The pair sum of c * (u, v) over the rows (name, u, v) of a pair
    table, with c = coeffs[name] (absent names count as zero)."""
    left: dict = {}
    right: dict = {}
    for name, u, v in table:
        c = coeffs.get(name, 0)
        left = _vadd(left, _vscale(c, u))
        right = _vadd(right, _vscale(c, v))
    return left, right


class NaiveCalc:
    """Normal-term arithmetic on a finite concrete labelled graph.

    Terms are (alpha, frozenset, beta) with label words as tuples, and
    elements are term -> Fraction dicts.  Ranges are computed by raw
    iteration over the edge list and the product follows the prefix case
    analysis directly, so nothing here shares code with the engine.
    """

    def __init__(self, graph):
        if not graph.is_concrete():
            raise ValueError("naive calculator needs a concrete graph")
        self.vertices = frozenset(graph.named_vertices)
        self.edges = [(e.name, e.src, e.dst, e.label) for e in graph.edges]
        self.labels = sorted({lab for _, _, _, lab in self.edges}, key=repr)
        emitting = {src for _, src, _, _ in self.edges}
        self.sinks = frozenset(v for v in self.vertices if v not in emitting)

    def rng(self, s: frozenset, label) -> frozenset:
        return frozenset(d for _, src, d, lab in self.edges
                         if lab == label and src in s)

    def label_range(self, label) -> frozenset:
        return self.rng(self.vertices, label)

    def walk(self, s: frozenset, word: tuple) -> frozenset:
        for a in word:
            s = self.rng(s, a)
        return s

    def word_range(self, word: tuple) -> frozenset:
        return self.walk(self.vertices, word)

    def term(self, alpha, s, beta):
        s = frozenset(s) & self.word_range(tuple(alpha)) & self.word_range(tuple(beta))
        if not s:
            return None
        return (tuple(alpha), s, tuple(beta))

    def element(self, alpha=(), s=None, beta=()) -> dict:
        t = self.term(alpha, self.vertices if s is None else s, beta)
        return {} if t is None else {t: ONE}

    def p(self, s) -> dict:
        return self.element((), s, ())

    def iso(self, label) -> dict:
        return self.element((label,), self.label_range(label), ())

    @staticmethod
    def adj(x: dict) -> dict:
        return {(b, s, a): c for (a, s, b), c in x.items()}

    def mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (a, s, b), c in x.items():
            for (g, t, d), e in y.items():
                if len(g) >= len(b) and g[:len(b)] == b:
                    rest = g[len(b):]
                    nt = self.term(a + rest, self.walk(s, rest) & t, d)
                elif b[:len(g)] == g:
                    rest = b[len(g):]
                    nt = self.term(a, s & self.walk(t, rest), d + rest)
                else:
                    nt = None
                if nt is not None:
                    out[nt] = out.get(nt, Fraction(0)) + c * e
        return {t: c for t, c in out.items() if c}

    def mul_many(self, factors) -> dict:
        out = None
        for f in factors:
            out = f if out is None else self.mul(out, f)
        return {} if out is None else out


def naive_closure(calc: NaiveCalc, given) -> set:
    """Seed sets, full label ranges and sink singletons, closed under
    pairwise intersection and ranges.  Mirrors the family construction
    by brute force over frozensets."""
    sets: list = []

    def admit(s: frozenset) -> None:
        if s and s not in sets:
            sets.append(s)

    for s in given:
        admit(frozenset(s))
    for lab in calc.labels:
        admit(calc.label_range(lab))
    for v in sorted(calc.sinks, key=repr):
        admit(frozenset({v}))
    cursor = 0
    while cursor < len(sets):
        s = sets[cursor]
        cursor += 1
        for t in list(sets[:cursor]):
            admit(s & t)
        for lab in calc.labels:
            admit(calc.rng(s, lab))
    return set(sets)


# ------------------------------------------------------- engine products

def reference_mul(engine: Engine, x: Element, y: Element) -> Element:
    """The product x * y reduced pair by pair, with no memo: every term
    pair goes through the prefix test, the relative ranges and the
    intersections afresh, as `Engine._mul` did before it kept one."""
    out: dict = {}
    for (a, s, b), c in x.terms.items():
        for (g, u, d), e in y.terms.items():
            if len(g) >= len(b) and g[: len(b)] == b:
                gp = g[len(b):]
                t = engine._term(a + gp, engine.set_range(s, gp).intersect(u), d)
            elif b[: len(g)] == g:
                bp = b[len(g):]
                t = engine._term(a, s.intersect(engine.set_range(u, bp)), d + bp)
            else:
                t = None
            if t is not None:
                out[t] = out.get(t, Fraction(0)) + c * e
    return Element(engine, out)


def fold_combine(engine: Engine, vec: dict, images: dict) -> Element:
    """`Engine.combine` as it was: a fold of `out + c * images[sym]`,
    with that `+` and scalar product spelled out on dicts: each step
    scales one image, filters its zeros, merges it into a copy of the
    running sum and filters again, so a term that cancels leaves and a
    term that comes back later goes to the end."""
    out: dict = {}
    for sym, c in vec.items():
        f = Fraction(c)
        scaled = {t: e * f for t, e in images[sym].terms.items() if e * f}
        merged = dict(out)
        for t, e in scaled.items():
            merged[t] = merged[t] + e if t in merged else e
        out = {t: e for t, e in merged.items() if e}
    return Element(engine, out)


# ----------------------------------------------- glued images by row name

def _single(vec) -> str | None:
    """The symbol of a one-term coefficient-one vector, else None."""
    if len(vec) == 1:
        (sym, c), = vec.items()
        if c == 1:
            return sym
    return None


def _ij(sym: str) -> tuple[int, int]:
    parts = sym.split("_")
    return int(parts[-2]), int(parts[-1])


def row_name_sum_images(cfg, rsum, eng: Engine):
    """`spheres.rho_sum_images` as it was: each computed pair row is
    recognised by the names of its generators and sent to its image
    directly, and a row of unknown shape raises ValueError.  Returns
    (module images, algebra images), keyed by row name."""
    n, N = cfg.n, cfg.N
    a1 = tail("v", 1)
    w2a1 = atom_set("w2").union(a1)
    pw1 = eng.p(atom_set("w1"))

    def pa(k: int):
        return eng.p(tail("v", k))

    mod: dict = {}
    for name, vx, vy in rsum.gen_table:
        sx, sy = _single(vx), _single(vy)
        el = None
        if sx is not None and sy is not None:
            if sx.startswith("w_") and sy.startswith("x_") and _ij(sx) == _ij(sy):
                i, j = _ij(sx)
                if j <= n - 1:
                    el = eng.s(f"e_{i}_{j}") * eng.p(atom_set(f"u{j}"))
                elif j == n:
                    el = eng.s(f"f{i}") * eng.p(a1)
            elif sx == f"w_{n}_{n}" and sy == "y":
                el = eng.s("g") * eng.p(a1)
        elif sx is not None and not vy and sx.startswith("w_"):
            i, j = _ij(sx)
            if j == n + 1:
                el = (eng.s(f"f{i}") if i < n else eng.s("h")) * pw1
        elif sy is not None and not vx:
            if sy.startswith("x_"):
                i, j = _ij(sy)
                if j == n + 1:
                    el = eng.s(f"f{i}") * (eng.p(w2a1) - eng.p(a1))
            elif sy.startswith("xn_"):
                i, j = _ij(sy)
                el = eng.s(f"f{i}") * (pa(j) - pa(j + 1))
            elif sy == "yp":
                el = eng.s("g") * (pa(1) - pa(2))
            elif sy.startswith("y_"):
                i = int(sy.split("_")[1])
                el = eng.s("g") * (pa(i + 1) - pa(i + 2))
        if el is None:
            raise ValueError(f"unrecognized pair generator row {name}")
        mod[name] = el

    exp_resid = {f"R{n}": ONE}
    for j in range(1, N + 1):
        exp_resid[f"Q{j}"] = -ONE
    alg: dict = {}
    for name, va, vb in rsum.atom_table:
        sa, sb = _single(va), _single(vb)
        el = None
        if (sa is not None and sb is not None and sa.startswith("P")
                and sb == "R" + sa[1:] and int(sa[1:]) <= n - 1):
            el = eng.p(atom_set(f"u{sa[1:]}"))
        elif sa == f"P{n}" and vb == exp_resid:
            el = pa(N + 1)
        elif sa == f"P{n + 1}" and not vb:
            el = pw1
        elif not va and sb == f"R{n + 1}":
            el = eng.p(w2a1) - pa(1)
        elif not va and sb is not None and sb.startswith("Q"):
            el = pa(int(sb[1:])) - pa(int(sb[1:]) + 1)
        if el is None:
            raise ValueError(f"unrecognized pair atom row {name}")
        alg[name] = el
    return mod, alg


# ------------------------------------------------- graph queries by scan

def scan_out_edges(g: Graph, v: str) -> list:
    return [e for e in g.edges if g.src[e] == v]


def scan_sinks(g: Graph) -> list:
    emitting = {g.src[e] for e in g.edges}
    return [v for v in g.vertices if v not in emitting]


def scan_regular_vertices(g: Graph) -> list:
    emitting = {g.src[e] for e in g.edges}
    return [v for v in g.vertices if v in emitting]


def scan_hereditary_closure(g: Graph, seed) -> frozenset:
    seen = set(seed)
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for e in g.edges:
            if g.src[e] == v and g.dst[e] not in seen:
                seen.add(g.dst[e])
                frontier.append(g.dst[e])
    return frozenset(seen)


def scan_is_acyclic_among(g: Graph, verts: frozenset) -> bool:
    order = [v for v in g.vertices if v in verts]
    color = {v: 0 for v in order}

    def dfs(v: str) -> bool:
        color[v] = 1
        for e in g.edges:
            if g.src[e] == v and g.dst[e] in verts:
                w = g.dst[e]
                if color[w] == 1:
                    return False
                if color[w] == 0 and not dfs(w):
                    return False
        color[v] = 2
        return True

    return all(color[v] == 2 or dfs(v) for v in order)


# ------------------------------------------------- dense forced-zero presolve

def dense_forced_zero_presolve(m, b: list) -> tuple[list, list]:
    """`ktheory._forced_zero_presolve` as it was: every pass rescans each
    kept row over every remaining column."""
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


# ------------------------------------------------- sweep canonical forms

def permutation_canonical(pairs, movable: tuple, forward: bool = False) -> tuple:
    """`obstruction._canonical` as it was: a renaming dict per permutation
    of the `movable` vertices, applied to every pair of `pairs`."""
    order = {v: i for i, v in enumerate(movable)}
    best = tuple(sorted(pairs))
    for perm in islice(permutations(movable), 1, None):
        rename = dict(zip(movable, perm))
        renamed = []
        for a, b in pairs:
            a, b = rename.get(a, a), rename.get(b, b)
            if forward and a in order and b in order and order[a] >= order[b]:
                break
            renamed.append((a, b))
        else:
            cand = tuple(sorted(renamed))
            if cand < best:
                best = cand
    return best


def graph_v_parts_wide(extra: tuple, budget: int) -> list[tuple]:
    """`obstruction._v_parts_wide` as it was: one `Graph` per edge
    multiset, tested with the edge-scan closure and acyclicity queries."""
    v_nodes = (LOOP_VERTEX,) + extra + SINKS
    slots = [(s, d) for s in (LOOP_VERTEX,) + extra for d in v_nodes if d != LOOP_VERTEX]
    loop = (LOOP_VERTEX, LOOP_VERTEX)
    renamings = _renamings(extra, [loop] + slots)
    out = set()
    for count in range(len(extra) + len(SINKS), budget):
        for combo in combinations_with_replacement(slots, count):
            if not set(extra) <= {s for s, _ in combo}:
                continue
            pairs = (loop,) + combo
            g = Candidate(v_nodes, pairs).graph()
            if scan_hereditary_closure(g, [LOOP_VERTEX]) != frozenset(v_nodes):
                continue
            if not scan_is_acyclic_among(g, frozenset(v_nodes) - {LOOP_VERTEX}):
                continue
            out.add(_canonical(pairs, renamings))
    return sorted(out)


# --------------------------------------------------- truncation comparison

def _as_frozen(el, bound: int) -> dict:
    """Engine element as a naive-calculator element, truncating each
    term's set at the index bound (empty truncations vanish)."""
    out: dict = {}
    for (a, s, b), c in el.terms.items():
        fs = s.truncate(bound)
        if not fs:
            continue
        key = (a, frozenset(fs), b)
        out[key] = out.get(key, Fraction(0)) + c
    return {t: c for t, c in out.items() if c}


def cross_validate(space, bound: int, seed: int = 7041, cases: int = 120) -> Report:
    """Symbolic computations on `space` against brute-force recomputation
    on its concrete truncation at `bound`.

    Compares relative ranges, the family closure, the data entering each
    summation-relation instance, concrete-engine products against the
    naive calculator (unconditionally, same finite space), and symbolic
    products against the naive calculator for factors whose sets and
    words stay clear of the truncation boundary.  Sets that start beyond
    the bound have no concrete counterpart and are skipped: a tail
    forgets where it begins once truncated.
    """
    rep = Report(f"truncation {bound}")
    g = space.graph
    eng = Engine(space)
    tspace = truncate_space(space, bound)
    calc = NaiveCalc(tspace.graph)
    teng = Engine(tspace)
    labels = list(calc.labels)

    # relative ranges
    ok = True
    first = ""
    count = 0
    for c in space.core:
        if c.max_index() > bound:
            continue
        fs = frozenset(c.truncate(bound))
        for lab in labels:
            sym = relative_range(g, c, lab).truncate(bound)
            brute = calc.rng(fs, lab)
            count += 1
            if frozenset(sym) != brute:
                ok = False
                if not first:
                    first = f"r({c!r},{lab!r}): {sorted(map(repr, sym))} vs {sorted(map(repr, brute))}"
    rep.add("relative ranges match edge walks", ok, first or f"{count} instances")

    # closure
    given = [s for s, why in space.provenance.items() if why.startswith("given[")]
    naive = naive_closure(calc, [frozenset(s.truncate(bound)) for s in given
                                 if s.truncate(bound)])
    expect = {frozenset(c.truncate(bound)) for c in space.core if c.truncate(bound)}
    rep.add("family closure matches brute-force closure",
            naive == expect,
            f"{len(naive)} sets" if naive == expect else
            f"extra {sorted(map(sorted, naive - expect))[:2]!r} missing {sorted(map(sorted, expect - naive))[:2]!r}")

    # summation-relation instance data (one step of clearance: the label
    # sets of a boundary tail see edges the truncation cannot)
    ok = True
    first = ""
    count = 0
    sinks_sym = sink_set(g)
    for c in space.core:
        if c.max_index() + 1 > bound:
            continue
        fs = frozenset(c.truncate(bound))
        l1_sym, finite = label_set(g, c)
        if not finite:
            continue
        l1_brute = frozenset(lab for _, src, _, lab in calc.edges if src in fs)
        sinks_brute = calc.sinks & fs
        sinks_here = frozenset(v for v in fs if v in sinks_sym)
        count += 1
        if l1_sym != l1_brute or sinks_here != sinks_brute:
            ok = False
            if not first:
                first = f"at {c!r}: labels {sorted(map(repr, l1_sym))} vs {sorted(map(repr, l1_brute))}"
    rep.add("summation instance data match", ok, first or f"{count} sets")

    # concrete engine vs naive calculator, same finite space
    rng = random.Random(seed)
    pool = []
    for c in tspace.core:
        fs = frozenset(c.truncate(bound))
        pool.append((teng.p(c), calc.p(fs)))
    for lab in labels:
        e = teng.s(lab)
        pool.append((e, calc.iso(lab)))
        pool.append((e.adj(), calc.adj(calc.iso(lab))))
    ok = True
    first = ""
    for _ in range(cases):
        k = rng.randint(2, 4)
        fs = [pool[rng.randrange(len(pool))] for _ in range(k)]
        left = fs[0][0]
        for f in fs[1:]:
            left = left * f[0]
        right = calc.mul_many(f[1] for f in fs)
        if _as_frozen(left, bound) != right:
            ok = False
            if not first:
                first = f"{left!r} vs naive {right!r}"
            break
    rep.add("concrete engine products match naive calculator", ok,
            first or f"{cases} products")

    # symbolic engine vs naive calculator, boundary-clear factors
    sym_pool = []
    for c in space.core:
        if c.max_index() and c.max_index() > 2:
            continue
        sym_pool.append((eng.p(c), calc.p(frozenset(c.truncate(bound))), c.max_index(), 0))
    for lab in labels:
        e = eng.s(lab)
        sym_pool.append((e, calc.iso(lab), 0, 1))
        sym_pool.append((e.adj(), calc.adj(calc.iso(lab)), 0, 1))
    ok = True
    first = ""
    used = 0
    for _ in range(cases):
        k = rng.randint(2, 4)
        fs = [sym_pool[rng.randrange(len(sym_pool))] for _ in range(k)]
        depth = max(f[2] for f in fs) + sum(f[3] for f in fs)
        if depth > bound:
            continue
        used += 1
        left = fs[0][0]
        for f in fs[1:]:
            left = left * f[0]
        right = calc.mul_many(f[1] for f in fs)
        if _as_frozen(left, bound) != right:
            ok = False
            if not first:
                first = f"{left!r} vs naive {right!r}"
            break
    rep.add("symbolic products match naive calculator on the window", ok,
            first or f"{used} products")
    return rep
