"""Exact arithmetic in the algebra generated by a labelled space.

Elements are rational combinations of terms s_alpha p_A s_beta*, where
alpha and beta are label words and A is a vertex set in closed form.
Every element of the *-algebra generated by the projections p_A and the
partial isometries s_a has this shape, and products reduce to it again:

  (s_a p_A s_b*)(s_c p_B s_d*) = s_{a c'} p_{r(A,c') & B} s_d*   (c = b c')
                                = s_a p_{A & r(B,b')} s_{d b'}*  (b = c b')
                                = 0                              (otherwise)

with r the iterated relative range.  Each term keeps the invariant
A <= range(alpha) & range(beta), which makes the zero term detectable
at construction time.

Equality is decided by moving a difference toward a common word level:
a projection term over a set with finite non-empty label emission
expands through

  p_A = sum_a s_a p_{r(A,a)} s_a* + sum over sinks v in A of p_v

and a difference is declared zero when, after grouping terms by word
pair, every non-empty membership cell of the grouped sets has vanishing
total coefficient.  The cell test is a sound zero certificate; when a
residual refuses to expand further the check reports inequality with
the residual as witness, which is the correct verdict whenever cell
projections of the space are independent (true for the spaces built in
this package, where distinct vertices act independently).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError, UnsupportedSpaceError
from .exactlinalg import frac, sort_key
from .labelled import (LabelledSpace, full_set, label_instances, label_set,
                       relative_range, sink_set)
from .setexpr import EMPTY, SetExpr, atoms as atom_set

MAX_GROUP_SETS = 14
TERM_BUDGET = 20000  # terms allowed in a product or an equality difference
EQUALS_DEPTH = 3  # joint expansion rounds before a residual is a witness
TAUTOLOGY_SETS = 40  # core sets sampled by `tautological_checks`


def _word_key(word: tuple):
    return tuple(sort_key(a) for a in word)


class Element:
    """A finite rational combination of terms, tied to its engine."""

    __slots__ = ("engine", "terms")

    def __init__(self, engine: "Engine", terms: dict):
        self.engine = engine
        self.terms = {t: c for t, c in terms.items() if c}

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) + c
        return Element(self.engine, out)

    def __sub__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, Fraction(0)) - c
        return Element(self.engine, out)

    def __neg__(self) -> "Element":
        return Element(self.engine, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.engine._mul(self, other)
        return Element(self.engine, {t: c * frac(other) for t, c in self.terms.items()})

    def __rmul__(self, scalar) -> "Element":
        return Element(self.engine, {t: c * frac(scalar) for t, c in self.terms.items()})

    def adj(self) -> "Element":
        return Element(self.engine, {(b, s, a): c for (a, s, b), c in self.terms.items()})

    def is_zero_syntactic(self) -> bool:
        return not self.terms

    def level(self) -> int:
        return max((max(len(a), len(b)) for a, _, b in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda tc: (max(len(tc[0][0]), len(tc[0][2])),
                                      _word_key(tc[0][0]), _word_key(tc[0][2]),
                                      tc[0][1].sort_key()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, s, b), c in self.sorted_terms():
            piece = render_term(a, s, b)
            bits.append(piece if c == 1 else f"({c})*{piece}")
        return " + ".join(bits)


def render_term(alpha: tuple, s: SetExpr, beta: tuple) -> str:
    def w(word):
        return ",".join(x if isinstance(x, str) else f"{x[0]}_{x[1]}" for x in word)

    parts = []
    if alpha:
        parts.append(f"s[{w(alpha)}]")
    parts.append(f"p{s!r}")
    if beta:
        parts.append(f"s[{w(beta)}]*")
    return ".".join(parts)


class Engine:
    """Term arithmetic and equality for one labelled space."""

    def __init__(self, space: LabelledSpace):
        self.space = space
        self.graph = space.graph
        self._full = full_set(space.graph)
        self._sinks = sink_set(space.graph)
        self._range_cache: dict[tuple, SetExpr] = {(): self._full}
        self._labels_cache: dict[SetExpr, tuple] = {}
        self._lattice_ok: set = {EMPTY}

    # ------------------------------------------------------------ builders

    def zero(self) -> Element:
        return Element(self, {})

    def element(self, alpha: tuple, s: SetExpr, beta: tuple) -> Element:
        t = self._term(tuple(alpha), s, tuple(beta))
        return Element(self, {t: Fraction(1)} if t else {})

    def p(self, s) -> Element:
        """Projection over a vertex set.

        The set must lie in the lattice the space family generates: the
        commutation relation rewrites p_A past isometries through the
        relative range, which is only consistent (weakly left resolving)
        for family sets.  Finer sets exist in the algebra as differences
        of projections, never as a single projection term.
        """
        if not isinstance(s, SetExpr):
            s = atom_set(*s) if isinstance(s, (list, tuple, set, frozenset)) else atom_set(s)
        if s not in self._lattice_ok:
            if not self.space.in_lattice(s):
                raise UnsupportedSpaceError(
                    f"projection over {s!r} is outside the lattice generated "
                    f"by the space family")
            self._lattice_ok.add(s)
        return self.element((), s, ())

    def s(self, label) -> Element:
        return self.element((label,), self._full, ())

    def combine(self, vec: dict, images: dict) -> Element:
        """The element sum of c * images[sym] over the entries of vec."""
        out = self.zero()
        for sym, c in vec.items():
            out = out + c * images[sym]
        return out

    def s_word(self, labels) -> Element:
        out = None
        for lab in labels:
            out = self.s(lab) if out is None else out * self.s(lab)
        return out if out is not None else self.zero()

    # ----------------------------------------------------------- reduction

    def word_range(self, word: tuple) -> SetExpr:
        got = self._range_cache.get(word)
        if got is None:
            got = relative_range(self.graph, self.word_range(word[:-1]), word[-1])
            self._range_cache[word] = got
        return got

    def set_range(self, s: SetExpr, word: tuple) -> SetExpr:
        for lab in word:
            s = relative_range(self.graph, s, lab)
        return s

    def _term(self, alpha: tuple, s: SetExpr, beta: tuple):
        s = s.intersect(self.word_range(alpha)).intersect(self.word_range(beta))
        if s.is_empty():
            return None
        return (alpha, s, beta)

    def _mul(self, x: Element, y: Element) -> Element:
        out: dict = {}
        for (a, s, b), c in x.terms.items():
            for (g, u, d), e in y.terms.items():
                coeff = c * e
                if len(g) >= len(b) and g[: len(b)] == b:
                    gp = g[len(b):]
                    t = self._term(a + gp, self.set_range(s, gp).intersect(u), d)
                elif b[: len(g)] == g:
                    bp = b[len(g):]
                    t = self._term(a, s.intersect(self.set_range(u, bp)), d + bp)
                else:
                    t = None
                if t is not None:
                    out[t] = out.get(t, Fraction(0)) + coeff
        if len(out) > TERM_BUDGET:
            raise BudgetError(f"product grew past {TERM_BUDGET} terms")
        return Element(self, out)

    # ----------------------------------------------------------- expansion

    def _labels_of(self, s: SetExpr) -> tuple:
        got = self._labels_cache.get(s)
        if got is None:
            labs, finite = label_set(self.graph, s)
            if not finite:
                raise UnsupportedSpaceError(
                    f"set {s!r} emits infinitely many labels; relation (4) "
                    "does not apply")
            got = tuple(sorted(labs, key=sort_key))
            self._labels_cache[s] = got
        return got

    def _expandable(self, term) -> bool:
        _, s, _ = term
        if self._labels_of(s):
            return True
        return s.is_finite() and len(s.atoms) > 1

    def _expand_term(self, term) -> dict:
        alpha, s, beta = term
        labs = self._labels_of(s)
        out: dict = {}

        def put(t):
            if t is not None:
                out[t] = out.get(t, Fraction(0)) + Fraction(1)

        if not labs:
            for v in s.atoms:
                put(self._term(alpha, atom_set(v), beta))
            return out
        for lab in labs:
            put(self._term(alpha + (lab,),
                           relative_range(self.graph, s, lab), beta + (lab,)))
        sinks = s.intersect(self._sinks)
        if not sinks.is_finite():
            raise UnsupportedSpaceError(
                f"set {s!r} holds infinitely many sinks; cannot expand")
        for v in sorted(sinks.atoms, key=sort_key):
            put(self._term(alpha, atom_set(v), beta))
        return out

    def expand_once(self, x: Element) -> Element:
        """Apply the summation relation to every expandable term."""
        out: dict = {}
        for t, c in x.terms.items():
            pieces = self._expand_term(t) if self._expandable(t) else {t: Fraction(1)}
            for u, e in pieces.items():
                out[u] = out.get(u, Fraction(0)) + c * e
        return Element(self, out)

    # ----------------------------------------------------------- zero test

    @staticmethod
    def _cells(sets: list):
        """Non-empty membership cells of a list of distinct sets, as
        (bitmask, cell) pairs."""
        n = len(sets)
        if n > MAX_GROUP_SETS:
            raise BudgetError(f"{n} distinct sets in one term group")
        cells = []
        for mask in range(1, 1 << n):
            cell = None
            for i in range(n):
                if mask >> i & 1:
                    cell = sets[i] if cell is None else cell.intersect(sets[i])
            if cell.is_empty():
                continue
            for i in range(n):
                if not (mask >> i & 1):
                    cell = cell.difference(sets[i])
                    if cell.is_empty():
                        break
            if not cell.is_empty():
                cells.append((mask, cell))
        return cells

    def _nonzero_cell(self, terms: dict):
        """A witness (alpha, beta, cell, coefficient) with nonzero total
        coefficient, or None when every cell cancels."""
        groups: dict = {}
        for (a, s, b), c in terms.items():
            groups.setdefault((a, b), {})
            groups[(a, b)][s] = groups[(a, b)].get(s, Fraction(0)) + c
        for (a, b) in sorted(groups, key=lambda ab: (_word_key(ab[0]), _word_key(ab[1]))):
            by_set = {s: c for s, c in groups[(a, b)].items() if c}
            if not by_set:
                continue
            sets = sorted(by_set, key=lambda s: s.sort_key())
            for mask, cell in self._cells(sets):
                total = sum((by_set[sets[i]] for i in range(len(sets)) if mask >> i & 1),
                            Fraction(0))
                if total:
                    return a, b, cell, total
        return None

    def is_zero(self, x: Element) -> bool:
        return self._nonzero_cell(x.terms) is None

    # ------------------------------------------------------------ equality

    def equals(self, x: Element, y: Element) -> bool:
        ok, _ = self.equals_detail(x, y)
        return ok

    def equals_detail(self, x: Element, y: Element):
        """(equal, witness).  Expands below-top-level terms first; if a
        nonzero residual has no such terms left, expands everything
        jointly up to `EQUALS_DEPTH` extra levels before giving up."""
        d = x - y
        joint_rounds = 0
        guard = 0
        while True:
            guard += 1
            if guard > 64:
                raise BudgetError("equality loop failed to settle")
            if len(d.terms) > TERM_BUDGET:
                raise BudgetError(f"difference grew past {TERM_BUDGET} terms")
            witness = self._nonzero_cell(d.terms)
            if witness is None:
                return True, None
            lmax = d.level()
            partial: dict = {}
            progressed = False
            for t, c in d.terms.items():
                if max(len(t[0]), len(t[2])) < lmax and self._expandable(t):
                    progressed = True
                    for u, e in self._expand_term(t).items():
                        partial[u] = partial.get(u, Fraction(0)) + c * e
                else:
                    partial[t] = partial.get(t, Fraction(0)) + c
            if progressed:
                d = Element(self, partial)
                continue
            if joint_rounds >= EQUALS_DEPTH:
                a, b, cell, total = witness
                return False, f"residual ({total})*{render_term(a, cell, b)}"
            expandable = [t for t in d.terms if self._expandable(t)]
            if not expandable:
                a, b, cell, total = witness
                return False, f"residual ({total})*{render_term(a, cell, b)}"
            d = self.expand_once(d)
            joint_rounds += 1

# -------------------------------------------------- homomorphism checking


def substitute(x: Element, dst: Engine, s_images: dict, v_images: dict) -> Element:
    """Rewrite x through generator images living in `dst`.

    `s_images` maps labels to elements and `v_images` maps vertices to
    elements.  The projection over a finite vertex set goes to the sum
    of its vertex images, taken in `sort_key` order; a set with a tail,
    or with a vertex that has no image, raises KeyError.
    """
    out = dst.zero()
    for (alpha, s, beta), c in x.terms.items():
        if not s.is_finite() or any(v not in v_images for v in s.atoms):
            raise KeyError(f"no image supplied for projection over {s!r}")
        acc = dst.combine(dict.fromkeys(sorted(s.atoms, key=sort_key), 1), v_images)
        for lab in reversed(alpha):
            acc = s_images[lab] * acc
        for lab in beta:
            acc = acc * s_images[lab].adj()
        out = out + c * acc
    return out


def check_graph_hom(graph_vertices, edges, dst: Engine, s_images: dict,
                    p_images: dict, regular=None) -> "Report":
    """Verify that candidate images satisfy the relations of a graph
    algebra presentation.

    `edges` are (name, src, dst) triples whose names index `s_images`;
    `p_images` is keyed by vertex.  Checks: projections are orthogonal
    idempotents and self-adjoint, edge images are partial isometries
    with the right support and range projections, and every vertex in
    `regular` (default: all emitting vertices) is the sum of its edge
    range projections.
    """
    from .reports import Report

    rep = Report("graph relations on images")
    verts = sorted(graph_vertices, key=sort_key)
    out_by_src: dict = {}
    for name, s, d in edges:
        out_by_src.setdefault(s, []).append((name, d))
    if regular is None:
        regular = [v for v in verts if out_by_src.get(v)]

    ok = True
    for i, u in enumerate(verts):
        pu = p_images[u]
        if not dst.equals(pu.adj(), pu):
            ok = False
            rep.add(f"p[{u}] self-adjoint", False)
        for v in verts[i:]:
            want = pu if u == v else dst.zero()
            if not dst.equals(pu * p_images[v], want):
                ok = False
                rep.add(f"p[{u}]p[{v}] orthogonality", False)
    rep.add("projections orthogonal idempotents", ok)

    names = sorted(s_images, key=sort_key)
    rng = {name: d for name, _, d in edges}
    src = {name: s for name, s, _ in edges}
    ok = True
    for i, e in enumerate(names):
        se = s_images[e]
        for f in names[i:]:
            want = p_images[rng[e]] if e == f else dst.zero()
            if not dst.equals(se.adj() * s_images[f], want):
                ok = False
                rep.add(f"s[{e}]*s[{f}]", False)
    rep.add("edge images: isometry relations", ok)

    ok = True
    for e in names:
        se = s_images[e]
        if not dst.equals(p_images[src[e]] * se, se):
            ok = False
            rep.add(f"p[src]s[{e}] = s[{e}]", False)
        if not dst.equals(se * p_images[rng[e]], se):
            ok = False
            rep.add(f"s[{e}]p[rng] = s[{e}]", False)
        for v in verts:
            if v != src[e] and not dst.equals(p_images[v] * se, dst.zero()):
                ok = False
                rep.add(f"p[{v}]s[{e}] = 0", False)
    rep.add("edge images: support and range", ok)

    ok = True
    for v in regular:
        total = dst.zero()
        for name, _ in out_by_src.get(v, []):
            total = total + s_images[name] * s_images[name].adj()
        if not dst.equals(p_images[v], total):
            ok = False
            rep.add(f"p[{v}] = sum of ranges", False)
    rep.add("regular vertices resolve", ok)
    return rep


def tautological_checks(engine: Engine) -> "Report":
    """Self-test: the engine's own generators satisfy the defining
    relations of the space (projection lattice additivity, commutation
    past the isometries, isometry products, and the summation relation
    where it applies)."""
    from .reports import Report

    rep = Report("representation relations")
    space = engine.space
    g = engine.graph
    sets = list(space.core)[:TAUTOLOGY_SETS]
    labels = label_instances(g, space.horizon)

    ok = True
    for i, a in enumerate(sets):
        for b in sets[i:]:
            lhs = engine.p(a) + engine.p(b)
            rhs = engine.p(a.union(b)) + engine.p(a.intersect(b))
            if not engine.is_zero(lhs - rhs):
                ok = False
                rep.add(f"additivity at {a!r},{b!r}", False)
    rep.add("projection lattice additivity", ok)

    ok = True
    for a in sets:
        for lab in labels:
            rng = relative_range(g, a, lab)
            if not space.in_lattice(rng):
                continue
            lhs = engine.p(a) * engine.s(lab)
            rhs = engine.s(lab) * engine.p(rng)
            if not engine.is_zero(lhs - rhs):
                ok = False
                rep.add(f"commutation p{a!r} s[{lab!r}]", False)
    rep.add("projections commute past isometries", ok)

    ok = True
    for la in labels:
        for lb in labels:
            want = engine.p(relative_range(g, full_set(g), la)) if la == lb else engine.zero()
            if not engine.is_zero(engine.s(la).adj() * engine.s(lb) - want):
                ok = False
                rep.add(f"s*s at {la!r},{lb!r}", False)
    rep.add("isometry products diagonal", ok)

    ok = True
    for a in sets:
        labs, finite = label_set(g, a)
        if not finite or not labs:
            continue
        sinks = a.intersect(sink_set(g))
        if not sinks.is_finite():
            continue
        rhs = engine.zero()
        for lab in sorted(labs, key=sort_key):
            rhs = rhs + engine.element((lab,), relative_range(g, a, lab), (lab,))
        for v in sorted(sinks.atoms, key=sort_key):
            rhs = rhs + engine.p(atom_set(v))
        if not engine.equals(engine.p(a), rhs):
            ok = False
            rep.add(f"summation relation at {a!r}", False)
    rep.add("summation relation", ok)
    return rep
