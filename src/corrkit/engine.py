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

Each engine memoises these reductions: it maps a term pair to its
reduced term, or to None when the product vanishes.  It also interns
every reduced term, so equal terms from one engine are one object and
the memo and dict probes on them end at the identity test instead of
comparing vertex sets.  Both are sound because a term is an immutable
(tuple, SetExpr, tuple) with value equality and the engine's graph
never changes, so the reduction is a pure function of the two terms
(the word-range cache rests on the same fact, and so does the graph's
own memo of `relative_range`, which outlives any one engine).  The memo
and the interned terms live and die with their engine.

Sums, differences, `Engine.combine` and `substitute` accumulate in one
dict through `exactlinalg._axpy`: a term that cancels leaves on the
spot and one that comes back goes to the end, and a coefficient product
with the shared unit `_ONE` as a factor is the other factor itself.
Products and expansions merge per pair instead and keep a cancelled
term's place, so their results pass the zero filter of `Element`;
everything else is stored as built.  Coefficients stay `Fraction`s.

Equality is decided by moving a difference toward a common word level:
a projection term over a set with finite non-empty label emission
expands through

  p_A = sum_a s_a p_{r(A,a)} s_a* + sum over sinks v in A of p_v

and a difference is declared zero when, after grouping terms by word
pair, every non-empty membership cell of the grouped sets has vanishing
total coefficient.  Two sides that hold the same terms are equal at
once, without the difference: it would be empty, and an empty
difference trips no budget, expands nothing and passes the first cell
test, so the verdict is the same.  The cell test is a sound zero
certificate; when a residual refuses to expand further the check
reports inequality with the residual as witness, which is the correct
verdict whenever cell projections of the space are independent (true
for the spaces built in this package, where distinct vertices act
independently).
"""
from __future__ import annotations

from fractions import Fraction

from .errors import BudgetError, UnsupportedSpaceError
from .exactlinalg import _ONE, _axpy, frac, sort_key
from .labelled import (LabelledSpace, full_set, label_instances, label_set,
                       relative_range, sink_set)
from .reports import Report
from .setexpr import EMPTY, SetExpr, atoms as atom_set

MAX_GROUP_SETS = 14
TERM_BUDGET = 20000  # terms allowed in a product or an equality difference
EQUALS_ROUNDS = 64  # expansion rounds an equality test may take in all
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

    @classmethod
    def _of(cls, engine: "Engine", terms: dict) -> "Element":
        """The element over `terms` as given, which must hold no zero."""
        el = object.__new__(cls)
        el.engine = engine
        el.terms = terms
        return el

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        _axpy(out, _ONE, other.terms)
        return Element._of(self.engine, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element._of(self.engine, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.engine._mul(self, other)
        return self._scaled(frac(other))

    def __rmul__(self, scalar) -> "Element":
        return self._scaled(frac(scalar))

    def _scaled(self, f: Fraction) -> "Element":
        return Element._of(self.engine, {t: c if f is _ONE else f if c is _ONE else c * f
                                         for t, c in self.terms.items()} if f else {})

    def adj(self) -> "Element":
        return Element._of(self.engine, {(b, s, a): c for (a, s, b), c in self.terms.items()})

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
        self._products: dict[tuple, tuple | None] = {}
        self._terms: dict[tuple, tuple] = {}

    # ------------------------------------------------------------ builders

    def zero(self) -> Element:
        return Element(self, {})

    def element(self, alpha: tuple, s: SetExpr, beta: tuple) -> Element:
        t = self._term(tuple(alpha), s, tuple(beta))
        return Element._of(self, {t: _ONE} if t else {})

    def p(self, s) -> Element:
        """Projection over a vertex set: a `SetExpr` or one vertex key.

        The set must lie in the lattice the space family generates: the
        commutation relation rewrites p_A past isometries through the
        relative range, which is only consistent (weakly left resolving)
        for family sets.  Finer sets exist in the algebra as differences
        of projections, never as a single projection term.
        """
        if not isinstance(s, SetExpr):
            s = atom_set(s)
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
        """The element sum of c * images[sym] over the entries of vec,
        accumulated in one dict; a term that cancels and then comes back
        goes to the end, as it would in a fold of `+`.  Every symbol
        needs an image, whatever its coefficient."""
        out: dict = {}
        for sym, c in vec.items():
            terms = images[sym].terms
            f = frac(c)
            if f:
                _axpy(out, f, terms)
        return Element._of(self, out)

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
        t = (alpha, s, beta)
        return self._terms.setdefault(t, t)

    def _product(self, xt, yt):
        """The reduced term of the product of two terms, or None when it
        vanishes."""
        a, s, b = xt
        g, u, d = yt
        if len(g) >= len(b) and g[: len(b)] == b:
            gp = g[len(b):]
            return self._term(a + gp, self.set_range(s, gp).intersect(u), d)
        if b[: len(g)] == g:
            bp = b[len(g):]
            return self._term(a, s.intersect(self.set_range(u, bp)), d + bp)
        return None

    def _mul(self, x: Element, y: Element) -> Element:
        out: dict = {}
        merged = False
        products = self._products
        for xt, c in x.terms.items():
            for yt, e in y.terms.items():
                key = (xt, yt)
                try:
                    t = products[key]
                except KeyError:
                    t = products[key] = self._product(xt, yt)
                if t is not None:
                    ce = e if c is _ONE else c if e is _ONE else c * e
                    if t in out:
                        out[t] = out[t] + ce
                        merged = True
                    else:
                        out[t] = ce
        if len(out) > TERM_BUDGET:
            raise BudgetError(f"product of {len(x.terms)} x {len(y.terms)} terms "
                              f"grew past {TERM_BUDGET} terms")
        # only a merge can cancel, and the filter keeps a cancelled term's
        # place should a later pair bring it back
        return Element(self, out) if merged else Element._of(self, out)

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
                out[t] = out[t] + 1 if t in out else _ONE

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
        """Apply the summation relation to every expandable term; x itself
        when there is none."""
        return self._expand(x) or x

    def _expand(self, x: Element, below: int | None = None) -> Element | None:
        """Apply the summation relation to every expandable term, or only
        to those below word level `below`; None when no term qualifies.
        Merged terms keep their first place."""
        out: dict = {}
        expanded = False
        for t, c in x.terms.items():
            if (below is None or max(len(t[0]), len(t[2])) < below) and self._expandable(t):
                expanded = True
                for u, e in self._expand_term(t).items():
                    ce = c if e is _ONE else c * e
                    out[u] = out[u] + ce if u in out else ce
            else:
                out[t] = out[t] + c if t in out else c
        return Element(self, out) if expanded else None

    # ----------------------------------------------------------- zero test

    @staticmethod
    def _cells(sets: list):
        """Non-empty membership cells of a list of distinct sets, as
        (bitmask, cell) pairs."""
        n = len(sets)
        if n > MAX_GROUP_SETS:
            raise BudgetError(f"zero test: a term group has {n} distinct sets, "
                              f"past MAX_GROUP_SETS = {MAX_GROUP_SETS}")
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
            groups.setdefault((a, b), {})[s] = c  # terms are distinct: no merge
        for (a, b) in sorted(groups, key=lambda ab: (_word_key(ab[0]), _word_key(ab[1]))):
            by_set = groups[(a, b)]
            sets = sorted(by_set, key=lambda s: s.sort_key())
            for mask, cell in self._cells(sets):
                total = sum((by_set[sets[i]] for i in range(len(sets)) if mask >> i & 1),
                            Fraction(0))
                if total:
                    return a, b, cell, total
        return None

    # ------------------------------------------------------------ equality

    def equals(self, x: Element, y: Element) -> bool:
        ok, _ = self.equals_detail(x, y)
        return ok

    def mismatches(self, cases):
        """(name, "") for each (name, lhs, rhs) of `cases` whose sides
        are not `equals`, in order: the failures of a `Report.tally`."""
        for name, lhs, rhs in cases:
            if not self.equals(lhs, rhs):
                yield name, ""

    def equals_detail(self, x: Element, y: Element):
        """(equal, witness).  Sides holding the same terms are equal
        outright: their difference is empty, which the loop below would
        accept in its first round without expanding anything.  Otherwise
        expands below-top-level terms first; if a nonzero residual has
        no such terms left, expands everything jointly up to
        `EQUALS_DEPTH` extra levels before giving up."""
        if x.terms == y.terms:
            return True, None
        d = x - y
        joint_rounds = 0
        for _ in range(EQUALS_ROUNDS):
            if len(d.terms) > TERM_BUDGET:
                raise BudgetError(f"equality test of {len(x.terms)} and {len(y.terms)} terms: "
                                  f"difference grew to {len(d.terms)} terms, "
                                  f"past {TERM_BUDGET}")
            witness = self._nonzero_cell(d.terms)
            if witness is None:
                return True, None
            partial = self._expand(d, d.level())
            if partial is not None:
                d = partial
                continue
            if joint_rounds >= EQUALS_DEPTH or not any(map(self._expandable, d.terms)):
                a, b, cell, total = witness
                return False, f"residual ({total})*{render_term(a, cell, b)}"
            d = self._expand(d)
            joint_rounds += 1
        raise BudgetError(f"equality test of {len(x.terms)} and {len(y.terms)} terms "
                          f"ran past {EQUALS_ROUNDS} rounds "
                          f"({len(d.terms)} terms in the difference)")

# -------------------------------------------------- homomorphism checking


def substitute(x: Element, dst: Engine, s_images: dict, v_images: dict) -> Element:
    """Rewrite x through generator images living in `dst`.

    `s_images` maps labels to elements and `v_images` maps vertices to
    elements.  The projection over a finite vertex set goes to the sum
    of its vertex images, taken in `sort_key` order; a set with a tail,
    or with a vertex that has no image, raises KeyError.
    """
    out: dict = {}
    for (alpha, s, beta), c in x.terms.items():
        if not s.is_finite() or any(v not in v_images for v in s.atoms):
            raise KeyError(f"no image supplied for projection over {s!r}")
        acc = dst.combine(dict.fromkeys(sorted(s.atoms, key=sort_key), 1), v_images)
        for lab in reversed(alpha):
            acc = s_images[lab] * acc
        for lab in beta:
            acc = acc * s_images[lab].adj()
        _axpy(out, c, acc.terms)
    return Element._of(dst, out)


def check_graph_hom(graph_vertices, edges, dst: Engine, s_images: dict,
                    p_images: dict, regular=None) -> Report:
    """Verify that candidate images satisfy the relations of a graph
    algebra presentation.

    `edges` are (name, src, dst) triples whose names index `s_images`;
    `p_images` is keyed by vertex.  Checks: projections are orthogonal
    idempotents and self-adjoint, edge images are partial isometries
    with the right support and range projections, and every vertex in
    `regular` (default: all emitting vertices) is the sum of its edge
    range projections.
    """
    rep = Report("graph relations on images")
    verts = sorted(graph_vertices, key=sort_key)
    out_by_src: dict = {}
    for name, s, d in edges:
        out_by_src.setdefault(s, []).append((name, d))
    if regular is None:
        regular = [v for v in verts if out_by_src.get(v)]
    names = sorted(s_images, key=sort_key)
    rng = {name: d for name, _, d in edges}
    src = {name: s for name, s, _ in edges}

    def idempotents():
        for i, u in enumerate(verts):
            pu = p_images[u]
            yield f"p[{u}] self-adjoint", pu.adj(), pu
            for v in verts[i:]:
                yield (f"p[{u}]p[{v}] orthogonality", pu * p_images[v],
                       pu if u == v else dst.zero())

    def supports():
        for e in names:
            se = s_images[e]
            yield f"p[src]s[{e}] = s[{e}]", p_images[src[e]] * se, se
            yield f"s[{e}]p[rng] = s[{e}]", se * p_images[rng[e]], se
            for v in verts:
                if v != src[e]:
                    yield f"p[{v}]s[{e}] = 0", p_images[v] * se, dst.zero()

    rep.tally("projections orthogonal idempotents", dst.mismatches(idempotents()))
    rep.tally("edge images: isometry relations", dst.mismatches(
        (f"s[{e}]*s[{f}]", s_images[e].adj() * s_images[f],
         p_images[rng[e]] if e == f else dst.zero())
        for i, e in enumerate(names) for f in names[i:]))
    rep.tally("edge images: support and range", dst.mismatches(supports()))
    rep.tally("regular vertices resolve", dst.mismatches(
        (f"p[{v}] = sum of ranges", p_images[v],
         sum((s_images[name] * s_images[name].adj() for name, _ in out_by_src.get(v, [])),
             dst.zero()))
        for v in regular))
    return rep


def tautological_checks(engine: Engine) -> Report:
    """Self-test: the engine's own generators satisfy the defining
    relations of the space (projection lattice additivity, commutation
    past the isometries, isometry products, and the summation relation
    where it applies)."""
    rep = Report("representation relations")
    space = engine.space
    g = engine.graph
    sets = list(space.core)[:TAUTOLOGY_SETS]
    labels = label_instances(g, space.horizon)

    def commutations():
        for a in sets:
            for lab in labels:
                rng = relative_range(g, a, lab)
                if space.in_lattice(rng):
                    yield (f"commutation p{a!r} s[{lab!r}]", engine.p(a) * engine.s(lab),
                           engine.s(lab) * engine.p(rng))

    def summations():
        for a in sets:
            labs, finite = label_set(g, a)
            if not finite or not labs:
                continue
            sinks = a.intersect(sink_set(g))
            if not sinks.is_finite():
                continue
            parts = [engine.element((lab,), relative_range(g, a, lab), (lab,))
                     for lab in sorted(labs, key=sort_key)]
            parts += [engine.p(atom_set(v)) for v in sorted(sinks.atoms, key=sort_key)]
            yield f"summation relation at {a!r}", engine.p(a), sum(parts, engine.zero())

    rep.tally("projection lattice additivity", engine.mismatches(
        (f"additivity at {a!r},{b!r}", engine.p(a) + engine.p(b),
         engine.p(a.union(b)) + engine.p(a.intersect(b)))
        for i, a in enumerate(sets) for b in sets[i:]))
    rep.tally("projections commute past isometries", engine.mismatches(commutations()))
    rep.tally("isometry products diagonal", engine.mismatches(
        (f"s*s at {la!r},{lb!r}", engine.s(la).adj() * engine.s(lb),
         engine.p(relative_range(g, full_set(g), la)) if la == lb else engine.zero())
        for la in labels for lb in labels))
    rep.tally("summation relation", engine.mismatches(summations()))
    return rep
