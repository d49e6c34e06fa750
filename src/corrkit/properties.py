"""Randomized property suites over the exact kernels.

Each suite draws a fixed number of cases from a seeded generator and
replays an algebraic law verbatim, reporting the first counterexample
with the inputs that produced it.  Two term engines are exercised: a
small branchy concrete graph whose shared label forces genuinely
labelled behaviour, and the indexed mirror-sphere space whose tail sets
exercise the infinite side.  All scalars are rational, so every
comparison is exact.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random

from .engine import Engine
from .exactlinalg import det
from .labelled import (LabelledGraph, build_space, concrete_graph,
                       label_instances, relative_range)
from .reports import Report
from .setexpr import SetExpr, atoms as atom_set, tail
from .smith import smith_normal_form
from .spheres import SphereConfig, build_En_graph, build_En_space

DEFAULT_SEED = 20411
DEFAULT_CASES = 1000

_MATERIALIZE_TO = 14
_COMPARE_TO = 8


def _branchy_graph():
    """Concrete test graph: a cycle, a sink, and one label shared by
    two edges out of the same vertex (so it is not left resolving)."""
    return concrete_graph(
        ["a", "b", "c", "d"],
        [("l1", "a", "a", "l"), ("l2", "a", "b", "l"),
         ("m", "b", "c", "m"), ("k", "c", "a", "k"),
         ("s", "c", "d", "s")])


def _engines():
    cg = _branchy_graph()
    eng1 = Engine(build_space(cg, generators=[atom_set(v)
                                              for v in "abcd"]))
    eng2 = Engine(build_En_space(SphereConfig(2, 4)))
    return [(eng1, sorted(label_instances(cg, eng1.space.horizon)),
             [atom_set(v) for v in "abcd"]),
            (eng2, sorted(label_instances(build_En_graph(SphereConfig(2, 4)),
                                          eng2.space.horizon)),
             [atom_set("u1"), atom_set("w1"), tail("v", 1), tail("v", 3),
              atom_set("w2").union(tail("v", 1))])]


def _factor_pool(eng, labels, sets):
    pool = [eng.s(lab) for lab in labels]
    pool += [eng.s(lab).adj() for lab in labels]
    pool += [eng.p(s) for s in sets]
    return pool


def _random_word(rng: Random, pool):
    el = pool[rng.randrange(len(pool))]
    for _ in range(rng.randrange(0, 3)):
        nxt = el * pool[rng.randrange(len(pool))]
        if nxt.terms:
            el = nxt
    return el


_COEFFS = [Fraction(c, d) for c in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]


def _random_element(rng: Random, eng, pool, terms=3):
    out = eng.zero()
    for _ in range(rng.randint(1, terms)):
        out = out + _COEFFS[rng.randrange(len(_COEFFS))] * _random_word(rng, pool)
    return out


def associativity_suite(cases: int = DEFAULT_CASES,
                        seed: int = DEFAULT_SEED) -> Report:
    """(x y) z = x (y z) for random engine elements."""
    rng = Random(seed)
    rep = Report("product associativity")
    nontrivial = 0
    bad = ""
    for eng, labels, sets in _engines():
        pool = _factor_pool(eng, labels, sets)
        for _ in range(cases // 2):
            x = _random_element(rng, eng, pool)
            y = _random_element(rng, eng, pool)
            z = _random_element(rng, eng, pool)
            left = (x * y) * z
            right = x * (y * z)
            if left.terms:
                nontrivial += 1
            if not bad and not eng.equals(left, right):
                bad = f"x={x!r} y={y!r} z={z!r}"
    rep.add(f"associativity holds on {2 * (cases // 2)} cases", not bad, bad)
    rep.add("nonzero products seen", nontrivial > cases // 10,
            f"{nontrivial} nontrivial cases")
    return rep


def involution_suite(cases: int = DEFAULT_CASES,
                     seed: int = DEFAULT_SEED) -> Report:
    """(x y)* = y* x*, x** = x, and additivity of the involution."""
    rng = Random(seed + 1)
    rep = Report("involution")
    bad_anti = bad_inv = bad_add = ""
    for eng, labels, sets in _engines():
        pool = _factor_pool(eng, labels, sets)
        for _ in range(cases // 2):
            x = _random_element(rng, eng, pool)
            y = _random_element(rng, eng, pool)
            if not bad_anti and not eng.equals((x * y).adj(),
                                               y.adj() * x.adj()):
                bad_anti = f"x={x!r} y={y!r}"
            if not bad_inv and x.adj().adj().terms != x.terms:
                bad_inv = f"x={x!r}"
            if not bad_add and (x + y).adj().terms != (x.adj() + y.adj()).terms:
                bad_add = f"x={x!r} y={y!r}"
    rep.add(f"anti-multiplicativity on {2 * (cases // 2)} cases",
            not bad_anti, bad_anti)
    rep.add("involution is its own inverse", not bad_inv, bad_inv)
    rep.add("involution is additive", not bad_add, bad_add)
    return rep


def _degrees(el) -> set:
    return {len(a) - len(b) for (a, _, b) in el.terms}


def grading_suite(cases: int = DEFAULT_CASES,
                  seed: int = DEFAULT_SEED) -> Report:
    """Products of homogeneous elements are homogeneous of the summed
    degree; generator words are homogeneous to begin with."""
    rng = Random(seed + 2)
    rep = Report("integer grading")
    bad_word = bad_prod = ""
    tested = 0
    for eng, labels, sets in _engines():
        pool = _factor_pool(eng, labels, sets)
        for _ in range(cases // 2):
            x = _random_word(rng, pool)
            y = _random_word(rng, pool)
            if not bad_word and (len(_degrees(x)) > 1 or len(_degrees(y)) > 1):
                bad_word = f"mixed degrees in a generator word: {x!r}"
            dx, dy = _degrees(x), _degrees(y)
            if not dx or not dy:
                continue
            tested += 1
            got = _degrees(x * y)
            want = {next(iter(dx)) + next(iter(dy))}
            if not bad_prod and got and got != want:
                bad_prod = f"x={x!r} y={y!r} degrees {sorted(got)}"
    rep.add("generator words are homogeneous", not bad_word, bad_word)
    rep.add("degrees add under products", not bad_prod,
            bad_prod or f"{tested} nonzero pairs")
    return rep


def _finite_edges(g: LabelledGraph, up_to: int) -> list:
    out = [(e.src, e.dst, e.label) for e in g.edges]
    for fam in g.families:
        for i in range(fam.start, up_to + 1):
            out.append((fam.src_at(i), fam.dst_at(i), fam.label_at(i)))
    return out


def _naive_range(edges, vertices: frozenset, label) -> frozenset:
    return frozenset(dst for src, dst, lab in edges
                     if lab == label and src in vertices)


def range_cocycle_suite(cases: int = DEFAULT_CASES,
                        seed: int = DEFAULT_SEED) -> Report:
    """Relative-range laws.

    Union linearity and monotonicity are checked on the symbolic sets;
    word ranges folded through the symbolic computation are compared,
    after truncation, with ranges walked step by step over an
    independently materialized finite graph.  Intersections are only
    sub-multiplicative here because neither test graph is left
    resolving.
    """
    rng = Random(seed + 3)
    rep = Report("relative range")
    graphs = [(_branchy_graph(),
               [atom_set(v) for v in "abcd"]
               + [atom_set("a", "c"), atom_set("b", "d")]),
              (build_En_graph(SphereConfig(2, 4)),
               [atom_set("u1"), atom_set("w1"), atom_set("w2"),
                tail("v", 1), tail("v", 2), tail("v", 4),
                atom_set(("v", 1)), atom_set(("v", 3)),
                atom_set("w2").union(tail("v", 1))])]
    bad_union = bad_mono = bad_meet = bad_walk = ""
    for g, pool in graphs:
        labels = sorted(label_instances(g, _MATERIALIZE_TO))
        edges = _finite_edges(g, _MATERIALIZE_TO)
        for _ in range(cases // 2):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            lab = labels[rng.randrange(len(labels))]
            ra, rb = relative_range(g, a, lab), relative_range(g, b, lab)
            ru = relative_range(g, a.union(b), lab)
            want = ra.union(rb)
            if not bad_union and not (ru.is_subset(want) and want.is_subset(ru)):
                bad_union = f"A={a!r} B={b!r} label={lab}"
            if not bad_mono and a.is_subset(b) and not ra.is_subset(rb):
                bad_mono = f"A={a!r} B={b!r} label={lab}"
            rm = relative_range(g, a.intersect(b), lab)
            if not bad_meet and not rm.is_subset(ra.intersect(rb)):
                bad_meet = f"A={a!r} B={b!r} label={lab}"

            word = [labels[rng.randrange(len(labels))]
                    for _ in range(rng.randint(1, 3))]
            sym = a
            fin = frozenset(v for v in a.truncate(_MATERIALIZE_TO))
            for step in word:
                sym = relative_range(g, sym, step)
                fin = _naive_range(edges, fin, step)
            got = sym.truncate(_COMPARE_TO)
            wantf = frozenset(v for v in fin
                              if not (isinstance(v, tuple) and v[1] > _COMPARE_TO))
            if not bad_walk and got != wantf:
                bad_walk = f"A={a!r} word={word} got={sorted(map(str, got))} want={sorted(map(str, wantf))}"
    rep.add("range of a union is the union of ranges", not bad_union, bad_union)
    rep.add("range is monotone", not bad_mono, bad_mono)
    rep.add("range of an intersection is contained in the intersection",
            not bad_meet, bad_meet)
    rep.add("symbolic word ranges match the materialized graph walk",
            not bad_walk, bad_walk)
    return rep


def _random_setexpr(rng: Random, depth: int) -> SetExpr:
    if depth == 0:
        kind = rng.randrange(3)
        if kind == 0:
            return atom_set(*[v for v in "pqr" if rng.randrange(2)])
        if kind == 1:
            return atom_set(("t", rng.randint(1, 5)))
        return tail("t", rng.randint(1, 5))
    a = _random_setexpr(rng, depth - 1)
    b = _random_setexpr(rng, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return a.union(b)
    if op == 1:
        return a.intersect(b)
    return a.difference(b)


def setexpr_truncation_suite(cases: int = DEFAULT_CASES,
                             seed: int = DEFAULT_SEED) -> Report:
    """Set expressions against their finite models.

    Truncation is intersection with a finite universe, so it commutes
    with every Boolean operation; subset and emptiness verdicts must
    match the finite model once the universe passes every index in
    sight.
    """
    rng = Random(seed + 4)
    rep = Report("set expressions vs finite models")
    bad_op = bad_sub = bad_empty = ""
    ops = [("union", SetExpr.union, frozenset.union),
           ("intersect", SetExpr.intersect, frozenset.intersection),
           ("difference", SetExpr.difference, frozenset.difference)]
    for _ in range(cases):
        a = _random_setexpr(rng, rng.randrange(3))
        b = _random_setexpr(rng, rng.randrange(3))
        horizon = max(a.max_index(), b.max_index(), 1) + 2
        name, sym_op, fin_op = ops[rng.randrange(3)]
        got = sym_op(a, b).truncate(horizon)
        want = fin_op(a.truncate(horizon), b.truncate(horizon))
        if not bad_op and got != want:
            bad_op = f"{name}: A={a!r} B={b!r}"
        sub = a.is_subset(b)
        fin_sub = a.truncate(horizon) <= b.truncate(horizon)
        if not bad_sub and sub != fin_sub:
            bad_sub = f"A={a!r} B={b!r} symbolic={sub}"
        if not bad_empty and a.is_empty() != (not a.truncate(horizon)):
            bad_empty = f"A={a!r}"
    rep.add(f"boolean operations commute with truncation on {cases} cases",
            not bad_op, bad_op)
    rep.add("subset verdicts match the finite model", not bad_sub, bad_sub)
    rep.add("emptiness matches the finite model", not bad_empty, bad_empty)
    return rep


def _int_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def snf_selfcheck_suite(cases: int = DEFAULT_CASES,
                        seed: int = DEFAULT_SEED) -> Report:
    """Smith forms of random integer matrices, recomputed from scratch.

    The decomposition routine verifies itself on every call; this suite
    additionally recomputes U M V, the divisibility chain and the
    unimodularity of the transforms with independent arithmetic.
    """
    rng = Random(seed + 5)
    rep = Report("Smith normal form")
    bad = ""
    for k in range(cases):
        rows = rng.randint(1, 4)
        cols = rng.randint(0, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        try:
            u, s, v = smith_normal_form(m)
        except AssertionError as exc:
            bad = bad or f"self-check raised on {m}: {exc}"
            continue
        prod = _int_matmul(_int_matmul(u, m), v)
        if prod != s:
            bad = bad or f"U M V != S for {m}"
            continue
        diag = [s[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if x < 0 or (x == 0 and y != 0) or (x != 0 and y % x != 0):
                bad = bad or f"diagonal {diag} for {m}"
        du = det(u)
        dv = det(v)
        if abs(du) != 1 or abs(dv) != 1:
            bad = bad or f"transforms not unimodular for {m}"
    rep.add(f"decompositions verified on {cases} matrices", not bad, bad)
    return rep


def run_property_suites(cases: int = DEFAULT_CASES,
                        seed: int = DEFAULT_SEED) -> Report:
    """All six suites under one report, with the case budget split
    evenly and the seed offset per suite so runs are reproducible."""
    rep = Report(f"property suites ({cases} cases, seed {seed})")
    rep.merge(associativity_suite(cases, seed))
    rep.merge(involution_suite(cases, seed))
    rep.merge(grading_suite(cases, seed))
    rep.merge(range_cocycle_suite(cases, seed))
    rep.merge(setexpr_truncation_suite(cases, seed))
    rep.merge(snf_selfcheck_suite(cases, seed))
    return rep
