"""Normal-form arithmetic for labelled-space representations."""
from fractions import Fraction
from random import Random

import pytest

import corrkit.engine
from corrkit.engine import Element, Engine, substitute, tautological_checks
from corrkit.errors import BudgetError, UnsupportedSpaceError
from corrkit.exactlinalg import _ONE
from corrkit.properties import _engines, _factor_pool, _random_element
from corrkit.labelled import build_space, concrete_graph, relative_range, truncate_space
from corrkit.setexpr import SetExpr, atoms, tail
from corrkit.spheres import (SphereConfig, _row_engine, _row_images, build_beta, build_En_space,
                             psi_hat_images, rho_Y_images)
from oracles import fold_combine, fold_substitute, reference_mul


@pytest.fixture(scope="module")
def eng():
    return Engine(build_En_space(SphereConfig(2)))


def test_defining_relations(eng):
    g = eng.space.graph
    a1 = tail("v", 1)
    for lab in ("f1", "g", "h"):
        # s_a* s_a = p_{r(a)}
        sa = eng.s(lab)
        ra = relative_range(g, _full(g), lab)
        assert eng.equals(sa.adj() * sa, eng.p(ra))
        # p_A s_a = s_a p_{r(A,a)}
        lhs = eng.p(a1) * sa
        rhs = sa * eng.p(relative_range(g, a1, lab))
        assert eng.equals(lhs, rhs)


def _full(g):
    out = atoms(*g.named_vertices)
    for b in sorted(g.vertex_bases):
        out = out.union(tail(b, 1))
    return out


def test_projection_lattice(eng):
    a1, a2 = tail("v", 1), tail("v", 2)
    assert eng.equals(eng.p(a1) * eng.p(a2), eng.p(a2))
    u = eng.p(atoms("u1"))
    assert eng.equals(u * eng.p(a1), eng.zero())
    assert eng.equals(u * u, u)


def test_partial_isometries(eng):
    sh = eng.s("h")
    ph = eng.p(atoms("w1"))
    assert eng.equals(sh * sh.adj() * sh, sh)
    assert eng.equals(sh.adj() * sh, ph)


def test_boundary_difference_annihilates(eng):
    # A_2 - A_3 covers only the index-2 vertex; h departs there toward w1,
    # so the difference acts as an honest projection on s_h s_h*'s complement
    d = eng.p(tail("v", 2)) - eng.p(tail("v", 3))
    sg = eng.s("g")
    # g-edges departing A_2 \ A_3 land exactly on A_3 \ A_4
    lhs = d * sg
    rhs = sg * (eng.p(tail("v", 3)) - eng.p(tail("v", 4)))
    assert eng.equals(lhs, rhs)


def test_lattice_guard(eng):
    with pytest.raises(UnsupportedSpaceError):
        eng.p(atoms(("v", 2)))


def test_p_takes_one_vertex_key(eng):
    # an indexed vertex key is one vertex, not a list of vertices
    teng = Engine(truncate_space(build_En_space(SphereConfig(2)), 3))
    assert teng.p(("v", 3)).terms == teng.p(atoms(("v", 3))).terms
    for s in (("v", 1), atoms(("v", 1))):
        with pytest.raises(UnsupportedSpaceError):
            eng.p(s)


def test_linear_structure(eng):
    x = eng.p(tail("v", 1))
    y = eng.p(atoms("w2").union(tail("v", 1)))
    z = 2 * x + y - x
    assert eng.equals(z, x + y)
    assert eng.equals(z - x - y, eng.zero())
    assert not (x - x).terms or eng.equals(x - x, eng.zero())


def test_adjoint_is_involutive(eng):
    w = eng.s("g") * eng.s("h")
    assert eng.equals(w.adj().adj(), w)


def test_tautological_suite(eng):
    rep = tautological_checks(eng)
    assert rep.ok, rep.render()


@pytest.fixture(scope="module")
def edge_eng():
    g = concrete_graph(["a", "b"], [("e", "a", "b", "e")])
    return Engine(build_space(g, generators=[atoms("a"), atoms("b")]))


def test_substitute_sums_vertex_images(edge_eng):
    eng = edge_eng
    pa, pb = eng.p(atoms("a")), eng.p(atoms("b"))
    x = eng.p(atoms("a", "b"))
    assert len(x.terms) == 1  # one term over the two-vertex set
    got = substitute(x, eng, {}, {"a": pa, "b": 3 * pb})
    assert eng.equals(got, pa + 3 * pb)
    # labels go through s_images on both sides of the projection
    y = eng.s("e") * x * eng.s("e").adj()
    got = substitute(y, eng, {"e": eng.s("e")}, {"a": pa, "b": pb})
    assert eng.equals(got, eng.s("e") * eng.s("e").adj())


def test_substitute_refuses_missing_vertex_and_tail(edge_eng, eng):
    with pytest.raises(KeyError):
        substitute(edge_eng.p(atoms("a", "b")), edge_eng, {},
                   {"a": edge_eng.p(atoms("a"))})
    with pytest.raises(KeyError):
        substitute(eng.p(tail("v", 1)), eng, {}, {("v", 1): eng.zero()})


def test_combine_sums_images(edge_eng):
    eng = edge_eng
    pa, pb = eng.p(atoms("a")), eng.p(atoms("b"))
    assert not eng.combine({}, {"a": pa}).terms
    assert eng.equals(eng.combine({"a": 2, "b": -1}, {"a": pa, "b": pb}), 2 * pa - pb)


def _count_products(monkeypatch, eng) -> list:
    """Wrap `eng._product` on the instance; the list collects its calls."""
    calls = []
    inner = eng._product

    def counted(xt, yt):
        calls.append((xt, yt))
        return inner(xt, yt)

    monkeypatch.setattr(eng, "_product", counted)
    return calls


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_memoised_products_match_the_reference(which, monkeypatch):
    """Products through the engine's term-pair memo equal the pair-by-pair
    reduction: fresh pairs, repeated pairs (memo hits), adjoint pairs, and
    the same pair on a fresh engine, whose memo starts empty."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(20411 + which)
    pairs = [(_random_element(rng, eng, pool), _random_element(rng, eng, pool))
             for _ in range(60)]
    nonzero = 0
    for x, y in pairs:
        got = x * y
        assert got.terms == reference_mul(eng, x, y).terms
        nonzero += bool(got.terms)
        assert (y.adj() * x.adj()).terms == reference_mul(eng, y.adj(), x.adj()).terms
        assert (y.adj() * x.adj()).terms == got.adj().terms
    assert nonzero > len(pairs) // 4

    calls = _count_products(monkeypatch, eng)
    for x, y in pairs:
        assert (x * y).terms == reference_mul(eng, x, y).terms
    assert calls == []

    fresh = Engine(eng.space)
    calls = _count_products(monkeypatch, fresh)
    for x, y in pairs:
        fx, fy = Element(fresh, x.terms), Element(fresh, y.terms)
        assert (fx * fy).terms == reference_mul(eng, x, y).terms
    assert len(set(calls)) == len(calls) > 0


def test_budget_error_names_the_product_sizes(monkeypatch):
    eng, labels, sets = _engines()[1]
    x = eng.combine({lab: 1 for lab in labels}, {lab: eng.s(lab) for lab in labels})
    y = x.adj()
    m, n, size = len(x.terms), len(y.terms), len((x * y).terms)
    assert size > 1
    monkeypatch.setattr(corrkit.engine, "TERM_BUDGET", size - 1)
    fresh = Engine(eng.space)
    fx, fy = Element(fresh, x.terms), Element(fresh, y.terms)
    with pytest.raises(BudgetError) as info:
        fx * fy
    assert str(info.value) == f"product of {m} x {n} terms grew past {size - 1} terms"
    small = fx * fresh.p(sets[0])
    assert len(small.terms) <= size - 1
    assert small.terms == reference_mul(fresh, fx, fresh.p(sets[0])).terms
    monkeypatch.undo()
    assert (fx * fy).terms == reference_mul(fresh, fx, fy).terms


def _assert_stored(el: Element) -> None:
    """No stored coefficient is zero and every one is a `Fraction`."""
    assert all(type(c) is Fraction and c for c in el.terms.values()), el.terms


def _dense_sum(x: Element, y: Element, sign: int) -> dict:
    out: dict = {}
    for terms, s in ((x.terms, 1), (y.terms, sign)):
        for t, c in terms.items():
            out[t] = out.get(t, Fraction(0)) + s * c
    return {t: c for t, c in out.items() if c}


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_seeded_arithmetic_stores_only_nonzero_fractions(which):
    """Sums, differences, negations, adjoints, combinations, scalar
    multiples, products and one expansion round of seeded elements keep
    no zero and no non-`Fraction` coefficient; sums and differences equal
    the dense accumulation in value and key order, products equal the
    pair-by-pair reduction in value and key order, and an expansion
    round leaves the element unchanged."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(6089 + which)
    expanded = 0
    for _ in range(40):
        x = _random_element(rng, eng, pool)
        y = _random_element(rng, eng, pool)
        for got, want in ((x + y, _dense_sum(x, y, 1)), (x - y, _dense_sum(x, y, -1))):
            _assert_stored(got)
            assert list(got.terms.items()) == list(want.items())
        assert not (x - x).terms and not (x + -x).terms
        for got, want in ((-x, {t: -c for t, c in x.terms.items()}),
                          (x.adj(), {(b, s, a): c for (a, s, b), c in x.terms.items()}),
                          (eng.combine({"x": 2, "y": -1, "z": 0}, {"x": x, "y": y, "z": x}),
                           fold_combine(eng, {"x": 2, "y": -1}, {"x": x, "y": y}).terms)):
            _assert_stored(got)
            assert list(got.terms.items()) == list(want.items())
        for scalar in (0, 2, Fraction(-3, 4), "1/3"):
            for got in (scalar * x, x * scalar):
                _assert_stored(got)
                assert got.terms == {t: c * Fraction(scalar) for t, c in x.terms.items()
                                     if c * Fraction(scalar)}
        got, want = x * y, reference_mul(eng, x, y)
        _assert_stored(got)
        assert list(got.terms.items()) == list(want.terms.items())
        once = eng.expand_once(x)
        _assert_stored(once)
        expanded += once.terms != x.terms
        assert eng.equals(once, x)
    assert expanded > 0


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_combine_matches_the_fold_of_sums(which):
    """`combine` equals the fold of `out + c * images[sym]` in value and
    key order on seeded elements: with no cancellation forced, with
    terms that cancel, with terms that cancel and then come back (they
    go to the end), and with zero coefficients."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(7193 + which)
    for _ in range(40):
        x, y, z = (_random_element(rng, eng, pool) for _ in range(3))
        images = {"x": x, "y": y, "z": z, "-x": -x, "w": x + z}
        for vec in ({"x": 1, "y": Fraction(-2, 3), "z": 3},
                    {"x": 2, "w": -2, "z": 2},
                    {"x": 1, "-x": 1, "w": 1},
                    {"y": 0, "x": Fraction(1, 2), "-x": Fraction(1, 2), "z": -1},
                    {"z": 0}):
            got = eng.combine(vec, images)
            assert list(got.terms.items()) == list(fold_combine(eng, vec, images).terms.items())
        back = eng.combine({"x": 1, "-x": 1, "w": 1}, images)
        assert list(back.terms.items()) == list((x + z).terms.items())


def test_equal_terms_are_one_object():
    """One engine hands out one object per term: the same term built twice
    through `element`, from equal but distinct vertex sets, and once more
    as a product, is the identical tuple (so probes on it never compare
    vertex sets); another engine over the same space builds its own."""
    eng = _engines()[1][0]
    a, b = SetExpr((), [("v", 3)]), SetExpr((), [("v", 3)])
    assert a == b and a is not b
    [t1] = eng.element(("g",), a, ()).terms
    [t2] = eng.element(("g",), b, ()).terms
    [t3] = (eng.s("g") * eng.p(tail("v", 3))).terms
    assert t1 is t2 and t1 is t3
    [t4] = Engine(eng.space).element(("g",), b, ()).terms
    assert t4 == t1 and t4 is not t1


def test_a_product_with_the_shared_unit_is_the_other_factor():
    """Generators carry `_ONE`, so their products do too; `combine` and a
    scalar multiple by 1 keep the element's own coefficient objects; and
    a unit that is not `_ONE` is the coefficient a product by `_ONE` keeps."""
    eng, labels, sets = _engines()[1]
    products = [eng.s(lab) * eng.p(s) for lab in labels for s in sets]
    nonzero = [prod for prod in products if prod.terms]
    assert nonzero
    assert all(c is _ONE for prod in products for c in prod.terms.values())
    x = _random_element(Random(3319), eng, _factor_pool(eng, labels, sets))
    for got in (eng.combine({"g": 1}, {"g": x}), x * 1, 1 * x):
        assert list(got.terms) == list(x.terms)
        assert all(got.terms[t] is c for t, c in x.terms.items())
    own = Fraction(1)
    for got in (eng.combine({"g": own}, {"g": eng.s(labels[0])}), eng.s(labels[0]) * own,
                nonzero[-1] * own):
        assert got.terms and all(c is own for c in got.terms.values())


def _mixed_units(rng: Random, x: Element) -> Element:
    """x with each coefficient kept, made the shared `_ONE`, or made a
    fresh `Fraction(1)` that equals it but is another object."""
    return Element._of(x.engine, {t: rng.choice((c, _ONE, Fraction(1)))
                                  for t, c in x.terms.items()})


def _dense_expand_once(eng: Engine, x: Element) -> dict:
    out: dict = {}
    for t, c in x.terms.items():
        for u, e in (eng._expand_term(t) if eng._expandable(t) else {t: 1}).items():
            out[u] = out.get(u, Fraction(0)) + c * e
    return {u: c for u, c in out.items() if c}


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_unit_coefficients_change_no_value_and_no_order(which):
    """On seeded elements whose coefficients mix the shared `_ONE`, other
    `Fraction(1)` objects and other rationals, so that both sides of every
    unit test run: products equal the pair-by-pair reduction, `combine`
    the fold of sums and an expansion round the dense expansion, in value
    and key order; `equals` gives the verdict it gives on copies that hold
    no `_ONE`; and every stored coefficient is a nonzero `Fraction`."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(9157 + which)
    shared = fresh = 0
    for _ in range(40):
        x, y, z = (_mixed_units(rng, _random_element(rng, eng, pool)) for _ in range(3))
        for el in (x, y, z):
            shared += sum(c is _ONE for c in el.terms.values())
            fresh += sum(c == 1 and c is not _ONE for c in el.terms.values())
        got = x * y
        _assert_stored(got)
        assert list(got.terms.items()) == list(reference_mul(eng, x, y).terms.items())
        images = {"x": x, "y": y, "z": z, "-x": -x}
        for vec in ({"x": 1, "y": Fraction(1), "z": Fraction(-2, 3)},
                    {"x": 1, "-x": 1, "z": 1}, {"y": _ONE, "x": 2}):
            got = eng.combine(vec, images)
            _assert_stored(got)
            assert list(got.terms.items()) == list(fold_combine(eng, vec, images).terms.items())
        once = eng.expand_once(x)
        _assert_stored(once)
        assert list(once.terms.items()) == list(_dense_expand_once(eng, x).items())
        plain = {name: Element._of(eng, {t: Fraction(c.numerator, c.denominator)
                                         for t, c in el.terms.items()})
                 for name, el in (("x", x), ("y", y), ("once", once))}
        assert eng.equals(once, x) and eng.equals(plain["once"], x)
        assert eng.equals(x, y) == eng.equals(plain["x"], plain["y"])
        assert eng.equals_detail(x * z, y) == eng.equals_detail(plain["x"] * z, plain["y"])
    assert shared > 0 and fresh > 0


# (verdict, witness) of `equals_detail` on seeded unequal pairs, one list
# per property engine; the witnesses are the residuals "residual " + pin
_UNEQUAL_PINS = [
    [  # branchy
        "(3)*s[l,l,l].p{a,b}.s[l,l,l]*",
        "(1/2)*s[l,l,l,l].p{a,b}.s[l,l,l,l,l]*",
        "(-1)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(1)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(-1/2)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(1)*s[k,l,l,l].p{a,b}.s[l,l,l]*",
        "(-2)*s[k,l,l].p{a,b}.s[m,k,l,l]*",
        "(-2/3)*p{d}",
        "(2/3)*p{d}.s[s]*",
        "(-1)*s[m,k,l,l,l].p{a,b}.s[l,l,l]*",
        "(1)*s[k,l,l,l].p{a,b}.s[l,l,l]*",
        "(-1)*p{d}",
        "(2/3)*s[l,l,l,l,l].p{a,b}.s[l,l,l,l]*",
        "(1/3)*s[l,l,l].p{a,b}.s[l,l,l,l]*",
        "(3/2)*s[l,l,l,l].p{a,b}.s[l,l,l]*",
        "(2)*s[k,l,l,l,l].p{a,b}.s[l,l,l,l]*",
        "(1/3)*p{d}",
        "(1)*s[l,l,l].p{a,b}.s[k,l,l,l]*",
        "(-2)*p{d}.s[s]*",
        "(1/3)*p{d}.s[s]*",
        "(-11/6)*s[l,l,l,l].p{a,b}.s[l,l,l,l]*",
        "(3)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(1/3)*p{d}",
        "(-1/2)*s[l,l,l,l].p{a,b}.s[l,l,l,l,l]*",
        "(1)*s[s].p{d}.s[s]*",
        "(-1)*p{d}",
        "(-1)*p{d}.s[s]*",
        "(2)*p{d}",
        "(3/2)*p{d}.s[s]*",
        "(1/2)*s[l,l,l,l].p{a,b}.s[l,l,l]*",
        "(-3)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(-1)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(1/2)*s[l,m,k,l,l].p{a,b}.s[k,l,l]*",
        "(-2/3)*s[m,k,l,l,l].p{a,b}.s[k,l,l,l]*",
        "(2)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(1/2)*s[l,l,l,l].p{a,b}.s[k,l,l,l,l]*",
        "(-1)*s[l,l,l,l].p{a,b}.s[l,l,l,l]*",
        "(-2/3)*s[k,l,l,l].p{a,b}.s[m,k,l,l,l]*",
        "(-3)*p{d}",
        "(1/2)*s[s].p{d}",
    ],
    [  # E_2
        "(-1)*s[f1].p{w1}",
        "(2)*p{w1}.s[f1]*",
        "(3)*s[e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(-3/2)*s[g,g,g,g].p{v>=7}.s[g,g,g,g]*",
        "(1/3)*p{w1}.s[h]*",
        "(-1)*s[h].p{w1}",
        "(-1/3)*p{w1}.s[h]*",
        "(1)*p{w1}.s[e_1_1,f1]*",
        "(-1)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(2)*s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(3/2)*s[f1].p{w1}",
        "(2)*p{w1}",
        "(-1)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1]*",
        "(2)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(-3)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(-1)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(-1/2)*p{w1}",
        "(3)*p{w1}",
        "(-1)*p{w1}",
        "(2)*p{w1}",
        "(-1/2)*p{w1}.s[g,h]*",
        "(-3/2)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(1)*p{w1}.s[h]*",
        "(1)*s[e_1_1,e_1_1,e_1_1,e_1_1].p{u1}.s[e_1_1,e_1_1,e_1_1,e_1_1]*",
        "(1/3)*p{w1}.s[f1]*",
        "(3)*s[g,g,g,g,g].p{v>=5}.s[g,g,g,g,g]*",
        "(1/2)*s[g,g,g,g].p{v>=5}.s[g,g,g,g,g]*",
        "(-3)*p{w1}.s[f1]*",
        "(2)*s[f1].p{w1}",
        "(1)*s[g,g,g,g].p{v>=7}.s[g,g,g]*",
        "(1/3)*s[g,g,g,g,g].p{v>=5}.s[g,g,g,g]*",
        "(-1)*s[f1].p{w1}.s[f1]*",
        "(-3/2)*s[f1].p{w1}",
        "(1/2)*s[g,g,g,g].p{v>=8}.s[g,g,g,g,g]*",
        "(-3)*s[f1].p{w1}",
        "(-5/6)*s[h].p{w1}",
        "(-1)*p{w1}.s[h]*",
        "(-1)*s[g,g,g,g,g].p{v>=6}.s[g,g,g,g,g]*",
        "(-1)*p{w1}.s[h]*",
        "(11/6)*p{w1}",
    ],
]


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_unequal_pairs_keep_their_verdict_and_witness(which):
    """On seeded pairs whose difference needs below-level, joint and no
    expansion rounds, `equals_detail` gives the pinned verdict and
    residual witness, and the difference equals the dense sum in value
    and key order."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(4421 + which)
    for pin in _UNEQUAL_PINS[which]:
        x, y, z = (_random_element(rng, eng, pool) for _ in range(3))
        lhs, rhs = x * z + eng.expand_once(y), y + x * z + z
        assert eng.equals_detail(lhs, rhs) == (False, "residual " + pin)
        assert list((lhs - rhs).terms.items()) == list(_dense_sum(lhs, rhs, -1).items())
        assert list((x - y).terms.items()) == list(_dense_sum(x, y, -1).items())


def _count_zero_test_calls(monkeypatch, eng) -> dict:
    """Wrap `eng._nonzero_cell` and `eng._expand` on the instance; the
    dict counts their calls."""
    calls = {"_nonzero_cell": 0, "_expand": 0}
    for name in calls:
        inner = getattr(eng, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(eng, name, counted)
    return calls


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_sides_with_the_same_terms_are_equal_without_a_zero_test(which, monkeypatch):
    """Sides holding the same terms, in any key order, are `(True, None)`
    and neither the cell test nor an expansion runs."""
    eng, labels, sets = _engines()[which]
    pool = _factor_pool(eng, labels, sets)
    rng = Random(7310 + which)
    pairs = []
    for _ in range(40):
        x, y, z = (_random_element(rng, eng, pool) for _ in range(3))
        pairs += [(x, x), (x + y, y + x), (x * z, Element(eng, dict(reversed((x * z).terms.items()))))]
    pairs.append((eng.zero(), eng.zero()))
    assert any(list(a.terms) != list(b.terms) for a, b in pairs)
    calls = _count_zero_test_calls(monkeypatch, eng)
    for a, b in pairs:
        assert a.terms == b.terms
        assert eng.equals_detail(a, b) == (True, None)
    assert calls == {"_nonzero_cell": 0, "_expand": 0}


@pytest.mark.parametrize("which", [0, 1], ids=["branchy", "E_2"])
def test_equal_sides_with_different_terms_still_take_the_zero_test(which, monkeypatch):
    """Each summation case of `tautological_checks` sets p(A) against its
    expansion: equal sides whose terms differ, which `equals_detail`
    proves equal through the cell test and an expansion."""
    eng = _engines()[which][0]
    cases = []
    inner = eng.mismatches

    def recorded(given):
        given = list(given)
        cases.extend(c for c in given if c[0].startswith("summation relation at"))
        return inner(given)

    monkeypatch.setattr(eng, "mismatches", recorded)
    assert tautological_checks(eng).ok
    assert cases
    calls = _count_zero_test_calls(monkeypatch, eng)
    for _, lhs, rhs in cases:
        assert lhs.terms != rhs.terms
        before = dict(calls)
        assert eng.equals_detail(lhs, rhs) == (True, None)
        assert calls["_nonzero_cell"] > before["_nonzero_cell"]
        assert calls["_expand"] > before["_expand"]


@pytest.mark.parametrize("n", [1, 2])
def test_substitute_matches_the_fold_of_sums(n):
    """`substitute` equals the fold of `out + c * acc` in value and key
    order on the module and algebra images that the omega factorisation
    pushes through the sink-killing extension and then the flip, and on
    the flip of its own edge images."""
    cfg = SphereConfig(n)
    disc, sphere = _row_engine(n, n + 1), _row_engine(n, n)
    mod, alg = rho_Y_images(cfg, *_row_images(disc, n, n + 1, "w", "P"))
    hat_s, hat_p, _ = psi_hat_images(cfg, sphere)
    beta_s, beta_p, _ = build_beta(cfg, sphere)
    checked = 0
    for el in [*mod.values(), *alg.values(), *beta_s.values()]:
        hat = substitute(el, sphere, hat_s, hat_p)
        for got, want in ((hat, fold_substitute(el, sphere, hat_s, hat_p)),
                          (substitute(hat, sphere, beta_s, beta_p),
                           fold_substitute(hat, sphere, beta_s, beta_p))):
            _assert_stored(got)
            assert list(got.terms.items()) == list(want.terms.items())
            checked += bool(want.terms)
    assert checked >= len(mod)


def test_combine_needs_every_symbol_whatever_its_coefficient(edge_eng):
    pa = edge_eng.p(atoms("a"))
    for c in (0, 1, Fraction(0)):
        with pytest.raises(KeyError):
            edge_eng.combine({"a": 1, "missing": c}, {"a": pa})
