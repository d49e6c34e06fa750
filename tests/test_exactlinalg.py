"""Exact rational linear algebra: solvers, spans, and the PSD test."""
import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from corrkit.exactlinalg import (_ONE, SpanSolver, _axpy, _table_apply, det, express, frac,
                                 is_psd, mat_mul, nullspace, same_span, solve, sort_key,
                                 vclean, vec_repr)

from corrkit.correspondences import theta
from corrkit.spheres import SphereConfig, build_X_A, build_Y_B
from oracles import dense_table_apply, int_det


def test_frac_accepts_strings_and_ints():
    assert frac("3/2") == Fraction(3, 2)
    assert frac(-4) == Fraction(-4)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)


def test_vclean_drops_zeros():
    assert vclean({"a": Fraction(0), "b": Fraction(2)}) == {"b": Fraction(2)}


def test_axpy_cancels_in_place_and_keeps_key_order():
    out = {"a": Fraction(1), "b": Fraction(2)}
    _axpy(out, Fraction(-1, 2), {"c": Fraction(2), "a": Fraction(2), "d": Fraction(4)})
    assert out == {"b": Fraction(2), "c": Fraction(-1), "d": Fraction(-2)}
    assert list(out) == ["b", "c", "d"]
    _axpy(out, 2, {"a": Fraction(1), "c": Fraction(1, 2)})
    assert list(out.items()) == [("b", Fraction(2)), ("d", Fraction(-2)), ("a", Fraction(2))]


def test_frac_of_one_is_the_shared_unit():
    assert frac(1) is _ONE
    own = Fraction(1)
    assert frac(own) is own


def test_axpy_by_the_unit_stores_the_vectors_own_values():
    """A new key gets v's own value object; a key already present gets
    the sum, and one that cancels leaves."""
    v = {"a": Fraction(2, 3), "b": Fraction(-1), "c": Fraction(5)}
    out = {"b": Fraction(1), "c": Fraction(1)}
    _axpy(out, _ONE, v)
    assert list(out.items()) == [("c", Fraction(6)), ("a", Fraction(2, 3))]
    assert out["a"] is v["a"]


def test_axpy_by_a_vector_of_units_stores_the_coefficient_itself():
    """The unit rule holds on both factors: against a `_ONE` entry, a new
    key gets `c` itself and a key already present gets the sum."""
    c = Fraction(-2, 3)
    out = {"a": Fraction(1, 3)}
    _axpy(out, c, {"a": _ONE, "b": _ONE})
    assert list(out.items()) == [("a", Fraction(-1, 3)), ("b", c)]
    assert out["b"] is c


def test_sphere_tables_and_theta_carry_the_shared_unit():
    """Every unit entry of the X and Y tables and their algebras, and the
    coefficient of a rank-one operator, is the one `_ONE`."""
    cfg = SphereConfig(2)
    units = [theta({"y": _ONE}, {"y": _ONE}).terms[0][0]]
    for corr in (build_X_A(cfg), build_Y_B(cfg)):
        for table in (corr._inner, corr._right, corr._left, corr.algebra._table):
            units += [c for v in table.values() for c in v.values() if c == 1]
    assert len(units) > 50 and all(c is _ONE for c in units)


def test_the_shared_unit_is_the_only_fraction_one_in_the_package():
    """`Fraction(1)` is built once, as `exactlinalg._ONE`: a unit of its
    own elsewhere would miss the unit rule of `_axpy` and the term engine."""
    src = Path(__file__).resolve().parent.parent / "src" / "corrkit"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named = {id(n.value): ast.unparse(n.targets[0])
                 for n in ast.walk(tree) if isinstance(n, ast.Assign)}
        found += [(path.name, named.get(id(n))) for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and ast.unparse(n) == "Fraction(1)"]
    assert found == [("exactlinalg.py", "_ONE")]


_TABLE_COEFFS = [0, 1, -1, 2, Fraction(0), Fraction(2, 3), Fraction(-3, 2), Fraction(1, 2)]


def _sparse_table_cases(seed, count=150):
    """Seeded (table, x, y) triples over five keys: linear tables with
    empty entries, bilinear tables that store about 40% of the key pairs,
    coefficients that include `int`s and zeros, and in every bilinear case
    two entries that cancel against each other (the pair (k0, k1) stores
    the negative of (k0, k2), and y weighs k1 and k2 alike)."""
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(5)]
    symbols = [f"e{i}" for i in range(6)]
    nonzero = [c for c in _TABLE_COEFFS if c]

    def vec(most):
        return {e: Fraction(rng.choice(nonzero)) for e in rng.sample(symbols, rng.randint(0, most))}

    def coeffs():
        return {k: rng.choice(_TABLE_COEFFS) for k in rng.sample(keys, rng.randint(0, 5))}

    cases = []
    for _ in range(count):
        linear = {k: vec(3) for k in keys}
        cases.append((linear, coeffs(), None))
        bilinear = {(k, l): vec(3) for k in keys for l in keys if rng.random() < 0.4}
        shared = vec(3) or {"e0": Fraction(1)}
        bilinear[("k0", "k1")] = shared
        bilinear[("k0", "k2")] = {e: -c for e, c in shared.items()}
        x = coeffs()
        x["k0"] = rng.choice(nonzero)
        y = coeffs()
        y["k1"] = y["k2"] = rng.choice(nonzero)
        cases.append((bilinear, x, y))
    return cases


def test_table_apply_matches_the_dense_loop_on_seeded_sparse_tables():
    cancelled = 0
    for table, x, y in _sparse_table_cases(4127):
        got = _table_apply(table, x, y)
        assert got == dense_table_apply(table, x, y), (table, x, y)
        assert all(type(c) is Fraction and c for c in got.values())
        if y is not None and not _table_apply(table, {"k0": x["k0"]}, {"k1": 1, "k2": 1}):
            cancelled += 1
    assert cancelled == 150


class _CountingFraction(Fraction):
    """A coefficient that counts the products it is the left factor of."""

    products = 0

    def __mul__(self, other):
        _CountingFraction.products += 1
        return Fraction(self) * other


def test_bilinear_table_apply_multiplies_only_pairs_with_an_entry():
    for table, x, y in _sparse_table_cases(5303, count=40)[1::2]:
        stored = sum(bool(table.get((k, l))) for k in x for l in y)
        _CountingFraction.products = 0
        counted = {k: _CountingFraction(c) for k, c in x.items()}
        assert _table_apply(table, counted, y) == dense_table_apply(table, x, y)
        assert _CountingFraction.products == stored


def test_linear_table_apply_needs_every_key():
    with pytest.raises(KeyError):
        _table_apply({"a": {"e": Fraction(1)}}, {"a": Fraction(1), "b": Fraction(0)})


def test_sort_key_orders_mixed_types():
    keys = [("v", 2), "P1", 3, ("v", 1), 1, "A"]
    assert sorted(keys, key=sort_key) == [1, 3, "A", "P1", ("v", 1), ("v", 2)]


def test_sort_key_handles_tuples():
    items = [("v", 10), ("v", 2), "w1"]
    ordered = sorted(items, key=sort_key)
    assert ordered.index(("v", 2)) < ordered.index(("v", 10))


def test_vec_repr_deterministic():
    v = {"b": Fraction(1), "a": Fraction(-2)}
    assert vec_repr(v) == "(-2)*a + b" or vec_repr(v).count("a") == 1


def test_span_solver_identifies_pivots():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert SpanSolver(dict(enumerate(row)) for row in rows).dim == 2
    cols = SpanSolver()
    assert [cols.add({i: row[j] for i, row in enumerate(rows)})
            for j in range(3)] == [True, True, False]


def test_solve_consistent_and_inconsistent():
    a = [[1, 1], [0, 1]]
    assert solve(a, [3, 1]) == [Fraction(2), Fraction(1)]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_nullspace_annihilates():
    a = [[1, 2, 3], [0, 1, 1]]
    for v in nullspace(a):
        for row in a:
            assert sum(r * x for r, x in zip(row, v)) == 0
    assert len(nullspace(a)) == 1


def test_express_in_terms_of_generators():
    gens = [{"x": Fraction(1)}, {"x": Fraction(1), "y": Fraction(1)}]
    coeffs = express({"y": Fraction(2)}, gens)
    assert coeffs == [Fraction(-2), Fraction(2)]
    assert express({"z": Fraction(1)}, gens) is None


def test_span_solver_express_over_inputs():
    s = SpanSolver([{"x": 1}, {"x": 2}, {"x": 1, "y": 1}])
    # the dependent second input gets coefficient 0
    assert s.express({"x": 3, "y": 2}) == [Fraction(1), Fraction(0), Fraction(2)]
    assert s.express({}) == [Fraction(0)] * 3
    assert s.express({"z": 1}) is None
    s.add({"z": 1})
    assert s.express({"z": 1}) == [0, 0, 0, 1]


def test_span_solver_incremental():
    s = SpanSolver()
    assert s.add({"a": Fraction(1)})
    assert not s.add({"a": Fraction(7)})
    assert s.add({"b": Fraction(1)})
    assert s.dim == 2
    assert s.contains({"a": Fraction(2), "b": Fraction(-1)})
    assert not s.contains({"c": Fraction(1)})


def test_same_span():
    a = [{"x": Fraction(1)}, {"y": Fraction(1)}]
    b = [{"x": Fraction(1), "y": Fraction(1)}, {"x": Fraction(1), "y": Fraction(-1)}]
    assert same_span(a, b)
    assert not same_span(a, [{"x": Fraction(1)}])


def test_det_small():
    assert det([[2, 0], [0, 3]]) == 6
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[0, 1], [1, 0]]) == -1


def _square_cases(seed, entry):
    """Seeded square matrices up to 6 x 6 (0 x 0 first) with entries from
    `entry(rng)`, plus singular ones (a repeated row) and ones whose
    (0, 0) entry is zero, so elimination must swap rows."""
    rng = random.Random(seed)
    cases = [[]]
    for k in range(120):
        n = rng.randint(1, 6)
        m = [[entry(rng) for _ in range(n)] for _ in range(n)]
        if k % 4 == 1 and n > 1:
            m[-1] = list(m[0])
        elif k % 4 == 2:
            m[0][0] = 0
        cases.append(m)
    return cases


def _int_entry(rng):
    return rng.choice([0, rng.randint(-3, 3), rng.randint(-10**12, 10**12)])


def _mixed_entry(rng):
    if rng.random() < 0.5:
        return _int_entry(rng)
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def test_det_matches_cofactor_oracle_on_integers():
    for m in _square_cases(17, _int_entry):
        d = det(m)
        assert type(d) is Fraction and d == int_det(m), m


def test_det_matches_sympy_on_rationals():
    sympy = pytest.importorskip("sympy")
    for m in _square_cases(18, _mixed_entry):
        expect = sympy.Matrix(m).det() if m else 1
        assert det(m) == Fraction(int(sympy.numer(expect)), int(sympy.denom(expect))), m


def test_det_edge_cases():
    assert det([]) == 1 and type(det([])) is Fraction
    # integer rows skip the rescale, yet every result is still a Fraction
    for m in ([[0]], [[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
              [[2, 1], [1, 1]], [[7]]):
        assert type(det(m)) is Fraction and det(m) == int_det(m), m
    assert det([[1, 0], [2, 0]]) == Fraction(0)
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert det([[Fraction(1, 2), 1], [3, Fraction(2, 3)]]) == Fraction(-8, 3)


def test_mat_mul_keeps_ints_and_matches_fraction_product():
    rng = random.Random(19)
    for _ in range(150):
        n, k, m = (rng.randint(0, 6) for _ in range(3))
        a = [[_int_entry(rng) for _ in range(k)] for _ in range(n)]
        b = [[_int_entry(rng) for _ in range(m)] for _ in range(k)]
        prod = mat_mul(a, b)
        assert all(type(x) is int for row in prod for x in row)
        expect = [[sum((Fraction(a[i][t]) * Fraction(b[t][j]) for t in range(k)), Fraction(0))
                   for j in range(m if k else 0)] for i in range(n)]
        assert prod == expect, (a, b)
        fa = [[Fraction(x, 7) for x in row] for row in a]
        assert mat_mul(fa, b) == [[x / 7 for x in row] for row in expect]


@pytest.mark.parametrize("g,expect", [
    ([[1, 0], [0, 1]], True),
    ([[1, 2], [2, 1]], False),
    ([[2, 1], [1, 2]], True),
    ([[0, 0], [0, 0]], True),
    ([[1, 1], [1, 1]], True),
])
def test_is_psd(g, expect):
    gm = [[Fraction(x) for x in row] for row in g]
    assert is_psd(gm) is expect


# ---------------------------------------------------------- sympy oracle


def _random_matrix(rng, nrows, ncols):
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             if rng.random() < density else Fraction(0) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:  # rank deficient: a row combination
        i, j = rng.sample(range(nrows), 2)
        rows[i] = [2 * x - y for x, y in zip(rows[j], rows[i - 1])]
    if ncols > 1 and rng.random() < 0.4:  # a column repeated with a factor
        i, j = rng.sample(range(ncols), 2)
        for row in rows:
            row[i] = Fraction(-3, 2) * row[j]
    if ncols and rng.random() < 0.3:  # a zero column
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = Fraction(0)
    return rows


def _oracle_cases():
    rng = random.Random(20240)
    cases = [([], []), ([[]], [Fraction(0)]), ([[], []], [Fraction(0), Fraction(1)]),
             ([[0, 0, 0]], [Fraction(0)]), ([[0, 0], [0, 0]], [Fraction(1), Fraction(0)])]
    for _ in range(80):
        nrows, ncols = rng.randint(1, 5), rng.randint(0, 5)
        a = _random_matrix(rng, nrows, ncols)
        if rng.random() < 0.5:  # consistent by construction
            x = [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
            b = [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a]
        else:
            b = [Fraction(rng.randint(-3, 3)) for _ in range(nrows)]
        cases.append((a, b))
    return cases


def _to_fractions(column) -> list:
    return [Fraction(int(x.p), int(x.q)) for x in column]


def _sympy_matrix(sympy, a):
    ncols = len(a[0]) if a else 0
    return sympy.Matrix(len(a), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in a for x in map(Fraction, row)])


@pytest.mark.parametrize("a, b", _oracle_cases())
def test_solve_and_nullspace_match_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    m = _sympy_matrix(sympy, a)
    assert nullspace(a) == [_to_fractions(v) for v in m.nullspace()]
    rhs = sympy.Matrix(len(b), 1, [sympy.Rational(x.numerator, x.denominator) for x in b])
    try:
        sol, params = m.gauss_jordan_solve(rhs)
    except ValueError:
        assert solve(a, b) is None
        return
    want = _to_fractions(sol.subs({p: 0 for p in params}))
    assert solve(a, b) == want


@pytest.mark.parametrize("a,shape", [([[1, 2, 3], [4, 5, 6]], "2x3"), ([[1, 2]], "1x2"),
                                     ([[1], [2]], "2x1"), ([[1, 2], [3]], r"2x\[1, 2\]")])
def test_det_refuses_a_matrix_that_is_not_square(a, shape):
    with pytest.raises(ValueError, match=f"det: a {shape} matrix is not square"):
        det(a)


@pytest.mark.parametrize("a,b,shapes", [
    ([[1, 2, 3]], [[1], [2]], "1x3 matrix by a 2x1"),
    ([[1]], [[1, 2], [3, 4]], "1x1 matrix by a 2x2"),
    ([[1, 2]], [[1], [2, 3]], r"1x2 matrix by a 2x\[1, 2\]"),
])
def test_mat_mul_refuses_shapes_that_do_not_fit(a, b, shapes):
    with pytest.raises(ValueError, match="mat_mul: cannot multiply a " + shapes):
        mat_mul(a, b)


def _frac_entry(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))


def test_det_on_rows_of_ints_fractions_and_both_matches_sympy():
    """Each row is all `int`, all `Fraction` or mixed, so the integer
    rows taken as they are meet scaled rows in one elimination; the
    input is left as it was."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for k in range(150):
        n = rng.randint(1, 6)
        m = [[entry(rng) for _ in range(n)]
             for entry in (rng.choice((_int_entry, _frac_entry, _mixed_entry)) for _ in range(n))]
        if k % 3 == 1 and n > 1:
            m[-1] = list(m[0])
        before = [list(row) for row in m]
        expect = sympy.Matrix(m).det()
        got = det(m)
        assert type(got) is Fraction, m
        assert got == Fraction(int(sympy.numer(expect)), int(sympy.denom(expect))), m
        assert m == before and det([tuple(row) for row in m]) == got
