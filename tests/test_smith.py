"""Smith normal form against the minor-gcd oracle and hand cases, and
the certificates each caller checks in place of a global self-check."""
import random

import pytest

import corrkit.smith
from corrkit import properties
from corrkit.ktheory import k_theory
from corrkit.obstruction import sweep
from corrkit.smith import _verify, integer_solve, invariant_factors, smith_normal_form
from corrkit.spheres import SphereConfig, build_disc_graph

from oracles import int_det, minor_gcd_invariant_factors


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_hand_cases():
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert invariant_factors([[0]]) == []
    assert invariant_factors([[4, 2], [2, 4]]) == [2, 6]


def test_decomposition_shape():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    u, s, v = smith_normal_form(m)
    assert _matmul(_matmul(u, m), v) == s
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = [s[i][i] for i in range(3)]
    for a, b in zip(diag, diag[1:]):
        if b:
            assert a and b % a == 0


def test_against_minor_gcd_oracle_random():
    rng = random.Random(90125)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert invariant_factors(m) == minor_gcd_invariant_factors(m), m


def test_zero_and_rectangular():
    u, s, v = smith_normal_form([[0, 0, 0]])
    assert s == [[0, 0, 0]]
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[3], [6]]) == [3]


def test_integer_solve():
    m = [[2, 0], [0, 3]]
    assert integer_solve(m, [4, 9]) == [2, 3]
    assert integer_solve(m, [1, 0]) is None
    # underdetermined but solvable
    x = integer_solve([[1, 1]], [5])
    assert x is not None and x[0] + x[1] == 5


def test_torsion_detected():
    # Z^2 / <(2,0),(0,2)> has two factors of 2
    assert invariant_factors([[2, 0], [0, 2]]) == [2, 2]
    # and a unimodular change of basis does not alter them
    assert invariant_factors([[2, 2], [0, 2]]) == [2, 2]


@pytest.mark.parametrize("m", [
    [[1]],
    [[0, 1], [1, 0]],
    [[6, 10, 15]],
    [[2, 3], [3, 2], [1, 1]],
])
def test_oracle_agreement_fixed(m):
    assert invariant_factors(m) == minor_gcd_invariant_factors(m)


def _broken_properties(m, u, s, v):
    """The Smith-form properties that (u, s, v) breaks for m, judged
    independently of `smith._verify`."""
    rows, cols = len(s), len(s[0])
    diag = [s[i][i] for i in range(min(rows, cols))]
    broken = set()
    if any(s[i][j] for i in range(rows) for j in range(cols) if i != j):
        broken.add("not diagonal")
    if any(a == 0 and b != 0 for a, b in zip(diag, diag[1:])):
        broken.add("zero before nonzero")
    if any(a != 0 and b % a for a, b in zip(diag, diag[1:])):
        broken.add("divisibility")
    if any(d < 0 for d in diag):
        broken.add("negative")
    if abs(int_det(u)) != 1:
        broken.add("U")
    if abs(int_det(v)) != 1:
        broken.add("V")
    if _matmul(_matmul(u, m), v) != s:
        broken.add("product")
    return broken


_I2 = [[1, 0], [0, 1]]
_SWAP = [[0, 1], [1, 0]]

# Each case is a factorisation (m, u, s, v) of a valid shape with exactly
# one property broken: the refusal it must raise and that property.
_TAMPERED = {
    # u adds row 2 to row 1, so U M V keeps an off-diagonal entry
    "off-diagonal": (([[1, 0], [0, 2]], [[1, 1], [0, 1]], [[1, 2], [0, 2]], _I2),
                     "result not diagonal", "not diagonal"),
    # the valid diag(1, 0) with its rows and columns swapped
    "zero-first": (([[1, 0], [0, 0]], _SWAP, [[0, 0], [0, 1]], _SWAP),
                   "zero before nonzero on diagonal", "zero before nonzero"),
    "divisibility": (([[2, 0], [0, 3]], _I2, [[2, 0], [0, 3]], _I2),
                     "divisibility chain broken", "divisibility"),
    # u negates the second row
    "negative": (([[1, 0], [0, 2]], [[1, 0], [0, -1]], [[1, 0], [0, -2]], _I2),
                 "negative diagonal entry", "negative"),
    "negative-1x1": (([[3]], [[-1]], [[-3]], [[1]]),
                     "negative diagonal entry", "negative"),
    "U-det-2": (([[1, 0], [0, 1]], [[1, 0], [0, 2]], [[1, 0], [0, 2]], _I2),
                "U not unimodular", "U"),
    "V-det-2": (([[1, 0], [0, 1]], _I2, [[1, 0], [0, 2]], [[1, 0], [0, 2]]),
                "V not unimodular", "V"),
    "product": (([[1, 0], [0, 2]], _I2, [[1, 0], [0, 1]], _I2),
                "U\\*M\\*V != S", "product"),
}


@pytest.mark.parametrize("case", list(_TAMPERED), ids=list(_TAMPERED))
def test_verify_refuses_each_broken_property(case):
    (m, u, s, v), message, prop = _TAMPERED[case]
    assert _broken_properties(m, u, s, v) == {prop}
    with pytest.raises(AssertionError, match=f"^SNF verification: {message}$"):
        _verify(m, u, s, v)


def test_verify_accepts_computed_factorisations():
    rng = random.Random(4)
    for _ in range(50):
        m = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]]
        m += [[rng.randint(-9, 9) for _ in m[0]] for _ in range(rng.randint(0, 3))]
        u, s, v = smith_normal_form(m)
        assert _broken_properties(m, u, s, v) == set()
        _verify(m, u, s, v)


def test_against_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_factors

    rng = random.Random(20260)
    shapes = [(0, 0), (2, 0), (0, 3), (3, 3), (1, 4), (4, 1)]
    shapes += [(rng.randint(1, 5), rng.randint(0, 5)) for _ in range(194)]
    for k, (rows, cols) in enumerate(shapes):
        hi = 0 if k % 10 == 3 else rng.choice([2, 9, 1000])
        m = [[rng.randint(-hi, hi) for _ in range(cols)] for _ in range(rows)]
        mat = sympy.Matrix(m) if rows and cols else sympy.zeros(rows, cols)
        expect = [abs(int(d)) for d in sympy_factors(mat) if d]
        assert invariant_factors(m) == expect, m


def test_membership_verdicts_match_minor_gcd_oracle():
    # b lies in the column lattice of M exactly when appending it as a
    # column leaves the invariant factors unchanged
    rng = random.Random(31337)
    verdicts = {True: 0, False: 0}
    for k in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(0, 4)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if k % 2:
            x = [rng.randint(-3, 3) for _ in range(cols)]
            b = [sum(a * c for a, c in zip(row, x)) for row in m]
        else:
            b = [rng.randint(-3, 3) for _ in range(rows)]
        member = minor_gcd_invariant_factors(m) == minor_gcd_invariant_factors(
            [row + [c] for row, c in zip(m, b)])
        got = integer_solve(m, b)
        assert (got is not None) == member, (m, b)
        verdicts[member] += 1
    assert verdicts[True] and verdicts[False], verdicts


def _doubled_last_pivot(monkeypatch):
    """Make `smith_normal_form` double the last nonzero diagonal entry
    of S, leaving U and V as computed."""
    real = corrkit.smith.smith_normal_form

    def tampered(m):
        u, s, v = real(m)
        s = [list(row) for row in s]
        t = max(i for i in range(min(len(s), len(s[0]))) if s[i][i])
        s[t][t] *= 2
        return u, s, v

    monkeypatch.setattr(corrkit.smith, "smith_normal_form", tampered)


@pytest.mark.parametrize("call, message", [
    (lambda: integer_solve([[2, 0], [0, 3]], [4, 9]), "integer_solve verification failed"),
    (lambda: integer_solve([[2]], [2]), "integer_solve non-membership certificate failed"),
    (lambda: invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]), "SNF verification: "),
    (lambda: k_theory(build_disc_graph(SphereConfig(2))), "SNF verification: "),
], ids=["member", "witness", "invariant_factors", "k_theory"])
def test_wrong_factorisation_raises_and_returns_no_verdict(monkeypatch, call, message):
    _doubled_last_pivot(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        call()


def test_full_verify_runs_only_where_s_is_reported(monkeypatch):
    calls = []
    real = corrkit.smith._verify

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(corrkit.smith, "_verify", counted)
    assert sweep(5).candidates_checked > 0
    assert not calls
    disc = build_disc_graph(SphereConfig(2))
    for k in range(1, 4):
        k_theory(disc)
        assert len(calls) == k


@pytest.mark.parametrize("breakage, detail", [
    ("off-diagonal", "not diagonal for"),
    ("negative-last", "diagonal [1, 1, -1] for"),
], ids=["off-diagonal", "negative-last"])
def test_selfcheck_suite_refuses_a_wrong_shape(monkeypatch, breakage, detail):
    def off_diagonal(m):
        # S = M with U = V = I: the product holds, but S need not be diagonal
        return (_identity(len(m)), [list(row) for row in m], _identity(len(m[0])))

    def negative_last(m):
        # negate column t of S and V: the product and |det V| = 1 still hold
        u, s, v = smith_normal_form(m)
        t = min(len(s), len(s[0])) - 1
        if t >= 0:
            for row in s + v:
                row[t] = -row[t]
        return u, s, v

    patched = off_diagonal if breakage == "off-diagonal" else negative_last
    monkeypatch.setattr(properties, "smith_normal_form", patched)
    rep = properties.snf_selfcheck_suite(cases=5)
    assert not rep.ok and detail in rep.checks[0].detail, rep.render()


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]
