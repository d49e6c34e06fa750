import random
from fractions import Fraction

import pytest

from corrkit.algebra import CommAlgebra, PresentationError, diagonal_algebra
from corrkit.reports import Report

from oracles import dense_algebra_records


def test_diagonal_algebra_products():
    a = diagonal_algebra("A", ["P1", "P2", "P3"])
    assert a.mul(a.element("P1"), a.element("P1")) == {"P1": Fraction(1)}
    assert a.mul(a.element("P1"), a.element("P2")) == {}


def test_table_symmetry_filled_in():
    # only one order given; the other is implied
    a = CommAlgebra("B", ["e", "f"], {
        ("e", "e"): {"e": 1},
        ("f", "f"): {"f": 1},
        ("e", "f"): {},
    })
    assert a.basis_product("f", "e") == {}


def test_asymmetric_table_rejected():
    with pytest.raises(PresentationError):
        CommAlgebra("B", ["e", "f"], {
            ("e", "e"): {"e": 1},
            ("f", "f"): {"f": 1},
            ("e", "f"): {"e": 1},
            ("f", "e"): {"f": 1},
        })


@pytest.mark.parametrize("zero_first", [False, True])
def test_explicit_zero_against_nonzero_mirror_rejected(zero_first):
    """An explicit zero entry is compared with its mirror like any other
    entry, so a zero on one side and a nonzero on the other is refused
    instead of being filled in from the nonzero side."""
    entries = [(("p", "q"), {"p": 1}), (("q", "p"), {})]
    if zero_first:
        entries.reverse()
    with pytest.raises(PresentationError, match="not symmetric"):
        CommAlgebra("T", ["p", "q"], {("p", "p"): {"p": 1}, ("q", "q"): {"q": 1},
                                      **dict(entries)})


def test_non_idempotent_basis_rejected():
    with pytest.raises(PresentationError):
        CommAlgebra("B", ["e"], {("e", "e"): {"e": 2}})


def test_product_leaving_span_rejected():
    with pytest.raises(PresentationError):
        CommAlgebra("B", ["e"], {("e", "e"): {"ghost": 1}})


def test_duplicate_basis_rejected():
    with pytest.raises(PresentationError):
        CommAlgebra("B", ["e", "e"], {("e", "e"): {"e": 1}})


def test_combo_and_mul_linear():
    a = diagonal_algebra("A", ["P1", "P2"])
    x = {"P1": Fraction(1, 2), "P2": Fraction(3)}
    y = {"P1": Fraction(2)}
    assert a.mul(x, y) == {"P1": Fraction(1)}


def test_orthogonal_atoms_diagonal():
    a = diagonal_algebra("A", ["P1", "P2"])
    names = sorted(str(at) for at in a.orthogonal_atoms())
    assert len(names) == 2


def test_orthogonal_atoms_chain():
    """Basis Q <= R (R*Q = Q) splits into atoms Q and R - Q."""
    a = CommAlgebra("B", ["R", "Q"], {
        ("R", "R"): {"R": 1},
        ("Q", "Q"): {"Q": 1},
        ("R", "Q"): {"Q": 1},
    })
    ats = a.orthogonal_atoms()
    assert len(ats) == 2
    for i, u in enumerate(ats):
        assert a.mul(u, u) == u
        for w in ats[i + 1:]:
            assert a.mul(u, w) == {}
    # atoms span the basis
    span = [{"Q": Fraction(1)}, {"R": Fraction(1)}]
    from corrkit.exactlinalg import same_span
    assert same_span(ats, span)


def test_eval_at_atom():
    a = diagonal_algebra("A", ["P1", "P2"])
    atom = {"P1": Fraction(1)}
    assert a.eval_at_atom({"P1": Fraction(5)}, atom) == Fraction(5)
    assert a.eval_at_atom({"P2": Fraction(5)}, atom) == Fraction(0)


def test_validate_report_is_clean():
    a = diagonal_algebra("A", ["P1"])
    rep = a.validate()
    assert rep.ok
    assert any("associativity" in c.name for c in rep.checks)


def _unvalidated(name, basis, table):
    """The algebra the constructor stores for `table`, with validation
    skipped so that a failing presentation can be inspected."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CommAlgebra, "validate", lambda self: Report(f"algebra {name}"))
        return CommAlgebra(name, basis, table)


def _records(rep):
    return [(c.name, c.ok, c.detail) for c in rep.checks]


def _random_table(rng: random.Random, basis: list) -> dict:
    """A symmetric table over `basis`: mostly idempotent diagonal
    entries, off-diagonal entries zero, one of the pair (a chain), or a
    random combination."""
    def combo():
        return {b: rng.choice([-1, 1, 2, Fraction(1, 2)])
                for b in rng.sample(basis, rng.randint(1, len(basis)))}

    table = {}
    for i, a in enumerate(basis):
        table[(a, a)] = {a: 1} if rng.random() < 0.8 else rng.choice([{a: 2}, {}, combo()])
        for b in basis[i + 1:]:
            roll = rng.random()
            table[(a, b)] = ({} if roll < 0.4 else {rng.choice((a, b)): 1} if roll < 0.7
                             else combo())
    return table


def test_validate_matches_the_dense_triple_loop():
    """On seeded random tables, some failing each family, the sparse
    validation gives the dense loop's records, and the constructor
    refuses exactly the failing tables with every failure line."""
    rng = random.Random(2113)
    verdicts = set()
    for i in range(300):
        basis = rng.sample(["P1", "P2", "P10", "Q"], rng.randint(1, 4))
        table = _random_table(rng, basis)
        alg = _unvalidated(f"T{i}", basis, table)
        got = _records(alg.validate())
        assert got == dense_algebra_records(alg), (basis, table)
        failed = [f"[FAIL] {name}: {detail}" if detail else f"[FAIL] {name}"
                  for name, ok, detail in got if not ok]
        verdicts.add(frozenset(name for name, ok, _ in got if not ok and " at " not in name))
        if failed:
            with pytest.raises(PresentationError) as exc:
                CommAlgebra(f"T{i}", basis, table)
            assert str(exc.value) == f"T{i}: " + "; ".join(failed)
        else:
            CommAlgebra(f"T{i}", basis, table)
    assert verdicts == {frozenset(), frozenset({"idempotent basis"}),
                        frozenset({"associativity"}),
                        frozenset({"idempotent basis", "associativity"})}


def test_validate_records_on_a_non_idempotent_symbol():
    alg = _unvalidated("N", ["f", "e"], {("e", "e"): {"e": 2}, ("f", "f"): {"f": 1}})
    assert _records(alg.validate()) == [
        ("idempotent basis", False, "e*e = 2*e"),
        ("idempotent basis", False, ""),
        ("associativity", True, ""),
    ]


def test_validate_records_on_a_non_associative_product():
    """e*f = g with g orthogonal to both: (e*f)*g = g but e*(f*g) = 0."""
    alg = _unvalidated("N", ["e", "f", "g"],
                       {**{(x, x): {x: 1} for x in "efg"}, ("e", "f"): {"g": 1}})
    assert _records(alg.validate()) == [
        ("idempotent basis", True, ""),
        ("associativity at (e,e,f)", False, "g != 0"),
        ("associativity at (e,f,f)", False, "0 != g"),
        ("associativity at (e,f,g)", False, "g != 0"),
        ("associativity at (f,e,e)", False, "0 != g"),
        ("associativity at (f,e,g)", False, "g != 0"),
        ("associativity at (f,f,e)", False, "g != 0"),
        ("associativity at (g,e,f)", False, "0 != g"),
        ("associativity at (g,f,e)", False, "0 != g"),
        ("associativity", False, ""),
    ]
