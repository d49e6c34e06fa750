from fractions import Fraction

import pytest

from corrkit.algebra import CommAlgebra, PresentationError, diagonal_algebra


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
