"""Normal-form arithmetic for labelled-space representations."""
import pytest

from corrkit.engine import Engine, substitute, tautological_checks
from corrkit.errors import UnsupportedSpaceError
from corrkit.labelled import build_space, concrete_graph, relative_range
from corrkit.setexpr import atoms, tail
from corrkit.spheres import SphereConfig, build_En_space


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
    assert eng.is_zero(u * eng.p(a1))
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


def test_linear_structure(eng):
    x = eng.p(tail("v", 1))
    y = eng.p(atoms("w2").union(tail("v", 1)))
    z = 2 * x + y - x
    assert eng.equals(z, x + y)
    assert eng.is_zero(z - x - y)
    assert (x - x).is_zero_syntactic() or eng.is_zero(x - x)


def test_adjoint_is_involutive(eng):
    w = eng.s_word(("g", "h"))
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
    assert eng.combine({}, {"a": pa}).is_zero_syntactic()
    assert eng.equals(eng.combine({"a": 2, "b": -1}, {"a": pa, "b": pb}), 2 * pa - pb)
