"""The mirror-sphere example family end to end."""
import pytest

from corrkit import correspondences, spheres
from corrkit.engine import Engine
from corrkit.spheres import (
    SphereConfig,
    _nonzero_orthogonal,
    _row_engine,
    build_beta,
    build_En_space,
    build_mirror_sum,
    build_omega,
    build_X_A,
    build_Y_B,
    build_Z_C,
    check_omega_factorization,
    expected_pair_generators,
    mirror_span_report,
    lemma_suite,
    rho_sum_images,
    verify_En_representation,
    verify_XY_isomorphism,
    verify_sphere_suite,
)
from oracles import row_name_sum_images


def test_config_validation():
    with pytest.raises(ValueError):
        SphereConfig(0)
    with pytest.raises(ValueError):
        SphereConfig(2, N=1)


def test_guard_symbols_and_boundary_rows():
    cfg = SphereConfig(2)
    y = build_Y_B(cfg)
    assert y.guards == frozenset({"R2", "Q4"})
    assert y.clipped == frozenset({("y", "y_4"), ("y_4", "y"), ("y_4", "y_4")})
    assert build_Y_B(cfg, bound=6).guards == frozenset({"R2", "Q6"})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_suite(n):
    cfg = SphereConfig(n)
    rep = lemma_suite(cfg, build_X_A(cfg))
    assert rep.ok, rep.render()
    names = [c.name for c in rep.checks]
    # bound refutations actually run: shortening a row sum must break it
    assert "rows truncated before the sink column are refuted" in names
    assert "filtered rows truncated before the last column are refuted" in names


@pytest.mark.parametrize("n", [1, 2])
def test_omega_factorization(n):
    cfg = SphereConfig(n)
    omega = build_omega(cfg, build_Y_B(cfg), build_Z_C(cfg))
    rep = check_omega_factorization(cfg, omega, _row_engine(n, n + 1), _row_engine(n, n))
    assert rep.ok, rep.render()


def test_flip_is_an_involution():
    _, _, rep = build_beta(SphereConfig(2), _row_engine(2, 2))
    assert rep.ok, rep.render()
    assert any(c.name == "applying the flip twice fixes the generators" and c.ok
               for c in rep.checks)


@pytest.mark.parametrize("n", [1, 2])
def test_xy_isomorphism(n):
    cfg = SphereConfig(n)
    rep = verify_XY_isomorphism(cfg, build_X_A(cfg), build_Y_B(cfg), _row_engine(n, n + 1))
    assert rep.ok, rep.render()


def test_pair_module_matches_expected_generators():
    cfg = SphereConfig(2)
    rsum, psi, omega = build_mirror_sum(cfg)
    # the expected pair list spans the computed module up to algebra
    # translates, and every expected pair really lives inside it
    rep = mirror_span_report(cfg, rsum, psi, omega)
    assert rep.ok, rep.render()
    assert len(rsum.corr.gens) >= len(expected_pair_generators(cfg))


@pytest.mark.parametrize("n", [1, 2])
def test_en_representation(n):
    cfg = SphereConfig(n)
    rsum, _, _ = build_mirror_sum(cfg)
    rep = verify_En_representation(cfg, rsum)
    assert rep.ok, rep.render()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [None, 6])
def test_linear_sum_images_match_row_name_images(n, N):
    """Imaging each computed row linearly through the generator and basis
    images gives the element, term for term and in the same order, that
    recognising the row by its generator names gave."""
    cfg = SphereConfig(n) if N is None else SphereConfig(n, N)
    rsum, _, _ = build_mirror_sum(cfg)
    eng = Engine(build_En_space(cfg))
    want_mod, want_alg = row_name_sum_images(cfg, rsum, eng)
    x_mod, y_mod, a_alg, b_alg = rho_sum_images(cfg, eng)
    for name, vx, vy in rsum.gen_table:
        got = eng.combine(vx, x_mod) + eng.combine(vy, y_mod)
        assert list(got.terms.items()) == list(want_mod[name].terms.items()), name
    for name, va, vb in rsum.atom_table:
        got = eng.combine(va, a_alg) + eng.combine(vb, b_alg)
        assert list(got.terms.items()) == list(want_alg[name].terms.items()), name


def test_full_suite_smallest_case():
    rep = verify_sphere_suite(SphereConfig(1))
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert any("K-theory" in s for s in names)
    assert any("weakly left resolving" in s for s in names)


def test_suite_builds_each_object_once(monkeypatch):
    """The suite builds X, Z, Y and the two row engines once and hands
    them to every tier; only the deeper Y rebuilds (N+1 in the lemmas,
    N+2 for the deferred atoms) are extra.  Five ideal computations
    remain: X, Z, guarded Y, the deep Y and the glued module."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_X_A", "build_Z_C", "build_Y_B", "_row_engine"):
        monkeypatch.setattr(spheres, name, counted(name, getattr(spheres, name)))
    monkeypatch.setattr(correspondences, "IdealData",
                        counted("IdealData", correspondences.IdealData))
    assert verify_sphere_suite(SphereConfig(3)).ok
    assert calls == {"build_X_A": 1, "build_Z_C": 1, "build_Y_B": 3,
                     "_row_engine": 2, "IdealData": 5}


def test_nonzero_orthogonal_refuses_zero_and_overlap():
    eng = _row_engine(2, 3)
    p1, p2, p3 = (eng.p(f"v{i}") for i in (1, 2, 3))
    assert _nonzero_orthogonal(eng, [p1, p2, p3])
    assert not _nonzero_orthogonal(eng, [p1, eng.zero(), p3])
    assert not _nonzero_orthogonal(eng, [p1, p2 + p3, p3])
