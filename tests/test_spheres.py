"""The mirror-sphere example family end to end."""
import pytest

from corrkit.spheres import (
    SphereConfig,
    _nonzero_orthogonal,
    _row_engine,
    build_beta,
    build_mirror_sum,
    check_omega_factorization,
    expected_pair_generators,
    mirror_span_report,
    lemma_suite,
    verify_En_representation,
    verify_XY_isomorphism,
    verify_sphere_suite,
    y_boundary_pairs,
    y_guard_symbols,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SphereConfig(0)
    with pytest.raises(ValueError):
        SphereConfig(2, N=1)


def test_guard_symbols_and_boundary_rows():
    cfg = SphereConfig(2)
    assert y_guard_symbols(cfg) == frozenset({"R2", "Q4"})
    assert y_boundary_pairs(cfg) == frozenset({("y", "y_4"), ("y_4", "y_4")})
    assert y_guard_symbols(cfg, bound=6) == frozenset({"R2", "Q6"})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lemma_suite(n):
    rep = lemma_suite(SphereConfig(n))
    assert rep.ok, rep.render()
    names = [c.name for c in rep.checks]
    # bound refutations actually run: shortening a row sum must break it
    assert "rows truncated before the sink column are refuted" in names
    assert "filtered rows truncated before the last column are refuted" in names


@pytest.mark.parametrize("n", [1, 2])
def test_omega_factorization(n):
    rep = check_omega_factorization(SphereConfig(n))
    assert rep.ok, rep.render()


def test_flip_is_an_involution():
    _, _, rep = build_beta(SphereConfig(2))
    assert rep.ok, rep.render()
    assert any(c.name == "applying the flip twice fixes the generators" and c.ok
               for c in rep.checks)


@pytest.mark.parametrize("n", [1, 2])
def test_xy_isomorphism(n):
    rep = verify_XY_isomorphism(SphereConfig(n))
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
    rep = verify_En_representation(SphereConfig(n))
    assert rep.ok, rep.render()


def test_full_suite_smallest_case():
    rep = verify_sphere_suite(SphereConfig(1))
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert any("K-theory" in s for s in names)
    assert any("weakly left resolving" in s for s in names)


def test_nonzero_orthogonal_refuses_zero_and_overlap():
    eng = _row_engine(2, 3)
    p1, p2, p3 = (eng.p(f"v{i}") for i in (1, 2, 3))
    assert _nonzero_orthogonal(eng, [p1, p2, p3])
    assert not _nonzero_orthogonal(eng, [p1, eng.zero(), p3])
    assert not _nonzero_orthogonal(eng, [p1, p2 + p3, p3])
