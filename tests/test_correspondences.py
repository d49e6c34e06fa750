"""Correspondence presentations, morphism conditions, and gluing."""
import pathlib
import random
from fractions import Fraction

import pytest

from corrkit.algebra import diagonal_algebra
from corrkit.correspondences import (
    Correspondence,
    Morphism,
    check_morphism,
    check_pullback_hypotheses,
    compact_decomposition,
    compose,
    identity_morphism,
    kernel_and_jx,
    ops_agree,
    restricted_direct_sum,
    theta,
)
from corrkit.exactlinalg import solve, sort_key
from corrkit.io import corr_check_from_json, load_json
from corrkit.spheres import (SphereConfig, build_X_A, build_Y_B, build_Z_C,
                             build_mirror_sum)

from oracles import (dense_compact_decomposition, dense_morphism_records,
                     dense_validate_records, recombine_pair)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _hilbert(name, gens):
    """A correspondence over the one-dimensional algebra: plain inner
    products, unit acting as identity on both sides."""
    a = diagonal_algebra("A", ["u"])
    inner = {(g, g): {"u": 1} for g in gens}
    right = {(g, "u"): {g: 1} for g in gens}
    left = {("u", g): {g: 1} for g in gens}
    return Correspondence(name, a, gens, inner, right, left)


def test_hilbert_morphism_fails_exactly_on_compacts():
    x = _hilbert("X", ["e"])
    y = _hilbert("Y", ["f1", "f2"])
    m = Morphism(x, y, {"u": {"u": 1}}, {"e": {"f1": 1}})
    rep = check_morphism(m)
    assert not rep.ok
    failed = [c for c in rep.checks if not c.ok]
    assert failed and all(c.name.startswith("(C4)") for c in failed)
    for tag in ("(C1)", "(C2)", "(C3)"):
        tagged = [c for c in rep.checks if c.name.startswith(tag)]
        assert tagged and all(c.ok for c in tagged)
    detail = failed[0].detail
    assert "theta[f1, f1]" in detail and "theta[f2, f2]" in detail


def test_isometry_onto_summand_preserves_everything_else():
    x = _hilbert("X", ["e"])
    m = Morphism(x, x, {"u": {"u": 1}}, {"e": {"e": 1}})
    assert check_morphism(m).ok


def test_identity_and_composition():
    x = build_X_A(SphereConfig(2))
    i = identity_morphism(x)
    assert check_morphism(i).ok
    ii = compose(i, i)
    assert ii.alg_map == i.alg_map and ii.mod_map == i.mod_map


def test_kernel_and_katsura_ideal_frozen():
    for n in (1, 2, 3):
        x = build_X_A(SphereConfig(n))
        data = kernel_and_jx(x)
        assert [name for name, _ in data.kernel] == [f"P{n + 1}"]
        assert [name for name, _ in data.katsura] == [f"P{i}" for i in range(1, n + 1)]
        assert data.deferred == [] and data.noncompact == []
        assert list(data.decompositions) == [name for name, _ in data.katsura]
        for name, atom in data.katsura:
            op = data.decompositions[name]
            for g in x.gens:
                assert op.apply(x, x.gen(g)) == x.left_action(atom, x.gen(g))


def _with_marks(corr, **marks) -> Correspondence:
    """An unvalidated copy of `corr` carrying the given guards/clipped."""
    return Correspondence(corr.name, corr.algebra, corr.gens, corr._inner, corr._right,
                          corr._left, validate=False, **marks)


def test_kernel_and_jx_is_memoised_per_correspondence():
    x = build_X_A(SphereConfig(2))
    plain = kernel_and_jx(x)
    assert kernel_and_jx(x) is plain
    assert [name for name, _ in plain.katsura] == ["P1", "P2"] and not plain.deferred
    guarded_x = _with_marks(x, guards={"P1"})
    guarded = kernel_and_jx(guarded_x)
    assert guarded is not plain
    assert kernel_and_jx(guarded_x) is guarded
    assert [name for name, _ in guarded.deferred] == ["P1"]
    assert [name for name, _ in guarded.katsura] == ["P2"]
    assert kernel_and_jx(build_X_A(SphereConfig(2))) is not plain


def test_guards_and_clipped_are_checked_and_clipped_is_symmetric():
    x = build_X_A(SphereConfig(2))
    marked = _with_marks(x, guards=["P3"], clipped=[("w_1_1", "w_2_3")])
    assert marked.guards == frozenset({"P3"})
    assert marked.clipped == frozenset({("w_1_1", "w_2_3"), ("w_2_3", "w_1_1")})
    assert x.guards == frozenset() and x.clipped == frozenset()
    with pytest.raises(ValueError, match="unknown symbol Q1"):
        _with_marks(x, guards={"Q1"})
    with pytest.raises(ValueError, match="unknown symbol y"):
        _with_marks(x, clipped={("w_1_1", "y")})


def _validation_sources() -> list:
    out = []
    for n in (2, 3):
        rsum, psi, omega = build_mirror_sum(SphereConfig(n))
        out += [psi.src, omega.src, psi.dst, rsum.corr]
    for path in sorted(DATA.glob("hilbert_*.json")):
        kind, obj = corr_check_from_json(load_json(path))
        out += [obj] if kind == "single" else [obj.src, obj.dst]
    return out


def _mutated(corr, kind: str, rng: random.Random) -> Correspondence:
    """An unvalidated copy of `corr` with one seeded table mutation."""
    tables = {"inner": dict(corr._inner), "right": dict(corr._right),
              "left": dict(corr._left)}
    gens = sorted(corr.gens, key=sort_key)
    basis = corr.algebra.sorted_basis()
    which = "inner" if kind == "negative" else rng.choice(sorted(tables))
    table = tables[which]

    def put(key, v):
        table[key] = v
        if which == "inner":
            table[key[::-1]] = v

    key = rng.choice(sorted((k for k, v in table.items() if v), key=sort_key))
    entry = table[key]
    if kind == "drop":
        table.pop(key)
        if which == "inner":
            table.pop(key[::-1], None)
    elif kind == "flip":
        put(key, {s: -c for s, c in entry.items()})
    elif kind == "double":
        s = rng.choice(sorted(entry, key=sort_key))
        put(key, {**entry, s: 2 * entry[s]})
    elif kind == "stray":
        shape = {"inner": (gens, gens), "right": (gens, basis), "left": (basis, gens)}[which]
        missing = [(p, q) for p in shape[0] for q in shape[1] if not table.get((p, q))]
        if missing:
            out = basis if which == "inner" else gens
            put(rng.choice(missing),
                {rng.choice(out): Fraction(rng.choice((-2, -1, 1, 2)))})
    else:
        g = rng.choice(gens)
        put((g, g), {rng.choice(basis): Fraction(-1)})
    return Correspondence(corr.name, corr.algebra, corr.gens, tables["inner"],
                          tables["right"], tables["left"], validate=False)


def test_validate_matches_dense_loops_on_seeded_mutations():
    """The sparse validation gives the dense loops' records, failures
    included: same names, verdicts, details and order."""
    failed_groups = set()
    for i, corr in enumerate(_validation_sources()):
        rng = random.Random(i)
        for kind in ("drop", "flip", "double", "stray", "negative"):
            mutant = _mutated(corr, kind, rng)
            got = [(c.name, c.ok, c.detail) for c in mutant.validate().checks]
            assert got == dense_validate_records(mutant), (corr.name, i, kind)
            failed_groups |= {name for name, ok, _ in got
                              if not ok and " at " not in name}
    assert failed_groups == {
        "right action is a module action", "inner product compatible with right action",
        "left action is a homomorphism", "left action adjointable",
        "inner product positive (per-atom Gram)"}


def _morphism_sources() -> list:
    """psi and omega at n = 2, 3 and the data/hilbert_* morphism."""
    out = []
    for n in (2, 3):
        _, psi, omega = build_mirror_sum(SphereConfig(n))
        out += [psi, omega]
    for path in sorted(DATA.glob("hilbert_*.json")):
        kind, obj = corr_check_from_json(load_json(path))
        if kind == "morphism":
            out.append(obj)
    return out


def _mutated_morphism(m: Morphism, which: str, kind: str, rng: random.Random):
    """A copy of `m` with one seeded change to one image vector of its
    algebra map or its module map: a flipped sign, a dropped term, or a
    stray target term; None when every image already uses every target."""
    maps = {"alg": dict(m.alg_map), "mod": dict(m.mod_map)}
    table = maps[which]
    targets = m.dst.algebra.sorted_basis() if which == "alg" else sorted(m.dst.gens, key=sort_key)
    if kind == "stray":
        free = [(k, t) for k in sorted(table, key=sort_key) for t in targets if t not in table[k]]
        if not free:
            return None
        key, sym = rng.choice(free)
        table[key] = {**table[key], sym: Fraction(rng.choice((-2, -1, 1, 2)))}
    else:
        key = rng.choice(sorted((k for k, v in table.items() if v), key=sort_key))
        sym = rng.choice(sorted(table[key], key=sort_key))
        entry = dict(table[key])
        if kind == "flip":
            entry[sym] = -entry[sym]
        else:
            del entry[sym]
        table[key] = entry
    return Morphism(m.src, m.dst, maps["alg"], maps["mod"])


def test_morphism_table_checks_match_dense_loops_on_seeded_mutations():
    """The four table checks of `check_morphism` give the dense loops'
    records, failures included; the rest of the report is (C3) and (C4)."""
    summaries = {"algebra map multiplicative", "(C1) inner products preserved",
                 "module map respects right action", "(C2) left actions intertwined"}
    failed_groups = set()
    for i, m in enumerate(_morphism_sources()):
        rng = random.Random(i)
        mutants = [_mutated_morphism(m, which, kind, rng)
                   for which in ("alg", "mod") for kind in ("flip", "drop", "stray")]
        for mutant in [m] + [x for x in mutants if x is not None]:
            got = [(c.name, c.ok, c.detail)
                   for c in check_morphism(mutant).checks]
            want = dense_morphism_records(mutant)
            assert got[:len(want)] == want, (i, mutant.alg_map, mutant.mod_map)
            assert all(name.startswith(("(C3)", "(C4)")) for name, _, _ in got[len(want):])
            failed_groups |= {name for name, ok, _ in want if not ok and name in summaries}
    assert failed_groups == summaries


def test_compact_decomposition_witnesses():
    n = 2
    x = build_X_A(SphereConfig(n))
    for i in (1, 2):
        dec = compact_decomposition(x, {f"P{i}": 1})
        assert dec is not None
        touched = {sym for _, u, v in dec.terms for sym in (*u, *v)}
        # the top-row generator is required: dropping column n+1 breaks it
        assert any(sym.endswith(f"{n + 1}") for sym in touched)
        trimmed = type(dec)(tuple(
            (c, u, v) for c, u, v in dec.terms
            if not any(s.endswith(f"{n + 1}") for s in (*u, *v))))
        assert not ops_agree(x, dec, trimmed)


def _terms(op):
    return None if op is None else op.terms


@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compact_decomposition_matches_dense_oracle_on_sphere_modules(n, N):
    """X, Z, the guarded Y, the deep Y and the glued module: on every
    atom the sparse system gives the dense system's terms.  The guarded
    corner atoms (Q_N of Y, 0|Q_N of the glued module) fail the pruned
    system and the all-pairs one, so both paths are compared."""
    cfg = SphereConfig(n, N)
    rsum, _, _ = build_mirror_sum(cfg)
    for corr in (build_X_A(cfg), build_Z_C(cfg), build_Y_B(cfg),
                 build_Y_B(cfg, bound=N + 2), rsum.corr):
        for name, atom in corr.atoms():
            assert (_terms(compact_decomposition(corr, atom))
                    == _terms(dense_compact_decomposition(corr, atom))), (corr.name, name)


def test_compact_decomposition_matches_dense_oracle_on_data_files():
    seen = 0
    for path in sorted(DATA.glob("hilbert_*.json")):
        kind, obj = corr_check_from_json(load_json(path))
        for corr in [obj] if kind == "single" else [obj.src, obj.dst]:
            for name, atom in corr.atoms():
                got = compact_decomposition(corr, atom)
                assert got is not None and got.terms, (corr.name, name)
                assert got.terms == dense_compact_decomposition(corr, atom).terms
                seen += 1
    assert seen == 4


def test_zero_inner_product_has_no_decomposition():
    """A nonzero left action with every inner product zero is no
    combination of rank-one operators."""
    a = diagonal_algebra("A", ["u"])
    corr = Correspondence("null", a, ["e", "f"], {},
                          {("e", "u"): {"e": 1}, ("f", "u"): {"f": 1}},
                          {("u", "e"): {"e": 1}, ("u", "f"): {"f": 1}})
    assert compact_decomposition(corr, {"u": 1}) is None
    assert dense_compact_decomposition(corr, {"u": 1}) is None


def test_compact_decomposition_reaches_the_all_pairs_fallback(monkeypatch):
    """The generators are the vectors e = (1,0,0), f = (1,1,0) and
    g = (0,1,1), and u acts as the projection onto w = (1,-1,1) = 3e - 2f + g.
    Only e is touched and g is orthogonal to e, so the pruned system
    lacks the needed y = g and only the all-pairs system decomposes."""
    a = diagonal_algebra("A", ["u"])
    gram = {("e", "e"): 1, ("e", "f"): 1, ("f", "f"): 2, ("f", "g"): 1, ("g", "g"): 2}
    third = Fraction(1, 3)
    corr = Correspondence(
        "fallback", a, ["e", "f", "g"],
        {pair: {"u": c} for pair, c in gram.items()},
        {(x, "u"): {x: 1} for x in "efg"},
        {("u", "e"): {"e": 1, "f": -2 * third, "g": third}, ("u", "f"): {}, ("u", "g"): {}})
    calls = []

    def counted(rows, rhs):
        out = solve(rows, rhs)
        calls.append(out is not None)
        return out

    monkeypatch.setattr("corrkit.correspondences.solve", counted)
    got = compact_decomposition(corr, {"u": 1})
    assert calls == [False, True]
    assert got.terms == dense_compact_decomposition(corr, {"u": 1}).terms
    assert {next(iter(y)) for _, _, y in got.terms} == {"e", "f", "g"}


def test_theta_and_ops_agree():
    x = _hilbert("Y", ["f1", "f2"])
    t1 = theta({"f1": 1}, {"f1": 1})
    t2 = theta({"f2": 1}, {"f2": 1})
    ident = t1 + t2
    got = ident.apply(x, {"f1": 3, "f2": 5})
    assert got == {"f1": 3, "f2": 5}
    assert not ops_agree(x, t1, ident)
    assert ops_agree(x, ident, theta({"f1": 1}, {"f1": 1}) + t2)


def test_restricted_sum_and_pullback_hypotheses():
    cfg = SphereConfig(2)
    rsum, psi, omega = build_mirror_sum(cfg)
    rep = check_pullback_hypotheses(psi, omega)
    assert rep.ok, rep.render()
    assert rsum.corr.validate().ok
    assert rsum.corr.gens


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_glued_guards_and_clipped_pairs_derive_from_the_filtered_side(n):
    """At N = 4 the glued module defers the last corner and the loop
    remainder, and clips the boundary rows of y against y_4."""
    rsum, _, _ = build_mirror_sum(SphereConfig(n))
    assert rsum.corr.guards == {"0|Q4", f"P{n}|-Q1-Q2-Q3-Q4+R{n}"}
    boundary = f"w_{n}_{n}|y"
    assert rsum.corr.clipped == {("0|y_4", "0|y_4"), (boundary, "0|y_4"),
                                 ("0|y_4", boundary)}


def test_glued_guards_and_clipped_pairs_derive_from_the_first_side():
    """Only the first source is marked: a2 is guarded and (e1, e2)
    clipped, so the glued module guards a2|0 and clips both orders of
    the pairs whose first parts hold e1 and e2."""
    a = diagonal_algebra("A", ["a1", "a2"])
    x = Correspondence("X", a, ["e1", "e2"],
                       {("e1", "e1"): {"a1": 1}, ("e2", "e2"): {"a2": 1}},
                       {("e1", "a1"): {"e1": 1}, ("e2", "a2"): {"e2": 1}},
                       {("a1", "e1"): {"e1": 1}, ("a2", "e2"): {"e2": 1}},
                       guards={"a2"}, clipped={("e1", "e2")})
    y, z = _hilbert("Y", ["f"]), _hilbert("Z", ["k"])
    mx = Morphism(x, z, {"a1": {"u": 1}, "a2": {}}, {"e1": {"k": 1}, "e2": {}})
    my = Morphism(y, z, {"u": {"u": 1}}, {"f": {"k": 1}})
    glued = restricted_direct_sum(mx, my).corr
    assert glued.gens == ("e1|f", "e2|0")
    assert glued.guards == {"a2|0"}
    assert glued.clipped == {("e1|f", "e2|0"), ("e2|0", "e1|f")}
    assert [name for name, _ in kernel_and_jx(glued).deferred] == ["a2|0"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_restricted_sum_tables_recombine_componentwise(n):
    """Every glued table entry, recombined through the pair atoms or the
    pair generators, is the pair of componentwise X and Y values."""
    rsum, psi, omega = build_mirror_sum(SphereConfig(n))
    x, y, glued = psi.src, omega.src, rsum.corr
    for g, gx, gy in rsum.gen_table:
        for h, hx, hy in rsum.gen_table:
            got = recombine_pair(rsum.atom_table,
                                 glued.inner_product(glued.gen(g), glued.gen(h)))
            assert got == (x.inner_product(gx, hx), y.inner_product(gy, hy)), (g, h)
        for p, pa, pb in rsum.atom_table:
            got = recombine_pair(rsum.gen_table, glued.right_action(glued.gen(g), {p: 1}))
            assert got == (x.right_action(gx, pa), y.right_action(gy, pb)), (g, p)
            got = recombine_pair(rsum.gen_table, glued.left_action({p: 1}, glued.gen(g)))
            assert got == (x.left_action(pa, gx), y.left_action(pb, gy)), (p, g)


def test_pullback_rejects_mismatched_targets():
    x = _hilbert("X", ["e"])
    y = _hilbert("Y", ["f1", "f2"])
    mx = identity_morphism(x)
    my = identity_morphism(y)
    with pytest.raises(ValueError):
        restricted_direct_sum(mx, my)
