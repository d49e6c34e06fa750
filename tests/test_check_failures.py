"""Failure records of the checks.

Each test feeds a check deliberately broken input and pins the whole
report as (name, ok, detail) triples: for a family, one failed check per
failing instance, in order, then the family's summary; for a single
check, one record whose detail is its first witness."""

from dataclasses import replace
from fractions import Fraction

import pytest

from corrkit import spheres
from corrkit.algebra import CommAlgebra, diagonal_algebra
from corrkit.correspondences import (Correspondence, Morphism, check_covariant_rep,
                                     check_morphism, check_pullback_hypotheses)
from corrkit.engine import Engine, check_graph_hom, tautological_checks
from corrkit.labelled import (EdgeFamily, LabelledGraph, check_labelled_morphism,
                              concrete_graph, truncate_space)
from corrkit.spheres import (SphereConfig, _row_edges, _row_engine, _row_images,
                             build_En_space, build_omega, build_X_A, build_Y_B, build_Z_C,
                             check_omega_factorization, rho_Y_images)


def _records(rep):
    return [(c.name, c.ok, c.detail) for c in rep.checks]


def _hilbert(name, gens):
    a = diagonal_algebra("A", ["u"])
    return Correspondence(name, a, gens, {(g, g): {"u": 1} for g in gens},
                          {(g, "u"): {g: 1} for g in gens},
                          {("u", g): {g: 1} for g in gens})


X_COVARIANT_FAILURES = [
    ("(C1) at (w_1_1,w_1_1)", False, ""),
    ("(C1) at (w_1_2,w_1_2)", False, ""),
    ("(C1) inner products realized", False, ""),
    ("algebra relations at (P1,P1)", False, ""),
    ("algebra relations realized", False, ""),
    ("(C2) at (P1,w_1_1)", False, ""),
    ("right action at (w_1_1,P1)", False, ""),
    ("(C2) at (P1,w_1_2)", False, ""),
    ("right action at (w_1_2,P1)", False, ""),
    ("right action at (w_1_2,P2)", False, ""),
    ("(C2) left actions realized (and right actions)", False, ""),
    ("(C4) at P1", False, "image sum differs from atom image"),
    ("(C4) covariance realized", False, ""),
]


def test_covariant_rep_failure_records_on_swapped_and_scaled_images():
    """X at n = 1 with its two edge images swapped, P2 sent to zero and
    P1 to twice its projection."""
    cfg = SphereConfig(1)
    disc = _row_engine(1, 2)
    w, p = _row_images(disc, 1, 2, "w", "P")
    w["w_1_1"], w["w_1_2"] = w["w_1_2"], w["w_1_1"]
    p["P1"], p["P2"] = 2 * p["P1"], disc.zero()
    assert _records(check_covariant_rep(build_X_A(cfg), w, p, disc)) == X_COVARIANT_FAILURES


Y_COVARIANT_FAILURES = [
    ("(C1) at (y,y)", False, ""),
    ("(C1) at (y,y_1)", False, ""),
    ("(C1) at (y,y_2)", False, ""),
    ("(C1) at (y,y_3)", False, ""),
    ("(C1) at (y,yp)", False, ""),
    ("(C1) at (y_1,y_1)", False, ""),
    ("(C1) at (yp,yp)", False, ""),
    ("(C1) inner products realized", False, "boundary pairs deferred: (y,y_4), (y_4,y_4)"),
    ("algebra relations realized", True, ""),
    ("(C2) at (Q1,y)", False, ""),
    ("right action at (y,Q1)", False, ""),
    ("(C2) at (Q1,y_1)", False, ""),
    ("right action at (y_1,Q1)", False, ""),
    ("(C2) at (Q1,y_2)", False, ""),
    ("right action at (yp,Q1)", False, ""),
    ("(C2) at (Q2,y)", False, ""),
    ("right action at (y,Q2)", False, ""),
    ("(C2) at (Q2,y_1)", False, ""),
    ("right action at (y_1,Q2)", False, ""),
    ("(C2) at (Q2,y_2)", False, ""),
    ("right action at (yp,Q2)", False, ""),
    ("(C2) at (Q3,y)", False, ""),
    ("right action at (y,Q3)", False, ""),
    ("(C2) at (Q4,y)", False, ""),
    ("right action at (y,Q4)", False, ""),
    ("(C2) at (R1,y)", False, ""),
    ("(C2) at (R2,y)", False, ""),
    ("(C2) left actions realized (and right actions)", False, ""),
    ("(C4) at R2", False, "image sum differs from atom image"),
    ("(C4) at Q1", False, "image sum differs from atom image"),
    ("(C4) at Q2", False, "image sum differs from atom image"),
    ("(C4) at Q3", False, "image sum differs from atom image"),
    ("(C4) covariance realized", False, "deferred atoms: Q4, -Q1-Q2-Q3-Q4+R1"),
]


def test_covariant_rep_failure_records_keep_deferred_details():
    """Y at n = 1, N = 4 with y sent to zero and Q1 and Q2 swapped: the
    failures come with the summaries' deferral details."""
    cfg = SphereConfig(1)
    disc = _row_engine(1, 2)
    mod, alg = rho_Y_images(cfg, *_row_images(disc, 1, 2, "w", "P"))
    mod["y"] = disc.zero()
    alg["Q1"], alg["Q2"] = alg["Q2"], alg["Q1"]
    assert _records(check_covariant_rep(build_Y_B(cfg), mod, alg, disc)) == Y_COVARIANT_FAILURES


GRAPH_HOM_FAILURES = [
    ("p[v2]p[v2] orthogonality", False, ""),
    ("projections orthogonal idempotents", False, ""),
    ("s[e_1_1]*s[e_1_1]", False, ""),
    ("s[e_1_2]*s[e_1_2]", False, ""),
    ("s[e_2_2]*s[e_2_2]", False, ""),
    ("edge images: isometry relations", False, ""),
    ("p[src]s[e_1_1] = s[e_1_1]", False, ""),
    ("s[e_1_1]p[rng] = s[e_1_1]", False, ""),
    ("p[v2]s[e_1_1] = 0", False, ""),
    ("p[src]s[e_2_2] = s[e_2_2]", False, ""),
    ("s[e_2_2]p[rng] = s[e_2_2]", False, ""),
    ("p[v1]s[e_2_2] = 0", False, ""),
    ("edge images: support and range", False, ""),
    ("p[v1] = sum of ranges", False, ""),
    ("p[v2] = sum of ranges", False, ""),
    ("regular vertices resolve", False, ""),
]


def test_graph_hom_failure_records_on_swapped_and_zeroed_images():
    """The sphere row graph at n = 2 with e_1_2 sent to zero, v1 to the
    projection of v2 and v2 to twice the projection of v1."""
    eng = _row_engine(2, 2)
    edges = _row_edges(2, 2)
    s = {name: eng.s(name) for name, _, _ in edges}
    s["e_1_2"] = eng.zero()
    p = {"v1": eng.p("v2"), "v2": 2 * eng.p("v1")}
    assert _records(check_graph_hom(["v1", "v2"], edges, eng, s, p)) == GRAPH_HOM_FAILURES


class _EveryKthUnequal(Engine):
    """An engine whose every k-th equality test answers False."""

    def __init__(self, space, k):
        super().__init__(space)
        self.k = k
        self.calls = 0

    def equals(self, x, y):
        self.calls += 1
        return self.calls % self.k != 0 and super().equals(x, y)


TAUTOLOGY_FAILURES = [
    ("additivity at {v>=1},{v>=7}", False, ""),
    ("additivity at {v>=2},{v>=3}", False, ""),
    ("additivity at {v>=2},{w1}", False, ""),
    ("additivity at {v>=3},{v>=7}", False, ""),
    ("additivity at {v>=4},{v>=5}", False, ""),
    ("additivity at {v>=4},{w2,v>=1}", False, ""),
    ("additivity at {v>=5},{w1,w2,v>=1}", False, ""),
    ("additivity at {v>=6},{w1,w2,v>=1}", False, ""),
    ("additivity at {v>=7},{w2,v>=1}", False, ""),
    ("additivity at {u1},{w1}", False, ""),
    ("additivity at {w1,w2,v>=1},{w2,v>=1}", False, ""),
    ("projection lattice additivity", False, ""),
    ("commutation p{v>=2} s['f1']", False, ""),
    ("commutation p{v>=4} s['e_1_1']", False, ""),
    ("commutation p{v>=5} s['h']", False, ""),
    ("commutation p{v>=7} s['g']", False, ""),
    ("commutation p{u1} s['g']", False, ""),
    ("commutation p{w1,w2,v>=1} s['f1']", False, ""),
    ("projections commute past isometries", False, ""),
    ("s*s at 'e_1_1','e_1_1'", False, ""),
    ("s*s at 'f1','h'", False, ""),
    ("s*s at 'h','g'", False, ""),
    ("isometry products diagonal", False, ""),
    ("summation relation at {v>=6}", False, ""),
    ("summation relation", False, ""),
]


def test_tautological_failure_records_with_every_seventh_test_unequal():
    eng = _EveryKthUnequal(build_En_space(SphereConfig(2)), 7)
    assert _records(tautological_checks(eng)) == TAUTOLOGY_FAILURES
    assert eng.calls == 152


def test_morphism_failure_records_when_the_ideal_leaves_the_target_ideal():
    """A Hilbert space mapped into a module whose inner product is zero:
    the compact atom u lands on a non-compact one, so (C3) fails, and
    (C4) has no target decomposition to show."""
    null = Correspondence("null", diagonal_algebra("A", ["u"]), ["f"], {},
                          {("f", "u"): {"f": 1}}, {("u", "f"): {"f": 1}})
    m = Morphism(_hilbert("X", ["e"]), null, {"u": {"u": 1}}, {"e": {"f": 1}})
    assert _records(check_morphism(m)) == [
        ("algebra map multiplicative", True, ""),
        ("(C1) at (e,e)", False, "0 != u"),
        ("(C1) inner products preserved", False, ""),
        ("module map respects right action", True, ""),
        ("(C2) left actions intertwined", True, ""),
        ("(C3) image of u", False, "meets non-ideal atom u"),
        ("(C3) ideal maps into ideal", False, ""),
        ("(C4) at u", False, "pushed theta[f, f]; first mismatch on f: 0 != f"),
        ("(C4) covariance on the ideal", False, ""),
    ]


def _broken_pullback():
    """mx misses f2 and sends the kernel atom k to u; my kills the
    algebra, and its atom u acts with zero inner products (not compact)
    while its atom v is guarded."""
    z = _hilbert("Z", ["f1", "f2"])
    x = Correspondence("X", diagonal_algebra("A", ["k", "u"]), ["e"],
                       {("e", "e"): {"u": 1}}, {("e", "u"): {"e": 1}},
                       {("u", "e"): {"e": 1}})
    y = Correspondence("Y", diagonal_algebra("B", ["u", "v"]), ["e", "f"], {},
                       {("e", "u"): {"e": 1}, ("f", "v"): {"f": 1}},
                       {("u", "e"): {"e": 1}, ("v", "f"): {"f": 1}}, guards={"v"})
    return (Morphism(x, z, {"k": {"u": 1}, "u": {"u": 1}}, {"e": {"f1": 1}}),
            Morphism(y, z, {"u": {}, "v": {}}, {"e": {"f1": 1}, "f": {"f2": 1}}))


PULLBACK_FAILURES = [
    ("(1) first module map surjective", False, "misses f2"),
    ("(1) second algebra map surjective", False, "misses u"),
    ("(1) kernel images agree", False, ""),
    ("(1) surjective with matching kernel images", False, "kernel image spans: ['u'] = 0"),
    ("(2) second atom u compact", False, ""),
    ("(2) left actions by compacts", False, "deferred atoms: second:v"),
]


def test_pullback_failure_records():
    assert _records(check_pullback_hypotheses(*_broken_pullback())) == PULLBACK_FAILURES + [
        ("(3) kernels complemented", True, "first: u; second: u, v"),
    ]


def test_pullback_failure_records_when_no_complement_is_an_ideal(monkeypatch):
    """Spans of atoms are always ideals, so (3) is reached through a
    refusing `span_is_ideal`."""
    monkeypatch.setattr(CommAlgebra, "span_is_ideal",
                        lambda self, gens: (False, f"{self.name} refuses {len(gens)}"))
    assert _records(check_pullback_hypotheses(*_broken_pullback())) == PULLBACK_FAILURES + [
        ("(3) first complement is an ideal", False, "A refuses 1"),
        ("(3) second complement is an ideal", False, "B refuses 2"),
        ("(3) kernels complemented", False, "first: u; second: u, v"),
    ]


# ------------------------------------------- labelled morphisms and graphs

MORPHISM_PREFIX = [
    ("maps total with images in target", True, ""),
    ("injective on surviving vertices", True, ""),
    ("label map coherent", True, ""),
    ("label map injective", True, ""),
]


def _labelled_morphism_records(vertex_changes=(), edge_changes=()):
    """`check_labelled_morphism` on truncated E_2 mapped to itself: the
    identity maps with the given entries replaced; an edge change names
    the edge whose image it takes, or None to kill it."""
    space = truncate_space(build_En_space(SphereConfig(2)), 3)
    edges = {e.name: e for e in space.graph.edges}
    vertex_map = {v: v for v in space.graph.named_vertices}
    vertex_map.update(vertex_changes)
    edge_map = dict(edges)
    edge_map.update((name, image and edges[image]) for name, image in edge_changes)
    return _records(check_labelled_morphism(space, space, vertex_map, edge_map))


def test_labelled_morphism_records_on_a_collapsed_vertex():
    assert _labelled_morphism_records({("v", 2): ("v", 1)}) == [
        ("maps total with images in target", True, ""),
        ("injective on surviving vertices", False, "('v', 1) and ('v', 2) both map to ('v', 1)"),
        ("label map coherent", True, ""),
        ("label map injective", True, ""),
        ("ranges compatible per label", False,
         "label 'f1': vertex images ['w1', 'w2', ('v', 1), ('v', 3)] "
         "!= edge image ranges ['w1', 'w2', ('v', 1), ('v', 2), ('v', 3)]"),
        ("set family preserved", False,
         "image {w1,w2,v1,v3} of {w1,w2,v1,v2,v3} is outside the target family"),
    ]


def test_labelled_morphism_records_on_a_repeated_label_image():
    """Every h edge goes to the g edge of its index: g and h both map to g."""
    changes = [(("h", k), ("g", k)) for k in (1, 2, 3)]
    assert _labelled_morphism_records(edge_changes=changes) == [
        ("maps total with images in target", True, ""),
        ("injective on surviving vertices", True, ""),
        ("label map coherent", True, ""),
        ("label map injective", False, "'g' and 'h' both map to 'g'"),
        ("ranges compatible per label", False,
         "label 'h': vertex images ['w1'] != edge image ranges [('v', 1), ('v', 2), ('v', 3)]"),
        ("set family preserved", True, ""),
    ]


def test_killed_vertices_and_labels_do_not_collide():
    """w1, w2 and every f1 and h edge go to None: two killed vertices and
    two killed labels share no image."""
    killed = [(("f1", k), None) for k in range(1, 6)] + [(("h", k), None) for k in (1, 2, 3)]
    assert _labelled_morphism_records({"w1": None, "w2": None}, killed) == MORPHISM_PREFIX + [
        ("ranges compatible per label", False,
         "label 'f1': vertex images [('v', 1), ('v', 2), ('v', 3)] != edge image ranges []"),
        ("set family preserved", True, ""),
    ]


def test_labelled_morphism_records_end_at_an_incoherent_label_map():
    assert _labelled_morphism_records(edge_changes=[(("f1", 1), ("g", 1))]) == [
        ("maps total with images in target", True, ""),
        ("injective on surviving vertices", True, ""),
        ("label map coherent", False, "label 'f1' maps incoherently"),
    ]


def test_labelled_morphism_records_on_a_range_mismatch():
    assert _labelled_morphism_records({"w1": "w2", "w2": "w1"}) == MORPHISM_PREFIX + [
        ("ranges compatible per label", False, "label 'h': vertex images ['w2'] != edge image ranges ['w1']"),
        ("set family preserved", False, "image {w2} of {w1} is outside the target family"),
    ]


def test_labelled_morphism_records_on_a_family_image_outside_the_target():
    assert _labelled_morphism_records({("v", 2): ("v", 3), ("v", 3): ("v", 2)}) == MORPHISM_PREFIX + [
        ("ranges compatible per label", True, ""),
        ("set family preserved", False, "image {v2} of {v3} is outside the target family"),
    ]


def test_labelled_morphism_records_on_an_image_that_emits_no_label():
    assert _labelled_morphism_records({"u1": "w1", "w1": "u1"}) == MORPHISM_PREFIX + [
        ("ranges compatible per label", False,
         "label 'e_1_1': vertex images ['w1'] != edge image ranges ['u1']"),
        ("set family preserved", False, "{u1} emits labels but its image {w1} emits none"),
    ]


def test_labelled_morphism_records_end_at_a_map_that_is_not_total():
    """w1 and w2 have no image: the report ends at the first check
    rather than reading the missing images in the range check."""
    space = truncate_space(build_En_space(SphereConfig(2)), 3)
    vertex_map = {v: v for v in space.graph.named_vertices if v not in ("w1", "w2")}
    edge_map = {e.name: e for e in space.graph.edges}
    assert _records(check_labelled_morphism(space, space, vertex_map, edge_map)) == [
        ("maps total with images in target", False, ""),
    ]


def test_labelled_graph_records_on_dangling_edges():
    g = concrete_graph(["a", "b"], [("e1", "a", "c", "x"), ("e2", "a", "b", "x"),
                                    ("e3", "d", "a", "y")])
    assert _records(g.validate()) == [
        ("edge names unique", True, ""),
        ("family bases unique", True, ""),
        ("edge e1 endpoints exist", False, "src=a dst=c"),
        ("edge e3 endpoints exist", False, "src=d dst=a"),
        ("concrete endpoints exist", False, ""),
        ("family specs well formed", True, ""),
    ]


@pytest.mark.parametrize("family, ok", [
    (EdgeFamily("f", 0, ("idx", "v", 0), ("idx", "v", 1), ("const", "x")), False),
    (EdgeFamily("f", 1, ("const", "zz"), ("idx", "v", 1), ("const", "x")), False),
    (EdgeFamily("f", 1, ("idx", "q", 0), ("idx", "v", 1), ("const", "x")), False),
    (EdgeFamily("f", 1, ("idx", "v", -1), ("idx", "v", 1), ("const", "x")), False),
    (EdgeFamily("f", 1, ("idx", "v", 0), ("idx", "v", 1), ("idx", "l", -1)), False),
    (EdgeFamily("f", 1, ("const", "a"), ("const", "a"), ("const", "x")), False),
    (EdgeFamily("f", 1, ("const", "a"), ("idx", "v", 1), ("idx", "l", 0)), True),
], ids=["start-zero", "missing-vertex", "missing-base", "index-below-one",
        "label-below-one", "parallel-constants", "well-formed"])
def test_labelled_graph_records_on_family_specs(family, ok):
    g = LabelledGraph(frozenset({"a"}), frozenset({"v"}), (), (family,))
    assert _records(g.validate()) == [
        ("edge names unique", True, ""),
        ("family bases unique", True, ""),
        ("concrete endpoints exist", True, ""),
        ("family specs well formed", ok, ""),
    ]


# ------------------------------------------------ factorization of omega

@pytest.mark.parametrize("table, images, mismatch", [
    ("mod_map", {"y": {"z_1_2": 1}, "x_1_1": {}}, ("module", "x_1_1")),
    ("alg_map", {"Q1": {"S1": 1}}, ("algebra", "Q1")),
], ids=["module", "algebra"])
def test_omega_factorization_records_on_perturbed_images(table, images, mismatch):
    """omega at n = 2 with some images changed: the failed check names
    the first changed generator in sorted order."""
    cfg = SphereConfig(2)
    omega = build_omega(cfg, build_Y_B(cfg), build_Z_C(cfg))
    omega = replace(omega, **{table: {**getattr(omega, table), **images}})
    records = _records(check_omega_factorization(cfg, omega, _row_engine(2, 3), _row_engine(2, 2)))
    assert records[:9] == [(name, True, "") for name in (
        "flip automorphism / relations / projections orthogonal idempotents",
        "flip automorphism / relations / edge images: isometry relations",
        "flip automorphism / relations / edge images: support and range",
        "flip automorphism / relations / regular vertices resolve",
        "flip automorphism / applying the flip twice fixes the generators",
        "sink-killing extension / projections orthogonal idempotents",
        "sink-killing extension / edge images: isometry relations",
        "sink-killing extension / edge images: support and range",
        "sink-killing extension / regular vertices resolve")]
    kind, first = mismatch
    assert records[9:] == [
        ("omega agrees on module generators", kind != "module",
         f"first mismatch at {first}" if kind == "module" else ""),
        ("omega agrees on algebra generators", kind != "algebra",
         f"first mismatch at {first}" if kind == "algebra" else ""),
    ]


# ------------------------------------------------------- glued pair span

def _merged_sinks(table):
    """The sink rows P3|0 and 0|R3 replaced by their sum, one row P3|R3."""
    rest = [row for row in table if row[0] not in ("P3|0", "0|R3")]
    return rest + [("P3|R3", {"P3": Fraction(1)}, {"R3": Fraction(1)})]


@pytest.mark.parametrize("atoms, stray, missing", [
    (lambda table: [row for row in table if row[0] != "P3|0"], "", "P3|0"),
    (_merged_sinks, "stray 0|x_1_3", "P3|0, 0|R3"),
], ids=["lacking", "merged"])
def test_mirror_span_records_on_a_lost_sink_row(atoms, stray, missing):
    """The glued sum at n = 2 with a sink pair atom dropped or merged
    into the other: the sink half of the loop-pair check names the
    missing rows, since a product with an unknown symbol is zero too."""
    cfg = SphereConfig(2)
    rsum, psi, omega = spheres.build_mirror_sum(cfg)
    rsum = replace(rsum, atom_table=atoms(rsum.atom_table))
    assert _records(spheres.mirror_span_report(cfg, rsum, psi, omega)) == [
        ("expected pairs lie in the computed module", True, "14 pairs checked"),
        ("computed generators lie in the translated span of the expected pairs", not stray, stray),
        ("expected projections lie in the pair algebra", False, "projection index 2 escapes"),
        ("pair atoms lie in the span of the expected projections", True, ""),
        ("corner projections sit under the loop pair and the two sink parts are orthogonal",
         False, f"no pair atom {missing}"),
    ]


def test_lemma_records_with_every_rank_one_operator_doubled(monkeypatch):
    """Each theta[x, y] replaced by theta[2x, y] at n = 2: every rank-one
    check fails, the row loops naming their last failing row and the
    single operators their first failing generator."""
    real = spheres.theta
    monkeypatch.setattr(spheres, "theta", lambda x, y: real({k: 2 * v for k, v in x.items()}, y))
    cfg = SphereConfig(2)
    assert _records(spheres.lemma_suite(cfg, build_X_A(cfg))) == [
        ("disc kernel is the sink projection", True, "ker phi = span of P3"),
        ("disc compactness ideal is the regular rows", True, "ideal atoms: ['P1', 'P2']"),
        ("disc module fully resolved", True, ""),
        ("each ideal projection is its full row of rank-one terms", False, "row 2 fails at w_2_2"),
        ("rows truncated before the sink column are refuted", False,
         "dropping the sink column loses the action on it"),
        ("each leading filtered row decomposes over its x block", False, "row 1 fails at x_1_1"),
        ("filtered rows truncated before the last column are refuted", False,
         "dropping the last column loses the action on it"),
        ("loop-row projection is a single rank-one corner", False, "fails at y"),
        ("sink-row projection is a single rank-one corner", False, "fails at y"),
        ("corner projections are rank-one", False, "Q4 fails at y"),
        ("filtered module has trivial kernel", True,
         "with the rank-one rows above, the ideal is the whole algebra on the verified range"),
    ]
