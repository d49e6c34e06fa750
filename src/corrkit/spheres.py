"""Mirror quantum spheres as exact correspondence data.

The even mirror quantum sphere sits between two module presentations: a
module X over the diagonal algebra A of a disc-type row graph, and a
module Y over a non-diagonal algebra B whose extra projections Q_j
record a corner filtration.  Both project onto a common module Z over
C, and the restricted direct sum of X and Y over Z is carried by the
operator algebra of an indexed labelled space.  This module builds each
piece and replays the defining identities inside exact term engines.
Each tier builds the unvalidated tables it checks, and
`verify_sphere_suite` validates X, Y and Z once each and reports them.

B and Y are infinitely presented.  Builders cut the index set at a
bound N; the cut clips exactly two inner-product rows at the boundary
(their true value is the next corner projection, which falls outside
the cut), so the suites defer those instances and settle them against
exact engine values instead of the clipped tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import CommAlgebra, diagonal_algebra
from .correspondences import (Correspondence, Morphism, _tagged, check_covariant_rep,
                              check_morphism, check_pullback_hypotheses,
                              kernel_and_jx, restricted_direct_sum, theta)
from .engine import Engine, check_graph_hom, substitute
from .exactlinalg import SpanSolver, sort_key
from .graphs import Graph
from .ktheory import k_theory
from .labelled import (Edge, EdgeFamily, LabelledGraph, build_space,
                       concrete_graph, is_left_resolving,
                       is_weakly_left_resolving)
from .reports import Report
from .setexpr import atoms as atom_set, tail

ONE = Fraction(1)


@dataclass(frozen=True)
class SphereConfig:
    """Sphere parameter n and truncation bound N for the filtered side."""

    n: int
    N: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sphere parameter n must be at least 1")
        if self.N < 2:
            raise ValueError("truncation bound N must be at least 2")


def _ij(sym: str) -> tuple[int, int]:
    parts = sym.split("_")
    return int(parts[-2]), int(parts[-1])


def _single(vec) -> str | None:
    """The symbol of a one-term coefficient-one vector, else None."""
    if len(vec) == 1:
        (sym, c), = vec.items()
        if c == 1:
            return sym
    return None


# ----------------------------------------------------------- row pattern


def _row_edges(n: int, top: int) -> list[tuple[str, str, str]]:
    return [(f"e_{i}_{j}", f"v{i}", f"v{j}")
            for i in range(1, n + 1) for j in range(i, top + 1)]


def _add_row(tables: tuple, gen: str, proj: str, i: int, top: int) -> None:
    """Append row i of the row pattern to (gens, inner, right, left): a
    generator gen_{i,j} for each column j = i..top, whose inner product
    and right action sit on the column projection proj{j} and whose left
    action is by the row projection proj{i}."""
    gens, inner, right, left = tables
    for j in range(i, top + 1):
        g = f"{gen}_{i}_{j}"
        gens.append(g)
        inner[(g, g)] = {f"{proj}{j}": ONE}
        right[(g, f"{proj}{j}")] = {g: ONE}
        left[(f"{proj}{i}", g)] = {g: ONE}


def _row_module(name: str, alg_name: str, gen: str, proj: str, n: int,
                top: int, validate: bool) -> Correspondence:
    """The n-row pattern over the diagonal algebra on proj1..proj{top}."""
    tables: tuple = ([], {}, {}, {})
    for i in range(1, n + 1):
        _add_row(tables, gen, proj, i, top)
    algebra = diagonal_algebra(alg_name, [f"{proj}{j}" for j in range(1, top + 1)])
    return Correspondence(name, algebra, *tables, validate=validate)


def _row_graph(n: int, top: int) -> Graph:
    return Graph([f"v{i}" for i in range(1, top + 1)], _row_edges(n, top))


def _row_engine(n: int, top: int) -> Engine:
    """Term engine of the row graph, one label per edge."""
    g = _row_graph(n, top)
    lg = concrete_graph(g.vertices, [(e, g.src[e], g.dst[e], e) for e in g.edges])
    return Engine(build_space(lg, generators=[atom_set(v) for v in g.vertices]))


def _row_images(eng: Engine, n: int, top: int, gen: str, proj: str):
    """Canonical images of the row-pattern generators in the row engine:
    gen_{i,j} goes to its edge and proj{i} to its vertex projection."""
    mod = {f"{gen}_{i}_{j}": eng.s(f"e_{i}_{j}")
           for i in range(1, n + 1) for j in range(i, top + 1)}
    alg = {f"{proj}{i}": eng.p(f"v{i}") for i in range(1, top + 1)}
    return mod, alg


def build_disc_graph(cfg: SphereConfig) -> Graph:
    """Row graph of the quantum disc: a loop at each of the first n
    vertices, upward edges, and a sink in the last column."""
    return _row_graph(cfg.n, cfg.n + 1)


def build_z_graph(cfg: SphereConfig) -> Graph:
    """The same row pattern without the sink column; every vertex is
    regular."""
    return _row_graph(cfg.n, cfg.n)


# -------------------------------------------------------- presentations


def build_X_A(cfg: SphereConfig, validate: bool = True) -> Correspondence:
    """Disc module X over the diagonal algebra A.

    One generator w_{i,j} per disc edge; inner products land on the
    column projection, the right action selects the column and the left
    action the row.
    """
    return _row_module("X", "A", "w", "P", cfg.n, cfg.n + 1, validate)


def build_Z_C(cfg: SphereConfig, validate: bool = True) -> Correspondence:
    """Sphere module Z over C: the disc pattern without its sink column."""
    return _row_module("Z", "C", "z", "S", cfg.n, cfg.n, validate)


def build_Y_B(cfg: SphereConfig, validate: bool = True,
              bound: int | None = None) -> Correspondence:
    """Filtered module Y over B, cut at the truncation bound.

    B carries the row projections R_1..R_{n+1} plus corner projections
    Q_1..Q_N sitting under R_n.  Generators: a leading block x_{i,j}
    mirroring the first n-1 disc rows, corner translates xn_{i,j} of
    the x_{i,n} column, and a boundary block y, yp, y_1..y_N.  The rows
    <y, y_N> and <y_N, y_N> are clipped: their true value Q_{N+1} lies
    past the cut.  `bound` overrides N for the internal deeper builds.
    """
    n = cfg.n
    N = cfg.N if bound is None else bound
    basis = [f"R{i}" for i in range(1, n + 2)]
    basis += [f"Q{j}" for j in range(1, N + 1)]
    table: dict = {}
    for i in range(1, n + 2):
        table[(f"R{i}", f"R{i}")] = {f"R{i}": ONE}
    for j in range(1, N + 1):
        table[(f"Q{j}", f"Q{j}")] = {f"Q{j}": ONE}
        table[(f"R{n}", f"Q{j}")] = {f"Q{j}": ONE}
    algebra = CommAlgebra("B", basis, table)

    tables: tuple = ([], {}, {}, {})
    gens, inner, right, left = tables
    for i in range(1, n):
        _add_row(tables, "x", "R", i, n + 1)
        for j in range(1, N + 1):
            xn = f"xn_{i}_{j}"
            gens.append(xn)
            inner[(f"x_{i}_{n}", xn)] = {f"Q{j}": ONE}
            inner[(xn, xn)] = {f"Q{j}": ONE}
            right[(f"x_{i}_{n}", f"Q{j}")] = {xn: ONE}
            right[(xn, f"R{n}")] = {xn: ONE}
            right[(xn, f"Q{j}")] = {xn: ONE}
            left[(f"R{i}", xn)] = {xn: ONE}

    gens += ["y", "yp"] + [f"y_{i}" for i in range(1, N + 1)]
    inner[("y", "y")] = {f"R{n}": ONE}
    inner[("y", "yp")] = {"Q1": ONE}
    inner[("yp", "yp")] = {"Q1": ONE}
    for i in range(1, N):
        inner[("y", f"y_{i}")] = {f"Q{i + 1}": ONE}
        inner[(f"y_{i}", f"y_{i}")] = {f"Q{i + 1}": ONE}
    right[("y", f"R{n}")] = {"y": ONE}
    right[("y", "Q1")] = {"yp": ONE}
    for k in range(2, N + 1):
        right[("y", f"Q{k}")] = {f"y_{k - 1}": ONE}
    right[("yp", f"R{n}")] = {"yp": ONE}
    right[("yp", "Q1")] = {"yp": ONE}
    for i in range(1, N + 1):
        right[(f"y_{i}", f"R{n}")] = {f"y_{i}": ONE}
        if i < N:
            right[(f"y_{i}", f"Q{i + 1}")] = {f"y_{i}": ONE}
    left[(f"R{n}", "y")] = {"y": ONE, "yp": -ONE}
    left[(f"R{n + 1}", "y")] = {"yp": ONE}
    left[(f"R{n + 1}", "yp")] = {"yp": ONE}
    for i in range(1, N + 1):
        left[(f"R{n}", f"y_{i}")] = {f"y_{i}": ONE}
        left[(f"Q{i}", "y")] = {f"y_{i}": ONE}
        left[(f"Q{i}", f"y_{i}")] = {f"y_{i}": ONE}
    return Correspondence("Y", algebra, gens, inner, right, left,
                          validate=validate)


def y_guard_symbols(cfg: SphereConfig, bound: int | None = None) -> frozenset:
    """Basis symbols whose ideal verdict depends on clipped rows: the
    loop row R_n and the last corner Q_N."""
    N = cfg.N if bound is None else bound
    return frozenset({f"R{cfg.n}", f"Q{N}"})


def y_boundary_pairs(cfg: SphereConfig) -> frozenset:
    """Generator pairs of Y whose tabulated inner product is clipped."""
    N = cfg.N
    return frozenset({("y", f"y_{N}"), (f"y_{N}", f"y_{N}")})


# ------------------------------------------------------------ morphisms


def build_psi(cfg: SphereConfig, x: Correspondence,
              z: Correspondence) -> Morphism:
    """Quotient morphism from the disc module x onto the sphere module z:
    the sink column is crushed, everything else keeps its name."""
    n = cfg.n
    alg = {f"P{i}": {f"S{i}": ONE} for i in range(1, n + 1)}
    alg[f"P{n + 1}"] = {}
    mod: dict = {}
    for i in range(1, n + 1):
        for j in range(i, n + 2):
            mod[f"w_{i}_{j}"] = {f"z_{i}_{j}": ONE} if j <= n else {}
    return Morphism(x, z, alg, mod)


def build_omega(cfg: SphereConfig, y: Correspondence,
                z: Correspondence) -> Morphism:
    """Quotient morphism from the filtered module y onto the sphere
    module z: the corner filtration is crushed and the boundary
    generator y lands on the terminal loop."""
    n, N = cfg.n, cfg.N
    alg = {f"R{i}": ({f"S{i}": ONE} if i <= n else {})
           for i in range(1, n + 2)}
    for j in range(1, N + 1):
        alg[f"Q{j}"] = {}
    mod: dict = {}
    for i in range(1, n):
        for j in range(i, n + 2):
            mod[f"x_{i}_{j}"] = {f"z_{i}_{j}": ONE} if j <= n else {}
        for j in range(1, N + 1):
            mod[f"xn_{i}_{j}"] = {}
    mod["y"] = {f"z_{n}_{n}": ONE}
    mod["yp"] = {}
    for i in range(1, N + 1):
        mod[f"y_{i}"] = {}
    return Morphism(y, z, alg, mod)


# ------------------------------------------------------ engine images


def corner_elements(cfg: SphereConfig, w_img: dict, p_img: dict,
                    count: int) -> list:
    """T^i q T*^i for the shift T assembled from the last row, with q
    the sink projection.  These realize the corner projections Q_i."""
    n = cfg.n
    t = w_img[f"w_{n}_{n}"] + w_img[f"w_{n}_{n + 1}"]
    out = []
    cur = p_img[f"P{n + 1}"]
    for _ in range(count):
        cur = t * cur * t.adj()
        out.append(cur)
    return out


def rho_Y_images(cfg: SphereConfig, w_img: dict, p_img: dict):
    """Images of the Y generators over disc images.

    The last disc row assembles into a shift; boundary generators map
    to corners of its adjoint and the Q projections map to the corner
    elements.  Works for any family of disc images, canonical or
    composite.
    """
    n, N = cfg.n, cfg.N
    corners = corner_elements(cfg, w_img, p_img, N)
    back = w_img[f"w_{n}_{n}"].adj() + w_img[f"w_{n}_{n + 1}"].adj()
    mod: dict = {}
    for i in range(1, n):
        for j in range(i, n + 2):
            mod[f"x_{i}_{j}"] = w_img[f"w_{i}_{j}"]
        for j in range(1, N + 1):
            mod[f"xn_{i}_{j}"] = w_img[f"w_{i}_{n}"] * corners[j - 1]
    mod["y"] = back
    mod["yp"] = w_img[f"w_{n}_{n + 1}"].adj()
    for i in range(1, N + 1):
        mod[f"y_{i}"] = corners[i - 1] * back
    alg = {f"R{i}": p_img[f"P{i}"] for i in range(1, n + 2)}
    for j in range(1, N + 1):
        alg[f"Q{j}"] = corners[j - 1]
    return mod, alg


def rho_X_images(cfg: SphereConfig, y_mod: dict, y_alg: dict):
    """Images of the X generators over Y images: the last row is read
    off the boundary corners, everything else by name."""
    n = cfg.n
    mod: dict = {}
    for i in range(1, n):
        for j in range(i, n + 2):
            mod[f"w_{i}_{j}"] = y_mod[f"x_{i}_{j}"]
    mod[f"w_{n}_{n}"] = y_mod["y"].adj() - y_mod["yp"].adj()
    mod[f"w_{n}_{n + 1}"] = y_mod["yp"].adj()
    alg = {f"P{i}": y_alg[f"R{i}"] for i in range(1, n + 2)}
    return mod, alg


# --------------------------------------------------- flip and projection


def build_beta(cfg: SphereConfig, engz: Engine | None = None):
    """Flip of the sphere graph algebra: the terminal loop isometry is
    sent to its adjoint, every other generator is fixed.

    Returns (edge images, vertex images, report).  The report replays
    the graph relations on the images and checks that applying the
    assignment twice fixes the generators, which makes it an
    automorphism of order two.
    """
    n = cfg.n
    engz = engz if engz is not None else _row_engine(n, n)
    triples = _row_edges(n, n)
    s_images = {name: engz.s(name) for name, _, _ in triples}
    s_images[f"e_{n}_{n}"] = engz.s(f"e_{n}_{n}").adj()
    p_images = {f"v{i}": engz.p(f"v{i}") for i in range(1, n + 1)}
    rep = Report("flip automorphism")
    rep.merge(check_graph_hom([f"v{i}" for i in range(1, n + 1)], triples,
                              engz, s_images, p_images),
              prefix="relations")
    ok = all(engz.equals(substitute(s_images[name], engz, s_images, p_images),
                         engz.s(name))
             for name, _, _ in triples)
    rep.add("applying the flip twice fixes the generators", ok)
    return s_images, p_images, rep


def psi_hat_images(cfg: SphereConfig, engz: Engine):
    """Extension of psi to the disc graph algebra: the sink column goes
    to zero, the rest to their namesakes.  Returns images plus the
    relation-replay report that certifies well-definedness."""
    n = cfg.n
    s_images = {}
    for name, _, dst in _row_edges(n, n + 1):
        s_images[name] = engz.zero() if dst == f"v{n + 1}" else engz.s(name)
    p_images = {f"v{i}": engz.p(f"v{i}") for i in range(1, n + 1)}
    p_images[f"v{n + 1}"] = engz.zero()
    rep = check_graph_hom([f"v{i}" for i in range(1, n + 2)],
                          _row_edges(n, n + 1), engz, s_images, p_images,
                          regular=[f"v{i}" for i in range(1, n + 1)])
    return s_images, p_images, rep


def check_omega_factorization(cfg: SphereConfig) -> Report:
    """Pushing the Y images through the sink-killing extension and then
    the flip must reproduce omega on every generator."""
    n = cfg.n
    rep = Report("factorization of omega")
    engz = _row_engine(n, n)
    w_img, p_img = _row_images(_row_engine(n, n + 1), n, n + 1, "w", "P")
    mod, alg = rho_Y_images(cfg, w_img, p_img)
    beta_s, beta_p, beta_rep = build_beta(cfg, engz)
    rep.merge(beta_rep)
    hat_s, hat_p, hat_rep = psi_hat_images(cfg, engz)
    rep.merge(hat_rep, prefix="sink-killing extension")
    z_img, s_alg = _row_images(engz, n, n, "z", "S")
    omega = build_omega(cfg, build_Y_B(cfg, validate=False),
                        build_Z_C(cfg, validate=False))

    def push(el):
        return substitute(substitute(el, engz, hat_s, hat_p),
                          engz, beta_s, beta_p)

    bad = [g for g in sorted(mod, key=sort_key)
           if not engz.equals(push(mod[g]), engz.combine(omega.mod_map[g], z_img))]
    rep.add("omega agrees on module generators", not bad,
            f"first mismatch at {bad[0]}" if bad else "")
    badb = [b for b in sorted(alg, key=sort_key)
            if not engz.equals(push(alg[b]), engz.combine(omega.alg_map[b], s_alg))]
    rep.add("omega agrees on algebra generators", not badb,
            f"first mismatch at {badb[0]}" if badb else "")
    return rep


# ----------------------------------------------------- isomorphism suite


def _nonzero_orthogonal(eng: Engine, images: list) -> bool:
    """Every image is nonzero and any two multiply to zero.  Nonzero
    orthogonal idempotents are linearly independent, so for projection
    images this certifies an embedding."""
    zero = eng.zero()
    if any(eng.equals(img, zero) for img in images):
        return False
    return all(eng.equals(a * b, zero)
               for k, a in enumerate(images) for b in images[k + 1:])


def verify_XY_isomorphism(cfg: SphereConfig) -> Report:
    """Both directions of the sphere isomorphism inside the disc engine.

    The Y side is checked as a covariant representation built from the
    canonical disc images; the X side as the composite through it.
    Composites in both directions must fix the generators, which pins
    the two maps as mutually inverse on the dense subalgebras the
    generators span.  The guarded instances that the clipped tables
    cannot settle are verified here against exact engine values.
    """
    n, N = cfg.n, cfg.N
    rep = Report(f"sphere isomorphism (n={n}, N={N})")
    X = build_X_A(cfg, validate=False)
    Y = build_Y_B(cfg, validate=False)
    eng = _row_engine(n, n + 1)
    w_img, p_img = _row_images(eng, n, n + 1, "w", "P")
    mod, alg = rho_Y_images(cfg, w_img, p_img)
    rep.merge(check_covariant_rep(Y, mod, alg, eng,
                                  guards=y_guard_symbols(cfg),
                                  c1_defer=y_boundary_pairs(cfg)),
              prefix="(rho_Y, rho_B)")

    # the two clipped inner-product rows, against their true value
    nxt = corner_elements(cfg, w_img, p_img, N + 1)[N]
    okb = (eng.equals(mod["y"].adj() * mod[f"y_{N}"], nxt)
           and eng.equals(mod[f"y_{N}"].adj() * mod[f"y_{N}"], nxt))
    rep.add("clipped inner products equal the next corner element", okb)

    okc = True
    for i in range(1, N + 1):
        ai = alg[f"Q{i}"]
        okc = okc and eng.equals(ai.adj(), ai) and eng.equals(ai * ai, ai)
        okc = okc and eng.equals(ai * alg[f"R{n}"], ai)
        for j in range(i + 1, N + 1):
            okc = okc and eng.equals(ai * alg[f"Q{j}"], eng.zero())
    rep.add("corner elements are orthogonal projections under the loop row",
            okc)

    # guarded ideal atoms, realized exactly
    resid = alg[f"R{n}"]
    for i in range(1, N + 1):
        resid = resid - alg[f"Q{i}"]
    u = mod["y"] - mod["yp"]
    lhs = u * u.adj()
    for i in range(1, N + 1):
        lhs = lhs - mod[f"y_{i}"] * mod[f"y_{i}"].adj()
    okd = eng.equals(lhs, resid)
    okq = eng.equals(mod[f"y_{N}"] * mod[f"y_{N}"].adj(), alg[f"Q{N}"])
    rep.add("guarded ideal atoms realized exactly", okd and okq,
            "the loop remainder and the last corner projection")

    xmod, xalg = rho_X_images(cfg, mod, alg)
    rep.merge(check_covariant_rep(X, xmod, xalg, eng),
              prefix="(rho_X, rho_A)")

    okx = all(eng.equals(xmod[g], w_img[g]) for g in sorted(xmod, key=sort_key))
    okx = okx and all(eng.equals(xalg[b], p_img[b])
                      for b in sorted(xalg, key=sort_key))
    rep.add("X composite fixes the canonical images", okx)
    mod2, alg2 = rho_Y_images(cfg, xmod, xalg)
    oky = all(eng.equals(mod2[g], mod[g]) for g in sorted(mod, key=sort_key))
    oky = oky and all(eng.equals(alg2[b], alg[b])
                      for b in sorted(alg, key=sort_key))
    rep.add("Y composite fixes the representation", oky)

    images = [alg[f"R{i}"] for i in range(1, n + 2) if i != n]
    images += [alg[f"Q{j}"] for j in range(1, N + 1)]
    images.append(resid)
    oki = (_nonzero_orthogonal(eng, images)
           and not any(eng.equals(el, eng.zero()) for el in mod.values()))
    rep.add("atom images independent and module images nonzero", oki,
            "nonzero orthogonal idempotents are linearly independent")
    return rep


# ----------------------------------------------------------- ideal suite


def _op_matches_action(corr: Correspondence, op, avec, gens=None):
    """Compare a finite-rank operator with the left action of avec on
    the given generators; returns (ok, first witness)."""
    for g in (corr.gens if gens is None else gens):
        want = corr.left_action(avec, {g: ONE})
        got = op.apply(corr, {g: ONE})
        if got != want:
            return False, g
    return True, None


def _row_op(prefix, i, hi):
    """Sum of theta[g, g] over row i of the pattern, columns i..hi."""
    op = None
    for j in range(i, hi + 1):
        t = theta({f"{prefix}_{i}_{j}": ONE}, {f"{prefix}_{i}_{j}": ONE})
        op = t if op is None else op + t
    return op


def lemma_suite(cfg: SphereConfig) -> Report:
    """Kernel and compactness structure of both sphere modules.

    The filtered side is rebuilt one level past the configured bound so
    that every instance with index up to N is interior; only the final
    tail generator is excluded where its row is the clipped one.  The
    row sums are also tested with the upper bound stopping one column
    short, which must fail: the refutation pins the correct bound.
    """
    n, N = cfg.n, cfg.N
    rep = Report(f"ideal lemmas (n={n}, N={N})")
    X = build_X_A(cfg, validate=False)
    data = kernel_and_jx(X)
    rep.add("disc kernel is the sink projection",
            [name for name, _ in data.kernel] == [f"P{n + 1}"],
            f"ker phi = span of P{n + 1}")
    rep.add("disc compactness ideal is the regular rows",
            data.katsura_names() == {f"P{i}" for i in range(1, n + 1)},
            f"ideal atoms: {sorted(data.katsura_names(), key=sort_key)}")
    rep.add("disc module fully resolved",
            not data.deferred and not data.noncompact)

    deep = build_Y_B(cfg, validate=False, bound=N + 1)
    for corr, gen, proj, rows, full, full_detail, cut, cut_none, cut_detail in (
            (X, "w", "P", n, "each ideal projection is its full row of rank-one terms",
             "", "rows truncated before the sink column are refuted",
             "no rows above the loop row for n = 1",
             "dropping the sink column loses the action on it"),
            (deep, "x", "R", n - 1, "each leading filtered row decomposes over its x block",
             "corner translates resolve through the x_{i,n} column",
             "filtered rows truncated before the last column are refuted",
             "no leading rows for n = 1",
             "dropping the last column loses the action on it")):
        wit = ""
        for i in range(1, rows + 1):
            good, g = _op_matches_action(corr, _row_op(gen, i, n + 1), {f"{proj}{i}": ONE})
            if not good:
                wit = f"row {i} fails at {g}"
        rep.add(full, not wit, wit or full_detail)
        refuted = all(_op_matches_action(corr, _row_op(gen, i, n), {f"{proj}{i}": ONE})
                      == (False, f"{gen}_{i}_{n + 1}") for i in range(1, n))
        rep.add(cut, refuted, cut_detail if n > 1 else cut_none)

    interior = [g for g in deep.gens if g != f"y_{N + 1}"]
    op = theta({"y": ONE, "yp": -ONE}, {"y": ONE, "yp": -ONE})
    good, g = _op_matches_action(deep, op, {f"R{n}": ONE}, gens=interior)
    rep.add("loop-row projection is a single rank-one corner", good,
            "tested below the rebuilt bound" if good else f"fails at {g}")
    op = theta({"yp": ONE}, {"yp": ONE})
    good, g = _op_matches_action(deep, op, {f"R{n + 1}": ONE})
    rep.add("sink-row projection is a single rank-one corner", good,
            "" if good else f"fails at {g}")

    okq = True
    wit = ""
    for i in range(1, N + 1):
        op = theta({f"y_{i}": ONE}, {f"y_{i}": ONE})
        good, g = _op_matches_action(deep, op, {f"Q{i}": ONE})
        if not good:
            okq = False
            wit = f"Q{i} fails at {g}"
    rep.add("corner projections are rank-one", okq,
            wit or f"indices 1..{N}; the rebuilt boundary index {N + 1} stays deferred")

    alive = all(any(deep.left_action(avec, {g: ONE}) for g in deep.gens)
                for _, avec in deep.atoms())
    rep.add("filtered module has trivial kernel", alive,
            "with the rank-one rows above, the ideal is the whole algebra on the verified range")
    return rep


# ------------------------------------------------------------ glued sum


def build_mirror_sum(cfg: SphereConfig):
    """Restricted direct sum of the disc and filtered modules over the
    sphere module.  Returns (sum, psi, omega)."""
    z = build_Z_C(cfg)
    psi = build_psi(cfg, build_X_A(cfg), z)
    omega = build_omega(cfg, build_Y_B(cfg), z)
    rsum = restricted_direct_sum(psi, omega, name=f"mirror(n={cfg.n})")
    return rsum, psi, omega


def expected_pair_generators(cfg: SphereConfig) -> list:
    """The short list of matched module pairs: one per surviving disc
    generator (with the combined last-column pairs), the purely
    filtered tails, and the boundary block."""
    n, N = cfg.n, cfg.N
    pairs = []
    for i in range(1, n):
        for j in range(i, n + 2):
            pairs.append(({f"w_{i}_{j}": ONE}, {f"x_{i}_{j}": ONE}))
        for j in range(1, N + 1):
            pairs.append(({}, {f"xn_{i}_{j}": ONE}))
    pairs.append(({f"w_{n}_{n}": ONE}, {"y": ONE}))
    pairs.append(({f"w_{n}_{n + 1}": ONE}, {}))
    pairs.append(({}, {"yp": ONE}))
    for i in range(1, N + 1):
        pairs.append(({}, {f"y_{i}": ONE}))
    return pairs


def expected_pair_projections(cfg: SphereConfig) -> list:
    n, N = cfg.n, cfg.N
    out = [({f"P{i}": ONE}, {f"R{i}": ONE}) for i in range(1, n + 1)]
    out.append(({f"P{n + 1}": ONE}, {}))
    out.append(({}, {f"R{n + 1}": ONE}))
    out.extend(({}, {f"Q{j}": ONE}) for j in range(1, N + 1))
    return out


def mirror_span_report(cfg: SphereConfig, rsum, psi: Morphism,
                       omega: Morphism) -> Report:
    """Computed pair tables against the short expected lists.

    The expected module list is shorter than a basis: it generates the
    pair module over the pair algebra (right translation by the pair
    atoms splits the combined last-column rows), so spans are compared
    after closing under translation.
    """
    rep = Report("glued pair span")
    X, Y = psi.src, omega.src
    expected = expected_pair_generators(cfg)
    missing = [k for k, (vx, vy) in enumerate(expected)
               if rsum.gen_coords(vx, vy) is None]
    rep.add("expected pairs lie in the computed module", not missing,
            f"{len(expected)} pairs checked" if not missing
            else f"pair index {missing[0]} escapes")

    solver = SpanSolver()
    queue = list(expected)
    while queue:
        vx, vy = queue.pop()
        v = _tagged(vx, vy)
        if not v or solver.contains(v):
            continue
        solver.add(v)
        for _, va, vb in rsum.atom_table:
            queue.append((X.right_action(vx, va), Y.right_action(vy, vb)))
    stray = [name for name, vx, vy in rsum.gen_table
             if not solver.contains(_tagged(vx, vy))]
    rep.add("computed generators lie in the translated span of the expected pairs",
            not stray, f"stray {stray[0]}" if stray else "")

    projs = expected_pair_projections(cfg)
    badp = [k for k, (va, vb) in enumerate(projs)
            if rsum.atom_coords(va, vb) is None]
    rep.add("expected projections lie in the pair algebra", not badp,
            f"{len(projs)} projections checked" if not badp
            else f"projection index {badp[0]} escapes")
    psolver = SpanSolver([_tagged(va, vb, tags=("A", "B"))
                          for va, vb in projs])
    badq = [name for name, va, vb in rsum.atom_table
            if not psolver.contains(_tagged(va, vb, tags=("A", "B")))]
    rep.add("pair atoms lie in the span of the expected projections",
            not badq, f"stray {badq[0]}" if badq else "")

    A, B = X.algebra, Y.algebra
    n, N = cfg.n, cfg.N
    okl = True
    for j in range(1, N + 1):
        prod_b = B.mul({f"Q{j}": ONE}, {f"R{n}": ONE})
        okl = okl and prod_b == {f"Q{j}": ONE}
    okl = okl and not A.mul({f"P{n + 1}": ONE}, {})
    okl = okl and not B.mul({}, {f"R{n + 1}": ONE})
    rep.add("corner projections sit under the loop pair and the two sink parts are orthogonal",
            okl)
    return rep


def mirror_guard_atoms(rsum, cfg: SphereConfig) -> frozenset:
    """Pair atoms whose filtered part touches a clipped row: the loop
    remainder and the last corner projection."""
    n, N = cfg.n, cfg.N
    out = set()
    for name, _, vb in rsum.atom_table:
        if f"R{n}" in vb or set(vb) == {f"Q{N}"}:
            out.add(name)
    return frozenset(out)


def mirror_boundary_pairs(rsum, cfg: SphereConfig) -> frozenset:
    """Generator pairs of the glued module whose inner-product row is
    clipped, matching the filtered module's boundary rows."""
    N = cfg.N
    yname = tailname = None
    for name, _, vy in rsum.gen_table:
        if _single(vy) == "y":
            yname = name
        elif _single(vy) == f"y_{N}":
            tailname = name
    if yname is None or tailname is None:
        raise ValueError("boundary rows missing from the pair table")
    return frozenset({(yname, tailname), (tailname, tailname)})


# -------------------------------------------------------- labelled space


def build_En_graph(cfg: SphereConfig) -> LabelledGraph:
    """The indexed labelled graph carrying the glued correspondence.

    Finitely many named vertices (a chain of u's, the sink w1, the seed
    w2) plus one indexed vertex family v_j.  Each f family and the g
    family collapse to a single label, which is what makes this a
    proper labelled space rather than a graph.
    """
    n = cfg.n
    named = [f"u{i}" for i in range(1, n)] + ["w1", "w2"]
    edges = []
    for i in range(1, n):
        for j in range(i, n):
            edges.append(Edge(f"e_{i}_{j}", f"u{i}", f"u{j}", f"e_{i}_{j}"))
        edges.append(Edge((f"f{i}", 1), f"u{i}", "w1", f"f{i}"))
        edges.append(Edge((f"f{i}", 2), f"u{i}", "w2", f"f{i}"))
    edges.append(Edge(("g", 1), "w2", ("v", 1), "g"))
    families = [EdgeFamily(f"f{i}", 3, ("const", f"u{i}"), ("idx", "v", -2),
                           ("const", f"f{i}"))
                for i in range(1, n)]
    families.append(EdgeFamily("g", 2, ("idx", "v", -1), ("idx", "v", 0),
                               ("const", "g")))
    families.append(EdgeFamily("h", 1, ("idx", "v", 0), ("const", "w1"),
                               ("const", "h")))
    return LabelledGraph(frozenset(named), frozenset({"v"}), tuple(edges),
                         tuple(families))


def build_En_space(cfg: SphereConfig, horizon: int | None = None):
    """Accommodating set family for the glued graph, seeded with the
    vertex chain singletons, the sink, the tail sets and the seeded
    tail.  The horizon only bounds how deep the tail family is
    enumerated for resolving checks."""
    g = build_En_graph(cfg)
    if horizon is None:
        horizon = max(8, cfg.N + 4)
    seeds = [atom_set(f"u{i}") for i in range(1, cfg.n)]
    seeds.append(atom_set("w1"))
    seeds.append(tail("v", 1))
    seeds.append(atom_set("w2").union(tail("v", 1)))
    return build_space(g, generators=seeds, horizon=horizon)


def rho_sum_images(cfg: SphereConfig, rsum, eng: Engine):
    """Images of the glued generators in the labelled-space engine.

    Rows are matched structurally from the computed tables, so a change
    in basis shape fails loudly instead of silently mapping the wrong
    element.  Returns (module images, algebra images, legend) with the
    legend mapping semantic keys to row names.
    """
    n, N = cfg.n, cfg.N
    a1 = tail("v", 1)
    w2a1 = atom_set("w2").union(a1)
    pw1 = eng.p(atom_set("w1"))

    def pa(k: int):
        return eng.p(tail("v", k))

    legend: dict = {}
    mod: dict = {}
    for name, vx, vy in rsum.gen_table:
        sx, sy = _single(vx), _single(vy)
        el = None
        if sx is not None and sy is not None:
            if sx.startswith("w_") and sy.startswith("x_") and _ij(sx) == _ij(sy):
                i, j = _ij(sx)
                if j <= n - 1:
                    el = eng.s(f"e_{i}_{j}") * eng.p(atom_set(f"u{j}"))
                elif j == n:
                    el = eng.s(f"f{i}") * eng.p(a1)
                legend[("wx", i, j)] = name
            elif sx == f"w_{n}_{n}" and sy == "y":
                el = eng.s("g") * eng.p(a1)
                legend[("boundary",)] = name
        elif sx is not None and not vy and sx.startswith("w_"):
            i, j = _ij(sx)
            if j == n + 1:
                el = (eng.s(f"f{i}") if i < n else eng.s("h")) * pw1
                legend[("sink", i)] = name
        elif sy is not None and not vx:
            if sy.startswith("x_"):
                i, j = _ij(sy)
                if j == n + 1:
                    el = eng.s(f"f{i}") * (eng.p(w2a1) - eng.p(a1))
                    legend[("xtail", i)] = name
            elif sy.startswith("xn_"):
                i, j = _ij(sy)
                el = eng.s(f"f{i}") * (pa(j) - pa(j + 1))
                legend[("xn", i, j)] = name
            elif sy == "yp":
                el = eng.s("g") * (pa(1) - pa(2))
                legend[("yp",)] = name
            elif sy.startswith("y_"):
                i = int(sy.split("_")[1])
                el = eng.s("g") * (pa(i + 1) - pa(i + 2))
                legend[("yi", i)] = name
        if el is None:
            raise ValueError(f"unrecognized pair generator row {name}")
        mod[name] = el

    exp_resid = {f"R{n}": ONE}
    for j in range(1, N + 1):
        exp_resid[f"Q{j}"] = -ONE
    alg: dict = {}
    for name, va, vb in rsum.atom_table:
        sa, sb = _single(va), _single(vb)
        el = None
        if (sa is not None and sb is not None and sa.startswith("P")
                and sb == "R" + sa[1:] and int(sa[1:]) <= n - 1):
            el = eng.p(atom_set(f"u{sa[1:]}"))
            legend[("PR", int(sa[1:]))] = name
        elif sa == f"P{n}" and vb == exp_resid:
            el = pa(N + 1)
            legend[("resid",)] = name
        elif sa == f"P{n + 1}" and not vb:
            el = pw1
            legend[("Psink",)] = name
        elif not va and sb == f"R{n + 1}":
            el = eng.p(w2a1) - pa(1)
            legend[("Rsink",)] = name
        elif not va and sb is not None and sb.startswith("Q"):
            el = pa(int(sb[1:])) - pa(int(sb[1:]) + 1)
            legend[("Q", int(sb[1:]))] = name
        if el is None:
            raise ValueError(f"unrecognized pair atom row {name}")
        alg[name] = el
    return mod, alg, legend


def verify_En_representation(cfg: SphereConfig, rsum=None) -> Report:
    """The glued correspondence realized in the labelled-space algebra.

    Checks the space itself (weakly left resolving, not left
    resolving), the covariant representation of the glued module, exact
    engine identities for every guarded instance, injectivity on the
    pair algebra, and that the images exhaust the generators of the
    labelled algebra.
    """
    n, N = cfg.n, cfg.N
    rep = Report(f"labelled realization (n={n}, N={N})")
    g = build_En_graph(cfg)
    rep.merge(g.validate(), prefix="graph")
    space = build_En_space(cfg)
    okw, wit = is_weakly_left_resolving(space)
    rep.add("weakly left resolving", okw, "" if okw else f"witness {wit}")
    okl, witl = is_left_resolving(g)
    rep.add("not left resolving", not okl,
            f"repeated incoming label at {witl}" if witl
            else "no repeated incoming label found")

    if rsum is None:
        rsum, _, _ = build_mirror_sum(cfg)
    eng = Engine(space)
    mod, alg, legend = rho_sum_images(cfg, rsum, eng)
    rep.merge(check_covariant_rep(rsum.corr, mod, alg, eng,
                                  guards=mirror_guard_atoms(rsum, cfg),
                                  c1_defer=mirror_boundary_pairs(rsum, cfg)),
              prefix="glued representation")

    def pa(k: int):
        return eng.p(tail("v", k))

    nxt = pa(N + 1) - pa(N + 2)
    ytail = mod[legend[("yi", N)]]
    okb = (eng.equals(mod[legend[("boundary",)]].adj() * ytail, nxt)
           and eng.equals(ytail.adj() * ytail, nxt))
    rep.add("clipped inner products equal the next corner projection", okb)

    okq = eng.equals(ytail * ytail.adj(), alg[legend[("Q", N)]])
    okqs = all(eng.equals(mod[legend[("yi", i)]] * mod[legend[("yi", i)]].adj(),
                          alg[legend[("Q", i)]])
               for i in range(1, N + 1))
    u = mod[legend[("boundary",)]] - mod[legend[("yp",)]]
    lhs = u * u.adj() + mod[legend[("sink", n)]] * mod[legend[("sink", n)]].adj()
    for i in range(1, N + 1):
        lhs = lhs - mod[legend[("yi", i)]] * mod[legend[("yi", i)]].adj()
    okr = eng.equals(lhs, alg[legend[("resid",)]])
    rep.add("guarded ideal atoms realized exactly", okq and okqs and okr,
            "every corner projection and the loop remainder resolve as sums of rank-one images")

    rep.add("pair algebra embeds",
            _nonzero_orthogonal(eng, [alg[a] for a in sorted(alg, key=sort_key)]),
            "atom images are nonzero and orthogonal")
    rep.add("module generator images nonzero",
            not any(eng.equals(el, eng.zero()) for el in mod.values()))

    cov = True
    for i in range(1, n):
        for j in range(i, n):
            cov = cov and eng.equals(eng.s(f"e_{i}_{j}"),
                                     mod[legend[("wx", i, j)]])
        total = (mod[legend[("wx", i, n)]] + mod[legend[("sink", i)]]
                 + mod[legend[("xtail", i)]])
        cov = cov and eng.equals(eng.s(f"f{i}"), total)
    cov = cov and eng.equals(eng.s("g"), mod[legend[("boundary",)]])
    cov = cov and eng.equals(eng.s("h"), mod[legend[("sink", n)]])
    rep.add("label generators covered by module images", cov)

    covp = True
    for i in range(1, n):
        covp = covp and eng.equals(eng.p(atom_set(f"u{i}")),
                                   alg[legend[("PR", i)]])
    covp = covp and eng.equals(eng.p(atom_set("w1")), alg[legend[("Psink",)]])
    a1img = alg[legend[("resid",)]]
    for j in range(1, N + 1):
        a1img = a1img + alg[legend[("Q", j)]]
    covp = covp and eng.equals(pa(1), a1img)
    covp = covp and eng.equals(eng.p(atom_set("w2").union(tail("v", 1))),
                               alg[legend[("Rsink",)]] + a1img)
    rep.add("vertex-set projections covered by algebra images", covp)
    rep.add("deeper tail projections reached by conjugation",
            eng.equals(eng.s("g").adj() * alg[legend[("resid",)]] * eng.s("g"),
                       pa(N + 2)))
    return rep


# ------------------------------------------------------------ full suite


def verify_sphere_suite(cfg: SphereConfig) -> Report:
    """Every verification tier for one configuration, merged into a
    single report: table validation, the ideal lemmas, both quotient
    morphisms, the factorization of omega through the flip, the
    isomorphism suite, the gluing hypotheses, the deferred-atom
    confirmation two levels deeper, the glued span comparison, the
    labelled-space realization, and the K-theory of the two row
    graphs."""
    n, N = cfg.n, cfg.N
    rep = Report(f"mirror sphere suite (n={n}, N={N})")
    X = build_X_A(cfg, validate=False)
    Z = build_Z_C(cfg, validate=False)
    Y = build_Y_B(cfg, validate=False)
    rep.merge(X.validate(), prefix="disc tables")
    rep.merge(Z.validate(), prefix="sphere tables")
    rep.merge(Y.validate(), prefix="filtered tables")
    rep.merge(lemma_suite(cfg), prefix="lemmas")
    psi = build_psi(cfg, X, Z)
    omega = build_omega(cfg, Y, Z)
    rep.merge(check_morphism(psi), prefix="psi")
    rep.merge(check_morphism(omega, src_guards=y_guard_symbols(cfg)),
              prefix="omega")
    rep.merge(check_omega_factorization(cfg), prefix="factorization")
    rep.merge(verify_XY_isomorphism(cfg), prefix="isomorphism")
    rep.merge(check_pullback_hypotheses(psi, omega,
                                        y_guards=y_guard_symbols(cfg)),
              prefix="gluing hypotheses")

    deep = build_Y_B(cfg, validate=False, bound=N + 2)
    deep_data = kernel_and_jx(deep, guards=frozenset({f"R{n}", f"Q{N + 2}"}))
    names = deep_data.katsura_names()
    rep.add("deferred corner atoms confirmed two levels deeper",
            f"Q{N}" in names and f"Q{N + 1}" in names
            and not deep_data.noncompact and not deep_data.kernel,
            "the loop remainder stays deferred at every finite depth; "
            "its action is the remainder verified exactly in the engine")

    rsum = restricted_direct_sum(psi, omega, name=f"mirror(n={n})")
    rep.merge(mirror_span_report(cfg, rsum, psi, omega), prefix="glued span")
    rep.merge(verify_En_representation(cfg, rsum=rsum),
              prefix="labelled space")

    kd = k_theory(build_disc_graph(cfg))
    rep.add("disc graph K-theory", kd.pair_str() == "K0 = Z, K1 = 0",
            kd.pair_str())
    kz = k_theory(build_z_graph(cfg))
    rep.add("sphere graph K-theory", kz.pair_str() == "K0 = Z, K1 = Z",
            kz.pair_str())
    return rep
