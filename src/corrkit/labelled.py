"""Labelled graphs over a countable vertex set, given in closed form.

A graph here may have infinitely many vertices and edges, as long as the
infinite parts come in indexed families: vertices `(base, i)` for all
`i >= 1`, and edge families whose endpoints move linearly in the index.
That is enough to describe the spaces this package works with exactly,
with no truncation, while still supporting finite concrete graphs as the
special case with no families.

The module computes relative ranges `r(A, a)` (targets of `a`-labelled
edges out of `A`), label sets `L1(A)`, sinks, and the closure of a seed
collection of vertex sets under intersections and relative ranges.  The
closed collection, together with finite unions, is the set family the
operator relations quantify over; `LabelledSpace.in_lattice` tests
membership in that union closure.

Also here: left-resolving and weakly-left-resolving checks, truncation
to a finite concrete space, the morphism checks for maps between
concrete labelled spaces, and the translation of a concrete space into
a finitely presented correspondence over the cell decomposition of its
vertex-set family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import diagonal_algebra
from .correspondences import Correspondence, Morphism
from .errors import BudgetError, UnsupportedSpaceError
from .exactlinalg import _ONE, _axpy, express, sort_key
from .reports import Report
from .setexpr import SetExpr, _intern, atoms as atom_set, tail, union_all

CONST = "const"
IDX = "idx"


@dataclass(frozen=True)
class Edge:
    """A single concrete edge.  Endpoints are vertex keys: a plain
    string, or an `(base, index)` pair for an indexed vertex."""

    name: object
    src: object
    dst: object
    label: object


@dataclass(frozen=True)
class EdgeFamily:
    """Edges `(base, i)` for every `i >= start`.

    Endpoint specs are `("const", vertex)` or `("idx", vbase, offset)`,
    the latter meaning instance `i` touches vertex `(vbase, i + offset)`.
    The label spec uses the same encoding; `("idx", lbase, offset)` gives
    every instance its own label `(lbase, i + offset)`.
    """

    base: str
    start: int
    src: tuple
    dst: tuple
    label: tuple

    def _at(self, spec: tuple, i: int):
        if spec[0] == CONST:
            return spec[1]
        return (spec[1], i + spec[2])

    def src_at(self, i: int):
        return self._at(self.src, i)

    def dst_at(self, i: int):
        return self._at(self.dst, i)

    def label_at(self, i: int):
        return self._at(self.label, i)

    def name_at(self, i: int):
        return (self.base, i)


@dataclass(frozen=True)
class LabelledGraph:
    named_vertices: frozenset
    vertex_bases: frozenset
    edges: tuple
    families: tuple
    # relative_range's memo, (set, label) -> range: it is no part of the
    # graph's value, and every new graph (a `replace` too) starts empty
    _ranges: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)

    def is_concrete(self) -> bool:
        return not self.families and not self.vertex_bases

    def has_vertex(self, v) -> bool:
        if v in self.named_vertices:
            return True
        return isinstance(v, tuple) and len(v) == 2 and v[0] in self.vertex_bases and v[1] >= 1

    def validate(self) -> Report:
        rep = Report("labelled graph")
        names = [e.name for e in self.edges]
        rep.add("edge names unique", len(names) == len(set(names)))
        bases = [f.base for f in self.families]
        rep.add("family bases unique", len(bases) == len(set(bases)))
        rep.tally("concrete endpoints exist",
                  ((f"edge {e.name} endpoints exist", f"src={e.src} dst={e.dst}")
                   for e in self.edges
                   if not (self.has_vertex(e.src) and self.has_vertex(e.dst))))

        def well_formed(f: EdgeFamily) -> bool:
            return (f.start >= 1
                    and all(self.has_vertex(spec[1]) if spec[0] == CONST
                            else spec[1] in self.vertex_bases and f.start + spec[2] >= 1
                            for spec in (f.src, f.dst))
                    and (f.label[0] != IDX or f.start + f.label[2] >= 1)
                    # two constant ends would give infinitely many parallel edges
                    and not (f.src[0] == CONST and f.dst[0] == CONST))

        rep.add("family specs well formed", all(map(well_formed, self.families)))
        return rep


def concrete_graph(vertices, edges) -> LabelledGraph:
    """Finite graph from vertex keys and (name, src, dst, label) tuples."""
    es = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
    return LabelledGraph(frozenset(vertices), frozenset(), es, ())


def full_set(g: LabelledGraph) -> SetExpr:
    out = SetExpr(g.named_vertices)
    for b in sorted(g.vertex_bases):
        out = out.union(tail(b, 1))
    return out


def _family_source_matches(fam: EdgeFamily, a: SetExpr):
    """Instance indices i with src_at(i) in `a`, as (sorted finite list,
    ray start or None)."""
    if fam.src[0] == CONST:
        if fam.src[1] in a:
            return [], fam.start
        return [], None
    base, off = fam.src[1], fam.src[2]
    singles = sorted(j - off for j in a.indexed_atoms(base) if j - off >= fam.start)
    k = a.tail_index(base)
    ray = max(fam.start, k - off) if k is not None else None
    return singles, ray


def relative_range(g: LabelledGraph, a: SetExpr, label) -> SetExpr:
    """All endpoints of `label`-labelled edges with source in `a`,
    computed once per graph, set and label."""
    got = g._ranges.get((a, label))
    if got is None:
        got = g._ranges[_intern(a), label] = _relative_range(g, a, label)
    return got


def _relative_range(g: LabelledGraph, a: SetExpr, label) -> SetExpr:
    parts = []
    for e in g.edges:
        if e.label == label and e.src in a:
            parts.append(atom_set(e.dst))
    for fam in g.families:
        if fam.label[0] == CONST:
            if fam.label[1] != label:
                continue
            singles, ray = _family_source_matches(fam, a)
            if fam.dst[0] == CONST:
                if singles or ray is not None:
                    parts.append(atom_set(fam.dst[1]))
            else:
                dbase, doff = fam.dst[1], fam.dst[2]
                parts.append(SetExpr(((dbase, i + doff) for i in singles),
                                     [(dbase, ray + doff)] if ray is not None else ()))
        else:
            lbase, loff = fam.label[1], fam.label[2]
            if not (isinstance(label, tuple) and len(label) == 2 and label[0] == lbase):
                continue
            i = label[1] - loff
            if i >= fam.start and fam.src_at(i) in a:
                parts.append(atom_set(fam.dst_at(i)))
    return union_all(parts)


def label_set(g: LabelledGraph, a: SetExpr):
    """L1(a): labels of edges with source meeting `a`.

    Returns (labels, finite).  When `finite` is false the set is
    infinite and `labels` only holds the finitely indexed part.
    """
    labs = set()
    finite = True
    for e in g.edges:
        if e.src in a:
            labs.add(e.label)
    for fam in g.families:
        singles, ray = _family_source_matches(fam, a)
        if fam.label[0] == CONST:
            if singles or ray is not None:
                labs.add(fam.label[1])
        else:
            lbase, loff = fam.label[1], fam.label[2]
            labs.update((lbase, i + loff) for i in singles)
            if ray is not None:
                finite = False
    return frozenset(labs), finite


def sink_set(g: LabelledGraph) -> SetExpr:
    """All vertices that emit no edge."""
    named = set(g.named_vertices)
    covered: dict[str, list[SetExpr]] = {b: [] for b in g.vertex_bases}
    for e in g.edges:
        if isinstance(e.src, tuple) and e.src[0] in covered:
            covered[e.src[0]].append(atom_set(e.src))
        else:
            named.discard(e.src)
    for fam in g.families:
        if fam.src[0] == CONST:
            v = fam.src[1]
            if isinstance(v, tuple) and v[0] in covered:
                covered[v[0]].append(atom_set(v))
            else:
                named.discard(v)
        else:
            base, off = fam.src[1], fam.src[2]
            covered[base].append(tail(base, max(1, fam.start + off)))
    out = SetExpr(named)
    for b in sorted(covered):
        out = out.union(tail(b, 1).difference(union_all(covered[b])))
    return out


def label_instances(g: LabelledGraph, horizon: int) -> list:
    """The label alphabet, with indexed label families listed up to the
    horizon.  Order is deterministic in the graph presentation."""
    out = []
    seen = set()
    for e in g.edges:
        if e.label not in seen:
            seen.add(e.label)
            out.append(e.label)
    for fam in g.families:
        if fam.label[0] == CONST:
            if fam.label[1] not in seen:
                seen.add(fam.label[1])
                out.append(fam.label[1])
        else:
            lbase, loff = fam.label[1], fam.label[2]
            for j in range(fam.start + loff, horizon + 1):
                lab = (lbase, j)
                if lab not in seen:
                    seen.add(lab)
                    out.append(lab)
    return out


# --------------------------------------------------------------- set family


@dataclass
class LabelledSpace:
    """A labelled graph plus the collection of vertex sets the relations
    quantify over.

    `core` is the closure of the seeds under pairwise intersection and
    relative ranges; the full family is its closure under finite unions,
    tested by `in_lattice`.  For graphs with indexed families the core
    is enumerated only up to `horizon` in the indices; for concrete
    graphs it is exact.
    """

    graph: LabelledGraph
    core: tuple
    provenance: dict = field(repr=False)
    horizon: int = 0

    def in_lattice(self, b: SetExpr) -> bool:
        inside = [c for c in self.core if c.is_subset(b)]
        return union_all(inside) == b


def build_space(g: LabelledGraph, generators=(), horizon: int = 8,
                budget: int = 10000) -> LabelledSpace:
    """Close the seed sets under intersections and relative ranges.

    Seeds are the given generators, the full ranges r(a) of every label,
    and the sink singletons.  Produced sets whose indices exceed the
    horizon are dropped; a concrete graph is closed exactly and
    `horizon` only bounds nothing.
    """
    labels = label_instances(g, horizon)
    seeds: list[tuple[SetExpr, str]] = []
    for i, s in enumerate(generators):
        seeds.append((s, f"given[{i}]"))
    fs = full_set(g)
    for lab in labels:
        seeds.append((relative_range(g, fs, lab), f"range({lab!r})"))
    sinks = sink_set(g)
    for v in sorted(sinks.atoms, key=sort_key):
        seeds.append((atom_set(v), f"sink {v!r}"))
    for b, k in sorted(sinks.tails):
        for j in range(k, horizon + 1):
            seeds.append((atom_set((b, j)), f"sink ({b!r},{j})"))

    concrete = g.is_concrete()
    core: list[SetExpr] = []
    prov: dict[SetExpr, str] = {}

    def admit(s: SetExpr, why: str) -> bool:
        if s.is_empty() or s in prov:
            return False
        if not concrete and s.max_index() > horizon:
            return False
        core.append(s)
        prov[s] = why
        return True

    for s, why in seeds:
        admit(s, why)
    cursor = 0
    while cursor < len(core):
        s = core[cursor]
        cursor += 1
        if len(core) > budget:
            raise BudgetError(f"set family exceeded {budget} members")
        for t in list(core[:cursor]):
            admit(s.intersect(t), f"{prov[s]} & {prov[t]}")
        for lab in labels:
            admit(relative_range(g, s, lab), f"r({prov[s]}, {lab!r})")
    core.sort(key=lambda c: c.sort_key())
    return LabelledSpace(g, tuple(core), prov, horizon)


def is_left_resolving(g: LabelledGraph):
    """No vertex receives two edges with the same label, with indexed
    families unrolled up to index 8.  Returns (ok, witness) with
    witness = (vertex, label) on failure."""
    incoming: dict = {}

    def note(v, lab):
        incoming.setdefault(v, []).append(lab)

    for e in g.edges:
        note(e.dst, e.label)
    for fam in g.families:
        if fam.dst[0] == CONST:
            # every instance lands on one vertex; two are enough to
            # expose a repeated constant label
            for i in (fam.start, fam.start + 1):
                note(fam.dst[1], fam.label_at(i))
        else:
            dbase, doff = fam.dst[1], fam.dst[2]
            i = fam.start
            while i + doff <= 8:
                note((dbase, i + doff), fam.label_at(i))
                i += 1
    for v in sorted(incoming, key=sort_key):
        labs = incoming[v]
        if len(labs) != len(set(labs)):
            dup = next(l for l in labs if labs.count(l) > 1)
            return False, (v, dup)
    return True, None


def is_weakly_left_resolving(space: LabelledSpace):
    """r(A&B, a) == r(A,a) & r(B,a) across the core family.  Returns
    (ok, witness) with witness = (A, B, label, got, expected)."""
    g = space.graph
    labels = label_instances(g, space.horizon)
    core = space.core
    for i, a in enumerate(core):
        for b in core[i:]:
            ab = a.intersect(b)
            for lab in labels:
                got = relative_range(g, ab, lab)
                want = relative_range(g, a, lab).intersect(relative_range(g, b, lab))
                if got != want:
                    return False, (a, b, lab, got, want)
    return True, None


def truncate_space(space: LabelledSpace, n: int) -> LabelledSpace:
    """Finite concrete space keeping indexed vertices with index <= n."""
    g = space.graph
    verts = set(g.named_vertices)
    for b in sorted(g.vertex_bases):
        verts.update((b, i) for i in range(1, n + 1))

    def survives(v) -> bool:
        return v in g.named_vertices or (isinstance(v, tuple) and v[1] <= n)

    edges = [e for e in g.edges if survives(e.src) and survives(e.dst)]
    for fam in g.families:
        hi = []
        for spec in (fam.src, fam.dst):
            if spec[0] == IDX:
                hi.append(n - spec[2])
        if not hi:
            raise UnsupportedSpaceError(
                f"family {fam.base} has constant endpoints on both sides")
        i = fam.start
        top = min(hi)
        while i <= top:
            s, d = fam.src_at(i), fam.dst_at(i)
            if survives(s) and survives(d):
                edges.append(Edge(fam.name_at(i), s, d, fam.label_at(i)))
            i += 1
    graph = LabelledGraph(frozenset(verts), frozenset(), tuple(edges), ())
    core = sorted(
        {SetExpr(c.truncate(n)) for c in space.core if c.truncate(n)},
        key=lambda c: c.sort_key())
    prov = {c: "truncated" for c in core}
    return LabelledSpace(graph, tuple(core), prov, n)


# ----------------------------------------------------- morphisms of spaces


def label_image_map(space: LabelledSpace, edge_map: dict) -> dict:
    """Induced map on labels, from a coherent edge map.  Raises if two
    edges with one label disagree about the image label."""
    g = space.graph
    out: dict = {}
    for e in g.edges:
        img = edge_map.get(e.name)
        val = None if img is None else img.label
        if e.label in out:
            if out[e.label] != val:
                raise ValueError(f"label {e.label!r} maps incoherently")
        else:
            out[e.label] = val
    return out


def check_labelled_morphism(space_e: LabelledSpace, space_f: LabelledSpace,
                            vertex_map: dict, edge_map: dict) -> Report:
    """Check the morphism conditions for a pair of maps between two
    concrete labelled spaces.

    `vertex_map` sends each vertex of E to a vertex of F or None (kill);
    `edge_map` sends each edge name of E to an Edge of F or None.  The
    checks: totality with images in F, injectivity on surviving
    vertices, coherence and injectivity of the induced label map, range
    compatibility per label, and preservation of the set family with
    non-degenerate finite label sets.  The later checks read the maps:
    a failed first check or an incoherent label map ends the report.
    """
    ge, gf = space_e.graph, space_f.graph
    if not (ge.is_concrete() and gf.is_concrete()):
        raise UnsupportedSpaceError("morphism checks need concrete spaces")
    rep = Report("labelled morphism")
    f_edges = {e.name: e for e in gf.edges}
    if not rep.add("maps total with images in target",
                   all(v in vertex_map for v in ge.named_vertices)
                   and all(img is None or gf.has_vertex(img) for img in vertex_map.values())
                   and all(e.name in edge_map for e in ge.edges)
                   and all(img is None or f_edges.get(img.name) == img
                           for img in edge_map.values())):
        return rep
    rep.first("injective on surviving vertices", _collisions(vertex_map))
    try:
        lmap = label_image_map(space_e, edge_map)
    except ValueError as err:
        rep.add("label map coherent", False, str(err))
        return rep
    rep.add("label map coherent", True)
    rep.first("label map injective", _collisions(lmap))

    def range_mismatches():
        fs_e = full_set(ge)
        for lab in label_instances(ge, space_e.horizon):
            lhs = {vertex_map[v] for v in relative_range(ge, fs_e, lab).atoms} - {None}
            rhs = {edge_map[e.name].dst for e in ge.edges
                   if e.label == lab and edge_map[e.name] is not None}
            if lhs != rhs:
                yield (f"label {lab!r}: vertex images {sorted(lhs, key=sort_key)} "
                       f"!= edge image ranges {sorted(rhs, key=sort_key)}")

    def family_failures():
        for a in space_e.core:
            img = SetExpr({vertex_map[v] for v in a.atoms} - {None})
            if not space_f.in_lattice(img):
                yield f"image {img!r} of {a!r} is outside the target family"
            elif label_set(ge, a)[0] and not label_set(gf, img)[0]:
                yield f"{a!r} emits labels but its image {img!r} emits none"

    rep.first("ranges compatible per label", range_mismatches())
    rep.first("set family preserved", family_failures())
    return rep


def _collisions(mapping: dict):
    """Witnesses "a and b both map to c": a key b whose image c an earlier
    key a took.  Keys go in `sort_key` order; None images are skipped."""
    seen: dict = {}
    for key, img in sorted(mapping.items(), key=lambda kv: sort_key(kv[0])):
        if img in seen:
            yield f"{seen[img]!r} and {key!r} both map to {img!r}"
        elif img is not None:
            seen[img] = key


# ------------------------------------------------- correspondence models


def render_label(lab) -> str:
    return lab if isinstance(lab, str) else f"{lab[0]}_{lab[1]}"


def _atom_only(s: SetExpr) -> frozenset:
    if s.tails:
        raise UnsupportedSpaceError("expected a finite vertex set")
    return s.atoms


@dataclass
class CorrespondenceModel:
    """A concrete labelled space rendered as a finitely presented
    correspondence over the cells of its set family.

    Cells are the atoms of the Boolean algebra the core family
    generates; every family member is a disjoint union of cells, and the
    projections of cells span the same algebra as the family
    projections.  Module generators are the pairs (label, cell) with the
    cell inside the label's full range.
    """

    space: LabelledSpace
    corr: Correspondence
    cells: tuple
    cell_names: tuple
    labels: tuple
    member_coeffs: dict = field(repr=False)
    label_range_cells: dict = field(repr=False)

    def algebra_vector(self, vertices) -> dict:
        """Characteristic vector over cells; the set must be a union of
        cells."""
        want = frozenset(vertices)
        vec = {}
        covered = set()
        for name, cell in zip(self.cell_names, self.cells):
            if cell <= want:
                vec[name] = _ONE
                covered |= cell
        if covered != want:
            raise ValueError(f"{sorted(want, key=sort_key)} is not a union of cells")
        return vec

    def module_vector(self, lab, vertices) -> dict:
        """The element s_lab p_B for a union of cells B."""
        vec = {}
        r_cells = self.label_range_cells[lab]
        for name in self.algebra_vector(vertices):
            if name in r_cells:
                vec[f"{render_label(lab)}|{name}"] = _ONE
        return vec


def to_correspondence(space: LabelledSpace, name: str = "labelled") -> CorrespondenceModel:
    """Present the module of a concrete labelled space over the span of
    its family projections, on the cell basis."""
    g = space.graph
    if not g.is_concrete():
        raise UnsupportedSpaceError("correspondence model needs a concrete space")
    members = [c for c in space.core if not c.is_empty()]
    if not members:
        raise UnsupportedSpaceError("empty set family")
    universe = sorted(set().union(*(_atom_only(m) for m in members)), key=sort_key)
    sig: dict = {}
    for v in universe:
        sig.setdefault(frozenset(i for i, m in enumerate(members) if v in m), []).append(v)
    cells = tuple(sorted((frozenset(vs) for vs in sig.values()),
                         key=lambda c: sorted(map(sort_key, c))))
    cell_names = tuple(f"c{i + 1}" for i in range(len(cells)))
    cell_pos = {c: i for i, c in enumerate(cells)}

    member_vecs = []
    for m in members:
        ms = _atom_only(m)
        member_vecs.append({cell_names[cell_pos[c]]: _ONE for c in cells if c <= ms})
    member_coeffs: dict = {}
    for i, cn in enumerate(cell_names):
        coeffs = express({cn: _ONE}, member_vecs)
        assert coeffs is not None, "family members fail to span their own cells"
        member_coeffs[cn] = coeffs

    labels = tuple(label_instances(g, space.horizon))
    fs = full_set(g)
    member_range: dict = {}
    label_range_cells: dict = {}
    for lab in labels:
        member_range[lab] = [_atom_only(relative_range(g, m, lab)) for m in members]
        r_full = _atom_only(relative_range(g, fs, lab))
        label_range_cells[lab] = frozenset(
            cell_names[cell_pos[c]] for c in cells if c <= r_full)

    algebra = diagonal_algebra(f"{name}.algebra", cell_names)
    module_basis = []
    for lab in labels:
        for cn in cell_names:
            if cn in label_range_cells[lab]:
                module_basis.append(f"{render_label(lab)}|{cn}")
    assert len(module_basis) == len(set(module_basis)), "rendered labels collide"

    inner = {}
    right = {}
    left = {}
    for lab in labels:
        rl = render_label(lab)
        for cn in cell_names:
            if cn not in label_range_cells[lab]:
                continue
            gen = f"{rl}|{cn}"
            inner[(gen, gen)] = {cn: _ONE}
            right[(gen, cn)] = {gen: _ONE}
    for cn in cell_names:
        coeffs = member_coeffs[cn]
        for lab in labels:
            ranges = member_range[lab]
            for dn_i, dn in enumerate(cell_names):
                if dn not in label_range_cells[lab]:
                    continue
                lam = sum((c for c, rng in zip(coeffs, ranges) if cells[dn_i] <= rng),
                          Fraction(0))
                assert lam in (0, 1), f"left action weight {lam} is not 0/1"
                if lam:
                    left[(cn, f"{render_label(lab)}|{dn}")] = {
                        f"{render_label(lab)}|{dn}": _ONE}
    corr = Correspondence(name, algebra, tuple(module_basis), inner, right, left)
    return CorrespondenceModel(space, corr, cells, cell_names, labels,
                               member_coeffs, label_range_cells)


def induced_morphism(model_e: CorrespondenceModel, model_f: CorrespondenceModel,
                     vertex_map: dict, edge_map: dict):
    """The correspondence morphism a labelled-space morphism induces.

    Sends p over an E-cell to p over the image set expressed in F-cells,
    and (label, cell) generators through the label image; built linearly
    from the member expansion of each cell.  The result is returned as a
    Morphism ready for the compatibility checks.
    """
    lmap = label_image_map(model_e.space, edge_map)
    members = [m for m in model_e.space.core if not m.is_empty()]
    member_images = []
    for m in members:
        img = {vertex_map[v] for v in _atom_only(m)} - {None}
        member_images.append(img)

    alg_map = {}
    mod_map = {}
    for cn, coeffs in model_e.member_coeffs.items():
        vec: dict = {}
        for c, img in zip(coeffs, member_images):
            if c:
                _axpy(vec, c, model_f.algebra_vector(img))
        alg_map[cn] = vec
    for lab in model_e.labels:
        rl = render_label(lab)
        ilab = lmap.get(lab)
        for cn in model_e.cell_names:
            if cn not in model_e.label_range_cells[lab]:
                continue
            gen = f"{rl}|{cn}"
            if ilab is None:
                mod_map[gen] = {}
                continue
            vec = {}
            for c, img in zip(model_e.member_coeffs[cn], member_images):
                if c:
                    _axpy(vec, c, model_f.module_vector(ilab, img))
            mod_map[gen] = vec
    return Morphism(model_e.corr, model_f.corr, alg_map, mod_map)
