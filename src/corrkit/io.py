"""JSON document formats for graphs, algebras, spaces, and morphisms.

Scalars travel as strings of exact rationals ("1", "-2", "3/2") so no
reader ever sees a float.  Loaders raise ParseError when a document is
not readable JSON and ValidationError when it parses but describes an
inconsistent object.

Vertex keys for labelled graphs are either plain strings or indexed
pairs, written in JSON as a two-element list ["v", 3].  Edge families
follow the closed-form shape of the labelled module: endpoint specs are
{"kind": "const", "vertex": "w1"} or {"kind": "indexed", "base": "v",
"offset": -1}, and the first instance index may sit on the family
record or on an endpoint spec as "from".
"""
from __future__ import annotations

import json
from fractions import Fraction

from .algebra import CommAlgebra, PresentationError
from .correspondences import Correspondence, Morphism
from .errors import ParseError, ValidationError
from .graphs import Graph
from .labelled import (CONST, IDX, Edge, EdgeFamily, LabelledGraph,
                       LabelledSpace, build_space)
from .setexpr import EMPTY, SetExpr, atoms as atom_set, tail


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def parse_rational(s) -> Fraction:
    if isinstance(s, bool) or isinstance(s, float):
        raise ValidationError(f"scalar {s!r} must be a rational string or integer")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValidationError(f"bad rational scalar {s!r}") from exc


def parse_vec(out, where: str) -> dict:
    """An `out` list [[symbol, scalar], ...] (or a symbol->scalar mapping)
    as an exact coefficient dict."""
    vec: dict = {}
    if isinstance(out, dict):
        items = out.items()
    elif isinstance(out, list):
        items = []
        for entry in out:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValidationError(f"{where}: out entry {entry!r} is not a [symbol, scalar] pair")
            items.append((entry[0], entry[1]))
    else:
        raise ValidationError(f"{where}: expected a list of pairs, got {type(out).__name__}")
    for sym, scalar in items:
        if not isinstance(sym, str):
            raise ValidationError(f"{where}: symbol {sym!r} is not a string")
        c = parse_rational(scalar)
        if c:
            vec[sym] = vec.get(sym, Fraction(0)) + c
    return {k: v for k, v in vec.items() if v}


def _int(value, where: str) -> int:
    """An integer field; bools, non-integral numbers and non-scalars are
    rejected with ValidationError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ValidationError(f"{where}: {value!r} is not an integer")
    try:
        out = int(value)
    except (ValueError, OverflowError):
        raise ValidationError(f"{where}: {value!r} is not an integer") from None
    if isinstance(value, float) and out != value:
        raise ValidationError(f"{where}: {value!r} is not an integer")
    return out


def _need(doc, key: str, kind, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, kind):
        raise ValidationError(f"{where}: key {key!r} has type {type(val).__name__}")
    return val


def _opt_list(doc: dict, key: str, where: str) -> list:
    """An optional list field; a missing key reads as the empty list."""
    val = doc.get(key, [])
    if not isinstance(val, list):
        raise ValidationError(f"{where}: key {key!r} has type {type(val).__name__}")
    return val


def _strings(val: list, what: str) -> list:
    """`val`, once every entry is checked to be a string."""
    for entry in val:
        if not isinstance(entry, str):
            raise ValidationError(f"{what} {entry!r} is not a string")
    return val


def _pair_table(records: list, keys: tuple, where: str, label: str) -> dict:
    """The (symbol, symbol) -> vector table of `records`, each an object
    with string fields `keys` and an `out` vector; a later record for a
    pair replaces an earlier one."""
    table = {}
    for rec in records:
        pair = tuple(_need(rec, key, str, where) for key in keys)
        at = f"{label} ({pair[0]},{pair[1]})"
        table[pair] = parse_vec(_need(rec, "out", (list, dict), at), at)
    return table


# ---------------------------------------------------------------- graphs

def graph_from_json(doc) -> Graph:
    verts = _strings(_need(doc, "vertices", list, "graph"), "graph: vertex")
    edges = _need(doc, "edges", list, "graph")
    triples = []
    for e in edges:
        name = _need(e, "name", str, "graph edge")
        triples.append((name, _need(e, "src", str, f"edge {name}"),
                        _need(e, "dst", str, f"edge {name}")))
    g = Graph(verts, triples)
    rep = g.validate()
    if not rep.ok:
        raise ValidationError("graph: " + "; ".join(c.line() for c in rep.failures()))
    return g


# -------------------------------------------------------------- algebras

def algebra_from_json(doc) -> CommAlgebra:
    basis = _strings(_need(doc, "basis", list, "algebra"), "algebra: basis symbol")
    table = _pair_table(_need(doc, "mult", list, "algebra"), ("l", "r"), "algebra mult", "mult")
    name = doc.get("name", "A")
    try:
        return CommAlgebra(name, basis, table)
    except PresentationError as exc:
        raise ValidationError(str(exc)) from exc


# ------------------------------------------------------- labelled spaces

def vertex_from_json(v, where: str):
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)) and len(v) == 2 and isinstance(v[0], str):
        return (v[0], _int(v[1], f"{where}: bad vertex key {v!r}"))
    raise ValidationError(f"{where}: bad vertex key {v!r}")


def _endpoint_from_json(spec, where: str) -> tuple:
    if isinstance(spec, str):
        return (CONST, spec)
    if isinstance(spec, (list, tuple)):
        return (CONST, vertex_from_json(spec, where))
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: bad endpoint spec {spec!r}")
    kind = spec.get("kind", "const")
    if kind in ("const", "vertex"):
        v = spec.get("vertex", spec.get("name"))
        if v is None:
            raise ValidationError(f"{where}: constant endpoint needs a vertex")
        return (CONST, vertex_from_json(v, where))
    if kind == "indexed":
        base = _need(spec, "base", str, where)
        return (IDX, base, _int(spec.get("offset", 0), f"{where}: offset"))
    raise ValidationError(f"{where}: unknown endpoint kind {kind!r}")


def _label_from_json(spec, default, where: str) -> tuple:
    if spec is None:
        return (CONST, default)
    if isinstance(spec, str):
        return (CONST, spec)
    if isinstance(spec, dict) and "base" in spec:
        return (IDX, _need(spec, "base", str, where),
                _int(spec.get("offset", 0), f"{where}: label offset"))
    raise ValidationError(f"{where}: bad label spec {spec!r}")


def _seed_from_json(rec, bases, where: str) -> SetExpr:
    if not isinstance(rec, dict):
        raise ValidationError(f"{where}: family-seed record {rec!r} is not an object")
    out = EMPTY
    if "atoms" in rec:
        vals = rec["atoms"]
        if not isinstance(vals, list):
            raise ValidationError(f"{where}: atoms must be a list")
        keys = [vertex_from_json(v, where) for v in vals]
        if low := [k for k in keys if isinstance(k, tuple) and k[1] < 1]:
            raise ValidationError(f"{where}: seed {rec!r}: vertex index {low[0][1]} is below 1")
        out = out.union(atom_set(*keys))
    if "tail" in rec:
        k = rec["tail"]
        base = rec.get("base")
        if isinstance(k, (list, tuple)) and len(k) == 2:
            base, k = k[0], k[1]
        if base is None:
            if len(bases) != 1:
                raise ValidationError(f"{where}: tail record needs a base (bases: {sorted(bases)})")
            base = next(iter(bases))
        _strings([base], f"{where}: tail base")
        if base not in bases:
            raise ValidationError(f"{where}: unknown tail base {base!r}")
        k = _int(k, f"{where}: tail")
        if k < 1:
            raise ValidationError(f"{where}: seed {rec!r}: tail index {k} is below 1")
        out = out.union(tail(base, k))
    if out is EMPTY and ("atoms" in rec or "tail" in rec):
        raise ValidationError(f"{where}: empty family seed")
    if "atoms" not in rec and "tail" not in rec:
        raise ValidationError(f"{where}: seed record needs atoms or tail")
    return out


def labelled_graph_from_json(doc):
    """Graph, family seeds, and optional horizon from a space document."""
    vert_entries = _need(doc, "vertices", list, "labelled space")
    named = [vertex_from_json(v, "vertices") for v in vert_entries]
    if any(isinstance(v, tuple) for v in named):
        raise ValidationError("labelled space: the vertices list holds named vertices; "
                              "indexed vertices come from vertex_bases")
    labels = doc.get("labels", {})
    if not isinstance(labels, dict):
        raise ValidationError("labelled space: labels must map edge names to labels")

    edges = []
    for e in _opt_list(doc, "edges", "labelled space"):
        if not isinstance(e, dict) or "name" not in e:
            raise ValidationError(f"edge record {e!r} needs a name")
        name = e["name"]
        if not isinstance(name, str):
            name = vertex_from_json(name, "edge name")
        src = vertex_from_json(e["src"], f"edge {name}") if "src" in e else None
        dst = vertex_from_json(e["dst"], f"edge {name}") if "dst" in e else None
        if src is None or dst is None:
            raise ValidationError(f"edge {name}: needs src and dst")
        lab = e.get("label")
        if lab is None:
            lab = labels.get(name if isinstance(name, str) else None, name)
        elif not isinstance(lab, str):
            lab = vertex_from_json(lab, f"edge {name} label")
        edges.append(Edge(name, src, dst, lab))

    families = []
    for rec in _opt_list(doc, "families", "labelled space"):
        base = _need(rec, "edge", str, "family")
        where = f"family {base}"
        src = _endpoint_from_json(_need(rec, "src", (dict, str, list), where), where)
        dst = _endpoint_from_json(_need(rec, "dst", (dict, str, list), where), where)
        start = rec.get("from")
        for spec in (rec.get("src"), rec.get("dst")):
            if start is None and isinstance(spec, dict):
                start = spec.get("from")
        start = 1 if start is None else _int(start, f"{where}: from")
        lab = _label_from_json(rec.get("label"), base, where)
        families.append(EdgeFamily(base, start, src, dst, lab))

    bases = set(_strings(_opt_list(doc, "vertex_bases", "labelled space"),
                         "labelled space: vertex base"))
    for fam in families:
        for spec in (fam.src, fam.dst):
            if spec[0] == IDX:
                bases.add(spec[1])
    seed_recs = _opt_list(doc, "B", "labelled space")
    for rec in seed_recs:
        if isinstance(rec, dict) and isinstance(rec.get("base"), str):
            bases.add(rec["base"])

    g = LabelledGraph(frozenset(named), frozenset(bases), tuple(edges), tuple(families))
    rep = g.validate()
    if not rep.ok:
        raise ValidationError("labelled space: " + "; ".join(c.line() for c in rep.failures()))

    seeds = tuple(_seed_from_json(rec, bases, "B") for rec in seed_recs)
    horizon = doc.get("horizon")
    if horizon is not None:
        horizon = _int(horizon, "labelled space: horizon")
        if horizon < 1:
            raise ValidationError(f"labelled space: horizon {horizon} is below 1")
    return g, seeds, horizon


def labelled_space_from_json(doc, horizon: int | None = None, budget: int = 10000) -> LabelledSpace:
    g, seeds, doc_horizon = labelled_graph_from_json(doc)
    h = horizon if horizon is not None else (doc_horizon if doc_horizon is not None else 8)
    return build_space(g, generators=seeds, horizon=h, budget=budget)


# -------------------------------------------------------- correspondences

def correspondence_from_json(doc) -> Correspondence:
    if not isinstance(doc, dict):
        raise ValidationError(f"correspondence: {doc!r} is not an object")
    name = doc.get("name", "X")
    alg = algebra_from_json(_need(doc, "algebra", dict, f"correspondence {name}"))
    gens = _strings(_need(doc, "generators", list, f"correspondence {name}"),
                    f"correspondence {name}: generator")
    where = f"correspondence {name}"
    inner = _pair_table(_opt_list(doc, "inner", where), ("left", "right"), "inner", "inner")
    right = _pair_table(_opt_list(doc, "right", where), ("gen", "alg"), "right", "right")
    left = _pair_table(_opt_list(doc, "left", where), ("alg", "gen"), "left", "left")
    try:
        return Correspondence(name, alg, gens, inner, right, left)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def morphism_from_json(doc, src: Correspondence, dst: Correspondence) -> Morphism:
    amap_doc = _need(doc, "algebra_map", dict, "morphism")
    mmap_doc = _need(doc, "module_map", dict, "morphism")
    maps = []
    for label, given, syms, targets, what in (
            ("algebra_map", amap_doc, src.algebra.basis, set(dst.algebra.basis),
             "source basis symbol"),
            ("module_map", mmap_doc, src.gens, set(dst.gens), "source generator")):
        out = {}
        for sym in syms:
            vec = parse_vec(given.get(sym, []), f"{label}[{sym}]")
            if bad := set(vec) - targets:
                raise ValidationError(f"{label}[{sym}]: unknown target symbols {sorted(bad)}")
            out[sym] = vec
        for key in given:
            if key not in syms:
                raise ValidationError(f"{label}: {key!r} is not a {what}")
        maps.append(out)
    return Morphism(src, dst, *maps)


def corr_check_from_json(doc):
    """A corr-check job: ("single", corr) or ("morphism", morphism)."""
    if not isinstance(doc, dict):
        raise ValidationError("corr-check: document must be an object")
    if "correspondence" in doc:
        return ("single", correspondence_from_json(doc["correspondence"]))
    if {"source", "target", "morphism"} <= set(doc):
        src = correspondence_from_json(doc["source"])
        dst = correspondence_from_json(doc["target"])
        return ("morphism", morphism_from_json(doc["morphism"], src, dst))
    raise ValidationError("corr-check: expected 'correspondence' or "
                          "'source'/'target'/'morphism' keys")


# ----------------------------------------------------------------- reports

def ktheory_json(result) -> dict:
    pres = result.presentation
    return {
        "presentation": {
            "rows": list(pres.row_labels),
            "cols": list(pres.col_labels),
            "matrix": pres.as_lists(),
        },
        "snf_diagonal": list(result.diagonal),
        "K0": result.k0_str(),
        "K1": result.k1_str(),
    }
