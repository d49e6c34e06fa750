"""JSON loaders and the error taxonomy."""
import json
import pathlib

import pytest

from corrkit.errors import ParseError, ValidationError
from corrkit.io import (
    algebra_from_json,
    corr_check_from_json,
    correspondence_from_json,
    graph_from_json,
    ktheory_json,
    labelled_space_from_json,
    load_json,
    parse_rational,
)
from corrkit.correspondences import check_morphism
from corrkit.ktheory import k_theory
from corrkit.spheres import SphereConfig, build_En_space, build_disc_graph

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def test_parse_rational():
    from fractions import Fraction
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    # decimal strings are exact; float and bool literals are not accepted
    assert parse_rational("3.5") == Fraction(7, 2)
    with pytest.raises(ValidationError):
        parse_rational(1.5)
    with pytest.raises(ValidationError):
        parse_rational(True)


def test_load_errors(tmp_path):
    with pytest.raises(ParseError):
        load_json(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(bad)


def test_graph_validation_error():
    with pytest.raises(ValidationError):
        graph_from_json({"vertices": ["a", "a"], "edges": []})
    with pytest.raises(ValidationError):
        graph_from_json({"vertices": ["a"], "edges": [["e", "a", "zz"]]})


def test_algebra_rejects_bad_table():
    doc = {
        "basis": ["P1"],
        "mult": [{"l": "P1", "r": "P1", "out": {"P1": "2"}}],
    }
    with pytest.raises(ValidationError, match=r"idempotent basis: P1\*P1 = 2\*P1"):
        algebra_from_json(doc)


def test_labelled_file_matches_builder():
    space = labelled_space_from_json(load_json(DATA / "en_labelled_n2.json"))
    built = build_En_space(SphereConfig(2))
    assert set(space.core) == set(built.core)
    assert space.graph.named_vertices == built.graph.named_vertices


@pytest.mark.parametrize("horizon", [True, 2.5, "deep", [3], {"n": 3}])
def test_labelled_horizon_must_be_an_integer(horizon):
    doc = load_json(DATA / "en_labelled_n2.json")
    doc["horizon"] = horizon
    with pytest.raises(ValidationError, match="is not an integer"):
        labelled_space_from_json(doc)


@pytest.mark.parametrize("horizon", [6, 6.0, "6"])
def test_labelled_horizon_accepts_integral_values(horizon):
    doc = load_json(DATA / "en_labelled_n2.json")
    doc["horizon"] = horizon
    assert labelled_space_from_json(doc).horizon == 6


def test_correspondence_unknown_symbol():
    doc = {
        "name": "X",
        "algebra": {"basis": ["u"], "mult": [{"l": "u", "r": "u", "out": {"u": 1}}]},
        "generators": ["e"],
        "inner": [{"left": "e", "right": "ghost", "out": {"u": 1}}],
        "right": [],
        "left": [],
    }
    with pytest.raises(ValidationError, match=r"inner table uses unknown generator \(e,ghost\)"):
        correspondence_from_json(doc)


def test_corr_check_files():
    kind, corr = corr_check_from_json(load_json(DATA / "hilbert_1dim.json"))
    assert kind == "single"
    assert corr.validate().ok
    kind, m = corr_check_from_json(load_json(DATA / "hilbert_morphism.json"))
    assert kind == "morphism"
    rep = check_morphism(m)
    assert not rep.ok
    failed = [c.name for c in rep.checks if not c.ok]
    assert failed and all(name.startswith("(C4)") for name in failed)


def test_ktheory_json_shape():
    res = k_theory(build_disc_graph(SphereConfig(1)))
    doc = ktheory_json(res)
    assert doc["K0"] == "Z" and doc["K1"] == "0"
    assert doc["presentation"]["rows"] == ["v1", "v2"]
    assert doc["presentation"]["cols"] == ["v1"]
    assert doc["presentation"]["matrix"] == [[0], [1]]
    assert doc["snf_diagonal"] == [1]
    json.dumps(doc)  # serializable as-is
