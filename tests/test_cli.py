"""Command-line interface: phrases, formats, exit codes."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
# the child interpreter finds the package the way the test process does,
# with or without PYTHONPATH=src set by hand
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}


def run(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "corrkit", *map(str, args)],
        capture_output=True, text=True, env=ENV)
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def test_ktheory_text():
    out = run("ktheory", DATA / "m1_graph.json").stdout
    assert "K0 = Z, K1 = 0" in out
    assert "SNF diagonal" in out


def test_ktheory_json_records():
    out = run("ktheory", DATA / "loop_graph.json", "--format", "json").stdout
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    recs = [r for r in lines if r.get("record") == "ktheory"]
    assert recs and recs[0]["K0"] == "Z" and recs[0]["K1"] == "Z"
    assert any(r.get("summary") for r in lines)


def test_labelled_check():
    out = run("labelled-check", DATA / "en_labelled_n2.json").stdout
    assert "not left-resolving; weakly left-resolving: true" in out
    assert "closure:" in out


def test_verify_sphere_smallest():
    out = run("verify-sphere", "--n", 1).stdout
    assert "all passed" in out or "PASS" in out or "ok" in out.lower()


def test_obstruction_headline():
    out = run("obstruction", "--max-vertices", 4).stdout
    assert "0 counterexamples among 39 candidates" in out


def test_corr_check_failure_exit():
    proc = run("corr-check", DATA / "hilbert_morphism.json", expect=1)
    assert "(C4): FAIL" in proc.stdout
    assert "(C1): PASS" in proc.stdout


def test_corr_check_single_ok():
    proc = run("corr-check", DATA / "hilbert_1dim.json")
    assert "FAIL" not in proc.stdout


def test_exit_parse_error():
    proc = run("ktheory", DATA / "no_such_file.json", expect=2)
    assert "error:" in proc.stderr


def test_exit_validation_error(tmp_path):
    doc = tmp_path / "dup.json"
    doc.write_text('{"vertices": ["a", "a"], "edges": []}')
    run("ktheory", doc, expect=3)


def _mutated(tmp_path, source, path, value):
    """A copy of a data file with the field at `path` set to `value`."""
    doc = json.loads((DATA / source).read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


@pytest.mark.parametrize("path, value", [
    (("families", 0, "dst", "offset"), "x"),
    (("horizon",), "deep"),
    (("families", 0, "from"), "one"),
    (("B", 2, "tail"), [1]),
], ids=["offset", "horizon", "from", "tail"])
def test_malformed_integer_field_exits_3(tmp_path, path, value):
    bad = _mutated(tmp_path, "en_labelled_n2.json", path, value)
    proc = run("labelled-check", bad, expect=3)
    assert "Traceback" not in proc.stderr
    assert "is not an integer" in proc.stderr


@pytest.mark.parametrize("command, source, path, value, message", [
    ("labelled-check", "en_labelled_n2.json", ("edges",), 5, "key 'edges' has type int"),
    ("labelled-check", "en_labelled_n2.json", ("families",), 5, "key 'families' has type int"),
    ("labelled-check", "en_labelled_n2.json", ("B",), 5, "key 'B' has type int"),
    ("labelled-check", "en_labelled_n2.json", ("vertex_bases",), 5,
     "key 'vertex_bases' has type int"),
    ("labelled-check", "en_labelled_n2.json", ("vertex_bases",), [["v"]],
     "vertex base ['v'] is not a string"),
    ("corr-check", "hilbert_1dim.json", ("correspondence", "inner"), 5,
     "key 'inner' has type int"),
    ("corr-check", "hilbert_1dim.json", ("correspondence", "right"), 5,
     "key 'right' has type int"),
    ("corr-check", "hilbert_1dim.json", ("correspondence", "left"), 5,
     "key 'left' has type int"),
    ("corr-check", "hilbert_1dim.json", ("correspondence",), 5, "5 is not an object"),
], ids=["edges", "families", "B", "vertex_bases", "vertex_base", "inner", "right", "left",
        "correspondence"])
def test_malformed_list_field_exits_3(tmp_path, command, source, path, value, message):
    bad = _mutated(tmp_path, source, path, value)
    proc = run(command, bad, expect=3)
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_exit_budget_error():
    run("labelled-check", DATA / "en_labelled_n2.json", "--budget", 2, expect=4)


def test_internal_error_exits_5_without_traceback(monkeypatch, capsys):
    import corrkit.ktheory
    from corrkit.cli import EXIT_INTERNAL, main

    def broken_solve(m, b):
        raise AssertionError("SNF verification: U*M*V != S")

    monkeypatch.setattr(corrkit.ktheory, "integer_solve", broken_solve)
    assert main(["obstruction", "--max-vertices", "3"]) == EXIT_INTERNAL == 5
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == "error: internal: AssertionError: SNF verification: U*M*V != S\n"


def test_json_deterministic_across_jobs():
    a = run("obstruction", "--max-vertices", 4, "--jobs", 1, "--format", "json").stdout
    b = run("obstruction", "--max-vertices", 4, "--jobs", 3, "--format", "json").stdout
    assert a == b
    for line in a.splitlines():
        json.loads(line)


# sha256 of the `verify-sphere --trunc 4 --format json` stream, recorded at
# commit 7cef42b.  Refactors of the exact layers must keep every verdict
# and every detail string byte-identical, so any change here is deliberate.
VERIFY_SPHERE_JSON_SHA256 = {
    1: "de360f1d7b41030bd11941fa28e9cc1bed4b128c31070b6f0f9d934d50b92deb",
    2: "33043b1771824eb4e3fb7e05c44d4ab0a786c647387ae3d9f2894e85c69127dd",
}


@pytest.mark.parametrize("n", sorted(VERIFY_SPHERE_JSON_SHA256))
def test_verify_sphere_json_stream_is_pinned(n):
    out = run("verify-sphere", "--n", n, "--trunc", 4, "--format", "json").stdout
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SPHERE_JSON_SHA256[n]


def test_properties_subcommand_seeded():
    a = run("properties", "--cases", 40, "--seed", 5, "--format", "json").stdout
    b = run("properties", "--cases", 40, "--seed", 5, "--format", "json").stdout
    assert a == b
