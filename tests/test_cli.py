"""Command-line interface: phrases, formats, exit codes."""
import hashlib
import json
import os
import pathlib
import re
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


def main_out(capsys, *args, expect=0):
    """Run the CLI in this process; its stdout, once the exit code is checked."""
    from corrkit.cli import main

    assert main([*map(str, args)]) == expect
    return capsys.readouterr().out


def test_ktheory_text(capsys):
    out = main_out(capsys, "ktheory", DATA / "m1_graph.json")
    assert "K0 = Z, K1 = 0" in out
    assert "SNF diagonal" in out


def test_ktheory_json_records(capsys):
    out = main_out(capsys, "ktheory", DATA / "loop_graph.json", "--format", "json")
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    recs = [r for r in lines if r.get("record") == "ktheory"]
    assert recs and recs[0]["K0"] == "Z" and recs[0]["K1"] == "Z"
    assert any(r.get("summary") for r in lines)


def test_labelled_check(capsys):
    out = main_out(capsys, "labelled-check", DATA / "en_labelled_n2.json")
    assert "not left-resolving; weakly left-resolving: true" in out
    assert "closure:" in out


def test_verify_sphere_smallest(capsys):
    out = main_out(capsys, "verify-sphere", "--n", 1)
    assert "all passed" in out or "PASS" in out or "ok" in out.lower()


def test_obstruction_headline(capsys):
    from corrkit.cli import main

    assert main(["obstruction", "--max-vertices", "4"]) == 0
    assert "0 counterexamples among 39 candidates" in capsys.readouterr().out


def test_corr_check_failure_exit():
    proc = run("corr-check", DATA / "hilbert_morphism.json", expect=1)
    assert "(C4): FAIL" in proc.stdout
    assert "(C1): PASS" in proc.stdout


def test_corr_check_single_ok():
    proc = run("corr-check", DATA / "hilbert_1dim.json")
    assert "FAIL" not in proc.stdout


def test_corr_check_asymmetric_algebra_exits_3(tmp_path):
    """A mult table whose (q,u) entry is an explicit `"out": []` while
    (u,q) is u is not commutative; without the zero it would be a valid
    algebra with u under q, and the correspondence over it would pass."""
    doc = json.loads((DATA / "hilbert_1dim.json").read_text())
    corr = doc["correspondence"]
    corr["algebra"]["basis"] = ["u", "q"]
    corr["algebra"]["mult"] = [
        {"l": "u", "r": "u", "out": [["u", "1"]]},
        {"l": "q", "r": "q", "out": [["q", "1"]]},
        {"l": "u", "r": "q", "out": [["u", "1"]]},
        {"l": "q", "r": "u", "out": []},
    ]
    corr["right"].append({"gen": "e", "alg": "q", "out": [["e", "1"]]})
    corr["left"].append({"alg": "q", "gen": "e", "out": [["e", "1"]]})
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps(doc))
    proc = run("corr-check", bad, expect=3)
    assert "table not symmetric at (u,q)" in proc.stderr


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
    ("corr-check", "hilbert_2dim.json", ("correspondence", "generators"), ["f1", "f2", "f1"],
     "hilbert2: duplicate generators"),
    ("corr-check", "hilbert_2dim.json", ("correspondence", "generators", 0), ["f1"],
     "correspondence hilbert2: generator ['f1'] is not a string"),
    ("corr-check", "hilbert_2dim.json", ("correspondence", "algebra", "basis"), [["u"]],
     "algebra: basis symbol ['u'] is not a string"),
    ("ktheory", "m1_graph.json", ("vertices", 0), ["v1"], "graph: vertex ['v1'] is not a string"),
    ("ktheory", "m1_graph.json", ("vertices",), ["v1", "v2", 3], "graph: vertex 3 is not a string"),
    ("labelled-check", "en_labelled_n2.json", ("B", 2, "base"), ["v"],
     "B: tail base ['v'] is not a string"),
], ids=["edges", "families", "B", "vertex_bases", "vertex_base", "inner", "right", "left",
        "correspondence", "generators", "generator", "basis_symbol", "graph_vertex",
        "graph_vertex_int", "tail_base"])
def test_malformed_list_field_exits_3(tmp_path, command, source, path, value, message):
    bad = _mutated(tmp_path, source, path, value)
    proc = run(command, bad, expect=3)
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["properties", "--cases", "-5"], "argument --cases: must be at least 2, got -5"),
    (["properties", "--cases", "1"], "argument --cases: must be at least 2, got 1"),
    (["obstruction", "--max-vertices", "-1"],
     "argument --max-vertices: must be at least 3, got -1"),
    (["obstruction", "--max-vertices", "2"], "argument --max-vertices: must be at least 3, got 2"),
    (["obstruction", "--max-edges", "2"], "argument --max-edges: must be at least 3, got 2"),
    (["labelled-check", str(DATA / "en_labelled_n2.json"), "--trunc", "0"],
     "argument --trunc: must be at least 1, got 0"),
    (["labelled-check", str(DATA / "en_labelled_n2.json"), "--trunc", "-1"],
     "argument --trunc: must be at least 1, got -1"),
    (["verify-sphere", "--n", "0"], "argument --n: must be at least 1, got 0"),
    (["verify-sphere", "--n", "-3", "--trunc", "4"], "argument --n: must be at least 1, got -3"),
    (["verify-sphere", "--n", "1", "--trunc", "1"], "argument --trunc: must be at least 2, got 1"),
    (["verify-sphere", "--n", "1", "--trunc", "0"], "argument --trunc: must be at least 2, got 0"),
    (["properties", "--cases", "many"], "argument --cases: invalid int value: 'many'"),
    (["labelled-check", str(DATA / "en_labelled_n2.json"), "--budget", "-5"],
     "argument --budget: must be at least 1, got -5"),
    (["labelled-check", str(DATA / "en_labelled_n2.json"), "--budget", "0"],
     "argument --budget: must be at least 1, got 0"),
    (["obstruction", "--jobs", "-3"], "argument --jobs: must be at least 1, got -3"),
    (["obstruction", "--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
], ids=["cases-negative", "cases-one", "vertices-negative", "vertices-two", "edges-two",
        "trunc-zero", "trunc-negative", "sphere-n-zero", "sphere-n-negative",
        "sphere-trunc-one", "sphere-trunc-zero", "cases-not-int", "budget-negative",
        "budget-zero", "jobs-negative", "jobs-zero"])
def test_flag_below_its_floor_is_a_usage_error(capsys, argv, message):
    """A budget that leaves nothing to check is refused at the parser
    instead of passing vacuously: exit 2 and one `error:` line that names
    the flag and its floor."""
    from corrkit.cli import EXIT_PARSE, main

    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_PARSE == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}"), captured.err


def test_smallest_flag_values_are_accepted(capsys):
    from corrkit.cli import main

    assert main(["obstruction", "--max-vertices", "3", "--max-edges", "3"]) == 0
    assert capsys.readouterr().out.startswith("0 counterexamples among 1 candidates\n")
    assert main(["labelled-check", str(DATA / "en_labelled_n2.json"), "--trunc", "1"]) == 0
    assert "(horizon 1)" in capsys.readouterr().out


@pytest.mark.parametrize("seed, message", [
    ({"atoms": [["v", 0]]}, "vertex index 0 is below 1"),
    ({"base": "v", "tail": 0}, "tail index 0 is below 1"),
], ids=["atom", "tail"])
def test_seed_index_below_one_exits_3(tmp_path, seed, message):
    """A family seed below the first index is inconsistent input, not an
    internal error."""
    bad = _mutated(tmp_path, "en_labelled_n2.json", ("B", 2), seed)
    proc = run("labelled-check", bad, expect=3)
    assert "Traceback" not in proc.stderr and "internal" not in proc.stderr
    assert proc.stderr == f"error: B: seed {seed!r}: {message}\n"


@pytest.mark.parametrize("horizon", [0, -1])
def test_file_horizon_below_one_exits_3(tmp_path, capsys, horizon):
    from corrkit.cli import EXIT_VALIDATION, main

    bad = _mutated(tmp_path, "en_labelled_n2.json", ("horizon",), horizon)
    assert main(["labelled-check", str(bad)]) == EXIT_VALIDATION == 3
    err = capsys.readouterr().err
    assert err == f"error: labelled space: horizon {horizon} is below 1\n"


def test_exit_budget_error():
    run("labelled-check", DATA / "en_labelled_n2.json", "--budget", 2, expect=4)


@pytest.mark.parametrize("limit, value, message", [
    ("MAX_GROUP_SETS", 1,
     r"zero test: a term group has \d+ distinct sets, past MAX_GROUP_SETS = 1"),
    ("EQUALS_ROUNDS", 1,
     r"equality test of \d+ and \d+ terms ran past 1 rounds \(\d+ terms in the difference\)"),
    ("TERM_BUDGET", 1,
     r"equality test of \d+ and \d+ terms: difference grew to \d+ terms, past 1"),
])
def test_engine_budget_errors_name_operation_size_and_limit(monkeypatch, capsys, limit, value,
                                                            message):
    import corrkit.engine
    from corrkit.cli import EXIT_BUDGET, main

    monkeypatch.setattr(corrkit.engine, limit, value)
    assert main(["verify-sphere", "--n", "1"]) == EXIT_BUDGET == 4
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {message}\n", err), err


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


def test_json_deterministic_across_jobs(capsys):
    from corrkit.cli import main

    assert main(["obstruction", "--max-vertices", "4", "--jobs", "1", "--format", "json"]) == 0
    a = capsys.readouterr().out
    assert main(["obstruction", "--max-vertices", "4", "--jobs", "3", "--format", "json"]) == 0
    b = capsys.readouterr().out
    assert a == b
    for line in a.splitlines():
        json.loads(line)


def test_verify_sphere_rejects_jobs():
    # only `obstruction` takes --jobs; the sphere suite has no parallel path
    proc = run("verify-sphere", "--n", 1, "--jobs", 2, expect=2)
    assert "unrecognized arguments: --jobs 2" in proc.stderr


# n -> (trunc, sha256 of the `verify-sphere --n n --trunc trunc --format json`
# stream), recorded at commit 7cef42b for n = 1, 2, at 01bab16 for n = 3, the
# first size with two leading filtered rows in the lemma suite, at 4ff4e2b
# for n = 4, the first size whose Y rows carry multi-entry vectors through the
# sparse table sums, at b6b9e8c for n = 5, before the table sums and the
# term engine stopped starting each new entry from a zero, and at d9e854f for
# n = 6, before compact decompositions were built from the stored inner
# entries, the change that brought that suite under a second in process.
# Refactors of the exact layers must keep every verdict and every detail
# string byte-identical, so any change here is deliberate.  The streams are
# taken in-process: the suite's output does not depend on the hash seed.
VERIFY_SPHERE_JSON_SHA256 = {
    1: (4, "de360f1d7b41030bd11941fa28e9cc1bed4b128c31070b6f0f9d934d50b92deb"),
    2: (4, "33043b1771824eb4e3fb7e05c44d4ab0a786c647387ae3d9f2894e85c69127dd"),
    3: (4, "e9df569875ee527dfb4b4f0cc2287edacf015a38b651ba3fa51a72043ffb26e4"),
    4: (6, "8051140d1588b23e107ca19a25b1c10ccada2cdfe2f622e563e0be6a88f33d88"),
    5: (6, "a96cbf9765a06c8fed2e82e12aa93cf85e9720214799c046354c7560e646b78b"),
    6: (8, "25f12ba47184fcb0bd4f1ba9bf1491829d861c4b6569ef8cd01d1faca8b64d8e"),
}


@pytest.mark.parametrize("n", sorted(VERIFY_SPHERE_JSON_SHA256))
def test_verify_sphere_json_stream_is_pinned(n, capsys):
    from corrkit.cli import main

    trunc, digest = VERIFY_SPHERE_JSON_SHA256[n]
    assert main(["verify-sphere", "--n", str(n), "--trunc", str(trunc), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (exit code, sha256 of the `obstruction --max-vertices 4 --wide --format json`
# stream), recorded at commit 0c93932.  1173 of its 1212 candidates are
# non-members, each certified by the dual witness of `integer_solve`; a change
# to that path that alters one verdict shows here.  The wide class only
# collects verdicts, so its report passes and the exit code is 0.  Both
# obstruction streams are taken in-process: the sweep's output does not
# depend on the hash seed.
OBSTRUCTION_WIDE_JSON = (0, "8c7945584f9ac205528e453bec7e7feeacddc486cbb5269e8198333793c08b4d")


def test_obstruction_wide_json_stream_is_pinned(capsys):
    from corrkit.cli import main

    code, digest = OBSTRUCTION_WIDE_JSON
    assert main(["obstruction", "--max-vertices", "4", "--wide", "--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# (exit code, sha256 of the `obstruction --max-vertices 5 --format json`
# stream), recorded at commit c758f05.  All 806 candidates of the narrow
# class are members; a change to the K0 membership test or its guess that
# alters one verdict, or the candidate list, shows here.
OBSTRUCTION_V5_JSON = (0, "d31e7090fffdd825b28995469fcfe85b63c5b92d94ee7d6e82bffc93dcb4f59c")


def test_obstruction_narrow_json_stream_is_pinned(capsys):
    from corrkit.cli import main

    code, digest = OBSTRUCTION_V5_JSON
    assert main(["obstruction", "--max-vertices", "5", "--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `properties --cases 300 --seed 1 --format json` stream,
# recorded at commit 815ec75.  Its "nontrivial cases" and "nonzero pairs"
# counts depend on every engine product, so a change to how products are
# reduced or memoised that alters any of them shows here.
PROPERTIES_JSON_SHA256 = "727b8e40b3d64cdb1e4399c9e1f208b53df8842de91f650ec9a50116b7c26fc7"


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_properties_json_stream_is_pinned(hash_seed, monkeypatch):
    monkeypatch.setitem(ENV, "PYTHONHASHSEED", hash_seed)
    out = run("properties", "--cases", 300, "--seed", 1, "--format", "json").stdout
    assert hashlib.sha256(out.encode()).hexdigest() == PROPERTIES_JSON_SHA256


# (command, data file, format) -> (exit code, sha256 of stdout), recorded at
# commit 982b9a0; hash seeds 0, 1 and 7 gave the same streams there.  Every
# `data/` command is pinned byte for byte, so a change to any loader, check
# or renderer that alters what these files report shows here.
DATA_STREAMS = {
    ("ktheory", "m1_graph.json", "text"):
        (0, "df73d4dd283cd870b009c381d8c5e2c9def04b10b2f177daf39eb1e8fb83350a"),
    ("ktheory", "m1_graph.json", "json"):
        (0, "b4e0a7f10b882586d9660a981c8bc1b720af71c3e8860be614c1094445a855ee"),
    ("ktheory", "loop_graph.json", "text"):
        (0, "b6bfb39b74fdb3e936a49f2434b9192be3c60e9a9afc5b6bc0c1585646722829"),
    ("ktheory", "loop_graph.json", "json"):
        (0, "44093db62c621c0fea216681b8e404cc88f7bf8285a413f7384aa07518b900e0"),
    ("labelled-check", "en_labelled_n2.json", "text"):
        (0, "bae06865f75c4e9b564eeaf64b948e4322306797066b5b9e0d1ed2a6809e6cb9"),
    ("labelled-check", "en_labelled_n2.json", "json"):
        (0, "4797b76634c06367a2032a4065e0c12088ac5a79321dc1255d31dbddc6b15107"),
    ("corr-check", "hilbert_1dim.json", "text"):
        (0, "ca5d6511e526eda8edeb2bab2b63aea4600c991795037420b0e8bbd1b4f95f7b"),
    ("corr-check", "hilbert_1dim.json", "json"):
        (0, "cc6ddfd54714e07081ba4642db5cd2e84bc995b390ad7e7f72b8832e1070ff8c"),
    ("corr-check", "hilbert_2dim.json", "text"):
        (0, "d822ad9d344b13c1cf73509825ebbc725052630605314cc7ce13177fc9e1282e"),
    ("corr-check", "hilbert_2dim.json", "json"):
        (0, "51c6bc65d1e585f728df06fe106d44e25debb72450ef42aa4d83f0bf14e4fce9"),
    ("corr-check", "hilbert_morphism.json", "text"):
        (1, "0f0bc49fd2dc6330128cddee0f110b3608a4edc21db4559ca2cdbff7139295e7"),
    ("corr-check", "hilbert_morphism.json", "json"):
        (1, "7b4613bc496e4669f50187831bda404f6f45482eacaec7fb9c2efc1f8343a516"),
}


@pytest.mark.parametrize("hash_seed", ["0", "1"])
@pytest.mark.parametrize("command, source, fmt", sorted(DATA_STREAMS))
def test_data_stream_is_pinned(command, source, fmt, hash_seed, monkeypatch):
    monkeypatch.setitem(ENV, "PYTHONHASHSEED", hash_seed)
    code, digest = DATA_STREAMS[command, source, fmt]
    out = run(command, DATA / source, "--format", fmt, expect=code).stdout
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, unbuffered", [
    (("ktheory", DATA / "m1_graph.json"), ""),
    (("verify-sphere", "--n", 2, "--format", "json"), ""),
    (("ktheory", DATA / "m1_graph.json"), "1"),
    (("--help",), ""),
    (("verify-sphere", "--help"), ""),
], ids=["fails-at-final-flush", "fails-when-buffer-fills", "fails-at-first-print",
        "help", "subcommand-help"])
def test_closed_stdout_is_not_an_internal_error(args, unbuffered):
    """A reader that closes the pipe before the report is written gets
    exit 1 and an empty stderr, wherever the write fails: at the final
    flush of a short buffered report, in `print` once a long report fills
    the write buffer, or at the first `print` when stdout is unbuffered.
    The same holds for the help text argparse prints before it exits."""
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen([sys.executable, "-m", "corrkit", *map(str, args)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_properties_subcommand_seeded(capsys):
    """The second run meets the vertex-set tables the first one filled,
    and prints the same bytes."""
    a = main_out(capsys, "properties", "--cases", 40, "--seed", 5, "--format", "json")
    b = main_out(capsys, "properties", "--cases", 40, "--seed", 5, "--format", "json")
    assert a == b
