"""The exit-code contract under fuzzed input: whatever a `data/`
document's fields are set to, `ktheory`, `labelled-check` and
`corr-check` exit 0-4 and never report an internal error."""
import contextlib
import copy
import io
import json
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from corrkit.cli import main  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"
COMMANDS = {"m1_graph.json": "ktheory", "loop_graph.json": "ktheory",
            "en_labelled_n2.json": "labelled-check", "hilbert_1dim.json": "corr-check",
            "hilbert_2dim.json": "corr-check", "hilbert_morphism.json": "corr-check"}
VALUES = [["v", 0], 0, -1, 1.5, True, "", [], {}, "1/0", None]


def _paths(node, prefix=()):
    """Every key path into a JSON value, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _slot(node, path):
    """The container and key that `path` names in `node`, or None once
    an earlier change has cut the path."""
    for i, key in enumerate(path):
        if not (isinstance(node, dict) and key in node
                or isinstance(node, list) and isinstance(key, int) and key < len(node)):
            return None
        if i == len(path) - 1:
            return node, key
        node = node[key]


def test_every_data_document_has_a_command():
    assert sorted(COMMANDS) == sorted(p.name for p in DATA.glob("*.json"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_documents_keep_the_exit_code_contract(tmp_path_factory, data):
    """One to four fields of one document set to stray values, in order:
    the command exits 0-4 and stderr names no internal error."""
    source = data.draw(st.sampled_from(sorted(COMMANDS)), label="document")
    doc = json.loads((DATA / source).read_text())
    paths = list(_paths(doc))
    for path in data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4), label="paths"):
        value = data.draw(st.sampled_from(VALUES), label=f"value at {path}")
        if slot := _slot(doc, path):
            container, key = slot
            container[key] = copy.deepcopy(value)
    bad = tmp_path_factory.getbasetemp() / source
    bad.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([COMMANDS[source], str(bad)])
    assert rc in {0, 1, 2, 3, 4}, err.getvalue()
    assert "internal" not in err.getvalue() and "Traceback" not in err.getvalue()
