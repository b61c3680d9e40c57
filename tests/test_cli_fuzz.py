"""Fuzz the CLI's exit-code contract with random and mutated JSON documents.

Every subcommand must end in one of the documented exit codes and must
never let a traceback reach stderr, whatever its input files contain.
Documents are either random JSON (or random text) or a valid document with
a few nodes replaced, dropped or duplicated.  Calls run ``cli.main``
in-process so the examples stay cheap.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from facelex import cli, jsonio
from helpers import cone_body, cube, octahedron, simplex, stadium_body, unit_square

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE, cli.EXIT_CROSS_CHECK, cli.EXIT_INTERNAL}

_BODIES = (cone_body(), stadium_body())
VALID = {
    "polytope": [jsonio.polytope_to_json(p) for p in (unit_square(), simplex(3), cube(3), octahedron())]
    + [{"vertices": [["0"], ["1"]]}],
    "preorder": [{"levels": [["0", "1"], ["1", "0"]]}, {"levels": [["1", "1", "1"]]}],
    "cortege": [
        {"functionals": [{"coeffs": ["1", "1"], "offset": "-1"}, {"coeffs": ["1", "-1"], "offset": "0"}]},
        {"functionals": [{"coeffs": ["0", "1"]}]},
    ],
    "disk_body": [jsonio.disk_body_to_json(b) for b in _BODIES] + [{"disks": [{"center": ["0", "0"], "radius": "1"}]}],
    "disk_face": [jsonio.disk_face_to_json(f) for b in _BODIES for f in b.faces()],
}

# Subcommand -> (file flag, document kind) pairs and the free-text flags.
COMMANDS = {
    "faces": ([("--input", "polytope")], []),
    "certify": ([("--input", "polytope")], ["--face"]),
    "chain": ([("--input", "polytope")], ["--face"]),
    "lexmin": ([("--input", "polytope"), ("--preorder", "preorder")], []),
    "equivalence": ([("--input", "polytope")], ["--face"]),
    "eval": ([("--cortege", "cortege")], ["--point"]),
    "classify": ([("--cortege", "cortege")], ["--point"]),
    "diskhull-faces": ([("--input", "disk_body")], []),
    "diskhull-certify": ([("--input", "disk_body"), ("--face", "disk_face")], []),
}
CROSS_CHECKED = {"faces", "certify", "lexmin"}

KEYS = ("vertices", "ambient_dim", "levels", "functionals", "coeffs", "offset", "disks",
        "center", "radius", "kind", "disk", "direction", "edge", "normal", "end",
        "representative", "vertex_indices")
RATIONAL_TEXT = ("0", "1", "-1", "2", "3", "1/2", "-3/4", "5", "-4", "2/0", "0.5", "1e3", "x", "")
FLAG_TEXT = ("0", "1", "2", "3", "0,1", "0,2", "0,3", "1,2", "1,3", "0,1,2,3", "0,1,2", "7", "true",
             "0,True", "1/2,1/2", "2,0", "0,0", "1,1,1", "a,b", ",")

scalars = (
    st.sampled_from(RATIONAL_TEXT)
    | st.integers(min_value=-3, max_value=9)
    | st.sampled_from((None, True, False, 0.5, "whole", "edge", "arc_point", "tangency_point"))
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _mutate(doc, path, action, value):
    """A copy of doc with the node at path replaced, dropped or duplicated."""
    if not path:
        return value if action == "replace" else [doc, doc] if action == "duplicate" else None
    doc = json.loads(json.dumps(doc))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if action == "replace":
        parent[last] = value
    elif action == "drop":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, parent[last])
    else:
        parent[last] = [parent[last], parent[last]]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after up to two mutations; mostly at the leaves, mostly by scalars."""
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        paths = list(_paths(doc))
        path = draw(st.sampled_from(paths[len(paths) // 2:] + paths))
        action = draw(st.sampled_from(("replace", "replace", "drop", "duplicate")))
        doc = _mutate(doc, path, action, draw(scalars | json_values))
    return doc


@st.composite
def file_text(draw, kind: str):
    """Text of an input file: mostly a mutated valid document, else random
    JSON or text that is not JSON."""
    source = draw(st.sampled_from(("mutated",) * 6 + ("random", "text")))
    if source == "text":
        return draw(st.text(max_size=12))
    if source == "random":
        return json.dumps(draw(json_values))
    return json.dumps(draw(mutated(draw(st.sampled_from(VALID[kind])))))


@st.composite
def invocations(draw, tmp_dir):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    files, flags = COMMANDS[command]
    argv = [command]
    for slot, (flag, kind) in enumerate(files):
        path = tmp_dir / f"{flag.strip('-')}-{slot}.json"
        path.write_text(draw(file_text(kind)), encoding="utf-8")
        argv += [flag, str(path)]
    for flag in flags:
        text = st.text(max_size=5) if draw(st.integers(0, 3)) == 0 else st.sampled_from(FLAG_TEXT)
        argv += [flag, draw(text)]
    if command in CROSS_CHECKED and draw(st.booleans()):
        argv.append("--cross-check")
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_subcommand_keeps_the_exit_code_contract(fuzz_dir, data):
    argv = data.draw(invocations(fuzz_dir))
    code, _out, err = run_main(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


def test_valid_documents_pass(fuzz_dir):
    """The unmutated documents are accepted, so mutations start from valid input."""
    for command, (files, flags) in COMMANDS.items():
        argv = [command]
        for flag, kind in files:
            doc = VALID["disk_face"][-1] if kind == "disk_face" else VALID[kind][0]
            path = fuzz_dir / f"valid-{command}-{flag.strip('-')}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            argv += [flag, str(path)]
        for flag in flags:
            argv += [flag, "0" if flag == "--face" else "1/2,1/2"]
        code, out, err = run_main(argv)
        assert code == cli.EXIT_OK, (argv, err)
        assert out and not err
