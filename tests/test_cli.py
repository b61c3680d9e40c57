import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import facelex as fx
from facelex import jsonio
from helpers import cone_body, count_calls, unit_square


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "facelex", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Fixture JSON documents written once for all CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {}

    def write(name, doc):
        path = root / name
        path.write_text(jsonio.dumps_canonical(doc), encoding="utf-8")
        paths[name] = str(path)

    write("square.json", jsonio.polytope_to_json(unit_square()))
    write("lex01.json", {"levels": [["0", "1"], ["1", "0"]]})
    write("cortege.json", {"functionals": [
        {"coeffs": ["1", "1"], "offset": "-1"},
        {"coeffs": ["1", "-1"], "offset": "0"},
    ]})
    write("bad_cortege.json", {"functionals": [
        {"coeffs": ["1", "0"], "offset": "0"},
        {"coeffs": ["2", "0"], "offset": "1"},
    ]})
    write("cone.json", jsonio.disk_body_to_json(cone_body()))
    body = cone_body()
    tangency = next(
        f for f in body.faces()
        if isinstance(f, fx.TangencyPoint) and f.point.coords == (Fraction(9, 5), Fraction(12, 5))
    )
    write("tangency.json", jsonio.disk_face_to_json(tangency))
    write("tangency_end_true.json", {**jsonio.disk_face_to_json(tangency), "end": True})
    write("arc_point_disk_true.json", {"kind": "arc_point", "disk": True, "direction": ["1", "0"]})
    write("broken.json", {"vertices": "nope"})
    write("coeffs_number.json", {"functionals": [{"coeffs": 5}]})
    write("coeffs_string.json", {"functionals": [{"coeffs": "12", "offset": "0"}]})
    write("tangency_no_edge.json", {"kind": "tangency_point", "end": 0})
    arc_point = {"kind": "arc_point", "disk": 0, "direction": ["1", "0"]}
    write("nested_arc_family.json", {"kind": "arc_family", "representative": {
        "kind": "arc_family", "representative": arc_point}})
    write("arc_family_disk_7.json", {"kind": "arc_family", "disk": 7, "start": ["9", "9"], "end": None,
                                     "representative": arc_point})
    write("huge_literal.json", {"vertices": [["1" + "0" * 4300]]})
    big = 10**3000
    write("huge_simplex.json", {"vertices": [
        [str(v) for v in row]
        for row in [(0, 0, 0), (big + 7, 0, 1), (0, big + 9, 3), (1, 5, big + 11)]
    ]})
    write("long_bad_literal.json", {"vertices": [["x" * 5000]]})
    (root / "huge_number.json").write_text('{"vertices": [[1' + "0" * 5000 + "]]}", encoding="utf-8")
    paths["huge_number.json"] = str(root / "huge_number.json")
    (root / "not_json.json").write_text("{oops", encoding="utf-8")
    paths["not_json.json"] = str(root / "not_json.json")
    (root / "deep.json").write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    paths["deep.json"] = str(root / "deep.json")
    return paths


class TestCertifyCommand:
    def test_vertex_face(self, files):
        result = run_cli("certify", "--input", files["square.json"], "--face", "0")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["certificate"]["cortege"]["functionals"] == [
            {"coeffs": ["1", "1"], "offset": "0"}
        ]
        assert doc["certificate"]["chain"] == [[0, 1, 2, 3], [0]]

    def test_diagonal_is_expected_negative(self, files):
        result = run_cli("certify", "--input", files["square.json"], "--face", "0,2")
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["not_a_face"] is True
        assert set(doc["witness"]) == {"w", "z"}

    def test_cross_check_passes(self, files):
        result = run_cli(
            "certify", "--input", files["square.json"], "--face", "0", "--cross-check"
        )
        assert result.returncode == 0

    def test_cross_check_rejects_a_bogus_witness(self, files, monkeypatch, capsys):
        # (v, v) for a vertex v of the candidate refutes nothing: the
        # candidate's barycenter is not strictly inside the segment.
        from facelex import cli

        square = unit_square()
        bogus = fx.NotAFace(witness=(square.vertices[0],) * 2, smallest_face=square.all_indices())
        monkeypatch.setattr(cli, "certify", lambda polytope, face: bogus)
        argv = ["certify", "--input", files["square.json"], "--face", "0,2", "--cross-check"]
        assert cli.main(argv) == cli.EXIT_CROSS_CHECK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "witness does not refute the face" in captured.err
        assert cli.main(argv[:-1]) == cli.EXIT_NEGATIVE  # only the cross-check looks

    def test_cross_check_accepts_true_witnesses(self, files):
        result = run_cli(
            "certify", "--input", files["square.json"], "--face", "0,2", "--cross-check"
        )
        assert result.returncode == 1
        assert result.stderr == ""

    def test_cross_check_rejects_a_bogus_certificate(self, files, monkeypatch, capsys):
        # A verified certificate of the vertex 0, handed back for the edge 0,1.
        from facelex import cli

        corner = fx.certify(unit_square(), fx.FaceDescriptor((0,)))
        monkeypatch.setattr(cli, "certify", lambda polytope, face: corner)
        argv = ["certify", "--input", files["square.json"], "--face", "0,1", "--cross-check"]
        assert cli.main(argv) == cli.EXIT_CROSS_CHECK
        assert "certificate disagrees with oracles" in capsys.readouterr().err

    def test_improper_face_is_usage_error(self, files):
        result = run_cli("certify", "--input", files["square.json"], "--face", "0,1,2,3")
        assert result.returncode == 2

    def test_bad_face_flag(self, files):
        result = run_cli("certify", "--input", files["square.json"], "--face", "zero")
        assert result.returncode == 2


class TestOtherPolytopeCommands:
    def test_faces(self, files):
        result = run_cli("faces", "--input", files["square.json"], "--cross-check")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["count"] == 9

    def test_chain(self, files):
        result = run_cli("chain", "--input", files["square.json"], "--face", "0")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["certificate"]["chain"] == [[0, 1, 2, 3], [0, 3], [0]]

    def test_chain_on_non_face(self, files):
        result = run_cli("chain", "--input", files["square.json"], "--face", "0,2")
        assert result.returncode == 1

    def test_lexmin(self, files):
        result = run_cli(
            "lexmin", "--input", files["square.json"], "--preorder", files["lex01.json"],
            "--cross-check",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"vertex_indices": [0]}

    def test_equivalence_face(self, files):
        result = run_cli("equivalence", "--input", files["square.json"], "--face", "0")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["legs"] == {"a": True, "b": True, "c": True, "d": True}

    def test_equivalence_non_face(self, files):
        result = run_cli("equivalence", "--input", files["square.json"], "--face", "0,2")
        assert result.returncode == 1
        doc = json.loads(result.stdout)
        assert doc["consistent"] is True and doc["is_face"] is False


class TestStepAffineCommands:
    def test_eval(self, files):
        result = run_cli("eval", "--cortege", files["cortege.json"], "--point", "1,0")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"value": "1"}

    def test_classify(self, files):
        result = run_cli("classify", "--cortege", files["cortege.json"], "--point", "1/2,1/2")
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"region": "zero_manifold"}

    def test_invalid_cortege_is_usage_error(self, files):
        result = run_cli("eval", "--cortege", files["bad_cortege.json"], "--point", "0,0")
        assert result.returncode == 2


class TestDiskCommands:
    def test_faces(self, files):
        result = run_cli("diskhull-faces", "--input", files["cone.json"])
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        kinds = [f["kind"] for f in doc["faces"]]
        assert kinds.count("edge") == 2
        assert kinds.count("tangency_point") == 2
        assert kinds.count("arc_family") == 2

    def test_certify_tangency(self, files):
        result = run_cli(
            "diskhull-certify", "--input", files["cone.json"], "--face", files["tangency.json"]
        )
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["cortege"]["functionals"] == [
            {"coeffs": ["-3", "-4"], "offset": "15"},
            {"coeffs": ["4", "-3"], "offset": "0"},
        ]

    def test_certify_a_listed_face_of_tied_disks(self, tmp_path):
        # Two disks internally tangent at (-1, 0): the arc family that
        # diskhull-faces lists has a representative both disks attain.
        body = tmp_path / "tangent.json"
        body.write_text(jsonio.dumps_canonical(
            jsonio.disk_body_to_json(fx.DiskBody([((0, 0), 1), ((1, 0), 2)]))
        ), encoding="utf-8")
        listed = run_cli("diskhull-faces", "--input", str(body))
        assert listed.returncode == 0
        family = json.loads(listed.stdout)["faces"][1]
        face = tmp_path / "family.json"
        face.write_text(jsonio.dumps_canonical(family), encoding="utf-8")
        result = run_cli("diskhull-certify", "--input", str(body), "--face", str(face))
        assert result.returncode == 0
        assert json.loads(result.stdout)["cortege"]["functionals"] == [{"coeffs": ["1", "0"], "offset": "1"}]

    def test_arc_point_on_a_fractional_edge_is_refused(self, tmp_path):
        # Both disks touch x = 1/2 along a segment, so direction (-1, 0)
        # exposes the edge, not a point of disk 0.
        body = tmp_path / "halves.json"
        body.write_text(jsonio.dumps_canonical(
            jsonio.disk_body_to_json(fx.DiskBody([((0, 0), Fraction(1, 2)), ((0, 4), Fraction(1, 2))]))
        ), encoding="utf-8")
        face = tmp_path / "arc_point.json"
        face.write_text(jsonio.dumps_canonical(
            jsonio.disk_face_to_json(fx.ArcPoint(disk=0, direction=fx.LinearFunctional((-1, 0))))
        ), encoding="utf-8")
        result = run_cli("diskhull-certify", "--input", str(body), "--face", str(face))
        assert result.returncode == 2
        assert "does not expose disk 0" in result.stderr


LONG = "7" * 4000

# One long value for each place whose error message echoes its input: the
# command line, with "doc" standing for the document given beside it.
LONG_ECHOES = {
    "coordinate-number": (["faces", "--input", "doc"], {"vertices": [[int(LONG)]]}),
    "point-object": (["faces", "--input", "doc"], {"vertices": [{"x": LONG}]}),
    "ambient-dim": (["faces", "--input", "doc"], {"vertices": [["1"]], "ambient_dim": LONG}),
    "coeffs-object": (
        ["eval", "--cortege", "doc", "--point", "1,1"],
        {"functionals": [{"coeffs": {"x": LONG}}]},
    ),
    "coeffs-string": (["eval", "--cortege", "doc", "--point", "1,1"], {"functionals": [{"coeffs": LONG}]}),
    "face-flag": (["certify", "--input", "square.json", "--face", "x" * 5000], None),
    "point-flag": (["eval", "--cortege", "cortege.json", "--point", "x" * 5000], None),
    "disk-face-kind": (["diskhull-certify", "--input", "cone.json", "--face", "doc"], {"kind": LONG}),
    "disk-index": (
        ["diskhull-certify", "--input", "cone.json", "--face", "doc"],
        {"kind": "arc_point", "disk": LONG, "direction": ["1", "0"]},
    ),
    "edge-not-an-object": (
        ["diskhull-certify", "--input", "cone.json", "--face", "doc"],
        {"kind": "tangency_point", "edge": LONG, "end": 0},
    ),
    "edge-not-on-the-hull": (
        ["diskhull-certify", "--input", "cone.json", "--face", "doc"],
        {"kind": "edge", "normal": ["1"] * 2000, "offset": LONG},
    ),
}


class TestErrorPaths:
    def test_malformed_json(self, files):
        result = run_cli("faces", "--input", files["not_json.json"])
        assert result.returncode == 2
        assert "error" in result.stderr

    def test_bad_document_shape(self, files):
        result = run_cli("faces", "--input", files["broken.json"])
        assert result.returncode == 2

    @pytest.mark.parametrize("name", ["coeffs_number.json", "coeffs_string.json"])
    def test_coeffs_not_a_list(self, files, name):
        result = run_cli("eval", "--cortege", files[name], "--point", "1,1")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_tangency_point_without_edge(self, files):
        result = run_cli(
            "diskhull-certify", "--input", files["cone.json"], "--face", files["tangency_no_edge.json"]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("name", ["arc_point_disk_true.json", "tangency_end_true.json"])
    def test_boolean_disk_face_index(self, files, name):
        result = run_cli("diskhull-certify", "--input", files["cone.json"], "--face", files[name])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("flag", ["true", "0,True"])
    def test_boolean_face_index(self, files, flag):
        # The CLI reads vertex indices only from --face; no subcommand reads
        # a certificate document or its chain entries.
        result = run_cli("chain", "--input", files["square.json"], "--face", flag)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_internal_error_exits_4(self, files, monkeypatch, capsys):
        from facelex import cli

        def broken(args):
            raise RuntimeError("simulated bug")

        monkeypatch.setitem(cli._RUNNERS, "faces", broken)
        assert cli.main(["faces", "--input", files["square.json"]]) == cli.EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal error" in captured.err and "simulated bug" in captured.err
        assert "Traceback" not in captured.err

    def test_deeply_nested_json(self, files):
        result = run_cli("faces", "--input", files["deep.json"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_nested_arc_family_representative(self, files):
        result = run_cli(
            "diskhull-certify", "--input", files["cone.json"], "--face", files["nested_arc_family.json"]
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_arc_family_not_on_the_body(self, files):
        # The cone has no disk 7; a valid representative does not make up
        # for the family itself.
        result = run_cli(
            "diskhull-certify", "--input", files["cone.json"], "--face", files["arc_family_disk_7.json"]
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: no arc family on disk 7 from ['9', '9'] to None\n"

    def test_oversized_input_number_is_a_size_guard(self, files):
        result = run_cli("faces", "--input", files["huge_literal.json"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: numerator has 4301 digits; Python's int/str limit is 4300\n"

    def test_oversized_json_number_is_a_size_guard(self, files):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python has no int/str digit limit")
        result = run_cli("faces", "--input", files["huge_number.json"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: number has 5001 digits; Python's int/str limit is {limit}\n"

    def test_bad_literal_echo_is_bounded(self, files):
        result = run_cli("faces", "--input", files["long_bad_literal.json"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.encode()) < 200
        assert "5000 characters" in result.stderr

    @pytest.mark.parametrize("name", sorted(LONG_ECHOES))
    def test_long_value_echo_is_bounded(self, files, tmp_path, capsys, name):
        from facelex import cli

        argv, doc = LONG_ECHOES[name]
        paths = {**files, "doc": str(tmp_path / "doc.json")}
        if doc is not None:
            (tmp_path / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main([paths.get(arg, arg) for arg in argv]) == cli.EXIT_USAGE == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "characters)" in captured.err and len(captured.err.encode()) < 200, captured.err

    def test_oversized_output_number_is_a_size_guard(self, files):
        # The body is valid and its face list prints; its facet normals have
        # more digits than Python turns into a string.
        assert run_cli("faces", "--input", files["huge_simplex.json"]).returncode == 0
        result = run_cli("certify", "--input", files["huge_simplex.json"], "--face", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: numerator has 6001 digits; Python's int/str limit is 4300\n"

    def test_missing_file(self):
        result = run_cli("faces", "--input", "/nonexistent.json")
        assert result.returncode == 2

    def test_unknown_subcommand(self):
        result = run_cli("frobnicate")
        assert result.returncode == 2


class TestOutFlag:
    def test_writes_file_instead_of_stdout(self, files, tmp_path):
        out = tmp_path / "faces.json"
        result = run_cli("faces", "--input", files["square.json"], "--out", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(out.read_text())["count"] == 9


class TestParserBuiltOnce:
    def test_later_calls_reuse_the_parser(self, files, capsys, monkeypatch):
        """A usage error and then two subcommands in one process print and
        exit exactly as separate first calls do, and only the first call
        builds the parser."""
        from facelex import cli

        commands = [
            ["certify", "--input", files["square.json"]],  # no --face: usage error
            ["faces", "--input", files["square.json"]],
            ["certify", "--input", files["square.json"], "--face", "0,1"],
        ]

        def run(argv):
            code = cli.main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first_calls = []
        for argv in commands:
            cli._build_parser.cache_clear()
            first_calls.append(run(argv))
        assert [code for code, _out, _err in first_calls] == [2, 0, 0]
        assert "usage: facelex certify" in first_calls[0][2]

        cli._build_parser.cache_clear()
        in_process = [run(commands[0])]
        calls = count_calls(monkeypatch, argparse.ArgumentParser, "add_argument")
        in_process += [run(argv) for argv in commands[1:]]
        assert in_process == first_calls
        assert calls == []
