import json
from fractions import Fraction

import pytest

import facelex as fx
from facelex import jsonio
from helpers import af, cone_body, stadium_body, unit_square


class TestRoundTrips:
    def test_polytope(self):
        square = unit_square()
        doc = jsonio.polytope_to_json(square)
        assert doc["ambient_dim"] == 2
        assert doc["vertices"][0] == ["0", "0"]
        assert jsonio.polytope_from_json(doc) == square

    def test_face(self):
        face = fx.FaceDescriptor((3, 0))
        doc = jsonio.face_to_json(face)
        assert doc == {"vertex_indices": [0, 3]}
        assert jsonio.face_from_json(doc) == face

    def test_cortege_order_significant(self):
        cortege = fx.Cortege((af([1, 1], -1), af([1, -1])))
        doc = jsonio.cortege_to_json(cortege)
        assert doc["functionals"][0] == {"coeffs": ["1", "1"], "offset": "-1"}
        assert jsonio.cortege_from_json(doc) == cortege

    def test_preorder(self):
        preorder = fx.lex_preorder([[0, 1], [1, 0]])
        doc = jsonio.preorder_to_json(preorder)
        assert doc == {"levels": [["0", "1"], ["1", "0"]]}
        assert jsonio.preorder_from_json(doc) == preorder

    def test_certificate(self):
        square = unit_square()
        cert = fx.certify(square, fx.FaceDescriptor((0,)))
        doc = jsonio.certificate_to_json(cert)
        assert doc["chain"] == [[0, 1, 2, 3], [0]]
        assert jsonio.certificate_from_json(doc) == cert

    def test_disk_body(self):
        body = cone_body()
        doc = jsonio.disk_body_to_json(body)
        assert doc["disks"][0] == {"center": ["0", "0"], "radius": "3"}
        parsed = jsonio.disk_body_from_json(doc)
        assert parsed.disks == body.disks

    def test_disk_faces(self):
        for body in (cone_body(), stadium_body()):
            for face in body.faces():
                doc = jsonio.disk_face_to_json(face)
                assert jsonio.disk_face_from_json(body, doc) == face

    def test_rationals_serialized_in_lowest_terms(self):
        point = fx.Point((Fraction(2, 4), Fraction(-6, 3)))
        assert jsonio.point_to_json(point) == ["1/2", "-2"]


class TestCanonicalRendering:
    def test_sorted_keys_and_trailing_newline(self):
        text = jsonio.dumps_canonical({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_round_trip_is_identity_on_canonical_form(self):
        square = unit_square()
        doc = jsonio.polytope_to_json(square)
        text = jsonio.dumps_canonical(doc)
        again = jsonio.dumps_canonical(json.loads(text))
        assert text == again


class TestParseErrors:
    @pytest.mark.parametrize(
        "builder,doc",
        [
            (jsonio.polytope_from_json, {}),
            (jsonio.polytope_from_json, {"vertices": []}),
            (jsonio.polytope_from_json, {"vertices": [["0", "0"], ["1"]]}),
            (jsonio.face_from_json, {"vertex_indices": ["x"]}),
            (jsonio.cortege_from_json, {"functionals": []}),
            (jsonio.preorder_from_json, {}),
            (jsonio.disk_body_from_json, {"disks": [{"radius": "1"}]}),
            (jsonio.polytope_from_json, {"ambient_dim": True, "vertices": [["0"], ["1"]]}),
            (jsonio.polytope_from_json, {"ambient_dim": 1.0, "vertices": [["0"], ["1"]]}),
        ],
    )
    def test_malformed_documents(self, builder, doc):
        with pytest.raises(fx.FormatError):
            builder(doc)

    @pytest.mark.parametrize(
        "builder,doc",
        [
            (jsonio.face_from_json, {"vertex_indices": [True]}),
            (jsonio.face_from_json, {"vertex_indices": [0, False]}),
            (
                jsonio.certificate_from_json,
                {"cortege": {"functionals": [{"coeffs": ["1", "0"]}]}, "chain": [[0, 1], [True]]},
            ),
        ],
    )
    def test_boolean_vertex_index_rejected(self, builder, doc):
        # JSON true/false are ints to Python; they must not pass as indices.
        with pytest.raises(fx.FormatError):
            builder(doc)

    def test_malformed_json_text(self):
        with pytest.raises(fx.FormatError):
            jsonio.load_document("{not json")

    def test_deeply_nested_json_text(self):
        with pytest.raises(fx.FormatError):
            jsonio.load_document("[" * 100000 + "]" * 100000)

    def test_arc_family_representative_must_be_arc_point(self):
        # A family is named by its disk and bounds; a representative alone,
        # nested or flat, names none.
        arc_point = {"kind": "arc_point", "disk": 0, "direction": ["1", "0"]}
        nested = {"kind": "arc_family", "representative": {"kind": "arc_family", "representative": arc_point}}
        with pytest.raises(fx.FormatError):
            jsonio.disk_face_from_json(cone_body(), nested)
        flat = {"kind": "arc_family", "representative": arc_point}
        with pytest.raises(fx.FormatError):
            jsonio.disk_face_from_json(cone_body(), flat)

    @pytest.mark.parametrize(
        "change",
        [
            {"disk": 7},
            {"disk": True},
            {"disk": 1},
            {"start": ["9", "9"]},
            {"start": ["6", "8"]},
            {"end": None},
            {"end": ["3", "4", "0"]},
            {"end": "3,4"},
        ],
    )
    def test_arc_family_must_be_listed(self, change):
        body = cone_body()
        family = next(f for f in body.faces() if isinstance(f, fx.ArcFamily) and f.disk == 0)
        doc = jsonio.disk_face_to_json(family)
        assert jsonio.disk_face_from_json(body, doc) == family
        with pytest.raises(fx.FormatError):
            jsonio.disk_face_from_json(body, {**doc, **change})

    @pytest.mark.parametrize("bound", ["start", "end"])
    def test_arc_family_bounds_are_required(self, bound):
        body = fx.DiskBody([((0, 0), 2)])
        doc = jsonio.disk_face_to_json(body.faces()[1])
        assert doc[bound] is None
        del doc[bound]
        with pytest.raises(fx.FormatError):
            jsonio.disk_face_from_json(body, doc)

    def test_edge_offset_is_required(self):
        # The edge x >= 0 has offset 0, so a missing offset must not be
        # read as 0.
        body = fx.DiskBody([((1, 0), 1), ((1, 4), 1)])
        tangency = next(
            f for f in body.faces() if isinstance(f, fx.TangencyPoint) and f.edge.offset == 0
        )
        doc = jsonio.disk_face_to_json(tangency)
        assert jsonio.disk_face_from_json(body, doc) == tangency
        del doc["edge"]["offset"]
        for incomplete in (doc, doc["edge"]):
            with pytest.raises(fx.FormatError, match="an edge needs an 'offset'"):
                jsonio.disk_face_from_json(body, incomplete)

    def test_float_rationals_rejected(self):
        with pytest.raises(fx.FormatError):
            jsonio.point_from_json(["0.5", "1"])

    def test_invalid_cortege_raises_its_own_error(self):
        doc = {"functionals": [{"coeffs": ["1", "0"], "offset": "0"},
                               {"coeffs": ["2", "0"], "offset": "1"}]}
        with pytest.raises(fx.InvalidCortegeError):
            jsonio.cortege_from_json(doc)
