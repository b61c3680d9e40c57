"""JSON encoding and decoding for every wire format the CLI speaks.

Rationals travel as decimal-free strings ("p/q" or "p"), documents are
serialized with sorted keys and a fixed indent, so identical values always
produce byte-identical output.  Parsers raise :class:`FormatError` on
malformed documents.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .certify import EquivalenceReport, FaceCertificate, NotAFace
from .core import (
    AffineFunctional,
    LinearFunctional,
    Point,
    _excerpt,
    _guard_digits,
    format_rational,
    parse_rational,
)
from .diskhull import (
    ArcFamily,
    ArcPoint,
    Disk,
    DiskBody,
    DiskFace,
    Edge,
    TangencyPoint,
    Whole,
)
from .errors import FormatError
from .polytope import FaceDescriptor, Polytope
from .preorder import LexPreorder
from .stepaffine import Cortege


def dumps_canonical(document: Any) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _rational_from(value: Any) -> Fraction:
    if not isinstance(value, str):
        raise FormatError(f"rationals must be strings like '1/2', got {_excerpt(value)}")
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _rationals_from(value: Any, what: str) -> tuple[Fraction, ...]:
    """A JSON list of rational strings; anything else is a FormatError."""
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of rationals, got {_excerpt(value)}")
    return tuple(_rational_from(c) for c in value)


def point_to_json(point: Point) -> list[str]:
    return [format_rational(c) for c in point.coords]


def point_from_json(doc: Any, *, dim: int | None = None) -> Point:
    if not isinstance(doc, list) or not doc:
        raise FormatError(f"a point must be a nonempty list of rationals, got {_excerpt(doc)}")
    point = Point(tuple(_rational_from(c) for c in doc))
    if dim is not None and point.dim != dim:
        raise FormatError(f"expected a point of dimension {dim}, got {point.dim}")
    return point


def polytope_to_json(polytope: Polytope) -> dict:
    return {
        "ambient_dim": polytope.ambient_dim,
        "vertices": [point_to_json(v) for v in polytope.vertices],
    }


def polytope_from_json(doc: Any) -> Polytope:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise FormatError("a polytope document needs a 'vertices' key")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise FormatError("'vertices' must be a nonempty list")
    points = [point_from_json(v) for v in vertices]
    ambient = doc.get("ambient_dim", points[0].dim)
    # type() rather than isinstance(): JSON true/false are ints to Python.
    if type(ambient) is not int:
        raise FormatError(f"'ambient_dim' must be an integer, got {_excerpt(ambient)}")
    if any(p.dim != ambient for p in points):
        raise FormatError("vertex dimensions disagree with ambient_dim")
    return Polytope(points)


def face_to_json(face: FaceDescriptor) -> dict:
    return {"vertex_indices": list(face.vertex_indices)}


def face_from_json(doc: Any) -> FaceDescriptor:
    if not isinstance(doc, dict) or "vertex_indices" not in doc:
        raise FormatError("a face document needs a 'vertex_indices' key")
    indices = doc["vertex_indices"]
    # type() rather than isinstance(): JSON true/false are ints to Python.
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):
        raise FormatError("'vertex_indices' must be a list of integers")
    return FaceDescriptor(tuple(indices))


def functional_to_json(functional: AffineFunctional) -> dict:
    return {
        "coeffs": [format_rational(c) for c in functional.linear.coeffs],
        "offset": format_rational(functional.offset),
    }


def functional_from_json(doc: Any) -> AffineFunctional:
    if not isinstance(doc, dict) or "coeffs" not in doc:
        raise FormatError("an affine functional needs a 'coeffs' key")
    coeffs = _rationals_from(doc["coeffs"], "'coeffs'")
    offset = _rational_from(doc.get("offset", "0"))
    return AffineFunctional(LinearFunctional(coeffs), offset)


def cortege_to_json(cortege: Cortege) -> dict:
    return {"functionals": [functional_to_json(f) for f in cortege.functionals]}


def cortege_from_json(doc: Any) -> Cortege:
    if not isinstance(doc, dict) or "functionals" not in doc:
        raise FormatError("a cortege document needs a 'functionals' key")
    functionals = doc["functionals"]
    if not isinstance(functionals, list) or not functionals:
        raise FormatError("'functionals' must be a nonempty list")
    return Cortege(tuple(functional_from_json(f) for f in functionals))


def preorder_to_json(preorder: LexPreorder) -> dict:
    return {"levels": [[format_rational(c) for c in l.coeffs] for l in preorder.levels]}


def preorder_from_json(doc: Any) -> LexPreorder:
    if not isinstance(doc, dict) or "levels" not in doc:
        raise FormatError("a preorder document needs a 'levels' key")
    levels = doc["levels"]
    if not isinstance(levels, list) or not levels:
        raise FormatError("'levels' must be a nonempty list")
    return LexPreorder(
        tuple(LinearFunctional(_rationals_from(row, "each level")) for row in levels)
    )


def certificate_to_json(certificate: FaceCertificate) -> dict:
    return {
        "cortege": cortege_to_json(certificate.cortege),
        "chain": [list(d.vertex_indices) for d in certificate.chain],
    }


def certificate_from_json(doc: Any) -> FaceCertificate:
    if not isinstance(doc, dict) or "cortege" not in doc or "chain" not in doc:
        raise FormatError("a certificate document needs 'cortege' and 'chain' keys")
    chain = doc["chain"]
    if not isinstance(chain, list) or not chain:
        raise FormatError("'chain' must be a nonempty list of index lists")
    return FaceCertificate(
        cortege=cortege_from_json(doc["cortege"]),
        chain=tuple(face_from_json({"vertex_indices": entry}) for entry in chain),
    )


def not_a_face_to_json(result: NotAFace) -> dict:
    w, z = result.witness
    return {
        "not_a_face": True,
        "witness": {"w": point_to_json(w), "z": point_to_json(z)},
        "smallest_face": list(result.smallest_face.vertex_indices),
    }


def report_to_json(report: EquivalenceReport) -> dict:
    return {
        "legs": {"a": report.a, "b": report.b, "c": report.c, "d": report.d},
        "is_face": report.is_face,
        "consistent": report.consistent,
    }


# -- disk bodies ------------------------------------------------------------


def disk_body_to_json(body: DiskBody) -> dict:
    return {
        "disks": [
            {"center": point_to_json(d.center), "radius": format_rational(d.radius)}
            for d in body.disks
        ]
    }


def disk_body_from_json(doc: Any) -> DiskBody:
    if not isinstance(doc, dict) or "disks" not in doc:
        raise FormatError("a disk body document needs a 'disks' key")
    disks = doc["disks"]
    if not isinstance(disks, list) or not disks:
        raise FormatError("'disks' must be a nonempty list")
    out = []
    for entry in disks:
        if not isinstance(entry, dict) or "center" not in entry:
            raise FormatError("each disk needs a 'center'")
        center = point_from_json(entry["center"], dim=2)
        radius = _rational_from(entry.get("radius", "0"))
        out.append(Disk(center, radius))
    return DiskBody(out)


def _linear_to_json(functional: LinearFunctional) -> list[str]:
    return [format_rational(c) for c in functional.coeffs]


def _edge_to_json(edge: Edge) -> dict:
    return {
        "kind": "edge",
        "disks": list(edge.disks),
        "normal": _linear_to_json(edge.normal),
        "offset": format_rational(edge.offset),
        "endpoints": [point_to_json(p) for p in edge.endpoints],
    }


def disk_face_to_json(face: DiskFace) -> dict:
    if isinstance(face, Whole):
        return {"kind": "whole"}
    if isinstance(face, Edge):
        return _edge_to_json(face)
    if isinstance(face, ArcPoint):
        return {
            "kind": "arc_point",
            "disk": face.disk,
            "direction": _linear_to_json(face.direction),
        }
    if isinstance(face, TangencyPoint):
        return {
            "kind": "tangency_point",
            "edge": _edge_to_json(face.edge),
            "end": face.end,
            "point": point_to_json(face.point),
        }
    if isinstance(face, ArcFamily):
        return {
            "kind": "arc_family",
            "disk": face.disk,
            "start": None if face.start is None else _linear_to_json(face.start),
            "end": None if face.end is None else _linear_to_json(face.end),
            "representative": disk_face_to_json(face.representative),
        }
    raise FormatError(f"unknown disk face {face!r}")


def _edge_from_json(body: DiskBody, doc: Any) -> Edge:
    if not isinstance(doc, dict):
        raise FormatError(f"an edge must be a JSON object, got {_excerpt(doc)}")
    normal = LinearFunctional(_rationals_from(doc.get("normal"), "an edge 'normal'"))
    if "offset" not in doc:
        raise FormatError("an edge needs an 'offset'")
    offset = _rational_from(doc["offset"])
    for edge in body.edges():
        if edge.normal == normal and edge.offset == offset:
            return edge
    raise FormatError(
        f"no hull edge with normal {_excerpt(doc.get('normal'))} and offset {_excerpt(doc.get('offset'))}"
    )


def _arc_family_from_json(body: DiskBody, doc: dict) -> ArcFamily:
    """The family that ``body.faces()`` lists with the document's disk,
    start and end; its representative follows from those."""
    disk = doc.get("disk")
    bounds = [doc.get(key) for key in ("start", "end")]
    # type() rather than isinstance(): JSON true/false are ints to Python.
    if type(disk) is int and "start" in doc and "end" in doc:
        start, end = (
            None if bound is None else LinearFunctional(_rationals_from(bound, "an arc family bound"))
            for bound in bounds
        )
        for face in body.faces():
            if isinstance(face, ArcFamily) and (face.disk, face.start, face.end) == (disk, start, end):
                return face
    raise FormatError(
        f"no arc family on disk {_excerpt(disk)} from {_excerpt(bounds[0])} to {_excerpt(bounds[1])}"
    )


def disk_face_from_json(body: DiskBody, doc: Any) -> DiskFace:
    """Resolve a tagged face document against a concrete body."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError("a disk face document needs a 'kind' tag")
    kind = doc["kind"]
    if kind == "whole":
        return Whole()
    if kind == "edge":
        return _edge_from_json(body, doc)
    if kind == "arc_point":
        direction = LinearFunctional(_rationals_from(doc.get("direction"), "'direction'"))
        disk = doc.get("disk")
        # type() rather than isinstance(): JSON true/false are ints to Python.
        if type(disk) is not int or not 0 <= disk < len(body.disks):
            raise FormatError(f"bad disk index {_excerpt(disk)}")
        return ArcPoint(disk=disk, direction=direction)
    if kind == "tangency_point":
        edge = _edge_from_json(body, doc.get("edge"))
        end = doc.get("end")
        if type(end) is not int or end not in (0, 1):
            raise FormatError("tangency point 'end' must be 0 or 1")
        return TangencyPoint(edge=edge, end=end)
    if kind == "arc_family":
        return _arc_family_from_json(body, doc)
    raise FormatError(f"unknown disk face kind {_excerpt(kind)}")


def _json_int(literal: str) -> int:
    """A JSON integer; more digits than Python converts raise the size guard."""
    try:
        return int(literal)
    except ValueError:
        _guard_digits("number", len(literal.lstrip("-")))
        raise


def load_document(text: str) -> Any:
    try:
        return json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("malformed JSON: nested too deeply") from exc
