"""cli: ``facelex.cli.main(argv)`` in-process, stdout and stderr captured.

Every call re-reads its JSON documents and rebuilds its body from scratch,
so this is the only workload that runs ``cli``, ``jsonio`` and ``oracle``,
and it uses ``polytope`` cold.  The fixture documents are written by hand
from closed forms (never by the program's own encoder) during set-up.

Commands: the thirteen of acceptance criterion 8 on its fixtures; seeded
cubes, cross-polytopes, simplices and 0/1 polytopes through ``faces``
(with and without ``--cross-check``), ``certify``, ``chain``,
``equivalence`` and ``lexmin --cross-check``; ``certify --cross-check`` on
small bodies; ``eval``/``classify`` on seeded corteges; the disk-hull
commands on seeded bodies; and malformed documents that must exit 2.
Three of those fail on every pass today and count as failed operations:
a non-list ``coeffs`` (a ``TypeError`` escapes ``main``), a string
``coeffs`` (read digit by digit, exits 0) and a tangency face with no
``edge`` (an ``AttributeError`` escapes).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import wl_diskhull as dh
from exact import (
    Shape,
    Vec,
    affine_rank,
    barycenter,
    canonical_shape,
    cube_symmetry,
    dot,
    euler_poincare_holds,
    first_nonzero,
    on_open_segment,
    vec,
)
from ops import Op, OpFailed, require

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE = 0, 1, 2
SHAPES = (("cube", 2), ("cube", 3), ("cross", 2), ("cross", 3),
          ("simplex", 2), ("simplex", 3), ("simplex", 4))
ZERO_ONE_BODIES = ((3, 5), (3, 6))
# certify --cross-check runs the randomized refuter, 2000 trials: planar only.
CROSS_CHECKED_CERTIFY = (("cube", 2), ("simplex", 2))
CORTEGES = 8


def _text(x: Fraction) -> str:
    return str(Fraction(x))


def _point_doc(p: Vec) -> list[str]:
    return [_text(c) for c in p]


def _polytope_doc(points: list[Vec]) -> dict:
    return {"ambient_dim": len(points[0]), "vertices": [_point_doc(p) for p in points]}


def _primitive(values) -> list[int]:
    den = math.lcm(*(Fraction(v).denominator for v in values))
    ints = [int(Fraction(v) * den) for v in values]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _levels_doc(doc: dict) -> list:
    return [(vec(f["coeffs"]), Fraction(f["offset"])) for f in doc["functionals"]]


# -- checks of output documents -------------------------------------------------


def _check_faces_doc(doc, vertices: list[Vec], shape: Shape | None) -> None:
    faces = [tuple(f) for f in doc["faces"]]
    require(doc["count"] == len(faces), "count differs from the face list")
    if shape is not None:
        require(len(faces) == shape.face_count(), f"{len(faces)} faces, closed form {shape.face_count()}")
        require(set(faces) == set(shape.faces()), "faces differ from the closed form")
    d = affine_rank(vertices)
    dims = [affine_rank([vertices[i] for i in f]) for f in faces]
    require(euler_poincare_holds(dims, d), "f-vector breaks Euler-Poincare")


def _check_certificate_doc(doc, vertices: list[Vec], face: tuple[int, ...]) -> None:
    certificate = doc["certificate"]
    values = [first_nonzero(_levels_doc(certificate["cortege"]), v) for v in vertices]
    require(all(v >= 0 for v in values), "certificate negative at a vertex")
    require(tuple(i for i, v in enumerate(values) if v == 0) == face, "certificate zero set is not the face")
    chain = [tuple(c) for c in certificate["chain"]]
    require(chain[0] == tuple(range(len(vertices))) and chain[-1] == face, "chain does not run from body to face")


def _check_witness_doc(doc, shape: Shape, candidate: tuple[int, ...]) -> None:
    require(doc["not_a_face"] is True, "not_a_face flag missing")
    w, z = vec(doc["witness"]["w"]), vec(doc["witness"]["z"])
    require(shape.contains(w) and shape.contains(z), "a witness point lies outside the body")
    b = barycenter([shape.vertices()[i] for i in candidate])
    require(on_open_segment(b, w, z), "the barycenter is not on the open witness segment")


def _check_report_doc(doc, is_face: bool) -> None:
    legs = doc["legs"]
    expected = {"a": True, "b": True, "c": True, "d": True} if is_face else {"a": False, "d": False}
    require(all(legs[k] == v for k, v in expected.items()), f"equivalence legs {legs}")
    require(doc["is_face"] is is_face and doc["consistent"] is True, "equivalence verdict wrong")


def _check_disk_faces_doc(doc, body: dh.Body) -> None:
    kinds = [f["kind"] for f in doc["faces"]]
    require(doc["count"] == len(kinds) and kinds.count("whole") == 1, "face list malformed")
    require(kinds.count("edge") == len(body.edges), "edge count differs from the construction")
    require(kinds.count("tangency_point") == sum(e.tangencies for e in body.edges),
            "tangency count differs from the construction")
    require(kinds.count("arc_family") == body.families, "arc family count differs from the construction")


# -- commands -------------------------------------------------------------------


class Fixtures:
    """Writes documents into the work directory and names them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, doc, raw: str | None = None) -> str:
        self.count += 1
        path = self.workdir / f"doc{self.count}.json"
        path.write_text(raw if raw is not None else json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return str(path)


def _command(cli, label: str, argv: list[str], expected_code: int, check=None, known_fault=False) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # the interpreter would exit 1 with a traceback
                code = 1
                err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        return code, out.getvalue(), err.getvalue()

    def verify(result):
        code, stdout, stderr = result
        if code != expected_code:
            raise OpFailed(f"exit {code}, expected {expected_code}; stderr {stderr.strip()[:120]!r}")
        require("Traceback" not in stderr, "a traceback reached stderr")
        if expected_code == EXIT_USAGE:
            require(stdout == "", "a usage error wrote to stdout")
        elif check is not None:
            check(json.loads(stdout))

    return Op(label, run, verify, lambda r: r[:2], known_fault)


def _tangency_doc(body: dh.Body, edge: dh.ExpectedEdge, end: int) -> tuple[dict, Vec]:
    """Hand-written face document, and the point it names.

    The program orders an edge's endpoints by their position along the
    normal turned a quarter counterclockwise, so ``end`` picks from that order.
    """
    *coeffs, offset = _primitive(list(edge.normal) + [edge.offset])
    along = (-edge.normal[1], edge.normal[0])
    ends = sorted(edge.ends, key=lambda p: dot(along, p))
    doc = {"kind": "tangency_point", "end": end, "point": _point_doc(ends[end]),
           "edge": {"kind": "edge", "normal": [str(c) for c in coeffs], "offset": str(offset),
                    "endpoints": [_point_doc(p) for p in ends]}}
    return doc, ends[end]


def _tangency_ends(body: dh.Body, edge: dh.ExpectedEdge) -> list[int]:
    """Values of ``end`` that name a tangency point rather than an apex."""
    apexes = {c for c, r in body.disks if r == 0}
    return [end for end in (0, 1) if _tangency_doc(body, edge, end)[1] not in apexes]


def _disk_body_doc(body: dh.Body) -> dict:
    return {"disks": [{"center": _point_doc(c), "radius": _text(r)} for c, r in body.disks]}


def _random_cortege(rng: random.Random, dim: int) -> list:
    while True:
        levels = [(vec(rng.randint(-3, 3) for _ in range(dim)), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                  for _ in range(rng.randint(1, dim))]
        # Independent linear parts make every level new on the zero set of
        # the levels before it, which is what a valid cortege requires.
        if affine_rank([vec([0] * dim)] + [c for c, _o in levels]) == len(levels):
            return levels


def build(lib, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"cli:{seed}")
    # Faces, non-faces and 0/1 polytopes come from one fixed family, placed
    # by the seed, so that every seed runs commands of the same cost.
    family = random.Random("cli:family")
    files = Fixtures(workdir)
    ops: list[Op] = []

    def add(label, argv, code, check=None, known_fault=False):
        ops.append(_command(lib.cli, label, argv, code, check, known_fault))

    # Acceptance criterion 8, on its fixtures.
    square = Shape("cube", (0, 0), 1, (0, 2, 3, 1))
    cube3 = Shape("cube", (0, 0, 0), 1, tuple(range(8)))
    sq, c3 = files.write(_polytope_doc(square.vertices())), files.write(_polytope_doc(cube3.vertices()))
    lex01 = files.write({"levels": [["0", "1"], ["1", "0"]]})
    cortege = [(vec((1, 1)), Fraction(-1)), (vec((1, -1)), Fraction(0))]
    cortege_file = files.write({"functionals": [{"coeffs": _point_doc(c), "offset": _text(o)} for c, o in cortege]})
    cone = dh.cone_body("cone", vec((0, 0)), (3, 4, 5), vec((1, 0)))
    stadium = dh.polygon_body("stadium", vec((0, 0)), [vec((4, 0))], Fraction(1), [])
    cone_file, stadium_file = files.write(_disk_body_doc(cone)), files.write(_disk_body_doc(stadium))
    tangency, touch = _tangency_doc(cone, cone.edges[0], _tangency_ends(cone, cone.edges[0])[0])
    tangency_file = files.write(tangency)
    sq_vertices = square.vertices()
    add("c8-faces", ["faces", "--input", sq], EXIT_OK, lambda d: _check_faces_doc(d, sq_vertices, square))
    add("c8-faces-cc", ["faces", "--input", sq, "--cross-check"], EXIT_OK,
        lambda d: _check_faces_doc(d, sq_vertices, square))
    add("c8-certify", ["certify", "--input", sq, "--face", "0"], EXIT_OK,
        lambda d: _check_certificate_doc(d, sq_vertices, (0,)))
    add("c8-certify-nonface", ["certify", "--input", sq, "--face", "0,2"], EXIT_NEGATIVE,
        lambda d: _check_witness_doc(d, square, (0, 2)))
    add("c8-chain", ["chain", "--input", c3, "--face", "0"], EXIT_OK,
        lambda d: _check_certificate_doc(d, cube3.vertices(), (0,)))
    add("c8-lexmin", ["lexmin", "--input", sq, "--preorder", lex01, "--cross-check"], EXIT_OK,
        lambda d: require(d["vertex_indices"] == [0], "lexmin is not vertex 0"))
    add("c8-equivalence", ["equivalence", "--input", sq, "--face", "0"], EXIT_OK,
        lambda d: _check_report_doc(d, True))
    add("c8-equivalence-nonface", ["equivalence", "--input", sq, "--face", "0,2"], EXIT_NEGATIVE,
        lambda d: _check_report_doc(d, False))
    add("c8-eval", ["eval", "--cortege", cortege_file, "--point", "1/2,1/2"], EXIT_OK,
        lambda d: require(Fraction(d["value"]) == first_nonzero(cortege, vec(("1/2", "1/2"))), "eval value"))
    add("c8-classify", ["classify", "--cortege", cortege_file, "--point", "2,0"], EXIT_OK,
        lambda d: require(d["region"] == "positive_side", "classify region"))
    add("c8-diskhull-faces-cone", ["diskhull-faces", "--input", cone_file], EXIT_OK,
        lambda d: _check_disk_faces_doc(d, cone))
    add("c8-diskhull-faces-stadium", ["diskhull-faces", "--input", stadium_file], EXIT_OK,
        lambda d: _check_disk_faces_doc(d, stadium))
    cone_samples = dh.body_samples(rng, cone)
    add("c8-diskhull-certify", ["diskhull-certify", "--input", cone_file, "--face", tangency_file], EXIT_OK,
        lambda d: dh.check_certificate(_levels_doc(d["cortege"]), cone_samples, {touch}, 2))

    # Seeded closed-form bodies through every polytope command.
    for kind, dim in SHAPES:
        # The vertices stay in canonical order: the refuter behind
        # certify --cross-check draws its samples by vertex position, and
        # its cost changes with the order.  The seed translates the body.
        shape = Shape(kind, tuple(rng.choice((-2, 2)) for _ in range(dim)), 2,
                      canonical_shape(kind, dim).order)
        vertices = shape.vertices()
        path = files.write(_polytope_doc(vertices))
        whole = tuple(range(len(vertices)))
        face = family.choice([f for f in shape.faces() if f != whole])
        flag = ",".join(map(str, face))
        name = f"{kind}{dim}"
        add(f"{name}-faces", ["faces", "--input", path], EXIT_OK,
            lambda d, v=vertices, s=shape: _check_faces_doc(d, v, s))
        add(f"{name}-faces-cc", ["faces", "--input", path, "--cross-check"], EXIT_OK,
            lambda d, v=vertices, s=shape: _check_faces_doc(d, v, s))
        for command in ("certify", "chain"):
            add(f"{name}-{command}", [command, "--input", path, "--face", flag], EXIT_OK,
                lambda d, v=vertices, f=face: _check_certificate_doc(d, v, f))
        add(f"{name}-equivalence", ["equivalence", "--input", path, "--face", flag], EXIT_OK,
            lambda d: _check_report_doc(d, True))
        if (kind, dim) in CROSS_CHECKED_CERTIFY:
            add(f"{name}-certify-cc", ["certify", "--input", path, "--face", flag, "--cross-check"], EXIT_OK,
                lambda d, v=vertices, f=face: _check_certificate_doc(d, v, f))
        non_faces = [s for n in range(2, len(vertices)) for s in itertools.combinations(whole, n)
                     if shape.face_dim(s) is None]
        if non_faces:
            candidate = family.choice(non_faces)
            flag = ",".join(map(str, candidate))
            for command in ("certify", "chain"):
                add(f"{name}-{command}-nonface", [command, "--input", path, "--face", flag], EXIT_NEGATIVE,
                    lambda d, s=shape, c=candidate: _check_witness_doc(d, s, c))
            add(f"{name}-equivalence-nonface", ["equivalence", "--input", path, "--face", flag],
                EXIT_NEGATIVE, lambda d: _check_report_doc(d, False))
        levels = [c for c, _o in _random_cortege(rng, dim)]
        preorder = files.write({"levels": [_point_doc(level) for level in levels]})
        keys = [tuple(dot(level, v) for level in levels) for v in vertices]
        argmin = [i for i, k in enumerate(keys) if k == min(keys)]
        add(f"{name}-lexmin", ["lexmin", "--input", path, "--preorder", preorder, "--cross-check"], EXIT_OK,
            lambda d, a=argmin: require(d["vertex_indices"] == a, "lexmin differs from the tuple-order argmin"))

    for dim, count in ZERO_ONE_BODIES:
        symmetry = cube_symmetry(rng, dim)
        vertices = [vec(symmetry(p)) for p in family.sample(list(itertools.product((0, 1), repeat=dim)), count)]
        path = files.write(_polytope_doc(vertices))
        add(f"01-{dim}d-{count}-faces-cc", ["faces", "--input", path, "--cross-check"], EXIT_OK,
            lambda d, v=vertices: _check_faces_doc(d, v, None))

    for number in range(CORTEGES):
        dim = 2 + number % 3
        levels = _random_cortege(rng, dim)
        path = files.write({"functionals": [{"coeffs": _point_doc(c), "offset": _text(o)} for c, o in levels]})
        point = vec(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
        if number % 2:
            # Land on the zero set of the first level half of the time, so
            # later levels decide.
            coeffs, offset = levels[0]
            k = next(i for i, c in enumerate(coeffs) if c != 0)
            shift = (dot(coeffs, point) + offset) / coeffs[k]
            point = tuple(c - shift if i == k else c for i, c in enumerate(point))
        value = first_nonzero(levels, point)
        flag = ",".join(_point_doc(point))
        add(f"eval-{dim}d", ["eval", "--cortege", path, f"--point={flag}"], EXIT_OK,
            lambda d, v=value: require(Fraction(d["value"]) == v, "eval differs from first-nonzero"))
        region = "positive_side" if value > 0 else "negative_side" if value < 0 else "zero_manifold"
        add(f"classify-{dim}d", ["classify", "--cortege", path, f"--point={flag}"], EXIT_OK,
            lambda d, r=region: require(d["region"] == r, "classify differs from the sign"))

    for body in (dh.random_polygon(rng, 2, 0), dh.random_polygon(rng, 3, 1), dh.random_cone(rng, 2)):
        path = files.write(_disk_body_doc(body))
        add(f"{body.label}-diskhull-faces", ["diskhull-faces", "--input", path], EXIT_OK,
            lambda d, b=body: _check_disk_faces_doc(d, b))
        edge = rng.choice(body.edges)
        doc, point = _tangency_doc(body, edge, rng.choice(_tangency_ends(body, edge)))
        samples = dh.body_samples(rng, body)
        add(f"{body.label}-diskhull-certify", ["diskhull-certify", "--input", path, "--face", files.write(doc)],
            EXIT_OK, lambda d, s=samples, p=point: dh.check_certificate(_levels_doc(d["cortege"]), s, {p}, 2))

    # Malformed input: the contract says exit 2 for every one of these.
    add("bad-coeffs-number", ["eval", "--cortege", files.write({"functionals": [{"coeffs": 5}]}),
                              "--point", "1,1"], EXIT_USAGE, known_fault=True)
    add("bad-coeffs-string", ["eval", "--cortege", files.write({"functionals": [{"coeffs": "12", "offset": "0"}]}),
                              "--point", "1,1"], EXIT_USAGE, known_fault=True)
    add("bad-tangency-no-edge", ["diskhull-certify", "--input", cone_file, "--face",
                                 files.write({"kind": "tangency_point", "end": 0})], EXIT_USAGE, known_fault=True)
    usage_errors = {
        "bad-json": ["faces", "--input", files.write(None, raw="{not json")],
        "bad-empty-vertices": ["faces", "--input", files.write({"vertices": []})],
        "bad-numeric-rationals": ["faces", "--input", files.write({"vertices": [[0, 0], [1, 0]]})],
        "bad-zero-denominator": ["faces", "--input", files.write({"vertices": [["1/0", "0"], ["1", "0"]]})],
        "bad-missing-file": ["faces", "--input", str(workdir / "missing.json")],
        "bad-face-flag": ["certify", "--input", sq, "--face", "x"],
        "bad-face-index": ["certify", "--input", sq, "--face", "0,99"],
        "bad-point-dimension": ["eval", "--cortege", cortege_file, "--point", "1,2,3"],
        "bad-dependent-levels": ["eval", "--cortege", files.write(
            {"functionals": [{"coeffs": ["1", "1"]}, {"coeffs": ["2", "2"]}]}), "--point", "1,1"],
        "bad-empty-preorder": ["lexmin", "--input", sq, "--preorder", files.write({"levels": []})],
        "bad-disk-dimension": ["diskhull-faces", "--input", files.write({"disks": [{"center": ["0"], "radius": "1"}]})],
        "bad-face-kind": ["diskhull-certify", "--input", cone_file, "--face", files.write({"kind": "banana"})],
        "bad-subcommand": ["facets", "--input", sq],
    }
    for label, argv in usage_errors.items():
        add(label, argv, EXIT_USAGE)
    return ops
