"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons are exact (tolerance zero); sampled checks use the
fixed seeds below and tolerate zero violations.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import facelex as fx
from facelex import jsonio
from facelex.oracle import oracle_faces, oracle_lex_argmin
from helpers import (
    assert_witness_valid,
    combine,
    cone_body,
    convex_weights,
    disk_body_samples,
    random_cortege,
    random_preorder,
    sample_in_hull,
    stadium_body,
)


def _announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_every_proper_face_certified(fixture_polytopes):
    """Every proper nonempty face of every fixture gets a rank-1 certificate
    and a chain certificate of rank at most its codimension, all verified."""
    started = time.monotonic()
    checked = 0
    for polytope in fixture_polytopes.values():
        for face in polytope.proper_faces():
            rank1 = fx.certify(polytope, face)
            assert isinstance(rank1, fx.FaceCertificate)
            assert rank1.rank == 1
            assert fx.verify_certificate(polytope, face, rank1).accepted

            chain = fx.chain_certificate(polytope, face)
            codim = polytope.dim - polytope.face_polytope(face).dim
            assert 1 <= chain.rank <= codim
            assert fx.verify_certificate(polytope, face, chain).accepted
            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 300
    assert elapsed < 60, f"certification sweep took {elapsed:.1f}s"
    _announce(1, f"lexicographic exposure of {checked} faces in {elapsed:.1f}s")


def test_criterion_2_face_count_goldens(fixture_polytopes):
    golden = {"unit-square": 9, "3-simplex": 15, "3-cube": 27, "octahedron": 27}
    for name, count in golden.items():
        polytope = fixture_polytopes[name]
        assert len(polytope.all_faces()) == count
        assert len(oracle_faces(polytope)) == count
    _announce(2, "face-count goldens")


def _non_face_subsets(polytope, rng, wanted=50, attempts=2000):
    faces = set(polytope.all_faces())
    n = len(polytope.vertices)
    if len(faces) == 2**n - 1:
        return []  # every nonempty vertex subset is a face (simplices)
    found = []
    for _ in range(attempts):
        if len(found) >= wanted:
            break
        size = rng.randint(1, n - 1)
        candidate = fx.FaceDescriptor(tuple(rng.sample(range(n), size)))
        if candidate not in faces:
            found.append(candidate)
    return found


def test_criterion_3_equivalence_harness(fixture_polytopes):
    for index, polytope in enumerate(fixture_polytopes.values()):
        for face in polytope.proper_faces():
            report = fx.equivalence_report(polytope, face)
            assert report.is_face and report.consistent
            assert (report.a, report.b, report.c, report.d) == (True, True, True, True)
        rng = random.Random(3000 + index)
        for candidate in _non_face_subsets(polytope, rng):
            report = fx.equivalence_report(polytope, candidate)
            assert report.consistent and not report.is_face
            assert report.a is False and report.d is False
            witness = fx.certify(polytope, candidate)
            assert isinstance(witness, fx.NotAFace)
            assert_witness_valid(polytope, candidate, witness)
    _announce(3, "four-way equivalence, positives and negatives")


def test_criterion_4_preorder_minimizers_agree(fixture_polytopes):
    for index, polytope in enumerate(fixture_polytopes.values()):
        rng = random.Random(4000 + index)
        for _ in range(100):
            preorder = random_preorder(rng, polytope.ambient_dim, max_rank=3)
            face = preorder.min_set(polytope)
            assert face == oracle_lex_argmin(polytope, preorder.levels)
            assert polytope.is_face(face)
    _announce(4, "sequential minimization matches tuple order")


def test_criterion_5_non_exposed_tangency_points():
    bodies = {"cone": cone_body(), "stadium": stadium_body()}
    total = 0
    for name, body in bodies.items():
        rng = random.Random(5000)
        samples = disk_body_samples(body, rng, 500)
        tangencies = [f for f in body.faces() if isinstance(f, fx.TangencyPoint)]
        assert tangencies, f"{name} fixture must have tangency faces"
        for face in tangencies:
            assert body.is_exposed(face) is False
            cortege = body.certify(face)
            assert cortege.rank == 2
            u = fx.StepAffineFunction(cortege)
            zero_hits = set()
            for p in samples:
                value = u(p)
                assert value >= 0
                if value == 0:
                    zero_hits.add(p.coords)
            assert zero_hits == {face.point.coords}
            total += 1
    _announce(5, f"{total} non-exposed tangency points with rank-2 certificates")


def _sample_outside(rng, polytope, hull, limit=200):
    for _ in range(limit):
        candidate = sample_in_hull(rng, polytope.vertices)
        if not hull.contains(candidate):
            return candidate
    raise AssertionError("could not sample outside the face hull")


def test_criterion_6_face_geometry_invariants(fixture_polytopes):
    """The three sampled face properties: the complement stays convex, open
    halflines leave the body, and the affine hull meets the body in the face."""
    half = Fraction(1, 2)
    taus = (Fraction(1, 2), Fraction(1), Fraction(3))
    for index, polytope in enumerate(fixture_polytopes.values()):
        rng = random.Random(6000 + index)
        for face in polytope.proper_faces():
            hull = polytope.face_polytope(face)
            face_points = hull.vertices

            # (i) complement convexity: midpoints of outside pairs stay outside.
            for _ in range(200):
                y = _sample_outside(rng, polytope, hull)
                z = _sample_outside(rng, polytope, hull)
                mid = (y + z).scaled(half)
                assert polytope.contains(mid)
                assert not hull.contains(mid)

            # (ii) open halflines through the face leave the body.
            for _ in range(100):
                x = combine(face_points, convex_weights(rng, len(face_points), positive=True))
                y = _sample_outside(rng, polytope, hull)
                for tau in taus:
                    beyond = x + (x - y).scaled(tau)
                    assert not polytope.contains(beyond)

            # (iii) the affine hull cuts the body exactly in the face.
            manifold = hull.hull_manifold()
            for i, v in enumerate(polytope.vertices):
                if manifold.contains(v):
                    assert i in face.as_set()
            accepted = 0
            guard = 0
            while accepted < 100 and guard < 4000:
                guard += 1
                weights = list(convex_weights(rng, len(face_points)))
                if len(face_points) >= 2:
                    i, j = rng.sample(range(len(face_points)), 2)
                    shift = Fraction(rng.randint(0, 2), 8)
                    weights[i] += shift
                    weights[j] -= shift
                point = combine(face_points, weights)
                if not polytope.contains(point):
                    continue
                assert hull.contains(point)
                accepted += 1
            assert accepted == 100
    _announce(6, "complement convexity, halfline exclusion, affine-hull intersection")


def test_criterion_7_step_affine_algebra():
    rng = random.Random(7000)
    literal_disagreements = 0
    for _ in range(20):
        dim = rng.randint(2, 4)
        cortege = random_cortege(rng, dim, max_rank=3)
        u = fx.StepAffineFunction(cortege)
        w, anchor = u.decompose()
        nonneg: list[fx.Point] = []
        negative: list[fx.Point] = []
        for _ in range(1000):
            x = fx.Point(
                tuple(Fraction(rng.randint(-16, 16), rng.randint(1, 5)) for _ in range(dim))
            )
            value = u(x)

            # literal first-nonzero evaluation agrees with the cascade form
            hits = [f(x) for f in cortege.functionals if f(x) != 0]
            literal = hits[0] if hits else Fraction(0)
            if literal != value:
                literal_disagreements += 1

            # total trichotomy
            region = u.classify(x)
            assert (value > 0) == (region is fx.Region.POSITIVE_SIDE)
            assert (value < 0) == (region is fx.Region.NEGATIVE_SIDE)
            assert (value == 0) == (region is fx.Region.ZERO_MANIFOLD)

            # exact positive homogeneity about the anchor
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            assert u(anchor + (x - anchor).scaled(t)) == t * value
            assert w(x - anchor) == value

            (nonneg if value >= 0 else negative).append(x)

        for group, keep in ((nonneg, lambda v: v >= 0), (negative, lambda v: v < 0)):
            for i in range(0, len(group) - 1, 2):
                mid = (group[i] + group[i + 1]).scaled(Fraction(1, 2))
                assert keep(u(mid))
    assert literal_disagreements == 0
    _announce(7, "step-affine evaluation, trichotomy, homogeneity, convexity")


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory, fixture_polytopes):
    root = tmp_path_factory.mktemp("acceptance_cli")
    paths = {}

    def write(name, doc):
        path = root / name
        path.write_text(jsonio.dumps_canonical(doc), encoding="utf-8")
        paths[name] = str(path)

    write("square.json", jsonio.polytope_to_json(fixture_polytopes["unit-square"]))
    write("cube3.json", jsonio.polytope_to_json(fixture_polytopes["3-cube"]))
    write("lex01.json", {"levels": [["0", "1"], ["1", "0"]]})
    write("cortege.json", {"functionals": [
        {"coeffs": ["1", "1"], "offset": "-1"},
        {"coeffs": ["1", "-1"], "offset": "0"},
    ]})
    body = cone_body()
    write("cone.json", jsonio.disk_body_to_json(body))
    write("stadium.json", jsonio.disk_body_to_json(stadium_body()))
    tangency = next(f for f in body.faces() if isinstance(f, fx.TangencyPoint))
    write("tangency.json", jsonio.disk_face_to_json(tangency))
    return paths


def test_criterion_8_cli_determinism(cli_documents):
    d = cli_documents
    commands = [
        ["faces", "--input", d["square.json"]],
        ["faces", "--input", d["square.json"], "--cross-check"],
        ["certify", "--input", d["square.json"], "--face", "0"],
        ["certify", "--input", d["square.json"], "--face", "0,2"],
        ["chain", "--input", d["cube3.json"], "--face", "0"],
        ["lexmin", "--input", d["square.json"], "--preorder", d["lex01.json"], "--cross-check"],
        ["equivalence", "--input", d["square.json"], "--face", "0"],
        ["equivalence", "--input", d["square.json"], "--face", "0,2"],
        ["eval", "--cortege", d["cortege.json"], "--point", "1/2,1/2"],
        ["classify", "--cortege", d["cortege.json"], "--point", "2,0"],
        ["diskhull-faces", "--input", d["cone.json"]],
        ["diskhull-faces", "--input", d["stadium.json"]],
        ["diskhull-certify", "--input", d["cone.json"], "--face", d["tangency.json"]],
    ]
    for command in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "facelex", *command], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, f"nondeterministic output: {command}"
        assert runs[0].returncode == runs[1].returncode
        if command[0] not in ("certify", "equivalence") or "0,2" not in command:
            assert runs[0].returncode == 0, f"{command}: {runs[0].stderr!r}"
        json.loads(runs[0].stdout)  # every command emits one JSON document
    _announce(8, f"{len(commands)} CLI commands byte-identical across runs")
