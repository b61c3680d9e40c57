import itertools
import random
from fractions import Fraction

import pytest

import facelex as fx
import facelex.polytope
from facelex.oracle import oracle_faces
from helpers import (
    count_calls,
    cube,
    facet_triples,
    pt,
    reference_contains,
    sample_in_hull,
    simplex,
    unit_square,
)


class TestConstruction:
    def test_duplicates_and_interior_points_removed(self):
        p = fx.Polytope([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (Fraction(1, 2), Fraction(1, 2))])
        assert len(p.vertices) == 4
        assert len(p.removed_points) == 2

    def test_midpoint_of_segment_removed(self):
        p = fx.Polytope([(0, 0), (2, 0), (1, 0)])
        assert [v.coords for v in p.vertices] == [pt(0, 0).coords, pt(2, 0).coords]
        assert p.removed_points == (pt(1, 0),)

    def test_vertex_order_preserved(self):
        p = unit_square()
        assert p.vertices == (pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fx.Polytope([])

    def test_removal_order_duplicates_then_non_extreme(self):
        p = fx.Polytope([(1, 1), (0, 0), (2, 0), (2, 2), (0, 2), (2, 0)])
        assert p.vertices == (pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2))
        assert p.removed_points == (pt(2, 0), pt(1, 1))

    def test_point_inside_an_edge_removed(self):
        # (1, 0) is tight on the facet y >= 0 but is no vertex.
        p = fx.Polytope([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])
        assert p.removed_points == (pt(1, 0),)
        assert p.facets() == fx.Polytope(p.vertices).facets()
        bottom = next(f for f in p.facets() if f.functional.coeffs == (0, -1))
        assert bottom.tight_vertices == (0, 1)

    def test_lower_dimensional_with_non_extreme_first_point(self):
        # A parallelogram in the plane z = x + y, listed after its center.
        points = [(1, 1, 2), (0, 0, 0), (2, 0, 2), (0, 2, 2), (2, 2, 4)]
        p = fx.Polytope(points)
        assert p.removed_points == (pt(1, 1, 2),)
        reference = fx.Polytope(p.vertices)
        assert p.hull_manifold() == reference.hull_manifold()
        assert p.hull_manifold().base == pt(0, 0, 0)
        assert p.facets() == reference.facets()

    def test_single_repeated_point(self):
        p = fx.Polytope([(1, 2), (1, 2), (1, 2)])
        assert p.vertices == (pt(1, 2),)
        assert p.removed_points == (pt(1, 2), pt(1, 2))
        assert p.dim == 0
        assert p.facets() == ()
        assert [f.vertex_indices for f in p.all_faces()] == [(0,)]


class TestFacets:
    def test_unit_square_facets(self, square):
        assert facet_triples(square) == {
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
        }

    def test_segment_facets_are_endpoints(self):
        seg = fx.Polytope([(0, 0), (2, 0)])
        triples = {
            (tuple(int(c) for c in f.functional.coeffs), int(f.offset), f.tight_vertices)
            for f in seg.facets()
        }
        assert triples == {((-1, 0), 0, (0,)), ((1, 0), 2, (1,))}

    def test_simplex_facet_count(self, simplex3):
        assert len(simplex3.facets()) == 4

    def test_single_point_has_no_facets(self):
        p = fx.Polytope([(1, 2)])
        assert p.facets() == ()
        assert p.vertices == (pt(1, 2),)
        assert p.removed_points == ()
        assert p.contains(pt(1, 2))
        assert not p.contains(pt(1, 3))

    def test_facets_tight_sets_cover_inequality(self, cube3):
        for facet in cube3.facets():
            for i, v in enumerate(cube3.vertices):
                slack = facet.slack(v)
                assert slack >= 0
                assert (slack == 0) == (i in facet.tight_vertices)

    def test_facet_tight_sets_span_one_dimension_down(self, fixture_polytopes):
        for name in ("unit-square", "3-cube", "octahedron", "random-01-3"):
            polytope = fixture_polytopes[name]
            for facet in polytope.facets():
                span = fx.affine_hull([polytope.vertices[i] for i in facet.tight_vertices])
                assert span.dim == polytope.dim - 1


def _euler_poincare_holds(polytope: fx.Polytope) -> bool:
    """sum over k < d of (-1)^k f_k equals 1 - (-1)^d."""
    d = polytope.dim
    f = [0] * d
    for face in polytope.proper_faces():
        f[fx.affine_hull(polytope.face_points(face)).dim] += 1
    return sum((-1) ** k * f_k for k, f_k in enumerate(f)) == 1 - (-1) ** d


class TestWorkBounds:
    """Facet enumeration costs one kernel for the seed cone, plus one for the
    chart of a lower-dimensional hull, however many points there are: a
    count, so it pins the work without timing anything."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = facelex.polytope.nullspace_basis

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(facelex.polytope, "nullspace_basis", counting)
        return calls

    def test_five_cube(self, solves):
        p = fx.Polytope(list(itertools.product((0, 1), repeat=5)))
        assert len(p.facets()) == 10
        assert len(solves) == 1  # the subset loop made C(32, 5) = 201,376
        assert len(p.all_faces()) == 3**5

    def test_five_cross_polytope(self, solves):
        points = [tuple(s if j == i else 0 for j in range(5)) for i in range(5) for s in (1, -1)]
        p = fx.Polytope(points)
        assert len(p.facets()) == 2**5
        assert len(solves) == 1
        assert len(p.all_faces()) == 3**5

    def test_random_cloud(self, solves):
        rng = random.Random(0)
        points = [pt(*(rng.randint(-50, 50) for _ in range(3))) for _ in range(40)]
        p = fx.Polytope(points)
        facets = p.facets()
        assert len(solves) == 1
        assert all(f.slack(x) >= 0 for f in facets for x in points)
        assert all(p.contains(x) for x in p.removed_points)
        assert len(p.vertices) + len(p.removed_points) == len(points)
        assert _euler_poincare_holds(p)


    @pytest.mark.parametrize(
        "points, kernels",
        [
            (list(itertools.product((0, 1), repeat=5)), 1),
            ([(0, 0), (4, 0), (0, 3)], 1),
            ([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], 2),
            ([(0, 0), (2, 1)], 2),
            ([(3, 4)], 0),
        ],
        ids=["5-cube", "triangle", "square-in-3d", "segment-in-plane", "lone-point"],
    )
    def test_kernels_per_build(self, solves, points, kernels):
        # The seed cone is one kernel of [S | -I]; a full-dimensional hull is
        # charted by its pivot columns alone, a lower-dimensional one needs
        # one more kernel to map facets back, and a point needs neither.
        fx.Polytope(points)
        assert len(solves) == kernels


class TestContains:
    def test_square_center(self, square):
        assert square.contains(pt(Fraction(1, 2), Fraction(1, 2)))

    def test_square_outside(self, square):
        assert not square.contains(pt(2, 0))

    def test_off_affine_hull(self):
        seg = fx.Polytope([(0, 0), (2, 0)])
        assert not seg.contains(pt(1, 1))

    def test_dimension_mismatch(self, square):
        with pytest.raises(fx.DimensionMismatchError):
            square.contains(pt(0, 0, 0))

    def test_matches_fraction_reference(self, fixture_polytopes):
        """Integer membership and smallest faces equal the Fraction slack
        route on seeded rational points: in the hull, on it near the body,
        and off the affine hull of lower-dimensional bodies."""
        rng = random.Random(2024)
        bodies = list(fixture_polytopes.values()) + [
            fx.Polytope([(0, 0, 1), (2, 0, 1), (2, 1, 1), (0, 3, 1)]),
            fx.Polytope([(1, 2, 3), (Fraction(-1, 2), 0, Fraction(7, 3))]),
            fx.Polytope([(0, 0, 0, 0), (Fraction(1, 3), 1, 0, 2), (1, Fraction(-2, 5), 1, 0)]),
        ]
        bodies += [fixture_polytopes["3-cube"].face_polytope(f) for f in fixture_polytopes["3-cube"].proper_faces()]

        def jitter():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

        checked = 0
        for body in bodies:
            for _ in range(40):
                inside = sample_in_hull(rng, body.vertices)
                stretch = Fraction(rng.randint(0, 12), 8)
                anchor = body.vertices[rng.randrange(len(body.vertices))]
                for x in (
                    inside,
                    anchor + (inside - anchor).scaled(stretch),  # on the affine hull
                    fx.Point(tuple(c + jitter() for c in inside.coords)),  # mostly off it
                ):
                    expected = reference_contains(body, x)
                    assert body.contains(x) == expected, (body, x)
                    if expected:
                        tight = [f for f in body.facets() if f.slack(x) == 0]
                        closure = frozenset(range(len(body.vertices))).intersection(
                            *(f.tight_vertices for f in tight)
                        )
                        assert body.smallest_face_containing(x).as_set() == closure
                    checked += 1
        assert checked == 3 * 40 * len(bodies)


class TestSmallestFace:
    def test_edge_point(self, square):
        assert square.smallest_face_containing(pt(Fraction(1, 2), 0)).vertex_indices == (0, 1)

    def test_interior_point_gives_whole(self, square):
        got = square.smallest_face_containing(pt(Fraction(1, 2), Fraction(1, 2)))
        assert got == square.all_indices()

    def test_vertex(self, square):
        assert square.smallest_face_containing(pt(0, 0)).vertex_indices == (0,)

    def test_outside_raises(self, square):
        with pytest.raises(fx.NotAMemberError):
            square.smallest_face_containing(pt(3, 3))


class TestFaceLattice:
    @pytest.mark.parametrize(
        "name,count",
        [("unit-square", 9), ("3-simplex", 15), ("3-cube", 27), ("octahedron", 27)],
    )
    def test_face_counts(self, fixture_polytopes, name, count):
        assert len(fixture_polytopes[name].all_faces()) == count

    def test_is_face_examples(self, square):
        assert square.is_face(fx.FaceDescriptor((0,)))
        assert not square.is_face(fx.FaceDescriptor((0, 2)))
        assert not square.is_face(fx.FaceDescriptor((0, 1, 2)))

    def test_is_face_rejects_bad_descriptors(self, square):
        with pytest.raises(fx.EmptyFaceError):
            square.is_face(fx.FaceDescriptor(()))
        with pytest.raises(IndexError):
            square.is_face(fx.FaceDescriptor((9,)))

    def test_lattice_closed_under_intersection(self, fixture_polytopes):
        for name in ("unit-square", "3-simplex", "octahedron"):
            polytope = fixture_polytopes[name]
            faces = set(polytope.all_faces())
            for f in faces:
                for g in faces:
                    meet = f.intersect(g)
                    assert not meet.vertex_indices or meet in faces

    def test_faces_of_faces_are_faces(self, fixture_polytopes):
        for name in ("unit-square", "3-simplex"):
            polytope = fixture_polytopes[name]
            for face in polytope.all_faces():
                sub = polytope.face_polytope(face)
                local = face.vertex_indices
                for sub_face in sub.all_faces():
                    lifted = fx.FaceDescriptor(tuple(local[k] for k in sub_face.vertex_indices))
                    assert polytope.is_face(lifted)

    def test_all_faces_are_faces(self, octa):
        for face in octa.all_faces():
            assert octa.is_face(face)


class TestFacetsBuiltOnce:
    """The constructor is the one place that enumerates facets: a sub-polytope
    keeps every vertex of its subset, and no later query enumerates again."""

    def test_face_polytope_keeps_every_vertex(self, fixture_polytopes):
        checked = 0
        for polytope in fixture_polytopes.values():
            n = len(polytope.vertices)
            if n > 8:
                continue
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    face = fx.FaceDescriptor(subset)
                    points = polytope.face_points(face)
                    sub = polytope.face_polytope(face)
                    assert sub.vertices == points, subset
                    assert sub.removed_points == ()
                    expected = facelex.polytope._hull_facets(points)
                    assert [(f.functional, f.offset, f.tight_vertices) for f in sub.facets()] == expected
                    checked += 1
        assert checked == 806

    def test_only_construction_enumerates_facets(self, monkeypatch):
        calls = count_calls(monkeypatch, facelex.polytope, "_hull_facets")
        p = cube(3)
        assert len(calls) == 1
        top = fx.FaceDescriptor((1, 3, 5, 7))
        diagonal = fx.FaceDescriptor((0, 7))
        subs = [p.face_polytope(top), p.face_polytope(diagonal)]
        assert len(calls) == 3
        assert p.face_polytope(top) is subs[0]
        inside = pt(Fraction(1, 2), Fraction(1, 2), 1)
        for body in [p] + subs:
            body.facets()
            if body.contains(inside):
                body.smallest_face_containing(inside)
            body.is_face(fx.FaceDescriptor((0,)))
            body.all_faces()
        assert len(calls) == 3


class TestIncidenceQueries:
    """Face queries on vertex sets are answered from the vertex-facet
    incidences; the brute-force oracle and the slack arithmetic at the
    barycenter are the references."""

    def test_is_face_matches_oracle_on_every_vertex_subset(self, fixture_polytopes):
        for polytope in fixture_polytopes.values():
            n = len(polytope.vertices)
            if n > 8:
                continue
            faces = set(oracle_faces(polytope))
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    face = fx.FaceDescriptor(subset)
                    assert polytope.is_face(face) == (face in faces), subset
                    b = polytope.barycenter_of(face)
                    assert polytope._closure(face) == polytope.smallest_face_containing(b)

    def test_is_face_evaluates_no_slack(self, fixture_polytopes, monkeypatch):
        calls = count_calls(monkeypatch, fx.Facet, "slack")
        for polytope in fixture_polytopes.values():
            for face in polytope.all_faces():
                assert polytope.is_face(face)
            for pair in itertools.combinations(range(len(polytope.vertices)), 2):
                polytope.is_face(fx.FaceDescriptor(pair))
        assert calls == []


class TestSegmentLattice:
    def test_three_faces(self):
        seg = fx.Polytope([(0, 0), (2, 0)])
        faces = seg.all_faces()
        assert [f.vertex_indices for f in faces] == [(0,), (1,), (0, 1)]


class TestComplementConvexitySmoke:
    """Light version of the complement-convexity invariant (full run lives in
    the acceptance suite)."""

    def test_square_faces(self, square):
        rng = random.Random(5)
        faces = [f for f in square.all_faces() if f != square.all_indices()]
        for face in faces:
            hull = square.face_polytope(face)
            done = 0
            while done < 20:
                y = sample_in_hull(rng, square.vertices)
                z = sample_in_hull(rng, square.vertices)
                if hull.contains(y) or hull.contains(z):
                    continue
                mid = (y + z).scaled(Fraction(1, 2))
                assert square.contains(mid)
                assert not hull.contains(mid)
                done += 1
