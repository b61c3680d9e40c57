import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import facelex as fx
from facelex.core import primitive_tuple
from helpers import disk_body_samples, lf, pt

small_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)
radicands = st.integers(min_value=0, max_value=60)
square_free = [m for m in range(2, 80) if all(m % (p * p) for p in range(2, 9))]


def bracket_sign(q: fx.QuadScalar) -> int:
    """Independent sign oracle: bound sqrt(radicand) by integer square roots."""
    if q.coeff == 0:
        return (q.rational > 0) - (q.rational < 0)
    s = q.radicand
    assert s.denominator == 1  # canonical radicand is an integer
    scale = 10**12
    lo = Fraction(math.isqrt(s.numerator * scale * scale), scale)
    hi = lo + Fraction(1, scale)
    low = q.rational + (q.coeff * lo if q.coeff > 0 else q.coeff * hi)
    high = q.rational + (q.coeff * hi if q.coeff > 0 else q.coeff * lo)
    if low > 0:
        return 1
    if high < 0:
        return -1
    # bracket straddles zero: decide exact equality algebraically
    return 0 if q.rational * q.rational == q.coeff * q.coeff * s else (1 if high > 0 else -1)


class TestQuadScalar:
    @given(a=small_rationals, b=small_rationals, s=radicands)
    def test_sign_matches_bracketing_oracle(self, a, b, s):
        q = fx.QuadScalar(a, b, Fraction(s))
        assert q.sign() == bracket_sign(q)

    def test_square_radicand_collapses(self):
        assert fx.QuadScalar(1, 3, Fraction(4)).as_rational() == 7
        assert fx.QuadScalar(0, 1, Fraction(9, 4)).as_rational() == Fraction(3, 2)

    def test_square_part_extracted(self):
        assert fx.QuadScalar(0, 1, Fraction(8)) == fx.QuadScalar(0, 2, Fraction(2))

    def test_zero_radicand_or_coeff_is_rational(self):
        assert fx.QuadScalar(Fraction(5, 3), 0, Fraction(2)).is_rational()
        assert fx.QuadScalar(Fraction(5, 3), 4, Fraction(0)).is_rational()

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            fx.QuadScalar(0, 1, Fraction(2)) + fx.QuadScalar(0, 1, Fraction(3))

    def test_ordering(self):
        sqrt2 = fx.QuadScalar(0, 1, Fraction(2))
        assert fx.QuadScalar.of(1) < sqrt2 < fx.QuadScalar.of(2)
        assert sqrt2 * sqrt2 == fx.QuadScalar.of(2)

    @given(a=small_rationals, b=small_rationals, c=small_rationals, d=small_rationals)
    def test_field_arithmetic(self, a, b, c, d):
        s = Fraction(5)
        x = fx.QuadScalar(a, b, s)
        y = fx.QuadScalar(c, d, s)
        assert (x + y) - y == x
        assert x * y == y * x


    @given(
        a=small_rationals,
        b=small_rationals,
        k=st.integers(min_value=1, max_value=12),
        m=st.sampled_from(square_free),
        c=small_rationals,
        d=small_rationals,
    )
    def test_unreduced_radicand_has_value_semantics(self, a, b, k, m, c, d):
        x = fx.QuadScalar(a, b, Fraction(k * k * m))
        y = fx.QuadScalar(a, b * k, Fraction(m))
        z = fx.QuadScalar(c, d, Fraction(m))
        assert x == y
        assert hash(x) == hash(y)
        assert x + z == y + z and z + x == z + y
        assert x * z == y * z and z * x == z * y
        for q in (x, y, x + z, x * z, z * x):
            assert q.sign() == bracket_sign(q)

    @given(
        a=small_rationals,
        b=small_rationals,
        s=radicands,
        n=st.one_of(small_rationals, st.integers(min_value=-30, max_value=30)),
    )
    def test_ordering_laws_against_plain_numbers(self, a, b, s, n):
        for q in (fx.QuadScalar(a, b, Fraction(s)), fx.QuadScalar.of(n)):
            sign = bracket_sign(q - n)
            assert [q < n, q == n, q > n] == [sign < 0, sign == 0, sign > 0]
            assert (q <= n) == (q < n or q == n)
            assert (q >= n) == (q > n or q == n)
            assert (n == q) == (q == n) and (q != n) == (not q == n)
            if q == n:
                assert hash(q) == hash(n)

    def test_equal_to_plain_number_of_same_value(self):
        assert fx.QuadScalar.of(2) <= 2 and fx.QuadScalar.of(2) >= 2
        assert fx.QuadScalar(1, 3, Fraction(4)) == 7
        assert fx.QuadScalar.of(Fraction(1, 2)) == Fraction(1, 2)
        assert fx.QuadScalar(0, 1, Fraction(2)) != 1

    def test_incompatible_radicands_compare_unequal(self):
        assert (fx.QuadScalar(0, 1, Fraction(2)) == fx.QuadScalar(0, 1, Fraction(3))) is False
        assert fx.QuadScalar(0, 1, Fraction(2)) != fx.QuadScalar(0, 1, Fraction(3))


class TestSupportMin:
    def test_axis_direction_hits_disk(self, cone_body):
        value, face = cone_body.support_min(lf(1, 0))
        assert value.as_rational() == -3
        assert face == fx.ArcPoint(disk=0, direction=lf(1, 0))

    def test_opposite_direction_hits_apex(self, cone_body):
        value, face = cone_body.support_min(lf(-1, 0))
        assert value.as_rational() == -5
        assert isinstance(face, fx.ArcPoint) and face.disk == 1

    def test_pythagorean_direction(self, cone_body):
        value, face = cone_body.support_min(lf(3, 4))
        assert value.as_rational() == -15
        assert isinstance(face, fx.ArcPoint) and face.disk == 0

    def test_edge_direction_returns_edge(self, cone_body):
        value, face = cone_body.support_min(lf(-3, -4))
        assert isinstance(face, fx.Edge)
        assert value.as_rational() == -15

    @pytest.mark.parametrize("coeffs", [(10**10 + 19, 1), (10**40 + 7, 3)])
    def test_large_direction_is_fast(self, cone_body, coeffs):
        direction = lf(*coeffs)
        start = time.perf_counter()
        value, face = cone_body.support_min(direction)
        elapsed = time.perf_counter() - start
        assert isinstance(face, fx.ArcPoint) and face.disk == 0
        disk = cone_body.disks[face.disk]
        norm_sq = Fraction(sum(c * c for c in coeffs))
        assert value == fx.QuadScalar(direction(disk.center), -disk.radius, norm_sq)
        assert elapsed < 1.0

    def test_tied_disks_without_an_edge_report_the_largest(self):
        # Internally tangent at (-1, 0): both disks attain the minimum of x
        # there, and no edge runs along x = -1.
        body = fx.DiskBody([((0, 0), 1), ((1, 0), 2)])
        value, face = body.support_min(lf(1, 0))
        assert value.as_rational() == -1
        assert face == fx.ArcPoint(disk=1, direction=lf(1, 0))

    def test_tied_disks_on_a_fractional_edge_report_the_edge(self):
        # Both disks touch x = 1/2 along a segment; the edge stores the
        # line as 2x <= 1, so its normal is (2, 0), not the primitive (1, 0).
        body = fx.DiskBody([((0, 0), Fraction(1, 2)), ((0, 4), Fraction(1, 2))])
        value, face = body.support_min(lf(-1, 0))
        assert value.as_rational() == Fraction(-1, 2)
        assert isinstance(face, fx.Edge)
        assert face.normal == lf(2, 0) and face.offset == 1
        with pytest.raises(ValueError, match="does not expose"):
            body.certify(fx.ArcPoint(disk=0, direction=lf(-1, 0)))

    def test_zero_functional_rejected(self, cone_body):
        with pytest.raises(fx.ZeroFunctionalError):
            cone_body.support_min(lf(0, 0))

    def test_consistency_against_sampled_points(self, cone_body, stadium_body):
        rng = random.Random(99)
        for body in (cone_body, stadium_body):
            samples = disk_body_samples(body, rng, 60)
            for _ in range(200):
                direction = lf(rng.randint(-9, 9), rng.randint(-9, 9))
                if direction.is_zero():
                    continue
                value, face = body.support_min(direction)
                for p in samples:
                    assert (fx.QuadScalar.of(direction(p)) - value).sign() >= 0
                if isinstance(face, fx.ArcPoint):
                    x, y = body.arc_point_coordinates(face)
                    achieved = x * fx.QuadScalar.of(direction.coeffs[0]) + y * fx.QuadScalar.of(
                        direction.coeffs[1]
                    )
                    assert achieved == value
                elif isinstance(face, fx.Edge):
                    for endpoint in face.endpoints:
                        assert fx.QuadScalar.of(direction(endpoint)) == value


class TestHullStructure:
    def test_cone_edges(self, cone_body):
        edges = cone_body.edges()
        data = {(tuple(e.normal.coeffs), e.offset) for e in edges}
        assert data == {((3, 4), 15), ((3, -4), 15)}
        endpoints = {p.coords for e in edges for p in e.endpoints}
        assert endpoints == {
            (Fraction(9, 5), Fraction(12, 5)),
            (Fraction(9, 5), Fraction(-12, 5)),
            (Fraction(5), Fraction(0)),
        }

    def test_stadium_edges(self, stadium_body):
        edges = stadium_body.edges()
        data = {(tuple(e.normal.coeffs), e.offset) for e in edges}
        assert data == {((0, 1), 1), ((0, -1), 1)}
        endpoints = {p.coords for e in edges for p in e.endpoints}
        assert endpoints == {(0, 1), (4, 1), (0, -1), (4, -1)}

    def test_cone_face_inventory(self, cone_body):
        faces = cone_body.faces()
        kinds = {}
        for f in faces:
            kinds.setdefault(type(f).__name__, []).append(f)
        assert len(kinds["Whole"]) == 1
        assert len(kinds["Edge"]) == 2
        assert len(kinds["TangencyPoint"]) == 2
        assert len(kinds["ArcFamily"]) == 2  # the smooth arc and the apex corner
        tangency_points = {f.point.coords for f in kinds["TangencyPoint"]}
        assert tangency_points == {
            (Fraction(9, 5), Fraction(12, 5)),
            (Fraction(9, 5), Fraction(-12, 5)),
        }
        apex_families = [f for f in kinds["ArcFamily"] if cone_body.disks[f.disk].radius == 0]
        assert len(apex_families) == 1

    def test_single_disk_has_only_arc_family(self):
        body = fx.DiskBody([((0, 0), 2)])
        faces = body.faces()
        assert len(faces) == 2
        assert isinstance(faces[0], fx.Whole)
        assert isinstance(faces[1], fx.ArcFamily)
        assert faces[1].start is None and faces[1].end is None

    def test_single_point_body_has_no_proper_faces(self):
        body = fx.DiskBody([((1, 1), 0)])
        assert body.faces() == (fx.Whole(),)

    def test_irrational_bitangent_rejected(self):
        body = fx.DiskBody([((0, 0), 1), ((2, 0), 0)])
        with pytest.raises(fx.UnsupportedConfigurationError):
            body.edges()


class TestContains:
    def test_disk_center(self, cone_body):
        assert cone_body.contains(pt(0, 0))

    def test_apex(self, cone_body):
        assert cone_body.contains(pt(5, 0))

    def test_outside(self, cone_body):
        assert not cone_body.contains(pt(6, 0))
        assert not cone_body.contains(pt(3, 3))

    def test_tangency_point_on_boundary(self, cone_body):
        assert cone_body.contains(pt(Fraction(9, 5), Fraction(12, 5)))

    def test_triangle_interior_beyond_disk(self, cone_body):
        assert cone_body.contains(pt(4, Fraction(1, 2)))


class TestCertificates:
    def _tangency(self, body, point):
        for face in body.faces():
            if isinstance(face, fx.TangencyPoint) and face.point == point:
                return face
        raise AssertionError(f"no tangency point at {point}")

    def test_cone_tangency_certificate(self, cone_body):
        face = self._tangency(cone_body, pt(Fraction(9, 5), Fraction(12, 5)))
        cortege = cone_body.certify(face)
        data = [(tuple(f.linear.coeffs), f.offset) for f in cortege.functionals]
        assert data == [((-3, -4), 15), ((4, -3), 0)]

    def test_stadium_tangency_certificate(self, stadium_body):
        face = self._tangency(stadium_body, pt(0, 1))
        cortege = stadium_body.certify(face)
        data = [(tuple(f.linear.coeffs), f.offset) for f in cortege.functionals]
        assert data == [((0, -1), 1), ((1, 0), 0)]

    def test_apex_certificate(self, cone_body):
        family = next(
            f
            for f in cone_body.faces()
            if isinstance(f, fx.ArcFamily) and cone_body.disks[f.disk].radius == 0
        )
        cortege = cone_body.certify(family)
        data = [(tuple(f.linear.coeffs), f.offset) for f in cortege.functionals]
        assert data == [((-1, 0), 5)]

    def test_edge_certificate_vanishes_on_edge_only(self, stadium_body):
        edge = stadium_body.edges()[0]
        cortege = stadium_body.certify(edge)
        u = fx.StepAffineFunction(cortege)
        a, b = edge.endpoints
        mid = a + (b - a).scaled(Fraction(1, 3))
        assert u(mid) == 0
        assert u(pt(0, 0)) > 0

    def test_whole_body_rejected(self, cone_body):
        with pytest.raises(fx.WholeBodyNotProperError):
            cone_body.certify(fx.Whole())
        with pytest.raises(fx.WholeBodyNotProperError):
            cone_body.is_exposed(fx.Whole())

    def test_wrong_arc_point_rejected(self, cone_body):
        with pytest.raises(ValueError):
            cone_body.certify(fx.ArcPoint(disk=0, direction=lf(-1, 0)))

    def test_irrational_support_value_rejected(self, cone_body):
        with pytest.raises(fx.UnsupportedConfigurationError):
            cone_body.certify(fx.ArcPoint(disk=0, direction=lf(1, 1)))


class TestExposure:
    def test_tangency_points_not_exposed(self, cone_body, stadium_body):
        for body in (cone_body, stadium_body):
            for face in body.faces():
                if isinstance(face, fx.TangencyPoint):
                    assert body.is_exposed(face) is False

    def test_edges_and_arc_points_exposed(self, cone_body):
        for face in cone_body.faces():
            if isinstance(face, (fx.Edge, fx.ArcFamily)):
                assert cone_body.is_exposed(face) is True


class TestFaceDefinitionOnEdges:
    def test_segments_through_edge_points_stay_on_edge(self, cone_body, stadium_body):
        rng = random.Random(17)
        for body in (cone_body, stadium_body):
            for edge in body.edges():
                a, b = edge.endpoints
                for _ in range(200):
                    # two points on the edge line, chosen so the midpoint is in the body
                    s = Fraction(rng.randint(-4, 20), 16)
                    t = Fraction(rng.randint(-4, 20), 16)
                    u = a + (b - a).scaled(s)
                    v = a + (b - a).scaled(t)
                    mid = (u + v).scaled(Fraction(1, 2))
                    if not (body.contains(u) and body.contains(v)):
                        continue
                    if not body.contains(mid):
                        continue
                    # membership on the edge line equals being in the segment
                    for w, lam in ((u, s), (v, t)):
                        assert 0 <= lam <= 1


def _face_data(face):
    """A face as plain data: edges by (disks, normal, offset, endpoints)."""
    if isinstance(face, fx.Whole):
        return ("whole",)
    if isinstance(face, fx.Edge):
        return ("edge", face.disks, face.normal.coeffs, face.offset, tuple(p.coords for p in face.endpoints))
    if isinstance(face, fx.TangencyPoint):
        return ("tangency", face.edge.normal.coeffs, face.end, face.point.coords)
    assert isinstance(face, fx.ArcFamily)
    bounds = tuple(None if f is None else f.coeffs for f in (face.start, face.end))
    return ("arcs", face.disk, bounds, face.representative.disk, face.representative.direction.coeffs)


class TestClosedFormFaceLists:
    """Whole face lists worked out by hand, on bodies that reach the corner
    cases of the edge and arc construction."""

    def test_point_triangle(self):
        # Three corners: each pair gives two candidate bitangent normals, one
        # of which the third corner beats (no edge); each corner's family is
        # the open normal cone between its two edges.
        body = fx.DiskBody([((0, 0), 0), ((4, 0), 0), ((0, 3), 0)])
        assert [_face_data(f) for f in body.faces()] == [
            ("whole",),
            ("edge", (2, 0), (-1, 0), 0, ((0, 3), (0, 0))),
            ("edge", (0, 1), (0, -1), 0, ((0, 0), (4, 0))),
            ("edge", (1, 2), (3, 4), 12, ((4, 0), (0, 3))),
            ("arcs", 0, ((-1, 0), (0, -1)), 0, (1, 1)),
            ("arcs", 1, ((0, -1), (3, 4)), 1, (-1, -1)),
            ("arcs", 2, ((3, 4), (-1, 0)), 2, (-1, -2)),
        ]

    def test_disk_inside_another(self):
        # |(1, 0)| + 1 <= 5: no outer bitangent, and the outer disk is the body.
        body = fx.DiskBody([((0, 0), 5), ((1, 0), 1)])
        assert [_face_data(f) for f in body.faces()] == [
            ("whole",),
            ("arcs", 0, (None, None), 0, (1, 0)),
        ]

    def test_bitangent_with_vertical_root(self):
        # From the point (3, 3) the disk about (5, -1) of radius 2 has the
        # vertical tangent x = 3, where the quadratic's leading term vanishes,
        # and the tangent 3x + 4y = 21, touching at (5, -1) + 2 (3, 4) / 5.
        body = fx.DiskBody([((5, -1), 2), ((3, 3), 0)])
        touch = (Fraction(31, 5), Fraction(3, 5))
        assert [_face_data(f) for f in body.faces()] == [
            ("whole",),
            ("edge", (1, 0), (-1, 0), -3, ((3, 3), (3, -1))),
            ("edge", (0, 1), (3, 4), 21, (touch, (3, 3))),
            ("tangency", (-1, 0), 1, (3, -1)),
            ("tangency", (3, 4), 0, touch),
            ("arcs", 0, ((-1, 0), (3, 4)), 0, (1, 2)),
            ("arcs", 1, ((3, 4), (-1, 0)), 1, (-1, -2)),
        ]

    def test_disks_tangent_at_an_edge_end(self):
        # The disk about (4, 4) of radius 3 lies in the one about (4, 6) of
        # radius 5, and both touch y = 1 at (4, 1).  That end of the edge
        # names the larger disk, which owns the arc from the normal
        # (20, -21) of the tangent through (6, 1) round to (0, -1); the
        # small disk is nested in it and has no arc of its own.
        body = fx.DiskBody([((6, 1), 0), ((4, 4), 3), ((4, 6), 5)])
        touch = (Fraction(216, 29), Fraction(69, 29))
        assert [_face_data(f) for f in body.faces()] == [
            ("whole",),
            ("edge", (2, 0), (0, -1), -1, ((4, 1), (6, 1))),
            ("edge", (0, 2), (20, -21), 99, ((6, 1), touch)),
            ("tangency", (0, -1), 0, (4, 1)),
            ("tangency", (20, -21), 1, touch),
            ("arcs", 0, ((0, -1), (20, -21)), 0, (-10, 11)),
            ("arcs", 2, ((20, -21), (0, -1)), 2, (10, -11)),
        ]

    def test_tangent_disk_keeps_its_arc(self):
        # The disk about (-1, 3) of radius 3 lies in the one about (1, 3) of
        # radius 5, tangent at (-4, 3), an end of the edge x = -4; the large
        # disk still owns the upper arc between the two vertical edges.
        body = fx.DiskBody([((-1, 3), 3), ((1, -1), 5), ((1, 3), 5)])
        arcs = [_face_data(f) for f in body.faces() if isinstance(f, fx.ArcFamily)]
        assert arcs == [
            ("arcs", 1, ((-1, 0), (1, 0)), 1, (0, 1)),
            ("arcs", 2, ((1, 0), (-1, 0)), 2, (0, -1)),
        ]

    def test_square_with_inner_disk(self):
        # The outer tangents of a corner and the inner disk are irrational,
        # but none of them is on the hull: the body is the bare square.
        corners = [((0, 0), 0), ((100, 0), 0), ((0, 100), 0), ((100, 100), 0)]
        bare = [_face_data(f) for f in fx.DiskBody(corners).faces()]
        assert len(bare) == 9
        body = fx.DiskBody(corners + [((50, 50), 1)])
        assert [_face_data(f) for f in body.faces()] == bare
        assert body.contains(pt(99, 1)) and not body.contains(pt(101, 50))

    def test_nested_disk_tangent_inside_an_arc(self):
        # The disk about (2, 0) of radius 1 lies in the one about the origin
        # of radius 3 and touches it at (3, 0), inside the arc between the
        # normals (7, -24) and (7, 24).  It leaves the body, and so every
        # face, as it is: the arc is still one family of disk 0.
        bare = [((0, 0), 3), ((-3, 4), 0), ((-3, -4), 0)]
        below, above = (Fraction(21, 25), Fraction(-72, 25)), (Fraction(21, 25), Fraction(72, 25))
        expected = [
            ("whole",),
            ("edge", (1, 2), (-1, 0), 3, ((-3, 4), (-3, -4))),
            ("edge", (2, 0), (7, -24), 75, ((-3, -4), below)),
            ("edge", (0, 1), (7, 24), 75, (above, (-3, 4))),
            ("tangency", (7, -24), 1, below),
            ("tangency", (7, 24), 0, above),
            ("arcs", 0, ((7, -24), (7, 24)), 0, (-1, 0)),
            ("arcs", 1, ((7, 24), (-1, 0)), 1, (-1, -4)),
            ("arcs", 2, ((-1, 0), (7, -24)), 2, (-1, 4)),
        ]
        assert [_face_data(f) for f in fx.DiskBody(bare).faces()] == expected
        assert [_face_data(f) for f in fx.DiskBody(bare + [((2, 0), 1)]).faces()] == expected

    def test_point_at_a_tangency_point(self):
        # The point (9/5, 12/5) lies on the disk of radius 3 where the edge
        # 3x + 4y = 15 leaves it.  The edge end names the disk, so the point
        # stays a tangency point and the disk keeps its arc.
        bare = [((0, 0), 3), ((5, 0), 0)]
        below, above = (Fraction(9, 5), Fraction(-12, 5)), (Fraction(9, 5), Fraction(12, 5))
        expected = [
            ("whole",),
            ("edge", (0, 1), (3, -4), 15, (below, (5, 0))),
            ("edge", (1, 0), (3, 4), 15, ((5, 0), above)),
            ("tangency", (3, -4), 0, below),
            ("tangency", (3, 4), 1, above),
            ("arcs", 0, ((3, 4), (3, -4)), 0, (1, 0)),
            ("arcs", 1, ((3, -4), (3, 4)), 1, (-1, 0)),
        ]
        assert [_face_data(f) for f in fx.DiskBody(bare).faces()] == expected
        assert [_face_data(f) for f in fx.DiskBody(bare + [(above, 0)]).faces()] == expected


# Every body of TestClosedFormFaceLists (with their nested disk or point),
# two internally tangent disks with no edge, and two disks of fractional
# radius whose edges have fractional offsets.
LISTED_BODIES = {
    "point-triangle": [((0, 0), 0), ((4, 0), 0), ((0, 3), 0)],
    "disk-inside-another": [((0, 0), 5), ((1, 0), 1)],
    "vertical-root": [((5, -1), 2), ((3, 3), 0)],
    "tangent-at-edge-end": [((6, 1), 0), ((4, 4), 3), ((4, 6), 5)],
    "tangent-keeps-arc": [((-1, 3), 3), ((1, -1), 5), ((1, 3), 5)],
    "internally-tangent": [((0, 0), 1), ((1, 0), 2)],
    "square-with-inner-disk": [((0, 0), 0), ((100, 0), 0), ((0, 100), 0), ((100, 100), 0), ((50, 50), 1)],
    "half-radius-pair": [((0, 0), Fraction(1, 2)), ((0, 4), Fraction(1, 2))],
    "nested-inside-arc": [((0, 0), 3), ((-3, 4), 0), ((-3, -4), 0), ((2, 0), 1)],
    "point-at-tangency": [((0, 0), 3), ((5, 0), 0), ((Fraction(9, 5), Fraction(12, 5)), 0)],
}

# The arc families, by body and disk, whose representative direction has an
# irrational norm, so that certify refuses their irrational support value.
# CHANGES.md records this as a FOUND defect of _arc_families.
IRRATIONAL_REPRESENTATIVES = [("tangent-at-edge-end", 2), ("vertical-root", 0)]


class TestListedFacesCertify:
    """Every proper face that faces() lists has a certificate: nonnegative
    on the body and zero on the face."""

    @staticmethod
    def assert_certifies(body, face):
        u = fx.StepAffineFunction(body.certify(face))
        if isinstance(face, fx.ArcFamily):
            x, y = body.arc_point_coordinates(face.representative)
            on_face = [fx.Point((x.as_rational(), y.as_rational()))]
        elif isinstance(face, fx.Edge):
            a, b = face.endpoints
            on_face = [a, b, a + (b - a).scaled(Fraction(1, 3))]
        else:
            on_face = [face.point]
        assert all(u(p) == 0 for p in on_face), face
        samples = disk_body_samples(body, random.Random(5), 40)
        assert all(u(p) >= 0 for p in samples), face

    @pytest.mark.parametrize("name", sorted(LISTED_BODIES))
    def test_every_listed_face_certifies(self, name):
        body = fx.DiskBody(LISTED_BODIES[name])
        for face in body.faces()[1:]:
            if isinstance(face, fx.ArcFamily) and (name, face.disk) in IRRATIONAL_REPRESENTATIVES:
                continue  # test_irrational_representative_certifies
            self.assert_certifies(body, face)

    @pytest.mark.xfail(
        strict=True,
        raises=fx.UnsupportedConfigurationError,
        reason="the representative's support value is irrational",
    )
    @pytest.mark.parametrize("name, disk", IRRATIONAL_REPRESENTATIVES)
    def test_irrational_representative_certifies(self, name, disk):
        body = fx.DiskBody(LISTED_BODIES[name])
        (family,) = [f for f in body.faces() if isinstance(f, fx.ArcFamily) and f.disk == disk]
        self.assert_certifies(body, family)


# Primitive Pythagorean directions in the upper half-plane, by angle.
PYTHAGOREAN = sorted(
    [(1, 0), (15, 8), (12, 5), (4, 3), (3, 4), (5, 12), (8, 15), (0, 1),
     (-8, 15), (-5, 12), (-3, 4), (-4, 3), (-12, 5), (-15, 8)],
    key=lambda v: Fraction(-v[0], v[1]) if v[1] else Fraction(-10**9),
)


def _as_edge_rows(pairs):
    return sorted((tuple(normal), offset) for normal, offset in pairs)


def _pythagorean_polygon(rng):
    """A centrally symmetric convex polygon whose edge directions have
    rational lengths."""
    # Directions increasing in angle over a half-turn, then negated: the
    # partial sums close up into a convex polygon.
    half = sorted(rng.sample(range(len(PYTHAGOREAN)), rng.randint(2, 5)))
    steps = [(m * x, m * y) for (x, y), m in ((PYTHAGOREAN[k], rng.randint(1, 3)) for k in half)]
    steps += [(-x, -y) for x, y in steps]
    corner = (rng.randint(-9, 9), rng.randint(-9, 9))
    vertices = []
    for dx, dy in steps:
        vertices.append(corner)
        corner = (corner[0] + dx, corner[1] + dy)
    return vertices


class TestEdgesIndependently:
    """edges() against hulls computed without it: the facets of a point
    set's polytope, and those facets pushed out by r for equal disks on a
    polygon whose edge directions have rational lengths."""

    def test_point_bodies_match_polytope_facets(self):
        rng = random.Random(1973)
        checked = 0
        for _ in range(300):
            points = [(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(rng.randint(3, 9))]
            polygon = fx.Polytope(points)
            if polygon.dim < 2:
                continue
            edges = fx.DiskBody([(p, 0) for p in points]).edges()
            facets = polygon.facets()
            assert _as_edge_rows((e.normal.coeffs, e.offset) for e in edges) == _as_edge_rows(
                (f.functional.coeffs, f.offset) for f in facets
            )
            for edge in edges:
                facet = next(f for f in facets if f.functional == edge.normal)
                tight = {polygon.vertices[i].coords for i in facet.tight_vertices}
                assert {p.coords for p in edge.endpoints} == tight
            checked += 1
        assert checked > 250

    def test_equal_disks_on_pythagorean_polygons(self):
        rng = random.Random(2024)
        for _ in range(60):
            vertices = _pythagorean_polygon(rng)
            r = Fraction(rng.randint(0, 6), rng.randint(1, 2))
            n = len(vertices)
            centroid = (Fraction(sum(v[0] for v in vertices), n), Fraction(sum(v[1] for v in vertices), n))
            body = fx.DiskBody([(v, r) for v in vertices] + [(centroid, r)])
            expected = []
            for facet in fx.Polytope(vertices).facets():
                a = facet.functional.coeffs
                norm = math.isqrt(int(a[0] * a[0] + a[1] * a[1]))
                assert norm * norm == a[0] * a[0] + a[1] * a[1]
                *normal, offset = primitive_tuple(a + (facet.offset + r * norm,))
                expected.append((normal, offset))
            edges = body.edges()
            got = [(e.normal.coeffs, e.offset) for e in edges]
            assert _as_edge_rows(got) == _as_edge_rows(expected)
            for edge in edges:
                for end, disk in zip(edge.endpoints, edge.disks):
                    center = body.disks[disk].center
                    delta = end - center
                    assert sum(c * c for c in delta.coords) == r * r
                    assert edge.normal(end) == edge.offset


def _face_counts(disks):
    """The faces of the body on these disks, each disk index replaced by
    the disk it names (``DiskBody`` drops repeated disks)."""
    body = fx.DiskBody(disks)
    counts = Counter()
    for face in body.faces():
        data = _face_data(face)
        if isinstance(face, fx.Edge):
            data = (data[0], tuple(body.disks[i] for i in face.disks), *data[2:])
        elif isinstance(face, fx.ArcFamily):
            data = (data[0], body.disks[face.disk], data[2], body.disks[face.representative.disk], data[4])
        counts[data] += 1
    return counts


class TestFacesDependOnlyOnTheBody:
    """The face list is a property of the set: listing its disks in another
    order, or adding disks that lie inside it, leaves it unchanged."""

    def test_shuffled_and_nested_disks_on_pythagorean_polygons(self):
        rng = random.Random(4051)
        # Unit directions with rational coordinates, all the way round.
        units = []
        for x, y in PYTHAGOREAN:
            c = math.isqrt(x * x + y * y)
            units += [(Fraction(x, c), Fraction(y, c)), (Fraction(-x, c), Fraction(-y, c))]
        for _ in range(120):
            vertices = _pythagorean_polygon(rng)
            r = Fraction(rng.randint(1, 6), rng.randint(1, 2))
            disks = [(v, r) for v in vertices]
            # Disks internally tangent to a corner disk, each in a direction
            # with a rational unit vector, so tangent at a rational point.
            nested = []
            for _ in range(rng.randint(1, 3)):
                (x, y), (ux, uy) = rng.choice(vertices), rng.choice(units)
                rho = r * Fraction(rng.randint(0, 3), 4)
                nested.append(((x + (r - rho) * ux, y + (r - rho) * uy), rho))
            faces = _face_counts(disks)
            assert _face_counts(disks + nested) == faces, nested
            for listed in (disks, disks + nested):
                shuffled = rng.sample(listed, len(listed))
                assert _face_counts(shuffled) == faces, shuffled
