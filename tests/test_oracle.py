import itertools
import sys
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facelex as fx
from facelex import core, oracle
from facelex.core import IncrementalSpan, nullspace_basis
from facelex.oracle import (
    _det,
    _kernel_minors,
    oracle_faces,
    oracle_facets,
    oracle_lex_argmin,
    oracle_refute_face,
)
from facelex.polytope import _hull_facets
from helpers import count_calls, lf, reference_det, reference_refute_face


def fd(*indices):
    return fx.FaceDescriptor(tuple(indices))


class TestOracleFaces:
    @pytest.mark.parametrize(
        "name,count",
        [("unit-square", 9), ("3-simplex", 15), ("3-cube", 27), ("octahedron", 27)],
    )
    def test_counts(self, fixture_polytopes, name, count):
        assert len(oracle_faces(fixture_polytopes[name])) == count

    def test_agrees_with_lattice_enumeration(self, fixture_polytopes):
        for name, polytope in fixture_polytopes.items():
            if len(polytope.vertices) > 12:
                continue  # outside the oracle's stated size domain (the 4-cube)
            assert tuple(oracle_faces(polytope)) == tuple(polytope.all_faces())

    def test_size_guard(self, fixture_polytopes):
        with pytest.raises(fx.SizeGuardExceededError, match="16 vertices exceed 12"):
            oracle_faces(fixture_polytopes["4-cube"])

    def test_guard_counts_the_intrinsic_dimension(self):
        """A triangle in R^5 is within the guard; the 5-simplex is not, and
        the message names the dimension and the limit."""
        triangle = fx.Polytope([(0, 0, 0, 0, 0), (1, 2, 0, 0, 1), (0, 1, 3, -1, 0)])
        faces = oracle_faces(triangle)
        assert len(faces) == 7 and faces == triangle.all_faces()
        simplex5 = fx.Polytope([(0,) * 5] + [tuple(int(i == k) for i in range(5)) for k in range(5)])
        with pytest.raises(fx.SizeGuardExceededError, match="intrinsic dimension 5 exceeds 4"):
            oracle_faces(simplex5)

    @pytest.mark.parametrize("name,count", [("3-cube", 27), ("octahedron", 27), ("3-simplex", 15)])
    def test_one_facet_enumeration_per_face(self, fixture_polytopes, monkeypatch, name, count):
        """The exposure closure charts each face it finds exactly once."""
        calls = count_calls(monkeypatch, oracle, "oracle_facets")
        oracle_faces(fixture_polytopes[name])
        assert len(calls) == count


@st.composite
def point_sets(draw, entry=st.integers(-2, 2)):
    """Up to nine points with intrinsic dimension at most 4, embedded by an
    affine map with entries drawn from ``entry`` (integers by default) into
    an ambient space of up to two more dimensions, with repeats and
    midpoints (on edges, on facets or interior) mixed in anywhere in the
    order."""
    d = draw(st.integers(1, 4))
    ambient = d + draw(st.integers(0, 2))
    coordinate = st.integers(-1, 1)
    base = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=7))
    points = [tuple(Fraction(c) for c in q) for q in base]
    for _ in range(draw(st.integers(0, 9 - len(points)))):
        a = draw(st.sampled_from(points))
        b = draw(st.sampled_from(points))
        points.append(tuple((x + y) / 2 for x, y in zip(a, b)))  # a repeat when a == b
    points = draw(st.permutations(points))
    embedding = [draw(st.lists(entry, min_size=d + 1, max_size=d + 1)) for _ in range(ambient)]
    return [
        fx.Point(tuple(sum(row[j] * q[j] for j in range(d)) + row[d] for row in embedding))
        for q in points
    ]


# Embedding entries with denominators 1 to 3, so the points' coordinates
# have mixed denominators and the oracles' lcm scaling is exercised.
fractional_point_sets = point_sets(entry=st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))


class TestOracleFacets:
    def test_main_path_agrees_on_fixtures(self, fixture_polytopes):
        for name, polytope in fixture_polytopes.items():
            assert _hull_facets(polytope.vertices) == oracle_facets(polytope.vertices), name

    def test_size_guard(self):
        with pytest.raises(fx.SizeGuardExceededError):
            oracle_facets([fx.Point(c) for c in itertools.product((0, 1), repeat=5)])

    @settings(deadline=None, max_examples=150)
    @given(points=point_sets())
    def test_main_path_agrees_on_random_point_sets(self, points):
        assert _hull_facets(points) == oracle_facets(points)
        polytope = fx.Polytope(points)
        assert [
            (f.functional, f.offset, f.tight_vertices) for f in polytope.facets()
        ] == oracle_facets(polytope.vertices)

    @settings(deadline=None, max_examples=100)
    @given(points=fractional_point_sets)
    def test_main_path_agrees_on_fractional_point_sets(self, points):
        assert _hull_facets(points) == oracle_facets(points)


class TestOracleFacesProperty:
    @settings(deadline=None, max_examples=150)
    @given(points=st.one_of(point_sets(), fractional_point_sets))
    def test_equals_all_faces(self, points):
        polytope = fx.Polytope(points)
        assert oracle_faces(polytope) == polytope.all_faces()


@st.composite
def int_matrices(draw, extra_columns):
    """d x (d + extra_columns) int matrices, d from 1 to 5, with entries up
    to 10**12 in size or in small ranges that make dependent rows common;
    on demand one row is an integer combination of the others."""
    d = draw(st.integers(1, 5))
    bound = draw(st.sampled_from([1, 2, 10**12]))
    row = st.lists(st.integers(-bound, bound), min_size=d + extra_columns, max_size=d + extra_columns)
    rows = draw(st.lists(row, min_size=d, max_size=d))
    if draw(st.booleans()):
        k = draw(st.integers(0, d - 1))
        scales = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        scales[k] = 0
        rows[k] = [sum(map(mul, scales, col)) for col in zip(*rows)]
    return rows


class TestKernelMinors:
    """The fraction-free kernels of ``oracle_facets`` against the main path's
    ``IncrementalSpan`` and ``nullspace_basis`` and a ``Fraction`` determinant."""

    @settings(deadline=None, max_examples=150)
    @given(rows=int_matrices(1))
    def test_minors_span_the_kernel(self, rows):
        d = len(rows)
        span = IncrementalSpan(d + 1)
        for row in rows:
            span.add(row)
        minors = _kernel_minors(rows)
        if span.rank < d:
            assert minors == [0] * (d + 1)
            return
        assert any(minors)
        assert all(sum(map(mul, row, minors)) == 0 for row in rows)
        (kernel,) = nullspace_basis(rows, d + 1)
        k = next(i for i, w in enumerate(kernel) if w)
        ratio = minors[k] / kernel[k]
        assert [ratio * w for w in kernel] == minors

    @settings(deadline=None, max_examples=150)
    @given(matrix=int_matrices(0))
    def test_det_equals_permutation_expansion(self, matrix):
        assert _det(matrix) == reference_det(matrix)


def count_everywhere(monkeypatch, name: str) -> list:
    """Record calls to ``core.<name>`` through every facelex module that holds it."""
    calls = []
    original = getattr(core, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("facelex") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


class TestOracleWork:
    """Work gates on every fixture: the facet and face oracles take their
    kernels from their own minors, and the face oracle builds a descriptor
    only for a face it has not seen."""

    def test_no_main_path_kernels(self, fixture_polytopes, monkeypatch):
        kernels = count_everywhere(monkeypatch, "nullspace_basis")
        hulls = count_everywhere(monkeypatch, "affine_hull")
        for name, polytope in fixture_polytopes.items():
            oracle_facets(polytope.vertices)
            if len(polytope.vertices) <= 12:
                oracle_faces(polytope)
            assert (len(kernels), len(hulls)) == (0, 0), name

    def test_descriptors_per_face(self, fixture_polytopes, monkeypatch):
        built = count_calls(monkeypatch, fx.FaceDescriptor, "__post_init__")
        for name, polytope in fixture_polytopes.items():
            if len(polytope.vertices) > 12:
                continue  # outside the oracle's stated size domain (the 4-cube)
            built.clear()
            faces = oracle_faces(polytope)
            assert len(built) <= 2 * len(faces), name


class TestOracleLexArgmin:
    def test_two_levels(self, square):
        assert oracle_lex_argmin(square, [lf(0, 1), lf(1, 0)]) == fd(0)

    def test_single_level(self, square):
        assert oracle_lex_argmin(square, [lf(0, 1)]) == fd(0, 1)

    def test_diagonal_level(self, square):
        assert oracle_lex_argmin(square, [lf(1, 1)]) == fd(0)


class TestRefuter:
    def test_finds_witness_for_diagonal(self, square):
        witness = oracle_refute_face(square, fd(0, 2), trials=10_000)
        assert witness is not None
        u, v = witness
        assert square.contains(u) and square.contains(v)
        hull = square.face_polytope(fd(0, 2))
        assert not (hull.contains(u) and hull.contains(v))

    def test_none_for_true_vertex_face(self, square):
        assert oracle_refute_face(square, fd(0), trials=10_000) is None

    def test_none_for_whole_polytope(self, square):
        assert oracle_refute_face(square, square.all_indices(), trials=1_000) is None

    def test_soundness_across_fixtures(self, fixture_polytopes):
        """Never refute a true face: ten thousand trials per fixture, spread
        round-robin over that fixture's faces."""
        for polytope in fixture_polytopes.values():
            faces = polytope.all_faces()
            per_face = max(1, 10_000 // len(faces))
            for face in faces:
                assert oracle_refute_face(polytope, face, trials=per_face) is None

    def test_trials_validated(self, square):
        with pytest.raises(ValueError):
            oracle_refute_face(square, fd(0), trials=0)

    @pytest.mark.parametrize("seed", [7193, 11])
    def test_matches_fraction_reference_on_every_vertex_subset(self, fixture_polytopes, seed):
        """The integer refuter returns the same witness points as the
        Fraction reference, or None with it, on every vertex subset of
        every fixture with at most eight vertices."""
        for name, polytope in fixture_polytopes.items():
            n = len(polytope.vertices)
            if n > 8:
                continue
            for size in range(1, n + 1):
                for indices in itertools.combinations(range(n), size):
                    face = fd(*indices)
                    got = oracle_refute_face(polytope, face, trials=200, seed=seed)
                    assert got == reference_refute_face(polytope, face, trials=200, seed=seed), (name, indices)


class TestRefuterWork:
    """Deterministic work counts in place of timings: once the lazy hulls of
    the body and the candidate are built, a trial builds no Point and calls
    no Polytope.contains; only a witness is built."""

    def counters(self, monkeypatch):
        points = count_calls(monkeypatch, fx.Point, "__post_init__")
        contains = count_calls(monkeypatch, fx.Polytope, "contains")
        return points, contains

    def test_true_face_builds_nothing(self, cube3, monkeypatch):
        face = next(f for f in cube3.proper_faces() if len(f) == 4)
        assert oracle_refute_face(cube3, face, trials=500) is None  # fills the lazy hulls
        points, contains = self.counters(monkeypatch)
        assert oracle_refute_face(cube3, face, trials=500) is None
        assert (len(points), len(contains)) == (0, 0)

    def test_witness_builds_two_points(self, square, monkeypatch):
        assert oracle_refute_face(square, fd(0, 2), trials=500) is not None
        points, contains = self.counters(monkeypatch)
        assert oracle_refute_face(square, fd(0, 2), trials=500) is not None
        assert (len(points), len(contains)) == (2, 0)
