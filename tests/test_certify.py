import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import facelex as fx
import facelex.sampling
import facelex.stepaffine
from facelex.certify import _sign_split_leg
from facelex.oracle import oracle_lex_argmin
from helpers import (
    af,
    assert_witness_valid,
    count_calls,
    pt,
    random_preorder,
    reference_certify,
    reference_chain_certificate,
    reference_sign_split,
    reference_verify,
)


def fd(*indices):
    return fx.FaceDescriptor(tuple(indices))


class TestCertify:
    def test_vertex_gets_sum_of_tight_slacks(self, square):
        cert = fx.certify(square, fd(0))
        assert isinstance(cert, fx.FaceCertificate)
        assert cert.rank == 1
        f = cert.cortege.functionals[0]
        assert (tuple(f.linear.coeffs), f.offset) == ((1, 1), 0)
        assert cert.chain == (square.all_indices(), fd(0))

    def test_edge_gets_single_slack(self, square):
        cert = fx.certify(square, fd(0, 1))
        f = cert.cortege.functionals[0]
        assert (tuple(f.linear.coeffs), f.offset) == ((0, 1), 0)

    def test_diagonal_yields_witness(self, square):
        result = fx.certify(square, fd(0, 2))
        assert isinstance(result, fx.NotAFace)
        assert_witness_valid(square, fd(0, 2), result)
        # the offending vertex comes from the true smallest face (the square)
        assert result.witness[0] in square.vertices

    def test_improper_face_rejected(self, square):
        with pytest.raises(fx.ImproperFaceError):
            fx.certify(square, square.all_indices())

    def test_empty_face_rejected(self, square):
        with pytest.raises(fx.EmptyFaceError):
            fx.certify(square, fx.FaceDescriptor(()))

    def test_certificate_nonnegative_and_tight_exactly_on_face(self, cube3):
        for face in cube3.proper_faces():
            cert = fx.certify(cube3, face)
            assert isinstance(cert, fx.FaceCertificate)
            u = cert.step_function()
            for i, v in enumerate(cube3.vertices):
                value = u(v)
                assert value >= 0
                assert (value == 0) == (i in face.as_set())


class TestChainCertificate:
    def test_square_vertex_chain(self, square):
        cert = fx.chain_certificate(square, fd(0))
        assert [tuple(f.linear.coeffs) for f in cert.cortege.functionals] == [(1, 0), (0, 1)]
        assert [d.vertex_indices for d in cert.chain] == [(0, 1, 2, 3), (0, 3), (0,)]

    def test_square_edge_rank_one(self, square):
        cert = fx.chain_certificate(square, fd(0, 1))
        assert cert.rank == 1
        assert [d.vertex_indices for d in cert.chain] == [(0, 1, 2, 3), (0, 1)]

    def test_cube_vertex_rank_three(self, cube3):
        vertex = fd(0)
        cert = fx.chain_certificate(cube3, vertex)
        assert cert.rank == 3
        dims = [len(d) for d in cert.chain]
        assert dims[0] == 8 and dims[-1] == 1

    def test_not_a_face_raises(self, square):
        with pytest.raises(fx.NotAFaceError):
            fx.chain_certificate(square, fd(0, 2))

    def test_chain_steps_are_argmin_faces(self, cube3, octa):
        """Each chain element is the exact vertex argmin of its level over the
        previous element (independent of the zero-set route used to build it)."""
        for polytope in (cube3, octa):
            for face in polytope.proper_faces():
                cert = fx.chain_certificate(polytope, face)
                for level, functional in enumerate(cert.cortege.functionals, start=1):
                    prev = cert.chain[level - 1].vertex_indices
                    values = {i: functional.linear(polytope.vertices[i]) for i in prev}
                    best = min(values.values())  # each level bottoms out on the next face
                    argmin = tuple(i for i in prev if values[i] == best)
                    assert argmin == cert.chain[level].vertex_indices

    def test_rank_bounded_by_codimension(self, fixture_polytopes):
        for name in ("unit-square", "3-simplex", "octahedron"):
            polytope = fixture_polytopes[name]
            for face in polytope.proper_faces():
                cert = fx.chain_certificate(polytope, face)
                codim = polytope.dim - polytope.face_polytope(face).dim
                assert 1 <= cert.rank <= codim

    def test_linear_parts_independent(self, cube3):
        for face in cube3.proper_faces():
            cert = fx.chain_certificate(cube3, face)
            assert fx.linear_independent(cert.cortege.linear_parts())


class TestVerifyCertificate:
    def test_accepts_both_constructions(self, simplex3):
        for face in simplex3.proper_faces():
            rank1 = fx.certify(simplex3, face)
            chain = fx.chain_certificate(simplex3, face)
            assert fx.verify_certificate(simplex3, face, rank1).accepted
            assert fx.verify_certificate(simplex3, face, chain).accepted

    def test_rejects_negative_level(self, square):
        bad = fx.FaceCertificate(
            cortege=fx.Cortege((af([1, -1]),)),
            chain=(square.all_indices(), fd(0)),
        )
        verdict = fx.verify_certificate(square, fd(0), bad)
        assert not verdict.accepted
        assert "negative" in verdict.reason

    def test_rejects_chain_not_starting_at_whole(self, square):
        bad = fx.FaceCertificate(
            cortege=fx.Cortege((af([1, 1]),)),
            chain=(fd(0), fd(0)),
        )
        assert fx.verify_certificate(square, fd(0), bad).reason == "chain_start"

    def test_rejects_wrong_final_face(self, square):
        cert = fx.certify(square, fd(0))
        assert fx.verify_certificate(square, fd(1), cert).reason == "chain_end"

    def test_rejects_wrong_chain_length(self, square):
        cert = fx.certify(square, fd(0))
        clipped = fx.FaceCertificate(cortege=cert.cortege, chain=(square.all_indices(),))
        assert fx.verify_certificate(square, fd(0), clipped).reason == "chain_length"

    def test_rejects_zero_set_mismatch(self, square):
        bad = fx.FaceCertificate(
            cortege=fx.Cortege((af([0, 1]),)),  # vanishes on the whole bottom edge
            chain=(square.all_indices(), fd(0)),
        )
        verdict = fx.verify_certificate(square, fd(0), bad)
        assert verdict.reason == "level_1_zero_set_mismatch"


class TestEquivalenceReport:
    def test_all_legs_pass_for_vertex(self, square):
        report = fx.equivalence_report(square, fd(0))
        assert (report.a, report.b, report.c, report.d) == (True, True, True, True)
        assert report.consistent

    def test_consistent_negative_for_diagonal(self, square):
        report = fx.equivalence_report(square, fd(0, 2))
        assert report.a is False and report.d is False
        assert report.b is None and report.c is None
        assert report.consistent and not report.is_face

    def test_simplex_all_proper_faces(self, simplex3):
        for face in simplex3.proper_faces():
            report = fx.equivalence_report(simplex3, face)
            assert report.consistent and report.is_face

    def test_random_non_faces_are_consistent(self, cube3):
        rng = random.Random(42)
        faces = set(cube3.all_faces())
        n = len(cube3.vertices)
        checked = 0
        while checked < 25:
            size = rng.randint(1, n - 1)
            candidate = fx.FaceDescriptor(tuple(rng.sample(range(n), size)))
            if candidate in faces:
                continue
            report = fx.equivalence_report(cube3, candidate)
            assert report.consistent and not report.is_face
            result = fx.certify(cube3, candidate)
            assert isinstance(result, fx.NotAFace)
            assert_witness_valid(cube3, candidate, result)
            checked += 1

    def test_sign_split_leg_decided_on_vertices(self, fixture_polytopes, monkeypatch):
        """Leg (b) needs no sampling, and a report on a face makes no
        membership test: certify and is_face read the vertex-facet
        incidences, and leg (b) evaluates the certificate on the vertices."""
        calls = 0
        contains = fx.Polytope.contains

        def counting_contains(self, x):
            nonlocal calls
            calls += 1
            return contains(self, x)

        def no_sampling(*args, **kwargs):
            raise AssertionError("equivalence_report drew a sample")

        monkeypatch.setattr(fx.Polytope, "contains", counting_contains)
        draw = facelex.sampling._int_weights
        for name, module in list(sys.modules.items()):
            if name.startswith("facelex") and getattr(module, "_int_weights", None) is draw:
                monkeypatch.setattr(module, "_int_weights", no_sampling)
        for polytope in fixture_polytopes.values():
            for face in polytope.proper_faces():
                calls = 0
                report = fx.equivalence_report(polytope, face)
                assert (report.a, report.b, report.c, report.d) == (True, True, True, True)
                assert calls == 0, (face, calls)


class TestWorkBounds:
    """Deterministic call counts in place of timings: on a face, certify and
    chain_certificate read the vertex-facet incidences and evaluate no
    slack, and the equivalence report solves no affine zero set."""

    def test_face_certificates_evaluate_no_slack(self, fixture_polytopes, monkeypatch):
        calls = count_calls(monkeypatch, fx.Facet, "slack")
        for polytope in fixture_polytopes.values():
            for face in polytope.proper_faces():
                assert isinstance(fx.certify(polytope, face), fx.FaceCertificate)
                fx.chain_certificate(polytope, face)
        assert calls == []

    def test_equivalence_report_solves_no_zero_set(self, fixture_polytopes, monkeypatch):
        calls = count_calls(monkeypatch, facelex.stepaffine, "solve_affine_zero_set")
        for polytope in fixture_polytopes.values():
            for face in polytope.proper_faces():
                assert fx.equivalence_report(polytope, face).consistent
        assert calls == []

    def test_certificate_layer_evaluates_no_functional(self, fixture_polytopes, monkeypatch):
        """certify, chain_certificate, verify_certificate, equivalence_report
        and min_set read int rows: no functional is evaluated at a point."""
        linear_calls = count_calls(monkeypatch, fx.LinearFunctional, "__call__")
        affine_calls = count_calls(monkeypatch, fx.AffineFunctional, "__call__")
        rng = random.Random(16)
        for polytope in fixture_polytopes.values():
            faces = set(polytope.all_faces())
            for face in polytope.proper_faces():
                for certificate in (fx.certify(polytope, face), fx.chain_certificate(polytope, face)):
                    assert fx.verify_certificate(polytope, face, certificate).accepted
                assert fx.equivalence_report(polytope, face).consistent
            n = len(polytope.vertices)
            non_faces = [
                c for size in range(1, n) for c in itertools.combinations(range(n), size)
                if fx.FaceDescriptor(c) not in faces
            ]
            for candidate in rng.sample(non_faces, min(5, len(non_faces))):
                face = fx.FaceDescriptor(candidate)
                assert isinstance(fx.certify(polytope, face), fx.NotAFace)
                assert fx.equivalence_report(polytope, face).consistent
            for _ in range(3):
                random_preorder(rng, polytope.ambient_dim).min_set(polytope)
        assert linear_calls == [] and affine_calls == []


class TestDimensionChecks:
    """Levels of another dimension than the body raise, as evaluating them
    at a vertex would."""

    @pytest.mark.parametrize("coeffs", [[1], [1, 1, 1]])
    def test_verify_certificate(self, square, coeffs):
        certificate = fx.FaceCertificate(
            cortege=fx.Cortege((af(coeffs),)), chain=(square.all_indices(), fd(0))
        )
        with pytest.raises(fx.DimensionMismatchError):
            fx.verify_certificate(square, fd(0), certificate)

    def test_equivalence_report_on_a_mismatched_body(self, square, cube3, monkeypatch):
        """The sign-split leg checks the certificate's dimension even when
        verification has already rejected its chain."""
        monkeypatch.setattr(sys.modules["facelex.certify"], "certify", lambda _p, f: fx.certify(cube3, f))
        with pytest.raises(fx.DimensionMismatchError):
            fx.equivalence_report(square, fd(0))

    def test_min_set(self, square):
        with pytest.raises(fx.DimensionMismatchError):
            fx.lex_preorder([[1, 0, 0], [0, 1, 0]]).min_set(square)


def _mixed_denominator_polytopes(dim: int):
    coords = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    points = st.lists(st.tuples(*[coords] * dim), min_size=dim + 1, max_size=dim + 3, unique=True)
    return points.map(fx.Polytope).filter(lambda p: len(p.vertices) >= 2)


def _mutations(rng: random.Random, certificate: fx.FaceCertificate) -> list[fx.FaceCertificate]:
    """The certificate with one level's offset moved by 1/q, with one level
    negated, and with its first two levels swapped."""
    levels = list(certificate.cortege.functionals)
    k = rng.randrange(len(levels))
    shift = Fraction(rng.choice((-1, 1)), rng.randint(1, 6))
    variants = [
        levels[:k] + [fx.AffineFunctional(levels[k].linear, levels[k].offset + shift)] + levels[k + 1:],
        levels[:k] + [fx.AffineFunctional(-levels[k].linear, -levels[k].offset)] + levels[k + 1:],
    ]
    if len(levels) >= 2:
        variants.append([levels[1], levels[0]] + levels[2:])
    return [fx.FaceCertificate(fx.Cortege(tuple(v)), certificate.chain) for v in variants]


class TestIntRowsProperty:
    """On vertices with mixed denominators (one common denominator L != 1),
    the int paths agree with per-vertex Fraction references."""

    @settings(deadline=None, max_examples=60)
    @given(
        polytope=st.one_of(_mixed_denominator_polytopes(2), _mixed_denominator_polytopes(3)),
        seed=st.integers(0, 2**16),
    )
    def test_certificate_layer_matches_fraction_reference(self, polytope, seed):
        rng = random.Random(seed)
        n = len(polytope.vertices)
        for size in range(1, n):
            for subset in itertools.combinations(range(n), size):
                face = fx.FaceDescriptor(subset)
                result = fx.certify(polytope, face)
                assert result == reference_certify(polytope, face)
                if isinstance(result, fx.NotAFace):
                    assert_witness_valid(polytope, face, result)
                    continue
                chain = fx.chain_certificate(polytope, face)
                assert chain == reference_chain_certificate(polytope, face)
                (u,) = result.cortege.functionals
                assert _sign_split_leg(polytope, face, u) == reference_sign_split(polytope, face, u)
                for certificate in [result, chain, *_mutations(rng, result), *_mutations(rng, chain)]:
                    verdict = fx.verify_certificate(polytope, face, certificate)
                    assert (verdict.accepted, verdict.reason) == reference_verify(polytope, face, certificate)
                negated = fx.AffineFunctional(-u.linear, -u.offset)
                assert _sign_split_leg(polytope, face, negated) == reference_sign_split(polytope, face, negated)
        for _ in range(3):
            preorder = random_preorder(rng, polytope.ambient_dim)
            assert preorder.min_set(polytope) == oracle_lex_argmin(polytope, preorder.levels)
