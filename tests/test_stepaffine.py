import random
from fractions import Fraction

import pytest

import facelex as fx
import facelex.stepaffine
from helpers import af, count_calls, lf, literal_first_nonzero, pt, random_cortege, step


class TestValidation:
    def test_independent_pair_is_valid(self):
        cortege = fx.Cortege((af([1, 1]), af([1, -1])))
        assert cortege.rank == 2

    def test_constant_on_manifold_with_offset(self):
        # On {x = 0} the second functional is identically 1.
        with pytest.raises(fx.InvalidCortegeError) as err:
            fx.Cortege((af([1, 0]), af([2, 0], 1)))
        assert err.value.reason == "constant_on_manifold"
        assert err.value.index == 2

    def test_dependent_linear_part(self):
        with pytest.raises(fx.InvalidCortegeError) as err:
            fx.Cortege((af([1, 0]), af([1, 0], -1)))
        assert err.value.reason == "constant_on_manifold"
        assert err.value.index == 2

    def test_zero_first_level(self):
        with pytest.raises(fx.InvalidCortegeError) as err:
            fx.Cortege((af([0, 0], 1),))
        assert err.value.index == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fx.Cortege(())

    def test_rank_bounded_by_dimension(self):
        with pytest.raises(fx.InvalidCortegeError):
            fx.Cortege((af([1, 0]), af([0, 1]), af([1, 1])))

    def test_checked_without_solving_zero_sets(self, monkeypatch):
        calls = count_calls(monkeypatch, facelex.stepaffine, "solve_affine_zero_set")
        rng = random.Random(12)
        for _ in range(30):
            random_cortege(rng, rng.randint(1, 4))
        with pytest.raises(fx.InvalidCortegeError):
            fx.Cortege((af([1, 0, 1]), af([0, 1, 0], 2), af([2, 3, 2], -1)))
        assert calls == []

    def test_agrees_with_zero_set_definition(self):
        """The span pass rejects exactly where the definition does: level i
        must be non-constant on the nonempty zero set of levels 1..i-1."""

        def by_definition(funcs, dim):
            for index, f in enumerate(funcs, start=1):
                manifold = fx.solve_affine_zero_set(funcs[: index - 1], dim)
                if manifold is None:
                    return ("empty_manifold", index)
                if all(f.linear(d) == 0 for d in manifold.directions):
                    return ("constant_on_manifold", index)
            return None

        rng = random.Random(5)
        for _ in range(300):
            dim = rng.randint(1, 3)
            funcs = tuple(
                af([rng.randint(-1, 1) for _ in range(dim)], rng.randint(-2, 2))
                for _ in range(rng.randint(1, 4))
            )
            try:
                fx.Cortege(funcs)
                got = None
            except fx.InvalidCortegeError as err:
                got = (err.reason, err.index)
            assert got == by_definition(funcs, dim), funcs


class TestEvaluation:
    def setup_method(self):
        self.u = step(af([1, 1], -1), af([1, -1]))

    def test_first_level_decides(self):
        assert self.u(pt(2, 0)) == 1

    def test_all_levels_vanish(self):
        assert self.u(pt(Fraction(1, 2), Fraction(1, 2))) == 0

    def test_second_level_decides(self):
        assert self.u(pt(1, 0)) == 1

    def test_agrees_with_first_nonzero_rule(self):
        rng = random.Random(77)
        for _ in range(60):
            cortege = random_cortege(rng, rng.randint(1, 4))
            u = fx.StepAffineFunction(cortege)
            for _ in range(20):
                x = pt(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(cortege.dim)])
                assert u(x) == literal_first_nonzero(cortege, x)


class TestZeroSet:
    def test_step_linear_origin(self):
        manifold = step(af([1, 0]), af([0, 1])).zero_set()
        assert manifold.dim == 0
        assert manifold.base == pt(0, 0)

    def test_affine_point(self):
        manifold = step(af([1, 1], -1), af([1, -1])).zero_set()
        assert manifold.dim == 0
        assert manifold.base == pt(Fraction(1, 2), Fraction(1, 2))

    def test_step_linear_zero_set_is_subspace(self):
        rng = random.Random(31)
        for _ in range(30):
            cortege = random_cortege(rng, rng.randint(2, 4))
            u = fx.StepAffineFunction.step_linear(cortege.linear_parts())
            manifold = u.zero_set()
            assert manifold.base == fx.origin(cortege.dim)
            for d in manifold.directions:
                assert u(d) == 0


class TestClassify:
    def test_zero(self):
        assert step(af([1, 0]), af([0, 1])).classify(pt(0, 0)) is fx.Region.ZERO_MANIFOLD

    def test_negative_second_level(self):
        assert step(af([1, 0]), af([0, 1])).classify(pt(0, -3)) is fx.Region.NEGATIVE_SIDE

    def test_first_level_dominates(self):
        assert step(af([1, 0]), af([0, 1])).classify(pt(1, -100)) is fx.Region.POSITIVE_SIDE

    def test_trichotomy_total(self):
        rng = random.Random(13)
        u = step(af([1, 2], -1), af([1, -1], 2))
        for _ in range(300):
            x = pt(Fraction(rng.randint(-20, 20), 7), Fraction(rng.randint(-20, 20), 7))
            assert u.classify(x) in (
                fx.Region.NEGATIVE_SIDE,
                fx.Region.ZERO_MANIFOLD,
                fx.Region.POSITIVE_SIDE,
            )


class TestDecompose:
    def test_anchor_of_affine_pair(self):
        u = step(af([1, 1], -1), af([1, -1]))
        w, a = u.decompose()
        assert a == pt(Fraction(1, 2), Fraction(1, 2))
        assert w.is_linear()
        assert w.cortege.linear_parts() == u.cortege.linear_parts()

    def test_step_linear_anchor_is_origin(self):
        u = step(af([1, 0]), af([0, 1]))
        w, a = u.decompose()
        assert a == pt(0, 0)
        assert w.cortege == u.cortege

    def test_canonical_anchor_for_degenerate_zero_set(self):
        u = step(af([1, 0], -1))
        w, a = u.decompose()
        assert a == pt(1, 0)
        assert w.cortege.functionals == (af([1, 0]),)

    def test_translation_identity_exact(self):
        rng = random.Random(97)
        for _ in range(25):
            cortege = random_cortege(rng, rng.randint(1, 4))
            u = fx.StepAffineFunction(cortege)
            w, a = u.decompose()
            for _ in range(20):
                x = pt(*[Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(u.dim)])
                assert u(x) == w(x - a)


class TestConeAndConvexityProperties:
    def test_positive_homogeneity_about_anchor(self):
        rng = random.Random(3)
        for _ in range(20):
            cortege = random_cortege(rng, rng.randint(1, 3))
            u = fx.StepAffineFunction(cortege)
            _, a = u.decompose()
            for _ in range(20):
                x = pt(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(u.dim)])
                t = Fraction(rng.randint(1, 12), rng.randint(1, 6))
                assert u(a + (x - a).scaled(t)) == t * u(x)

    def test_step_linear_positive_homogeneity(self):
        rng = random.Random(4)
        u = fx.StepAffineFunction.step_linear((lf(1, 2, 0), lf(0, 1, -1)))
        for _ in range(100):
            x = pt(*[Fraction(rng.randint(-9, 9), 5) for _ in range(3)])
            t = Fraction(rng.randint(1, 10), rng.randint(1, 10))
            assert u(x.scaled(t)) == t * u(x)

    def test_midpoint_convexity_of_sign_regions(self):
        rng = random.Random(8)
        u = step(af([1, 1], -2), af([1, -1], 1))
        points = [
            pt(Fraction(rng.randint(-12, 12), 4), Fraction(rng.randint(-12, 12), 4))
            for _ in range(160)
        ]
        nonneg = [p for p in points if u(p) >= 0]
        negative = [p for p in points if u(p) < 0]
        for group, predicate in ((nonneg, lambda v: v >= 0), (negative, lambda v: v < 0)):
            for i in range(0, len(group) - 1, 2):
                mid = (group[i] + group[i + 1]).scaled(Fraction(1, 2))
                assert predicate(u(mid))
