import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import facelex as fx
from facelex import core
from helpers import af, lf, pt, rref

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)


class TestRationalStrings:
    def test_parse_integer(self):
        assert fx.parse_rational("7") == 7
        assert fx.parse_rational("-3") == -3

    def test_parse_fraction_normalizes(self):
        assert fx.parse_rational("3/6") == Fraction(1, 2)
        assert fx.parse_rational("-4/2") == -2
        assert fx.parse_rational("1/-2") == Fraction(-1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "a", "", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            fx.parse_rational(bad)

    @pytest.mark.parametrize("bad", ["x" * 5000, "1/" + "0" * 300])
    def test_long_literal_is_echoed_as_a_prefix(self, bad):
        with pytest.raises(ValueError) as info:
            fx.parse_rational(bad)
        message = str(info.value)
        assert f"{bad[:40]!r}... ({len(bad)} characters)" in message
        assert len(message) < 100

    def test_short_literal_is_echoed_whole(self):
        with pytest.raises(ValueError, match=r"not a rational literal: '1\.5'$"):
            fx.parse_rational("1.5")

    @given(value=rationals)
    def test_round_trip(self, value):
        assert fx.parse_rational(fx.format_rational(value)) == value

    def test_format(self):
        assert fx.format_rational(Fraction(1, 2)) == "1/2"
        assert fx.format_rational(Fraction(-8, 4)) == "-2"


@pytest.fixture
def digit_limit():
    """Python's default cap on int/str conversion, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(previous)


class TestDigitLimit:
    """Numbers past Python's int/str digit cap are a size guard with a short
    message, at both boundaries, not a malformed literal or a raw ValueError."""

    def test_parse_at_the_limit(self, digit_limit):
        assert fx.parse_rational("1" + "0" * (digit_limit - 1)) == 10 ** (digit_limit - 1)

    @pytest.mark.parametrize(
        "text, part, digits",
        [
            ("1" + "0" * 4300, "numerator", 4301),
            ("-" + "7" * 5000 + "/3", "numerator", 5000),
            ("1/" + "9" * 4400, "denominator", 4400),
        ],
        ids=["integer", "fraction", "denominator"],
    )
    def test_parse_over_the_limit(self, digit_limit, text, part, digits):
        with pytest.raises(fx.SizeGuardExceededError) as info:
            fx.parse_rational(text)
        message = str(info.value)
        assert message == f"{part} has {digits} digits; Python's int/str limit is 4300"
        assert len(message) < 200

    def test_format_at_the_limit(self, digit_limit):
        assert fx.format_rational(Fraction(-(10**digit_limit - 1), 7)) == "-" + "9" * digit_limit + "/7"

    @pytest.mark.parametrize(
        "value, part, digits",
        [
            (Fraction(10**4300), "numerator", 4301),
            (Fraction(1, 3 * 10**6000), "denominator", 6001),
            (Fraction(-(2**20000), 3), "numerator", 6021),
        ],
        ids=["integer", "denominator", "fraction"],
    )
    def test_format_over_the_limit(self, digit_limit, value, part, digits):
        with pytest.raises(fx.SizeGuardExceededError) as info:
            fx.format_rational(value)
        message = str(info.value)
        assert message == f"{part} has {digits} digits; Python's int/str limit is 4300"
        assert len(message) < 200


class TestExactness:
    """Exact-arithmetic identities that would only hold approximately in floats."""

    @given(a=rationals, b=rationals)
    def test_add_sub_cancels(self, a, b):
        assert (a + b) - b == a

    @given(a=rationals, b=rationals.filter(lambda v: v != 0))
    def test_mul_div_cancels(self, a, b):
        assert (a * b) / b == a

    @given(coords=st.lists(rationals, min_size=1, max_size=4), scale=rationals)
    def test_point_scaling_distributes(self, coords, scale):
        p = fx.Point(tuple(coords))
        assert (p + p).scaled(scale) == p.scaled(scale) + p.scaled(scale)

    @given(pairs=st.lists(st.tuples(rationals, rationals), max_size=5))
    def test_functional_value_is_the_fraction_sum(self, pairs):
        """Evaluation on int numerators over one denominator per side equals
        the plain Fraction dot product."""
        functional = fx.LinearFunctional(tuple(c for c, _v in pairs))
        x = fx.Point(tuple(v for _c, v in pairs))
        value = functional(x)
        assert type(value) is Fraction
        assert value == sum((c * v for c, v in pairs), Fraction(0))


class TestLinearIndependence:
    def test_standard_basis(self):
        assert fx.linear_independent([lf(1, 0), lf(0, 1)])

    def test_scalar_multiples(self):
        assert not fx.linear_independent([lf(1, 2), lf(2, 4)])

    def test_empty_family(self):
        assert fx.linear_independent([])

    def test_dimension_mismatch(self):
        with pytest.raises(fx.DimensionMismatchError):
            fx.linear_independent([lf(1, 0), lf(1, 0, 0)])


class TestSolveAffineZeroSet:
    def test_single_line(self):
        manifold = fx.solve_affine_zero_set([af([1, 1], -1)])
        assert manifold is not None
        assert manifold.base == pt(1, 0)
        assert manifold.directions == (pt(1, -1),)

    def test_contradictory(self):
        assert fx.solve_affine_zero_set([af([1, 0]), af([1, 0], -1)]) is None

    def test_empty_system_is_whole_plane(self):
        manifold = fx.solve_affine_zero_set([], ambient_dim=2)
        assert manifold is not None
        assert manifold.base == pt(0, 0)
        assert manifold.directions == (pt(1, 0), pt(0, 1))

    def test_solution_annihilates_system(self):
        import random

        rng = random.Random(11)
        for _ in range(40):
            dim = rng.randint(1, 4)
            funcs = [
                af([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-3, 3))
                for _ in range(rng.randint(0, dim))
            ]
            manifold = fx.solve_affine_zero_set(funcs, ambient_dim=dim)
            if manifold is None:
                continue
            probes = [manifold.base] + [manifold.base + d for d in manifold.directions]
            probes.append(
                manifold.point_at([Fraction(rng.randint(-5, 5), 3) for _ in manifold.directions])
            )
            for x in probes:
                assert all(f(x) == 0 for f in funcs)

    def test_manifold_equations_cut_exactly(self):
        manifold = fx.solve_affine_zero_set([af([1, 1, 0], -1)])
        eqs = manifold.equations()
        assert len(eqs) == 1
        assert all(eq(manifold.point_at([2, Fraction(-1, 3)])) == 0 for eq in eqs)
        off = manifold.base + pt(1, 1, 0)
        assert any(eq(off) != 0 for eq in eqs)


class TestAffineHull:
    def test_singleton(self):
        hull = fx.affine_hull([pt(0, 0)])
        assert hull.dim == 0
        assert hull.base == pt(0, 0)

    def test_spanning_square(self):
        hull = fx.affine_hull([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
        assert hull.dim == 2

    def test_two_points_direction_normalized(self):
        hull = fx.affine_hull([pt(0, 0), pt(2, 2)])
        assert hull.dim == 1
        assert hull.directions == (pt(1, 1),)

    def test_idempotence(self):
        import random

        rng = random.Random(23)
        for _ in range(25):
            dim = rng.randint(1, 4)
            points = [
                pt(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)])
                for _ in range(rng.randint(1, 5))
            ]
            hull = fx.affine_hull(points)
            resampled = [hull.base] + [
                hull.point_at([Fraction(rng.randint(-3, 3)) for _ in hull.directions])
                for _ in range(4)
            ]
            again = fx.affine_hull(resampled)
            assert again.dim == hull.dim
            assert again.contains(hull.base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fx.affine_hull([])


# -- the elimination engine against the batch reference ----------------------

entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
    st.just(0),
)


@st.composite
def systems(draw):
    """Rows of mixed int/Fraction entries, widths 0 to 7, with zero,
    duplicate and dependent rows mixed in, and a right-hand side."""
    width = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    extra = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 99), st.integers(0, 99), entries), max_size=3))
    for kind, a, b, c in extra:
        if kind == 0:
            rows.append([0] * width)
        elif rows and kind == 1:
            rows.append(list(rows[a % len(rows)]))
        elif rows:
            r, s = rows[a % len(rows)], rows[b % len(rows)]
            rows.append([Fraction(c) * x + y for x, y in zip(r, s)])
    rhs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    return width, rows, rhs


def seeded_systems(count, seed):
    rng = random.Random(seed)

    def entry():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for _ in range(count):
        width = rng.randint(0, 7)
        rows = [[entry() for _ in range(width)] for _ in range(rng.randint(0, 7))]
        if rows and rng.random() < 0.5:
            rows.append([entry() * v for v in rows[rng.randrange(len(rows))]])
        if len(rows) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            rows.append([x - y for x, y in zip(a, b)])
        if rng.random() < 0.2:
            rows.insert(rng.randint(0, len(rows)), [0] * width)
        yield width, rows, [entry() for _ in rows]


def _fractions(rows):
    return [[Fraction(v) for v in row] for row in rows]


def reference_nullspace(rows, width):
    mat, pivots = rref(_fractions(rows), width)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for row, col in zip(mat, pivots):
            vec[col] = -row[free]
        basis.append(vec)
    return basis


def reference_solve(rows, rhs, width):
    mat, pivots = rref([row + [Fraction(b)] for row, b in zip(_fractions(rows), rhs)], width + 1)
    if width in pivots:
        return None
    solution = [Fraction(0)] * width
    for row, col in zip(mat, pivots):
        solution[col] = row[width]
    return solution


def reference_rank(rows, width):
    return len(rref(_fractions(rows), width)[1])


def check_engine(width, rows, rhs):
    assert core.nullspace_basis(rows, width) == reference_nullspace(rows, width)
    assert core.solve_linear_system(rows, rhs, width) == reference_solve(rows, rhs, width)

    span = core.IncrementalSpan(width)
    for i, row in enumerate(rows):
        grew = reference_rank(rows[: i + 1], width) > reference_rank(rows[:i], width)
        assert span.contains(row) is not grew
        assert span.add(row) is grew
        assert span.contains(row)
    rank = reference_rank(rows, width)
    assert span.rank == rank
    probe = (list(rhs) + [0] * width)[:width]
    assert span.contains(probe) is (reference_rank(rows + [probe], width) == rank)

    if width == 0:
        return
    funcs = [af(row, -b) for row, b in zip(rows, rhs)]
    manifold = fx.solve_affine_zero_set(funcs, width)
    solution = reference_solve(rows, rhs, width)
    if solution is None:
        assert manifold is None
        return
    directions = tuple(
        pt(*core.lead_positive(core.primitive_tuple(v))) for v in reference_nullspace(rows, width)
    )
    assert (manifold.base, manifold.directions) == (pt(*solution), directions)
    normals = reference_nullspace([d.coords for d in directions], width)
    equations = []
    for raw in normals:
        functional = fx.LinearFunctional(core.lead_positive(core.primitive_tuple(raw)))
        equations.append(fx.AffineFunctional(functional, -functional(manifold.base)))
    assert manifold.equations() == tuple(equations)


class TestEliminationEngine:
    """Every solve, kernel and rank comes from ``IncrementalSpan``; each must
    equal what the batch reduced echelon form gives, which is unique."""

    def test_seeded_systems(self):
        for width, rows, rhs in seeded_systems(400, seed=29):
            check_engine(width, rows, rhs)

    @given(system=systems())
    def test_random_systems(self, system):
        check_engine(*system)

    def test_int_and_fraction_rows_agree(self):
        rows = [[2, 4, 0], [Fraction(1, 3), Fraction(2, 3), 1]]
        assert core.nullspace_basis(rows, 3) == core.nullspace_basis(_fractions(rows), 3)
        assert core.nullspace_basis(rows, 3) == [[Fraction(-2), Fraction(1), Fraction(0)]]

    def test_inconsistent_system_has_no_solution(self):
        assert core.solve_linear_system([[1, 1], [2, 2]], [1, 3], 2) is None
        assert core.solve_linear_system([[0, 0]], [Fraction(1, 2)], 2) is None
        assert core.solve_linear_system([[]], [1], 0) is None
        assert core.solve_linear_system([[]], [0], 0) == []

    def test_basis_is_reduced(self):
        span = core.IncrementalSpan(3)
        for row in ([0, 2, 4], [Fraction(3, 2), 3, 0], [1, 0, 0]):
            span.add(row)
        assert span.rank == 3
        assert sorted(span._rows) == [(0, [1, 0, 0]), (1, [0, 1, 0]), (2, [0, 0, 1])]
