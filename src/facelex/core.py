"""Exact rational scalars, points, functionals, and affine-manifold algebra.

Every scalar is an arbitrary-precision rational and no operation ever
rounds; equality below always means exact equality.  All value types are
immutable and safe to share between threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, SizeGuardExceededError

ZERO = Fraction(0)
ONE = Fraction(1)


def _guard_digits(part: str, digits: int) -> None:
    """Refuse more digits than Python converts between int and str (0: no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise SizeGuardExceededError(f"{part} has {digits} digits; Python's int/str limit is {limit}")


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"``; too many digits raise :class:`SizeGuardExceededError`."""
    body = text.strip()
    num_text, slash, den_text = body.partition("/")
    try:
        num = int(num_text)
        den = int(den_text) if slash else 1
    except ValueError as exc:
        for part, literal in (("numerator", num_text), ("denominator", den_text)):
            _guard_digits(part, sum(ch.isdigit() for ch in literal))
        raise ValueError(f"not a rational literal: {_excerpt(text)}") from exc
    if den == 0:
        raise ValueError(f"zero denominator: {_excerpt(text)}")
    return Fraction(num, den)


def _excerpt(value: object) -> str:
    """A value for an error message: its repr, or past 40 characters the
    first 40 and the length, so a huge value does not flood stderr.  A
    string is measured by its own characters, anything else by its repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= 40:
        return repr(value)
    head = repr(text[:40]) if isinstance(value, str) else text[:40]
    return f"{head}... ({len(text)} characters)"


def format_rational(value: Fraction) -> str:
    """Lowest-terms ``"p/q"``, or ``"p"``; too many digits raise :class:`SizeGuardExceededError`."""
    try:
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    except ValueError:
        for part, n in (("numerator", value.numerator), ("denominator", value.denominator)):
            _guard_digits(part, _decimal_digits(n))
        raise


def _decimal_digits(n: int) -> int:
    """Decimal digits of |n|, counted without converting it to a string."""
    n, digits = abs(n), abs(n).bit_length() * 301029995 // 10**9  # never above the count
    while n >= 10**digits:
        digits += 1
    return digits


def _require_same_dim(a: int, b: int) -> None:
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


def _over_common_denominator(values: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """Int numerators of the values over the lcm of their denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _as_fractions(values: Iterable[Fraction | int | str]) -> tuple[Fraction, ...]:
    out = []
    for v in values:
        if type(v) is Fraction:
            out.append(v)  # immutable, so shared rather than rebuilt
        elif isinstance(v, str):
            out.append(parse_rational(v))
        else:
            out.append(Fraction(v))
    return tuple(out)


@dataclass(frozen=True)
class Point:
    """A point (or displacement vector) with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _as_fractions(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, index: int) -> Fraction:
        return self.coords[index]

    def __add__(self, other: Point) -> Point:
        _require_same_dim(self.dim, other.dim)
        return Point(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: Point) -> Point:
        _require_same_dim(self.dim, other.dim)
        return Point(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> Point:
        return Point(tuple(-a for a in self.coords))

    def scaled(self, factor: Fraction | int) -> Point:
        factor = Fraction(factor)
        return Point(tuple(factor * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], int]:
        """The coordinates as int numerators over their least common denominator."""
        return _over_common_denominator(self.coords)


def origin(dim: int) -> Point:
    return Point((ZERO,) * dim)


def barycenter(points: Sequence[Point]) -> Point:
    """Uniform-weight average of a nonempty point sequence."""
    if not points:
        raise ValueError("barycenter of an empty point set")
    n = Fraction(len(points))
    total = points[0]
    for p in points[1:]:
        total = total + p
    return total.scaled(1 / n)


@dataclass(frozen=True)
class LinearFunctional:
    """A linear functional ``x -> sum(coeffs[k] * x[k])``."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _as_fractions(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @cached_property
    def _scaled(self) -> tuple[tuple[int, ...], int]:
        """The coefficients as int numerators over their least common denominator."""
        return _over_common_denominator(self.coeffs)

    def __call__(self, x: Point) -> Fraction:
        _require_same_dim(self.dim, x.dim)
        coeffs, den = self._scaled
        coords, den_x = x._scaled
        return Fraction(sum(map(mul, coeffs, coords)), den * den_x)

    def __add__(self, other: LinearFunctional) -> LinearFunctional:
        _require_same_dim(self.dim, other.dim)
        return LinearFunctional(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> LinearFunctional:
        return LinearFunctional(tuple(-c for c in self.coeffs))

    def primitive(self) -> LinearFunctional:
        """Positive rescaling to coprime integer coefficients."""
        return LinearFunctional(primitive_tuple(self.coeffs))


@dataclass(frozen=True)
class AffineFunctional:
    """An affine functional ``x -> linear(x) + offset``."""

    linear: LinearFunctional
    offset: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "offset", Fraction(self.offset))

    @property
    def dim(self) -> int:
        return self.linear.dim

    def __call__(self, x: Point) -> Fraction:
        return self.linear(x) + self.offset


def primitive_tuple(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale a rational tuple by a positive rational into coprime integers.

    The zero tuple is returned unchanged; the sign pattern is preserved.
    """
    nonzero = [v for v in values if v != 0]
    if not nonzero:
        return tuple(Fraction(v) for v in values)
    common_den = lcm(*(v.denominator for v in nonzero))
    ints = [v * common_den for v in values]
    common = gcd(*(abs(v.numerator) for v in ints if v != 0))
    return tuple(Fraction(v, common) for v in ints)


def lead_positive(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Flip the sign so the first nonzero entry is positive."""
    for v in values:
        if v < 0:
            return tuple(-x for x in values)
        if v > 0:
            break
    return tuple(values)


# ---------------------------------------------------------------------------
# The one exact elimination: a fraction-free reduced echelon basis of a row
# space, grown one row at a time.  Every rank, independence, kernel and
# solve below reads it.  The reduced echelon form of a row space is unique,
# so results do not depend on the order rows arrive in.
# ---------------------------------------------------------------------------


class IncrementalSpan:
    """Row-space tracker: add rows one at a time, query membership exactly.

    The basis is kept as primitive ``int`` rows in reduced echelon form:
    each row has a positive entry at its pivot column and zeros at every
    other row's pivot.  A row of ``int`` or ``Fraction`` entries enters
    scaled by the lcm of its denominators, which keeps the span.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self._rows: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)

    def _reduce(self, row: Sequence[Fraction | int]) -> Sequence[int]:
        vec, _den = _over_common_denominator(row)
        for pivot, base in self._rows:
            factor = vec[pivot]
            if factor:
                scale = base[pivot]
                vec = [scale * a - factor * b for a, b in zip(vec, base)]
        return vec

    def contains(self, row: Sequence[Fraction | int]) -> bool:
        return not any(self._reduce(row))

    def add(self, row: Sequence[Fraction | int]) -> bool:
        """Insert a row; return True when it enlarged the span."""
        vec = self._reduce(row)
        col = next((k for k, v in enumerate(vec) if v), None)
        if col is None:
            return False
        g = gcd(*vec) if vec[col] > 0 else -gcd(*vec)
        vec = [v // g for v in vec]
        lead = vec[col]
        for k, (pivot, base) in enumerate(self._rows):
            factor = base[col]
            if factor:
                # base[pivot] > 0 and vec[pivot] == 0, so the pivot stays positive.
                cleared = [lead * a - factor * b for a, b in zip(base, vec)]
                g = gcd(*cleared)
                self._rows[k] = (pivot, [v // g for v in cleared])
        self._rows.append((col, vec))
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)


def nullspace_basis(rows: Sequence[Sequence[Fraction | int]], width: int) -> list[list[Fraction]]:
    """Deterministic basis of the kernel, one vector per free column.

    The vector of free column f has 1 at f, 0 at every other free column,
    and at each pivot column what the reduced row of that pivot forces.
    """
    span = IncrementalSpan(width)
    for row in rows:
        span.add(row)
    pivots = {pivot for pivot, _base in span._rows}
    basis: list[list[Fraction]] = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [ZERO] * width
        vec[free] = ONE
        for pivot, base in span._rows:
            vec[pivot] = Fraction(-base[free], base[pivot])
        basis.append(vec)
    return basis


def solve_linear_system(
    rows: Sequence[Sequence[Fraction | int]], rhs: Sequence[Fraction | int], width: int
) -> list[Fraction] | None:
    """One exact solution of ``rows @ x = rhs`` (free variables set to 0).

    It is read off the kernel of the rows ``[A | -b]``: the vector of the
    last column is (x, 1).  When that column is a pivot, a row reduced to
    0 = 1 and there is no solution.
    """
    kernel = nullspace_basis([list(row) + [-b] for row, b in zip(rows, rhs)], width + 1)
    if kernel and kernel[-1][width]:
        return kernel[-1][:width]
    return None


# ---------------------------------------------------------------------------
# Affine manifolds.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineManifold:
    """An affine manifold stored as a base point plus independent directions."""

    base: Point
    directions: tuple[Point, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "directions", tuple(self.directions))
        for d in self.directions:
            _require_same_dim(self.base.dim, d.dim)
        span = IncrementalSpan(self.base.dim)
        if not all(span.add(d.coords) for d in self.directions):
            raise ValueError("manifold directions must be linearly independent")

    @property
    def ambient_dim(self) -> int:
        return self.base.dim

    @property
    def dim(self) -> int:
        return len(self.directions)

    @cached_property
    def _equations(self) -> tuple[AffineFunctional, ...]:
        rows = [d.coords for d in self.directions]
        normals = nullspace_basis(rows, self.ambient_dim)
        out = []
        for raw in normals:
            coeffs = lead_positive(primitive_tuple(raw))
            functional = LinearFunctional(coeffs)
            out.append(AffineFunctional(functional, -functional(self.base)))
        return tuple(out)

    def equations(self) -> tuple[AffineFunctional, ...]:
        """Affine functionals whose common zero set is exactly this manifold."""
        return self._equations

    def contains(self, p: Point) -> bool:
        _require_same_dim(self.ambient_dim, p.dim)
        return all(eq(p) == 0 for eq in self._equations)

    def point_at(self, coefficients: Sequence[Fraction | int]) -> Point:
        """``base + sum(c_k * direction_k)``."""
        if len(coefficients) != self.dim:
            raise ValueError("one coefficient per direction required")
        p = self.base
        for c, d in zip(coefficients, self.directions):
            p = p + d.scaled(c)
        return p


def linear_independent(functionals: Sequence[LinearFunctional]) -> bool:
    """Exact linear independence over the rationals (empty family: True)."""
    if not functionals:
        return True
    width = functionals[0].dim
    for f in functionals[1:]:
        _require_same_dim(width, f.dim)
    span = IncrementalSpan(width)
    return all(span.add(f.coeffs) for f in functionals)


def solve_affine_zero_set(
    functionals: Sequence[AffineFunctional], ambient_dim: int | None = None
) -> AffineManifold | None:
    """Solution manifold of ``f(x) = 0`` for all given affine functionals.

    Returns None when the system is infeasible.  The base point and the
    direction basis are deterministic (first-column pivoting, free
    variables zeroed, directions scaled to primitive lead-positive form).
    """
    if ambient_dim is None:
        if not functionals:
            raise ValueError("ambient_dim required for an empty system")
        ambient_dim = functionals[0].dim
    for f in functionals:
        _require_same_dim(ambient_dim, f.dim)
    # One kernel of the rows [a | offset] gives the base point, as in
    # solve_linear_system, and the directions: the other kernel vectors.
    kernel = nullspace_basis([f.linear.coeffs + (f.offset,) for f in functionals], ambient_dim + 1)
    if not kernel or not kernel[-1][-1]:
        return None
    directions = tuple(Point(lead_positive(primitive_tuple(vec[:-1]))) for vec in kernel[:-1])
    return AffineManifold(Point(tuple(kernel[-1][:-1])), directions)


def affine_hull(points: Sequence[Point]) -> AffineManifold:
    """Smallest affine manifold containing every input point."""
    if not points:
        raise ValueError("affine hull of an empty point set")
    base = points[0]
    for p in points[1:]:
        _require_same_dim(base.dim, p.dim)
    span = IncrementalSpan(base.dim)
    directions = []
    for p in points[1:]:
        delta = p - base
        if span.add(delta.coords):
            directions.append(Point(lead_positive(primitive_tuple(delta.coords))))
    return AffineManifold(base, tuple(directions))
