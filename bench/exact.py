"""Exact computations made apart from facelex, used to check its outputs.

Nothing here imports facelex: points are tuples of ``Fraction`` and an
affine functional is a ``(coeffs, offset)`` pair, so every check reaches
its answer by a route the program under test does not share.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Level = tuple[Vec, Fraction]  # coeffs . x + offset


def vec(values: Iterable) -> Vec:
    return tuple(Fraction(v) for v in values)


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine hull, by elimination on the differences."""
    if not points:
        return -1
    rows = [[p - q for p, q in zip(point, points[0])] for point in points[1:]]
    rank = 0
    width = len(points[0])
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def first_nonzero(levels: Sequence[Level], x: Vec) -> Fraction:
    """Step-affine value by the definition: the first level not vanishing at x."""
    for coeffs, offset in levels:
        value = dot(coeffs, x) + offset
        if value != 0:
            return value
    return Fraction(0)


def barycenter(points: Sequence[Vec]) -> Vec:
    n = len(points)
    return tuple(sum(coords, Fraction(0)) / n for coords in zip(*points))


def on_open_segment(b: Vec, w: Vec, z: Vec) -> bool:
    """Whether b = a*w + (1-a)*z for some 0 < a < 1."""
    k = next((i for i in range(len(w)) if w[i] != z[i]), None)
    if k is None:
        return False
    alpha = (b[k] - z[k]) / (w[k] - z[k])
    if not 0 < alpha < 1:
        return False
    return all(bi == alpha * wi + (1 - alpha) * zi for bi, wi, zi in zip(b, w, z))


def euler_poincare_holds(face_dims: Iterable[int], dim: int) -> bool:
    """sum_{i<d} (-1)^i f_i == 1 - (-1)^d for the proper nonempty faces."""
    total = sum((-1) ** k for k in face_dims if k < dim)
    return total == 1 - (-1) ** dim


def convex_combination(points: Sequence[Vec], weights: Sequence[int]) -> Vec:
    total = sum(weights)
    return tuple(
        sum((Fraction(w) * p[k] for w, p in zip(weights, points)), Fraction(0)) / total
        for k in range(len(points[0]))
    )


def exact_root(value: Fraction) -> Fraction | None:
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def decimal_sqrt_sum(rational: Fraction, coeff: Fraction, radicand: Fraction, digits: int) -> Decimal:
    """rational + coeff * sqrt(radicand), to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        root = (Decimal(radicand.numerator) / Decimal(radicand.denominator)).sqrt()
        return (
            Decimal(rational.numerator) / Decimal(rational.denominator)
            + Decimal(coeff.numerator) / Decimal(coeff.denominator) * root
        )


# -- closed-form polytopes ------------------------------------------------------


def vertex_count(kind: str, dim: int) -> int:
    return {"cube": 2**dim, "cross": 2 * dim, "simplex": dim + 1}[kind]


@dataclass(frozen=True)
class Shape:
    """A translated, scaled cube, cross-polytope or simplex with its vertices
    listed in a given order; faces, facets and membership in closed form."""

    kind: str  # "cube", "cross" or "simplex"
    base: tuple[int, ...]  # cube corner, cross centre, simplex apex
    size: int
    order: tuple[int, ...]  # permutation of the canonical vertex list

    @property
    def dim(self) -> int:
        return len(self.base)

    def _labels(self) -> list:
        d = self.dim
        if self.kind == "cube":
            return list(itertools.product((0, 1), repeat=d))
        if self.kind == "cross":
            return [(i, sign) for i in range(d) for sign in (1, -1)]
        return list(range(d + 1))

    def vertex_count(self) -> int:
        return vertex_count(self.kind, self.dim)

    def labels(self) -> list:
        canonical = self._labels()
        return [canonical[i] for i in self.order]

    def _point(self, label) -> Vec:
        a, s, d = self.base, self.size, self.dim
        if self.kind == "cube":
            return vec(a[k] + s * label[k] for k in range(d))
        if self.kind == "cross":
            i, sign = label
            return vec(a[k] + (sign * s if k == i else 0) for k in range(d))
        return vec(a[k] + (s if k == label - 1 else 0) for k in range(d))

    def vertices(self) -> list[Vec]:
        return [self._point(label) for label in self.labels()]

    def facets(self) -> set[tuple[tuple[int, ...], int]]:
        """Primitive integer (coeffs, offset) with coeffs . x <= offset."""
        a, s, d = self.base, self.size, self.dim
        out = set()
        if self.kind == "cube":
            for k in range(d):
                e = tuple(1 if j == k else 0 for j in range(d))
                out.add((e, a[k] + s))
                out.add((tuple(-c for c in e), -a[k]))
        elif self.kind == "cross":
            for signs in itertools.product((1, -1), repeat=d):
                out.add((signs, sum(g * c for g, c in zip(signs, a)) + s))
        else:
            for k in range(d):
                out.add((tuple(-1 if j == k else 0 for j in range(d)), -a[k]))
            out.add(((1,) * d, sum(a) + s))
        return out

    def contains(self, x: Vec) -> bool:
        return all(dot(coeffs, x) <= offset for coeffs, offset in self.facets())

    def face_count(self) -> int:
        """Nonempty faces, the whole polytope included."""
        return 2 ** (self.dim + 1) - 1 if self.kind == "simplex" else 3**self.dim

    def face_dim(self, indices: Iterable[int]) -> int | None:
        """Dimension of conv(vertices[indices]) when it is a face, else None."""
        labels = self.labels()
        chosen = [labels[i] for i in indices]
        if not chosen:
            return None
        if self.kind == "simplex":
            return len(chosen) - 1
        if self.kind == "cross":
            axes = [i for i, _sign in chosen]
            if len(set(axes)) != len(axes):
                return None  # holds an antipodal pair
            return len(chosen) - 1
        free = [k for k in range(self.dim) if len({b[k] for b in chosen}) == 2]
        return len(free) if len(chosen) == 2 ** len(free) else None

    def relabel(self, canonical: Iterable[int]) -> tuple[int, ...]:
        """Positions, in this shape's vertex order, of canonical vertex indices."""
        return tuple(sorted(self.order.index(c) for c in canonical))

    def faces(self) -> list[tuple[int, ...]]:
        """Every nonempty face as sorted vertex indices, the whole included."""
        n = self.vertex_count()
        if self.kind == "cube":
            labels = self.labels()
            out = []
            for pattern in itertools.product((0, 1, None), repeat=self.dim):
                out.append(tuple(
                    i for i, b in enumerate(labels)
                    if all(p is None or p == bk for p, bk in zip(pattern, b))
                ))
            return out
        out = []
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                if self.face_dim(subset) is not None or size == n:
                    out.append(subset)
        return out


def canonical_shape(kind: str, dim: int) -> Shape:
    """The shape with its vertices in canonical order; only indices matter."""
    return Shape(kind, (0,) * dim, 1, tuple(range(vertex_count(kind, dim))))


def cube_symmetry(rng, dim: int):
    """A seeded symmetry of the 0/1 cube: permute and reflect coordinates."""
    order = rng.sample(range(dim), dim)
    flips = [rng.randint(0, 1) for _ in range(dim)]
    return lambda p: tuple(1 - p[k] if flip else p[k] for k, flip in zip(order, flips))


def random_shape(rng, kind: str, dim: int) -> Shape:
    """A shape placed by the seed: base coordinates +-2 with seeded signs and
    edge 2, so that every seed poses a problem of the same arithmetic size,
    with its vertices in a seeded order."""
    base = tuple(rng.choice((-2, 2)) for _ in range(dim))
    size = 2
    order = list(range(vertex_count(kind, dim)))
    rng.shuffle(order)
    return Shape(kind, base, size, tuple(order))
