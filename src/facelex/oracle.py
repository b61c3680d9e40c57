"""Brute-force reference implementations used to cross-check the main paths.

These oracles trade speed for independence: they reach the same answers
through definitionally different routes, so agreement is meaningful.  They
ship in the library (not only in the tests) to back the CLI --cross-check
flag.  All randomness flows through an explicit seed.

The facet, face and refuter oracles compute on ints: the points are scaled
once by the lcm of their denominators, and a ``Fraction`` is built only for
a result.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from .core import LinearFunctional, Point, affine_hull, nullspace_basis
from .errors import SizeGuardExceededError
from .polytope import FaceDescriptor, Polytope
from .sampling import _int_combination, _int_weights

# Documented default seed for the randomized refuter: reproducible CI runs.
DEFAULT_REFUTER_SEED = 7193

_MAX_VERTICES = 12
_MAX_DIM = 4
_MAX_FACETS = 16  # candidate functionals grow as 2**facets
_MAX_SUBSETS = 4096  # oracle_facets solves one nullspace per d-subset; the 4-cube needs 1820


def _scaled_points(points: Sequence[Point]) -> tuple[int, list[list[int]]]:
    """The lcm L of the points' denominators, and the int vectors L x."""
    scale = lcm(*(p._scaled[1] for p in points))
    return scale, [[n * (scale // den) for n in nums] for nums, den in (p._scaled for p in points)]


def oracle_facets(points: Sequence[Point]) -> list[tuple[LinearFunctional, Fraction, tuple[int, ...]]]:
    """Facets of conv(points) relative to its affine hull, in ambient form.

    Brute force: every hyperplane through an affinely independent d-subset
    (d the intrinsic dimension) is kept when all points lie weakly on one
    side, oriented as functional(x) <= offset, and deduplicated.  This
    tries all C(n, d) subsets, one nullspace solve each, so it is meant for
    desk-scale inputs only; the result has the shape and order of the main
    path's facet list.

    Everything runs on ints in one chart.  The points, scaled by the lcm L
    of their denominators, are int vectors X_i, and the d int directions
    that :func:`affine_hull` returns are the rows of D.  Those rows are
    independent, so y = D X is an affine bijection of the hull onto Q^d,
    and y_i = D X_i are the points' chart coordinates.  A kernel vector
    (s, c) of the rows (y_i, -1) of a d-subset is the hyperplane
    s.y = c; since s.y = (L D^T s).x, it maps back to the ambient row
    (L D^T s, c), divided by its gcd.  That row lies in the span of the
    hull's directions, which makes it the one primitive row of its facet.
    """
    hull = affine_hull(points)
    d = hull.dim
    if d == 0:
        return []
    if comb(len(points), d) > _MAX_SUBSETS:
        raise SizeGuardExceededError(
            f"oracle_facets guard: C({len(points)}, {d}) subsets exceed {_MAX_SUBSETS}"
        )
    scale, scaled = _scaled_points(points)
    directions = [[c.numerator for c in dir_.coords] for dir_ in hull.directions]
    chart = [[sum(map(mul, row, x)) for row in directions] for x in scaled]

    found: dict[tuple[int, ...], tuple[LinearFunctional, Fraction, tuple[int, ...]]] = {}
    for subset in combinations(chart, d):
        kernel = nullspace_basis([y + [-1] for y in subset], d + 1)
        if len(kernel) != 1:
            continue  # affinely dependent subset
        den = lcm(*(v.denominator for v in kernel[0]))
        *s, c = (v.numerator * (den // v.denominator) for v in kernel[0])
        values = [sum(map(mul, s, y)) for y in chart]
        if max(values) > c:
            if min(values) < c:
                continue
            s, c = [-sk for sk in s], -c
            values = [-v for v in values]
        g = gcd(*s, c)
        key = tuple(v // g for v in s) + (c // g,)
        if key in found:
            continue
        row = [scale * sum(map(mul, s, col)) for col in zip(*directions)] + [c]
        g = gcd(*row)
        *coeffs, offset = (v // g for v in row)
        tight = tuple(i for i, v in enumerate(values) if v == c)
        found[key] = (LinearFunctional(tuple(coeffs)), Fraction(offset), tight)
    return sorted(found.values(), key=lambda item: (item[0].coeffs, item[1]))


def oracle_faces(polytope: Polytope) -> tuple[FaceDescriptor, ...]:
    """Face enumeration by recursive-exposure closure.

    Start from the whole vertex set; for every known face, minimize every
    sum of a subset of inward facet normals of its hull and record the
    argmin vertex sets; iterate to a fixpoint.  This never intersects
    tight sets, and it finds facets with :func:`oracle_facets`, so it is
    independent of both the facet-intersection route and the main path's
    facet enumeration.

    The sums are walked in Gray-code order on ints.  Each inward normal is
    evaluated once at the face's points, scaled by the lcm of their
    denominators; consecutive masks differ in one bit, so one running
    vector of values steps from mask to mask by adding or subtracting one
    normal's values.  The guard counts the intrinsic dimension, which sets
    the cost; the ambient one only widens the chart.
    """
    vertex_count = len(polytope.vertices)
    if vertex_count > _MAX_VERTICES:
        raise SizeGuardExceededError(
            f"oracle_faces guard: {vertex_count} vertices exceed {_MAX_VERTICES}"
        )
    dim = affine_hull(polytope.vertices).dim
    if dim > _MAX_DIM:
        raise SizeGuardExceededError(
            f"oracle_faces guard: intrinsic dimension {dim} exceeds {_MAX_DIM}"
        )
    known: set[FaceDescriptor] = {polytope.all_indices()}
    queue = [polytope.all_indices()]
    while queue:
        face = queue.pop()
        points = polytope.face_points(face)
        facets = oracle_facets(points)
        if len(facets) > _MAX_FACETS:
            raise SizeGuardExceededError(
                f"oracle_faces guard: {len(facets)} facets exceed {_MAX_FACETS}"
            )
        _scale, scaled = _scaled_points(points)
        # Inward normal j's values at the face's points, one row each.
        inward = [
            [-sum(map(mul, functional._scaled[0], x)) for x in scaled]
            for functional, _offset, _tight in facets
        ]
        local = list(face.vertex_indices)  # face point k is polytope vertex local[k]
        values = [0] * len(points)
        for step in range(1, 1 << len(inward)):
            bit = (step & -step).bit_length() - 1  # the one bit the Gray code flips
            row = inward[bit]
            if (step ^ step >> 1) >> bit & 1:
                values = [a + b for a, b in zip(values, row)]
            else:
                values = [a - b for a, b in zip(values, row)]
            best = min(values)
            argmin = FaceDescriptor(
                tuple(local[k] for k, v in enumerate(values) if v == best)
            )
            if argmin not in known:
                known.add(argmin)
                queue.append(argmin)
    return tuple(sorted(known, key=lambda f: (len(f), f.vertex_indices)))


def oracle_lex_argmin(
    polytope: Polytope, levels: Sequence[LinearFunctional]
) -> FaceDescriptor:
    """Lexicographic minimizers via whole value tuples, no sequential filtering."""
    tuples = [
        tuple(level(v) for level in levels) for v in polytope.vertices
    ]
    best = min(tuples)
    return FaceDescriptor(tuple(i for i, t in enumerate(tuples) if t == best))


def oracle_refute_face(
    polytope: Polytope,
    candidate: FaceDescriptor,
    trials: int,
    seed: int = DEFAULT_REFUTER_SEED,
) -> tuple[Point, Point] | None:
    """Randomized search for a segment violating the face property.

    Each trial draws a point m inside the candidate's hull and an endpoint
    u in the polytope, then extends the ray from u through m to a second
    endpoint v still inside the polytope, so m lies on the open segment
    (u, v) by construction (the bias that makes exact hits possible).  A
    pair is returned only when it exactly violates the face property, so a
    witness is sound; None proves nothing.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    polytope._check_descriptor(candidate)
    hull = polytope.face_polytope(candidate)
    rng = random.Random(seed)
    # Every point below is an int vector over a positive int denominator,
    # after scaling the vertices once by their common denominator: m is
    # m_num / (t_m scale), u is u_num / (t_u scale), and v = m + (p/q)(m - u)
    # is ((q + p) t_u m_num - p t_m u_num) / (q t_m t_u scale).
    scale, corners = _scaled_points(polytope.vertices)
    face_corners = [corners[i] for i in candidate.vertex_indices]
    step_choices = [(1, 1), (1, 2), (1, 4), (1, 8)]
    for _ in range(trials):
        weights = _int_weights(rng, len(face_corners), True)
        m_num, t_m = _int_combination(face_corners, weights), sum(weights)
        weights = _int_weights(rng, len(corners), False)
        u_num, t_u = _int_combination(corners, weights), sum(weights)
        if all(a * t_m == b * t_u for a, b in zip(u_num, m_num)):
            continue
        p, q = rng.choice(step_choices)
        v_num = [(q + p) * t_u * a - p * t_m * b for a, b in zip(m_num, u_num)]
        den_u = t_u * scale
        den_v = q * t_m * den_u
        if not polytope._contains_scaled(v_num, den_v):
            continue
        if not hull._contains_scaled(u_num, den_u) or not hull._contains_scaled(v_num, den_v):
            return (
                Point(tuple(Fraction(a, den_u) for a in u_num)),
                Point(tuple(Fraction(a, den_v) for a in v_num)),
            )
    return None
