"""Brute-force reference implementations used to cross-check the main paths.

These oracles trade speed for independence: they reach the same answers
through definitionally different routes, so agreement is meaningful.  They
ship in the library (not only in the tests) to back the CLI --cross-check
flag.  All randomness flows through an explicit seed.

The facet, face and refuter oracles compute on their own ints: the points
are scaled once by the lcm of their denominators, and a ``Fraction`` is
built only for a result.  Facets come from an int chart of independent
differences X_i - X_0 and the signed maximal minors of each d-subset, by
a small fraction-free determinant; ``IncrementalSpan`` is used for the
rank only, and neither ``affine_hull`` nor ``nullspace_basis`` is called.
What still leans on the main path is the refuter's membership test: it
reads the polytope's facet rows (``Polytope._facet_rows``), so a facet the
main path missed goes unseen there, until membership is decided from the
vertices alone (an exact LP over them).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import add, mul, sub
from typing import Sequence

from .core import IncrementalSpan, LinearFunctional, Point, _require_same_dim
from .errors import SizeGuardExceededError
from .polytope import FaceDescriptor, Polytope
from .sampling import _choice, _int_combination, _int_weights

# Documented default seed for the randomized refuter: reproducible CI runs.
DEFAULT_REFUTER_SEED = 7193

_MAX_VERTICES = 12
_MAX_DIM = 4
_MAX_FACETS = 16  # candidate functionals grow as 2**facets
_MAX_SUBSETS = 4096  # oracle_facets takes one kernel per d-subset; the 4-cube needs 1820


def _scaled_points(points: Sequence[Point]) -> tuple[int, list[list[int]]]:
    """The lcm L of the points' denominators, and the int vectors L x.

    This duplicates ``polytope._scaled_rows`` on purpose: the oracles scale
    their own points so that they share no code with the main path they
    check.  Keep the two apart.
    """
    scale = lcm(*(p._scaled[1] for p in points))
    return scale, [[n * (scale // den) for n in nums] for nums, den in (p._scaled for p in points)]


def _int_chart(points: Sequence[Point]) -> tuple[int, list[list[int]], list[list[int]]]:
    """The scaled points X_i, and independent differences X_i - X_0 that span their directions.

    ``IncrementalSpan`` only decides which differences enlarge the span, so
    the number of rows returned is the intrinsic dimension; the rows
    themselves are the differences, as they are.
    """
    if not points:
        raise ValueError("affine hull of an empty point set")
    ambient = points[0].dim
    for p in points[1:]:
        _require_same_dim(ambient, p.dim)
    scale, scaled = _scaled_points(points)
    base = scaled[0]
    span = IncrementalSpan(ambient)
    directions = []
    for x in scaled[1:]:
        if len(directions) == ambient:
            break
        delta = [a - b for a, b in zip(x, base)]
        if span.add(delta):
            directions.append(delta)
    return scale, scaled, directions


def _det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix, fraction-free.

    Up to 3 x 3 it is the cofactor expansion, written out.  Above that it
    is Bareiss (1968) elimination: each step divides by the previous
    pivot, the division is exact, and every entry stays an int (a minor of
    the input).
    """
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    if n == 2:
        (a, b), (c, d) = matrix
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = matrix
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rows = [list(row) for row in matrix]
    sign, previous = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot = rows[k][k]
        tail = rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            lead = row[k]
            row[k + 1 :] = [(pivot * a - lead * b) // previous for a, b in zip(row[k + 1 :], tail)]
        previous = pivot
    return sign * rows[-1][-1]


def _kernel_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """The signed maximal minors v_k = (-1)^k det(rows without column k) of a d x (d+1) int matrix.

    Each row r has r.v = 0, the determinant of the matrix with r stacked on
    top, expanded along r.  So v is 0 exactly when the rows are dependent,
    and otherwise it spans their kernel.
    """
    width = len(rows[0])
    minors = [_det([row[:k] + row[k + 1 :] for row in rows]) for k in range(width)]
    return [-v if k & 1 else v for k, v in enumerate(minors)]


def oracle_facets(points: Sequence[Point]) -> list[tuple[LinearFunctional, Fraction, tuple[int, ...]]]:
    """Facets of conv(points) relative to its affine hull, in ambient form.

    Brute force: every hyperplane through an affinely independent d-subset
    (d the intrinsic dimension) is kept when all points lie weakly on one
    side, oriented as functional(x) <= offset, and deduplicated.  This
    tries all C(n, d) subsets, one d x (d+1) kernel each, so it is meant
    for desk-scale inputs only; the result has the shape and order of the
    main path's facet list.

    Everything runs on the oracle's own ints, in one chart.  The points,
    scaled by the lcm L of their denominators, are int vectors X_i, and the
    rows of D are d independent differences X_i - X_0; ``IncrementalSpan``
    only picks them (it gives the rank).  The rows of D span the hull's
    directions, so y = D X is an affine bijection of the hull onto Q^d, and
    y_i = D X_i are the points' chart coordinates.  The kernel (s, c) of
    the rows (y_i, -1) of a d-subset, taken as their signed maximal minors
    (:func:`_kernel_minors`, all zero for a dependent subset), is the
    hyperplane s.y = c; since s.y = (L D^T s).x, it maps back to the
    ambient row (L D^T s, c), divided by its gcd.  That row lies in the
    span of the hull's directions, which makes it the one primitive row of
    its facet whatever basis D is, so no ``affine_hull`` and no
    ``nullspace_basis`` of the main path is needed.
    """
    scale, scaled, directions = _int_chart(points)
    d = len(directions)
    if d == 0:
        return []
    if comb(len(points), d) > _MAX_SUBSETS:
        raise SizeGuardExceededError(
            f"oracle_facets guard: C({len(points)}, {d}) subsets exceed {_MAX_SUBSETS}"
        )
    chart = [[sum(map(mul, row, x)) for row in directions] for x in scaled]

    found: dict[tuple[int, ...], tuple[list[int], int, tuple[int, ...]]] = {}
    for subset in combinations([y + [-1] for y in chart], d):
        *s, c = _kernel_minors(subset)
        if not any(s):
            continue  # affinely dependent subset: every minor is 0
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
        found[key] = (coeffs, offset, tuple(i for i, v in enumerate(values) if v == c))
    # Distinct facets have distinct rows, so the sort never reaches the tight sets.
    return [
        (LinearFunctional(tuple(coeffs)), Fraction(offset), tight)
        for coeffs, offset, tight in sorted(found.values())
    ]


def oracle_faces(polytope: Polytope) -> tuple[FaceDescriptor, ...]:
    """Face enumeration by recursive-exposure closure.

    Start from the whole vertex set; for every known face, minimize every
    sum of a subset of inward facet normals of its hull and record the
    argmin vertex sets; iterate to a fixpoint.  This never intersects
    tight sets, and it finds facets with :func:`oracle_facets`, so it is
    independent of both the facet-intersection route and the main path's
    facet enumeration.

    The sums are walked in Gray-code order on ints.  Each inward normal is
    evaluated once at the face's points, taken from the polytope's vertices
    scaled once by the lcm of their denominators (one positive scale keeps
    every argmin); consecutive masks differ in one bit, so one running
    vector of values steps from mask to mask by adding or subtracting one
    normal's values.  Argmins are kept as sorted index tuples, and a
    ``FaceDescriptor`` is built only for a new face.  The guard counts the
    intrinsic dimension, the int rank of :func:`_int_chart`, which sets
    the cost; the ambient one only widens the chart.
    """
    vertex_count = len(polytope.vertices)
    if vertex_count > _MAX_VERTICES:
        raise SizeGuardExceededError(
            f"oracle_faces guard: {vertex_count} vertices exceed {_MAX_VERTICES}"
        )
    _scale, corners, directions = _int_chart(polytope.vertices)
    if len(directions) > _MAX_DIM:
        raise SizeGuardExceededError(
            f"oracle_faces guard: intrinsic dimension {len(directions)} exceeds {_MAX_DIM}"
        )
    whole = polytope.all_indices()
    known = {whole.vertex_indices: whole}
    queue = [whole]
    while queue:
        face = queue.pop()
        facets = oracle_facets(polytope.face_points(face))
        if len(facets) > _MAX_FACETS:
            raise SizeGuardExceededError(
                f"oracle_faces guard: {len(facets)} facets exceed {_MAX_FACETS}"
            )
        local = face.vertex_indices
        scaled = [corners[i] for i in local]
        # Inward normal j's values at the face's points, one row each; the
        # facet coefficients are ints.
        normals = [[c.numerator for c in functional.coeffs] for functional, _offset, _tight in facets]
        inward = [[-sum(map(mul, a, x)) for x in scaled] for a in normals]
        values = [0] * len(local)
        for step in range(1, 1 << len(inward)):
            bit = (step & -step).bit_length() - 1  # the one bit the Gray code flips
            if (step ^ step >> 1) >> bit & 1:
                values = list(map(add, values, inward[bit]))
            else:
                values = list(map(sub, values, inward[bit]))
            best = min(values)
            argmin = tuple(i for i, v in zip(local, values) if v == best)
            if argmin not in known:
                known[argmin] = new = FaceDescriptor(argmin)
                queue.append(new)
    return tuple(sorted(known.values(), key=lambda f: (len(f), f.vertex_indices)))


def oracle_lex_argmin(
    polytope: Polytope, levels: Sequence[LinearFunctional]
) -> FaceDescriptor:
    """Lexicographic minimizers via whole value tuples, no sequential filtering."""
    tuples = [
        tuple(level(v) for level in levels) for v in polytope.vertices
    ]
    best = min(tuples)
    return FaceDescriptor(tuple(i for i, t in enumerate(tuples) if t == best))


def _inside(
    facets: Sequence[tuple[Sequence[int], int]],
    equations: Sequence[tuple[Sequence[int], int]],
    nums: Sequence[int],
    den: int,
) -> bool:
    """Whether nums / den (den > 0) meets every int row a.x <= b, then every a.x + c = 0."""
    return all(sum(map(mul, a, nums)) <= b * den for a, b in facets) and all(
        sum(map(mul, a, nums)) + c * den == 0 for a, c in equations
    )


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

    Membership reads the int facet and equation rows of the body and of
    the candidate's hull, taken once into locals, with the body's facets
    that are tight on the candidate first: for a true face, v leaves the
    body through one of them.  No ``Point`` is built until a witness.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    polytope._check_descriptor(candidate)
    hull = polytope.face_polytope(candidate)
    polytope.hull_manifold()  # the lazy hulls fill the equation rows read below
    hull.hull_manifold()
    mask = sum(1 << i for i in candidate.vertex_indices)
    tight_first = sorted(
        zip(polytope._masks, polytope._facet_rows), key=lambda item: item[0] & mask != mask
    )
    body_facets = [row for _mask, row in tight_first]
    body_equations = polytope._equation_rows
    face_facets, face_equations = hull._facet_rows, hull._equation_rows
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
        p, q = _choice(rng, step_choices)
        v_num = [(q + p) * t_u * a - p * t_m * b for a, b in zip(m_num, u_num)]
        den_u = t_u * scale
        den_v = q * t_m * den_u
        if not _inside(body_facets, body_equations, v_num, den_v):
            continue
        if not _inside(face_facets, face_equations, u_num, den_u) or not _inside(
            face_facets, face_equations, v_num, den_v
        ):
            return (
                Point(tuple(Fraction(a, den_u) for a in u_num)),
                Point(tuple(Fraction(a, den_v) for a in v_num)),
            )
    return None
