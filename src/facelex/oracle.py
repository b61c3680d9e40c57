"""Brute-force reference implementations used to cross-check the main paths.

These oracles trade speed for independence: they reach the same answers
through definitionally different routes, so agreement is meaningful.  They
ship in the library (not only in the tests) to back the CLI --cross-check
flag.  All randomness flows through an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Sequence

from .core import (
    LinearFunctional,
    Point,
    affine_hull,
    nullspace_basis,
    primitive_tuple,
    solve_linear_system,
)
from .errors import SizeGuardExceededError
from .polytope import FaceDescriptor, Polytope
from .sampling import _int_combination, _int_weights

# Documented default seed for the randomized refuter: reproducible CI runs.
DEFAULT_REFUTER_SEED = 7193

_MAX_VERTICES = 12
_MAX_DIM = 4
_MAX_FACETS = 16  # candidate functionals grow as 2**facets
_MAX_SUBSETS = 4096  # oracle_facets solves one nullspace per d-subset; the 4-cube needs 1820


def oracle_facets(points: Sequence[Point]) -> list[tuple[LinearFunctional, Fraction, tuple[int, ...]]]:
    """Facets of conv(points) relative to its affine hull, in ambient form.

    Brute force: every hyperplane through an affinely independent d-subset
    (d the intrinsic dimension) is kept when all points lie weakly on one
    side, oriented as functional(x) <= offset, and deduplicated by the
    normalized (functional, offset) pair.  This tries all C(n, d) subsets,
    one nullspace solve each, so it is meant for desk-scale inputs only;
    the result has the shape and order of the main path's facet list.
    """
    hull = affine_hull(points)
    d = hull.dim
    if d == 0:
        return []
    if comb(len(points), d) > _MAX_SUBSETS:
        raise SizeGuardExceededError(
            f"oracle_facets guard: C({len(points)}, {d}) subsets exceed {_MAX_SUBSETS}"
        )
    ambient = hull.ambient_dim

    if d == ambient:
        intrinsic = [p.coords for p in points]
        to_ambient = None
    else:
        # Intrinsic coordinates t with x = base + D t; D has independent
        # columns, so G = (D^T D)^{-1} D^T is an exact left inverse.
        columns = [dir_.coords for dir_ in hull.directions]  # rows here = D columns
        gram = [
            [sum(a * b for a, b in zip(columns[i], columns[j])) for j in range(d)]
            for i in range(d)
        ]
        g_rows: list[list[Fraction]] = []
        for k in range(ambient):
            rhs = [columns[i][k] for i in range(d)]
            col = solve_linear_system(gram, rhs, d)
            assert col is not None  # gram matrix of independent columns is invertible
            g_rows.append(col)
        # g_rows[k][j] = G[j][k]; intrinsic coords of x are G (x - base).
        base = hull.base

        def coords_of(p: Point) -> tuple[Fraction, ...]:
            delta = p - base
            return tuple(
                sum(g_rows[k][j] * delta.coords[k] for k in range(ambient))
                for j in range(d)
            )

        intrinsic = [coords_of(p) for p in points]
        to_ambient = (g_rows, base)

    found: dict[tuple[tuple[Fraction, ...], Fraction], tuple[LinearFunctional, Fraction, tuple[int, ...]]] = {}
    for subset in combinations(range(len(points)), d):
        rows = [list(intrinsic[i]) + [Fraction(-1)] for i in subset]
        kernel = nullspace_basis(rows, d + 1)
        if len(kernel) != 1:
            continue  # affinely dependent subset
        *w, c = kernel[0]
        values = [sum(wk * tk for wk, tk in zip(w, t)) for t in intrinsic]
        if all(v <= c for v in values):
            pass
        elif all(v >= c for v in values):
            w = [-wk for wk in w]
            c = -c
            values = [-v for v in values]
        else:
            continue
        tight = tuple(i for i, v in enumerate(values) if v == c)

        if to_ambient is None:
            coeffs: Sequence[Fraction] = w
            offset = c
        else:
            g_rows, base = to_ambient
            coeffs = [
                sum(w[j] * g_rows[k][j] for j in range(d)) for k in range(ambient)
            ]
            offset = c + sum(ck * bk for ck, bk in zip(coeffs, base.coords))

        normalized = primitive_tuple(tuple(coeffs) + (offset,))
        key = (normalized[:-1], normalized[-1])
        if key not in found:
            found[key] = (LinearFunctional(normalized[:-1]), normalized[-1], tight)
    return sorted(found.values(), key=lambda item: (item[0].coeffs, item[1]))


def oracle_faces(polytope: Polytope) -> tuple[FaceDescriptor, ...]:
    """Face enumeration by recursive-exposure closure.

    Start from the whole vertex set; for every known face, minimize every
    sum of a subset of inward facet normals of its hull and record the
    argmin vertex sets; iterate to a fixpoint.  This never intersects
    tight sets, and it finds facets with :func:`oracle_facets`, so it is
    independent of both the facet-intersection route and the main path's
    facet enumeration.
    """
    if len(polytope.vertices) > _MAX_VERTICES or polytope.ambient_dim > _MAX_DIM:
        raise SizeGuardExceededError(
            f"oracle_faces guard: at most {_MAX_VERTICES} vertices in dim {_MAX_DIM}"
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
        inward = [-functional for functional, _offset, _tight in facets]
        local = list(face.vertex_indices)  # face point k is polytope vertex local[k]
        for mask in range(1, 1 << len(inward)):
            coeffs = [0] * polytope.ambient_dim
            for bit, normal in enumerate(inward):
                if mask >> bit & 1:
                    coeffs = [a + b for a, b in zip(coeffs, normal.coeffs)]
            functional = LinearFunctional(tuple(coeffs))
            values = [functional(v) for v in points]
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
    scale = lcm(*(x._scaled[1] for x in polytope.vertices))
    corners = [[n * (scale // den) for n in nums] for nums, den in (x._scaled for x in polytope.vertices)]
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
