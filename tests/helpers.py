"""Shared constructors, samplers, and exact checkers for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm
from typing import Sequence

import facelex as fx
from facelex.sampling import _int_combination, _int_weights


def pt(*coords) -> fx.Point:
    return fx.Point(tuple(Fraction(c) for c in coords))


def lf(*coeffs) -> fx.LinearFunctional:
    return fx.LinearFunctional(tuple(Fraction(c) for c in coeffs))


def af(coeffs, offset=0) -> fx.AffineFunctional:
    return fx.AffineFunctional(lf(*coeffs), Fraction(offset))


def step(*functionals) -> fx.StepAffineFunction:
    return fx.StepAffineFunction(fx.Cortege(tuple(functionals)))


def facet_triples(polytope: fx.Polytope) -> set[tuple[tuple[int, ...], int]]:
    """Facets as ((integer coefficients), integer offset) pairs for goldens."""
    out = set()
    for f in polytope.facets():
        out.add((tuple(int(c) for c in f.functional.coeffs), int(f.offset)))
    return out


# -- fixture polytopes -------------------------------------------------------

RANDOM_01_SPECS = ((2, 3), (3, 5), (3, 7), (4, 8), (4, 10))
RANDOM_01_SEED = 101


def simplex(dim: int) -> fx.Polytope:
    rows = [tuple(0 for _ in range(dim))]
    for i in range(dim):
        rows.append(tuple(1 if j == i else 0 for j in range(dim)))
    return fx.Polytope(rows)


def cube(dim: int) -> fx.Polytope:
    return fx.Polytope(list(itertools.product((0, 1), repeat=dim)))


def octahedron() -> fx.Polytope:
    rows = []
    for i in range(3):
        for sign in (1, -1):
            rows.append(tuple(sign if j == i else 0 for j in range(3)))
    return fx.Polytope(rows)


def unit_square() -> fx.Polytope:
    return fx.Polytope([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_01_polytope(index: int) -> fx.Polytope:
    dim, count = RANDOM_01_SPECS[index]
    rng = random.Random((RANDOM_01_SEED << 8) | index)
    pool = [tuple(int(b) for b in format(i, f"0{dim}b")) for i in range(2**dim)]
    return fx.Polytope(rng.sample(pool, count))


def build_fixtures() -> dict[str, fx.Polytope]:
    fixtures = {
        "2-simplex": simplex(2),
        "3-simplex": simplex(3),
        "4-simplex": simplex(4),
        "unit-square": unit_square(),
        "3-cube": cube(3),
        "4-cube": cube(4),
        "octahedron": octahedron(),
    }
    for i in range(len(RANDOM_01_SPECS)):
        fixtures[f"random-01-{i}"] = random_01_polytope(i)
    return fixtures


# -- disk fixtures -----------------------------------------------------------


def cone_body() -> fx.DiskBody:
    return fx.DiskBody([((0, 0), 3), ((5, 0), 0)])


def stadium_body() -> fx.DiskBody:
    return fx.DiskBody([((0, 0), 1), ((4, 0), 1)])


def circle_point(center: fx.Point, radius: Fraction, t: Fraction) -> fx.Point:
    """Exact rational point on the circle via the tangent half-angle map."""
    denom = 1 + t * t
    return fx.Point(
        (
            center[0] + radius * (1 - t * t) / denom,
            center[1] + radius * 2 * t / denom,
        )
    )


def disk_body_samples(body: fx.DiskBody, rng: random.Random, count: int) -> list[fx.Point]:
    """Seeded rational points of the body: circle points (scaled inward),
    tangency-polygon combinations, edge points, and all edge endpoints."""
    samples: list[fx.Point] = []
    edges = body.edges()
    polygon = [p for e in edges for p in e.endpoints] + [
        d.center for d in body.disks if d.radius == 0
    ]
    for edge in edges:
        samples.append(edge.endpoints[0])
        samples.append(edge.endpoints[1])
    while len(samples) < count:
        kind = rng.randrange(3)
        if kind == 0:
            disk = body.disks[rng.randrange(len(body.disks))]
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            rim = circle_point(disk.center, disk.radius, t)
            shrink = Fraction(rng.randint(0, 8), 8)
            samples.append(disk.center + (rim - disk.center).scaled(shrink))
        elif kind == 1 and polygon:
            samples.append(sample_in_hull(rng, polygon))
        elif edges:
            edge = edges[rng.randrange(len(edges))]
            lam = Fraction(rng.randint(0, 16), 16)
            a, b = edge.endpoints
            samples.append(a + (b - a).scaled(lam))
        else:
            samples.append(body.disks[0].center)
    return samples[:count]


# -- random validated families ------------------------------------------------


def random_preorder(rng: random.Random, dim: int, max_rank: int = 3) -> fx.LexPreorder:
    """A seeded validated preorder of rank <= min(max_rank, dim)."""
    rank = rng.randint(1, min(max_rank, dim))
    while True:
        levels = tuple(
            fx.LinearFunctional(tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)))
            for _ in range(rank)
        )
        try:
            return fx.LexPreorder(levels)
        except fx.InvalidCortegeError:
            continue


def random_cortege(rng: random.Random, dim: int, max_rank: int = 3) -> fx.Cortege:
    """A seeded validated cortege of affine functionals."""
    rank = rng.randint(1, min(max_rank, dim))
    while True:
        funcs = tuple(
            af(
                [rng.randint(-3, 3) for _ in range(dim)],
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for _ in range(rank)
        )
        try:
            return fx.Cortege(funcs)
        except fx.InvalidCortegeError:
            continue


def count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` for the test so each call's arguments are recorded."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class AngleWithin:
    """Reference order on directions within one half-turn: the cross
    product orders their angles."""

    def __init__(self, vec: Sequence[Fraction]):
        self.vec = vec

    def cross(self, other: "AngleWithin") -> Fraction:
        return self.vec[0] * other.vec[1] - self.vec[1] * other.vec[0]

    def __lt__(self, other: "AngleWithin") -> bool:
        return self.cross(other) > 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AngleWithin) and self.cross(other) == 0


def ccw_reference_key(v: Sequence[Fraction]) -> tuple:
    """Counterclockwise angle from +x: the half-turn, then the cross product."""
    half = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    return half, AngleWithin(v)


def literal_first_nonzero(cortege: fx.Cortege, x: fx.Point) -> Fraction:
    """Reference evaluator: least index with a nonzero value, else zero."""
    hit = [f for f in cortege.functionals if f(x) != 0]
    if not hit:
        return Fraction(0)
    return hit[0](x)


def assert_witness_valid(polytope: fx.Polytope, face: fx.FaceDescriptor, result: fx.NotAFace) -> None:
    """Exactly check a non-face witness: both ends in the body, w outside the
    candidate hull, and the candidate barycenter on the open segment."""
    w, z = result.witness
    assert polytope.contains(w)
    assert polytope.contains(z)
    hull = polytope.face_polytope(face)
    assert not hull.contains(w)
    b = polytope.barycenter_of(face)
    assert hull.contains(b)
    delta = w - z
    k = next(i for i in range(delta.dim) if delta[i] != 0)
    alpha = (b[k] - z[k]) / (w[k] - z[k])
    assert 0 < alpha < 1
    assert w.scaled(alpha) + z.scaled(1 - alpha) == b


def rref(rows: Sequence[Sequence[Fraction]], width: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row-echelon form and pivot column list.

    Test-only reference: the batch elimination the library used before
    ``IncrementalSpan`` became its only engine.  Pass ``Fraction`` entries,
    since an ``int`` row divided by an ``int`` pivot would give floats.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r][col]
        mat[r] = [v / pivot for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


# -- rational samplers on the refuter's integer draws ------------------------


def _combination(points: Sequence[fx.Point], scales: Sequence[int], den: int) -> fx.Point:
    """The point ``sum(scales[i] * points[i]) / den``, for int scales and an int den > 0."""
    scaled = [p._scaled for p in points]
    den_p = lcm(*(d for _nums, d in scaled))
    rows = [nums for nums, _d in scaled]
    nums = _int_combination(rows, [s * (den_p // d) for s, (_nums, d) in zip(scales, scaled)])
    den *= den_p
    return fx.Point(tuple(Fraction(n, den) for n in nums))


def convex_weights(
    rng: random.Random, count: int, *, positive: bool = False, span: int = 8
) -> tuple[Fraction, ...]:
    """Random rational weights summing to one (all strictly positive on demand)."""
    raw = _int_weights(rng, count, positive, span)
    total = sum(raw)
    return tuple(Fraction(r, total) for r in raw)


def combine(points: Sequence[fx.Point], weights: Sequence[Fraction]) -> fx.Point:
    """Weighted sum of points with exact rational weights."""
    den = lcm(*(w.denominator for w in weights))
    return _combination(points, [w.numerator * (den // w.denominator) for w in weights], den)


def sample_in_hull(rng: random.Random, points: Sequence[fx.Point], *, positive: bool = False) -> fx.Point:
    """A random rational convex combination of the given points, drawn as
    ``oracle_refute_face`` draws its weights."""
    weights = _int_weights(rng, len(points), positive)
    return _combination(points, weights, sum(weights))


# -- test-only references for the integer membership, sampling and refuter paths


def reference_contains(polytope: fx.Polytope, x: fx.Point) -> bool:
    """Membership through ``Fraction`` arithmetic: the hull equations, then
    every facet slack, as ``Polytope.contains`` did before it scaled points
    to integers."""
    if not all(eq(x) == 0 for eq in polytope.hull_manifold().equations()):
        return False
    return all(f.slack(x) >= 0 for f in polytope.facets())


def reference_convex_weights(
    rng: random.Random, count: int, *, positive: bool = False, span: int = 8
) -> tuple[Fraction, ...]:
    """Random rational weights summing to one (all strictly positive on demand)."""
    low = 1 if positive else 0
    raw = [rng.randint(low, span) for _ in range(count)]
    if sum(raw) == 0:
        raw[rng.randrange(count)] = 1
    total = Fraction(sum(raw))
    return tuple(Fraction(r) / total for r in raw)


def reference_combine(points: Sequence[fx.Point], weights: Sequence[Fraction]) -> fx.Point:
    """Weighted sum of points with exact rational weights."""
    coords = [Fraction(0)] * points[0].dim
    for p, w in zip(points, weights):
        for k, c in enumerate(p.coords):
            coords[k] += w * c
    return fx.Point(tuple(coords))


def reference_refute_face(
    polytope: fx.Polytope,
    candidate: fx.FaceDescriptor,
    trials: int,
    seed: int = 7193,
) -> tuple[fx.Point, fx.Point] | None:
    """Randomized search for a segment violating the face property.

    Test-only reference: ``oracle_refute_face`` as it was on ``Fraction``
    points, with membership by :func:`reference_contains`, so it runs none
    of the refuter's integer arithmetic.  It draws its points with
    ``sample_in_hull``, on the integer kernels that ``tests/test_sampling.py``
    checks against the ``Fraction`` references above.
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    polytope._check_descriptor(candidate)
    hull = polytope.face_polytope(candidate)
    rng = random.Random(seed)
    step_choices = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    for _ in range(trials):
        m = sample_in_hull(rng, hull.vertices, positive=True)
        u = sample_in_hull(rng, polytope.vertices)
        if u == m:
            continue
        step = rng.choice(step_choices)
        v = m + (m - u).scaled(step)
        if not reference_contains(polytope, v):
            continue
        if not reference_contains(hull, u) or not reference_contains(hull, v):
            return (u, v)
    return None
