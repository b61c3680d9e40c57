"""lattice: polytopes built cold from raw point sets, then facets and faces.

Every operation constructs a ``Polytope`` from its raw input points and
asks for ``facets()`` and ``all_faces()``, so nearly all of its time goes to
vertex canonicalization and facet enumeration over exact elimination.
Nothing here touches ``certify`` or ``diskhull``.

Inputs:
- closed forms: squares, 3-cubes, and cross-polytopes and simplices in
  dimensions 2-4, placed by the seed, their vertices in a seeded order
  (the 4-cube is left out: its facets alone take about a second);
- 0/1 polytopes: subsets of the cube's vertices, with repeats;
- clouds: points on the paraboloid x_d = |x'|^2 (so all are extreme),
  with interior points and repeats mixed in.
Sizes form a ladder so that operation costs spread from about a
millisecond to about a fifth of a second without gaps.
"""

from __future__ import annotations

import itertools
import random

from exact import (
    Shape,
    Vec,
    affine_rank,
    convex_combination,
    cube_symmetry,
    dot,
    euler_poincare_holds,
    random_shape,
    vec,
)
from ops import Op, require

# (kind, dimension, copies)
CLOSED_FORMS = (
    ("cube", 2, 8), ("cube", 3, 3),
    ("cross", 2, 8), ("cross", 3, 4), ("cross", 4, 2),
    ("simplex", 2, 8), ("simplex", 3, 5), ("simplex", 4, 4),
)
# (dimension, points kept, repeats added, copies)
ZERO_ONE = (
    (2, 3, 1, 6), (2, 4, 1, 6),
    (3, 4, 1, 3), (3, 5, 1, 3), (3, 6, 1, 3), (3, 7, 1, 2),
    (4, 5, 1, 3), (4, 6, 1, 3), (4, 7, 1, 2),
)
# (dimension, extreme points, interior points added, repeats added)
CLOUDS = tuple(
    (d, n, interior, repeats)
    for d, sizes, two_interior in ((2, range(4, 10), 8), (3, range(5, 8), 7), (4, range(6, 8), 0))
    for n in sizes
    for interior, repeats in ((0, 1), (1, 1), (2, 0))
    if interior < 2 or n < two_interior
)


class Case:
    """Raw input points plus what the output must be, known by construction."""

    def __init__(self, label: str, points: list[Vec], extreme: set[Vec], shape: Shape | None = None):
        self.label = label
        self.points = points
        self.shape = shape
        self.kept: list[Vec] = []
        self.added: list[Vec] = []
        for p in points:
            if p in extreme and p not in self.kept:
                self.kept.append(p)
            else:
                self.added.append(p)
        self.dim = affine_rank(self.kept)


def _closed_form(rng: random.Random, kind: str, dim: int) -> Case:
    shape = random_shape(rng, kind, dim)
    points = shape.vertices()
    return Case(f"{kind}{dim}", points, set(points), shape)


def _zero_one(rng: random.Random, dim: int, count: int, repeats: int) -> Case:
    kept = [vec(p) for p in rng.sample(list(itertools.product((0, 1), repeat=dim)), count)]
    points = kept + [rng.choice(kept) for _ in range(repeats)]
    rng.shuffle(points)
    return Case(f"01-{dim}d-{count}", points, set(kept))


def _cloud(rng: random.Random, dim: int, count: int, interior: int, repeats: int) -> Case:
    extreme: list[Vec] = []
    while len(extreme) < count:
        x = [rng.randint(-9, 9) for _ in range(dim - 1)]
        p = vec(x + [sum(v * v for v in x)])
        if p not in extreme:
            extreme.append(p)
    extra = []
    for _ in range(interior):
        # A positive combination of two or more distinct points of a strictly
        # convex surface lies strictly above it, so it is never extreme.
        chosen = rng.sample(extreme, rng.randint(2, min(4, count)))
        extra.append(convex_combination(chosen, [rng.randint(1, 4) for _ in chosen]))
    extra += [rng.choice(extreme) for _ in range(repeats)]
    points = extreme + extra
    rng.shuffle(points)
    return Case(f"cloud-{dim}d-{count}+{interior}i{repeats}r", points, set(extreme))


def _mapped(case: Case, f) -> Case:
    return Case(case.label, [f(p) for p in case.points], {f(p) for p in case.kept}, case.shape)


def _isometry(rng: random.Random, dim: int):
    """A seeded signed permutation of x' (it keeps the paraboloid), then a
    translation of every coordinate."""
    order = rng.sample(range(dim - 1), dim - 1)
    signs = [rng.choice((1, -1)) for _ in order]
    shift = [rng.randint(-9, 9) for _ in range(dim)]
    return lambda p: tuple(s * p[k] + t for k, s, t in zip(order, signs, shift)) + (p[-1] + shift[-1],)


def cases(seed: int) -> list[Case]:
    """Closed forms are drawn from the seed.  The 0/1 polytopes and clouds
    come from one fixed family that the seed moves by a symmetry: the
    restart loop of the constructor costs very different amounts on point
    sets of one size, and a symmetry keeps that cost from varying with the
    seed while the inputs still do."""
    rng = random.Random(f"lattice:{seed}")
    family = random.Random("lattice:family")
    out = []
    for kind, dim, copies in CLOSED_FORMS:
        out += [_closed_form(rng, kind, dim) for _ in range(copies)]
    for dim, count, repeats, copies in ZERO_ONE:
        out += [_mapped(_zero_one(family, dim, count, repeats), cube_symmetry(rng, dim))
                for _ in range(copies)]
    out += [_mapped(_cloud(family, *spec), _isometry(rng, spec[0])) for spec in CLOUDS]
    return out


def _summary(result) -> tuple:
    polytope, facets, faces = result
    return (
        tuple(v.coords for v in polytope.vertices),
        tuple(p.coords for p in polytope.removed_points),
        tuple((f.functional.coeffs, f.offset, f.tight_vertices) for f in facets),
        tuple(f.vertex_indices for f in faces),
    )


def _check(case: Case, result) -> None:
    vertices, removed, facets, faces = _summary(result)
    require(list(vertices) == case.kept, "kept vertices are not the extreme points in first-seen order")
    require(sorted(removed) == sorted(case.added), "removed points are not exactly the added ones")
    d = case.dim
    for coeffs, offset, tight in facets:
        values = [dot(coeffs, v) for v in vertices]
        require(all(value <= offset for value in values), f"facet {coeffs} <= {offset} cuts a vertex")
        require(tight == tuple(i for i, value in enumerate(values) if value == offset),
                f"facet {coeffs} <= {offset} reports the wrong tight vertices")
        require(affine_rank([vertices[i] for i in tight]) == d - 1,
                f"facet {coeffs} <= {offset} is not a ridge of dimension {d - 1}")
    require(len({(c, o) for c, o, _t in facets}) == len(facets), "duplicate facets")
    dims = [affine_rank([vertices[i] for i in face]) for face in faces]
    require(dims.count(d) == 1 and faces[dims.index(d)] == tuple(range(len(vertices))),
            "the whole polytope is not listed exactly once")
    require(dims.count(d - 1) == len(facets) or d == 0, "facet count differs from the (d-1)-faces")
    require(euler_poincare_holds(dims, d), f"f-vector breaks Euler-Poincare in dimension {d}")
    if case.shape is not None:
        shape = case.shape
        require(len(faces) == shape.face_count(), f"{len(faces)} faces, closed form {shape.face_count()}")
        require(set(faces) == set(shape.faces()), "face lattice differs from the closed form")
        require({(c, o) for c, o, _t in facets} == shape.facets(), "facets differ from the closed-form H-representation")


def build(lib, seed: int, workdir) -> list[Op]:
    Polytope = lib.fx.Polytope
    ops = []
    for case in cases(seed):
        def run(points=case.points):
            polytope = Polytope(points)
            return polytope, polytope.facets(), polytope.all_faces()

        ops.append(Op(case.label, run, lambda result, case=case: _check(case, result), _summary))
    return ops
