"""diskhull: Pythagorean disk bodies, their faces, certificates and support.

Bodies come in two seeded families whose hull edges are known in closed
form, so every bitangent and tangency point stays rational:
- polygon bodies: equal disks centred on a centrally symmetric polygon
  whose edges run along Pythagorean directions, plus equal disks centred
  strictly inside it (two disks make a stadium);
- cone bodies: one disk and an apex point at a Pythagorean distance along
  a Pythagorean direction.

Operations: build a body cold and list its faces; certify each edge,
tangency point and a rational arc point of a warm body; test membership of
seeded batches of points; and minimize seeded directions over two-disk
bodies.  The support directions have norms on a jittered logarithmic grid
from 1 to 10^6 and squarefree-looking |l|^2, so the square-free split in
``QuadScalar`` costs a continuous spread of times up to about a second.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from exact import Vec, decimal_sqrt_sum, dot, exact_root, first_nonzero, vec
from ops import Op, require

POLYGON_DIRECTIONS = ((1, 0), (4, 3), (3, 4), (0, 1), (-3, 4), (-4, 3))
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))
# Polygon bodies by number of edge directions (1 gives a stadium), then cones.
POLYGON_SIDES = (1, 1, 2, 2, 3, 3)
CONES = 3
SUPPORT_OPS = 30
SUPPORT_MAX_NORM_DIGITS = 6
SAMPLES_PER_BODY = 48
CONTAINS_BATCHES = 2
DECIMAL_DIGITS = 80


def _unit_directions() -> list[Vec]:
    """Rational unit vectors in all quadrants, from small Pythagorean triples."""
    out = {vec((1, 0)), vec((0, 1)), vec((-1, 0)), vec((0, -1))}
    for a, b, c in TRIPLES:
        for x, y in ((a, b), (b, a)):
            for sx in (1, -1):
                for sy in (1, -1):
                    out.add(vec((Fraction(sx * x, c), Fraction(sy * y, c))))
    return sorted(out)


UNITS = _unit_directions()


def _cross(u, v) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _add(p, q, scale=1) -> Vec:
    return (p[0] + scale * q[0], p[1] + scale * q[1])


@dataclass
class ExpectedEdge:
    normal: Vec  # outward unit normal
    offset: Fraction  # normal . x <= offset on the body
    ends: tuple[Vec, Vec]
    tangencies: int  # endpoints on disks of positive radius


@dataclass
class Body:
    label: str
    disks: list[tuple[Vec, Fraction]]
    edges: list[ExpectedEdge]
    arcs: list[tuple[int, Vec]]  # (disk index, outward unit normal inside its arc)
    families: int
    warm: object = None  # the DiskBody built once during set-up


def polygon_body(label: str, base: Vec, steps: list[Vec], radius: Fraction, inner: list[Vec]) -> Body:
    """Equal disks on the polygon base + steps[0] + ... (steps sorted by angle
    over half a turn, then negated), plus equal disks at ``inner`` centres."""
    steps = steps + [vec(-c for c in s) for s in steps]
    centers = [base]
    for step in steps[:-1]:
        centers.append(_add(centers[-1], step))
    edges = []
    for j, step in enumerate(steps):
        length = exact_root(step[0] ** 2 + step[1] ** 2)
        normal = (step[1] / length, -step[0] / length)
        a, b = centers[j], centers[(j + 1) % len(centers)]
        edges.append(ExpectedEdge(normal, dot(normal, a) + radius,
                                  (_add(a, normal, radius), _add(b, normal, radius)), 2))
    arcs = []
    for j in range(len(centers)):
        before, after = edges[j - 1].normal, edges[j].normal
        inside = [u for u in UNITS if _cross(before, u) > 0 and _cross(u, after) > 0]
        arcs.append((j, inside[len(inside) // 2]))
    disks = [(c, radius) for c in centers] + [(c, radius) for c in inner]
    return Body(label, disks, edges, arcs, len(centers))


def cone_body(label: str, center: Vec, triple: tuple[int, int, int], u: Vec) -> Body:
    """A disk of radius triple[0] and an apex at distance triple[2] along u."""
    radius, tangent, distance = (Fraction(t) for t in triple)
    apex = _add(center, u, distance)
    perp = (-u[1], u[0])
    edges = []
    for sign in (1, -1):
        # Tangent point c + r w with w . u = r / D: the radius meets the
        # tangent line from the apex at a right angle.
        w = tuple(radius / distance * u[k] + sign * tangent / distance * perp[k] for k in range(2))
        touch = _add(center, w, radius)
        edges.append(ExpectedEdge(w, dot(w, center) + radius, (touch, apex), 1))
    disks = [(center, radius), (apex, Fraction(0))]
    return Body(label, disks, edges, [(0, vec(-x for x in u)), (1, u)], 2)


def random_polygon(rng: random.Random, sides: int, index: int) -> Body:
    chosen = sorted(rng.sample(range(len(POLYGON_DIRECTIONS)), sides))
    steps = [vec(c * length for c in POLYGON_DIRECTIONS[k])
             for k, length in zip(chosen, (rng.randint(1, 2) for _ in chosen))]
    radius = Fraction(rng.randint(1, 3))
    base = vec((rng.randint(-5, 5), rng.randint(-5, 5)))
    body = polygon_body(f"polygon{sides}-{index}", base, steps, radius, [])
    centers = [c for c, _r in body.disks]
    if sides >= 2:
        weights = [rng.randint(1, 3) for _ in centers]
        total = sum(weights)
        body.disks.append((tuple(sum(Fraction(w) * c[k] for w, c in zip(weights, centers)) / total
                                 for k in range(2)), radius))
    return _shuffled(rng, body)


def random_cone(rng: random.Random, index: int) -> Body:
    a, b, c = rng.choice(TRIPLES)
    if rng.random() < 0.5:
        a, b = b, a
    m = rng.randint(1, 2)
    center = vec((rng.randint(-5, 5), rng.randint(-5, 5)))
    # Disk first, apex second: support_min compares the two values in list
    # order, and the order decides how many square-free splits it makes.
    return cone_body(f"cone-{index}", center, (m * a, m * b, m * c), rng.choice(UNITS))


def _shuffled(rng: random.Random, body: Body) -> Body:
    order = list(range(len(body.disks)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    body.disks = [body.disks[old] for old in order]
    body.arcs = [(position[i], u) for i, u in body.arcs]
    return body


def isometry(rng: random.Random):
    """A seeded symmetry of the integer plane: a quarter-turn rotation, maybe
    a reflection, and a translation.  It keeps every Pythagorean direction,
    so a body it moves poses the same problem.  Returns (turn, move): turn
    acts on directions, move on points."""
    quarter_turns, flip = rng.randrange(4), rng.random() < 0.5
    shift = vec((rng.randint(-5, 5), rng.randint(-5, 5)))

    def turn(v) -> Vec:
        x, y = v[0], -v[1] if flip else v[1]
        for _ in range(quarter_turns):
            x, y = -y, x
        return (x, y)

    return turn, lambda p: _add(turn(p), shift)


def moved(body: Body, turn, move) -> Body:
    edges = [ExpectedEdge(turn(e.normal), dot(turn(e.normal), move(e.ends[0])),
                          (move(e.ends[0]), move(e.ends[1])), e.tangencies) for e in body.edges]
    return Body(body.label, [(move(c), r) for c, r in body.disks], edges,
                [(i, turn(u)) for i, u in body.arcs], body.families)


def arc_point(body: Body, disk: int, outward: Vec) -> Vec:
    center, radius = body.disks[disk]
    return _add(center, outward, radius)


def body_samples(rng: random.Random, body: Body) -> list[Vec]:
    """Seeded exact points of the body, tangency and arc points included."""
    points = [p for e in body.edges for p in e.ends]
    points += [arc_point(body, i, u) for i, u in body.arcs]
    while len(points) < SAMPLES_PER_BODY:
        kind = rng.randrange(3)
        if kind == 0:
            center, radius = rng.choice(body.disks)
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            shrink = Fraction(rng.randint(0, 8), 8)
            rim = ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
            points.append(_add(center, rim, radius * shrink))
        elif kind == 1:
            corners = [p for e in body.edges for p in e.ends]
            weights = [rng.randint(0, 4) for _ in corners]
            weights[rng.randrange(len(weights))] += 1
            total = sum(weights)
            points.append(tuple(sum(w * p[k] for w, p in zip(weights, corners)) / total
                                for k in range(2)))
        else:
            edge = rng.choice(body.edges)
            lam = Fraction(rng.randint(0, 16), 16)
            points.append(_add(edge.ends[0], _add(edge.ends[1], edge.ends[0], -1), lam))
    return points


def _outside(rng: random.Random, body: Body, count: int) -> list[Vec]:
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            edge = rng.choice(body.edges)
            lam = Fraction(rng.randint(0, 8), 8)
            on = _add(edge.ends[0], _add(edge.ends[1], edge.ends[0], -1), lam)
            out.append(_add(on, edge.normal, Fraction(rng.randint(1, 8), 8)))
        else:
            disk, u = rng.choice(body.arcs)
            out.append(_add(arc_point(body, disk, u), u, Fraction(rng.randint(1, 8), 8)))
    return out


def _on_segment(p: Vec, a: Vec, b: Vec) -> bool:
    d = _add(b, a, -1)
    q = _add(p, a, -1)
    return _cross(d, q) == 0 and 0 <= dot(q, d) <= dot(d, d)


# -- support directions ----------------------------------------------------------


def _has_small_square_factor(n: int) -> bool:
    for p in range(2, 1000):
        if n % (p * p) == 0:
            return True
    return False


def _support_directions(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Integer directions with |l| on a jittered log grid from 1 to 10^6."""
    out = []
    for i in range(count):
        exponent = SUPPORT_MAX_NORM_DIGITS * (i + 0.5 + rng.uniform(-0.05, 0.05)) / count
        norm = max(2, round(10**exponent))
        while True:
            a = rng.randint(1, norm)
            b = math.isqrt(max(norm * norm - a * a, 1)) or 1
            if math.gcd(a, b) == 1 and not _has_small_square_factor(a * a + b * b):
                break
        out.append((a * rng.choice((1, -1)), b * rng.choice((1, -1))))
    return out


def _decimal_minimum(body: Body, direction: tuple[int, int]):
    """min over disks of l(c) - r|l|, and the disks attaining it, in decimal."""
    s = Fraction(direction[0] ** 2 + direction[1] ** 2)
    values = [decimal_sqrt_sum(dot(vec(direction), c), -r, s, DECIMAL_DIGITS) for c, r in body.disks]
    best = min(values)
    return best, [i for i, v in enumerate(values) if _close(v, best)]


def _close(a: Decimal, b: Decimal) -> bool:
    """Equal to half the working precision: exact values that agree."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return abs(a - b) <= max(1, abs(b)) * Decimal(10) ** -(DECIMAL_DIGITS // 2)


# -- checks ------------------------------------------------------------------------------


def check_faces(body: Body, faces) -> None:
    kinds = [type(f).__name__ for f in faces]
    edges = [f for f in faces if type(f).__name__ == "Edge"]
    require(len(edges) == len(body.edges), f"{len(edges)} edges, construction gives {len(body.edges)}")
    tangencies = sum(e.tangencies for e in body.edges)
    require(kinds.count("TangencyPoint") == tangencies,
            f"{kinds.count('TangencyPoint')} tangency points, construction gives {tangencies}")
    require(kinds.count("ArcFamily") == body.families, "arc family count differs from the construction")
    expected = {(e.normal, e.offset): e for e in body.edges}
    for edge in edges:
        coeffs = edge.normal.coeffs
        norm = exact_root(coeffs[0] ** 2 + coeffs[1] ** 2)
        require(norm is not None, f"edge normal {coeffs} has an irrational norm")
        key = (tuple(c / norm for c in coeffs), edge.offset / norm)
        require(key in expected, f"edge {coeffs} <= {edge.offset} is not a hull edge")
        require(set(p.coords for p in edge.endpoints) == set(expected[key].ends),
                f"edge {coeffs} has the wrong endpoints")


def check_certificate(levels, samples: list[Vec], zero: set[Vec], rank: int) -> None:
    require(len(levels) == rank, f"certificate of rank {len(levels)}, expected {rank}")
    values = [first_nonzero(levels, p) for p in samples]
    require(all(v >= 0 for v in values), "certificate negative at a body sample")
    require({p for p, v in zip(samples, values) if v == 0} == zero,
            "certificate vanishes on the wrong samples")


def _levels(cortege) -> list:
    return [(f.linear.coeffs, f.offset) for f in cortege.functionals]


def _check_support(body: Body, direction, result) -> None:
    value, face = result
    best, attaining = _decimal_minimum(body, direction)
    got = decimal_sqrt_sum(value.rational, value.coeff, value.radicand, DECIMAL_DIGITS)
    require(_close(got, best), f"support value {got} differs from {best}")
    g = math.gcd(*direction)
    require(type(face).__name__ == "ArcPoint" and [face.disk] == attaining
            and face.direction.coeffs == tuple(c // g for c in direction),
            f"support face {face!r} is not the arc point of disk {attaining}")


def build(lib, seed: int, workdir) -> list[Op]:
    fx, diskhull = lib.fx, lib.diskhull
    # Bodies and their sample points come from one fixed family that the
    # seed moves by a symmetry, so that the faces, certify and contains
    # operations cost the same on every seed; the support directions are
    # the seed's own.
    rng = random.Random(f"diskhull:{seed}")
    family = random.Random("diskhull:family")
    bodies = [random_polygon(family, sides, i) for i, sides in enumerate(POLYGON_SIDES)]
    bodies += [random_cone(family, i) for i in range(CONES)]
    turn, move = isometry(rng)

    def disks_of(body: Body):
        return [diskhull.Disk(fx.Point(c), r) for c, r in body.disks]

    ops = []
    for index, original in enumerate(bodies):
        samples = [move(p) for p in body_samples(family, original)]
        outside = [move(p) for p in _outside(family, original, SAMPLES_PER_BODY // 2)]
        body = bodies[index] = moved(original, turn, move)

        def faces(spec=disks_of(body)):
            return fx.DiskBody(spec).faces()

        ops.append(Op(f"{body.label}-faces", faces, lambda r, b=body: check_faces(b, r),
                      lambda r: tuple(r)))

        warm = fx.DiskBody(disks_of(body))
        for face in warm.faces():
            kind = type(face).__name__
            if kind == "Edge":
                ends = {p.coords for p in face.endpoints}
                known = [e.ends for e in body.edges if set(e.ends) == ends]
                zero = {p for p in samples if known and _on_segment(p, *known[0])} if known else None
                rank = 1
            elif kind == "TangencyPoint":
                zero, rank = {face.point.coords}, 2
            else:
                continue
            ops.append(Op(f"{body.label}-certify-{kind}", lambda w=warm, f=face: w.certify(f),
                          lambda r, s=samples, z=zero, k=rank: check_certificate(_levels(r), s, z, k),
                          _levels))
        for disk, outward in body.arcs:
            point = fx.ArcPoint(disk=disk, direction=fx.LinearFunctional(vec(-x for x in outward)).primitive())
            zero = {arc_point(body, disk, outward)}
            ops.append(Op(f"{body.label}-certify-ArcPoint", lambda w=warm, f=point: w.certify(f),
                          lambda r, s=samples, z=zero: check_certificate(_levels(r), s, z, 1), _levels))
        inside_count = SAMPLES_PER_BODY // (2 * CONTAINS_BATCHES)
        for batch in range(CONTAINS_BATCHES):
            inside = samples[batch * inside_count:(batch + 1) * inside_count]
            points = inside + outside[batch * inside_count:(batch + 1) * inside_count]
            expected = [True] * len(inside) + [False] * inside_count
            query = [fx.Point(p) for p in points]
            ops.append(Op(f"{body.label}-contains", lambda w=warm, q=query: [w.contains(p) for p in q],
                          lambda r, e=expected: require(r == e, "membership differs from the construction")))
        body.warm = warm

    two_disk = [b for b in bodies if len(b.disks) == 2]
    for i, direction in enumerate(_support_directions(rng, SUPPORT_OPS)):
        body = two_disk[i % len(two_disk)]
        while len(_decimal_minimum(body, direction)[1]) != 1:
            direction = (direction[0] + 1, direction[1])
        functional = fx.LinearFunctional(direction)
        ops.append(Op(f"support-{body.label}-10^{math.log10(abs(direction[0]) + abs(direction[1])):.1f}",
                      lambda w=body.warm, l=functional: w.support_min(l),
                      lambda r, b=body, d=direction: _check_support(b, d, r),
                      lambda r: (r[0].rational, r[0].coeff, r[0].radicand, r[1])))
    return ops
