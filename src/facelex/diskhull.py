"""Planar convex hulls of rational disks and points.

These bodies are the non-polyhedral test bed: the boundary mixes circular
arcs with straight bitangent edges, and the point where an edge meets a
circle has a unique supporting line whose contact set is the whole edge.
Such tangency points are therefore not exposed by any linear functional,
yet they carry rank-2 step-affine certificates (edge slack first, then a
functional along the edge).

Support values in an arbitrary rational direction live in a quadratic
extension (center term plus radius times the direction norm), so exact
comparisons use :class:`QuadScalar`.  Each pair of disks has its outer
common tangents in closed form over Q(h), h the square root of the squared
center distance minus the squared radius difference, and one
``QuadScalar`` sign per disk decides whether a disk crosses such a line.
A line that some disk crosses is not on the hull and is dropped whatever
its data; only a hull edge whose normal is irrational raises
:class:`UnsupportedConfigurationError`, since its edge, tangency points and
certificates would not be rational.

Each edge end names the largest disk touching the line there; any other
disk touching at that point is nested in it.  Walked counterclockwise,
the boundary alternates between edges and arcs, so the arc families are
read off the ring of edges sorted by normal angle: the arc after an edge
lies on the disk its end names.  The face list therefore depends only on
the body, not on the order or redundancy of the disks that describe it.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence

from .core import (
    AffineFunctional,
    LinearFunctional,
    Point,
    _require_same_dim,
    primitive_tuple,
)
from .errors import (
    UnsupportedConfigurationError,
    WholeBodyNotProperError,
    ZeroFunctionalError,
)
from .polytope import Polytope
from .stepaffine import Cortege


@total_ordering
@dataclass(frozen=True, eq=False)
class QuadScalar:
    """An exact value ``rational + coeff * sqrt(radicand)``.

    Construction rewrites a rational radicand p/q as the integer p*q (and
    divides the coefficient by q), and collapses degenerate forms (zero
    coefficient, zero or perfect-square radicand) to plain rationals.  An
    irrational value therefore has a positive non-square integer radicand,
    not necessarily square-free: no factoring is done.  Two values combine
    and compare by value when their radicands are compatible (equal, one
    side rational, or with a perfect-square product, as 8 and 2); that is
    exactly the invariant the disk geometry maintains.  Combining others
    raises ``ValueError``; comparing them for equality gives False.  A
    plain ``Fraction`` or ``int`` combines, orders and compares equal as
    the rational value it is, so ``<=`` and ``>=`` agree at equality.
    """

    rational: Fraction
    coeff: Fraction = Fraction(0)
    radicand: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        a = Fraction(self.rational)
        b = Fraction(self.coeff)
        s = Fraction(self.radicand)
        if s < 0:
            raise ValueError("negative radicand")
        if b != 0 and s != 0:
            # sqrt(p/q) = sqrt(p*q)/q; a perfect square p*q collapses.
            n = s.numerator * s.denominator
            b = b / s.denominator
            root = math.isqrt(n)
            if root * root == n:
                a += b * root
                b = Fraction(0)
                s = Fraction(0)
            else:
                s = Fraction(n)
        else:
            b = Fraction(0)
            s = Fraction(0)
        object.__setattr__(self, "rational", a)
        object.__setattr__(self, "coeff", b)
        object.__setattr__(self, "radicand", s)

    @classmethod
    def of(cls, value: Fraction | int) -> QuadScalar:
        return cls(Fraction(value))

    def is_rational(self) -> bool:
        return self.coeff == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.rational

    def sign(self) -> int:
        a, b, s = self.rational, self.coeff, self.radicand
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        # Opposite signs: compare the squares of the two magnitudes.
        lhs, rhs = a * a, b * b * s
        if lhs == rhs:
            return 0
        dominant_is_a = lhs > rhs
        if dominant_is_a:
            return 1 if a > 0 else -1
        return 1 if b > 0 else -1

    def _common_radicand(self, other: QuadScalar) -> tuple[Fraction, Fraction, Fraction]:
        """``(s, b, d)`` with self = a + b*sqrt(s) and other = c + d*sqrt(s).

        Radicands s != t are compatible exactly when s*t is a perfect square
        r*r, and then d*sqrt(t) = (d*r/s)*sqrt(s).
        """
        s, t = self.radicand, other.radicand
        if other.coeff == 0 or s == t:
            return s, self.coeff, other.coeff
        if self.coeff == 0:
            return t, self.coeff, other.coeff
        n = s.numerator * t.numerator
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError("mixed radicands")
        return s, self.coeff, other.coeff * root / s

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Fraction, int)):
            other = QuadScalar.of(other)
        elif not isinstance(other, QuadScalar):
            return NotImplemented
        try:
            _, b, d = self._common_radicand(other)
        except ValueError:
            return False
        return self.rational == other.rational and b == d

    def __hash__(self) -> int:
        # Equal values have equal rational parts, whatever their radicands.
        return hash(self.rational)

    def __add__(self, other: QuadScalar | Fraction | int) -> QuadScalar:
        if not isinstance(other, QuadScalar):
            other = QuadScalar.of(other)
        s, b, d = self._common_radicand(other)
        return QuadScalar(self.rational + other.rational, b + d, s)

    def __radd__(self, other: Fraction | int) -> QuadScalar:
        return self + other

    def __neg__(self) -> QuadScalar:
        return QuadScalar(-self.rational, -self.coeff, self.radicand)

    def __sub__(self, other: QuadScalar | Fraction | int) -> QuadScalar:
        if not isinstance(other, QuadScalar):
            other = QuadScalar.of(other)
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> QuadScalar:
        return (-self) + other

    def __mul__(self, other: QuadScalar | Fraction | int) -> QuadScalar:
        if not isinstance(other, QuadScalar):
            other = QuadScalar.of(other)
        s, b, d = self._common_radicand(other)
        rational = self.rational * other.rational + b * d * s
        coeff = self.rational * d + b * other.rational
        return QuadScalar(rational, coeff, s)

    def __rmul__(self, other: Fraction | int) -> QuadScalar:
        return self * other

    def __lt__(self, other: QuadScalar | Fraction | int) -> bool:
        if not isinstance(other, QuadScalar):
            other = QuadScalar.of(other)
        return (self - other).sign() < 0

    def __repr__(self) -> str:
        if self.coeff == 0:
            return f"QuadScalar({self.rational})"
        return f"QuadScalar({self.rational} + {self.coeff}*sqrt({self.radicand}))"


@dataclass(frozen=True)
class Disk:
    """A closed disk with rational center and radius (radius 0: a point)."""

    center: Point
    radius: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.center.dim != 2:
            raise ValueError("disks live in the plane")
        if self.radius < 0:
            raise ValueError("negative radius")

    def contains(self, p: Point) -> bool:
        delta = p - self.center
        return sum(c * c for c in delta.coords) <= self.radius * self.radius


# -- face records -----------------------------------------------------------


@dataclass(frozen=True)
class Whole:
    """The body itself (its improper face)."""


@dataclass(frozen=True)
class Edge:
    """A straight boundary segment on a common tangent of two disks.

    ``normal(x) <= offset`` supports the body; the endpoints are the
    tangency points on ``disks[0]`` and ``disks[1]`` in that order.
    """

    disks: tuple[int, int]
    normal: LinearFunctional
    offset: Fraction
    endpoints: tuple[Point, Point]


@dataclass(frozen=True)
class ArcPoint:
    """The unique minimizer of ``direction`` on the body (a smooth boundary
    point of one disk, or the disk's center when its radius is zero)."""

    disk: int
    direction: LinearFunctional


@dataclass(frozen=True)
class TangencyPoint:
    """An edge endpoint lying on a positive-radius disk.

    Its only supporting line is the edge's, whose contact set is the whole
    edge, so this face is not exposed; it still has a rank-2 certificate.
    """

    edge: Edge
    end: int  # 0 or 1, selecting edge.endpoints

    @property
    def point(self) -> Point:
        return self.edge.endpoints[self.end]


@dataclass(frozen=True)
class ArcFamily:
    """A symbolic family of exposed point faces on one disk.

    The family covers the outward normals strictly between ``start`` and
    ``end`` counterclockwise (both None for a full circle).  On a
    zero-radius disk the family degenerates to the single center point.
    ``representative`` is a canonical concrete member for certification.
    """

    disk: int
    start: LinearFunctional | None
    end: LinearFunctional | None
    representative: ArcPoint


DiskFace = Whole | Edge | ArcPoint | TangencyPoint | ArcFamily


# -- direction utilities ----------------------------------------------------


def _perp(v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """Rotate a plane vector by +90 degrees."""
    return (-v[1], v[0])


def _cross(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def _ccw_sort_key(v: Sequence[Fraction]):
    """Total order on nonzero directions by counterclockwise angle from +x."""
    half = 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1
    return half, _AngleWithin((v[0], v[1]))


class _AngleWithin:
    """Comparison helper: within one half-turn, cross product orders angles."""

    def __init__(self, vec: tuple[Fraction, Fraction]):
        self.vec = vec

    def __lt__(self, other: "_AngleWithin") -> bool:
        return _cross(self.vec, other.vec) > 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _AngleWithin) and _cross(self.vec, other.vec) == 0


def _describe(disk: Disk) -> str:
    """A disk for an error message, in plain rationals."""
    x, y = disk.center.coords
    return f"center ({x}, {y}) radius {disk.radius}"


def _direction_between(start: Sequence[Fraction], end: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
    """A rational direction strictly inside the CCW open arc from start to
    end, which are different directions.

    For antipodal bounds a quarter turn lands inside, otherwise the sum of
    the bounds (or its negation, for the reflex case) does.
    """
    cross = _cross(start, end)
    if cross > 0:
        return (start[0] + end[0], start[1] + end[1])
    if cross < 0:
        return (-(start[0] + end[0]), -(start[1] + end[1]))
    return _perp((start[0], start[1]))


# -- the body ---------------------------------------------------------------


class DiskBody:
    """Convex hull of finitely many rational disks and points in the plane."""

    def __init__(self, disks: Iterable[Disk | tuple]) -> None:
        items: list[Disk] = []
        seen: set[tuple] = set()
        for raw in disks:
            disk = raw if isinstance(raw, Disk) else Disk(Point(tuple(raw[0])), Fraction(raw[1]))
            key = (disk.center.coords, disk.radius)
            if key in seen:
                continue
            seen.add(key)
            items.append(disk)
        if not items:
            raise ValueError("a disk body needs at least one disk")
        self._disks = tuple(items)
        self._lock = threading.Lock()
        self._edges: tuple[Edge, ...] | None = None
        self._faces: tuple[DiskFace, ...] | None = None
        self._hull_polygon: Polytope | None = None

    @property
    def disks(self) -> tuple[Disk, ...]:
        return self._disks

    # -- support ------------------------------------------------------------

    def support_min(self, direction: LinearFunctional) -> tuple[QuadScalar, DiskFace]:
        """Exact minimum of a nonzero functional over the body, with its face.

        The minimum over one disk is ``l(center) - radius * |l|``; the
        reported face is the bitangent edge when the attaining disks touch
        the supporting line along a segment, and otherwise the arc point of
        the largest attaining disk.
        """
        _require_same_dim(2, direction.dim)
        if direction.is_zero():
            raise ZeroFunctionalError("support of the zero functional")
        s = sum(c * c for c in direction.coeffs)
        values = [
            QuadScalar(direction(d.center), -d.radius, s) for d in self._disks
        ]
        best = min(values)
        attaining = [i for i, v in enumerate(values) if v == best]
        if len(attaining) > 1:
            # An edge's normal is scaled with its offset into coprime
            # integers, so compare directions; one line supports per direction.
            outward = (-direction).primitive()
            for edge in self.edges():
                if edge.normal.primitive() == outward:
                    return best, edge
        # Tied disks with no edge between them touch the line at one common
        # point, which the largest of them names.
        disk = max(attaining, key=lambda m: self._disks[m].radius)
        return best, ArcPoint(disk=disk, direction=direction.primitive())

    def arc_point_coordinates(self, face: ArcPoint) -> tuple[QuadScalar, QuadScalar]:
        """Exact coordinates of an arc point: ``center - r * l / |l|``."""
        disk = self._disks[face.disk]
        s = sum(c * c for c in face.direction.coeffs)
        coords = []
        for ck, lk in zip(disk.center.coords, face.direction.coeffs):
            # r * lk / sqrt(s) == (r * lk / s) * sqrt(s)
            coords.append(QuadScalar(ck, -disk.radius * lk / s, Fraction(s)))
        return coords[0], coords[1]

    # -- hull structure -----------------------------------------------------

    def edges(self) -> tuple[Edge, ...]:
        """All straight hull edges (outer bitangent contact segments)."""
        with self._lock:
            if self._edges is not None:
                return self._edges
        found: dict[tuple, Edge] = {}
        for i, j in itertools.combinations(range(len(self._disks)), 2):
            for edge in self._pair_edges(i, j):
                found.setdefault((edge.normal.coeffs, edge.offset), edge)
        edges = tuple(sorted(found.values(), key=lambda edge: (edge.normal.coeffs, edge.offset)))
        with self._lock:
            self._edges = edges
        return edges

    def _pair_edges(self, i: int, j: int) -> list[Edge]:
        """The hull edges on the outer common tangents of disks i and j.

        Each end names the largest disk touching the line at that point;
        any other disk touching there is nested in it and tangent to it at
        that point, so every pair that finds the edge names the same disks.

        With D = c_i - c_j, L = |D|^2, k = r_j - r_i and h = sqrt(L - k^2),
        the tangents have the unit outward normals n = (k D + s h D') / L,
        s = +-1 and D' the quarter turn of D.  As
        n.D = k, both disks reach the same support, and disk m crosses the
        line when n.e + r_m - r_i > 0, e = c_m - c_i.  L times that is
        k D.e + L (r_m - r_i) + s h D'.e, one element of Q(h), so one
        ``QuadScalar`` sign decides each disk.  Only a line that no disk
        crosses can raise, when its normal is irrational.

        Concentric or nested disks (L - k^2 < 0) have no outer tangent.
        Internally tangent ones (h = 0) share one, which touches both at
        one point, so it is an edge only when a third disk touches it
        elsewhere, and that pair finds it.  For h > 0 the two contacts
        differ, so every line that no disk crosses is an edge.
        """
        ri, rj = self._disks[i].radius, self._disks[j].radius
        (xi, yi), (xj, yj) = self._disks[i].center.coords, self._disks[j].center.coords
        dx, dy = xi - xj, yi - yj
        length_sq = dx * dx + dy * dy
        k = rj - ri
        radicand = length_sq - k * k
        if radicand <= 0:
            return []
        root = QuadScalar(Fraction(0), Fraction(1), radicand)  # h, rational or not
        edges = []
        for s in (1, -1):
            touching: list[int] = []
            for m, disk in enumerate(self._disks):
                if m != i and m != j:
                    ex, ey = disk.center.coords[0] - xi, disk.center.coords[1] - yi
                    crossing = QuadScalar(
                        k * (dx * ex + dy * ey) + length_sq * (disk.radius - ri),
                        s * (dx * ey - dy * ex),
                        radicand,
                    ).sign()
                    if crossing > 0:
                        break
                    if crossing < 0:
                        continue
                touching.append(m)
            else:
                if root.is_rational():
                    h = s * root.rational
                    normal = ((k * dx - h * dy) / length_sq, (k * dy + h * dx) / length_sq)
                elif k == 0 and all(self._disks[m].radius == 0 for m in touching):
                    normal = (-s * dy, s * dx)  # every contact is a center
                else:
                    raise UnsupportedConfigurationError(
                        f"the outer tangent of disks {i} and {j} "
                        f"({_describe(self._disks[i])}, {_describe(self._disks[j])}) "
                        "is a hull edge with an irrational normal"
                    )
                along = _perp(normal)
                contact = []  # (position along the line, radius, disk, contact point)
                for m in touching:
                    (x, y), r = self._disks[m].center.coords, self._disks[m].radius
                    point = (x + r * normal[0], y + r * normal[1])
                    contact.append((along[0] * point[0] + along[1] * point[1], r, m, point))
                first = min(contact, key=lambda c: (c[0], -c[1]))
                last = max(contact, key=lambda c: (c[0], c[1]))
                scaled = primitive_tuple(normal + (normal[0] * xi + normal[1] * yi + ri,))
                edges.append(
                    Edge(
                        disks=(first[2], last[2]),
                        normal=LinearFunctional(scaled[:-1]),
                        offset=scaled[-1],
                        endpoints=(Point(first[3]), Point(last[3])),
                    )
                )
        return edges

    def faces(self) -> tuple[DiskFace, ...]:
        """Symbolic face list: the body, edges, tangency points, arc families.

        Arc families are direction ranges, not enumerated points; families
        on zero-radius disks are single exposed corner points.
        """
        with self._lock:
            if self._faces is not None:
                return self._faces
        faces: list[DiskFace] = [Whole()]
        edges = self.edges()
        faces.extend(edges)
        for edge in edges:
            for end in (0, 1):
                if self._disks[edge.disks[end]].radius > 0:
                    faces.append(TangencyPoint(edge=edge, end=end))
        faces.extend(self._arc_families(edges))
        result = tuple(faces)
        with self._lock:
            self._faces = result
        return result

    def _arc_families(self, edges: Sequence[Edge]) -> list[ArcFamily]:
        """One family per arc: between each edge and the next one
        counterclockwise, on the disk that ends the first.  A hull with
        edges has at least two, and no two share a normal."""
        if not edges:
            dominant = self._dominant_disk()
            if self._disks[dominant].radius == 0:
                return []  # a single point has no proper faces
            representative = ArcPoint(disk=dominant, direction=LinearFunctional((Fraction(1), Fraction(0))))
            return [ArcFamily(disk=dominant, start=None, end=None, representative=representative)]
        ring = sorted(edges, key=lambda edge: _ccw_sort_key(edge.normal.coeffs))
        families = []
        for edge, following in zip(ring, ring[1:] + ring[:1]):
            between = _direction_between(edge.normal.coeffs, following.normal.coeffs)
            probe = LinearFunctional(primitive_tuple(between))
            families.append(
                ArcFamily(
                    disk=edge.disks[1],
                    start=edge.normal,
                    end=following.normal,
                    representative=ArcPoint(disk=edge.disks[1], direction=(-probe).primitive()),
                )
            )
        families.sort(key=lambda fam: (fam.disk, fam.start.coeffs))
        return families

    def _dominant_disk(self) -> int:
        """The disk containing all others, for bodies without edges."""
        for i, big in enumerate(self._disks):
            ok = True
            for j, small in enumerate(self._disks):
                if i == j:
                    continue
                delta = small.center - big.center
                dist_sq = sum(c * c for c in delta.coords)
                reach = big.radius - small.radius
                if reach < 0 or dist_sq > reach * reach:
                    ok = False
                    break
            if ok:
                return i
        raise UnsupportedConfigurationError(
            "body has no straight edges and no dominant disk"
        )

    # -- membership ---------------------------------------------------------

    def _polygon(self) -> Polytope | None:
        """The polygon on the edge endpoints; with the disks it covers the
        body.  A body without edges is its dominant disk and has none."""
        with self._lock:
            if self._hull_polygon is not None:
                return self._hull_polygon
        edges = self.edges()
        if not edges:
            return None
        polygon = Polytope([p for edge in edges for p in edge.endpoints])
        with self._lock:
            self._hull_polygon = polygon
        return polygon

    def contains(self, p: Point) -> bool:
        """Exact membership: inside some disk or inside the tangency polygon."""
        _require_same_dim(2, p.dim)
        if any(d.contains(p) for d in self._disks):
            return True
        polygon = self._polygon()
        return polygon is not None and polygon.contains(p)

    # -- certificates -------------------------------------------------------

    def certify(self, face: DiskFace) -> Cortege:
        """Step-affine certificate: rank 1 for exposed faces, rank 2 for
        tangency points (edge slack, then a functional along the edge)."""
        if isinstance(face, Whole):
            raise WholeBodyNotProperError("the body itself cannot be certified")
        if isinstance(face, ArcFamily):
            face = face.representative
        if isinstance(face, Edge):
            return Cortege((AffineFunctional(-face.normal, face.offset),))
        if isinstance(face, ArcPoint):
            value, reported = self.support_min(face.direction)
            if not (isinstance(reported, ArcPoint) and reported.disk == face.disk):
                raise ValueError(
                    f"direction {face.direction.coeffs} does not expose disk {face.disk}"
                )
            if not value.is_rational():
                raise UnsupportedConfigurationError(
                    "support value in this direction is irrational; "
                    "certify along a rational-norm direction instead"
                )
            return Cortege((AffineFunctional(face.direction, -value.as_rational()),))
        if isinstance(face, TangencyPoint):
            touch = face.point
            other = face.edge.endpoints[1 - face.end]
            slack = AffineFunctional(-face.edge.normal, face.edge.offset)
            along_coeffs = primitive_tuple((other - touch).coords)
            along = LinearFunctional(along_coeffs)
            return Cortege((slack, AffineFunctional(along, -along(touch))))
        raise TypeError(f"not a disk face: {face!r}")

    def is_exposed(self, face: DiskFace) -> bool:
        """Whether some linear functional attains its minimum exactly on the face.

        Decided structurally: edges and arc points are exposed by their
        supporting directions; a tangency point is not, because its only
        supporting line touches along the entire edge.
        """
        if isinstance(face, Whole):
            raise WholeBodyNotProperError("exposedness is asked of proper faces")
        if isinstance(face, ArcFamily):
            face = face.representative
        if isinstance(face, (Edge, ArcPoint)):
            return True
        if isinstance(face, TangencyPoint):
            return False
        raise TypeError(f"not a disk face: {face!r}")
