"""V-representation polytopes with exact facet and face-lattice queries.

Facets come from the exact double-description method on integer
coordinates (see :func:`_hull_facets`); one facet pass over the input
points also decides which of them are vertices.  Lower-dimensional
polytopes are handled intrinsically, in coordinates of their affine hull,
and results are mapped back to ambient coordinates.  The brute-force
enumeration this replaced lives on in :mod:`facelex.oracle` as an
independent cross-check.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from .core import (
    AffineFunctional,
    AffineManifold,
    IncrementalSpan,
    LinearFunctional,
    Point,
    _over_common_denominator,
    _require_same_dim,
    affine_hull,
    barycenter,
    nullspace_basis,
)
from .errors import EmptyFaceError, NotAMemberError


@dataclass(frozen=True)
class FaceDescriptor:
    """A face named by the sorted set of polytope vertex indices it spans."""

    vertex_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_indices", tuple(sorted(set(self.vertex_indices))))

    def __len__(self) -> int:
        return len(self.vertex_indices)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.vertex_indices)

    def intersect(self, other: FaceDescriptor) -> FaceDescriptor:
        return FaceDescriptor(tuple(self.as_set() & other.as_set()))


@dataclass(frozen=True)
class Facet:
    """A facet inequality ``functional(x) <= offset``, tight on tight_vertices.

    Coefficients and offset are jointly scaled to coprime integers; the sign
    is fixed by the <= orientation over the polytope.
    """

    functional: LinearFunctional
    offset: Fraction
    tight_vertices: tuple[int, ...]

    def slack(self, x: Point) -> Fraction:
        return self.offset - self.functional(x)


def _scaled_rows(points: Sequence[Point]) -> tuple[int, list[list[int]]]:
    """The lcm L of the points' denominators, and the int vectors X_i = L x_i."""
    scaled = [p._scaled for p in points]
    big = lcm(*(den for _nums, den in scaled))
    return big, [[v * (big // den) for v in nums] for nums, den in scaled]


def _intrinsic_chart(
    big: int, xs: Sequence[Sequence[int]]
) -> tuple[int, list[tuple[int, ...]], Callable[[Sequence[int]], tuple[LinearFunctional, Fraction]]]:
    """Int coordinates of points in their affine hull, and the way back.

    The points scaled by the lcm L of their denominators are the int
    vectors X_i of :func:`_scaled_rows`.  One span pass leaves X_i - X_0
    spanned by echelon rows D_j with pivot piv_j at column c_j, zero at the
    other pivots: v = sum y_j D_j has v[c_j] = piv_j y_j, so the pivot
    entries of X_i - X_0 are coordinates.
    w.t <= c maps back to the primitive row (L a, c + a.X_0) for the one a
    in the span with a.D_j = piv_j w_j, so each facet has one ambient form:
    a is w at the pivots when D = I (full dimension), else a = D^T y with
    (D D^T) y = diag(piv) w, and the kernel of [D D^T | -diag(piv)] holds
    (y_k, e_k) for every k, scaled once to ints.
    """
    x0 = xs[0]
    span = IncrementalSpan(len(x0))
    for x in xs[1:]:
        span.add([a - b for a, b in zip(x, x0)])
    rows = [row for _c, row in span._rows]
    d = len(rows)
    back, m = rows, 1
    if 0 < d < len(x0):
        gram = [[_dot(r, s) for s in rows] + [-r[c] if k == j else 0 for k in range(d)]
                for j, (c, r) in enumerate(span._rows)]
        kernel = nullspace_basis(gram, 2 * d)
        ys, m = _over_common_denominator([v for vec in kernel for v in vec[:d]])
        back = [[_dot(ys[k * d : k * d + d], column) for column in zip(*rows)] for k in range(d)]

    def to_ambient(ray: Sequence[int]) -> tuple[LinearFunctional, Fraction]:
        a = [_dot(ray[:-1], column) for column in zip(*back)]
        row = _primitive([big * v for v in a] + [m * ray[-1] + _dot(a, x0)])
        return LinearFunctional(row[:-1]), Fraction(row[-1])

    return d, [tuple(x[c] - x0[c] for c, _row in span._rows) for x in xs], to_ambient


def _hull_facets(
    points: Sequence[Point], scaled: tuple[int, list[list[int]]] | None = None
) -> list[tuple[LinearFunctional, Fraction, tuple[int, ...]]]:
    """Facets of conv(points) relative to its affine hull, in ambient form.

    ``scaled`` is :func:`_scaled_rows` of the points, when the caller has it.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996): in the int coordinates t of :func:`_intrinsic_chart`, the
    valid inequalities w.t <= c form the cone {(w, c) : w.t_i - c <= 0 for
    every point i}, whose extreme rays are exactly the facets.  The rows S
    of d + 1 affinely independent points seed it: the kernel of [S | -I]
    holds (S^-1 e_k, e_k), and -S^-1 e_k is the ray negative on row k only.
    Every further point cuts the cone, keeping the rays on its side and
    combining each adjacent pair of rays it separates into a ray on its
    hyperplane.  Each ray carries its zero set as a bitmask over the points
    cut so far.  Two rays are adjacent when their common zero set Z has at
    least d - 1 points and no third ray's zero set contains Z; the test is
    combinatorial, so it is exact on degenerate inputs.  Facets are
    returned sorted by (coefficients, offset), with their tight points.
    """
    d, intrinsic, to_ambient = _intrinsic_chart(*(scaled or _scaled_rows(points)))
    if d == 0:
        return []
    rows = [t + (-1,) for t in intrinsic]

    span = IncrementalSpan(d + 1)
    seed = []
    for i, row in enumerate(rows):
        if span.add(row):
            seed.append(i)
            if len(seed) == d + 1:
                break
    seed_mask = sum(1 << i for i in seed)
    minus_identity = [tuple(-int(k == j) for k in range(d + 1)) for j in range(d + 1)]
    kernel = nullspace_basis([rows[i] + minus_e for i, minus_e in zip(seed, minus_identity)], 2 * d + 2)
    rays = [
        (_primitive([-v for v in _over_common_denominator(vec[: d + 1])[0]]), seed_mask & ~(1 << i))
        for i, vec in zip(seed, kernel)
    ]

    for i, row in enumerate(rows):
        if seed_mask >> i & 1:
            continue
        bit = 1 << i
        values = [_dot(ray, row) for ray, _zeros in rays]
        kept = [(ray, zeros | bit if v == 0 else zeros) for (ray, zeros), v in zip(rays, values) if v <= 0]
        if len(kept) == len(rays):
            rays = kept
            continue
        masks = [zeros for _ray, zeros in rays]
        negative = [k for k, v in enumerate(values) if v < 0]
        for p, vp in enumerate(values):
            if vp <= 0:
                continue
            for q in negative:
                common = masks[p] & masks[q]
                if common.bit_count() < d - 1 or any(
                    m & common == common for k, m in enumerate(masks) if k != p and k != q
                ):
                    continue
                vq = values[q]
                ray = [vp * a - vq * b for a, b in zip(rays[q][0], rays[p][0])]
                kept.append((_primitive(ray), common | bit))
        rays = kept

    facets = [(*to_ambient(ray), _indices(zeros)) for ray, zeros in rays]
    return sorted(facets, key=lambda item: (item[0].coeffs, item[1]))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _primitive(vec: Sequence[int]) -> list[int]:
    """A nonzero int vector divided by the gcd of its entries."""
    g = gcd(*vec)
    return [v // g for v in vec]


def _mask(indices: Iterable[int]) -> int:
    return sum(1 << i for i in indices)


def _indices(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Polytope:
    """A polytope given by its vertices, with exact face-lattice queries.

    The constructor canonicalizes rather than rejects: duplicate points and
    points expressible as convex combinations of the others are removed,
    and the removals are reported via :attr:`removed_points`: duplicates
    first, then non-extreme points, each in first-seen input order.  The
    stored :attr:`vertices` are therefore exactly the extreme points of the
    hull, in first-seen input order.  The one facet pass that decides this
    also fixes the facets, their vertex incidence masks and their integer
    rows, and the vertices' integer rows, so every later query only reads
    them.
    """

    def __init__(self, points: Iterable[Point | Sequence]) -> None:
        pts: list[Point] = []
        removed: list[Point] = []
        seen: set[tuple[Fraction, ...]] = set()
        for raw in points:
            p = raw if isinstance(raw, Point) else Point(tuple(raw))
            if p.coords in seen:
                removed.append(p)
                continue
            seen.add(p.coords)
            pts.append(p)
        if not pts:
            raise ValueError("a polytope needs at least one point")
        ambient = pts[0].dim
        for p in pts[1:]:
            _require_same_dim(ambient, p.dim)

        # Point i is a vertex exactly when the facets through it meet in
        # {i}: the smallest face containing a point is the intersection of
        # its facets (all the points when there are none), and a face of
        # dimension >= 1 has at least two vertices among the points.
        scaled = _scaled_rows(pts)
        hull_facets = _hull_facets(pts, scaled)
        meets = [(1 << len(pts)) - 1] * len(pts)
        for _functional, _offset, tight in hull_facets:
            mask = _mask(tight)
            for i in tight:
                meets[i] &= mask
        renumber = {}
        for i, p in enumerate(pts):
            if meets[i] == 1 << i:
                renumber[i] = len(renumber)
            else:
                removed.append(p)
        facets = tuple(
            Facet(functional, offset, tuple(renumber[i] for i in tight if i in renumber))
            for functional, offset, tight in hull_facets
        )

        self._vertices = tuple(pts[i] for i in renumber)
        # Vertex i is the int row _vertex_rows[i] over the one denominator _vertex_den > 0.
        self._vertex_den, xs = scaled
        self._vertex_rows = tuple(xs[i] for i in renumber)
        self._removed = tuple(removed)
        self._ambient_dim = ambient
        self._facets = facets
        self._masks = tuple(_mask(f.tight_vertices) for f in facets)
        # Facet inequalities a.x <= b as int rows (a, b): facets are primitive integers.
        self._facet_rows = tuple((f.functional._scaled[0], f.offset.numerator) for f in facets)
        # Guards the lazily built hull, face lattice and sub-polytope caches.
        self._lock = threading.Lock()
        self._hull: AffineManifold | None = None
        self._equation_rows: tuple[tuple[tuple[int, ...], int], ...] = ()
        self._faces: tuple[FaceDescriptor, ...] | None = None
        self._sub_polytopes: dict[FaceDescriptor, Polytope] = {}

    # -- basic structure ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self._vertices

    @property
    def ambient_dim(self) -> int:
        return self._ambient_dim

    @property
    def removed_points(self) -> tuple[Point, ...]:
        """Input points dropped at construction (duplicates, non-extreme)."""
        return self._removed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polytope):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"Polytope({len(self._vertices)} vertices in dim {self._ambient_dim})"

    def hull_manifold(self) -> AffineManifold:
        with self._lock:
            if self._hull is None:
                self._hull = affine_hull(self._vertices)
                # a.x + c == 0 as an int row (a, c), primitive since a is.
                self._equation_rows = tuple(
                    (tuple(a.numerator * eq.offset.denominator for a in eq.linear.coeffs), eq.offset.numerator)
                    for eq in self._hull.equations()
                )
            return self._hull

    @property
    def dim(self) -> int:
        """Intrinsic dimension (of the affine hull)."""
        return self.hull_manifold().dim

    def all_indices(self) -> FaceDescriptor:
        return FaceDescriptor(tuple(range(len(self._vertices))))

    def _check_descriptor(self, face: FaceDescriptor) -> None:
        if not face.vertex_indices:
            raise EmptyFaceError("empty vertex set")
        if face.vertex_indices[0] < 0 or face.vertex_indices[-1] >= len(self._vertices):
            raise IndexError(f"vertex index out of range in {face.vertex_indices}")

    def face_points(self, face: FaceDescriptor) -> tuple[Point, ...]:
        self._check_descriptor(face)
        return tuple(self._vertices[i] for i in face.vertex_indices)

    def barycenter_of(self, face: FaceDescriptor) -> Point:
        """Canonical relative-interior point of conv(face): uniform weights."""
        return barycenter(self.face_points(face))

    def face_polytope(self, face: FaceDescriptor) -> Polytope:
        """Sub-polytope spanned by a vertex subset (vertices stay in index order)."""
        self._check_descriptor(face)
        with self._lock:
            cached = self._sub_polytopes.get(face)
        if cached is not None:
            return cached
        # Every vertex is exposed, so a vertex subset is in convex position
        # and the constructor keeps every point, in index order.
        sub = Polytope(self.face_points(face))
        with self._lock:
            self._sub_polytopes.setdefault(face, sub)
        return sub

    # -- facets and membership ----------------------------------------------

    def facets(self) -> tuple[Facet, ...]:
        """Complete facet list relative to the affine hull.

        Built by the constructor.  A 0-dimensional polytope has no facets
        and yields the empty tuple (the documented "no facets" sentinel, not
        an error).
        """
        return self._facets

    def _facets_through(self, face: FaceDescriptor) -> list[tuple[tuple[tuple[int, ...], int], int]]:
        """The int rows (a, b) and tight masks of the facets tight on every
        vertex of the face, in facet order."""
        mask = _mask(face.vertex_indices)
        return [(row, m) for row, m in zip(self._facet_rows, self._masks) if m & mask == mask]

    def _vertex_numerators(
        self, functional: LinearFunctional | AffineFunctional, indices: Iterable[int]
    ) -> list[int]:
        """The functional's values at the indexed vertices, times one positive
        constant: a.X_i + o.L for its int row (a, o) and the vertex rows X_i
        over L.  So they have the values' signs and order.  Raises
        :class:`DimensionMismatchError` as evaluating the functional would."""
        _require_same_dim(functional.dim, self._ambient_dim)
        a, o = functional._row
        shift = o * self._vertex_den
        rows = self._vertex_rows
        return [_dot(a, rows[i]) + shift for i in indices]

    def _closure(self, face: FaceDescriptor) -> FaceDescriptor:
        """Smallest face containing the vertex set, from the incidences alone.

        A facet's slack is affine and nonnegative on the vertices, so it
        vanishes at the barycenter of the set exactly when it vanishes at
        every vertex of the set: the facets tight at the barycenter are the
        facets whose tight set contains the set.  Their tight sets meet in
        the smallest face containing the barycenter, or in the whole
        polytope when there are none.
        """
        mask = _mask(face.vertex_indices)
        closure = (1 << len(self._vertices)) - 1
        for m in self._masks:
            if m & mask == mask:
                closure &= m
        return FaceDescriptor(_indices(closure))

    def _contains_scaled(self, nums: Sequence[int], den: int) -> bool:
        """Membership of the point nums / den, for int nums and an int den > 0."""
        self.hull_manifold()
        return all(_dot(a, nums) + c * den == 0 for a, c in self._equation_rows) and all(
            _dot(a, nums) <= b * den for a, b in self._facet_rows
        )

    def contains(self, x: Point) -> bool:
        """Exact membership: x in aff(P) and every facet inequality holds."""
        _require_same_dim(self._ambient_dim, x.dim)
        return self._contains_scaled(*x._scaled)

    def smallest_face_containing(self, x: Point) -> FaceDescriptor:
        """Vertex set of the unique smallest face with x in its relative interior."""
        _require_same_dim(self._ambient_dim, x.dim)
        nums, den = x._scaled
        if not self._contains_scaled(nums, den):
            raise NotAMemberError(f"point {x.coords} lies outside the polytope")
        closure = (1 << len(self._vertices)) - 1
        for (a, b), m in zip(self._facet_rows, self._masks):
            if _dot(a, nums) == b * den:
                closure &= m
        return FaceDescriptor(_indices(closure))

    # -- the face lattice ---------------------------------------------------

    def all_faces(self) -> tuple[FaceDescriptor, ...]:
        """Every nonempty face, as intersections of facet tight sets.

        Computed as the intersection closure of the facet tight-set masks
        together with the full vertex set; for a polytope every face is such
        an intersection, so the closure is the complete lattice minus the
        empty face.  Ordered by (size, indices) for reproducibility.
        """
        with self._lock:
            if self._faces is not None:
                return self._faces
        full = (1 << len(self._vertices)) - 1
        masks = self._masks
        seen = {full}
        queue = [full]
        while queue:
            current = queue.pop()
            for t in masks:
                nxt = current & t
                if nxt and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        faces = tuple(
            FaceDescriptor(indices)
            for indices in sorted((_indices(m) for m in seen), key=lambda t: (len(t), t))
        )
        with self._lock:
            self._faces = faces
        return faces

    def is_face(self, face: FaceDescriptor) -> bool:
        """Whether conv(face) is a face of the polytope.

        The barycenter b of the candidate lies in the relative interior of
        conv(face), so the smallest face containing b equals the candidate
        exactly when the candidate is a face.  That smallest face is read
        off the vertex-facet incidences: a facet is tight at b exactly when
        it is tight at every vertex of the candidate, so the face is the
        intersection of the tight sets that contain the candidate (all
        vertices when none does).  No coordinate is touched.
        """
        self._check_descriptor(face)
        return self._closure(face) == face

    def proper_faces(self) -> tuple[FaceDescriptor, ...]:
        full = self.all_indices()
        return tuple(f for f in self.all_faces() if f != full)
