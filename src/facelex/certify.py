"""Step-affine face certificates for polytopes, and their verification.

A certificate for a face is a cortege together with the nested vertex-set
chain it carves out: level i is nonnegative on the previous chain element
and vanishes exactly on the next one, so the induced step-affine function
is nonnegative on the polytope and zero precisely on the certified face.
Verification replays those conditions on vertices, which suffices: each
level's zero set inside the previous element is an exposed face, so the
vertex checks propagate to the whole polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import AffineFunctional, LinearFunctional, Point
from .errors import ImproperFaceError, NotAFaceError
from .polytope import FaceDescriptor, Polytope, _dot, _indices, _mask
from .preorder import LexPreorder
from .stepaffine import Cortege, StepAffineFunction


@dataclass(frozen=True)
class FaceCertificate:
    """A cortege plus the vertex-set chain it cuts, ending at the face."""

    cortege: Cortege
    chain: tuple[FaceDescriptor, ...]

    @property
    def rank(self) -> int:
        return self.cortege.rank

    def face(self) -> FaceDescriptor:
        return self.chain[-1]

    def step_function(self) -> StepAffineFunction:
        return StepAffineFunction(self.cortege)


@dataclass(frozen=True)
class NotAFace:
    """Witness that a vertex set is not a face.

    ``witness = (w, z)``: both lie in the polytope, w outside the candidate
    hull, while the candidate's barycenter sits on the open segment (w, z).
    That is a literal violation of the face property.
    """

    witness: tuple[Point, Point]
    smallest_face: FaceDescriptor


@dataclass(frozen=True)
class Verification:
    accepted: bool
    reason: str | None = None


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of the four face characterizations run side by side.

    ``a``: direct face test; ``b``: sign split of the certificate function
    separates the face from the rest of the body, decided exactly on the
    vertices (see :func:`_sign_split_leg`); ``c``: the induced
    lexicographic preorder minimizes exactly on the face; ``d``: a
    certificate was produced and verified.  For non-faces b and c are
    skipped (None) and consistency means a is false and d failed.
    """

    a: bool
    b: bool | None
    c: bool | None
    d: bool
    is_face: bool
    consistent: bool


def _check_proper(polytope: Polytope, face: FaceDescriptor) -> None:
    polytope._check_descriptor(face)
    if face == polytope.all_indices():
        raise ImproperFaceError("the whole polytope is not a proper face")


def _slack_functional(a: tuple[int, ...], b: int) -> AffineFunctional:
    """The slack ``b - a.x`` of the int facet row (a, b) as an affine functional."""
    return AffineFunctional(LinearFunctional(tuple(-v for v in a)), Fraction(b))


def certify(polytope: Polytope, face: FaceDescriptor) -> FaceCertificate | NotAFace:
    """Rank-1 certificate for a face, or a violation witness for a non-face.

    Both branches start from the vertex-facet incidences.  A facet is tight
    at the candidate's barycenter b exactly when it is tight at every
    candidate vertex, since its slack is affine and nonnegative on the
    vertices; so the smallest face containing b is the intersection of the
    facet tight sets containing the candidate, and the candidate is a face
    exactly when that intersection is the candidate itself.

    For a face, the certificate function is the unweighted sum of the
    slacks of those facets: nonnegative on the polytope and zero exactly on
    the intersection of their tight sets, which is the face.  For a
    non-face, the witness pairs a vertex w of b's true smallest face F (not
    in the candidate) with a point z past b along b - w, stepped by ratio
    tests against the polytope's facets and halved once whenever the step
    would land on the boundary; only this branch computes b.  The ray stays
    in aff(F), and P meets aff(F) in F because F is a face, so it leaves P
    where it leaves F; the facets through F have speed 0 and never bound.
    """
    _check_proper(polytope, face)
    smallest = polytope._closure(face)
    if smallest != face:
        return _witness(polytope, face, smallest)
    rows = [row for row, _mask in polytope._facets_through(face)]
    normal = tuple(map(sum, zip(*(a for a, _b in rows))))
    cortege = Cortege((_slack_functional(normal, sum(b for _a, b in rows)),))
    return FaceCertificate(cortege=cortege, chain=(polytope.all_indices(), face))


def _witness(polytope: Polytope, face: FaceDescriptor, smallest: FaceDescriptor) -> NotAFace:
    """The witness of :func:`certify` for a non-face, by ratio tests on ints.

    Over the vertex rows X_i and their denominator L, the barycenter of the
    k candidate vertices is b = S / (kL) with S = sum X_i, and b - w is
    D / (kL) with D = S - k X_w.  A facet row (a, c) then has speed a.D / (kL)
    and bound (c kL - a.S) / (a.D), and z = b + t (b - w) = (S + t D) / (kL).
    """
    rows, big = polytope._vertex_rows, polytope._vertex_den
    k = len(face)
    w_index = next(i for i in smallest.vertex_indices if i not in face.as_set())
    total = [sum(col) for col in zip(*(rows[i] for i in face.vertex_indices))]
    direction = [s - k * x for s, x in zip(total, rows[w_index])]
    scale = k * big
    t_num, t_den = 1, 1
    bounded = False
    for a, c in polytope._facet_rows:
        speed = _dot(a, direction)
        if speed > 0:
            slack = c * scale - _dot(a, total)
            if slack * t_den < t_num * speed:
                t_num, t_den, bounded = slack, speed, True
            elif slack * t_den == t_num * speed:
                bounded = True
    if bounded:
        t_den *= 2
    den = scale * t_den
    z = Point(tuple(Fraction(s * t_den + v * t_num, den) for s, v in zip(total, direction)))
    return NotAFace(witness=(polytope.vertices[w_index], z), smallest_face=smallest)


def chain_certificate(polytope: Polytope, face: FaceDescriptor) -> FaceCertificate:
    """Nested-face certificate built from the facets tight on the face.

    The facets tight on the face are those whose tight vertex set contains
    it, read off the vertex-facet incidences with no arithmetic; since the
    candidate is a face, their tight sets meet exactly in it.  They are
    processed in ascending normalized order; a facet is skipped when the
    current chain element already lies on it (its slack is identically zero
    there, so it cannot cut).  Every kept slack exposes the next chain
    element inside the previous one, and the construction stops once the
    chain reaches the face.
    """
    _check_proper(polytope, face)
    if not polytope.is_face(face):
        raise NotAFaceError(f"{face.vertex_indices} is not a face")
    chain = [polytope.all_indices()]
    functionals: list[AffineFunctional] = []
    current = (1 << len(polytope.vertices)) - 1
    target = _mask(face.vertex_indices)
    for (a, b), tight in polytope._facets_through(face):
        if current & tight == current:
            continue
        functionals.append(_slack_functional(a, b))
        current &= tight
        chain.append(FaceDescriptor(_indices(current)))
        if current == target:
            break
    assert chain[-1] == face, "tight-facet chain must terminate at the face"
    return FaceCertificate(cortege=Cortege(tuple(functionals)), chain=tuple(chain))


def verify_certificate(
    polytope: Polytope, face: FaceDescriptor, certificate: FaceCertificate
) -> Verification:
    """Total, exact certificate check; rejects pinpoint the first failure.

    Cortege validity itself is enforced by the Cortege type at
    construction, so verification concentrates on the chain: it must start
    at the full vertex set, end at the claimed face, and each level must be
    nonnegative on the previous element's vertices with zero set exactly
    the next element.  Signs are read off the polytope's int vertex
    numerators of each level, which are its values times one positive
    constant.
    """
    functionals = certificate.cortege.functionals
    chain = certificate.chain
    if len(chain) != len(functionals) + 1:
        return Verification(False, "chain_length")
    vertex_count = len(polytope.vertices)
    for descriptor in chain:
        if not descriptor.vertex_indices:
            return Verification(False, "chain_indices")
        if descriptor.vertex_indices[0] < 0 or descriptor.vertex_indices[-1] >= vertex_count:
            return Verification(False, "chain_indices")
    if chain[0] != polytope.all_indices():
        return Verification(False, "chain_start")
    if chain[-1] != face:
        return Verification(False, "chain_end")
    for level, functional in enumerate(functionals, start=1):
        indices = chain[level - 1].vertex_indices
        values = polytope._vertex_numerators(functional, indices)
        for index, value in zip(indices, values):
            if value < 0:
                return Verification(False, f"level_{level}_negative_at_vertex_{index}")
        zero = tuple(index for index, value in zip(indices, values) if value == 0)
        if zero != chain[level].vertex_indices:
            return Verification(False, f"level_{level}_zero_set_mismatch")
    return Verification(True, None)


def equivalence_report(polytope: Polytope, face: FaceDescriptor) -> EquivalenceReport:
    """Run all four face characterizations and report their agreement."""
    _check_proper(polytope, face)
    leg_a = polytope.is_face(face)
    result = certify(polytope, face)
    if isinstance(result, NotAFace):
        return EquivalenceReport(
            a=leg_a, b=None, c=None, d=False, is_face=False, consistent=not leg_a
        )
    leg_d = verify_certificate(polytope, face, result).accepted

    # certify() always returns a rank-1 certificate; the unpacking enforces
    # it, because leg (b)'s vertex argument holds only for an affine u.
    (functional,) = result.cortege.functionals
    leg_b = _sign_split_leg(polytope, face, functional)

    preorder = LexPreorder(result.cortege.linear_parts())
    leg_c = preorder.min_set(polytope) == face

    consistent = leg_a and leg_b and leg_c and leg_d
    return EquivalenceReport(
        a=leg_a, b=leg_b, c=leg_c, d=leg_d, is_face=leg_a, consistent=consistent
    )


def _sign_split_leg(polytope: Polytope, face: FaceDescriptor, u: AffineFunctional) -> bool:
    """Zero set of u is exactly the face; the rest of the body is strictly positive.

    Decided exactly on the vertices: u vanishes on the face's vertices and
    is positive on all others.  That settles every point of the body,
    because u is affine.  Any x in the polytope is a convex combination
    sum(l_v * v) of the vertices, so u(x) = sum(l_v * u(v)) >= 0.  If
    u(x) = 0, every l_v off the face is zero, so x lies in the face's hull;
    conversely a combination of face vertices has u = 0.  The argument
    needs u affine: a rank >= 2 step-affine function is not, which is why
    the leg takes a single functional.
    """
    members = face.as_set()
    values = polytope._vertex_numerators(u, range(len(polytope.vertices)))
    return all(value == 0 if index in members else value > 0 for index, value in enumerate(values))
