"""certify: certificates and witnesses for every candidate face of warm bodies.

The bodies (translated, scaled cubes, cross-polytopes and simplices) and
their face lattices are built during set-up, so facets are cached and the
timed work is membership and ``Fraction`` arithmetic in ``contains`` and
``smallest_face_containing``, sampling, step-affine evaluation, preorder
minimization and the certificate constructions themselves.

Every proper face goes through ``certify``, ``verify_certificate``,
``chain_certificate`` and ``equivalence_report``; seeded vertex subsets
that are not faces go through ``certify`` and ``equivalence_report`` and
must yield witnesses.  Whether a candidate is a face comes from the closed
form, not from the program.
"""

from __future__ import annotations

import itertools
import random

from exact import Shape, Vec, barycenter, canonical_shape, first_nonzero, on_open_segment, random_shape
from ops import Op, require

BODIES = (("cube", 2), ("cube", 3), ("cross", 2), ("cross", 3), ("simplex", 2), ("simplex", 3))
NON_FACES_PER_BODY = {("cube", 2): 3, ("cube", 3): 12, ("cross", 2): 3, ("cross", 3): 12}


def _levels(certificate) -> list:
    return [(f.linear.coeffs, f.offset) for f in certificate.cortege.functionals]


def _report(report) -> tuple:
    return (report.a, report.b, report.c, report.d, report.is_face, report.consistent)


def _face_summary(result) -> tuple:
    rank1, verdict1, chain, verdict2, report = result
    return (_levels(rank1), tuple(d.vertex_indices for d in rank1.chain), verdict1.accepted,
            _levels(chain), tuple(d.vertex_indices for d in chain.chain), verdict2.accepted,
            _report(report))


def _non_face_summary(result) -> tuple:
    witness, report = result
    w, z = witness.witness
    return (w.coords, z.coords, witness.smallest_face.vertex_indices, _report(report))


def _check_certificate(name: str, levels, vertices: list[Vec], face: tuple[int, ...]) -> None:
    values = [first_nonzero(levels, v) for v in vertices]
    require(all(v >= 0 for v in values), f"{name} certificate is negative at a vertex")
    zero = tuple(i for i, v in enumerate(values) if v == 0)
    require(zero == face, f"{name} certificate vanishes on {zero}, not on {face}")


def _check_face(shape: Shape, face: tuple[int, ...], result) -> None:
    rank1, verdict1, chain, verdict2, report = result
    require(hasattr(rank1, "cortege"), "certify returned a witness for a true face")
    vertices = shape.vertices()
    require(len(_levels(rank1)) == 1, "certify did not return a rank-1 certificate")
    _check_certificate("rank-1", _levels(rank1), vertices, face)
    codim = shape.dim - shape.face_dim(face)
    require(1 <= len(_levels(chain)) <= codim, f"chain rank exceeds the codimension {codim}")
    _check_certificate("chain", _levels(chain), vertices, face)
    require(verdict1.accepted and verdict2.accepted, "verify_certificate rejected a certificate")
    require(_report(report) == (True, True, True, True, True, True), f"equivalence legs {_report(report)}")


def _check_non_face(shape: Shape, candidate: tuple[int, ...], result) -> None:
    witness, report = result
    require(hasattr(witness, "witness"), "certify returned a certificate for a non-face")
    w, z = (p.coords for p in witness.witness)
    require(shape.contains(w) and shape.contains(z), "a witness point lies outside the body")
    vertices = shape.vertices()
    b = barycenter([vertices[i] for i in candidate])
    require(on_open_segment(b, w, z), "the barycenter is not on the open witness segment")
    a, _b, _c, d, is_face, consistent = _report(report)
    require(consistent and not is_face and not a and not d, f"equivalence legs {_report(report)}")


def _non_faces(family: random.Random, shape: Shape, count: int) -> list[tuple[int, ...]]:
    """Non-face candidates drawn from a fixed family, in the shape's order,
    so that every seed certifies candidates of the same geometric kinds."""
    canonical = canonical_shape(shape.kind, shape.dim)
    n = shape.vertex_count()
    pool = [s for size in range(2, n) for s in itertools.combinations(range(n), size)
            if canonical.face_dim(s) is None]
    return sorted(shape.relabel(c) for c in family.sample(pool, count))


def build(lib, seed: int, workdir) -> list[Op]:
    fx = lib.fx
    rng = random.Random(f"certify:{seed}")
    family = random.Random("certify:family")
    ops = []
    for kind, dim in BODIES:
        shape = random_shape(rng, kind, dim)
        body = fx.Polytope(shape.vertices())
        body.all_faces()
        whole = tuple(range(shape.vertex_count()))
        for face in shape.faces():
            if face == whole:
                continue
            descriptor = fx.FaceDescriptor(face)

            def run(p=body, f=descriptor):
                rank1 = fx.certify(p, f)
                verdict1 = fx.verify_certificate(p, f, rank1)
                chain = fx.chain_certificate(p, f)
                return rank1, verdict1, chain, fx.verify_certificate(p, f, chain), fx.equivalence_report(p, f)

            ops.append(Op(f"{kind}{dim}-face{face}", run,
                          lambda r, s=shape, f=face: _check_face(s, f, r), _face_summary))
        for candidate in _non_faces(family, shape, NON_FACES_PER_BODY.get((kind, dim), 0)):
            descriptor = fx.FaceDescriptor(candidate)

            def run(p=body, f=descriptor):
                return fx.certify(p, f), fx.equivalence_report(p, f)

            ops.append(Op(f"{kind}{dim}-nonface{candidate}", run,
                          lambda r, s=shape, c=candidate: _check_non_face(s, c, r), _non_face_summary))
    return ops
