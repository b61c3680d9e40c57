"""facelex: exact-arithmetic face certificates for convex bodies.

Polytopes get their complete face lattice, rank-1 and chain step-affine
certificates, and a four-way equivalence harness; planar disk hulls
exhibit non-exposed tangency-point faces with rank-2 certificates.  All
arithmetic is exact rational (with one quadratic extension for disk
support values).
"""

from .certify import (
    EquivalenceReport,
    FaceCertificate,
    NotAFace,
    Verification,
    certify,
    chain_certificate,
    equivalence_report,
    verify_certificate,
)
from .core import (
    AffineFunctional,
    AffineManifold,
    LinearFunctional,
    Point,
    Rational,
    affine_hull,
    barycenter,
    format_rational,
    linear_independent,
    origin,
    parse_rational,
    solve_affine_zero_set,
)
from .diskhull import (
    ArcFamily,
    ArcPoint,
    Disk,
    DiskBody,
    DiskFace,
    Edge,
    QuadScalar,
    TangencyPoint,
    Whole,
)
from .errors import (
    DimensionMismatchError,
    EmptyFaceError,
    FaceLexError,
    FormatError,
    ImproperFaceError,
    InvalidCortegeError,
    NotAFaceError,
    NotAMemberError,
    SizeGuardExceededError,
    UnsupportedConfigurationError,
    WholeBodyNotProperError,
    ZeroFunctionalError,
)
from .oracle import (
    DEFAULT_REFUTER_SEED,
    oracle_faces,
    oracle_facets,
    oracle_lex_argmin,
    oracle_refute_face,
)
from .polytope import FaceDescriptor, Facet, Polytope
from .preorder import ComparisonResult, LexPreorder, lex_preorder
from .stepaffine import Cortege, Region, StepAffineFunction

__version__ = "0.1.0"

__all__ = [
    "AffineFunctional",
    "AffineManifold",
    "ArcFamily",
    "ArcPoint",
    "ComparisonResult",
    "Cortege",
    "DEFAULT_REFUTER_SEED",
    "DimensionMismatchError",
    "Disk",
    "DiskBody",
    "DiskFace",
    "Edge",
    "EmptyFaceError",
    "EquivalenceReport",
    "FaceCertificate",
    "FaceDescriptor",
    "FaceLexError",
    "Facet",
    "FormatError",
    "ImproperFaceError",
    "InvalidCortegeError",
    "LexPreorder",
    "LinearFunctional",
    "NotAFace",
    "NotAFaceError",
    "NotAMemberError",
    "Point",
    "Polytope",
    "QuadScalar",
    "Rational",
    "Region",
    "SizeGuardExceededError",
    "StepAffineFunction",
    "TangencyPoint",
    "UnsupportedConfigurationError",
    "Verification",
    "Whole",
    "WholeBodyNotProperError",
    "ZeroFunctionalError",
    "affine_hull",
    "barycenter",
    "certify",
    "chain_certificate",
    "equivalence_report",
    "format_rational",
    "lex_preorder",
    "linear_independent",
    "oracle_faces",
    "oracle_facets",
    "oracle_lex_argmin",
    "oracle_refute_face",
    "origin",
    "parse_rational",
    "solve_affine_zero_set",
    "verify_certificate",
]
