"""Command-line front end.

Reads polytope / disk-body / cortege / preorder JSON, runs one operation,
and writes a single canonical JSON document to stdout (or --out).  Exit
codes: 0 success or accepted, 1 expected mathematical negative (not a
face), 2 usage or format error, 3 cross-check disagreement or an
inconsistent equivalence report, 4 internal error (a bug, never an answer).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from . import jsonio
from .certify import (
    FaceCertificate,
    certify,
    chain_certificate,
    equivalence_report,
    verify_certificate,
)
from .core import Point, _excerpt, format_rational, parse_rational
from .errors import FaceLexError, FormatError, NotAFaceError
from .oracle import oracle_faces, oracle_lex_argmin, oracle_refute_face
from .polytope import FaceDescriptor
from .stepaffine import StepAffineFunction

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CROSS_CHECK = 3
EXIT_INTERNAL = 4

_CROSS_CHECK_TRIALS = 2000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing neither mutates it nor
    holds on to an output stream (argparse reads sys.stderr when it prints)."""
    parser = argparse.ArgumentParser(
        prog="facelex",
        description="Exact face certificates for polytopes and disk hulls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def body_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="polytope JSON file")
        cmd.add_argument("--out", help="write the output document here instead of stdout")
        return cmd

    faces = body_command("faces", "enumerate all nonempty faces")
    faces.add_argument("--cross-check", action="store_true", help="compare with the brute-force oracle")

    cert = body_command("certify", "rank-1 certificate for a face, or a witness")
    cert.add_argument("--face", required=True, help="comma-separated vertex indices, e.g. 0,3")
    cert.add_argument("--cross-check", action="store_true", help="replay with the face oracle and refuter")

    chain = body_command("chain", "nested-face chain certificate")
    chain.add_argument("--face", required=True, help="comma-separated vertex indices")

    lexmin = body_command("lexmin", "minimizers of a lexicographic preorder")
    lexmin.add_argument("--preorder", required=True, help="preorder JSON file")
    lexmin.add_argument("--cross-check", action="store_true", help="compare with the tuple-order oracle")

    equiv = body_command("equivalence", "run all four face characterizations")
    equiv.add_argument("--face", required=True, help="comma-separated vertex indices")

    evaluate = sub.add_parser("eval", help="evaluate a step-affine function at a point")
    evaluate.add_argument("--cortege", required=True, help="cortege JSON file")
    evaluate.add_argument("--point", required=True, help="comma-separated rationals, e.g. 1/2,0")
    evaluate.add_argument("--out", help="write the output document here instead of stdout")

    classify = sub.add_parser("classify", help="sign region of a point under a step-affine function")
    classify.add_argument("--cortege", required=True, help="cortege JSON file")
    classify.add_argument("--point", required=True, help="comma-separated rationals")
    classify.add_argument("--out", help="write the output document here instead of stdout")

    dfaces = sub.add_parser("diskhull-faces", help="symbolic face list of a disk body")
    dfaces.add_argument("--input", required=True, help="disk body JSON file")
    dfaces.add_argument("--out", help="write the output document here instead of stdout")

    dcert = sub.add_parser("diskhull-certify", help="certificate for a disk-body face")
    dcert.add_argument("--input", required=True, help="disk body JSON file")
    dcert.add_argument("--face", required=True, help="disk face JSON file (tagged union)")
    dcert.add_argument("--out", help="write the output document here instead of stdout")

    return parser


def _read_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return jsonio.load_document(text)


def _parse_face_flag(value: str) -> FaceDescriptor:
    try:
        indices = tuple(int(tok) for tok in value.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise FormatError(f"--face expects comma-separated integers, got {_excerpt(value)}") from exc
    if not indices:
        raise FormatError("--face needs at least one vertex index")
    return FaceDescriptor(indices)


def _parse_point_flag(value: str) -> Point:
    try:
        coords = tuple(parse_rational(tok) for tok in value.split(","))
    except ValueError as exc:
        raise FormatError(f"--point expects comma-separated rationals, got {_excerpt(value)}") from exc
    return Point(coords)


def _emit(document, out_path: str | None) -> None:
    text = jsonio.dumps_canonical(document)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_faces(args) -> int:
    polytope = jsonio.polytope_from_json(_read_json(args.input))
    faces = polytope.all_faces()
    if args.cross_check and tuple(oracle_faces(polytope)) != tuple(faces):
        print("cross-check failed: oracle face set differs", file=sys.stderr)
        return EXIT_CROSS_CHECK
    _emit({"count": len(faces), "faces": [list(f.vertex_indices) for f in faces]}, args.out)
    return EXIT_OK


def _run_certify(args) -> int:
    polytope = jsonio.polytope_from_json(_read_json(args.input))
    face = _parse_face_flag(args.face)
    result = certify(polytope, face)
    if isinstance(result, FaceCertificate):
        if args.cross_check:
            ok = (
                verify_certificate(polytope, face, result).accepted
                and oracle_refute_face(polytope, face, _CROSS_CHECK_TRIALS) is None
            )
            if not ok:
                print("cross-check failed: certificate disagrees with oracles", file=sys.stderr)
                return EXIT_CROSS_CHECK
        _emit({"certificate": jsonio.certificate_to_json(result)}, args.out)
        return EXIT_OK
    if args.cross_check:
        # The witness as NotAFace defines it, checked apart from the incidences.
        w, z = result.witness
        b, direction = polytope.barycenter_of(face), z - w
        t = next(((b[k] - w[k]) / v for k, v in enumerate(direction) if v), 0)
        on_segment = 0 < t < 1 and w + direction.scaled(t) == b
        in_body = polytope.contains(w) and polytope.contains(z)
        if not (in_body and on_segment and not polytope.face_polytope(face).contains(w)):
            print("cross-check failed: the witness does not refute the face", file=sys.stderr)
            return EXIT_CROSS_CHECK
    _emit(jsonio.not_a_face_to_json(result), args.out)
    return EXIT_NEGATIVE


def _run_chain(args) -> int:
    polytope = jsonio.polytope_from_json(_read_json(args.input))
    face = _parse_face_flag(args.face)
    try:
        certificate = chain_certificate(polytope, face)
    except NotAFaceError:
        result = certify(polytope, face)
        _emit(jsonio.not_a_face_to_json(result), args.out)
        return EXIT_NEGATIVE
    _emit({"certificate": jsonio.certificate_to_json(certificate)}, args.out)
    return EXIT_OK


def _run_lexmin(args) -> int:
    polytope = jsonio.polytope_from_json(_read_json(args.input))
    preorder = jsonio.preorder_from_json(_read_json(args.preorder))
    face = preorder.min_set(polytope)
    if args.cross_check and oracle_lex_argmin(polytope, preorder.levels) != face:
        print("cross-check failed: tuple-order argmin differs", file=sys.stderr)
        return EXIT_CROSS_CHECK
    _emit(jsonio.face_to_json(face), args.out)
    return EXIT_OK


def _run_equivalence(args) -> int:
    polytope = jsonio.polytope_from_json(_read_json(args.input))
    face = _parse_face_flag(args.face)
    report = equivalence_report(polytope, face)
    _emit(jsonio.report_to_json(report), args.out)
    if not report.consistent:
        return EXIT_CROSS_CHECK
    return EXIT_OK if report.is_face else EXIT_NEGATIVE


def _run_eval(args) -> int:
    cortege = jsonio.cortege_from_json(_read_json(args.cortege))
    point = _parse_point_flag(args.point)
    value = StepAffineFunction(cortege).evaluate(point)
    _emit({"value": format_rational(value)}, args.out)
    return EXIT_OK


def _run_classify(args) -> int:
    cortege = jsonio.cortege_from_json(_read_json(args.cortege))
    point = _parse_point_flag(args.point)
    region = StepAffineFunction(cortege).classify(point)
    _emit({"region": region.value}, args.out)
    return EXIT_OK


def _run_diskhull_faces(args) -> int:
    body = jsonio.disk_body_from_json(_read_json(args.input))
    faces = body.faces()
    _emit({"count": len(faces), "faces": [jsonio.disk_face_to_json(f) for f in faces]}, args.out)
    return EXIT_OK


def _run_diskhull_certify(args) -> int:
    body = jsonio.disk_body_from_json(_read_json(args.input))
    face = jsonio.disk_face_from_json(body, _read_json(args.face))
    cortege = body.certify(face)
    _emit({"cortege": jsonio.cortege_to_json(cortege)}, args.out)
    return EXIT_OK


_RUNNERS = {
    "faces": _run_faces,
    "certify": _run_certify,
    "chain": _run_chain,
    "lexmin": _run_lexmin,
    "equivalence": _run_equivalence,
    "eval": _run_eval,
    "classify": _run_classify,
    "diskhull-faces": _run_diskhull_faces,
    "diskhull-certify": _run_diskhull_certify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our contract.
        return int(exc.code or 0)
    try:
        return _RUNNERS[args.command](args)
    except (FaceLexError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Anything else is a bug; exit 1 would read as "not a face".
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
