"""Per-layer tracing of facelex from outside, without editing its sources.

:meth:`Tracer.install` replaces each function named in ``TARGETS`` by a
wrapper, in every ``facelex`` module namespace that holds it (or on its
class, for methods).  Each call records a span in memory: name, start,
end and parent span.  A layer's self time is its spans' durations minus
the durations of their child spans.  A target that a later version of the
library no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path


# Counter hooks see the wrapped function, its arguments and its result.
def _removed_points(fn, args, kwargs, result) -> int:
    return len(args[0].removed_points)


def _found(fn, args, kwargs, result) -> int:
    return len(result)


def _refuter_trials(fn, args, kwargs, result) -> int:
    """Trials requested; the refuter may stop early when it finds a witness."""
    return int(inspect.signature(fn).bind(*args, **kwargs).arguments.get("trials", 0))


# (span name, module, attribute or Class.attribute, counter hook)
TARGETS = (
    ("core.rref", "core", "rref", None),
    ("core.nullspace_basis", "core", "nullspace_basis", None),
    ("core.affine_hull", "core", "affine_hull", None),
    ("core.span.add", "core", "IncrementalSpan.add", None),
    ("polytope.build", "polytope", "Polytope.__init__", ("points_removed", _removed_points)),
    ("polytope.hull_test", "polytope", "_in_hull", None),
    ("polytope.facets", "polytope", "Polytope.facets", None),
    ("polytope.facets", "polytope", "_hull_facets", ("found", _found)),
    ("polytope.all_faces", "polytope", "Polytope.all_faces", None),
    ("polytope.contains", "polytope", "Polytope.contains", None),
    ("polytope.smallest_face", "polytope", "Polytope.smallest_face_containing", None),
    ("sampling.sample", "sampling", "sample_in_hull", None),
    ("stepaffine.cortege", "stepaffine", "Cortege.__post_init__", None),
    ("stepaffine.evaluate", "stepaffine", "StepAffineFunction.evaluate", None),
    ("preorder.min_set", "preorder", "LexPreorder.min_set", None),
    ("certify.certify", "certify", "certify", None),
    ("certify.chain", "certify", "chain_certificate", None),
    ("certify.verify", "certify", "verify_certificate", None),
    ("certify.equivalence", "certify", "equivalence_report", None),
    ("oracle.refute", "oracle", "oracle_refute_face", ("trials", _refuter_trials)),
    ("oracle.faces", "oracle", "oracle_faces", None),
    ("diskhull.support_min", "diskhull", "DiskBody.support_min", None),
    ("diskhull.square_free", "diskhull", "_square_free", None),
    ("diskhull.quad", "diskhull", "QuadScalar.__post_init__", None),
    ("diskhull.edges", "diskhull", "DiskBody.edges", None),
    ("diskhull.faces", "diskhull", "DiskBody.faces", None),
    ("diskhull.certify", "diskhull", "DiskBody.certify", None),
    ("diskhull.contains", "diskhull", "DiskBody.contains", None),
    ("jsonio.load", "jsonio", "load_document", None),
    ("jsonio.dump", "jsonio", "dumps_canonical", None),
    ("cli.main", "cli", "main", None),
)

# Reported metric -> (span name, what): "calls", "self_ms", or a counter.
METRICS = {
    "core.rref.calls": ("core.rref", "calls"),
    "core.rref.self_ms": ("core.rref", "self_ms"),
    "core.nullspace_basis.calls": ("core.nullspace_basis", "calls"),
    "core.affine_hull.self_ms": ("core.affine_hull", "self_ms"),
    "core.span.rows_added": ("core.span.add", "calls"),
    "polytope.build.self_ms": ("polytope.build", "self_ms"),
    "polytope.build.hull_tests": ("polytope.hull_test", "calls"),
    "polytope.build.points_removed": ("polytope.build", "points_removed"),
    "polytope.facets.self_ms": ("polytope.facets", "self_ms"),
    "polytope.facets.subsets_tried": ("polytope.facets", "subsets_tried"),
    "polytope.facets.found": ("polytope.facets", "found"),
    "polytope.all_faces.self_ms": ("polytope.all_faces", "self_ms"),
    "polytope.contains.calls": ("polytope.contains", "calls"),
    "polytope.contains.self_ms": ("polytope.contains", "self_ms"),
    "polytope.smallest_face.self_ms": ("polytope.smallest_face", "self_ms"),
    "sampling.sample.calls": ("sampling.sample", "calls"),
    "sampling.sample.self_ms": ("sampling.sample", "self_ms"),
    "stepaffine.cortege.self_ms": ("stepaffine.cortege", "self_ms"),
    "stepaffine.evaluate.calls": ("stepaffine.evaluate", "calls"),
    "stepaffine.evaluate.self_ms": ("stepaffine.evaluate", "self_ms"),
    "preorder.min_set.self_ms": ("preorder.min_set", "self_ms"),
    "certify.certify.self_ms": ("certify.certify", "self_ms"),
    "certify.chain.self_ms": ("certify.chain", "self_ms"),
    "certify.verify.self_ms": ("certify.verify", "self_ms"),
    "certify.equivalence.self_ms": ("certify.equivalence", "self_ms"),
    "oracle.refute.self_ms": ("oracle.refute", "self_ms"),
    "oracle.refute.trials": ("oracle.refute", "trials"),
    "oracle.faces.self_ms": ("oracle.faces", "self_ms"),
    "diskhull.support_min.calls": ("diskhull.support_min", "calls"),
    "diskhull.support_min.self_ms": ("diskhull.support_min", "self_ms"),
    "diskhull.square_free.calls": ("diskhull.square_free", "calls"),
    "diskhull.square_free.self_ms": ("diskhull.square_free", "self_ms"),
    "diskhull.quad.created": ("diskhull.quad", "calls"),
    "diskhull.edges.self_ms": ("diskhull.edges", "self_ms"),
    "diskhull.faces.self_ms": ("diskhull.faces", "self_ms"),
    "diskhull.certify.self_ms": ("diskhull.certify", "self_ms"),
    "diskhull.contains.self_ms": ("diskhull.contains", "self_ms"),
    "jsonio.load.self_ms": ("jsonio.load", "self_ms"),
    "jsonio.dump.self_ms": ("jsonio.dump", "self_ms"),
    "cli.main.self_ms": ("cli.main", "self_ms"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        span_name, parent, start, end, stack = self.span_name, self.parent, self.start, self.end, self._stack
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if hook is not None:
                counters[(name, hook[0])] += hook[1](fn, args, kwargs, result)
            return result

        return traced

    def install(self, lib) -> None:
        """Wrap every target the loaded library has."""
        modules = [m for n, m in sys.modules.items() if n == "facelex" or n.startswith("facelex.")]
        for name, module_name, attribute, hook in TARGETS:
            module = getattr(lib, module_name)
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = None if owner is None else owner.__dict__.get(member)
                if original is None:
                    continue
                setattr(owner, member, self.wrap(name, original, hook))
                self._undo.append((owner, member, original))
                continue
            original = getattr(module, member, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def metrics(self) -> dict:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_ms: Counter = Counter()
        facets = self.names.index("polytope.facets") if "polytope.facets" in self.names else -2
        nullspace = self.names.index("core.nullspace_basis") if "core.nullspace_basis" in self.names else -2
        under_facets = [False] * n
        counters = Counter(self.counters)
        for i in range(n):
            name, p = self.span_name[i], self.parent[i]
            calls[name] += 1
            self_ms[name] += (self.end[i] - self.start[i] - child[i]) * 1000
            under_facets[i] = name == facets or (p >= 0 and under_facets[p])
            if name == nullspace and p >= 0 and under_facets[p]:
                counters[("polytope.facets", "subsets_tried")] += 1
        out = {}
        for metric, (span, what) in METRICS.items():
            name_id = self.names.index(span) if span in self.names else None
            if what == "calls":
                out[metric] = (calls[name_id] if name_id is not None else 0, "count")
            elif what == "self_ms":
                out[metric] = (self_ms[name_id] if name_id is not None else 0.0, "ms")
            else:
                out[metric] = (counters[(span, what)], "count")
        tried = out["polytope.facets.subsets_tried"][0]
        out["polytope.facets.yield"] = (out["polytope.facets.found"][0] / tried if tried else 0.0, "ratio")
        out["trace.spans"] = (n, "count")
        return out

    def write_spans(self, path: Path, header: dict) -> None:
        """Spans as [name, start_s, end_s, parent] rows, parent -1 for roots."""
        rows = zip(self.span_name, self.start, self.end, self.parent)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({**header, "names": self.names,
                       "spans": [[name, round(s, 9), round(e, 9), p] for name, s, e, p in rows]},
                      out, separators=(",", ":"))
