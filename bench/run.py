"""Benchmark of facelex: four workloads against the public API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lattice --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload cli --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 101 --seconds 15 --repeat 10

A plain run imports facelex from ``src/`` of the checkout, sets up the
workload several times (each time with a fresh import, input generation,
the bodies and caches the workload reuses, and one warm-up pass), then
times whole passes over the seeded operation list in this one process and
thread until ``--seconds`` of passes have elapsed.  No time budget cuts a
pass short.  Outputs of the first pass are checked against independent
computations; later passes must reproduce them exactly.  Time metrics are
given at a reference machine speed (see ``SpeedProbe``).

``--trace 1`` sets up once, runs one untraced pass and then one pass with
the library's functions wrapped from outside (see ``tracer.py``), checks
that both passes give the same outputs, and reports the per-layer metrics
of the traced pass with the tracing overhead.  It always runs exactly these
two passes, whatever ``--seconds`` says, so its counts repeat exactly.

``--repeat N`` runs the plain benchmark N times in fresh processes with
seeds seed..seed+N-1 and prints the median and quartiles of every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from ops import Op, Raised  # noqa: E402

WORKLOADS = ("lattice", "certify", "diskhull", "cli")
SETUP_ROUNDS = 5
SUBMODULES = (
    "core", "polytope", "stepaffine", "preorder", "certify",
    "sampling", "oracle", "diskhull", "jsonio", "cli",
)


# The speed probe: exact elimination on a fixed rational matrix, the kind of
# work facelex spends its time on.  A shared or virtual CPU can change speed
# by a quarter within minutes, and every timing changes with it.  The probe
# runs, untimed, after every PROBE_EVERY operations; scaling a run's times by
# its mean probe time gives them at one reference speed, the speed at which
# the probe takes PROBE_REFERENCE_S.
PROBE_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, (i + 2 * j) % 4 + 1) for j in range(8)] for i in range(8)]
PROBE_ROUNDS = 4
PROBE_EVERY = 8
PROBE_REFERENCE_S = 0.005


class SpeedProbe:
    """The probe runs of one measurement, and the speed they show."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self) -> float:
        """Run the probe once; return and record its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            rows = [list(row) for row in PROBE_MATRIX]
            for col in range(len(rows)):
                pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
                if pivot is None:
                    continue
                rows[col], rows[pivot] = rows[pivot], rows[col]
                for r in range(col + 1, len(rows)):
                    factor = rows[r][col] / rows[col][col]
                    if factor:
                        rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def speed(self) -> float:
        """How much faster than the reference the machine ran, on average."""
        return PROBE_REFERENCE_S / statistics.mean(self.samples)


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


def load_library() -> SimpleNamespace:
    """Import facelex afresh from this checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "facelex" / "__init__.py").is_file():
        raise SetupError(f"no facelex sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "facelex" or m.startswith("facelex.")]:
        del sys.modules[name]
    lib = SimpleNamespace(fx=importlib.import_module("facelex"))
    if Path(lib.fx.__file__).resolve().parent != (src / "facelex").resolve():
        raise SetupError(f"facelex was imported from {lib.fx.__file__}, not from {src}")
    for name in SUBMODULES:
        setattr(lib, name, importlib.import_module(f"facelex.{name}"))
    return lib


def workload_module(name: str):
    return importlib.import_module(f"wl_{name}")


def run_pass(ops: list[Op], times: list[list[float]] | None = None,
             probe: SpeedProbe | None = None) -> tuple[list, float]:
    """Results of one pass and its wall time, not counting probe runs."""
    clock = time.perf_counter
    results = []
    probing = 0.0
    begin = clock()
    for index, op in enumerate(ops):
        if probe is not None and index % PROBE_EVERY == 0:
            probing += probe()
        start = clock()
        try:
            result = op.run()
        except Exception as exc:  # an escaped error is a failed operation
            result = Raised(type(exc).__name__, str(exc))
        elapsed = clock() - start
        results.append(result)
        if times is not None:
            times[index].append(elapsed)
    return results, clock() - begin - probing


def summarize(op: Op, result):
    if isinstance(result, Raised):
        return result
    try:
        return op.summary(result)
    except Exception as exc:  # a malformed output; the check reports it
        return Raised(type(exc).__name__, str(exc))


def judge(ops: list[Op], results: list) -> tuple[int, list[str]]:
    """Failed operations and output problems of one pass."""
    failed, problems = 0, []
    for op, result in zip(ops, results):
        op_failed, problem = op.verdict(result)
        failed += op_failed
        if problem:
            problems.append(problem)
    return failed, problems


def compare(ops: list[Op], reference: list, results: list, what: str) -> list[str]:
    return [
        f"{op.label}: output differs {what}"
        for op, ref, result in zip(ops, reference, results)
        if summarize(op, result) != ref
    ]


def set_up(name: str, seed: int, workdir: Path,
           probe: SpeedProbe | None = None) -> tuple[SimpleNamespace, list[Op], float]:
    """One set-up round: import, inputs, reused bodies and caches, warm-up pass."""
    start = time.perf_counter()
    lib = load_library()
    ops = workload_module(name).build(lib, seed, workdir)
    built = time.perf_counter() - start
    _results, warm_up = run_pass(ops, probe=probe)
    return lib, ops, built + warm_up


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    setup_times = []
    probe = SpeedProbe()
    ops: list[Op] = []
    for _ in range(SETUP_ROUNDS):
        ops = []
        gc.collect()
        _lib, ops, elapsed = set_up(name, seed, workdir, probe)
        setup_times.append(elapsed)
    if len(ops) < 100:
        raise SetupError(f"{name} has {len(ops)} operations; the p90 needs at least 100")

    times: list[list[float]] = [[] for _ in ops]
    pass_times: list[float] = []
    failed = 0
    reference, problems = None, []
    while not pass_times or sum(pass_times) < seconds:
        gc.collect()
        results, elapsed = run_pass(ops, times, probe)
        pass_times.append(elapsed)
        if reference is None:
            failed, problems = judge(ops, results)
            reference = [summarize(op, r) for op, r in zip(ops, results)]
        else:
            problems += compare(ops, reference, results, f"in pass {len(pass_times)}")
        del results

    passes = len(pass_times)
    samples = [t for op_times in times for t in op_times]
    deciles = statistics.quantiles(samples, n=10)
    raw = {
        "ops_per_s": len(samples) / sum(pass_times),
        "op_ms_p50": statistics.median(samples) * 1000,
        "op_ms_p90": deciles[8] * 1000,
        "setup_s": statistics.median(setup_times),
    }
    speed = probe.speed()
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / speed, "1/s"),
        "op_ms_p50": (raw["op_ms_p50"] * speed, "ms"),
        "op_ms_p90": (raw["op_ms_p90"] * speed, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (raw["setup_s"] * speed, "s"),
    }
    return {
        "correct": not problems,
        "attempted": passes * len(ops),
        "failed": passes * failed,
        "metrics": metrics,
        "problems": problems,
        "info": {"operations": len(ops), "pass_s": pass_times, "setup_rounds_s": setup_times,
                 "probe_runs": len(probe.samples), "speed_vs_reference": speed, "unscaled": raw},
    }


def trace(name: str, seed: int, workdir: Path) -> dict:
    from tracer import Tracer

    lib, ops, _elapsed = set_up(name, seed, workdir)
    gc.collect()
    untraced_probe, traced_probe = SpeedProbe(), SpeedProbe()
    untraced, untraced_s = run_pass(ops, probe=untraced_probe)
    failed, problems = judge(ops, untraced)
    reference = [summarize(op, r) for op, r in zip(ops, untraced)]
    del untraced

    tracer = Tracer()
    traced_ops = [dataclasses.replace(op, run=tracer.wrap("op", op.run)) for op in ops]
    gc.collect()
    tracer.install(lib)
    try:
        traced, traced_s = run_pass(traced_ops, probe=traced_probe)
    finally:
        tracer.uninstall()
    mismatches = compare(ops, reference, traced, "when traced")
    problems += mismatches
    failed_traced, _ = judge(ops, traced)

    metrics = tracer.metrics()
    metrics["trace.ops_per_s"] = (len(ops) / traced_s, "1/s")
    # Each pass at the reference speed, so that the machine's drift between
    # the two passes does not pass for overhead.
    overhead = (traced_s * traced_probe.speed()) / (untraced_s * untraced_probe.speed()) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write_spans(spans_path, {"workload": name, "seed": seed})
    return {
        "correct": not problems,
        "attempted": 2 * len(ops),
        "failed": failed + failed_traced,
        "metrics": metrics,
        "problems": problems,
        "info": {"spans_file": str(spans_path.relative_to(ROOT)), "traced_outputs_equal": not mismatches},
    }


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    })


def run_once(name: str, seed: int, seconds: float, traced: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{name}-{seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        if traced:
            return trace(name, seed, workdir)
        return measure(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def repeat(names: list[str], seed: int, seconds: float, count: int) -> None:
    """Run each workload ``count`` times in fresh processes; print quartiles."""
    summary = {}
    for name in names:
        runs = []
        for offset in range(count):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed + offset), "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} seed {seed + offset} exited {done.returncode}")
            record = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(record)
            speed = next((line.split(": ")[1] for line in done.stdout.splitlines()
                          if line.startswith("# speed_vs_reference")), "?")
            print(f"# {name} seed {seed + offset} speed {speed[:6]}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in record["metrics"].items()), flush=True)
        rows = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows[metric] = {"unit": first["unit"], "median": statistics.median(values),
                            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values),
                            "values": values}
            print(f"{name:9s} {metric:13s} median {statistics.median(values):12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {rows[metric]['spread']:.4f} {first['unit']}")
        summary[name] = {
            "seeds": [seed, seed + count - 1],
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": rows,
        }
        print(f"{name:9s} correct {summary[name]['correct']} "
              f"failed share {summary[name]['failed_share']}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"repeat-{'-'.join(names)}-seed{seed}.json").write_text(json.dumps(summary, indent=1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload, in fresh processes")
    args = parser.parse_args(argv)
    try:
        if args.repeat:
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            repeat(names, args.seed, args.seconds, args.repeat)
            return 0
        if args.workload == "all":
            parser.error("--workload all needs --repeat")
        record = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for key, value in record["info"].items():
        print(f"# {key}: {value}")
    for metric, (value, unit) in record["metrics"].items():
        print(f"{metric} {value:.6g} {unit}")
    print(f"attempted {record['attempted']} failed {record['failed']} correct {record['correct']}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
