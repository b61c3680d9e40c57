"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They take a couple of minutes: each workload is traced twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import METRICS, TARGETS, Tracer  # noqa: E402


SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _traced(workload: str, seed: int, tmp_path: Path) -> dict:
    workdir = tmp_path / f"work-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return run.trace(workload, seed, workdir)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_runs_repeat_their_counts(workload, tmp_path):
    first, second = _traced(workload, 3, tmp_path), _traced(workload, 3, tmp_path)
    assert first["problems"] == [] and second["problems"] == []
    counts = [{k: v for k, (v, unit) in r["metrics"].items() if unit == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert first["failed"] == second["failed"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_outputs_equal_untraced_outputs(workload, tmp_path):
    record = _traced(workload, 4, tmp_path)
    assert record["info"]["traced_outputs_equal"] is True


def test_tracer_reports_zero_for_functions_the_library_lacks():
    empty = SimpleNamespace(**{module: types.ModuleType(module) for _n, module, _a, _h in TARGETS})
    tracer = Tracer()
    tracer.install(empty)
    tracer.uninstall()
    metrics = tracer.metrics()
    assert set(METRICS) <= set(metrics)
    assert all(value == 0 for value, _unit in metrics.values())


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert "no facelex sources" in done.stderr


def test_benchmark_json_names_the_workloads_and_end_to_end_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mib", "setup_s"}
