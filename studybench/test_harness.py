"""Self-test of the study benchmark on a tiny 2D study (ell 1..2).

    python3 -m pytest studybench/test_harness.py

Not part of the package's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "studybench/run.py", "--workload", "tiny2d", "--seed", "3",
         "--seconds", "0", *args],
        cwd=cwd or BENCH_DIR.parent, capture_output=True, text=True, timeout=170)


def _result(out):
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    for metric in res["metrics"].values():
        assert set(metric) == {"value", "unit"}
    return res, lines


@pytest.fixture(scope="module")
def traced():
    return _result(_bench("--trace", "1"))


def test_end_to_end_schema_and_environment():
    res, lines = _result(_bench("--trace", "0"))
    want = {(m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert {(k, m["unit"]) for k, m in res["metrics"].items()} == want
    assert all(m["value"] > 0 for m in res["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas", "blas_threads",
                "git_sha", "src_sha256", "seed"):
        assert key in env


def test_per_layer_schema(traced):
    res, _ = traced
    want = {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert {(k, m["unit"]) for k, m in res["metrics"].items()} == want


def test_self_times_cover_the_study(traced):
    res, lines = traced
    check = json.loads(next(line for line in lines if " self_check " in line)
                       .split(" self_check ", 1)[1])
    assert check["min_self_s"] >= 0.0
    for self_s, wall in zip(check["self_s"], check["traced_study_s"]):
        assert self_s <= wall
        assert wall - self_s <= 1e-3 * wall
    overhead = res["metrics"]["trace_overhead_s"]["value"]
    gap = statistics.median(check["self_s"]) - check["study_s"]
    assert abs(gap) <= abs(overhead) + 1e-2 * check["study_s"]


def test_golden_comparison_tolerance():
    golden = (BENCH_DIR / "golden" / "tiny2d.csv").read_text()
    tol = run.WORKLOADS["tiny2d"]["tol"]
    assert run.check_csv(golden, golden, tol) == []
    header, first, *rest = golden.strip().splitlines()
    fields = first.split(",")

    def with_field(i, value):
        row = fields[:i] + [value] + fields[i + 1:]
        return "\n".join([header, ",".join(row), *rest]) + "\n"

    lam = float(fields[2])
    assert run.check_csv(with_field(2, repr(lam * (1 + 1e-9))), golden, tol) == []
    assert run.check_csv(with_field(2, repr(lam * (1 + 1e-4))), golden, tol)
    assert run.check_csv(with_field(1, str(int(fields[1]) + 1)), golden, tol)
    assert run.check_csv("\n".join([header, *rest]) + "\n", golden, tol)


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "studybench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = _bench("--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
