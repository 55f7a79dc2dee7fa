"""Convergence-study benchmark for hpdg.

    python3 studybench/run.py --workload study2d --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; ``hpdg`` is imported from ``src/``.
Each workload is a fixed ``StudyConfig``.  The loop is closed: one study at a
time, each in a fresh interpreter (``worker.py``), repeated until ``--seconds``
have passed.  Every study's ``study.csv`` is checked against the golden copy in
``golden/`` and must be byte-identical across the studies of a run.

``--trace 0`` reports the end-to-end metrics (medians over the studies of the
run); ``--trace 1`` alternates untraced and traced studies and reports the
per-layer metrics of ``layers.py`` plus the tracing overhead.  The inputs do
not depend on ``--seed``: the program is deterministic, so repeated runs give
the spread, and the seed only labels the run.  Several ``--workload`` names
run one after another, with metric names prefixed by the workload.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden"
SCRATCH = ROOT / ".studybench"

# Every workload states its SCF tolerance: the golden comparison scales with it.
_SMOKE3D = dict(dim=3, ell_min=1, ell_max=3, p0=1, slope=0.25, alpha=0.5,
                pot_sign=-1, delta=3, tol=1e-7, ref_extra_levels=1, ref_extra_degree=0)
WORKLOADS = {
    # Criterion-4 study: assembly-heavy, small LU factorizations.
    "study2d": dict(dim=2, ell_min=2, ell_max=7, p0=2, slope=0.125, alpha=1.0,
                    pot_sign=-1, delta=3, tol=1e-10),
    # Criterion-8 parameters, with the reference one level finer at the same
    # degree so that a study fits the run time limit: sparse LU at N up to
    # 3984, about 1.6 factorizations per SCF sweep.
    "smoke3d": _SMOKE3D,
    # smoke3d's matrices with one eigensolve per level: nothing to reuse
    # across sweeps.  Not timed by BENCHMARK.json; run it by name as the
    # control for a change to factorization reuse.
    "linear3d": {**_SMOKE3D, "delta": None},
    # The full criterion-8 smoke (about 4 minutes, 1.1 GB): too long for a
    # timed run, kept to check the solver counts of ROADMAP item 2.
    "smoke3d_full": {**_SMOKE3D, "ref_extra_levels": 2, "ref_extra_degree": 1},
    # Harness self-test.
    "tiny2d": dict(dim=2, ell_min=1, ell_max=2, p0=2, slope=0.125, alpha=1.0,
                   pot_sign=-1, delta=3, tol=1e-10),
}

SETUP_REPS = 8
TIME_LIMIT_S = 170.0  # a run ends well inside 180 s even if a study hangs
# Golden comparison: ell and N exactly; lambda and the error columns to RTOL
# relative or ATOL_PER_TOL times the SCF tolerance absolute.  This admits
# roundoff-level drift and solver changes that meet the same stopping rule
# (ROADMAP aim 3), not a different discretization or a different eigenpair.
RTOL = 1e-5
ATOL_PER_TOL = 10.0
CSV_COLUMNS = ("ell", "N", "lambda", "err_l2", "err_dg", "err_linf", "err_lambda")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    cpu = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "hpdg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_seconds(config: dict) -> float:
    """Fresh interpreter to ``hpdg`` imported and the config validated."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import hpdg\n"
        f"hpdg.StudyConfig(**{config!r}).validate()\n"
        "print(time.monotonic(), hpdg.__file__)\n"
    )
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60, check=True)
    stamp, origin = out.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"hpdg was imported from {origin}, not from {SRC}")
    return float(stamp) - t0


def run_study(config: dict, trace: bool, out_dir: Path, timeout: float) -> dict:
    """One study in a fresh worker; raises BenchError when it fails."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(SRC), str(out_dir),
           json.dumps(config), "1" if trace else "0"]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"study did not finish within {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if out.returncode != 0:
        raise BenchError(f"worker exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _rows(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise BenchError("study.csv has an unexpected header")
    return [line.split(",") for line in lines[1:]]


def check_csv(text: str, golden: str, tol: float) -> list:
    """Mismatches of a study.csv against its golden copy (empty when it agrees);
    ``tol`` is the study's SCF tolerance."""
    got, want = _rows(text), _rows(golden)
    if len(got) != len(want):
        return [f"{len(got)} rows, golden has {len(want)}"]
    bad = []
    for g, w in zip(got, want):
        if g[:2] != w[:2]:
            bad.append(f"ell,N = {','.join(g[:2])}, golden {','.join(w[:2])}")
            continue
        for name, a, b in zip(CSV_COLUMNS[2:], g[2:], w[2:]):
            if not math.isclose(float(a), float(b), rel_tol=RTOL,
                                abs_tol=ATOL_PER_TOL * tol):
                bad.append(f"ell={g[0]} {name} = {a}, golden {b}")
    return bad


def measure(name: str, seconds: float, trace: bool, deadline: float) -> dict:
    config = WORKLOADS[name]
    golden = (GOLDEN / f"{name}.csv").read_text()
    # Set-up samples are taken half before and half after the studies, so that
    # they span the run rather than one burst of machine load.
    setup = [setup_seconds(config) for _ in range(SETUP_REPS // 2)]

    start = time.monotonic()
    runs = {False: [], True: []}
    attempted = failed = 0
    csv_bytes = set()
    while True:
        is_traced = trace and attempted % 2 == 1
        attempted += 1
        out_dir = SCRATCH / f"{name}-{os.getpid()}-{attempted}"
        try:
            res = run_study(config, is_traced, out_dir, deadline - time.monotonic())
            bad = check_csv(res["csv"], golden, config["tol"])
            if bad:
                raise BenchError("study.csv differs from golden: " + "; ".join(bad[:3]))
        except BenchError as exc:
            failed += 1
            print(f"{name}: study {attempted} failed: {exc}", file=sys.stderr, flush=True)
        else:
            runs[is_traced].append(res)
            csv_bytes.add(res["csv"])
            print(f"{name}: study {attempted}{' traced' if is_traced else ''} "
                  f"{res['study_s']:.3f}s", file=sys.stderr, flush=True)
        elapsed = time.monotonic() - start
        enough = attempted >= (2 if trace else 1) and elapsed >= seconds
        if enough or time.monotonic() >= deadline:
            break
    if not runs[False] or (trace and not runs[True]):
        raise BenchError(f"{name}: no study succeeded")
    setup += [setup_seconds(config) for _ in range(SETUP_REPS - len(setup))]

    plain = runs[False]
    study_s = statistics.median(r["study_s"] for r in plain)
    verdict = {"correct": failed == 0 and len(csv_bytes) == 1,
               "attempted": attempted, "failed": failed}
    if not trace:
        finest = _rows(plain[0]["csv"])[-1]
        verdict["metrics"] = {
            "study_s": (study_s, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "err_lambda_finest": (float(finest[6]), "1"),
            "err_dg_finest": (float(finest[4]), "1"),
        }
        return verdict

    traced = runs[True]
    layers = {}
    for key, (_, unit) in traced[0]["layers"].items():
        values = [r["layers"][key][0] for r in traced]
        if unit != "s" and len(set(values)) != 1:
            verdict["correct"] = False
            print(f"{name}: count {key} differs between traced studies: {values}",
                  file=sys.stderr)
        layers[key] = (statistics.median(values), unit)
    layers["trace_overhead_s"] = (
        statistics.median(r["study_s"] for r in traced) - study_s, "s")
    verdict["metrics"] = layers
    verdict["self_check"] = {
        "study_s": study_s,
        "self_s": [r["self_s"] for r in traced],
        "traced_study_s": [r["study_s"] for r in traced],
        "min_self_s": min(r["min_self_s"] for r in traced),
    }
    return verdict


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="labels the run; the inputs are fixed configurations")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hpdg" / "__init__.py").is_file():
        print(f"error: no hpdg sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    print("env " + json.dumps({**environment(), "seed": args.seed}), flush=True)

    results = {}
    try:
        for name in args.workload:
            deadline = started + TIME_LIMIT_S * (len(results) + 1)
            results[name] = measure(name, args.seconds, bool(args.trace), deadline)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    prefix = len(results) > 1
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, res in results.items():
        print(f"[{name}] correct={str(res['correct']).lower()} attempted={res['attempted']} "
              f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:.3f}")
        for key, (value, unit) in res["metrics"].items():
            print(f"[{name}] {key} = {value:.6g} {unit}")
            final["metrics"][f"{name}.{key}" if prefix else key] = {"value": value, "unit": unit}
        if "self_check" in res:
            print(f"[{name}] self_check " + json.dumps(res["self_check"]))
        final["correct"] = final["correct"] and res["correct"]
        final["attempted"] += res["attempted"]
        final["failed"] += res["failed"]
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
