"""Run one hpdg study in this interpreter and report it as one JSON line.

Usage: python3 worker.py SRC_DIR OUT_DIR CONFIG_JSON TRACE

SRC_DIR is the directory holding the ``hpdg`` package, OUT_DIR receives
``study.csv`` and the solver logs, CONFIG_JSON holds the ``StudyConfig``
fields, and TRACE is 1 to time each layer (see ``layers.py``).  A line
``level <tag> ell=<ell> N=<N> sweeps=<k> <seconds>s`` goes to stderr after each
solved level.  The last stdout line is a JSON object with ``study_s``,
``peak_rss_mb``, ``csv`` (the text of study.csv) and, when traced,
``layers``, ``self_s`` (sum of span self times) and ``min_self_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _report_levels(cli_module):
    """Rebind ``solve_ground_state`` in the cli module to print one line per
    level; returns the previous binding."""
    solve = cli_module.solve_ground_state
    chains = [0]  # run_study solves the reference chain, then the study chain

    def solve_and_report(space, *args, **kwargs):
        if space.mesh.ell == 1:
            chains[0] += 1
        t0 = time.perf_counter()
        u, rep = solve(space, *args, **kwargs)
        tag = "ref" if chains[0] == 1 else "study"
        print(f"level {tag} ell={space.mesh.ell} N={space.N} sweeps={rep.iterations} "
              f"{time.perf_counter() - t0:.2f}s", file=sys.stderr, flush=True)
        return u, rep

    cli_module.solve_ground_state = solve_and_report
    return solve


def run_one(config: dict, out_dir: str, trace: bool) -> dict:
    """Run the study given by ``config`` (``StudyConfig`` fields) once."""
    from hpdg import cli

    cfg = cli.StudyConfig(**config, out=out_dir)
    result = {}
    uninstall = None
    if trace:
        from layers import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
    solve = _report_levels(cli)
    try:
        t0 = time.perf_counter()
        cli.run_study(cfg)
        result["study_s"] = time.perf_counter() - t0
    finally:
        cli.solve_ground_state = solve
        if uninstall is not None:
            uninstall()
    if trace:
        result["layers"] = tracer.metrics()
        result["self_s"] = tracer.total_self_s()
        result["min_self_s"] = min(tracer.min_self_s.values())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["csv"] = (Path(out_dir) / "study.csv").read_text()
    return result


def main(argv) -> int:
    src_dir, out_dir, config_json, trace = argv
    sys.path.insert(0, src_dir)
    result = run_one(json.loads(config_json), out_dir, trace == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
