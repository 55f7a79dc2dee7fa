"""Batch driver: level sweeps, CSV tables, fitted rate coefficients.

Configuration comes from an optional plain-text ``key = value`` file plus
command-line overrides.  A study solves levels 1..ell_max at base degree p0,
each warm-started from the previous one, then solves the reference problem
once (at ell_max + ref_extra_levels refinement steps and base degree p0 +
ref_extra_degree), warm-started from the finest study level injected into the
reference space.  It measures the error norms of every recorded level against
the reference in one pass, which evaluates the reference once, and fits
exponential rates for every error column on both abscissae (ell and
N^(1/(d+1))).
"""

from __future__ import annotations

import argparse
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import ConvergenceRecord, error_norms, fit_exponential
from .assembly import NONLINEAR_EXPONENTS, PenaltyConfig, Potential, assemble_mass
from .eigsolve import EigenSolveError
from .hpspace import build_space, inject
from .mesh import build_graded_mesh
from .scf import ScfConfig, solve_ground_state

CSV_HEADER = "ell,N,lambda,err_l2,err_dg,err_linf,err_lambda"
ALPHAS = (0.5, 1.0, 1.5)


class ConfigError(ValueError):
    pass


class StudyError(RuntimeError):
    pass


@dataclass
class StudyConfig:
    dim: int = 2
    sigma: float = 0.5
    ell_min: int = 1
    ell_max: int = 6
    p0: int = 2
    slope: float = 0.125
    alpha: float | None = 1.0  # exponent of the potential; None for V = 0
    pot_sign: int = -1
    delta: int | None = 3  # nonlinearity exponent; None for the linear problem
    penalty: float = 10.0
    tol: float | None = None  # SCF residual tolerance; default depends on dim
    max_iter: int = 100
    ref_extra_levels: int = 2
    ref_extra_degree: int = 1
    out: str = "study_out"

    def validate(self):
        integers = ("dim", "ell_min", "ell_max", "p0", "pot_sign", "delta", "max_iter",
                    "ref_extra_levels", "ref_extra_degree")
        for key in integers + ("sigma", "slope", "alpha", "penalty", "tol"):
            value = getattr(self, key)
            if value is None and key in ("delta", "alpha", "tol"):
                continue
            kind, noun = ((numbers.Integral, "an integer") if key in integers
                          else (numbers.Real, "a number"))
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{key} must be {noun}, got {value!r}")
        if self.dim not in (2, 3):
            raise ConfigError(f"dim must be 2 or 3, got {self.dim}")
        if not (0.0 < self.sigma <= 0.5):
            raise ConfigError(f"sigma must lie in (0, 1/2], got {self.sigma}")
        if self.ell_min < 1 or self.ell_max < self.ell_min:
            raise ConfigError(
                f"levels must satisfy 1 <= ell_min <= ell_max, got "
                f"ell_min={self.ell_min}, ell_max={self.ell_max}"
            )
        if self.p0 < 1:
            raise ConfigError(f"p0 must be >= 1, got {self.p0}")
        if not (0 <= self.slope < np.inf):
            raise ConfigError(f"slope must be finite and >= 0, got {self.slope}")
        if self.alpha is not None and self.alpha not in ALPHAS:
            raise ConfigError(f"alpha must be one of {ALPHAS} or none, got {self.alpha}")
        if self.pot_sign not in (-1, 1):
            raise ConfigError(f"pot_sign must be -1 or +1, got {self.pot_sign}")
        if self.delta is not None and self.delta not in NONLINEAR_EXPONENTS:
            raise ConfigError(f"delta must be one of {NONLINEAR_EXPONENTS} or linear, "
                              f"got {self.delta}")
        if not (0 < self.penalty < np.inf):
            raise ConfigError(f"penalty must be finite and positive, got {self.penalty}")
        if self.tol is not None and not (0 < self.tol < np.inf):
            raise ConfigError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.ref_extra_levels < 1:
            raise ConfigError(f"ref_extra_levels must be >= 1, got {self.ref_extra_levels}")
        if self.ref_extra_degree < 0:
            raise ConfigError(f"ref_extra_degree must be >= 0, got {self.ref_extra_degree}")
        if not self.out:
            raise ConfigError("out: must name a directory, got ''")

    @property
    def scf_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-10 if self.dim == 2 else 1e-7


# A warm-started level whose ground state keeps less M-overlap than this with
# its injected start has landed on an M-orthogonal (excited) state: along a
# nested chain, and for the reference's jump, the overlap stays above 0.999.
MIN_START_OVERLAP = 0.5


def _m_overlap(u, v) -> float:
    """|(u, v)_M| of the two fields on one space, after normalizing both."""
    m, a, b = assemble_mass(u.space), u.coeffs, v.coeffs
    return float(abs(a @ (m @ b)) / np.sqrt((a @ (m @ a)) * (b @ (m @ b))))


def _level_solve(cfg: StudyConfig, p0: int, ell: int, prev, outdir: Path):
    """Solve level ell at base degree p0, warm-started from ``prev`` injected
    into its space (cold when ``prev`` is None); return (u, report)."""
    t0 = time.perf_counter()
    scf_cfg = ScfConfig(eps_tol=cfg.scf_tol, max_iter=cfg.max_iter, delta=cfg.delta)
    where = f"p0={p0} ell={ell}"
    lines = []
    try:
        space = build_space(build_graded_mesh(cfg.dim, cfg.sigma, ell), p0, cfg.slope)
        where += f" N={space.N * space.mesh.copies}"
        u0 = inject(prev, space) if prev is not None else None
        u, rep = solve_ground_state(space, Potential(cfg.alpha, cfg.pot_sign),
                                    PenaltyConfig(cfg.penalty), scf_cfg,
                                    u0=u0, log=lines.append)
    except EigenSolveError as exc:
        best = "" if exc.best is None else f" (best residual {exc.best.residual:.3e})"
        raise StudyError(f"eigensolve failed at {where}{best}: {exc}") from exc
    except ValueError as exc:
        raise StudyError(f"level {where} failed: {exc}") from exc
    (outdir / f"iters_p{p0}_ell{ell}.log").write_text("\n".join(lines) + "\n")
    if not rep.converged:
        raise StudyError(
            f"SCF did not converge at {where} "
            f"(residual {rep.residuals[-1]:.3e} after {rep.iterations} sweeps)"
        )
    if u0 is not None and (overlap := _m_overlap(u, u0)) < MIN_START_OVERLAP:
        raise StudyError(f"excited state at {where}: M-overlap {overlap:.3e} with the "
                         f"warm start is below {MIN_START_OVERLAP}")
    print(f"level {where} sweeps={rep.iterations} "
          f"t={time.perf_counter() - t0:.2f}s", file=sys.stderr, flush=True)
    return u, rep


def _chain_solve(cfg: StudyConfig, p0: int, ell_last: int, outdir: Path):
    """Solve levels 1..ell_last with warm starts; return {ell: (u, report)}."""
    levels, prev = {}, None
    for ell in range(1, ell_last + 1):
        levels[ell] = _level_solve(cfg, p0, ell, prev, outdir)
        prev = levels[ell][0]
    return levels


def run_study(cfg: StudyConfig):
    """Run the convergence study; writes study.csv, fits.txt and logs.

    Returns the list of ConvergenceRecords.
    """
    cfg.validate()
    outdir = Path(cfg.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create directory {str(outdir)!r}: "
                          f"{exc.strerror}") from exc

    solves = _chain_solve(cfg, cfg.p0, cfg.ell_max, outdir)
    # The meshes nest and each reference degree is at least the study degree,
    # so the finest study level injects exactly into the reference space.
    u_ref, rep_ref = _level_solve(cfg, cfg.p0 + cfg.ref_extra_degree,
                                  cfg.ell_max + cfg.ref_extra_levels,
                                  solves[cfg.ell_max][0], outdir)

    levels = range(cfg.ell_min, cfg.ell_max + 1)
    norms = error_norms([solves[ell][0] for ell in levels], u_ref)
    records = []
    for ell, errs in zip(levels, norms):
        u, rep = solves[ell]
        records.append(ConvergenceRecord(
            ell=ell, N=u.space.N * u.space.mesh.copies, lam=rep.lam,
            err_l2=errs["l2"], err_dg=errs["dg"], err_linf=errs["linf"],
            err_lambda=abs(rep.lam - rep_ref.lam),
        ))

    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.ell},{r.N},{r.lam:.16e},{r.err_l2:.16e},{r.err_dg:.16e},"
            f"{r.err_linf:.16e},{r.err_lambda:.16e}"
        )
    (outdir / "study.csv").write_text("\n".join(lines) + "\n")

    fit_lines = []
    for column in ("l2", "dg", "linf", "lambda"):
        for abscissa in ("ell", "ndof_root"):
            try:
                fit = fit_exponential(records, column, abscissa, dim=cfg.dim)
                fit_lines.append(
                    f"{column} {abscissa} {fit.b:.16e} {fit.C:.16e} {fit.r2:.16e}"
                )
            except ValueError:
                fit_lines.append(f"{column} {abscissa} nan nan nan")
    (outdir / "fits.txt").write_text("\n".join(fit_lines) + "\n")

    return records


# ---------------------------------------------------------------------------
# configuration file and command line
# ---------------------------------------------------------------------------

def _parse_alpha(text: str):
    t = text.strip().lower()
    if t in ("none", "off"):
        return None
    return float(t)


def _parse_delta(text: str):
    t = text.strip().lower()
    if t in ("none", "linear"):
        return None
    return int(t)


_PARSERS = {
    "dim": int, "sigma": float, "ell_max": int, "ell_min": int, "p0": int,
    "slope": float, "alpha": _parse_alpha, "pot_sign": int, "delta": _parse_delta,
    "penalty": float, "tol": float, "max_iter": int,
    "ref_extra_levels": int, "ref_extra_degree": int, "out": str,
}


def load_config_file(path) -> dict:
    """Parse a 'key = value' file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {str(path)!r}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot decode config file {str(path)!r}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice")
        try:
            values[key] = _PARSERS[key](raw.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hpdg",
        description="Ground-state convergence studies for singular Schrodinger "
                    "operators with the hp dG (SIP) method.",
    )
    p.add_argument("config", nargs="?", help="key = value configuration file")
    helps = {"ell_max": "finest study level", "ell_min": "coarsest recorded level",
             "alpha": "potential exponent (0.5, 1, 1.5) or 'none'",
             "delta": "nonlinearity exponent (2, 3, 4) or 'linear'"}
    for key, parse in _PARSERS.items():
        flag = "--levels" if key == "ell_max" else "--" + key.replace("_", "-")
        # a flag left out is absent from the namespace, so any flag given wins,
        # even one whose value is None (``--alpha none``, ``--delta linear``)
        p.add_argument(flag, type=parse, dest=key, default=argparse.SUPPRESS,
                       help=helps.get(key))
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = load_config_file(args.config) if args.config else {}
        values.update((k, v) for k, v in vars(args).items() if k != "config")
        cfg = StudyConfig(**values)
        records = run_study(cfg)
    except (ConfigError, StudyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} levels to {Path(cfg.out) / 'study.csv'}")
    for r in records:
        print(f"  ell={r.ell} N={r.N} lambda={r.lam:.10f} "
              f"err_dg={r.err_dg:.3e} err_lambda={r.err_lambda:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
