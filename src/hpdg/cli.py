"""Batch driver: level sweeps, CSV tables, fitted rate coefficients.

Configuration comes from an optional plain-text ``key = value`` file plus
command-line overrides.  A study solves the reference problem once (at
ell_max + ref_extra_levels refinement steps and base degree p0 +
ref_extra_degree), then sweeps ell, measuring all error norms against the
reference and fitting exponential rates for every error column on both
abscissae (ell and N^(1/(d+1))).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .analysis import ConvergenceRecord, error_norms, fit_exponential
from .assembly import PenaltyConfig, Potential
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
    theta: float = 1.0
    ref_extra_levels: int = 2
    ref_extra_degree: int = 1
    out: str = "study_out"
    gnuplot: bool = False

    def validate(self):
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
        if self.slope < 0:
            raise ConfigError(f"slope must be >= 0, got {self.slope}")
        if self.alpha is not None and self.alpha not in ALPHAS:
            raise ConfigError(f"alpha must be one of {ALPHAS} or none, got {self.alpha}")
        if self.pot_sign not in (-1, 1):
            raise ConfigError(f"pot_sign must be -1 or +1, got {self.pot_sign}")
        if self.delta is not None and self.delta not in (2, 3, 4):
            raise ConfigError(f"delta must be 2, 3, 4 or linear, got {self.delta}")
        if self.penalty <= 0:
            raise ConfigError(f"penalty must be positive, got {self.penalty}")
        if self.tol is not None and self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.theta <= 1.0):
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        if self.ref_extra_levels < 1:
            raise ConfigError(f"ref_extra_levels must be >= 1, got {self.ref_extra_levels}")
        if self.ref_extra_degree < 0:
            raise ConfigError(f"ref_extra_degree must be >= 0, got {self.ref_extra_degree}")

    @property
    def scf_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-10 if self.dim == 2 else 1e-7


def _chain_solve(cfg: StudyConfig, p0: int, ell_last: int, outdir: Path, tag: str,
                 keep_from: int | None = None):
    """Solve levels 1..ell_last with warm starts; return {ell: (u, report)}."""
    potential = Potential(cfg.alpha, cfg.pot_sign)
    penalty = PenaltyConfig(cfg.penalty)
    scf_cfg = ScfConfig(eps_tol=cfg.scf_tol, max_iter=cfg.max_iter,
                        theta=cfg.theta, delta=cfg.delta)
    kept = {}
    prev = None
    for ell in range(1, ell_last + 1):
        mesh = build_graded_mesh(cfg.dim, cfg.sigma, ell)
        space = build_space(mesh, p0, cfg.slope)
        u0 = inject(prev, space) if prev is not None else None
        lines = []
        u, rep = solve_ground_state(space, potential, penalty, scf_cfg,
                                    u0=u0, log=lines.append)
        (outdir / f"iters_{tag}_ell{ell}.log").write_text("\n".join(lines) + "\n")
        if not rep.converged:
            raise StudyError(
                f"SCF did not converge at {tag} level ell={ell} "
                f"(residual {rep.residuals[-1]:.3e} after {rep.iterations} sweeps)"
            )
        prev = u
        if keep_from is None or ell >= keep_from:
            kept[ell] = (u, rep)
    return kept


def run_study(cfg: StudyConfig):
    """Run the convergence study; writes study.csv, fits.txt and logs.

    Returns the list of ConvergenceRecords.
    """
    cfg.validate()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    ell_ref = cfg.ell_max + cfg.ref_extra_levels
    ref = _chain_solve(cfg, cfg.p0 + cfg.ref_extra_degree, ell_ref, outdir,
                       tag="ref", keep_from=ell_ref)
    u_ref, rep_ref = ref[ell_ref]

    solves = _chain_solve(cfg, cfg.p0, cfg.ell_max, outdir,
                          tag="study", keep_from=cfg.ell_min)

    records = []
    for ell in range(cfg.ell_min, cfg.ell_max + 1):
        u, rep = solves[ell]
        errs = error_norms(u, u_ref)
        records.append(ConvergenceRecord(
            ell=ell, N=u.space.N, lam=rep.lam,
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

    if cfg.gnuplot:
        for column in ("l2", "dg", "linf", "lambda"):
            rows = [f"{r.ell} {getattr(r, 'err_' + column):.16e}" for r in records]
            (outdir / f"err_{column}.dat").write_text("\n".join(rows) + "\n")

    return records


# ---------------------------------------------------------------------------
# configuration file and command line
# ---------------------------------------------------------------------------

def _parse_alpha(text: str):
    t = text.strip().lower()
    if t in ("none", "off", "0"):
        return None
    return float(t)


def _parse_delta(text: str):
    t = text.strip().lower()
    if t in ("none", "linear", "0"):
        return None
    return int(t)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes"):
        return True
    if t in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text.strip()!r}")


_PARSERS = {
    "dim": int, "sigma": float, "ell_min": int, "ell_max": int, "p0": int,
    "slope": float, "alpha": _parse_alpha, "pot_sign": int, "delta": _parse_delta,
    "penalty": float, "tol": float, "max_iter": int, "theta": float,
    "ref_extra_levels": int, "ref_extra_degree": int, "out": str,
    "gnuplot": _parse_bool,
}


def load_config_file(path) -> dict:
    """Parse a 'key = value' file; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, _, raw = body.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
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
    p.add_argument("--dim", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--levels", type=int, dest="ell_max", help="finest study level")
    p.add_argument("--ell-min", type=int, dest="ell_min", help="coarsest recorded level")
    p.add_argument("--p0", type=int)
    p.add_argument("--slope", type=float)
    p.add_argument("--alpha", type=_parse_alpha,
                   help="potential exponent (0.5, 1, 1.5) or 'none'")
    p.add_argument("--pot-sign", type=int, dest="pot_sign", choices=(-1, 1))
    p.add_argument("--delta", type=_parse_delta,
                   help="nonlinearity exponent (2, 3, 4) or 'linear'")
    p.add_argument("--penalty", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--theta", type=float)
    p.add_argument("--ref-extra-levels", type=int, dest="ref_extra_levels")
    p.add_argument("--ref-extra-degree", type=int, dest="ref_extra_degree")
    p.add_argument("--out", type=str)
    p.add_argument("--gnuplot", action="store_true", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = load_config_file(args.config) if args.config else {}
        for f in fields(StudyConfig):
            v = getattr(args, f.name, None)
            if v is not None:
                values[f.name] = v
        cfg = StudyConfig(**values)
        records = run_study(cfg)
    except (ConfigError, StudyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} levels to {cfg.out}/study.csv")
    for r in records:
        print(f"  ell={r.ell} N={r.N} lambda={r.lam:.10f} "
              f"err_dg={r.err_dg:.3e} err_lambda={r.err_lambda:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
