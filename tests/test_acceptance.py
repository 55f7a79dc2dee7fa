"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
appear.  The heavy convergence studies are shared through module-scoped
fixtures; everything is deterministic.
"""

import time

import numpy as np
import pytest

import hpdg
from hpdg.cli import StudyConfig, _chain_solve, run_study
from hpdg.analysis import fit_exponential
from hpdg.assembly import SipAssembler
from hpdg.hpspace import build_space
from hpdg.mesh import build_graded_mesh
from hpdg.quadrature import singular_rule
from hpdg.scf import ScfConfig, solve_ground_state
from oracles import checked_integral, projected, radial_power

TWO_PI_SQ = 2 * np.pi**2


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def study4_config(out):
    return StudyConfig(dim=2, ell_min=2, ell_max=7, p0=2, slope=0.125,
                       alpha=1.0, pot_sign=-1, delta=3, penalty=10.0,
                       out=str(out))


@pytest.fixture(scope="module")
def study4(tmp_path_factory):
    out = tmp_path_factory.mktemp("study4")
    cfg = study4_config(out)
    records = run_study(cfg)
    return cfg, out, records


@pytest.fixture(scope="module")
def study4_solves(tmp_path_factory):
    """Per-level fields and SCF reports of the criterion-4 study chain, ell 1..ell_max."""
    out = tmp_path_factory.mktemp("study4_solves")
    cfg = study4_config(out)
    return _chain_solve(cfg, cfg.p0, cfg.ell_max, out)


@pytest.fixture(scope="module")
def study6(tmp_path_factory):
    out = tmp_path_factory.mktemp("study6")
    cfg = study4_config(out)
    cfg.slope = 0.5
    return run_study(cfg)


def test_criterion_1_linear_dirichlet_laplacian():
    t0 = time.time()
    space = build_space(build_graded_mesh(2, 0.5, 3), 3, 0.0)
    _, rep = solve_ground_state(space, hpdg.Potential(None), hpdg.PenaltyConfig(10.0),
                                ScfConfig(delta=None))
    rel = abs(rep.lam - TWO_PI_SQ) / TWO_PI_SQ
    ok = report(1, rel <= 1e-6,
                f"linear-mode lambda {rep.lam:.10f} vs 2 pi^2, rel err "
                f"{rel:.2e} (tol 1e-6), {time.time() - t0:.1f}s")
    assert ok


def test_criterion_2_patch_consistency():
    t0 = time.time()
    worst = 0.0
    for ell in (0, 2, 4):
        space = build_space(build_graded_mesh(2, 0.5, ell), 2, 0.0)
        a = SipAssembler(space, hpdg.Potential(None), hpdg.PenaltyConfig(10.0)).sip()
        v = projected(space, lambda p: (0.25 - p[:, 0] ** 2) * (0.25 - p[:, 1] ** 2))
        worst = max(worst, abs(float(v.coeffs @ (a @ v.coeffs)) - 1.0 / 45.0))
    ok = report(2, worst <= 1e-10,
                f"max |v'Av - 1/45| = {worst:.2e} over ell in (0,2,4) "
                f"(tol 1e-10), {time.time() - t0:.1f}s")
    assert ok


def test_criterion_3_singular_quadrature_oracle():
    t0 = time.time()
    worst = 0.0
    for d in (2, 3):
        mesh = build_graded_mesh(d, 0.5, 0)
        corner = np.flatnonzero(mesh.corner)[0]
        lo, hi = mesh.lo[corner], mesh.hi[corner]
        for alpha in (0.5, 1.0, 1.5):
            f = radial_power(alpha)
            rule = singular_rule(lo, mesh.lengths[corner], 10, 60)
            got = float(rule.weights @ f(rule.points))
            want = checked_integral(f, np.minimum(lo, hi), np.maximum(lo, hi))
            worst = max(worst, abs(got - want) / abs(want))
    ok = report(3, worst <= 1e-8,
                f"max relative mismatch composite vs adaptive oracle = {worst:.2e} "
                f"(tol 1e-8), {time.time() - t0:.1f}s")
    assert ok


def test_criterion_4_exponential_convergence_2d(study4):
    # Known red: at slope 1/8 the outer-layer degree increments once per ~8
    # levels, so the smooth-region error is a staircase over this 6-level
    # window and the fits cannot reach R^2 = 0.98 (ROADMAP item 4).
    _, _, records = study4
    fit_dg = fit_exponential(records, "dg", "ell")
    fit_l2 = fit_exponential(records, "l2", "ell")
    ok = report(4, fit_dg.r2 >= 0.98 and fit_l2.r2 >= 0.98 and fit_dg.b > 0,
                f"b_dg={fit_dg.b:.3f} (>0), R2_dg={fit_dg.r2:.4f}, "
                f"R2_l2={fit_l2.r2:.4f} (need >= 0.98)")
    assert ok


def test_criterion_5_eigenvalue_doubling(study4):
    _, _, records = study4
    b_dg = fit_exponential(records, "dg", "ell").b
    b_lam = fit_exponential(records, "lambda", "ell").b
    ratio = b_lam / b_dg
    ok = report(5, 1.5 <= ratio <= 2.5,
                f"b_lambda/b_dg = {b_lam:.3f}/{b_dg:.3f} = {ratio:.3f} "
                f"(need within [1.5, 2.5])")
    assert ok


def test_criterion_6_slope_degradation(study4, study6):
    # Known red: both slopes keep full eigenvalue doubling here because the
    # quadrature is accurate to ~1e-9 while every eigenvalue error in this
    # window stays above 5e-6, so the degradation mechanism (quadrature error
    # surfacing at high degree) cannot appear (ROADMAP item 4).
    _, _, rec4 = study4
    ratio4 = (fit_exponential(rec4, "lambda", "ell").b
              / fit_exponential(rec4, "dg", "ell").b)
    ratio6 = (fit_exponential(study6, "lambda", "ell").b
              / fit_exponential(study6, "dg", "ell").b)
    ok = report(6, ratio6 < ratio4,
                f"b_lambda/b_dg at slope 1/2 = {ratio6:.3f} vs slope 1/8 = "
                f"{ratio4:.3f} (need strictly smaller)")
    assert ok


def test_criterion_7_scf_contract(study4_solves):
    worst_resid, worst_norm, worst_ray = 0.0, 0.0, 0.0
    for ell, (u, rep) in study4_solves.items():
        assert rep.converged, f"level {ell} did not converge"
        space = u.space
        m = hpdg.assemble_mass(space)
        asm = SipAssembler(space, hpdg.Potential(1.0, -1), hpdg.PenaltyConfig(10.0))
        a, n = asm.sip(), asm.nonlinear_mass(u, 3)
        rayleigh = float(u.coeffs @ ((a + n) @ u.coeffs))
        worst_resid = max(worst_resid, rep.residuals[-1])
        worst_norm = max(worst_norm, abs(float(u.coeffs @ (m @ u.coeffs)) - 1.0))
        worst_ray = max(worst_ray, abs(rep.lam - rayleigh))
    ok = report(7, worst_resid <= 1e-10 and worst_norm <= 1e-10 and worst_ray <= 1e-10,
                f"max residual {worst_resid:.2e}, max |norm-1| {worst_norm:.2e}, "
                f"max |lambda-Rayleigh| {worst_ray:.2e} (all <= 1e-10)")
    assert ok


def test_criterion_8_3d_smoke(tmp_path):
    t0 = time.time()
    cfg = StudyConfig(dim=3, ell_min=1, ell_max=3, p0=1, slope=0.25, alpha=0.5,
                      pot_sign=-1, delta=3, penalty=10.0, tol=1e-7,
                      out=str(tmp_path / "study8"))
    records = run_study(cfg)
    decreasing = all(
        getattr(a, col) > getattr(b, col)
        for col in ("err_l2", "err_dg", "err_linf", "err_lambda")
        for a, b in zip(records, records[1:])
    )
    ok = report(8, decreasing and len(records) == 3,
                f"3D errors strictly decreasing across ell=1..3: {decreasing}, "
                f"no convergence failure, {time.time() - t0:.0f}s")
    assert ok


def test_criterion_9_determinism(study4, tmp_path):
    cfg, out, _ = study4
    cfg2 = study4_config(tmp_path / "rerun")
    run_study(cfg2)
    same = (out / "study.csv").read_bytes() == (tmp_path / "rerun" / "study.csv").read_bytes()
    ok = report(9, same, f"rerun CSV byte-identical: {same}")
    assert ok
