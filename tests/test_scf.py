import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla

from hpdg.assembly import (PenaltyConfig, Potential, assemble_mass,
                           assemble_nonlinear_mass, assemble_sip)
from hpdg.eigsolve import DENSE_ALWAYS, smallest_eigenpair
from hpdg.hpspace import build_space, constant_field, inject
from hpdg.mesh import build_graded_mesh
from hpdg.scf import ScfConfig, ScfReport, solve_ground_state

POT = Potential(1.0, -1)
PEN = PenaltyConfig(10.0)


def space_2d(ell, p0=2, slope=0.125):
    return build_space(build_graded_mesh(2, 0.5, ell), p0, slope)


def test_linear_mode_matches_plain_eigensolve():
    space = space_2d(2)
    cfg = ScfConfig(eps_tol=1e-10, delta=None)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    a = assemble_sip(space, POT, PEN)
    m = assemble_mass(space)
    direct = smallest_eigenpair(a, m, orient=constant_field(space, 1.0).coeffs)
    assert rep.iterations == 1
    assert rep.converged and rep.residuals[-1] <= 1e-12
    assert rep.lam == pytest.approx(direct.lam, abs=1e-12)
    assert np.max(np.abs(u.coeffs - direct.x)) < 1e-10
    start = constant_field(space, 1.0).coeffs
    start = start / np.sqrt(start @ (m @ start))
    assert rep.alignments[0] == pytest.approx(float(u.coeffs @ (m @ start)), rel=1e-14)
    assert rep.alignments[0] < 1.0 - 1e-6


def test_converged_state_is_l2_normalized():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    m = assemble_mass(space)
    assert rep.converged
    assert float(u.coeffs @ (m @ u.coeffs)) == pytest.approx(1.0, abs=1e-10)


def test_reproducible_across_iteration_budgets():
    space = space_2d(4)
    lams = []
    for max_iter in (50, 200):
        cfg = ScfConfig(eps_tol=1e-10, max_iter=max_iter, theta=1.0, delta=3)
        _, rep = solve_ground_state(space, POT, PEN, cfg)
        assert rep.converged
        lams.append(rep.lam)
    assert lams[0] == pytest.approx(lams[1], abs=1e-8)


def test_monotone_residual_tail():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-10, theta=1.0, delta=3)
    _, rep = solve_ground_state(space, POT, PEN, cfg)
    tail = rep.residuals[-5:]
    if not all(a >= b for a, b in zip(tail, tail[1:])):
        cfg = ScfConfig(eps_tol=1e-10, theta=0.5, delta=3)
        _, rep = solve_ground_state(space, POT, PEN, cfg)
        tail = rep.residuals[-5:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_rayleigh_identity_at_convergence():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    a = assemble_sip(space, POT, PEN)
    n = assemble_nonlinear_mass(space, u, 3)
    rayleigh = float(u.coeffs @ (a @ u.coeffs)) + float(u.coeffs @ (n @ u.coeffs))
    assert rep.lam == pytest.approx(rayleigh, abs=1e-10)


def test_iterates_never_flip_sign():
    space = space_2d(4)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    _, rep = solve_ground_state(space, POT, PEN, cfg)
    assert all(a >= 0 for a in rep.alignments)


def test_linear_limit_of_weak_coupling():
    """lambda(eps) -> lambda* linearly as the nonlinear coupling vanishes."""
    space = space_2d(2)
    _, rep_lin = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-12, delta=None))
    lam_star = rep_lin.lam
    slopes = []
    for eps in (1e-2, 1e-4):
        cfg = ScfConfig(eps_tol=1e-12, delta=3, nonlinear_scale=eps)
        _, rep = solve_ground_state(space, POT, PEN, cfg)
        assert rep.converged
        slopes.append(abs(rep.lam - lam_star) / eps)
    assert slopes[0] > 0
    assert slopes[1] == pytest.approx(slopes[0], rel=0.3)


def test_nonconvergence_reported_not_raised():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-13, max_iter=2, delta=3)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    assert isinstance(rep, ScfReport)
    assert not rep.converged
    assert rep.iterations == 2


def test_iteration_log_lines():
    space = space_2d(2)
    lines = []
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    solve_ground_state(space, POT, PEN, cfg, log=lines.append)
    assert len(lines) >= 1
    for k, line in enumerate(lines, start=1):
        parts = line.split()
        assert int(parts[0]) == k and len(parts) == 3
        float(parts[1]), float(parts[2])


def test_config_validation():
    with pytest.raises(ValueError):
        ScfConfig(eps_tol=0.0)
    with pytest.raises(ValueError):
        ScfConfig(max_iter=0)
    with pytest.raises(ValueError):
        ScfConfig(theta=0.0)
    with pytest.raises(ValueError):
        ScfConfig(theta=1.5)


def test_energy_identity_at_ground_state():
    """E = lambda/2 - (1/2 - 1/(delta+1)) * int |u|^(delta+1)."""
    from hpdg.scf import discrete_energy
    from hpdg.hpspace import basis_matrix
    from hpdg.quadrature import element_rule

    space = space_2d(3)
    delta = 3
    u, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=delta))
    nl = 0.0
    for e in space.mesh.elements:
        p = int(space.degrees[e.id])
        rule = element_rule(e, p + 4)
        phi = basis_matrix(e, p, rule.points)
        nl += float(rule.weights @ np.abs(phi @ u.local(e.id)) ** (delta + 1))
    energy = discrete_energy(space, POT, PEN, u, delta)
    assert energy == pytest.approx(rep.lam / 2 - (0.5 - 1 / (delta + 1)) * nl, abs=1e-9)
    assert energy < rep.lam / 2


def test_repulsive_potential_converges():
    space = space_2d(2)
    pot = Potential(0.5, +1)
    u, rep = solve_ground_state(space, pot, PEN, ScfConfig(eps_tol=1e-10, delta=3))
    assert rep.converged
    _, rep0 = solve_ground_state(space, Potential(None), PEN,
                                 ScfConfig(eps_tol=1e-10, delta=3))
    assert rep.lam > rep0.lam  # repulsive potential raises the ground level


def test_warm_sparse_solve_factors_once(monkeypatch):
    """Every sweep after the first reuses the first sweep's LU."""
    pot = Potential(0.5, -1)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    coarse = build_space(build_graded_mesh(3, 0.5, 1), 1, 0.25)
    u1, _ = solve_ground_state(coarse, pot, PEN, cfg)
    space = build_space(build_graded_mesh(3, 0.5, 2), 1, 0.25)
    assert space.N > DENSE_ALWAYS
    factorizations = []
    splu = sla.splu
    monkeypatch.setattr(sla, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    u, rep = solve_ground_state(space, pot, PEN, cfg, u0=inject(u1, space))
    assert rep.converged and rep.iterations > 1
    assert len(factorizations) == 1
    a = assemble_sip(space, pot, PEN) + assemble_nonlinear_mass(space, u, 3)
    lam = dla.eigh(a.toarray(), assemble_mass(space).toarray(), eigvals_only=True,
                   subset_by_index=[0, 0])[0]
    assert rep.lam == pytest.approx(lam, abs=1e-10)


@pytest.mark.parametrize("ell,p0,slope,delta", [(3, 1, 0.25, 3), (2, 2, 0.0, None)])
def test_cold_3d_solve_reaches_the_ground_state(ell, p0, slope, delta):
    """A cold sparse solve starts from the p <= 1 subspace and finds lambda_1."""
    space = build_space(build_graded_mesh(3, 0.5, ell), p0, slope)
    assert space.N > 2000
    u, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-7, delta=delta))
    assert rep.converged
    a = assemble_sip(space, POT, PEN)
    if delta is not None:
        a = a + assemble_nonlinear_mass(space, u, delta)
    lam = dla.eigh(a.toarray(), assemble_mass(space).toarray(), eigvals_only=True,
                   subset_by_index=[0, 0])[0]
    assert rep.lam == pytest.approx(lam, rel=1e-8)


def test_readme_library_example_runs_in_3d():
    space = build_space(build_graded_mesh(3, 0.5, 3), 2, 0.125)
    _, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=3))
    assert rep.converged
    assert rep.residuals[-1] <= 1e-10
