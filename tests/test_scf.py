import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla

from hpdg import scf
from hpdg.assembly import PenaltyConfig, Potential, SipAssembler, assemble_mass
from hpdg.eigsolve import smallest_eigenpair
from hpdg.hpspace import DiscreteField, build_space, constant_field, inject
from hpdg.mesh import build_graded_mesh
from hpdg.scf import ScfConfig, ScfReport, solve_ground_state
from oracles import dense_lambda, element_dofs, full_cube_mesh

POT = Potential(1.0, -1)
PEN = PenaltyConfig(10.0)


def space_2d(ell, p0=2, slope=0.125):
    return build_space(build_graded_mesh(2, 0.5, ell), p0, slope)


def test_linear_mode_matches_plain_eigensolve():
    space = space_2d(2)
    cfg = ScfConfig(eps_tol=1e-10, delta=None)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    a = SipAssembler(space, POT, PEN).sip()
    m = assemble_mass(space)
    direct = smallest_eigenpair(a, m, x0=scf._coarse_start(space, a, m.diagonal()),
                                orient=constant_field(space, 1.0).coeffs)
    assert rep.iterations == 1
    assert rep.converged and rep.residuals[-1] <= 1e-12
    assert rep.lam == pytest.approx(direct.lam, abs=1e-12)
    assert np.max(np.abs(u.coeffs - direct.x)) < 1e-10
    start = constant_field(space, 1.0).coeffs
    start = start / np.sqrt(start @ (m @ start))
    assert 0 <= float(u.coeffs @ (m @ start)) < 1.0 - 1e-6


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
        cfg = ScfConfig(eps_tol=1e-10, max_iter=max_iter, delta=3)
        _, rep = solve_ground_state(space, POT, PEN, cfg)
        assert rep.converged
        lams.append(rep.lam)
    assert lams[0] == pytest.approx(lams[1], abs=1e-8)


def test_monotone_residual_tail():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    _, rep = solve_ground_state(space, POT, PEN, cfg)
    tail = rep.residuals[-5:]
    assert all(a >= b for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("ell,alpha,delta,scale", [(4, 1.0, 4, 10.0), (4, 1.0, 2, 100.0),
                                                   (4, 1.0, 3, 100.0), (4, 1.0, 4, 100.0),
                                                   (3, 1.5, 4, 1.0)])
def test_strong_coupling_converges_to_the_ground_state_of_its_linearization(ell, alpha, delta,
                                                                            scale):
    """The plain fixed point does not converge in 100 sweeps on these; the
    Anderson step does, and its lambda is the smallest eigenvalue of the
    dense pencil (A_sip + N(u), M) at the returned u, below the second."""
    space = space_2d(ell)
    pot = Potential(alpha, -1)
    cfg = ScfConfig(eps_tol=1e-10, delta=delta, nonlinear_scale=scale)
    u, rep = solve_ground_state(space, pot, PEN, cfg)
    assert rep.converged
    asm = SipAssembler(space, pot, PEN)
    a = asm.sip() + asm.nonlinear_mass(u, delta, scale)
    w = dla.eigh(a.toarray(), assemble_mass(space).toarray(), eigvals_only=True,
                 subset_by_index=[0, 1])
    assert rep.lam == pytest.approx(w[0], rel=1e-10, abs=0.0)
    assert w[1] - w[0] > 1e-3 * abs(w[0])


def test_rayleigh_identity_at_convergence():
    space = space_2d(3)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    u, rep = solve_ground_state(space, POT, PEN, cfg)
    asm = SipAssembler(space, POT, PEN)
    a, n = asm.sip(), asm.nonlinear_mass(u, 3)
    rayleigh = float(u.coeffs @ (a @ u.coeffs)) + float(u.coeffs @ (n @ u.coeffs))
    assert rep.lam == pytest.approx(rayleigh, abs=1e-10)


def test_iterates_never_flip_sign(monkeypatch):
    """Every sweep's eigenvector has a nonnegative M-product with the iterate
    it replaces, so the Anderson step never mixes in a sign-flipped state."""
    space = space_2d(4)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    calls = []

    def recording(a, m, **kwargs):
        eig = smallest_eigenpair(a, m, **kwargs)
        calls.append((eig.x, kwargs["orient"]))
        return eig

    monkeypatch.setattr(scf, "smallest_eigenpair", recording)
    _, rep = solve_ground_state(space, POT, PEN, cfg)
    assert rep.converged and len(calls) == rep.iterations > 1
    d = assemble_mass(space).diagonal()
    assert all(x @ (d * orient) >= 0 for x, orient in calls)


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
    cfg = ScfConfig(eps_tol=1e-10, max_iter=2, delta=3)
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
    with pytest.raises(TypeError, match="theta"):  # the Anderson step has no damping knob
        ScfConfig(theta=0.5)
    for bad in (0, 1, 5):  # delta outside NONLINEAR_EXPONENTS, refused before any assembly
        with pytest.raises(ValueError, match="delta"):
            ScfConfig(delta=bad)
    assert ScfConfig(delta=None).delta is None
    for bad in (2.5, 3.0, "3", True):  # refused by name, not by range() in the SCF loop
        with pytest.raises(ValueError, match="max_iter"):
            ScfConfig(max_iter=bad)
    assert ScfConfig(max_iter=np.int64(3)).max_iter == 3
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps_tol"):
            ScfConfig(eps_tol=bad)
        with pytest.raises(ValueError, match="penalty"):
            PenaltyConfig(bad)


@pytest.mark.parametrize("key,bad", [("eps_tol", "1e-10"), ("eps_tol", None), ("eps_tol", True),
                                     ("nonlinear_scale", float("nan")),
                                     ("nonlinear_scale", "1")])
def test_config_refuses_a_non_number_by_name(key, bad):
    with pytest.raises(ValueError, match=key):
        ScfConfig(**{key: bad})


def test_energy_identity_at_ground_state():
    """E = lambda/2 - (1/2 - 1/(delta+1)) * int |u|^(delta+1), the integral
    over the cube: copies times the one over the octant."""
    from oracles import discrete_energy
    from hpdg.hpspace import basis_matrix
    from hpdg.quadrature import element_rule

    space = space_2d(3)
    delta = 3
    u, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=delta))
    nl = 0.0
    for e, (lo, lengths) in enumerate(zip(space.mesh.lo, space.mesh.lengths)):
        p = int(space.degrees[e])
        rule = element_rule(lo, lengths, p + 4)
        phi = basis_matrix(lo, lengths, p, rule.points)
        nl += float(rule.weights @ np.abs(phi @ u.coeffs[element_dofs(space, e)]) ** (delta + 1))
    nl *= space.mesh.copies
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
    coarse = build_space(build_graded_mesh(3, 0.5, 3), 1, 0.25)
    u1, _ = solve_ground_state(coarse, pot, PEN, cfg)
    space = build_space(build_graded_mesh(3, 0.5, 4), 1, 0.25)
    factorizations = []
    splu = sla.splu
    monkeypatch.setattr(sla, "splu", lambda *a, **k: factorizations.append(1) or splu(*a, **k))
    u, rep = solve_ground_state(space, pot, PEN, cfg, u0=inject(u1, space))
    assert rep.converged and rep.iterations > 1
    assert len(factorizations) == 1
    asm = SipAssembler(space, pot, PEN)
    a = asm.sip() + asm.nonlinear_mass(u, 3)
    lam = dense_lambda(a, assemble_mass(space))
    assert rep.lam == pytest.approx(lam, abs=1e-10)


def fresh_residual(a, m, res):
    ax, mx = a @ res.x, m @ res.x
    return np.linalg.norm(ax - res.lam * mx) / (np.linalg.norm(ax) + abs(res.lam) * np.linalg.norm(mx))


def recording_solves(monkeypatch):
    """Patch the SCF loop's eigensolver to record (A, M, tol, result) per sweep.
    A is copied: the next sweep writes its operator into the same storage."""
    solves, solve = [], scf.smallest_eigenpair

    def recording(a, m, **kwargs):
        solves.append((a.copy(), m, kwargs["tol"], solve(a, m, **kwargs)))
        return solves[-1][3]

    monkeypatch.setattr(scf, "smallest_eigenpair", recording)
    return solves


def test_sparse_sweeps_report_the_residual_of_a_fresh_product(monkeypatch):
    """Each eigensolve of an SCF level meets the tolerance its sweep
    asked for when its residual is recomputed from a fresh A x, not the one
    LOBPCG kept; the last sweep asked for, and meets, eig_tol = eps_tol / 10."""
    pot = Potential(0.5, -1)
    cfg = ScfConfig(eps_tol=1e-10, delta=3)
    u1, _ = solve_ground_state(build_space(build_graded_mesh(3, 0.5, 1), 1, 0.25), pot, PEN, cfg)
    space = build_space(build_graded_mesh(3, 0.5, 2), 1, 0.25)
    solves = recording_solves(monkeypatch)
    _, rep = solve_ground_state(space, pot, PEN, cfg, u0=inject(u1, space))
    assert rep.converged and len(solves) == rep.iterations > 1
    for a, m, tol, res in solves:
        assert res.precond is not None and res.residual <= tol
        assert fresh_residual(a, m, res) <= tol
    a, m, tol, res = solves[-1]
    assert tol == pytest.approx(1e-11, rel=1e-15) and fresh_residual(a, m, res) <= 1e-11


def test_cold_small_solve_iterates_from_the_coarse_start(monkeypatch):
    """A small cold solve is LOBPCG on every sweep: its only dense eigh is
    the coarse start's."""
    space = space_2d(3)
    eighs, eigh = [], dla.eigh
    monkeypatch.setattr(dla, "eigh", lambda *a, **k: eighs.append(1) or eigh(*a, **k))
    solves = recording_solves(monkeypatch)
    _, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=3))
    assert rep.converged and len(solves) == rep.iterations > 1
    assert len(eighs) == 1
    assert all(res.precond is not None for *_, res in solves)


@pytest.mark.parametrize("dim,ell,p0,slope,alpha,eps_tol", [(2, 3, 2, 0.125, 1.0, 1e-10),
                                                             (2, 4, 2, 0.125, 1.0, 1e-10),
                                                             (3, 2, 1, 0.25, 0.5, 1e-7)])
def test_warm_solve_converges_on_a_sweep_solved_at_eig_tol(monkeypatch, dim, ell, p0, slope,
                                                           alpha, eps_tol):
    """Sweeps after the first ask for a tolerance tied to the last SCF
    residual, never below eig_tol, or for eig_tol once the last two residuals
    predict convergence, r_(k-1)^2 / r_(k-2) <= eps_tol; a converged solve
    ends on a sweep that asked for eig_tol."""
    pot = Potential(alpha, -1)
    cfg = ScfConfig(eps_tol=eps_tol, delta=3)
    u1, _ = solve_ground_state(build_space(build_graded_mesh(dim, 0.5, ell - 1), p0, slope),
                               pot, PEN, cfg)
    space = build_space(build_graded_mesh(dim, 0.5, ell), p0, slope)
    solves = recording_solves(monkeypatch)
    _, rep = solve_ground_state(space, pot, PEN, cfg, u0=inject(u1, space))
    eig_tol = min(1e-10, eps_tol / 10)
    tols = [tol for *_, tol, _ in solves]
    assert rep.converged and len(tols) == rep.iterations > 1
    assert tols[0] == tols[-1] == eig_tol
    r = rep.residuals
    assert tols[1:] == [eig_tol if k > 1 and r[k - 1] ** 2 <= eps_tol * r[k - 2]
                        else max(eig_tol, scf.INNER_RATIO * r[k - 1]) for k in range(1, len(tols))]


@pytest.mark.parametrize("ell,p0,slope,delta", [(3, 1, 0.25, 3), (2, 2, 0.0, None)])
def test_cold_3d_solve_reaches_the_ground_state(ell, p0, slope, delta):
    """A cold solve starts from the p <= 1 subspace and finds lambda_1
    (on the oracle's whole-cube mesh, where N > 2000 at these levels)."""
    space = build_space(full_cube_mesh(3, 0.5, ell), p0, slope)
    assert space.N > 2000
    u, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-7, delta=delta))
    assert rep.converged
    asm = SipAssembler(space, POT, PEN)
    a = asm.sip()
    if delta is not None:
        a = a + asm.nonlinear_mass(u, delta)
    lam = dense_lambda(a, assemble_mass(space))
    assert rep.lam == pytest.approx(lam, rel=1e-8)


@pytest.mark.parametrize("delta,lam", [(3, 32.4337448841267), (None, 29.12325064308372)])
def test_cold_degree_one_solve_solves_the_first_pencil_once(monkeypatch, delta, lam):
    """When every element has degree 1 the p <= 1 subspace is the whole space:
    its one dense eigh is only the first sweep's start, which LOBPCG iterates
    from on one LU, and every sweep calls the eigensolver with a start."""
    calls = {"eigh": 0, "splu": 0}
    eigh, splu, solve = dla.eigh, sla.splu, scf.smallest_eigenpair
    monkeypatch.setattr(dla, "eigh", lambda *a, **k: calls.update(eigh=calls["eigh"] + 1) or eigh(*a, **k))
    monkeypatch.setattr(sla, "splu", lambda *a, **k: calls.update(splu=calls["splu"] + 1) or splu(*a, **k))
    starts = []
    monkeypatch.setattr(scf, "smallest_eigenpair", lambda *a, **k: starts.append(k["x0"]) or solve(*a, **k))
    space = build_space(full_cube_mesh(3, 0.5, 1), 1, 0.0)
    assert space.N == 512
    _, rep = solve_ground_state(space, Potential(0.5, -1), PEN, ScfConfig(eps_tol=1e-10, delta=delta))
    assert rep.converged
    assert rep.lam == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert calls == {"eigh": 1, "splu": 1}
    assert len(starts) == rep.iterations


def test_cold_linear_degree_one_solve_meets_its_residual():
    """A cold linear solve on a 20-level mesh of degree-1 elements: the
    coarse start spans the whole space and is LAPACK's pair of
    D^-1/2 A D^-1/2, whose residual there is 6e-4; the returned u is
    LOBPCG's, an eigenvector to the eigensolver's tolerance."""
    space = build_space(build_graded_mesh(2, 0.5, 20), 1, 0.0)
    u, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=None))
    assert rep.converged
    asm = SipAssembler(space, POT, PEN)
    a, d = asm.sip(), asm.mass().diagonal()
    au, mu = a @ u.coeffs, d * u.coeffs
    residual = np.linalg.norm(au - rep.lam * mu) / (np.linalg.norm(au)
                                                    + abs(rep.lam) * np.linalg.norm(mu))
    assert residual <= 1e-11


def test_readme_library_example_runs_in_3d():
    space = build_space(build_graded_mesh(3, 0.5, 3), 2, 0.125)
    _, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=3))
    assert rep.converged
    assert rep.residuals[-1] <= 1e-10


@pytest.mark.parametrize("delta", [2, 3, 4])
@pytest.mark.parametrize("dim,ell,p0,slope,alpha", [(2, 3, 2, 0.125, 1.0), (3, 2, 1, 0.25, 0.5)])
def test_sweep_operator_is_sip_plus_nonlinear_mass_bitwise(monkeypatch, dim, ell, p0, slope,
                                                          alpha, delta):
    """Every sweep writes A_sip + N(u) into the storage of one A_sip; after
    each update it keeps A_sip's pattern, its values are bitwise those of the
    sum of the two assembled matrices at the iterate it is linearized at (the
    ``orient`` vector), and it is bitwise symmetric, so its CSR arrays are
    its CSC arrays.  The sum drops A_sip's exact zeros; the operator keeps
    them as stored zeros."""
    space = build_space(build_graded_mesh(dim, 0.5, ell), p0, slope)
    pot, scale = Potential(alpha, -1), 2.5
    ops, solve = [], scf.smallest_eigenpair

    def recording(a, m, **kwargs):
        ops.append((a, a.copy(), kwargs["orient"].copy()))
        return solve(a, m, **kwargs)

    monkeypatch.setattr(scf, "smallest_eigenpair", recording)
    cfg = ScfConfig(eps_tol=1e-10, delta=delta, nonlinear_scale=scale)
    _, rep = solve_ground_state(space, pot, PEN, cfg)
    assert rep.converged and len(ops) >= 3
    assert all(a is ops[0][0] for a, *_ in ops)  # one operator, updated in place
    asm = SipAssembler(space, pot, PEN)
    sip = asm.sip()
    rows = np.repeat(np.arange(space.N), np.diff(sip.indptr))
    for _, a, u in ops:
        want = sip + asm.nonlinear_mass(DiscreteField(space, u), delta, scale)
        assert np.array_equal(a.indptr, sip.indptr) and np.array_equal(a.indices, sip.indices)
        values = np.asarray(want[rows, sip.indices]).ravel()
        assert np.array_equal(a.data.view(np.int64), values.view(np.int64))
        assert want.nnz == np.count_nonzero(a.data) < a.nnz  # nothing outside A_sip's pattern
        assert (a != a.T).nnz == 0


def test_linear_problem_passes_a_sip_unmodified(monkeypatch):
    space = space_2d(3)
    solves = recording_solves(monkeypatch)
    _, rep = solve_ground_state(space, POT, PEN, ScfConfig(eps_tol=1e-10, delta=None))
    (a, *_), = solves
    want = SipAssembler(space, POT, PEN).sip()
    assert rep.converged and np.array_equal(a.indices, want.indices)
    assert np.array_equal(a.data.view(np.int64), want.data.view(np.int64))


@pytest.mark.parametrize("other", [build_space(build_graded_mesh(2, 0.25, 3), 2, 0.125),
                                   space_2d(2)], ids=["same_size", "other_size"])
def test_start_on_another_space_is_refused(other):
    space = space_2d(3)
    with pytest.raises(ValueError, match=rf"u0 .*N={other.N}.*N={space.N}"):
        solve_ground_state(space, POT, PEN, ScfConfig(delta=3), u0=constant_field(other))
