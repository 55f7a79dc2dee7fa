"""The octant solve against the whole cube.

The solver works on the octant (0, 1/2)^d with mirror planes x_m = 0 and
counts every integral ``mesh.copies`` times, which is exact when the ground
state is even.  These tests solve the whole cube, on the oracle's mesh, and
the octant, and compare what a study reports: lambda, and the errors of a
level against a reference one level finer (in 2D also one degree higher).
They also compare the coefficients of the octant's elements, which the
copies scaling makes the whole cube's own.

Left out: 2D alpha = 3/2 with delta = 4.  It does not converge at theta = 1
even on the whole cube (ROADMAP item 5).
"""

import numpy as np
import pytest

from hpdg.analysis import error_norms
from hpdg.assembly import PenaltyConfig, Potential
from hpdg.hpspace import build_space, containing_map, inject
from hpdg.mesh import build_graded_mesh
from hpdg.scf import ScfConfig, solve_ground_state
from oracles import element_dofs, full_cube_mesh

PEN = PenaltyConfig(10.0)
LEVELS = {2: (3, 2, 1 / 8, 1), 3: (2, 1, 1 / 4, 0)}  # ell, p0, slope, reference's extra degree
POTENTIALS = {"attractive1": (1.0, -1.0), "repulsive1/2": (0.5, 1.0), "attractive3/2": (1.5, -1.0)}
CASES = [(dim, pot, delta) for dim in (2, 3) for pot in POTENTIALS for delta in (None, 2, 3, 4)
         if (dim, pot, delta) != (2, "attractive3/2", 4)]


def _study(build, dim, pot, delta):
    """The level's ground state, and what a study reports of it."""
    ell, p0, slope, extra = LEVELS[dim]
    cfg = ScfConfig(eps_tol=1e-10, delta=delta)
    space = build_space(build(dim, 0.5, ell), p0, slope)
    u, rep = solve_ground_state(space, pot, PEN, cfg)
    fine = build_space(build(dim, 0.5, ell + 1), p0 + extra, slope)
    ref, rep_ref = solve_ground_state(fine, pot, PEN, cfg, u0=inject(u, fine))
    assert rep.converged and rep_ref.converged
    return u, {"lambda": rep.lam, "lambda_ref": rep_ref.lam, **error_norms(u, ref)}


@pytest.mark.parametrize("dim,pot,delta", CASES)
def test_octant_reports_the_whole_cube(dim, pot, delta):
    """lambda and the reference's to 1e-11 relative (so err_lambda, their
    difference, to 1e-11 of their sum), the L2, DG and Linf errors to 1e-9.
    Both lambdas sit about 1e-13 apart, the reference's 5e-13 in 2D: the
    roundoff of u^T A u on the finer level."""
    pot = Potential(*POTENTIALS[pot])
    u_cube, cube = _study(full_cube_mesh, dim, pot, delta)
    u_oct, octant = _study(build_graded_mesh, dim, pot, delta)
    assert u_cube.space.N == u_oct.space.mesh.copies * u_oct.space.N == 2**dim * u_oct.space.N
    for key, want in cube.items():
        rel = 1e-11 if key.startswith("lambda") else 1e-9
        assert octant[key] == pytest.approx(want, rel=rel, abs=0.0), key
    # the octant's elements are boxes of the whole cube's mesh, with its coefficients
    host = containing_map(u_cube.space.mesh, u_oct.space.mesh)
    for e, c in enumerate(host.tolist()):
        assert np.array_equal(u_oct.space.mesh.lo[e], u_cube.space.mesh.lo[c])
        np.testing.assert_allclose(u_oct.coeffs[element_dofs(u_oct.space, e)],
                                   u_cube.coeffs[element_dofs(u_cube.space, c)], rtol=0, atol=1e-8)
