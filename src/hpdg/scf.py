"""Self-consistent field loop for the discrete nonlinear eigenvalue problem.

Each sweep freezes the nonlinearity at the current iterate, solves the linear
eigenproblem (A_sip + N(u_k), M), aligns the sign of the new eigenvector with
the old iterate, damps, renormalizes, and evaluates the self-consistency
residual |<(A(u) - lambda) u, u>| with the nonlinearity reassembled at the new
state.  The residual of the frozen linearization is identically zero, so this
is the only reading under which the stopping rule bites.  The linear problem
(``delta=None``) runs the same loop on the frozen operator A_sip, undamped, and
converges on the first sweep.  The sparse eigensolver factors on the first
sparse sweep only; that LU preconditions every later sweep of the solve.  A
cold solve (no ``u0``) starts that first sweep's eigensolve from the ground
state of the coarse Galerkin subspace spanned by the modes of degree <= 1 per
axis; the SCF iterate itself starts as the normalized constant field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla

from .assembly import PenaltyConfig, Potential, SipAssembler
from .eigsolve import smallest_eigenpair
from .hpspace import DiscreteField, HpSpace, constant_field


@dataclass
class ScfConfig:
    eps_tol: float = 1e-10
    max_iter: int = 100
    theta: float = 1.0  # damping; 1.0 is the plain fixed point
    delta: int | None = 3  # nonlinearity exponent; None solves the linear problem
    nonlinear_scale: float = 1.0  # test hook scaling the nonlinear coupling

    def __post_init__(self):
        if self.eps_tol <= 0:
            raise ValueError(f"eps_tol must be positive, got {self.eps_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")


@dataclass
class ScfReport:
    lam: float
    iterations: int
    residuals: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    alignments: list = field(default_factory=list)  # (u_{k+1}, u_k)_M per sweep
    converged: bool = False


def discrete_energy(space: HpSpace, potential: Potential, penalty: PenaltyConfig,
                    u: DiscreteField, delta: int | None) -> float:
    """Debug hook: the discrete energy 1/2 a(u,u) + 1/(delta+1) int |u|^(delta+1).

    At the ground state this equals lambda/2 - (1/2 - 1/(delta+1)) times the
    nonlinear integral.
    """
    asm = SipAssembler(space, potential, penalty)
    a = asm.sip()
    val = 0.5 * float(u.coeffs @ (a @ u.coeffs))
    if delta is not None:
        nl = 0.0
        for e in space.mesh.elements:
            phi, w = asm._plain_tables(e.id)
            nl += float(w @ np.abs(phi @ u.local(e.id)) ** (delta + 1))
        val += nl / (delta + 1)
    return val


def _coarse_start(space: HpSpace, a, m) -> np.ndarray:
    """Ground state of (A, M) on the modes whose indices are all <= 1, zero-padded.

    The Legendre basis is hierarchical, so these modes span a Galerkin subspace
    whose pencil is a principal submatrix of (A, M).
    """
    keep = np.concatenate([
        space.offsets[e.id] + np.flatnonzero(space.modes(e.id).max(axis=1) <= 1)
        for e in space.mesh.elements
    ])
    _, vecs = dla.eigh(a[keep][:, keep].toarray(), m[keep][:, keep].toarray(),
                       subset_by_index=[0, 0])
    x0 = np.zeros(space.N)
    x0[keep] = vecs[:, 0]
    return x0


def solve_ground_state(space: HpSpace, potential: Potential,
                       penalty: PenaltyConfig, cfg: ScfConfig,
                       u0: DiscreteField | None = None, log=None):
    """Ground state of the (non)linear problem on the given hp space.

    Returns ``(u, report)``; non-convergence is reported through the
    ``converged`` flag, with the last iterate returned.  ``log`` may be a
    callable receiving one "k lambda residual" line per sweep.
    """
    asm = SipAssembler(space, potential, penalty)
    a_sip = asm.sip()
    m = asm.mass()
    eig_tol = min(1e-10, cfg.eps_tol / 10.0)
    theta = 1.0 if cfg.delta is None else cfg.theta

    def linearized(u):
        """A_sip + N(u), the SCF operator linearized at u."""
        if cfg.delta is None:
            return a_sip
        return a_sip + asm.nonlinear_mass(u, cfg.delta, cfg.nonlinear_scale)

    def m_normalize(c):
        return c / np.sqrt(c @ (m @ c))

    if u0 is None:
        coeffs = m_normalize(constant_field(space, 1.0).coeffs)
    else:
        coeffs = m_normalize(np.asarray(u0.coeffs, dtype=float).copy())
    u = DiscreteField(space, coeffs)

    report = ScfReport(lam=np.nan, iterations=0)

    a_u = linearized(u)
    start = _coarse_start(space, a_u, m) if u0 is None else u.coeffs
    precond = None
    for k in range(1, cfg.max_iter + 1):
        eig = smallest_eigenpair(a_u, m, tol=eig_tol, x0=start, orient=u.coeffs,
                                 precond=precond)
        precond = eig.precond
        new = m_normalize((1.0 - theta) * u.coeffs + theta * eig.x)
        align = float(new @ (m @ u.coeffs))
        u = DiscreteField(space, new)
        start = u.coeffs
        a_u = linearized(u)
        rayleigh = float(new @ (a_u @ new))
        resid = abs(rayleigh - eig.lam * float(new @ (m @ new)))
        report.iterations = k
        report.residuals.append(resid)
        report.lambdas.append(eig.lam)
        report.alignments.append(align)
        if log is not None:
            log(f"{k} {eig.lam!r} {resid!r}")
        if resid <= cfg.eps_tol:
            report.lam = rayleigh
            report.converged = True
            return u, report
    report.lam = float(u.coeffs @ (a_u @ u.coeffs))
    report.converged = False
    return u, report
