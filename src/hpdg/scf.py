"""Self-consistent field loop for the discrete nonlinear eigenvalue problem.

Each sweep freezes the nonlinearity at the current iterate, solves the linear
eigenproblem (A_sip + N(u_k), M), aligns the sign of the new eigenvector with
the old iterate, damps, renormalizes, and evaluates the self-consistency
residual |<(A(u) - lambda) u, u>| with the nonlinearity reassembled at the new
state.  The residual of the frozen linearization is identically zero, so this
is the only reading under which the stopping rule bites.  The linear problem
(``delta=None``) runs the same loop on the frozen operator A_sip, undamped, and
converges on the first sweep.

A solve keeps one N x N operator.  A_sip is assembled once, and each sweep
writes A_sip + N(u_k) into A_sip's own data: N(u) is block-diagonal, so only
the elements' diagonal blocks (``SipAssembler.slots``) change, each to A_sip's
saved values there plus N(u_k)'s block.  N(u)'s pattern lies inside A_sip's,
so the values are bitwise those of the sparse sum
``sip() + nonlinear_mass(u_k)`` on A_sip's pattern: the sum drops A_sip's exact
zeros, the operator keeps them stored, and the LU factors that pattern.  The
matrix handed to a sweep's eigensolve is overwritten by the next sweep, so a
caller that keeps a sweep's A must copy it.  The linear problem hands A_sip
over unmodified.

Each sweep's eigensolve is asked only for the accuracy the SCF residual can
use: sweep 1 for eig_tol = min(1e-10, eps_tol / 10), and sweep k >= 2 for
max(eig_tol, INNER_RATIO * r_{k-1}), r_{k-1} the residual of the sweep before,
unless the contraction of the last two residuals predicts that sweep k
converges, r_{k-1}^2 / r_{k-2} <= eps_tol: then sweep k asks for eig_tol.
The loop stops, and reports convergence, only on a sweep whose eigensolve was
asked for eig_tol and whose residual is <= eps_tol; a residual below eps_tol
after a looser solve takes one more sweep.

Every sweep's eigensolve is LOBPCG from a start vector.  The first sweep
factors; that LU preconditions every later sweep of the solve.  A cold solve
(no ``u0``) starts the first sweep's eigensolve from the ground state of the
coarse Galerkin subspace spanned by the modes of degree <= 1 per axis, solved
densely; the SCF iterate itself starts as the normalized constant field.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import (NONLINEAR_EXPONENTS, PenaltyConfig, Potential, SipAssembler,
                       _finite_real)
from .eigsolve import dense_ground_state, smallest_eigenpair
from .hpspace import DiscreteField, HpSpace, _modes, constant_field

INNER_RATIO = 1e-2  # a sweep's eigensolve tolerance relative to the last SCF residual


@dataclass
class ScfConfig:
    eps_tol: float = 1e-10
    max_iter: int = 100
    theta: float = 1.0  # damping; 1.0 is the plain fixed point
    delta: int | None = 3  # nonlinearity exponent; None solves the linear problem
    nonlinear_scale: float = 1.0  # test hook scaling the nonlinear coupling

    def __post_init__(self):
        for key in ("eps_tol", "theta", "nonlinear_scale"):
            if not _finite_real(getattr(self, key)):
                raise ValueError(f"{key} must be a finite number, got {getattr(self, key)!r}")
        if not self.eps_tol > 0:
            raise ValueError(f"eps_tol must be positive, got {self.eps_tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (0.0 < self.theta <= 1.0):
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.delta is not None and self.delta not in NONLINEAR_EXPONENTS:
            raise ValueError(f"delta must be in {NONLINEAR_EXPONENTS} or None, got {self.delta}")


@dataclass
class ScfReport:
    lam: float
    iterations: int
    residuals: list
    converged: bool


def discrete_energy(space: HpSpace, potential: Potential, penalty: PenaltyConfig,
                    u: DiscreteField, delta: int | None) -> float:
    """Debug hook: the discrete energy 1/2 a(u,u) + 1/(delta+1) int |u|^(delta+1).

    At the ground state this equals lambda/2 - (1/2 - 1/(delta+1)) times the
    nonlinear integral.
    """
    asm = SipAssembler(space, potential, penalty)
    a = asm.sip()
    val = 0.5 * float(u.coeffs @ (a @ u.coeffs))
    if delta is not None:  # u^T N(u) u is the integral of |u|^(delta+1)
        val += float(u.coeffs @ (asm.nonlinear_mass(u, delta) @ u.coeffs)) / (delta + 1)
    return val


def _coarse_start(space: HpSpace, a, d):
    """Ground state of (A, diag(d)) on the modes whose indices are all <= 1,
    zero-padded.

    The Legendre basis is hierarchical, so these modes span a Galerkin subspace
    whose pencil is a principal submatrix of (A, M), M diagonal.
    """
    low = {p: np.all(_modes(p, space.mesh.d) <= 1, axis=1)
           for p in np.unique(space.degrees).tolist()}
    keep = np.flatnonzero(np.concatenate([low[p] for p in space.degrees.tolist()]))
    x0 = np.zeros(space.N)
    x0[keep] = dense_ground_state(a[keep][:, keep], d[keep])
    return x0


def solve_ground_state(space: HpSpace, potential: Potential,
                       penalty: PenaltyConfig, cfg: ScfConfig,
                       u0: DiscreteField | None = None, log=None):
    """Ground state of the (non)linear problem on the given hp space.

    Returns ``(u, report)``; non-convergence is reported through the
    ``converged`` flag, with the last iterate returned.  Either way
    ``report.lam`` is the Rayleigh quotient u^T (A_sip + N(u)) u of the
    returned u.  ``log`` may be a callable receiving one "k lambda residual"
    line per sweep.  ``u0`` must be a field on ``space`` (else ValueError).
    """
    if u0 is not None and u0.space is not space:
        raise ValueError(f"u0 belongs to another space (N={u0.space.N}) than the one "
                         f"solved on (N={space.N})")
    asm = SipAssembler(space, potential, penalty)
    a = asm.sip()
    base = [a.data[s] for s in asm.slots]  # A_sip's diagonal blocks
    m = asm.mass()
    d = m.diagonal()
    eig_tol = min(1e-10, cfg.eps_tol / 10.0)
    theta = 1.0 if cfg.delta is None else cfg.theta

    def linearized(u):
        """A_sip + N(u), the SCF operator linearized at u, written into A_sip's data."""
        if cfg.delta is not None:
            for s, b, g in zip(asm.slots, base, asm.nonlinear_blocks(u, cfg.delta,
                                                                    cfg.nonlinear_scale)):
                a.data[s] = b + g
        return a

    def m_normalize(c):
        return c / np.sqrt(c @ (d * c))

    u = DiscreteField(space, m_normalize((constant_field(space) if u0 is None else u0).coeffs))
    a_u = linearized(u)
    start = _coarse_start(space, a_u, d) if u0 is None else u.coeffs
    precond, residuals = None, []
    for k in range(1, cfg.max_iter + 1):
        if not residuals:
            tol = eig_tol
        elif len(residuals) > 1 and residuals[-1] ** 2 <= cfg.eps_tol * residuals[-2]:
            tol = eig_tol  # r_{k-1}^2 / r_{k-2} <= eps_tol: this sweep is predicted to converge
        else:
            tol = max(eig_tol, INNER_RATIO * residuals[-1])
        eig = smallest_eigenpair(a_u, m, x0=start, tol=tol, orient=u.coeffs, precond=precond)
        precond = eig.precond
        new = m_normalize((1.0 - theta) * u.coeffs + theta * eig.x)
        u = DiscreteField(space, new)
        start = u.coeffs
        a_u = linearized(u)
        rayleigh = float(new @ (a_u @ new))
        resid = abs(rayleigh - eig.lam * float(new @ (d * new)))
        residuals.append(resid)
        if log is not None:
            log(f"{k} {eig.lam!r} {resid!r}")
        converged = tol == eig_tol and resid <= cfg.eps_tol
        if converged:
            break
    return u, ScfReport(rayleigh, k, residuals, converged)
