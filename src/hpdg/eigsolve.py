"""Smallest eigenpair of the symmetric generalized problem A x = lambda M x.

Small problems go through a dense LAPACK solve.  Larger ones factor
A - tau M once (sparse LU) and use that factorization as the preconditioner of
a single-vector LOBPCG iteration (Knyazev 2001, SIAM J. Sci. Comput. 23:517):
each step is a Rayleigh-Ritz projection onto the M-orthonormal span of the
iterate, its preconditioned residual and the previous search direction.  The
factorization comes back on the result and may be passed in again, so the SCF
loop factors once per solve and reuses the LU on every later sweep, where the
linearized operator has moved only a little.

The preconditioner is symmetric positive definite only when tau lies below
lambda_1 of the factored pencil; only then is the descent to the ground state
guaranteed.  The default tau = rho(x0) - 10 meets this for start vectors close
to the ground state: the SCF iterates, the injected coarse-to-fine starts and
the coarse-subspace start of a cold SCF solve.  A start far above the ground
state gives an indefinite preconditioner; the iteration then stalls and raises
EigenSolveError instead of returning an excited pair.  Both paths are
deterministic given the start vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla

DENSE_CUTOFF = 2000  # without a start vector, below this size go through LAPACK
DENSE_ALWAYS = 400  # below this size the dense solve is cheapest regardless
DEFAULT_TOL = 1e-10


class EigenSolveError(RuntimeError):
    """Raised on non-convergence; carries the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass
class EigResult:
    lam: float
    x: np.ndarray  # M-normalized eigenvector
    residual: float  # ||Ax - lam Mx|| / (||Ax|| + |lam| ||Mx||)
    iterations: int
    precond: object = None  # LU of A - tau M on the sparse path, None when dense


def _m_norm(m, x):
    return float(np.sqrt(x @ (m @ x)))


def _orient(x, m, orient):
    s = float(x @ (m @ orient)) if orient is not None else 0.0
    if abs(s) < 1e-14:
        s = x[int(np.argmax(np.abs(x)))]
    return x if s >= 0 else -x


def _residual(a, m, lam, x):
    ax, mx = a @ x, m @ x
    scale = float(np.linalg.norm(ax) + abs(lam) * np.linalg.norm(mx))
    return float(np.linalg.norm(ax - lam * mx)) / max(scale, 1e-300)


def smallest_eigenpair(a, m, tol: float = DEFAULT_TOL, x0=None, shift=None,
                       orient=None, max_iter: int = 200, precond=None) -> EigResult:
    """Minimal eigenvalue and M-normalized eigenvector of (A, M).

    ``shift`` is the tau of the factored A - tau M (default: Rayleigh
    quotient of the start vector minus 10).  ``precond`` is the factorization
    returned by an earlier sparse solve of a nearby pencil of the same size;
    when given, nothing is factored and ``shift`` is ignored.  ``orient``
    fixes the sign so x.M.orient >= 0.  The dense path serves n <= DENSE_ALWAYS,
    and n <= DENSE_CUTOFF when no start vector ``x0`` is given; the sparse
    path's default start, the all-ones vector, is often far above the ground
    state.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    n = a.shape[0]
    mdiag = m.diagonal()
    if sp.issparse(m) and m.nnz == np.count_nonzero(mdiag):
        if np.min(mdiag) <= 0:
            raise ValueError("mass matrix is not positive definite")

    if n <= DENSE_ALWAYS or (x0 is None and n <= DENSE_CUTOFF):
        ad = a.toarray() if sp.issparse(a) else np.asarray(a, dtype=float)
        md = m.toarray() if sp.issparse(m) else np.asarray(m, dtype=float)
        try:
            _, vecs = dla.eigh(ad, md, subset_by_index=[0, 0])
        except dla.LinAlgError as exc:
            raise ValueError(f"dense generalized eigensolve failed: {exc}") from exc
        x = vecs[:, 0] / _m_norm(m, vecs[:, 0])
        x = _orient(x, m, orient)
        # Report the Rayleigh quotient of the returned vector, not LAPACK's
        # eigenvalue: the two differ at the eps * ||M^-1 A|| level, which the
        # self-consistency residual of the SCF loop would otherwise inherit.
        lam = float(x @ (a @ x))
        return EigResult(lam, x, _residual(a, m, lam, x), 1)

    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)
    m = m.tocsr() if sp.issparse(m) else sp.csr_matrix(m)
    x = np.ones(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    nrm = _m_norm(m, x)
    if nrm == 0:
        raise ValueError("start vector is M-orthogonal to itself (zero)")
    x /= nrm
    if precond is None:
        tau = float(shift) if shift is not None else float(x @ (a @ x)) - 10.0
        try:
            precond = sla.splu((a - tau * m).tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise EigenSolveError(f"A - tau M is singular at tau={tau!r}: {exc}") from exc
    elif precond.shape != a.shape:
        raise ValueError(f"preconditioner has shape {precond.shape}, matrix {a.shape}")
    return _lobpcg(a, m, x, precond, tol, orient, max_iter)


def _m_orthonormal(m, vectors):
    """M-orthonormal basis of the span of ``vectors``, in order.

    Classical Gram-Schmidt, run twice; a vector that lies numerically in the
    span of those before it is dropped.
    """
    q = []
    for v in vectors:
        nv = _m_norm(m, v)
        if not nv > 0:
            continue
        v = v / nv
        if q:
            qa = np.column_stack(q)
            for _ in range(2):
                v = v - qa @ (qa.T @ (m @ v))
        nv = _m_norm(m, v)
        if nv > 1e-10:
            q.append(v / nv)
    return np.column_stack(q)


def _lobpcg(a, m, x, lu, tol, orient, max_iter) -> EigResult:
    """Single-vector LOBPCG from the M-normalized ``x``, preconditioned by ``lu``."""
    rho = float(x @ (a @ x))
    best = EigResult(rho, x, _residual(a, m, rho, x), 0)
    p = None
    for it in range(1, max_iter + 1):
        w = lu.solve(a @ x - rho * (m @ x))
        if not np.isfinite(w).all():
            raise EigenSolveError("preconditioner produced a non-finite vector", best)
        q = _m_orthonormal(m, [x, w] if p is None else [x, w, p])
        h = q.T @ (a @ q)
        c = np.linalg.eigh(0.5 * (h + h.T))[1][:, 0]
        p = q[:, 1:] @ c[1:]  # the step, without its component along x
        x = q @ c
        x /= _m_norm(m, x)
        rho = float(x @ (a @ x))
        res = _residual(a, m, rho, x)
        if res < best.residual:
            best = EigResult(rho, x.copy(), res, it)
        if res <= tol:
            return EigResult(rho, _orient(x, m, orient), res, it, lu)
    raise EigenSolveError(
        f"no convergence to tol={tol} after {max_iter} iterations "
        f"(best residual {best.residual:.3e})",
        best,
    )
