"""Smallest eigenpair of the symmetric pencil A x = lambda M x, M diagonal.

The Legendre basis is L2-orthogonal on each box, so an hp space's mass matrix
is M = diag(d), and every product with M is d * v; any other M raises
ValueError.  Every solve, at any size, starts from a given vector x0, factors
A - tau M once (sparse LU), tau = rho(x0) - 10, and uses it to precondition a
single-vector LOBPCG (Knyazev 2001, SIAM J. Sci. Comput. 23:517) from x0.
Each step is a Rayleigh-Ritz projection onto the M-orthonormal span Q of the
iterate, its preconditioned residual and the previous direction, and
multiplies by A once, as A Q: the new iterate's A x, Rayleigh quotient and
residual all come from (A Q) c.  A pair is returned only once its residual
meets the tolerance.  The factorization comes back on the result and may be
passed in again, so the SCF loop factors once per solve and reuses the LU on
every later sweep, where the operator has moved only a little.

The LU is computed and applied in single precision: a preconditioner's
accuracy sets how fast LOBPCG converges, not the accuracy it reaches.  The
residual, the M-orthonormalization, the Rayleigh-Ritz projection and the
stopping rule stay double.  A - tau M and each residual are scaled by the
power of two that puts their largest entry in [1/2, 1) before the cast; that
is exact for normal float32 values, so no pencil overflows, and one whose
entries span more than about 1e45 raises EigenSolveError.  A is symmetric, so
the arrays of its CSR are those of its CSC: A - tau M is formed as one float32
array of values, shifted on the diagonal while cast, next to A's own index
arrays, and A is never copied: the traced peak of a factorization is about
5 bytes per stored entry of A.  SuperLU gets A's own pattern, the exact zeros
that A stores (A_sip stores its face blocks' orthogonal entries) and the
shifted diagonal included, even where the shift cancels: the ordering follows
A's stored pattern, not which of its entries happen to be zero.

The preconditioner is symmetric positive definite, and the descent to the
ground state guaranteed, only when tau lies below lambda_1 of the factored
pencil.  tau = rho(x0) - 10 meets this for start vectors close to the ground
state: the SCF iterates, the injected coarse-to-fine starts and the
coarse-subspace start of a cold SCF solve.  A start far above the ground state
stalls the iteration, which raises EigenSolveError rather than return an
excited pair; so does a tolerance below the residual's roundoff floor, which
the error message estimates.  A solve is deterministic given the start vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as sla

DEFAULT_TOL = 1e-10
MAX_ITER = 200  # LOBPCG steps before EigenSolveError


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
    precond: object = None  # float32 LU of A - tau M; None on an EigenSolveError's best iterate


def _m_norm(d, x):
    return float(np.sqrt(x @ (d * x)))


def _orient(x, d, orient):
    s = float(x @ (d * orient)) if orient is not None else 0.0
    if abs(s) < 1e-14:
        s = x[int(np.argmax(np.abs(x)))]
    return x if s >= 0 else -x


def _single(v):
    """``v`` in float32, scaled by the power of two that puts its largest
    magnitude in [1/2, 1); the scaling is exact, and a zero ``v`` stays zero."""
    return np.ldexp(v, -np.frexp(np.max(np.abs(v), initial=0.0))[1]).astype(np.float32)


def _diagonal_positions(a):
    """Index into ``a.data`` of each diagonal entry of the canonical CSR ``a``,
    -1 where none is stored: a binary search in every row at once, O(N) memory."""
    ptr, idx = a.indptr, a.indices
    rows = np.arange(a.shape[0])
    lo, hi = ptr[:-1].astype(np.int64), ptr[1:].astype(np.int64)
    while (open_ := lo < hi).any():
        mid = (lo + hi) // 2
        below = open_ & (idx[np.where(open_, mid, 0)] < rows)
        lo, hi = np.where(below, mid + 1, lo), np.where(open_ & ~below, mid, hi)
    found = lo < ptr[1:]
    found[found] = idx[lo[found]] == rows[found]
    return np.where(found, lo, -1)


def _factor(a, d, tau):
    """Single-precision LU of A - tau M, refused when an entry is lost in the cast.

    A is symmetric, so the arrays of its canonical CSR are those of its CSC:
    SuperLU gets A's own index arrays and one float32 array of the values,
    shifted on the diagonal and scaled as :func:`_single` scales them.  The
    pattern is A's, with every diagonal entry stored: its explicit zeros,
    and a shifted diagonal entry that cancels, stay in it.  Dropping A_sip's
    exact zeros would change the minimum-degree ordering and slow the LU.
    """
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    diag = _diagonal_positions(a)
    if (diag < 0).any():  # store the missing diagonal entries, as zeros, in a copy
        a = a.copy()
        a.setdiag(a.diagonal())
        diag = _diagonal_positions(a)
    shifted = a.data[diag] - tau * d
    off = np.ones(a.nnz, dtype=bool)
    off[diag] = False
    top = max(np.abs(shifted).max(initial=0.0), a.data.max(where=off, initial=0.0),
              -a.data.min(where=off, initial=0.0))
    del off  # freed before the float32 array is allocated, so the two never coexist
    exp = -int(np.frexp(top)[1])
    data = np.ldexp(a.data, exp, out=np.empty(a.nnz, dtype=np.float32), casting="unsafe")
    data[diag] = np.ldexp(shifted, exp)
    nonzero = np.count_nonzero(a.data) - np.count_nonzero(a.data[diag]) + np.count_nonzero(shifted)
    if not np.isfinite(data).all() or np.count_nonzero(data) < nonzero:
        values = a.data.copy()
        values[diag] = shifted
        mags = np.abs(values[values != 0])
        raise EigenSolveError(
            f"A - tau M at tau={tau!r} has entries of magnitude {mags.min():.3e} "
            f"to {mags.max():.3e}, beyond the range of a float32 factorization")
    try:
        return sla.splu(sp.csc_matrix((data, a.indices, a.indptr), shape=a.shape),
                        permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise EigenSolveError(f"A - tau M is singular at tau={tau!r}: {exc}") from exc


def _residual(ax, mx, lam):
    scale = float(np.linalg.norm(ax) + abs(lam) * np.linalg.norm(mx))
    return float(np.linalg.norm(ax - lam * mx)) / max(scale, 1e-300)


def dense_ground_state(a, d):
    """Eigenvector of the smallest eigenvalue of (A, diag(d)), M-normalized up
    to sign: one standard dense eigh of D^-1/2 A D^-1/2, mapped back by D^-1/2."""
    s = 1.0 / np.sqrt(d)
    ad = np.asarray(a.toarray(), dtype=float) if sp.issparse(a) else np.array(a, dtype=float)
    ad *= np.outer(s, s)
    return s * dla.eigh(ad, subset_by_index=[0, 0], overwrite_a=True)[1][:, 0]


def smallest_eigenpair(a, m, x0, tol: float = DEFAULT_TOL,
                       orient=None, precond=None) -> EigResult:
    """Minimal eigenvalue and M-normalized eigenvector of (A, M): LOBPCG from
    ``x0``, preconditioned by the LU of A - tau M with tau = rho(x0) - 10,
    for at most MAX_ITER steps, returned once its residual is <= ``tol``.

    M must be diagonal and positive, and ``x0`` finite of shape (n,) (else
    ValueError).  ``precond`` is the factorization returned by an earlier
    solve of a nearby pencil of the same size; when given, nothing is
    factored.  ``orient`` fixes the sign so x.M.orient >= 0.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance tol must be finite and positive, got {tol}")
    n = a.shape[0]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"start vector x0 has shape {x0.shape}, the pencil has size {n}")
    if not np.isfinite(x0).all():
        raise ValueError("start vector x0 has a non-finite entry")
    d = np.asarray(m.diagonal(), dtype=float)
    nnz = m.count_nonzero() if sp.issparse(m) else np.count_nonzero(m)
    if nnz > np.count_nonzero(d) or not np.all(d > 0):
        raise ValueError("mass matrix M must be diagonal and positive definite")

    a = a.tocsr() if sp.issparse(a) else sp.csr_matrix(a)
    nrm = _m_norm(d, x0)
    if nrm == 0:
        raise ValueError("start vector x0 is M-orthogonal to itself (zero)")
    x = x0 / nrm
    ax = a @ x
    if precond is None:
        precond = _factor(a, d, float(x @ ax) - 10.0)
    elif precond.shape != a.shape:
        raise ValueError(f"preconditioner has shape {precond.shape}, matrix {a.shape}")
    return _lobpcg(a, d, x, ax, precond, tol, orient)


def _m_orthonormal(d, vectors):
    """M-orthonormal basis of the span of ``vectors``, in order, by classical
    Gram-Schmidt run twice; a vector numerically in the span of those before
    it is dropped."""
    q = []
    for v in vectors:
        nv = _m_norm(d, v)
        if not nv > 0:
            continue
        v = v / nv
        if q:
            qa = np.column_stack(q)
            for _ in range(2):
                v = v - qa @ (qa.T @ (d * v))
        nv = _m_norm(d, v)
        if nv > 1e-10:
            q.append(v / nv)
    return np.column_stack(q)


def _lobpcg(a, d, x, ax, lu, tol, orient) -> EigResult:
    """Single-vector LOBPCG from the M-normalized ``x``, ``ax`` = A x, by ``lu``."""
    rho = float(x @ ax)
    best = EigResult(rho, x, _residual(ax, d * x, rho), 0)
    p = None
    for it in range(1, MAX_ITER + 1):
        w = lu.solve(_single(ax - rho * (d * x))).astype(float)
        if not np.isfinite(w).all():
            raise EigenSolveError("preconditioner produced a non-finite vector", best)
        q = _m_orthonormal(d, [x, w] if p is None else [x, w, p])
        aq = a @ q
        h = q.T @ aq
        c = np.linalg.eigh(0.5 * (h + h.T))[1][:, 0]
        p = q[:, 1:] @ c[1:]  # the step, without its component along x
        x, ax = q @ c, aq @ c
        nrm = _m_norm(d, x)
        x, ax = x / nrm, ax / nrm
        rho = float(x @ ax)
        res = _residual(ax, d * x, rho)
        if res < best.residual:
            best = EigResult(rho, x, res, it)
        if res <= tol:
            return EigResult(rho, _orient(x, d, orient), res, it, lu)
    raise EigenSolveError(f"no convergence to tol={tol} after {MAX_ITER} iterations "
                          f"(best residual {best.residual:.3e}, roundoff floor about "
                          f"{_roundoff_floor(a, d, best):.3e})", best)


def _roundoff_floor(a, d, pair):
    """eps ||A| |x|| / (||Ax|| + |lam| ||Mx||) at ``pair``: the size of the
    rounding error in one product A x, relative to the residual's scale."""
    x = pair.x
    scale = float(np.linalg.norm(a @ x) + abs(pair.lam) * np.linalg.norm(d * x))
    return float(np.finfo(float).eps * np.linalg.norm(abs(a) @ np.abs(x))) / max(scale, 1e-300)
