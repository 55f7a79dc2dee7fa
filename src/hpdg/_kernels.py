"""Hot numeric kernels: Legendre tables, norms and Gram sums."""

from __future__ import annotations

import numpy as np


def legendre_table(x, p, derivatives=True):
    """Values and first derivatives of P_0..P_p at the points ``x``.

    Returns two (len(x), p+1) arrays; without ``derivatives`` the second is
    None and its recurrence is skipped.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    p = int(p)
    vals = np.empty((x.shape[0], p + 1))
    vals[:, 0] = 1.0
    if p >= 1:
        vals[:, 1] = x
    for k in range(1, p):
        vals[:, k + 1] = ((2 * k + 1) * x * vals[:, k] - k * vals[:, k - 1]) / (k + 1)
    if not derivatives:
        return vals, None
    ders = np.empty((x.shape[0], p + 1))
    ders[:, 0] = 0.0
    if p >= 1:
        ders[:, 1] = 1.0
    for k in range(1, p):
        ders[:, k + 1] = ders[:, k - 1] + (2 * k + 1) * vals[:, k]
    return vals, ders


def legendre_l2_norms_sq(p: int) -> np.ndarray:
    """Squared L2([-1,1]) norms of P_0..P_p, i.e. 2/(2k+1)."""
    return 2.0 / (2.0 * np.arange(p + 1) + 1.0)


def weighted_gram(phi, w):
    """Accumulate phi^T diag(w) phi (symmetric n x n) with one BLAS product."""
    return (phi * w[:, None]).T @ phi
