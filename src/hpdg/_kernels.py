"""Hot numeric kernels: Legendre tables, row-wise Kronecker products, Gram sums."""

from __future__ import annotations

import numpy as np


def legendre_table(x, p):
    """Values and first derivatives of P_0..P_p at the points ``x``.

    Returns two (len(x), p+1) arrays.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    p = int(p)
    vals = np.empty((x.shape[0], p + 1))
    ders = np.empty((x.shape[0], p + 1))
    vals[:, 0] = 1.0
    ders[:, 0] = 0.0
    if p >= 1:
        vals[:, 1] = x
        ders[:, 1] = 1.0
    for k in range(1, p):
        vals[:, k + 1] = ((2 * k + 1) * x * vals[:, k] - k * vals[:, k - 1]) / (k + 1)
        ders[:, k + 1] = ders[:, k - 1] + (2 * k + 1) * vals[:, k]
    return vals, ders


def row_kron(a, b):
    """Row-wise Kronecker product: out[i] = kron(a[i], b[i])."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def tensor_rows(tables):
    """Chain row_kron over per-dimension tables (first dimension slowest)."""
    out = tables[0]
    for t in tables[1:]:
        out = row_kron(out, t)
    return out


def weighted_gram(phi, w):
    """Accumulate phi^T diag(w) phi (symmetric n x n) with one BLAS product."""
    return (phi * w[:, None]).T @ phi
