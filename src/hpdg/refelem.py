"""Reference-element machinery: Gauss-Legendre rules and Legendre norms.

Everything lives on the reference interval [-1, 1]; the Legendre tables are
:func:`hpdg._kernels.legendre_table`, and tensorization to the d-cube happens
in :mod:`hpdg.quadrature` (rules) and :mod:`hpdg.hpspace` (bases).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import legendre_table

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


@dataclass(frozen=True)
class QuadRule1D:
    """An n-point Gauss-Legendre rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=None)
def _gauss_rule_cached(n: int) -> QuadRule1D:
    if n == 1:
        return QuadRule1D(np.zeros(1), np.full(1, 2.0))
    # Newton iteration on P_n from Chebyshev initial guesses.
    i = np.arange(n)
    x = -np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(_NEWTON_MAXIT):
        vals, ders = legendre_table(x, n)
        dx = vals[:, n] / ders[:, n]
        x -= dx
        if np.max(np.abs(dx)) < _NEWTON_TOL:
            break
    # Enforce exact symmetry about 0.
    x = 0.5 * (x - x[::-1])
    _, ders = legendre_table(x, n)
    w = 2.0 / ((1.0 - x * x) * ders[:, n] ** 2)
    w = 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadRule1D(x, w)


def gauss_rule(n: int) -> QuadRule1D:
    """n-point Gauss-Legendre rule, exact for polynomials of degree 2n-1."""
    if n < 1:
        raise ValueError(f"gauss_rule needs n >= 1, got {n}")
    return _gauss_rule_cached(int(n))


def legendre_l2_norms_sq(p: int) -> np.ndarray:
    """Squared L2([-1,1]) norms of P_0..P_p, i.e. 2/(2k+1)."""
    return 2.0 / (2.0 * np.arange(p + 1) + 1.0)
