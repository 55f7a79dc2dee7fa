"""Gauss-Legendre rules on [-1, 1] and on physical elements and faces.

This is the one home of every Gauss rule and the one place where Gauss points
are mapped to an axis-parallel box: every rule comes from :func:`_box_grid`,
one box at a time or stacked over a group of boxes.  A box is given by its
arrays ``(lo, lengths)``.  A tensor rule is its grid, the per-axis
coordinates and the tensor weights, first axis slowest: the grouped element
and face rules that the evaluator reads are grids, a face's plane a one-node
axis.  :func:`element_rule`, the composite singular rule and
:func:`volume_rule` return an :class:`ElementRule`, a union of such grids that
expands into points on demand; the corner Gram of :mod:`hpdg.assembly` reads
its grids.  The plain volume and face rules of degree p have
:func:`plain_order` points per axis.

Smooth elements get affinely mapped tensor Gauss rules.  Elements touching
the singular point get a composite rule built from a geometric subdivision
toward the singular corner with ratio 1/2: ``depth`` shells plus the innermost
box, each carrying a tensor Gauss rule.  The innermost box has edge ratio
2^-depth, so with the default depth the leftover Gauss error on it sits below
1e-9 relative even for the strongest admissible singularities r^-alpha,
alpha < 2, in d = 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._kernels import legendre_table

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100

# Shells needed so the innermost-box error (~ (2^-depth)^(d-alpha)) clears the
# 1e-9 target for the worst case d - alpha = 1/2; cost is linear in depth.
DEFAULT_SINGULAR_DEPTH = 60


def plain_order(p):
    """Gauss points per axis of the plain volume and face rules for degree p
    (an int or an array of degrees): n = p + 4."""
    return p + 4


@dataclass(frozen=True)
class QuadRule1D:
    """An n-point Gauss-Legendre rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=None)
def _gauss_rule_cached(n: int) -> QuadRule1D:
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
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"gauss_rule needs an integer n >= 1, got {n!r}")
    return _gauss_rule_cached(int(n))


@dataclass(frozen=True)
class ElementRule:
    """A rule made of B tensor Gauss grids: per-axis coordinates ``axes[m]``
    (B, n) and weights ``grid_weights`` (B, n^d), which include the affine
    Jacobian, first axis slowest.  ``points`` (B n^d, d) and ``weights``
    (B n^d,) are the grids expanded box by box.  One box may drop its leading
    axis: coordinates (n,) and weights (n^d,)."""

    axes: tuple
    grid_weights: np.ndarray

    @property
    def points(self) -> np.ndarray:
        d, n = len(self.axes), self.axes[0].shape[-1]
        node = np.indices((n,) * d).reshape(d, -1)  # (axis, point)
        return np.stack([x[..., i] for x, i in zip(self.axes, node)], axis=-1).reshape(-1, d)

    @property
    def weights(self) -> np.ndarray:
        return self.grid_weights.reshape(-1)


def _box_grid(lo, lengths, n: int):
    """The n^k-point tensor Gauss rule on the box lo + [0, lengths] as a grid:
    the per-axis coordinates, a list of k arrays (n,), and the weights
    (n^k,), first axis slowest.  ``lo`` and ``lengths`` are (k,) for one box
    or (E, k) for a stack of boxes, whose axes are (E, n) and weights (E, n^k),
    F-ordered (strides (8, 8E)): :func:`hpdg.analysis.error_norms` copies a
    level's rows to this layout so that its sums round as on a lone level's.
    """
    g = gauss_rule(n)
    half = np.asarray(lengths)[..., None] / 2.0  # (..., k, 1)
    k = half.shape[-2]
    x = np.asarray(lo)[..., None] + (g.points + 1.0) * half  # (..., k, n)
    node = (..., np.arange(k)[:, None], np.indices((n,) * k).reshape(k, -1))  # (axis, point)
    return [x[..., m, :] for m in range(k)], np.prod((g.weights * half)[node], axis=-2)


def _face_grid(lo, lengths, axis: int, n: int):
    """:func:`_box_grid` on the tangential axes of the faces lo + [0, lengths]
    (E, d) normal to ``axis``, with the face planes lo[:, axis] as a one-node
    axis."""
    axes, weights = _box_grid(np.delete(lo, axis, 1), np.delete(lengths, axis, 1), n)
    axes.insert(axis, lo[:, axis, None])
    return axes, weights


def element_rule(lo, lengths, n: int) -> ElementRule:
    """Tensor Gauss rule with n points per dimension on the box lo + [0, lengths]
    (d,), or on the union of the boxes of a stack (E, d)."""
    axes, weights = _box_grid(lo, lengths, n)
    return ElementRule(tuple(axes), weights)


def element_rules(lo, lengths, n):
    """The boxes lo + [0, lengths] (E, d), the elements of a mesh, grouped by
    ``n`` (Gauss points per axis, one entry per box).  Yields the positions
    and their stacked grid: per-axis coordinates (E, n) and weights (E, n^d)."""
    for nk in np.unique(n).tolist():
        ids = np.flatnonzero(n == nk)
        yield ids, *_box_grid(lo[ids], lengths[ids], nk)


def face_rules(faces, n):
    """The :class:`hpdg.mesh.Faces` ``faces`` grouped by normal axis and ``n``
    (Gauss points per tangential axis, one entry per face).  Yields the
    positions in ``faces`` and their stacked grid on the face planes: per-axis
    coordinates, (E, 1) on the normal axis and (E, n) on the others, and
    weights (E, n^(d-1))."""
    keys = np.column_stack([faces.axis, n]).astype(np.int64)
    for key in np.unique(keys, axis=0):
        idx = np.flatnonzero(np.all(keys == key, axis=1))
        axis, nf = key.tolist()
        yield idx, *_face_grid(faces.lo[idx], faces.lengths[idx], axis, nf)


@functools.lru_cache(maxsize=16)
def _unit_singular_rule(d: int, n: int, depth: int) -> ElementRule:
    """The composite rule on [0, 1]^d graded toward the origin, read-only."""
    pattern = np.array([s for s in product((0, 1), repeat=d) if any(s)], dtype=bool)
    fin = 0.5 ** np.arange(1, depth + 1)[:, None, None]  # shell k lies between 2^-k and 2^(1-k)
    blo = np.where(pattern, fin, 0.0)  # (depth, 2^d - 1, d): the boxes shell by shell
    blen = np.where(pattern, 2 * fin, fin) - blo
    axes, w = _box_grid(np.vstack([blo.reshape(-1, d), np.zeros((1, d))]),
                        np.vstack([blen.reshape(-1, d), np.full((1, d), 0.5**depth)]), n)
    for a in axes + [w]:
        a.flags.writeable = False
    return ElementRule(tuple(axes), w)


def singular_rule(lo, lengths, n: int, depth: int) -> ElementRule:
    """Composite geometrically graded rule on the box lo + [0, lengths], which
    has the origin as a vertex.

    Shell k (k = 1..depth) covers the region between corner-distance fractions
    2^-k and 2^-(k+1) of the element with 2^d - 1 tensor Gauss boxes; the
    innermost box is included with its own tensor Gauss rule, so the weights
    sum exactly to |K| and no point hits c.  The rule is built once per
    (d, n, depth) on the unit cube and reflected toward the element's corner.
    The corner is found exactly: lo + lengths is bitwise 0 where the upper
    corner is the origin, since there lengths = 0 - lo.
    """
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    lo, lengths = np.asarray(lo, dtype=float), np.asarray(lengths, dtype=float)
    hi = lo + lengths
    at_lo = lo == 0
    if not np.all(at_lo | (hi == 0)):
        raise ValueError("element does not have the singular point as a vertex")
    unit = _unit_singular_rule(len(lo), n, depth)
    axes = [np.where(a, l + f * s, h - f * s)
            for a, l, h, s, f in zip(at_lo, lo, hi, lengths, unit.axes)]
    return ElementRule(tuple(axes), unit.grid_weights * float(np.prod(lengths)))


def volume_rule(lo, lengths, p: int) -> ElementRule:
    """Volume rule of degree p on a corner element lo + [0, lengths]: :func:`singular_rule`
    with :func:`plain_order` points per axis, depth max(DEFAULT_SINGULAR_DEPTH, 2p)."""
    return singular_rule(lo, lengths, plain_order(p), max(DEFAULT_SINGULAR_DEPTH, 2 * p))
