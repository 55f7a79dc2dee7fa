"""Physical-element and face quadrature rules.

This is the one place where Gauss points are mapped to an axis-parallel box:
volume rules, face rules and the composite singular rule all come from
:func:`_box_rule`.

Smooth elements get affinely mapped tensor Gauss rules.  Elements touching
the singular point get a composite rule built from a geometric subdivision
toward the singular corner with ratio 1/2: ``depth`` shells plus the innermost
box, each carrying a tensor Gauss rule.  The innermost box has edge ratio
2^-depth, so with the default depth the leftover Gauss error on it sits below
1e-9 relative even for the strongest admissible singularities r^-alpha,
alpha < 2, in d = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .mesh import Element, Face
from .refelem import gauss_rule

# Shells needed so the innermost-box error (~ (2^-depth)^(d-alpha)) clears the
# 1e-9 target for the worst case d - alpha = 1/2; cost is linear in depth.
DEFAULT_SINGULAR_DEPTH = 60


@dataclass(frozen=True)
class ElementRule:
    points: np.ndarray  # (nq, d) physical points
    weights: np.ndarray  # (nq,) includes the affine Jacobian


def _box_rule(lo, lengths, n: int) -> ElementRule:
    """n^k-point tensor Gauss rule on the box lo + [0, lengths] (first axis slowest)."""
    g = gauss_rule(n)
    axes = [lo[m] + (g.points + 1.0) * (lengths[m] / 2.0) for m in range(len(lo))]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([gr.ravel() for gr in grids], axis=1)
    w = np.ones(1)
    for m in range(len(lo)):
        w = np.multiply.outer(w, g.weights * (lengths[m] / 2.0)).ravel()
    return ElementRule(pts, w)


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"need n >= 1 points per dimension, got {n}")


def element_rule(element: Element, n: int) -> ElementRule:
    """Tensor Gauss rule with n points per dimension, mapped to the element."""
    _check_n(n)
    return _box_rule(element.lo, element.lengths, n)


def face_rule(face: Face, n: int) -> ElementRule:
    """Tensor Gauss rule with n points per tangential dimension on a face.

    The points are d-dimensional and lie on the face plane.
    """
    _check_n(n)
    tdims = [m for m in range(len(face.lo)) if m != face.axis]
    r = _box_rule(face.lo[tdims], face.lengths[tdims], n)
    pts = np.insert(r.points, face.axis, face.lo[face.axis], axis=1)
    return ElementRule(pts, r.weights)


def singular_rule(element: Element, n: int, depth: int) -> ElementRule:
    """Composite geometrically graded rule for an element cornered at c = 0.

    Shell k (k = 1..depth) covers the region between corner-distance fractions
    2^-k and 2^-(k+1) of the element with 2^d - 1 tensor Gauss boxes; the
    innermost box is included with its own tensor Gauss rule, so the weights
    sum exactly to |K| and no point hits c.
    """
    _check_n(n)
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    d = len(element.lo)
    lo, hi = element.lo, element.hi
    # Locate the corner of the element at the singular point (the origin).
    corner_at_lo = []
    for m in range(d):
        if abs(lo[m]) <= 1e-14:
            corner_at_lo.append(True)
        elif abs(hi[m]) <= 1e-14:
            corner_at_lo.append(False)
        else:
            raise ValueError("element does not have the singular point as a vertex")

    def sub_rule(frac_lo, frac_hi):
        """Rule on the box at per-dim distance fractions [frac_lo, frac_hi] from c."""
        blo, bhi = np.empty(d), np.empty(d)
        for m in range(d):
            L = element.lengths[m]
            if corner_at_lo[m]:
                blo[m], bhi[m] = lo[m] + frac_lo[m] * L, lo[m] + frac_hi[m] * L
            else:
                blo[m], bhi[m] = hi[m] - frac_hi[m] * L, hi[m] - frac_lo[m] * L
        return _box_rule(blo, bhi - blo, n)

    patterns = [s for s in product((0, 1), repeat=d) if any(s)]
    rules = []
    for k in range(1, depth + 1):
        fin, fout = 0.5**k, 0.5 ** (k - 1)
        for s in patterns:
            rules.append(sub_rule([fin if sm else 0.0 for sm in s],
                                  [fout if sm else fin for sm in s]))
    rules.append(sub_rule([0.0] * d, [0.5**depth] * d))
    return ElementRule(np.vstack([r.points for r in rules]),
                       np.concatenate([r.weights for r in rules]))


def volume_rule(element: Element, p: int, singular: bool = False,
                depth: int | None = None) -> ElementRule:
    """Default volume rule: n = p + 4 tensor Gauss, composite when singular."""
    n = p + 4
    if singular:
        if depth is None:
            depth = max(DEFAULT_SINGULAR_DEPTH, 2 * p)
        return singular_rule(element, n, depth)
    return element_rule(element, n)
