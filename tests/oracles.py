"""Independent oracles used by the test suite.

The integration oracles deliberately avoid the library's own
quadrature/assembly code paths: the adaptive integrator refines boxes wherever
a coarse and a fine Gauss estimate disagree, and its results are accepted only
after a Richardson-style agreement check between two tolerance levels.  The
per-element oracles restate a batched library routine as one loop over
elements and faces, one rule and one basis table at a time.
"""

import math
from itertools import product

import numpy as np

from hpdg.hpspace import basis_matrices, basis_matrix, containing_map
from hpdg.mesh import INTERIOR
from hpdg.quadrature import element_rule, face_rule
from hpdg.refelem import legendre_l2_norms_sq


def _gauss(n):
    return np.polynomial.legendre.leggauss(n)


def box_gauss(f, lo, hi, n):
    """Plain tensor Gauss estimate of the integral of f over a box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.size
    xg, wg = _gauss(n)
    axes = [lo[m] + (hi[m] - lo[m]) * (xg + 1) / 2 for m in range(d)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = np.ones(1)
    for m in range(d):
        w = np.multiply.outer(w, wg * (hi[m] - lo[m]) / 2).ravel()
    return float(np.asarray(f(pts)) @ w)


def adaptive_integral(f, lo, hi, tol=1e-13, n=8):
    """Adaptive-subdivision integral of f over the box [lo, hi].

    Splits any box whose n-point and (n+4)-point tensor Gauss estimates
    differ by more than the local tolerance.
    """
    total = 0.0
    stack = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))]
    d = len(lo)
    while stack:
        blo, bhi = stack.pop()
        coarse = box_gauss(f, blo, bhi, n)
        fine = box_gauss(f, blo, bhi, n + 4)
        if abs(coarse - fine) <= tol:
            total += fine
        else:
            mid = 0.5 * (blo + bhi)
            for s in product((0, 1), repeat=d):
                s = np.array(s, dtype=bool)
                stack.append((np.where(s, mid, blo), np.where(s, bhi, mid)))
    return total


def checked_integral(f, lo, hi, tol=1e-12):
    """Adaptive integral with a Richardson consistency check between levels."""
    coarse = adaptive_integral(f, lo, hi, tol=tol)
    fine = adaptive_integral(f, lo, hi, tol=tol / 10)
    if abs(coarse - fine) > 50 * tol * max(1.0, abs(fine)):
        raise AssertionError(
            f"adaptive oracle failed its Richardson check: {coarse} vs {fine}"
        )
    return fine


def radial_power(alpha):
    """The integrand r^-alpha as a vectorized callable."""

    def f(pts):
        r = np.sqrt(np.sum(pts * pts, axis=1))
        return r ** (-alpha)

    return f


def _values_grads(field, eid, pts):
    phi, grads = basis_matrices(field.space.mesh.elements[eid], int(field.space.degrees[eid]), pts)
    c = field.local(eid)
    return phi @ c, [g @ c for g in grads]


def error_norms_per_element(coarse, reference):
    """``hpdg.analysis.error_norms`` as a loop over fine elements and faces."""
    ref_space = reference.space
    fine_mesh = ref_space.mesh
    cmap = containing_map(coarse.space.mesh, fine_mesh)

    def value_diff(cid, eid, pts):
        return _values_grads(coarse, cid, pts)[0] - _values_grads(reference, eid, pts)[0]

    l2_sq = h1_sq = jump_sq = linf = 0.0
    for e in fine_mesh.elements:
        cid = int(cmap[e.id])
        n = max(int(ref_space.degrees[e.id]), int(coarse.space.degrees[cid])) + 2
        rule = element_rule(e, n)
        pts, w = rule.points, rule.weights
        cv, cg = _values_grads(coarse, cid, pts)
        rv, rg = _values_grads(reference, e.id, pts)
        diff = cv - rv
        l2_sq += float(w @ (diff * diff))
        h1_sq += sum(float(w @ ((a - b) ** 2)) for a, b in zip(cg, rg))
        corners = e.lo + np.array(list(product((0, 1), repeat=fine_mesh.d))) * e.lengths
        linf = max(linf, float(np.max(np.abs(diff))),
                   float(np.max(np.abs(value_diff(cid, e.id, corners)))))
    for f in fine_mesh.faces:
        if f.kind != INTERIOR:
            continue
        ea, eb = f.owners
        degs = [int(ref_space.degrees[ea]), int(ref_space.degrees[eb]),
                int(coarse.space.degrees[cmap[ea]]), int(coarse.space.degrees[cmap[eb]])]
        rule = face_rule(f, max(degs) + 2)
        jump = (value_diff(int(cmap[ea]), ea, rule.points)
                - value_diff(int(cmap[eb]), eb, rule.points))
        jump_sq += ref_space.face_degree(f) ** 2 / f.h_e * float(rule.weights @ (jump * jump))
    return {"l2": math.sqrt(l2_sq), "dg": math.sqrt(l2_sq + h1_sq + jump_sq), "linf": linf}


def project_per_element(space, values):
    """Element-local L2 projection, one element at a time:
    ``values(element, pts)`` is the target at the element's rule points."""
    coeffs = np.zeros(space.N)
    for e in space.mesh.elements:
        p = int(space.degrees[e.id])
        rule = element_rule(e, p + 4)
        phi = basis_matrix(e, p, rule.points)
        mass = np.ones(phi.shape[1])
        for m, k in enumerate(space.modes(e.id).T):
            mass *= legendre_l2_norms_sq(p)[k] * (e.lengths[m] / 2.0)
        coeffs[space.local_slice(e.id)] = phi.T @ (rule.weights * values(e, rule.points)) / mass
    return coeffs
