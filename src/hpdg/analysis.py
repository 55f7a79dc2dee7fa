"""Error norms between nested solutions and exponential-rate fitting.

Errors are always measured on the *reference* mesh and face set: the coarse
field is evaluated inside the reference elements through its containing coarse
element (gradients by analytic differentiation of the local expansion), so no
numerical differentiation or face nudging is needed.  The DG norm combines the
broken H1 norm with the interior-face jump penalty p_e^2 / h_e of the
reference space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .hpspace import (DiscreteField, MeshNestingError, basis_matrices,  # noqa: F401
                      containing_map, evaluate_in_element)
from .mesh import INTERIOR
from .quadrature import element_rule, face_rule

ERROR_FLOOR = 1e-12

_COLUMNS = ("l2", "dg", "linf", "lambda")
_ABSCISSAE = ("ell", "ndof_root")


@dataclass
class ConvergenceRecord:
    ell: int
    N: int
    lam: float
    err_l2: float
    err_dg: float
    err_linf: float
    err_lambda: float


@dataclass
class FitResult:
    b: float
    C: float
    r2: float
    abscissa: str


def _values_grads(field: DiscreteField, eid: int, pts):
    e = field.space.mesh.elements[eid]
    p = int(field.space.degrees[eid])
    phi, grads = basis_matrices(e, p, pts)
    c = field.local(eid)
    return phi @ c, [g @ c for g in grads]


def _corners(element):
    cube = np.array(list(product((0, 1), repeat=len(element.lo))))
    return element.lo + cube * element.lengths


def error_norms(coarse: DiscreteField, reference: DiscreteField) -> dict:
    """All error norms of coarse - reference in one pass over the fine mesh.

    Returns a dict with keys 'l2', 'dg', 'linf'.
    """
    ref_space = reference.space
    fine_mesh = ref_space.mesh
    cmap = containing_map(coarse.space.mesh, fine_mesh)

    def value_diff(cid, eid, pts):
        return evaluate_in_element(coarse, cid, pts) - evaluate_in_element(reference, eid, pts)

    l2_sq = 0.0
    h1_sq = 0.0
    jump_sq = 0.0
    linf = 0.0

    for e in fine_mesh.elements:
        cid = int(cmap[e.id])
        n = max(int(ref_space.degrees[e.id]), int(coarse.space.degrees[cid])) + 2
        rule = element_rule(e, n)
        pts, w = rule.points, rule.weights
        cv, cg = _values_grads(coarse, cid, pts)
        rv, rg = _values_grads(reference, e.id, pts)
        diff = cv - rv
        l2_sq += float(w @ (diff * diff))
        for m in range(fine_mesh.d):
            gm = cg[m] - rg[m]
            h1_sq += float(w @ (gm * gm))
        linf = max(linf, float(np.max(np.abs(diff))))
        linf = max(linf, float(np.max(np.abs(value_diff(cid, e.id, _corners(e))))))

    for f in fine_mesh.faces:
        if f.kind != INTERIOR:
            continue
        ea, eb = f.owners
        degs = [int(ref_space.degrees[ea]), int(ref_space.degrees[eb]),
                int(coarse.space.degrees[cmap[ea]]), int(coarse.space.degrees[cmap[eb]])]
        rule = face_rule(f, max(degs) + 2)
        pts, w = rule.points, rule.weights
        jump = value_diff(int(cmap[ea]), ea, pts) - value_diff(int(cmap[eb]), eb, pts)
        p_e = ref_space.face_degree(f)
        jump_sq += p_e**2 / f.h_e * float(w @ (jump * jump))

    return {
        "l2": math.sqrt(l2_sq),
        "dg": math.sqrt(l2_sq + h1_sq + jump_sq),
        "linf": linf,
    }


def full_dg_norm(field: DiscreteField) -> float:
    """Diagnostic full DG norm (3D form) of a single field.

    Broken H1 norm plus the face terms p_e^2/h_e ||[u]||^2 and
    p_e^-2 ||r^(1/2) grad u . n||^2, with r the distance to the singular
    point.  Boundary faces contribute one-sided traces (the jump term then
    measures the Dirichlet violation); on interior faces the flux term uses
    the average gradient.  Only defined for d = 3, matching the norm variant
    implemented here; the 2D variant with L^q corner-edge terms is not
    provided.
    """
    space = field.space
    mesh = space.mesh
    if mesh.d != 3:
        raise ValueError("the full DG norm diagnostic is implemented for d = 3 only")
    total = 0.0
    for e in mesh.elements:
        n = int(space.degrees[e.id]) + 2
        rule = element_rule(e, n)
        pts, w = rule.points, rule.weights
        v, g = _values_grads(field, e.id, pts)
        total += float(w @ (v * v)) + sum(float(w @ (gm * gm)) for gm in g)
    for f in mesh.faces:
        p_e = space.face_degree(f)
        rule = face_rule(f, p_e + 2)
        pts, w = rule.points, rule.weights
        r = np.sqrt(np.sum(pts * pts, axis=1))
        if f.kind == INTERIOR:
            va, ga = _values_grads(field, f.owners[0], pts)
            vb, gb = _values_grads(field, f.owners[1], pts)
            jump = va - vb
            flux = 0.5 * (ga[f.axis] + gb[f.axis])
        else:
            va, ga = _values_grads(field, f.owners[0], pts)
            jump = va
            flux = f.sign * ga[f.axis]
        total += p_e**2 / f.h_e * float(w @ (jump * jump))
        total += p_e**-2 * float(w @ (r * flux * flux))
    return math.sqrt(total)


def fit_exponential(records, column: str, abscissa: str = "ell",
                    dim: int | None = None, floor: float = ERROR_FLOOR) -> FitResult:
    """Least-squares fit of log(err) vs the abscissa; rows below floor drop out.

    ``column`` is one of 'l2', 'dg', 'linf', 'lambda'; ``abscissa`` is 'ell'
    or 'ndof_root' (N^(1/(d+1)), which needs ``dim``).
    """
    if column not in _COLUMNS:
        raise ValueError(f"column must be one of {_COLUMNS}, got {column!r}")
    if abscissa not in _ABSCISSAE:
        raise ValueError(f"abscissa must be one of {_ABSCISSAE}, got {abscissa!r}")
    errs = np.array([getattr(r, f"err_{column}") for r in records], dtype=float)
    if abscissa == "ell":
        xs = np.array([r.ell for r in records], dtype=float)
    else:
        if dim is None:
            raise ValueError("abscissa 'ndof_root' needs the dimension d")
        xs = np.array([r.N ** (1.0 / (dim + 1)) for r in records], dtype=float)
    usable = errs > floor
    if int(usable.sum()) < 3:
        raise ValueError(
            f"need at least 3 records with err > {floor} to fit, have {int(usable.sum())}"
        )
    x, y = xs[usable], np.log(errs[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return FitResult(b=-float(slope), C=float(np.exp(intercept)), r2=r2, abscissa=abscissa)
