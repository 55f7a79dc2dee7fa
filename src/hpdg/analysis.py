"""Error norms between nested solutions and exponential-rate fitting.

Errors are always measured on the *reference* mesh and face set: the coarse
field is evaluated inside the reference elements through its containing coarse
element (gradients by analytic differentiation of the local expansion), so no
numerical differentiation or face nudging is needed.  The DG norm combines the
broken H1 norm with the interior-face jump penalty p_e^2 / h_e of the
reference space.  Both fields are evaluated per group of elements (or faces,
or corners) with :func:`hpdg.hpspace.evaluate_grid`, and each element's sums
are reduced before they are accumulated.  The squared norms count the mesh
``copies`` times, so they are the whole cube's; the L-infinity norm needs no
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hpspace import DiscreteField, containing_map, evaluate_grid
from .quadrature import element_rules, face_rules

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


def error_norms(coarse: DiscreteField, reference: DiscreteField) -> dict:
    """All error norms of coarse - reference on the fine mesh.

    Returns a dict with keys 'l2', 'dg', 'linf'.
    """
    space, mesh = reference.space, reference.space.mesh
    cmap = containing_map(coarse.space.mesh, mesh)
    p_c = coarse.space.degrees[cmap]  # per fine element

    def diff(eids, axes, grads=False):
        (cv, cg), (rv, rg) = (evaluate_grid(coarse, cmap[eids], axes, grads),
                              evaluate_grid(reference, eids, axes, grads))
        return cv - rv, (cg - rg if grads else None)

    l2_sq, h1_sq = np.zeros(mesh.n_elements), np.zeros(mesh.n_elements)
    corners = [np.column_stack([mesh.lo[:, m], mesh.hi[:, m]]) for m in range(mesh.d)]
    linf = float(np.max(np.abs(diff(np.arange(mesh.n_elements), corners)[0])))
    for ids, axes, weights in element_rules(mesh, np.maximum(space.degrees, p_c) + 2):
        dv, dg = diff(ids, axes, grads=True)
        l2_sq[ids] = np.einsum("eq,eq->e", weights, dv * dv)
        h1_sq[ids] = np.einsum("eq,meq->e", weights, dg * dg)
        linf = max(linf, float(np.max(np.abs(dv))))

    faces = mesh.faces[mesh.faces.interior]
    a, b = faces.owners.T
    p_e = space.face_degree[mesh.faces.interior]
    jump_sq = np.zeros(len(faces))
    for idx, axes, weights in face_rules(faces, np.maximum(p_e, np.maximum(p_c[a], p_c[b])) + 2):
        jump = diff(a[idx], axes)[0] - diff(b[idx], axes)[0]
        jump_sq[idx] = np.einsum("eq,eq->e", weights, jump * jump)
    jump_sq *= p_e**2 / faces.h_e

    l2_sq, h1_sq, jump_sq = (mesh.copies * float(np.sum(x)) for x in (l2_sq, h1_sq, jump_sq))
    return {"l2": math.sqrt(l2_sq), "dg": math.sqrt(l2_sq + h1_sq + jump_sq), "linf": linf}


def fit_exponential(records, column: str, abscissa: str = "ell",
                    dim: int | None = None) -> FitResult:
    """Least-squares fit of log(err) vs the abscissa; rows with err at or
    below ERROR_FLOOR drop out, and a non-finite err raises.

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
    bad = ~np.isfinite(errs)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"err_{column} is not finite at ell={records[k].ell}: {errs[k]}")
    usable = errs > ERROR_FLOOR
    if int(usable.sum()) < 3:
        raise ValueError(f"need at least 3 records with err > {ERROR_FLOOR} to fit, "
                         f"have {int(usable.sum())}")
    x, y = xs[usable], np.log(errs[usable])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return FitResult(b=-float(slope), C=float(np.exp(intercept)), r2=r2, abscissa=abscissa)
