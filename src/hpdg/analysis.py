"""Error norms between nested solutions and exponential-rate fitting.

Errors are always measured on the *reference* mesh and face set: the coarse
field is evaluated inside the reference elements through its containing coarse
element (gradients by analytic differentiation of the local expansion), so no
numerical differentiation or face nudging is needed.  The DG norm combines the
broken H1 norm with the interior-face jump penalty p_e^2 / h_e of the
reference space.  :func:`error_norms` measures every level of a study in one
pass: per group of elements (or faces, or corners) it evaluates the reference
once, with :func:`hpdg.hpspace.evaluate_grid`, and the coarse fields of all
levels together, on their element arrays stacked.  Each level's sums are
reduced per element as a lone level's would be, so each level's norms are
bitwise those of a call with that level alone.  The squared norms count the
mesh ``copies`` times, so they are the whole cube's; the L-infinity norm needs
no factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hpspace import DiscreteField, _evaluate, containing_map, evaluate_grid
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


def error_norms(coarse, reference: DiscreteField):
    """All error norms of coarse - reference on the reference mesh.

    ``coarse`` is one field, or a sequence of fields (the levels of a study)
    measured in one pass.  Returns a dict with keys 'l2', 'dg', 'linf' for
    one field, a list of such dicts for a sequence.
    """
    single = isinstance(coarse, DiscreteField)
    fields = [coarse] if single else list(coarse)
    if not fields:
        raise ValueError("coarse: need at least one field")
    space, mesh = reference.space, reference.space.mesh
    n_levels, n_el = len(fields), mesh.n_elements
    cmap = np.empty((n_levels, n_el), dtype=np.int64)
    for k, field in enumerate(fields):
        try:
            cmap[k] = containing_map(field.space.mesh, mesh)
        except ValueError as exc:
            if single:
                raise
            raise type(exc)(f"coarse[{k}]: {exc}") from exc
    # The coarse spaces' element arrays stacked: level k's element c is cid_base[k] + c.
    spaces = [f.space for f in fields]
    cid_base = np.cumsum([0] + [s.mesh.n_elements for s in spaces[:-1]])
    dof_base = np.cumsum([0] + [s.N for s in spaces[:-1]])
    stack = (np.concatenate([s.mesh.lo for s in spaces]),
             np.concatenate([s.mesh.lengths for s in spaces]),
             np.concatenate([s.degrees for s in spaces]),
             np.concatenate([s.offsets + b for s, b in zip(spaces, dof_base)]),
             np.concatenate([f.coeffs for f in fields]))
    cid = cid_base[:, None] + cmap  # (level, fine element)
    p_c = stack[2][cid]

    def diff(items, cids, eids, axes, grads=False):
        """coarse - reference on the grids ``axes`` of (level, item) pairs:
        the coarse side in the stacked elements ``cids``, the reference side
        in the elements ``eids``, once per distinct item."""
        _, first, at = np.unique(items, return_index=True, return_inverse=True)
        rv, rg = evaluate_grid(reference, eids[first], [x[first] for x in axes], grads)
        cv, cg = _evaluate(*stack, cids, axes, grads)
        return cv - rv[at], (cg - rg[:, at] if grads else None)

    every = np.tile(np.arange(n_el), n_levels)
    corners = [np.tile(np.column_stack([mesh.lo[:, m], mesh.hi[:, m]]), (n_levels, 1))
               for m in range(mesh.d)]
    linf = np.max(np.abs(diff(every, cid.ravel(), every, corners)[0]).reshape(n_levels, -1), axis=1)
    # The rules are grouped over the (level, item) pairs, level-major.  Each
    # level's sums take its rows of the weights as an F-ordered copy: the
    # layout of a lone level's rule (quadrature._box_grid's weights are
    # F-ordered), which einsum rounds alike; a C-ordered copy rounds apart.
    l2_sq, h1_sq = np.zeros((n_levels, n_el)), np.zeros((n_levels, n_el))
    boxes = np.tile(mesh.lo, (n_levels, 1)), np.tile(mesh.lengths, (n_levels, 1))
    for pairs, axes, weights in element_rules(*boxes, (np.maximum(space.degrees, p_c) + 2).ravel()):
        level, el = np.divmod(pairs, n_el)
        dv, dg = diff(el, cid[level, el], el, axes, grads=True)
        for k in np.unique(level).tolist():
            rows = level == k
            w, v, g = np.asfortranarray(weights[rows]), dv[rows], dg[:, rows]
            l2_sq[k, el[rows]] = np.einsum("eq,eq->e", w, v * v)
            h1_sq[k, el[rows]] = np.einsum("eq,meq->e", w, g * g)
            linf[k] = max(linf[k], np.max(np.abs(v)))

    faces = mesh.faces[mesh.faces.interior]
    a, b = faces.owners.T
    p_e = space.face_degree[mesh.faces.interior]
    jump_sq = np.zeros((n_levels, len(faces)))
    n = np.maximum(p_e, np.maximum(p_c[:, a], p_c[:, b])) + 2
    tiled = faces[np.tile(np.arange(len(faces)), n_levels)]
    for pairs, axes, weights in face_rules(tiled, n.ravel()):
        level, f = np.divmod(pairs, len(faces))
        sides = diff(np.concatenate([f, f + len(faces)]),  # both owners in one evaluation
                     np.concatenate([cid[level, a[f]], cid[level, b[f]]]),
                     np.concatenate([a[f], b[f]]), [np.concatenate([x, x]) for x in axes])[0]
        jump = sides[:len(f)] - sides[len(f):]
        for k in np.unique(level).tolist():
            rows = level == k
            j = jump[rows]
            jump_sq[k, f[rows]] = np.einsum("eq,eq->e", np.asfortranarray(weights[rows]), j * j)
    jump_sq *= p_e**2 / faces.h_e

    norms, copies = [], mesh.copies
    for k in range(n_levels):
        l2, h1, jp = (copies * float(np.sum(x[k])) for x in (l2_sq, h1_sq, jump_sq))
        norms.append({"l2": math.sqrt(l2), "dg": math.sqrt(l2 + h1 + jp), "linf": float(linf[k])})
    return norms[0] if single else norms


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
